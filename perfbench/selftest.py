"""Self-test of the benchmark.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.

Runs every workload at a tiny size, untraced and traced, and expects clean
results with every declared metric.  Then corrupts outputs after the CLI
wrote them (a ``health.csv`` cut to half its lines, a theorem conclusion
flipped) and expects each such operation to count as failed.  Exits 0 when
every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from functools import partial

import run
from workloads import DetectWorkload, GenerateWorkload, TheoremsWorkload

# Small enough to finish in seconds.
TINY = {
    "generate": {"samples_per_state": 2},
    "detect": {"samples_per_state": 8},
    "theorems": {"times": 3},
}
CLASSES = {"generate": GenerateWorkload, "detect": DetectWorkload, "theorems": TheoremsWorkload}


class TruncatedHealth(GenerateWorkload):
    """Cuts one ``health.csv`` to half its lines before it is checked."""

    def check(self, out):
        path = out / "datasets" / "good_low" / "health.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))
        return super().check(out)


class FlippedConclusion(TheoremsWorkload):
    """Flips the frame-mapping conclusion before the reports are checked."""

    def check(self, out):
        path = out / "theorem_frame_mapping.json"
        report = json.loads(path.read_text())
        report["conclusion"] = not report["conclusion"]
        path.write_text(json.dumps(report))
        return super().check(out)


def run_case(label: str, workload: str, trace: int, factory) -> tuple:
    args = run.parse_args(
        ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    )
    work = run.ROOT / ".perfbench" / f"selftest-{label}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run.run(args, work, factory)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for name, cls in CLASSES.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run_case(f"{name}-{trace}", name, trace, partial(cls, **TINY[name]))
            declared = {m["name"] for m in spec[section]}
            if not result["correct"] or result["failed"]:
                failures.append(f"{name} trace {trace}: {record['operations']}")
            if set(result["metrics"]) != declared:
                failures.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
            if record["absent_functions"]:
                failures.append(f"{name}: absent functions {record['absent_functions']}")
            print(f"{name} trace {trace}: attempted {result['attempted']}, failed {result['failed']}")
    corrupted = {
        "truncated health.csv": ("generate", TruncatedHealth),
        "flipped theorem conclusion": ("theorems", FlippedConclusion),
    }
    for label, (name, cls) in corrupted.items():
        result, record = run_case(label.replace(" ", "-"), name, 0, partial(cls, **TINY[name]))
        ok_frac = result["metrics"]["ops_ok_frac"]["value"]
        problems = record["operations"][0]["problems"]
        print(f"{label}: failed {result['failed']} of {result['attempted']}, "
              f"ops_ok_frac {ok_frac}: {problems[:1]}")
        if result["correct"] or result["failed"] != result["attempted"] or ok_frac != 0.0:
            failures.append(f"{label} not counted as a failure")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
