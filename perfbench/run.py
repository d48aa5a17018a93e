"""framesense benchmark: CLI workloads driven in a closed loop by one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload generate|detect|theorems \\
        --seed N --seconds S --trace 0|1

One process (this one) builds the workload's inputs from the seed, then for
S seconds starts one ``framesense`` operation at a time as its own process
and waits for it to exit.  Every operation's output is checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the run record (versions,
thread counts, seed, input sizes, per-operation figures); a copy goes to
``.perfbench/records/``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced operations with operations run through
``tracer.py`` and reports the per-layer metrics, plus the tracing overhead
(traced minus untraced operation wall time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import new_counts
from workloads import (
    BLAS_THREADS,
    CLI_ENTRY,
    HERE,
    WORKLOADS,
    BenchmarkError,
    child_env,
    spawn,
)

ROOT = HERE.parent
TRACER = HERE / "tracer.py"

# Python start plus ``import framesense.cli``: what every operation pays
# before it does any work.
SETUP_PROBE = [sys.executable, "-c", "import framesense.cli"]
MIN_SETUP_PROBES = 9

COUNT_NAMES = set(new_counts())

# Where a function's busy time is the sum of named stages plus its own
# overhead, the overhead is reported as its own metric.
STAGES = {
    "turbine.generate_self_s": (
        "turbine.generate_dataset",
        ("turbine.engine_signal", "turbine.mix_and_sense", "turbine.dft_block",
         "turbine.health_project"),
    ),
}


def run_operation(workload, index: int, traced: bool, env: dict) -> dict:
    out = workload.work / f"op{index}"
    log = workload.work / f"op{index}.log"
    summary = workload.work / f"op{index}.trace.json"
    if traced:
        argv = [sys.executable, str(TRACER), str(summary)] + workload.argv(out)
    else:
        argv = [sys.executable, "-c", CLI_ENTRY] + workload.argv(out)
    wall, rss, rc = spawn(argv, env, log)
    op = {"wall_s": wall, "peak_rss_mb": rss, "traced": traced, "problems": []}
    if rc:
        op["problems"].append(f"exit code {rc}: {log.read_text()[-300:]}")
    try:
        if traced:
            op["trace"] = json.loads(summary.read_text())
        op["problems"] += workload.check(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        op["problems"].append(f"output unreadable: {err!r}")
    shutil.rmtree(out, ignore_errors=True)
    return op


def measure(workload, seconds: float, trace: bool, env: dict) -> tuple:
    """Run the closed loop; return (operations, set-up probe times)."""
    spawn(SETUP_PROBE, env, workload.work / "probe.log")  # compiles bytecode
    ops, probes = [], []
    deadline = time.perf_counter() + seconds
    while len(ops) < (2 if trace else 1) or time.perf_counter() < deadline:
        if not trace:
            probes.append(spawn(SETUP_PROBE, env, workload.work / "probe.log")[0])
        ops.append(run_operation(workload, len(ops), trace and len(ops) % 2 == 1, env))
    while not trace and len(probes) < MIN_SETUP_PROBES:
        probes.append(spawn(SETUP_PROBE, env, workload.work / "probe.log")[0])
    return ops, probes


def end_to_end_metrics(workload, ops: list, probes: list) -> dict:
    wall = statistics.median(op["wall_s"] for op in ops)
    failed = sum(1 for op in ops if op["problems"])
    return {
        "op_wall_s": wall,
        "samples_per_s": workload.samples / wall,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "ops_ok_frac": (len(ops) - failed) / len(ops),
    }


def metric_rule(name: str) -> tuple:
    """How a per-layer metric is read from a trace summary: (kind, key)."""
    if name in COUNT_NAMES:
        return "count", name
    if name == "cli.self_s":
        return "cli", None
    if name in STAGES:
        return "stages", name
    if name.endswith(".self_s"):
        return "layer_self_s", name[: -len(".self_s")]
    if name.endswith(".busy_s"):
        return "layer_busy_s", name[: -len(".busy_s")]
    for suffix, field in (("_self_s", "self_s"), ("_calls", "calls"), ("_s", "busy_s")):
        if name.endswith(suffix):
            return field, name[: -len(suffix)]
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def referenced_functions(names) -> set:
    """The functions the per-layer metrics read, by qualified name."""
    out = set()
    for name in names:
        kind, key = metric_rule(name)
        if kind == "stages":
            out.add(STAGES[key][0])
            out.update(STAGES[key][1])
        elif kind in ("busy_s", "self_s", "calls"):
            out.add(key)
    return out


def layer_values(summary: dict, wall: float, names) -> dict:
    """One traced operation's per-layer figures, by metric name."""
    functions = summary["functions"]

    def field(function, key):
        return functions.get(function, {}).get(key, 0)

    values = {}
    for name in names:
        kind, key = metric_rule(name)
        if kind == "count":
            values[name] = summary["counts"][key]
        elif kind == "cli":
            layers = summary["layer_self_s"]
            values[name] = wall - sum(s for layer, s in layers.items() if layer != "cli")
        elif kind == "stages":
            parent, stages = STAGES[key]
            values[name] = field(parent, "busy_s") - sum(field(s, "busy_s") for s in stages)
        elif kind in ("layer_self_s", "layer_busy_s"):
            values[name] = summary[kind][key]
        else:
            values[name] = field(key, kind)
    return values


def per_layer_metrics(ops: list, names) -> tuple:
    """Medians over traced operations; (metrics, absent functions)."""
    traced = [op for op in ops if op["traced"] and "trace" in op]
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    if not traced:
        raise BenchmarkError("no traced operation produced a trace summary")
    names = [n for n in names if not n.startswith("trace.")]
    per_op = [layer_values(op["trace"], op["wall_s"], names) for op in traced]
    # Counts repeat exactly from one operation to the next; median_low keeps
    # them whole numbers.
    metrics = {
        name: (statistics.median_low if isinstance(per_op[0][name], int) else statistics.median)(
            v[name] for v in per_op
        )
        for name in names
    }
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    metrics["trace.op_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    absent = sorted(referenced_functions(names) - set(traced[0]["trace"]["patched"]))
    return metrics, absent


def git_sha():
    """HEAD commit of the checkout when it is a git work tree, else None.

    Read from ``.git`` directly, so nothing outside the checkout is read.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_record(args, workload, inputs, ops, probes, absent) -> dict:
    trace = next((op["trace"] for op in ops if "trace" in op), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": BLAS_THREADS,
        "kernel": workload.kernel,
        "nproc": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client, one operation process at a time",
        "inputs": inputs,
        "samples_per_op": workload.samples,
        "operations": [
            {k: op[k] for k in ("wall_s", "peak_rss_mb", "traced", "problems")} for op in ops
        ],
        "setup_probes_s": probes,
        "absent_functions": absent,
        "span_certificate_inputs": trace and trace["counts"]["span_certificate_inputs"],
        "layer_self_s": trace and trace["layer_self_s"],
        "layer_busy_s": trace and trace["layer_busy_s"],
    }


def run(args, work: Path, workload_factory=None) -> tuple:
    """Set up, measure and summarise one run: (result line, run record)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workload = (workload_factory or WORKLOADS[args.workload])(work, args.seed)
    env = child_env(ROOT, work)
    inputs = workload.setup(env)
    ops, probes = measure(workload, args.seconds, bool(args.trace), env)
    absent = []
    if args.trace:
        values, absent = per_layer_metrics(ops, units)
    else:
        values = end_to_end_metrics(workload, ops, probes)
    if set(values) != set(units):
        raise BenchmarkError(f"metrics computed {sorted(values)} != declared {sorted(units)}")
    failed = sum(1 for op in ops if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, run_record(args, workload, inputs, ops, probes, absent)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "framesense" / "cli.py").is_file():
        print(f"no framesense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, record = run(args, work)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (base / "records").mkdir(exist_ok=True)
    (base / "records" / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
