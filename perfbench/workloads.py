"""The benchmark's three CLI workloads: inputs, operation and output checks.

Each workload builds its inputs from the seed during set-up, names the
``framesense`` command line of one operation, and checks an operation's
output against properties any correct version of the program keeps (not
against today's bytes, which a change of numeric path may alter once).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Dense linear algebra stays on one thread: the loop has one client, and a
# single BLAS thread keeps the spread across runs small on a shared box.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Longer than any operation or set-up step at full size, shorter than the
# time one benchmark run may take.
CHILD_TIMEOUT_S = 150.0

# The paper's fleet as the CLI simulates it by default: four engines with
# the same seven line amplitudes, seen through a mixing matrix with 1 on the
# diagonal and MIXING_OFF_DIAGONAL elsewhere.
SENSORS = 4
LINES_PER_ENGINE = 7
LINE_AMPLITUDES = np.array([1.0, 0.9, 0.6, 0.5, 0.7, 0.65, 0.55])
MIXING_OFF_DIAGONAL = 0.1
DFT_SIZE = 8192
ENGINE_STATES = ("normal", "fault", "failure")
GRID = ("good_low", "good_high", "s1_failed_low", "s1_failed_high")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result, e.g. its inputs failed to build."""


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    # The kernel is whichever the checkout provides, never chosen by the
    # caller's shell; the run record names it (see ``manifest_kernel``).
    env.pop("FRAMESENSE_PURE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv, env: dict, log: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion: (wall seconds, peak RSS in MiB, exit code).

    Wall time runs from just before the process starts to its exit; peak RSS
    is the child's own ``ru_maxrss``.  Output goes to ``log``.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tree_digest(path: Path) -> str:
    """sha256 over every file under ``path``: relative names and bytes."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def read_health(path: Path, states) -> tuple:
    """Parse a ``health.csv``: (array (states, samples, SENSORS, 28), problems).

    The file must hold exactly one row per (state, sample, sensor) for the
    given states and samples 0..S-1, every value finite.
    """
    problems = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["state", "sample", "sensor"] + [f"m{i:02d}" for i in range(SENSORS * LINES_PER_ENGINE)]
    if not rows or rows[0] != header:
        return None, [f"{path}: unexpected header"]
    body = rows[1:]
    samples = 1 + max((int(r[1]) for r in body), default=-1)
    expected = len(states) * samples * SENSORS
    if samples == 0 or len(body) != expected:
        problems.append(f"{path}: {len(body)} rows, expected {len(states)}x{samples}x{SENSORS}")
    values = np.full((len(states), max(samples, 1), SENSORS, len(header) - 3), np.nan)
    seen = set()
    for r in body:
        key = (r[0], int(r[1]), int(r[2]))
        if r[0] not in states or not 0 <= key[2] < SENSORS or key in seen or len(r) != len(header):
            problems.append(f"{path}: bad or repeated row {r[:3]}")
            break
        seen.add(key)
        values[states.index(r[0]), key[1], key[2]] = [float(x) for x in r[3:]]
    if not np.all(np.isfinite(values)):
        problems.append(f"{path}: missing or non-finite values")
    return values, problems


def check_grid(root: Path, samples_per_state: int) -> list:
    """Properties of a ``generate`` output directory (see GenerateWorkload)."""
    problems = []
    calib, found = read_health(root / "datasets" / "calibration" / "health.csv", ("normal",))
    problems += found
    if calib is not None and not found:
        mixing = np.full((SENSORS, SENSORS), MIXING_OFF_DIAGONAL)
        np.fill_diagonal(mixing, 1.0)
        # Zero noise, all lines on-bin: |X_j| at engine h's line l is
        # mixing[j, h] * amplitude[l] * N/2, exactly up to rounding.
        expected = (mixing[:, :, None] * LINE_AMPLITUDES[None, None, :]).reshape(SENSORS, -1)
        expected = expected * DFT_SIZE / 2
        err = np.max(np.abs(calib[0] - expected) / expected)
        if not err <= 1e-9:
            problems.append(f"calibration healths off the closed form by {err:.3g} (relative)")
    for name in GRID:
        values, found = read_health(root / "datasets" / name / "health.csv", ENGINE_STATES)
        problems += found
        if values is not None and values.shape[1] != samples_per_state:
            problems.append(f"{name}: {values.shape[1]} samples per state, expected {samples_per_state}")
        if values is not None and name.startswith("s1_failed") and np.any(values[:, :, 0] != 0.0):
            problems.append(f"{name}: failed sensor 1 reads non-zero")
        if values is not None and not found:
            live = values[:, :, 1:] if name.startswith("s1_failed") else values
            problems += noise_problems(root / "datasets" / name, live)
    return problems


def noise_problems(dataset: Path, live) -> list:
    """Loose check that the live sensors' healths carry the configured noise.

    A line's health varies across samples only through the noise, whose DFT
    has per-component standard deviation sigma*sqrt(N/2) in every bin.  The
    sample std of a health lies between the Rayleigh value (0.66 of that, no
    signal) and the full value (strong signal); pooled over all coordinates
    it must land within a factor 2, and no coordinate may be constant.
    """
    sigma = json.loads((dataset / "manifest.json").read_text())["config"]["resolved_sigma"]
    if live.shape[1] < 2:
        return [f"{dataset.name}: fewer than 2 samples, noise not checkable"]
    std = live.std(axis=1, ddof=1)
    if not sigma > 0 or not np.all(std > 0):
        return [f"{dataset.name}: a health coordinate is constant across samples (no noise)"]
    ratio = np.sqrt(np.mean(std**2)) / (sigma * np.sqrt(DFT_SIZE / 2))
    if not 0.5 <= ratio <= 2.0:
        return [f"{dataset.name}: pooled health std is {ratio:.3g} x sigma*sqrt(N/2)"]
    return []


def manifest_kernel(dataset: Path):
    """The tone kernel a dataset was synthesised with, as its manifest names it."""
    return json.loads((dataset / "manifest.json").read_text()).get("kernel")


def health_samples(root: Path) -> int:
    """Labelled samples (rows / sensors) in every health.csv under ``root``."""
    rows = 0
    for path in root.rglob("health.csv"):
        with open(path) as fh:
            rows += sum(1 for _ in fh) - 1
    return rows // SENSORS


class Workload:
    """One CLI operation on inputs made from the seed."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.samples = 0  # samples one operation produces or scores
        self.reference = None  # the first operation's output digest
        self.kernel = None  # tone kernel behind the data, for the run record

    def setup(self, env: dict) -> dict:
        """Build the inputs; return their sizes for the run record."""
        return {}

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, out: Path) -> list:
        """Problems found in one operation's output; empty when correct."""
        raise NotImplementedError

    def same_as_first(self, out: Path, what: str) -> list:
        digest = tree_digest(out)
        if self.reference is None:
            self.reference = digest
        return [] if digest == self.reference else [f"{what} differs from the first same-seed run"]

    def _write_config(self, name: str, samples_per_state: int) -> Path:
        path = self.work / name
        path.write_text(json.dumps({
            "samples_per_state": samples_per_state,
            "rng_seed": self.seed,
            "dft_size": DFT_SIZE,
            "mixing_off_diagonal": MIXING_OFF_DIAGONAL,
        }))
        return path


class GenerateWorkload(Workload):
    """``framesense generate`` of the condition grid plus calibration set.

    Checks: every ``health.csv`` holds conditions x samples x 4 finite rows;
    zero-noise calibration healths match ``mixing[j,h]*amp*N/2`` to a
    relative 1e-9; the failed sensor's rows are exactly 0; the live
    sensors' healths carry noise of the configured size; and every
    operation's output is byte-identical to the first (same seed).
    """

    name = "generate"

    def __init__(self, work: Path, seed: int, samples_per_state: int = 64):
        super().__init__(work, seed)
        self.samples_per_state = samples_per_state

    def setup(self, env: dict) -> dict:
        self.config = self._write_config("generate.json", self.samples_per_state)
        return {"samples_per_state": self.samples_per_state, "datasets": 1 + len(GRID)}

    def argv(self, out: Path) -> list:
        return ["generate", "--config", str(self.config), "--out", str(out), "--seed", str(self.seed)]

    def check(self, out: Path) -> list:
        problems = check_grid(out, self.samples_per_state)
        if not problems:
            self.samples = health_samples(out)
            self.kernel = manifest_kernel(out / "datasets" / GRID[0])
        return problems + self.same_as_first(out / "datasets", "health data")


class DetectWorkload(Workload):
    """``framesense detect --data D`` on a complete grid D.

    Set-up builds D, calibration set included, with this checkout's
    ``generate``.  Checks: ``results.csv`` meets the directional claims of
    acceptance criterion 7, and every operation's results are
    byte-identical to the first.
    """

    name = "detect"

    def __init__(self, work: Path, seed: int, samples_per_state: int = 256):
        super().__init__(work, seed)
        self.samples_per_state = samples_per_state

    def setup(self, env: dict) -> dict:
        self.config = self._write_config("detect.json", self.samples_per_state)
        self.data = self.work / "data"
        argv = [sys.executable, "-c", CLI_ENTRY, "generate", "--config", str(self.config),
                "--out", str(self.data), "--seed", str(self.seed)]
        wall, _, rc = spawn(argv, env, self.work / "setup.log")
        problems = [f"exit code {rc}"] if rc else check_grid(self.data, self.samples_per_state)
        if problems:
            raise BenchmarkError(f"generate for detect input: {problems[:3]}")
        self.samples = health_samples(self.data / "datasets") - health_samples(
            self.data / "datasets" / "calibration"
        )
        self.kernel = manifest_kernel(self.data / "datasets" / GRID[0])
        return {
            "samples_per_state": self.samples_per_state,
            "samples": self.samples,
            "bytes": sum(p.stat().st_size for p in self.data.rglob("*") if p.is_file()),
            "generate_s": wall,
        }

    def argv(self, out: Path) -> list:
        return ["detect", "--config", str(self.config), "--data", str(self.data),
                "--out", str(out), "--seed", str(self.seed)]

    def check(self, out: Path) -> list:
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["condition", "basis_low", "frame_low", "basis_high", "frame_high"]:
            return ["results.csv: unexpected header"]
        table = {r[0]: dict(zip(rows[0][1:], map(float, r[1:]))) for r in rows[1:]}
        json.loads((out / "results.json").read_text())
        return c7_problems(table) + self.same_as_first(out, "detect output")


def c7_problems(t: dict) -> list:
    """Acceptance criterion 7's directional claims on the condition table."""
    problems = []
    for state in ("normal", "fault"):
        for pipeline in ("basis", "frame"):
            if abs(t[f"{state}_good"][f"{pipeline}_low"] - 100.0) > 2.0:
                problems.append(f"{state}_good {pipeline}_low not within 2 of 100")
    for noise in ("low", "high"):
        if t["normal_s1_failed"][f"basis_{noise}"] != 0.0:
            problems.append(f"basis not blind on normal_s1_failed ({noise})")
        if t["failure_s1_failed"][f"basis_{noise}"] != 100.0:
            problems.append(f"basis failure detection not exact ({noise})")
        for state in ("normal", "fault"):
            row = t[f"{state}_s1_failed"]
            if row[f"frame_{noise}"] < row[f"basis_{noise}"]:
                problems.append(f"frame < basis on {state}_s1_failed ({noise})")
    if t["normal_s1_failed"]["frame_low"] < 90.0:
        problems.append("frame below 90 on normal_s1_failed (low)")
    if t["failure_s1_failed_combined"]["frame_low"] < 95.0:
        problems.append("frame combined below 95 on failure_s1_failed (low)")
    if t["failure_good"]["basis_low"] < t["failure_good"]["frame_low"]:
        problems.append("basis < frame on failure_good (low)")
    return problems


# (report file, applicable, conclusion, images span); applicable False
# means the hypotheses are unmet and no conclusion is asserted.
THEOREM_CONCLUSIONS = (
    ("theorem_basis_mapping.json", True, True, False),
    ("theorem_frame_mapping.json", True, True, True),
    ("theorem_projective_frame.json", True, True, True),
    ("theorem_strong_dominance_frame.json", False, None, None),
)


class TheoremsWorkload(Workload):
    """``framesense theorems S --fail-sensor 1 --tol 1e-6``.

    S is the zero-noise spectral scenario of the default fleet with
    ``times`` time indices cycling through normal / fault / failure.
    Checks the four reports' conclusions: basis verified without spanning,
    frame and projective verified and spanning, strong dominance unmet.
    """

    name = "theorems"

    def __init__(self, work: Path, seed: int, times: int = 24):
        super().__init__(work, seed)
        self.times = times

    def setup(self, env: dict) -> dict:
        self.scenario = self.work / "scenario.json"
        argv = [sys.executable, str(HERE / "make_scenario.py"), str(self.scenario),
                "--seed", str(self.seed), "--times", str(self.times)]
        log = self.work / "setup.log"
        _, _, rc = spawn(argv, env, log)
        if rc:
            raise BenchmarkError(f"make_scenario exit code {rc}: {log.read_text()[-500:]}")
        shape = json.loads(log.read_text().strip().splitlines()[-1])
        self.samples = shape["K"]
        self.kernel = shape.pop("kernel")
        return shape

    def argv(self, out: Path) -> list:
        return ["theorems", str(self.scenario), "--fail-sensor", "1", "--tol", "1e-6", "--out", str(out)]

    def check(self, out: Path) -> list:
        problems = []
        for name, applicable, conclusion, spans in THEOREM_CONCLUSIONS:
            report = json.loads((out / name).read_text())
            got = (report["applicable"], report["conclusion"],
                   report["diagnostics"].get("spans") if applicable else None)
            if got != (applicable, conclusion, spans):
                problems.append(f"{name}: (applicable, conclusion, spans) = {got}")
        return problems


# The console script's entry: what ``framesense ARGS`` runs.
CLI_ENTRY = "import sys; from framesense.cli import main; sys.exit(main())"

WORKLOADS = {w.name: w for w in (GenerateWorkload, DetectWorkload, TheoremsWorkload)}
