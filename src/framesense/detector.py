"""Threshold detector on the 28-line health space, plus run statistics.

Per engine block of 7 coordinates the verdict is: failure when every
coordinate collapses below ``dead_lo`` times its calibrated baseline, fault
when any coordinate exceeds ``fault_hi`` times baseline, normal otherwise.
The detector runs identically on both fusion pipelines (basis selection and
magnitude sum); each pipeline calibrates its own baseline from a zero-noise
normal run.  Scoring follows engine 1: a sample is correct when the
engine-1 verdict matches the ground-truth engine-1 state, and the combined
score additionally accepts a fault verdict under a true failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import turbine
from .turbine import SENSORS, Dataset, SimConfig

if TYPE_CHECKING:
    from .scenario import IndexAssignment

PIPELINES = ("basis", "frame")
VERDICTS = ("normal", "fault", "failure")

# Sensor condition of a grid cell -> the sensors that read exactly zero.
SENSOR_CONDITIONS = {"good": frozenset(), "s1_failed": frozenset({0})}

NORMAL_ONLY = (("normal", turbine.normal_fleet_state()),)


class CalibrationError(ValueError):
    """A baseline coordinate calibrated to zero: mis-specified line bins."""


@dataclass(frozen=True)
class DetectorThresholds:
    fault_hi: float = 2.0
    dead_lo: float = 0.18

    def __post_init__(self):
        # dead_lo <= 0 would make a failure verdict impossible.
        if not (0.0 < self.dead_lo < 1.0 < self.fault_hi):
            raise ValueError("need 0 < dead_lo < 1 < fault_hi")


def _health_assignment(n_coords: int) -> IndexAssignment:
    from .scenario import IndexAssignment

    per = n_coords // SENSORS
    owned = tuple(
        tuple(range(j * per, (j + 1) * per)) for j in range(SENSORS)
    )
    full = frozenset(range(n_coords))
    return IndexAssignment(J=(full,) * SENSORS, I=owned)


def map_healths(healths: np.ndarray, kind: str) -> np.ndarray:
    """Fuse per-sensor health images ``(..., SENSORS, n)`` into detector inputs ``(..., n)``."""
    from .mappings import basis_map, frame_map
    from .scenario import HealthMap

    healths = np.asarray(healths)
    n = healths.shape[-1]
    identity = HealthMap.identity(n)
    if kind == "basis":
        return basis_map(healths, identity, _health_assignment(n)).real
    if kind == "frame":
        return frame_map(healths, identity).real
    raise ValueError(f"unknown mapping kind {kind!r}")


def calibrate(dataset: Dataset, kind: str) -> np.ndarray:
    """The baseline ``mu``: mean mapped magnitudes of a zero-noise normal run."""
    if dataset.sigma != 0.0:
        raise CalibrationError("calibration requires a zero-noise run")
    try:
        c = dataset.condition_names.index("normal")
    except ValueError:
        raise CalibrationError("calibration requires a normal-state condition")
    mu = map_healths(dataset.healths[c], kind).mean(axis=0)
    dead = np.nonzero(mu <= 0)[0]
    if dead.size:
        raise CalibrationError(
            f"baseline coordinates {dead.tolist()} are zero; line bins are "
            "mis-specified"
        )
    return mu


def detect(mapped, mu, th: DetectorThresholds) -> np.ndarray:
    """Per-engine verdicts ``(..., SENSORS)`` for mapped health vectors ``(..., n)``
    against the calibrated baseline ``mu`` of shape ``(n,)``."""
    mapped = np.asarray(mapped, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mapped.shape[-1:] != mu.shape:
        raise ValueError("health vector and baseline dimensions differ")
    blocks = mapped.reshape(mapped.shape[:-1] + (SENSORS, -1))
    mu = mu.reshape(SENSORS, -1)
    failure = np.all(blocks < th.dead_lo * mu, axis=-1)
    with np.errstate(over="ignore"):  # a product past float64 is inf, which no health exceeds
        fault = np.any(blocks > th.fault_hi * mu, axis=-1)
    return np.where(failure, "failure", np.where(fault, "fault", "normal"))


@dataclass
class ConditionStats:
    engine_state: str
    sensor_condition: str
    noise_level: str
    pipeline: str
    samples: int
    correct: int
    combined_correct: int
    verdict_counts: dict

    @property
    def pct_correct(self) -> float:
        return 100.0 * self.correct / self.samples

    @property
    def pct_combined(self) -> float:
        return 100.0 * self.combined_correct / self.samples

    @property
    def pct_false_alarm(self) -> float:
        """Non-normal verdict rate; meaningful on normal-state data."""
        return 100.0 - 100.0 * self.verdict_counts.get("normal", 0) / self.samples


def score_condition(
    dataset: Dataset,
    condition_name: str,
    baselines: dict,
    th: DetectorThresholds,
    sensor_condition: str,
    noise_level: str,
) -> list:
    """Per-pipeline statistics for one condition of one dataset.

    ``baselines`` maps each pipeline in ``PIPELINES`` to its calibrated ``mu``.
    """
    c = dataset.condition_names.index(condition_name)
    truth = dataset.conditions[c][1][0].kind  # engine-1 ground truth
    truth = {"normal": "normal", "gear_fault": "fault", "failure": "failure"}[truth]
    out = []
    for kind in PIPELINES:
        verdicts = detect(map_healths(dataset.healths[c], kind), baselines[kind], th)[:, 0]
        counts = {v: int(np.count_nonzero(verdicts == v)) for v in VERDICTS}
        combined = counts[truth] + (counts["fault"] if truth == "failure" else 0)
        out.append(
            ConditionStats(
                engine_state=condition_name,
                sensor_condition=sensor_condition,
                noise_level=noise_level,
                pipeline=kind,
                samples=dataset.healths.shape[1],
                correct=counts[truth],
                combined_correct=combined,
                verdict_counts=counts,
            )
        )
    return out


@dataclass
class DetectionReport:
    """Statistics of a grid run, in the grid's (sensor, noise level) order."""

    stats: list
    thresholds: DetectorThresholds
    metadata: dict

    def __post_init__(self):
        self._by_key = {
            (st.engine_state, st.sensor_condition, st.noise_level, st.pipeline): st
            for st in self.stats
        }

    def lookup(self, engine_state, sensor_condition, noise_level, pipeline) -> ConditionStats:
        return self._by_key[(engine_state, sensor_condition, noise_level, pipeline)]

    def to_json_dict(self) -> dict:
        # results.json lists the cells sorted by (sensor condition, noise level)
        # name; the sort is stable, so states and pipelines keep their order.
        stats = sorted(self.stats, key=lambda st: (st.sensor_condition, st.noise_level))
        return {
            "thresholds": {
                "fault_hi": self.thresholds.fault_hi,
                "dead_lo": self.thresholds.dead_lo,
            },
            "metadata": self.metadata,
            "conditions": [
                {
                    "engine_state": st.engine_state,
                    "sensor_condition": st.sensor_condition,
                    "noise_level": st.noise_level,
                    "pipeline": st.pipeline,
                    "samples": st.samples,
                    "pct_correct": st.pct_correct,
                    "pct_combined": st.pct_combined,
                    "pct_false_alarm": st.pct_false_alarm,
                    "verdict_counts": st.verdict_counts,
                }
                for st in stats
            ],
        }


def grid_cells(cfg: SimConfig, noise_levels: dict):
    """Yield ``((sensor_condition, noise_level), run_cfg)`` for every grid cell.

    Sensor conditions come from ``SENSOR_CONDITIONS``; ``noise_levels`` maps
    each level's name to its SNR in dB.  Cells follow that order.
    """
    for sensor_condition, failed in SENSOR_CONDITIONS.items():
        for noise_level, snr_db in noise_levels.items():
            run_cfg = replace(cfg, snr_db=snr_db, failed_sensors=failed)
            yield (sensor_condition, noise_level), run_cfg


def calibration_config(cfg: SimConfig) -> SimConfig:
    """The zero-noise, all-sensors-good run that calibrates both pipelines."""
    return replace(cfg, snr_db=None, failed_sensors=frozenset(), samples_per_state=4)


def calibration_dataset(fleet, mixing, cfg: SimConfig) -> Dataset:
    return turbine.generate_dataset(fleet, mixing, calibration_config(cfg), NORMAL_ONLY)


def run_conditions(
    datasets: dict, baselines: dict, th: DetectorThresholds, metadata=None
) -> DetectionReport:
    """Score every engine state in every (sensor, noise) dataset of the grid."""
    stats = []
    for (sensor_condition, noise_level), dataset in datasets.items():
        for name in dataset.condition_names:
            stats.extend(
                score_condition(dataset, name, baselines, th, sensor_condition, noise_level)
            )
    return DetectionReport(stats=stats, thresholds=th, metadata=metadata or {})


def write_results(report: DetectionReport, out_dir) -> Path:
    """Write results.json plus the condition-table results.csv.

    results.csv has one ``basis_<level>,frame_<level>`` column pair per noise
    level, in the report's order, and one row per engine state and sensor
    condition, plus a combined fault-or-failure row for the failure state.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    levels = list(dict.fromkeys(st.noise_level for st in report.stats))
    columns = [(level, pipeline) for level in levels for pipeline in PIPELINES]
    rows = ["condition," + ",".join(f"{p}_{level}" for level, p in columns)]
    for engine_state in dict.fromkeys(st.engine_state for st in report.stats):
        for sensor_condition in SENSOR_CONDITIONS:
            cells = [report.lookup(engine_state, sensor_condition, *col) for col in columns]
            rows.append(
                f"{engine_state}_{sensor_condition},"
                + ",".join(f"{st.pct_correct:.2f}" for st in cells)
            )
            if engine_state == "failure":
                rows.append(
                    f"{engine_state}_{sensor_condition}_combined,"
                    + ",".join(f"{st.pct_combined:.2f}" for st in cells)
                )
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    return out


@dataclass
class SweepPoint:
    snr_db: float
    pipeline: str
    sensor_condition: str
    p_detect: float
    p_false_alarm: float


def snr_sweep(fleet, mixing, cfg: SimConfig, snr_grid, th: DetectorThresholds) -> list:
    """Detection and false-alarm rates on normal-state data across an SNR grid.

    Every non-normal verdict on normal data is a false alarm, so
    p_false_alarm = 1 - p_detect pointwise.
    """
    levels = {f"{snr_db}dB": float(snr_db) for snr_db in snr_grid}
    if not levels:
        raise ValueError("empty SNR grid")
    calib = calibration_dataset(fleet, mixing, cfg)
    baselines = {kind: calibrate(calib, kind) for kind in PIPELINES}
    points = []
    for (sensor_condition, level), run_cfg in grid_cells(cfg, levels):
        dataset = turbine.generate_dataset(fleet, mixing, run_cfg, NORMAL_ONLY)
        for st in score_condition(dataset, "normal", baselines, th, sensor_condition, level):
            p = st.pct_correct / 100.0
            points.append(
                SweepPoint(
                    snr_db=run_cfg.snr_db,
                    pipeline=st.pipeline,
                    sensor_condition=sensor_condition,
                    p_detect=p,
                    p_false_alarm=1.0 - p,
                )
            )
    return points


def write_sweep(points, out_dir) -> Path:
    """Write sweep.csv plus one plain plot-data file per curve."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["snr_db,pipeline,sensor_condition,p_detect,p_fa"]
    for pt in points:
        rows.append(
            f"{pt.snr_db!r},{pt.pipeline},{pt.sensor_condition},"
            f"{pt.p_detect!r},{pt.p_false_alarm!r}"
        )
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    curves = out / "curves"
    curves.mkdir(exist_ok=True)
    for pipeline in PIPELINES:
        for sensor_condition in {pt.sensor_condition for pt in points}:
            for metric in ("detect", "fa"):
                sel = [
                    pt
                    for pt in points
                    if pt.pipeline == pipeline and pt.sensor_condition == sensor_condition
                ]
                sel.sort(key=lambda pt: pt.snr_db)
                if not sel:
                    continue
                lines = [
                    f"{pt.snr_db!r} "
                    f"{(pt.p_detect if metric == 'detect' else pt.p_false_alarm)!r}"
                    for pt in sel
                ]
                name = f"{pipeline}_{sensor_condition}_{metric}.dat"
                (curves / name).write_text("\n".join(lines) + "\n")
    return out
