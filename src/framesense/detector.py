"""Threshold detector on the 28-line health space, plus its run statistics.

Per engine block of 7 coordinates the verdict is: failure when every
coordinate collapses below ``dead_lo`` times its calibrated baseline, fault
when any coordinate exceeds ``fault_hi`` times baseline, normal otherwise.
The detector runs identically on both fusion pipelines (basis selection and
magnitude sum); each pipeline calibrates its own baseline from a zero-noise
normal run.  The pipelines are ``frames.basis_map`` and ``frames.frame_map``
applied to the real health tensor, with sensor j owning engine block j.
Scoring follows engine 1: a sample is correct when the engine-1 verdict
matches the ground-truth engine-1 state, and the combined score additionally
accepts a fault verdict under a true failure.

One scorer, ``score_runs``, serves ``detect`` and ``sweep`` on the datasets it
is given (the detector generates none).  It returns ``results.json``'s condition
entries as plain dicts, in grid order; ``write_results`` and ``write_sweep``
write them as the condition table or as SNR curves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import turbine
from .frames import basis_map, frame_map
from .turbine import SENSORS, Dataset, SimConfig

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


def map_healths(healths, kind: str) -> np.ndarray:
    """Fuse per-sensor health images ``(..., SENSORS, n)`` into detector inputs ``(..., n)``.

    ``"basis"`` reads coordinate i from the sensor owning its engine block,
    ``i // (n // SENSORS)``; ``"frame"`` sums magnitudes over the sensors.
    """
    healths = np.asarray(healths, dtype=float)
    n = healths.shape[-1]
    if kind == "basis":
        if n % SENSORS:
            raise ValueError(f"{n} health coordinates do not split into {SENSORS} engine blocks")
        return basis_map(healths, np.repeat(np.arange(SENSORS), n // SENSORS))
    if kind == "frame":
        return frame_map(healths)
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


def score_condition(
    dataset: Dataset,
    condition_name: str,
    baselines: dict,
    th: DetectorThresholds,
    sensor_condition: str,
    noise_level: str,
) -> list:
    """Per-pipeline entries of ``results.json`` for one condition of one dataset.

    ``baselines`` maps each pipeline in ``PIPELINES`` to its calibrated ``mu``.
    ``pct_false_alarm``, the non-normal verdict rate, is meaningful on
    normal-state data.
    """
    c = dataset.condition_names.index(condition_name)
    truth = dataset.conditions[c][1][0].kind  # engine-1 ground truth
    truth = {"normal": "normal", "gear_fault": "fault", "failure": "failure"}[truth]
    samples = dataset.healths.shape[1]
    out = []
    for kind in PIPELINES:
        verdicts = detect(map_healths(dataset.healths[c], kind), baselines[kind], th)[:, 0]
        counts = {v: int(np.count_nonzero(verdicts == v)) for v in VERDICTS}
        combined = counts[truth] + (counts["fault"] if truth == "failure" else 0)
        out.append({
            "engine_state": condition_name,
            "sensor_condition": sensor_condition,
            "noise_level": noise_level,
            "pipeline": kind,
            "samples": samples,
            "pct_correct": 100.0 * counts[truth] / samples,
            "pct_combined": 100.0 * combined / samples,
            "pct_false_alarm": 100.0 - 100.0 * counts["normal"] / samples,
            "verdict_counts": counts,
        })
    return out


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


def score_runs(keys, datasets, th: DetectorThresholds) -> list:
    """Calibrate both pipelines on the first of ``datasets``, then score every engine
    state of each later dataset under its ``(sensor_condition, noise_level)`` in ``keys``.

    Returns the ``results.json`` condition entries of ``score_condition``, in grid
    order: by dataset, then engine state, then pipeline.  Datasets may come lazily,
    each scored and dropped in turn.  Each cell's rate is binomial, but cells that
    share one noise draw are correlated."""
    datasets = iter(datasets)
    calib = next(datasets)
    baselines = {kind: calibrate(calib, kind) for kind in PIPELINES}
    stats = []
    for (sensor_condition, noise_level), dataset in zip(keys, datasets, strict=True):
        for name in dataset.condition_names:
            stats.extend(
                score_condition(dataset, name, baselines, th, sensor_condition, noise_level)
            )
    return stats


def write_results(stats: list, thresholds: DetectorThresholds, metadata: dict, out_dir) -> Path:
    """Write results.json plus the condition-table results.csv for ``score_runs``' entries.

    results.json lists the entries sorted by (sensor condition, noise level)
    name; the sort is stable, so states and pipelines keep their grid order.
    results.csv has one ``basis_<level>,frame_<level>`` column pair per noise
    level, in grid order, and one row per engine state and sensor condition,
    plus a combined fault-or-failure row for the failure state.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "thresholds": {"fault_hi": thresholds.fault_hi, "dead_lo": thresholds.dead_lo},
        "metadata": metadata,
        "conditions": sorted(stats, key=lambda st: (st["sensor_condition"], st["noise_level"])),
    }
    with open(out / "results.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    by_key = {(st["engine_state"], st["sensor_condition"], st["noise_level"], st["pipeline"]): st
              for st in stats}
    levels = list(dict.fromkeys(st["noise_level"] for st in stats))
    columns = [(level, pipeline) for level in levels for pipeline in PIPELINES]
    rows = ["condition," + ",".join(f"{p}_{level}" for level, p in columns)]
    for engine_state in dict.fromkeys(st["engine_state"] for st in stats):
        for sensor_condition in SENSOR_CONDITIONS:
            cells = [by_key[(engine_state, sensor_condition, *col)] for col in columns]
            rows.append(
                f"{engine_state}_{sensor_condition},"
                + ",".join(f"{st['pct_correct']:.2f}" for st in cells)
            )
            if engine_state == "failure":
                rows.append(
                    f"{engine_state}_{sensor_condition}_combined,"
                    + ",".join(f"{st['pct_combined']:.2f}" for st in cells)
                )
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    return out


def write_sweep(stats: list, snrs, out_dir) -> Path:
    """Write sweep.csv plus one plain plot-data file per curve.

    ``stats`` are ``score_runs``' entries for normal-state runs, and ``snrs`` maps
    each of their noise levels to an SNR in dB.  Every non-normal verdict on normal
    data is a false alarm, so p_fa = 1 - p_detect pointwise."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # (snr_db, pipeline, sensor_condition, p_detect) per entry, in grid order
    points = [(snrs[st["noise_level"]], st["pipeline"], st["sensor_condition"],
               st["pct_correct"] / 100.0) for st in stats]
    rows = ["snr_db,pipeline,sensor_condition,p_detect,p_fa"]
    rows += [f"{snr!r},{pipeline},{cond},{p!r},{1.0 - p!r}" for snr, pipeline, cond, p in points]
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    curves = out / "curves"
    curves.mkdir(exist_ok=True)
    # One curve pair per (pipeline, sensor condition), its points in SNR order.
    pairs = {}
    for snr, pipeline, cond, p in sorted(points, key=lambda pt: pt[0]):
        pairs.setdefault((pipeline, cond), []).append((snr, p))
    for (pipeline, cond), curve in pairs.items():
        for metric, lines in (("detect", [f"{snr!r} {p!r}" for snr, p in curve]),
                              ("fa", [f"{snr!r} {1.0 - p!r}" for snr, p in curve])):
            (curves / f"{pipeline}_{cond}_{metric}.dat").write_text("\n".join(lines) + "\n")
    return out
