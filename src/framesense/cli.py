"""Command-line surface: validate, theorems, generate, detect, sweep.

Every run is driven by one JSON config file; defaults are embedded here and
the fully resolved config is echoed into the output directory so result
files are self-describing.  ``generate``, ``detect`` and ``sweep`` build all
they use from one plan, ``load_plan``, which checks every config key before
any output.  Exit codes: 0 success, 1 domain violation (invalid scenario, or
a demanded conclusion failed), 2 I/O or parse error or float64 overflow.

Each command imports the layers it runs, when it runs: besides ``frames``,
``validate`` loads ``scenario``, ``theorems`` ``scenario`` and ``mappings``,
``generate`` ``turbine`` and ``detector``, and ``detect`` and ``sweep`` all four.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .frames import DEFAULT_TOL, _is_real

if TYPE_CHECKING:
    from .turbine import SimConfig

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

CONFIG_DEFAULTS = {
    "dft_size": 8192,
    "sample_rate": 32768.0,
    "samples_per_state": 256,
    "rng_seed": 20260808,
    "mixing_off_diagonal": 0.1,
    "fault_gear": 1,
    "fault_multiplier": 12.0,
    "fault_hi": 2.0,
    "dead_lo": 0.18,
    # Noise levels of the fixed-condition runs, on the sweep's SNR scale.  Low
    # noise keeps every detection contract comfortably clean; high noise leaves
    # the selection pipeline working while the magnitude-sum pipeline's noise
    # floor starts to swallow dead-engine evidence.
    "noise_levels": {"low": 18.0, "high": 8.0},
    "sweep_mixing_off_diagonal": 0.5623413251903491,
    "sweep_samples_per_point": 128,
    "snr_lo": -20.0,
    "snr_hi": 0.0,
    "snr_step": 1.0,
}

# Size caps, checked before any output.  They sit far above what the
# defaults need (86,016 health values per dataset at 256 samples per state,
# 21 sweep points) and are fixed, not read from free memory, so a config's
# exit code does not depend on the machine.
MAX_HEALTH_VALUES_PER_DATASET = 2**25  # 256 MiB of float64
MAX_SWEEP_POINTS = 10_000


def _is_number(value) -> bool:
    """A JSON number a float64 holds: not NaN, not infinite, not an int past its maximum."""
    return _is_real(value) and abs(value) <= sys.float_info.max


def _has_default_type(value, default) -> bool:
    """Whether a config value has the JSON type of its default."""
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, dict):
        # noise_levels: a nonempty mapping of level names to SNRs in dB
        return (
            type(value) is dict
            and bool(value)
            and all(_is_number(v) for v in value.values())
        )
    return type(value) is type(default)


def echo_config(cfg: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_scenario(path: str):
    from .scenario import scenario_from_json_dict

    with open(path) as fh:
        doc = json.load(fh)
    return scenario_from_json_dict(doc)


def cmd_validate(args) -> int:
    from .scenario import (
        NotPreSeparableError,
        NotSeparableError,
        build_index_sets,
        factor_readings,
        is_i_dominant,
        is_i_radiative,
        is_j_harmonious,
        is_strongly_i_dominant,
        separate,
        sensor_status,
        validate_scenario,
    )

    s = _load_scenario(args.scenario)
    report = validate_scenario(s, args.tol)
    print(f"scenario: N={s.N} sensors, M={s.M} parameters, K={s.K} times, n={s.n}")
    if report.ok:
        print("validity: OK")
    else:
        print("validity: INVALID")
        for v in report.violations:
            print(f"  - {v}")
    fac = None
    try:
        fac = separate(s, factor_readings(s, args.tol), args.tol)
        print("pre-separable: yes")
        print(f"separable: yes ({s.health.kind} health map)")
    except NotPreSeparableError as err:
        print(f"pre-separable: no (rank > 1 at parameters {[f + 1 for f in err.offending]})")
        print("separable: no")
    except NotSeparableError as err:
        print("pre-separable: yes")
        print(f"separable: no ({err})")
    if fac is not None:
        assign = build_index_sets(s.health_images(), args.tol)
        owners = assign.owners()
        print("coordinate predicates (1-based):")
        print("  i  radiative  dominant  strongly_dominant  owner")
        predicates = zip(
            is_i_radiative(fac, args.tol),
            is_i_dominant(fac, args.tol),
            is_strongly_i_dominant(fac, args.tol),
        )
        for i, flags in enumerate(predicates):
            rad, dom, strong = ("yes" if flag else "no" for flag in flags)
            print(f"  {i + 1}  {rad}  {dom}  {strong}  {owners[i] + 1}")
        print("sensor harmony:")
        for j in range(s.N):
            harm = "harmonious" if is_j_harmonious(fac, assign, j, args.tol) else "disjoint"
            status = sensor_status(fac, assign, j, args.tol).status
            print(f"  j={j + 1}: {harm}, {status}")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_theorems(args) -> int:
    from .mappings import (
        verify_basis_mapping,
        verify_frame_mapping,
        verify_projective_frame,
        verify_strong_dominance_frame,
    )
    from .scenario import (
        NotPreSeparableError,
        NotSeparableError,
        build_index_sets,
        factor_readings,
        separate,
        validate_scenario,
    )

    s = _load_scenario(args.scenario)
    failed = None if args.fail_sensor is None else args.fail_sensor - 1
    if failed is not None and not 0 <= failed < s.N:
        print(f"--fail-sensor {args.fail_sensor} out of range", file=sys.stderr)
        return EXIT_IO
    report = validate_scenario(s, args.tol)
    if not report.ok:
        print("scenario is invalid:", file=sys.stderr)
        for v in report.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        fac = separate(s, factor_readings(s, args.tol), args.tol)
    except (NotPreSeparableError, NotSeparableError) as err:
        print(f"scenario is not separable: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    assign = build_index_sets(s.health_images(), args.tol)
    reports = {
        "basis_mapping": verify_basis_mapping(fac, assign, args.tol, failed=failed),
        "frame_mapping": verify_frame_mapping(fac, assign, args.tol, failed=failed),
        "projective_frame": verify_projective_frame(
            fac, args.tol, failed=failed, assign=assign
        ),
        "strong_dominance_frame": verify_strong_dominance_frame(fac, args.tol),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, rep in reports.items():
        with open(out / f"theorem_{name}.json", "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not rep.applicable:
            verdict = "hypotheses unmet (no conclusion asserted)"
        elif rep.conclusion:
            verdict = "verified"
        else:
            verdict = "FAILED"
            ok = False
        spans = rep.diagnostics.get("spans")
        if spans is not None:
            verdict += f" [images {'span' if spans else 'do not span'}]"
        print(f"{name}: {verdict}")
    print(f"reports written to {out}")
    return EXIT_OK if ok else EXIT_DOMAIN


def _check_run(sim: SimConfig, fleet, conditions, samples_key: str, snrs, snr_key: str) -> None:
    """Refuse, before any output, work that cannot run: a fleet line off the DFT
    grid, a dataset of more than ``MAX_HEALTH_VALUES_PER_DATASET`` values, or a
    fault multiplier or SNR giving healths up to ``turbine.MAX_HEALTH`` or no
    noise level."""
    from . import turbine

    try:
        bins = turbine.fleet_line_bins(fleet, sim)
    except ValueError as err:
        raise ValueError(f"config keys 'dft_size' and 'sample_rate': {err}") from None
    values = len(conditions) * sim.samples_per_state * turbine.SENSORS * bins.size
    if values > MAX_HEALTH_VALUES_PER_DATASET:
        raise ValueError(
            f"config key {samples_key!r}: {sim.samples_per_state} samples give {values} "
            f"health values per dataset, more than {MAX_HEALTH_VALUES_PER_DATASET}"
        )
    if turbine.health_bound(fleet, sim, conditions) >= turbine.MAX_HEALTH:
        raise ValueError("config key 'fault_multiplier': summed healths could overflow float64")
    try:
        for snr_db in snrs:
            bound = turbine.health_bound(fleet, replace(sim, snr_db=snr_db), conditions)
            if bound >= turbine.MAX_HEALTH:
                raise ValueError(f"snr_db {snr_db}: summed healths could overflow float64")
    except ValueError as err:
        raise ValueError(f"{snr_key}: {err}") from None


CALIBRATION = ("calibration",)
Plan = namedtuple("Plan", "cfg fleet thresholds mixing datasets sweep_mixing sweep_sim snr_grid")


def load_plan(path: str | None, seed: int | None, snr_range: str | None = None) -> Plan:
    """Load a config, apply ``--seed`` and ``--snr-range``, and build and check all that
    ``generate``, ``detect`` and ``sweep`` use: a config is valid for all three or none.
    ``datasets`` holds ``(key, run config, conditions)`` per dataset, calibration first."""
    from . import detector, turbine

    cfg = dict(CONFIG_DEFAULTS)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(user) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in user.items():
            if not _has_default_type(value, CONFIG_DEFAULTS[key]):
                raise ValueError(
                    f"config key {key!r}: {value!r} does not have the type of "
                    f"its default {CONFIG_DEFAULTS[key]!r}"
                )
        # Level names become dataset directory names and results.csv columns.
        for name in user.get("noise_levels", {}):
            if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
                raise ValueError(
                    f"config key 'noise_levels': level name {name!r} must match "
                    "[A-Za-z0-9_-]+"
                )
        cfg.update(user)
    if seed is not None:
        cfg["rng_seed"] = seed
    if snr_range:
        try:
            cfg["snr_lo"], cfg["snr_hi"], cfg["snr_step"] = map(float, snr_range.split(":"))
        except ValueError:
            raise ValueError(f"--snr-range must be LO:HI:STEP, got {snr_range!r}") from None
    snr_grid = _snr_grid(cfg["snr_lo"], cfg["snr_hi"], cfg["snr_step"])
    fleet = turbine.default_fleet()
    thresholds = detector.DetectorThresholds(fault_hi=cfg["fault_hi"], dead_lo=cfg["dead_lo"])
    mixing = turbine.mixing_matrix(cfg["mixing_off_diagonal"])
    sweep_mixing = turbine.mixing_matrix(cfg["sweep_mixing_off_diagonal"])
    sim = turbine.SimConfig(dft_size=cfg["dft_size"], sample_rate=cfg["sample_rate"],
                            rng_seed=cfg["rng_seed"], samples_per_state=cfg["samples_per_state"])
    sweep_sim = replace(sim, samples_per_state=cfg["sweep_samples_per_point"])
    conditions = turbine.engine1_conditions(cfg["fault_gear"], cfg["fault_multiplier"])
    _check_run(sim, fleet, conditions, "samples_per_state",
               cfg["noise_levels"].values(), "config key 'noise_levels'")
    _check_run(sweep_sim, fleet, detector.NORMAL_ONLY, "sweep_samples_per_point", snr_grid,
               f"SNR range {cfg['snr_lo']}:{cfg['snr_hi']}:{cfg['snr_step']}")
    datasets = [(CALIBRATION, detector.calibration_config(sim), detector.NORMAL_ONLY)]
    datasets += [(key, run_cfg, conditions)
                 for key, run_cfg in detector.grid_cells(sim, cfg["noise_levels"])]
    return Plan(cfg, fleet, thresholds, mixing, datasets, sweep_mixing, sweep_sim, snr_grid)


def cmd_generate(args) -> int:
    from . import turbine

    plan = load_plan(args.config, args.seed)
    out = Path(args.out)
    echo_config(plan.cfg, out)
    total = 0
    for key, run_cfg, conditions in plan.datasets:
        ds = turbine.generate_dataset(plan.fleet, plan.mixing, run_cfg, conditions)
        path = turbine.save_dataset(ds, out / "datasets" / "_".join(key))
        if key != CALIBRATION:
            total += ds.healths.shape[0] * ds.healths.shape[1]
            print(f"wrote {path} ({ds.healths.shape[0] * ds.healths.shape[1]} samples)")
    print(f"total labeled samples: {total}")
    return EXIT_OK


def cmd_detect(args) -> int:
    from . import detector, turbine

    plan = load_plan(args.config, args.seed)
    out = Path(args.out)
    data_root = Path(args.data) if args.data else None
    if data_root is not None and not data_root.is_dir():
        raise ValueError(f"--data {data_root}: no such directory")
    datasets = {}  # each read from data_root when there, otherwise generated here
    for key, run_cfg, conditions in plan.datasets:
        model = (plan.fleet, plan.mixing, run_cfg, conditions)
        path = None if data_root is None else data_root / "datasets" / "_".join(key)
        if path is not None and path.exists():
            datasets[key] = turbine.load_dataset(path, *model)
            continue
        if path is not None:
            print(f"{path} not found: generating it from the run config")
        datasets[key] = turbine.generate_dataset(*model)
    calib = datasets.pop(CALIBRATION)
    baselines = {kind: detector.calibrate(calib, kind) for kind in detector.PIPELINES}
    report = detector.run_conditions(
        datasets, baselines, plan.thresholds, metadata={"config": plan.cfg}
    )
    echo_config(plan.cfg, out)
    detector.write_results(report, out)
    for st in report.stats:
        print(
            f"{st.engine_state}/{st.sensor_condition}/{st.noise_level}/{st.pipeline}: "
            f"correct {st.pct_correct:.2f}%"
        )
    print(f"results written to {out}")
    return EXIT_OK


def _snr_grid(lo: float, hi: float, step: float) -> list:
    """The SNRs ``lo, lo + step, ...`` up to ``hi``: at most ``MAX_SWEEP_POINTS`` of
    them, no two the same float64."""
    if not (all(map(_is_number, (lo, hi, step))) and lo <= hi and step > 0
            and _is_number((hi - lo) / step)):
        raise ValueError(f"SNR range {lo}:{hi}:{step}: need finite LO <= HI and STEP > 0")
    # Floor, so the grid never passes HI; the epsilon keeps HI itself when
    # (HI - LO) / STEP lands a rounding error below a whole number.
    count = math.floor((hi - lo) / step + 1e-9) + 1
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"SNR range {lo}:{hi}:{step}: {count} points, more than {MAX_SWEEP_POINTS}")
    grid = [lo + i * step for i in range(count)]
    if len(set(grid)) != count:
        raise ValueError(f"SNR range {lo}:{hi}:{step}: STEP is too small for {count} "
                         "distinct float64 points")
    return grid


def cmd_sweep(args) -> int:
    from . import detector

    plan = load_plan(args.config, args.seed, args.snr_range)
    out = Path(args.out)
    echo_config(plan.cfg, out)
    points = detector.snr_sweep(plan.fleet, plan.sweep_mixing, plan.sweep_sim,
                                plan.snr_grid, plan.thresholds)
    detector.write_sweep(points, out)
    print(f"{len(plan.snr_grid)}-point sweep written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesense",
        description=(
            "Sensor-failure-robust spectral fault detection: scenario "
            "validation, frame-theory verification, simulation, and detection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and print its predicates")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("theorems", help="run the structural verifiers on a scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default="theorem-reports")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--fail-sensor", type=int, default=None, metavar="J",
                   help="inject a failure of sensor J (1-based)")
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("generate", help="generate the condition-grid datasets")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="runs/generate")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="run both detection pipelines over the grid")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="runs/detect")
    p.add_argument("--data", default=None, help="read datasets from a generate run")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="detection/false-alarm curves vs SNR")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="runs/sweep")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--snr-range", default=None, metavar="LO:HI:STEP")
    p.set_defaults(func=cmd_sweep)
    return parser


def _normalize_argv(argv):
    """Join ``--snr-range -20:0:1`` so argparse does not read the value as a flag."""
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--snr-range" and i + 1 < len(argv):
            out.append(f"--snr-range={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def _report(err: Exception) -> int:
    """Print a command's error on stderr and return its exit code."""
    # A layer's error class is looked up, not imported: a layer that is not loaded raised none.
    detector = sys.modules.get(f"{__package__}.detector")
    scenario = sys.modules.get(f"{__package__}.scenario")
    if detector is not None and isinstance(err, detector.CalibrationError):
        print(f"calibration error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    if scenario is not None and isinstance(err, scenario.UncoverableIndexError):
        # a well-formed scenario no sensor covers
        print(f"domain error: health coordinates {[i + 1 for i in err.indices]} are silent "
              "for every sensor", file=sys.stderr)
        return EXIT_DOMAIN
    if isinstance(err, json.JSONDecodeError):
        print(f"parse error: {err}", file=sys.stderr)
    elif isinstance(err, FileNotFoundError):
        print(f"file not found: {err.filename}", file=sys.stderr)
    else:
        print(f"error: {err}", file=sys.stderr)
    return EXIT_IO


_freezes_at_exit = False


def _freeze_at_exit() -> None:
    """Have the interpreter's exit-time collections skip what is alive at exit.

    ``gc.freeze`` at exit moves every tracked object to the permanent
    generation, so the final collections do not walk the objects numpy and
    the layers made, which the OS reclaims anyway.  Atexit handlers, stream
    flushes and module teardown still run.  Registered once per process.
    """
    global _freezes_at_exit
    if not _freezes_at_exit:
        atexit.register(gc.freeze)
        _freezes_at_exit = True


def main(argv=None) -> int:
    _freeze_at_exit()
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(list(argv)))
    try:
        # A value so extreme that float64 arithmetic overflows exits 2, not with inf results.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, OSError, FloatingPointError) as err:
        return _report(err)


if __name__ == "__main__":
    sys.exit(main())
