import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framesense import detector, turbine
from framesense.cli import config_defaults
from framesense.detector import (
    CalibrationError,
    DetectorThresholds,
    calibrate,
    calibration_dataset,
    detect,
    grid_cells,
    map_healths,
    run_conditions,
    score_condition,
    snr_sweep,
    write_results,
    write_sweep,
)
from framesense.turbine import SimConfig, default_fleet, mixing_matrix, resolve_sigma

FLEET = default_fleet()
MIX = mixing_matrix(0.1)
CFG = SimConfig(samples_per_state=8)
TH = DetectorThresholds()


@pytest.fixture(scope="module")
def baselines():
    calib = calibration_dataset(FLEET, MIX, CFG)
    return {kind: calibrate(calib, kind) for kind in ("basis", "frame")}


@pytest.fixture(scope="module")
def grid():
    """The ``detect`` grid at the default noise levels, 4 samples per state."""
    levels = config_defaults()["noise_levels"]
    conditions = turbine.engine1_conditions()
    return {
        key: turbine.generate_dataset(FLEET, MIX, run_cfg, conditions)
        for key, run_cfg in grid_cells(replace(CFG, samples_per_state=4), levels)
    }


class TestThresholds:
    def test_defaults_ordered(self):
        assert TH.dead_lo < 1.0 < TH.fault_hi

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            DetectorThresholds(fault_hi=0.5)
        # At dead_lo <= 0 no magnitude is below dead_lo * mu, so failure
        # could never be declared.
        for dead_lo in (1.5, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="0 < dead_lo < 1"):
                DetectorThresholds(dead_lo=dead_lo)


class TestMapping:
    def test_basis_reads_owner_blocks(self):
        healths = np.arange(4 * 28, dtype=float).reshape(4, 28)
        mapped = map_healths(healths, "basis")
        for j in range(4):
            assert np.array_equal(mapped[7 * j : 7 * (j + 1)], healths[j, 7 * j : 7 * (j + 1)])

    def test_frame_sums_all_sensors(self):
        healths = np.random.default_rng(0).uniform(0, 1, (4, 28))
        assert np.allclose(map_healths(healths, "frame"), healths.sum(axis=0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            map_healths(np.zeros((4, 28)), "median")


class TestCalibration:
    def test_basis_baseline_is_nominal_line_magnitudes(self, baselines):
        expected = np.concatenate(
            [np.array(m.line_amplitudes) * CFG.dft_size / 2 for m in FLEET]
        )
        assert np.allclose(baselines["basis"], expected, rtol=1e-9)

    def test_frame_baseline_dominates_basis(self, baselines):
        assert np.all(baselines["frame"] >= baselines["basis"])

    def test_repeat_calibration_identical(self, baselines):
        again = calibrate(calibration_dataset(FLEET, MIX, CFG), "basis")
        assert np.array_equal(again, baselines["basis"])

    def test_noisy_run_rejected(self):
        noisy = turbine.generate_dataset(
            FLEET, MIX, replace(CFG, snr_db=0.0, samples_per_state=1),
            (("normal", turbine.normal_fleet_state()),),
        )
        with pytest.raises(CalibrationError):
            calibrate(noisy, "basis")

    def test_zero_baseline_coordinate_rejected(self):
        ds = calibration_dataset(FLEET, MIX, CFG)
        ds.healths[...] = 0.0
        with pytest.raises(CalibrationError, match="mis-specified"):
            calibrate(ds, "basis")

    def test_missing_normal_condition_rejected(self):
        ds = calibration_dataset(FLEET, MIX, CFG)
        ds.conditions = (("idle", ds.conditions[0][1]),)
        with pytest.raises(CalibrationError):
            calibrate(ds, "basis")


class TestDetect:
    def test_baseline_itself_is_normal(self, baselines):
        mu = baselines["basis"]
        assert tuple(detect(mu, mu, TH)) == ("normal",) * 4

    def test_dead_engine_block_is_failure(self, baselines):
        mu = baselines["basis"]
        mapped = mu.copy()
        mapped[:7] = 0.0
        assert tuple(detect(mapped, mu, TH)) == ("failure",) + ("normal",) * 3

    def test_amplified_gear_line_is_fault(self, baselines):
        mu = baselines["basis"]
        mapped = mu.copy()
        mapped[4] *= 3.0
        assert tuple(detect(mapped, mu, TH))[0] == "fault"

    def test_multiple_engine_verdicts(self, baselines):
        mu = baselines["basis"]
        mapped = mu.copy()
        mapped[:7] = 0.0
        mapped[11] *= 4.0
        verdicts = tuple(detect(mapped, mu, TH))
        assert verdicts[0] == "failure" and verdicts[1] == "fault"

    def test_dimension_mismatch(self, baselines):
        with pytest.raises(ValueError):
            detect(np.zeros(27), baselines["basis"], TH)


class TestZeroNoiseContracts:
    def test_basis_blindness_is_exact(self, baselines):
        # -13 dB puts sigma at 17.99 >= 17 at N = 8192: far above the
        # high-noise cell, and the failed owner sensor still reads exactly 0.
        cfg = replace(CFG, failed_sensors=frozenset({0}), snr_db=-13.0)
        assert resolve_sigma(cfg, FLEET) >= 17.0
        ds = turbine.generate_dataset(FLEET, MIX, cfg, turbine.engine1_conditions())
        for name in ds.condition_names:
            stats = score_condition(ds, name, baselines, TH, "s1_failed", "any")
            basis = next(st for st in stats if st.pipeline == "basis")
            assert basis.verdict_counts["failure"] == basis.samples

    def test_frame_survival_at_zero_noise(self, baselines):
        cfg = replace(CFG, failed_sensors=frozenset({0}))
        ds = turbine.generate_dataset(FLEET, MIX, cfg, turbine.engine1_conditions())
        stats = score_condition(ds, "normal", baselines, TH, "s1_failed", "zero")
        frame = next(st for st in stats if st.pipeline == "frame")
        assert frame.pct_correct == 100.0


class TestRunsAndReports:
    def test_run_conditions_report_shape(self, baselines, grid):
        report = run_conditions(grid, baselines, TH, metadata={"samples": 4})
        assert len(report.stats) == 3 * 2 * 2 * 2  # states x sensor x noise x pipeline
        st = report.lookup("normal", "good", "low", "basis")
        assert st.pct_correct == 100.0

    def test_report_determinism(self, baselines, grid):
        a = run_conditions(grid, baselines, TH).to_json_dict()
        b = run_conditions(grid, baselines, TH).to_json_dict()
        assert a == b

    def test_write_results_files(self, baselines, grid, tmp_path):
        report = run_conditions(grid, baselines, TH)
        write_results(report, tmp_path)
        doc = json.loads((tmp_path / "results.json").read_text())
        assert len(doc["conditions"]) == 24
        rows = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert rows[0] == "condition,basis_low,frame_low,basis_high,frame_high"
        names = [r.split(",")[0] for r in rows[1:]]
        assert "failure_good_combined" in names
        assert "failure_s1_failed_combined" in names
        assert len(rows) == 1 + 6 + 2

    def test_sweep_points_and_files(self, tmp_path):
        pts = snr_sweep(
            FLEET,
            MIX,
            replace(CFG, samples_per_state=4),
            [-20, -10, 0],
            TH,
        )
        assert len(pts) == 3 * 2 * 2  # grid x pipelines x sensor conditions
        for pt in pts:
            assert pt.p_false_alarm == pytest.approx(1.0 - pt.p_detect)
        write_sweep(pts, tmp_path)
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "snr_db,pipeline,sensor_condition,p_detect,p_fa"
        assert len(rows) == 1 + len(pts)
        curve = (tmp_path / "curves" / "basis_good_detect.dat").read_text().strip()
        assert len(curve.split("\n")) == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            snr_sweep(FLEET, MIX, CFG, [], TH)


def reference_verdicts(mapped, mu, th):
    """The verdict rule applied to one mapped vector, engine by engine."""
    verdicts = []
    for h in range(4):
        block, nominal = mapped[7 * h : 7 * (h + 1)], mu[7 * h : 7 * (h + 1)]
        if np.all(block < th.dead_lo * nominal):
            verdicts.append("failure")
        elif np.any(block > th.fault_hi * nominal):
            verdicts.append("fault")
        else:
            verdicts.append("normal")
    return tuple(verdicts)


def reference_map(healths, kind):
    """One sample's (4, 28) health images fused coordinate by coordinate."""
    if kind == "basis":
        return np.array([healths[i // 7, i] for i in range(28)])
    return np.array([sum(abs(healths[j, i]) for j in range(4)) for i in range(28)])


@st.composite
def relative_values(draw, shape):
    """mu and values of ``shape`` on its scale: 0, exactly dead_lo*mu,
    exactly fault_hi*mu, or a random multiple of mu."""
    mu = draw(hnp.arrays(float, 28, elements=st.floats(0.5, 1e4)))
    code = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    scale = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 3.0)))
    levels = np.stack([np.zeros(28), TH.dead_lo * mu, TH.fault_hi * mu])
    values = np.where(code < 3, levels[np.minimum(code, 2), np.arange(28)], scale * mu)
    return mu, values


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_detect_matches_per_vector_rule(data):
    lead = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))
    mu, mapped = data.draw(relative_values(lead + (28,)))
    dead = data.draw(hnp.arrays(bool, lead + (4,)))  # zeroed engine blocks
    mapped.reshape(lead + (4, 7))[dead] = 0.0
    verdicts = detect(mapped, mu, TH)
    assert verdicts.shape == lead + (4,)
    for idx in np.ndindex(lead):
        assert tuple(verdicts[idx]) == reference_verdicts(mapped[idx], mu, TH)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_score_condition_counts_match_per_sample_rule(data):
    samples = data.draw(st.integers(1, 12))
    mu, healths = data.draw(relative_values((1, samples, 4, 28)))
    dead = data.draw(hnp.arrays(bool, (1, samples, 4)))  # zeroed sensor blocks
    healths[dead] = 0.0
    name, states = data.draw(st.sampled_from(turbine.engine1_conditions()))
    truth = {"normal": "normal", "gear_fault": "fault", "failure": "failure"}[states[0].kind]
    ds = turbine.Dataset(
        healths=healths, conditions=((name, states),), cfg=CFG, mixing=MIX,
        fleet=FLEET,
    )
    bases = {kind: mu for kind in detector.PIPELINES}
    for stats in score_condition(ds, name, bases, TH, "good", "low"):
        verdicts = [
            reference_verdicts(reference_map(h, stats.pipeline), mu, TH)[0]
            for h in healths[0]
        ]
        counts = {v: verdicts.count(v) for v in ("normal", "fault", "failure")}
        combined = counts[truth] + (counts["fault"] if truth == "failure" else 0)
        assert stats.verdict_counts == counts
        assert stats.samples == samples
        assert stats.correct == counts[truth]
        assert stats.combined_correct == combined


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_detect_is_monotone_in_each_block(data):
    """Whatever the other blocks hold, pushing every coordinate of engine h's
    block below dead_lo * mu gives failure, and raising any one of its lines
    above fault_hi * mu gives fault; other engines' verdicts do not move."""
    th = DetectorThresholds(
        fault_hi=data.draw(st.floats(1.01, 10.0)), dead_lo=data.draw(st.floats(0.01, 0.99))
    )
    mu = data.draw(hnp.arrays(float, 28, elements=st.floats(1e-3, 1e4)))
    mapped = data.draw(hnp.arrays(float, 28, elements=st.floats(0.0, 1e5)))
    before = detect(mapped, mu, th)
    h = data.draw(st.integers(0, 3))
    block = slice(7 * h, 7 * (h + 1))
    others = np.arange(4) != h

    quiet = mapped.copy()
    shrink = data.draw(hnp.arrays(float, 7, elements=st.floats(0.0, 0.999)))
    quiet[block] = shrink * (th.dead_lo * mu[block])
    verdicts = detect(quiet, mu, th)
    assert verdicts[h] == "failure"
    assert np.array_equal(verdicts[others], before[others])

    loud = data.draw(st.sampled_from([mapped, quiet])).copy()
    line = 7 * h + data.draw(st.integers(0, 6))
    loud[line] = data.draw(st.floats(1.001, 100.0)) * (th.fault_hi * mu[line])
    verdicts = detect(loud, mu, th)
    assert verdicts[h] == "fault"
    assert np.array_equal(verdicts[others], before[others])
