"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance N] PASS/FAIL`` line (visible with
``pytest -s``) and pins its tolerances inline.  Oracles are independent of
the code paths they check: ranks come from a local Gaussian elimination,
expected frame quantities from direct formulas.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from framesense import cli, detector, turbine
from framesense.frames import (
    MultiplicativeFactorPair,
    VectorSet,
    analysis,
    canonical_dual,
    frame_bounds,
    mf_bound_certificate,
    multiplicative_product,
    reconstruct,
)
from framesense.mappings import (
    basis_map,
    frame_map,
    verify_basis_mapping,
    verify_frame_mapping,
    verify_projective_frame,
    verify_strong_dominance_frame,
)
from framesense.scenario import (
    Factorization,
    HealthMap,
    IndexAssignment,
    Scenario,
    build_index_sets,
    factor_readings,
    is_harmonious,
    separate,
)


def check(criterion: int, description: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {criterion}] {status}: {description}")
    assert not failures, f"criterion {criterion}: {failures}"


def gauss_rank(matrix, tol: float = 1e-9) -> int:
    """Brute-force rank by Gaussian elimination with partial pivoting."""
    m = np.array(matrix, dtype=complex)
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale == 0.0:
        return 0
    m /= scale
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        pivot = rank + int(np.argmax(np.abs(m[rank:, col])))
        if np.abs(m[pivot, col]) <= tol:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] / m[rank, col]
        for r in range(rows):
            if r != rank:
                m[r] = m[r] - m[r, col] * m[rank]
        rank += 1
    return rank


def test_c1_worked_mapping_example():
    """Fused stack (10,2)+(-1,7): selection gives (10,7), magnitude sum (11,9)."""
    failures = []
    health = HealthMap.identity(2)
    assign = IndexAssignment(J=({0, 1}, {0, 1}), I=((0,), (1,)))
    stack = np.array([[10, 2], [-1, 7]], dtype=complex)
    b = basis_map(stack, health, assign)
    f = frame_map(stack, health)
    if not (b[0] == 10 and b[1] == 7):
        failures.append(f"basis map gave {b}")
    if not (f[0] == 11 and f[1] == 9):
        failures.append(f"frame map gave {f}")
    check(1, "worked two-sensor mapping example, exact", failures)


def test_c2_three_sensor_multiplicative_frame():
    """The projected three-sensor set is certified with 3 > 2*1 margins."""
    failures = []
    with open("tests/fixtures/three_sensor_projection.json") as fh:
        from framesense.scenario import scenario_from_json_dict

        s = scenario_from_json_dict(json.load(fh))
    fac = separate(s, factor_readings(s))
    report = verify_strong_dominance_frame(fac)
    if not (report.applicable and report.conclusion):
        failures.append("strong-dominance certification did not pass")
    mags = np.abs(fac.gamma[:, None, :] * fac.alpha[None, :, :]).reshape(-1, 2)
    expected = np.array([[3, 1], [1, 3], [1, 1]], dtype=float)
    if not np.allclose(np.sort(mags, axis=0), np.sort(expected, axis=0), atol=1e-9):
        failures.append(f"magnitude image set {mags} != expected")
    for margin in report.diagnostics["dominance_margins"]:
        # loudest sensor beats (N-1) x runner-up: the 3 > 2*1 margin
        if not margin["loudest"] > margin["runner_up_bound"]:
            failures.append(f"margin violated at {margin}")
        if abs(margin["loudest"] / margin["runner_up_bound"] - 1.5) > 1e-9:
            failures.append(f"margin ratio off at {margin}")
    check(2, "three-sensor set certified as a multiplicative frame for C^2", failures)


def test_c3_frame_property_suite():
    """200 random frames: reconstruction, frame inequality, dual identities."""
    failures = []
    rng = np.random.default_rng(2024)
    start = time.time()
    for trial in range(200):
        dim = int(rng.integers(2, 17))
        count = dim * int(rng.integers(1, 5))
        fr = VectorSet(
            rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        )
        a, b = frame_bounds(fr)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        err = np.linalg.norm(reconstruct(x, fr) - x)
        if err > 1e-9 * (1 + np.linalg.norm(x)):
            failures.append(f"trial {trial}: reconstruction error {err:.2e}")
        xs = rng.standard_normal((100, dim)) + 1j * rng.standard_normal((100, dim))
        energies = np.sum(np.abs(xs @ fr.matrix.conj().T) ** 2, axis=1)
        nsq = np.sum(np.abs(xs) ** 2, axis=1)
        if np.any(energies < a * nsq * (1 - 1e-9)) or np.any(
            energies > b * nsq * (1 + 1e-9)
        ):
            failures.append(f"trial {trial}: frame inequality violated")
        dual = canonical_dual(fr)
        if np.max(np.abs(canonical_dual(dual).matrix - fr.matrix)) > 1e-9 * max(
            1.0, np.max(np.abs(fr.matrix))
        ):
            failures.append(f"trial {trial}: dual of dual differs")
        da, db = frame_bounds(dual)
        if abs(da - 1 / b) > 1e-9 / b or abs(db - 1 / a) > 1e-9 / a:
            failures.append(f"trial {trial}: dual bounds {(da, db)} != (1/B, 1/A)")
        if failures:
            break
    elapsed = time.time() - start
    if elapsed > 10:
        failures.append(f"took {elapsed:.1f}s > 10s")
    check(3, f"frame property suite over 200 random frames ({elapsed:.1f}s)", failures)


def test_c4_multiplicative_bound_certificates():
    """100 random factor pairs: true bounds sit inside the certified interval."""
    failures = []
    rng = np.random.default_rng(77)
    start = time.time()
    for trial in range(100):
        n = int(rng.integers(2, 9))
        count = n * int(rng.integers(1, 4))
        y = VectorSet(
            rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        )
        k = int(rng.integers(1, 5))
        z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        z[rng.integers(0, k)] += 2.5 + 1.5j  # one strictly nonvanishing factor
        pair = MultiplicativeFactorPair(y, VectorSet(z))
        cert = mf_bound_certificate(pair, frame_bounds(y))
        actual = frame_bounds(multiplicative_product(pair))
        if not (
            cert.lower <= actual.lower * (1 + 1e-9) + 1e-12
            and actual.upper <= cert.upper * (1 + 1e-9) + 1e-12
        ):
            failures.append(
                f"trial {trial}: bounds {actual} outside certificate {cert.interval}"
            )
            break
    elapsed = time.time() - start
    if elapsed > 10:
        failures.append(f"took {elapsed:.1f}s > 10s")
    check(4, f"multiplicative bound certificates over 100 pairs ({elapsed:.1f}s)", failures)


def _random_separable(rng, all_audible=False):
    """A random scenario through the full factor/separate pipeline.

    Guaranteed radiative and dominant at every coordinate; with
    ``all_audible`` every sensor hears every coordinate (hence harmonious).
    """
    n = int(rng.integers(2, 7))
    n_sensors = int(rng.integers(2, 7))
    n_times = int(rng.integers(1, 5))
    gamma = rng.standard_normal((n_sensors, n)) + 1j * rng.standard_normal((n_sensors, n))
    alpha = rng.standard_normal((n_times, n)) + 1j * rng.standard_normal((n_times, n))
    if all_audible:
        gamma += gamma / np.abs(gamma) * 0.5  # push moduli away from zero
    else:
        # sparsify, then re-guarantee the predicates coordinatewise
        gamma[rng.uniform(size=gamma.shape) < 0.3] = 0.0
        for i in range(n):
            if np.max(np.abs(gamma[:, i])) < 0.5:
                gamma[rng.integers(0, n_sensors), i] = 1.0 + 0.5j
    for i in range(n):
        if np.max(np.abs(alpha[:, i])) < 0.5:
            alpha[rng.integers(0, n_times), i] = 1.0 - 0.5j
    s = Scenario.from_factors(gamma, alpha, HealthMap.identity(n))
    fac = separate(s, factor_readings(s))
    assign = build_index_sets(s.health_images())
    return s, fac, assign


def _disjoint_scenario(rng):
    """A scenario where one sensor exclusively owns some coordinates."""
    n = int(rng.integers(2, 7))
    n_sensors = int(rng.integers(2, 7))
    isolated = int(rng.integers(0, n_sensors))
    n_owned = int(rng.integers(1, n))
    owned = rng.choice(n, size=n_owned, replace=False)
    gamma = 0.2 + rng.uniform(0.0, 0.3, (n_sensors, n))
    loud_other = (isolated + 1) % n_sensors
    gamma[loud_other] += 1.0  # keeps non-owned coordinates assigned elsewhere
    gamma[:, owned] = 0.0
    gamma[isolated, owned] = 2.0
    alpha = 0.5 + rng.uniform(0.0, 1.0, (1, n))
    s = Scenario.from_factors(gamma.astype(complex), alpha.astype(complex), HealthMap.identity(n))
    fac = separate(s, factor_readings(s))
    assign = build_index_sets(s.health_images())
    return fac, assign, isolated, tuple(sorted(int(i) for i in owned))


def _oracle_images(fac):
    """The single-coordinate images by definition: one row e_i * gamma_j(i) * alpha_k(i)
    per (i, j, k), with that label."""
    n_sensors, n = fac.gamma.shape
    for i in range(n):
        for j in range(n_sensors):
            for k in range(fac.alpha.shape[0]):
                row = np.zeros(n, dtype=complex)
                row[i] = fac.gamma[j, i] * fac.alpha[k, i]
                yield row, (i, j, k)


def test_c5_verifier_oracle_equivalence():
    """Verifier conclusions match a Gaussian-elimination rank oracle."""
    failures = []
    rng = np.random.default_rng(4242)
    start = time.time()
    for trial in range(100):
        _, fac, assign = _random_separable(rng)
        n = fac.gamma.shape[1]
        images = list(_oracle_images(fac))
        # basis selection: each coordinate's owner at its peak-volume time
        peak = np.argmax(np.abs(fac.alpha), axis=0)
        owners = assign.owners()
        selected = [r for r, (i, j, k) in images if k == peak[i] and j == owners[i]]
        basis_report = verify_basis_mapping(fac, assign)
        if basis_report.conclusion != (gauss_rank(selected) == n):
            failures.append(f"trial {trial}: basis verifier disagrees with oracle")
        proj_report = verify_projective_frame(fac)
        if proj_report.conclusion != (gauss_rank([r for r, _ in images]) == n):
            failures.append(f"trial {trial}: projective verifier disagrees with oracle")
        if failures:
            break
    for trial in range(30):
        _, fac, assign = _random_separable(rng, all_audible=True)
        if not is_harmonious(fac, assign):
            failures.append(f"harmonious trial {trial}: construction not harmonious")
            break
        failed = int(rng.integers(0, fac.gamma.shape[0]))
        report = verify_frame_mapping(fac, assign, failed=failed)
        if not (report.applicable and report.conclusion):
            failures.append(f"harmonious trial {trial}: frame survival not certified")
            break
    for trial in range(30):
        fac, assign, isolated, owned = _disjoint_scenario(rng)
        if assign.I[isolated] != owned:
            failures.append(f"disjoint trial {trial}: ownership {assign.I[isolated]} != {owned}")
            break
        report = verify_frame_mapping(fac, assign, failed=isolated)
        if report.applicable:
            failures.append(f"disjoint trial {trial}: harmony hypothesis not caught")
            break
        diag = report.diagnostics
        if diag["spans"] or tuple(diag["missing_coordinates"]) != owned:
            failures.append(
                f"disjoint trial {trial}: span loss at {diag['missing_coordinates']}"
                f" != owned {owned}"
            )
            break
    elapsed = time.time() - start
    if elapsed > 30:
        failures.append(f"took {elapsed:.1f}s > 30s")
    check(5, f"verifier/oracle equivalence over randomized scenarios ({elapsed:.1f}s)", failures)


FLEET = turbine.default_fleet()
TH = detector.DetectorThresholds()


def test_c6_zero_noise_simulation_contracts():
    """Exact zero-noise contracts of the generated fleet data."""
    failures = []
    start = time.time()
    mix = turbine.mixing_matrix(0.1)
    # Rank-1 separability of the sensed spectra at every bin, with the 28
    # line bins genuinely live, checked across times spanning all states.
    states = [st for _, st in turbine.engine1_conditions()] * 2
    cfg = turbine.SimConfig(samples_per_state=64)
    scenario = turbine.dataset_scenario(FLEET, mix, cfg, states)
    try:
        fac = separate(scenario, factor_readings(scenario, tol=1e-7), tol=1e-6)
    except Exception as err:  # pragma: no cover - failure is reported below
        failures.append(f"separability failed: {err}")
        fac = None
    if fac is not None:
        bins = turbine.fleet_line_bins(FLEET, cfg)
        if not np.all(np.max(np.abs(fac.gamma_hat[:, bins]), axis=0) > 1e-6):
            failures.append("some line bin has no sensitivity factor")
        assign = build_index_sets(scenario.health_images(), tol=1e-6)
        if not is_harmonious(fac, assign, tol=1e-6):
            failures.append("generated scenario is not harmonious")
    # Detection contracts at zero noise, 64 samples per state.
    calib = detector.calibration_dataset(FLEET, mix, cfg)
    baselines = {k: detector.calibrate(calib, k) for k in detector.PIPELINES}
    failed_cfg = replace(cfg, failed_sensors=frozenset({0}))
    ds = turbine.generate_dataset(FLEET, mix, failed_cfg, turbine.engine1_conditions())
    for name in ds.condition_names:
        stats = detector.score_condition(ds, name, baselines, TH, "s1_failed", "zero")
        basis = next(st for st in stats if st.pipeline == "basis")
        if basis.verdict_counts["failure"] != basis.samples:
            failures.append(f"basis verdicts not all failure under {name}")
    frame = next(
        st
        for st in detector.score_condition(ds, "normal", baselines, TH, "s1_failed", "zero")
        if st.pipeline == "frame"
    )
    if frame.pct_correct != 100.0:
        failures.append(f"frame normal-survival {frame.pct_correct}% != 100%")
    elapsed = time.time() - start
    if elapsed > 60:
        failures.append(f"took {elapsed:.1f}s > 60s")
    check(6, f"zero-noise simulation contracts at 64 samples/state ({elapsed:.1f}s)", failures)


@pytest.fixture(scope="module")
def condition_report():
    mix = turbine.mixing_matrix(0.1)
    cfg = turbine.SimConfig(samples_per_state=256)
    calib = detector.calibration_dataset(FLEET, mix, cfg)
    baselines = {k: detector.calibrate(calib, k) for k in detector.PIPELINES}
    start = time.time()
    levels = cli.CONFIG_DEFAULTS["noise_levels"]
    conditions = turbine.engine1_conditions()
    grid = {
        key: turbine.generate_dataset(FLEET, mix, run_cfg, conditions)
        for key, run_cfg in detector.grid_cells(cfg, levels)
    }
    report = detector.run_conditions(grid, baselines, TH)
    return report, time.time() - start


def test_c7_condition_table(condition_report):
    """Directional reproduction of the 12-condition detection table."""
    report, elapsed = condition_report
    failures = []
    pct = lambda *key: report.lookup(*key).pct_correct
    for state in ("normal", "fault"):
        for pipeline in ("basis", "frame"):
            value = pct(state, "good", "low", pipeline)
            if abs(value - 100.0) > 2.0:
                failures.append(f"good/low {state}/{pipeline} = {value}%")
    if pct("normal", "s1_failed", "low", "basis") != 0.0:
        failures.append("basis not exactly blind on failed-sensor normal data")
    if pct("normal", "s1_failed", "high", "basis") != 0.0:
        failures.append("basis not exactly blind at high noise")
    if pct("normal", "s1_failed", "low", "frame") < 90.0:
        failures.append("frame failed-sensor normal below 90%")
    for noise in ("low", "high"):
        if pct("failure", "s1_failed", noise, "basis") != 100.0:
            failures.append(f"basis failure detection not exact at {noise} noise")
    if report.lookup("failure", "s1_failed", "low", "frame").pct_combined < 95.0:
        failures.append("frame combined fault-or-failure below 95%")
    # orderings: magnitude sum >= selection whenever the owner sensor is dead
    for state in ("normal", "fault"):
        for noise in ("low", "high"):
            if pct(state, "s1_failed", noise, "frame") < pct(state, "s1_failed", noise, "basis"):
                failures.append(f"frame < basis at {state}/{noise} with failed sensor")
    if pct("failure", "good", "low", "basis") < pct("failure", "good", "low", "frame"):
        failures.append("strict failure detection ordering violated at low noise")
    if elapsed > 300:
        failures.append(f"took {elapsed:.1f}s > 300s")
    check(7, f"condition table at 256 samples/state ({elapsed:.1f}s)", failures)


def test_c8_snr_sweep(tmp_path):
    """21-point SNR sweep on normal data, 128 samples per point."""
    failures = []
    start = time.time()
    mix = turbine.mixing_matrix(cli.CONFIG_DEFAULTS["sweep_mixing_off_diagonal"])
    cfg = turbine.SimConfig(samples_per_state=128)
    points = detector.snr_sweep(FLEET, mix, cfg, list(range(-20, 1)), TH)
    elapsed = time.time() - start
    sel = {(p.snr_db, p.sensor_condition, p.pipeline): p for p in points}
    if len(sel) != 21 * 2 * 2:
        failures.append(f"expected 84 sweep points, got {len(sel)}")
    for snr in range(-20, 1):
        if sel[(float(snr), "s1_failed", "basis")].p_detect != 0.0:
            failures.append(f"failed-sensor basis not 0% at {snr} dB")
    for snr in (-20, -19, -18):
        basis_fa = sel[(float(snr), "good", "basis")].p_false_alarm
        frame_fa = sel[(float(snr), "good", "frame")].p_false_alarm
        if frame_fa < basis_fa:
            failures.append(f"frame FA {frame_fa} < basis FA {basis_fa} at {snr} dB")
    for pipeline in ("basis", "frame"):
        pt = sel[(0.0, "good", pipeline)]
        if pt.p_detect < 0.99 or pt.p_false_alarm > 0.01:
            failures.append(f"{pipeline} not clean at 0 dB: {pt}")
    if sel[(0.0, "s1_failed", "frame")].p_detect < 0.99:
        failures.append("frame with failed sensor below 99% at 0 dB")
    for cond in ("good", "s1_failed"):
        lo = sel[(-20.0, cond, "frame")].p_detect
        hi = sel[(0.0, cond, "frame")].p_detect
        if hi < lo:
            failures.append(f"frame detection not improving with SNR ({cond})")
    detector.write_sweep(points, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    if len(rows) != 1 + 84:
        failures.append("sweep.csv row count off")
    if elapsed > 600:
        failures.append(f"took {elapsed:.1f}s > 600s")
    check(8, f"SNR sweep, 21 points x 128 samples ({elapsed:.1f}s)", failures)


def test_c9_end_to_end_determinism(tmp_path):
    """Two seeded generate+detect runs produce byte-identical outputs."""
    failures = []
    start = time.time()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"rng_seed": 13}))
    outputs = []
    for name in ("run_a", "run_b"):
        gen = tmp_path / name / "gen"
        det = tmp_path / name / "det"
        if cli.main(["generate", "--config", str(cfg_path), "--out", str(gen)]) != 0:
            failures.append(f"{name}: generate failed")
            break
        if cli.main(
            ["detect", "--config", str(cfg_path), "--out", str(det), "--data", str(gen)]
        ) != 0:
            failures.append(f"{name}: detect failed")
            break
        health = (gen / "datasets" / "good_high" / "health.csv").read_bytes()
        results = (det / "results.csv").read_bytes()
        outputs.append((health, results))
    if len(outputs) == 2:
        if outputs[0][0] != outputs[1][0]:
            failures.append("health.csv differs between identically seeded runs")
        if outputs[0][1] != outputs[1][1]:
            failures.append("results.csv differs between identically seeded runs")
    elapsed = time.time() - start
    if elapsed > 120:
        failures.append(f"took {elapsed:.1f}s > 120s")
    check(9, f"seeded generate+detect byte-determinism ({elapsed:.1f}s)", failures)
