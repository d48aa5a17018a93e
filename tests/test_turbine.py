import ctypes
import hashlib
import io
import json
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framesense import cli, turbine
from framesense.mappings import (
    verify_basis_mapping,
    verify_frame_mapping,
    verify_projective_frame,
    verify_strong_dominance_frame,
)
from framesense.scenario import (
    HealthMap,
    build_index_sets,
    factor_readings,
    is_harmonious,
    sensor_status,
    separate,
    validate_scenario,
)
from framesense.turbine import (
    EngineModel,
    FaultState,
    SimConfig,
    dataset_scenario,
    default_fleet,
    fleet_line_bins,
    generate_dataset,
    line_phases,
    line_spectrum,
    load_dataset,
    mixing_matrix,
    normal_fleet_state,
    resolve_sigma,
    save_dataset,
)
from tests.test_scenario import dense

# The benchmark's generate config, and one with three noise levels: 7 datasets.
BENCH_CONFIG = {"samples_per_state": 64, "rng_seed": 3, "dft_size": 8192,
                "mixing_off_diagonal": 0.1}
THREE_LEVELS = {"samples_per_state": 8,
                "noise_levels": {"low": 18.0, "mid": 12.0, "high": 8.0}}
FLEET = default_fleet()
CFG = SimConfig(samples_per_state=4)
BINS = fleet_line_bins(FLEET, CFG)


class TestFleetGeometry:
    def test_28_distinct_bins(self):
        assert BINS.size == 28
        assert len(set(BINS.tolist())) == 28

    def test_lines_below_nyquist(self):
        for model in FLEET:
            assert np.all(model.line_frequencies() < CFG.sample_rate / 2)

    def test_lines_exactly_on_bins(self):
        for model in FLEET:
            assert np.allclose(model.line_frequencies() % CFG.bin_width, 0.0)

    def test_off_bin_line_rejected(self):
        bad = (EngineModel(engine_id=1, turbine_shaft_freqs=(41.0, 112.0)),) + FLEET[1:]
        with pytest.raises(ValueError, match="DFT bin"):
            fleet_line_bins(bad, CFG)

    def test_colliding_lines_rejected(self):
        bad = (FLEET[0], FLEET[0], FLEET[2], FLEET[3])
        with pytest.raises(ValueError, match="distinct"):
            fleet_line_bins(bad, CFG)

    def test_nyquist_violation_rejected(self):
        bad = EngineModel(engine_id=1, turbine_shaft_freqs=(40.0, 112.0), blade_counts=(20, 256))
        with pytest.raises(ValueError, match="Nyquist"):
            fleet_line_bins((bad,) + FLEET[1:], CFG)

    def test_line_at_or_below_zero_hz_rejected(self):
        # The closed-form spectrum holds for interior bins only; bin 0 is DC.
        for shafts in ((0.0, 112.0), (-40.0, 112.0)):
            bad = EngineModel(engine_id=1, turbine_shaft_freqs=shafts)
            with pytest.raises(ValueError, match="above 0 Hz"):
                fleet_line_bins((bad,) + FLEET[1:], CFG)


def _sample_rng(seed, condition, sample):
    """The generator of one sample's noise, keyed as ``generate_datasets`` keys it."""
    return np.random.Generator(np.random.Philox(key=turbine._sample_key(seed, condition, sample)))


def drawn_line_noise(cfg, sigma, condition, sample, n_lines=28):
    """The line-bin noise of one sample: sigma sqrt(N/2) (z[0] + i z[1]),
    z the first (2, 4, n_lines) normals of the sample's generator."""
    z = _sample_rng(cfg.rng_seed, condition, sample).standard_normal((2, 4, n_lines))
    return sigma * np.sqrt(cfg.dft_size / 2) * (z[0] + 1j * z[1])


def time_domain_spectrum(fleet, states, mixing, cfg, block=0):
    """Reference: DFT of the sensor blocks synthesised sample by sample.

    Each engine radiates ``a sin(2 pi f t / fs + phi)`` per line, sampled over
    block ``block`` (samples ``block*N .. block*N + N - 1``); sensors mix the
    engines, and failed sensors read zero.
    """
    t = block * cfg.dft_size + np.arange(cfg.dft_size)
    engines = np.stack(
        [
            sum(
                a * np.sin(2 * np.pi * f * t / cfg.sample_rate + phi)
                for f, a, phi in zip(
                    model.line_frequencies(),
                    state.amplitudes(model),
                    line_phases(cfg.rng_seed, model.engine_id),
                )
            )
            for model, state in zip(fleet, states)
        ]
    )
    sensors = mixing @ engines
    sensors[sorted(cfg.failed_sensors)] = 0.0
    return np.fft.fft(sensors, axis=-1)


class TestEngineSignal:
    """Each engine's line signal, seen through its closed-form spectrum."""

    def test_normal_block_peaks_at_line_bins(self):
        model = FLEET[0]
        spectrum = dense(dataset_scenario(FLEET, np.eye(4), CFG, [normal_fleet_state()]))[0, 0]
        own_bins = BINS[:7]
        expected = np.array(model.line_amplitudes) * CFG.dft_size / 2
        assert np.allclose(spectrum[own_bins], expected, rtol=1e-12)
        rest = np.delete(spectrum[: CFG.dft_size // 2], own_bins)
        assert np.all(rest == 0.0)

    def test_failure_is_silent(self):
        states = (FaultState.failure(),) + normal_fleet_state()[1:]
        values = line_spectrum(FLEET, states, mixing_matrix(0.1), CFG)
        assert np.all(values[:, :7] == 0.0)
        assert np.all(np.abs(values[:, 7:]) > 0.0)

    def test_gear_fault_scales_one_line(self):
        normal = np.abs(line_spectrum(FLEET, normal_fleet_state(), np.eye(4), CFG))
        states = (FaultState.gear_fault(2, 3.0),) + normal_fleet_state()[1:]
        faulty = np.abs(line_spectrum(FLEET, states, np.eye(4), CFG))
        ratio = faulty[0, :7] / normal[0, :7]
        assert ratio[5] == pytest.approx(3.0, rel=1e-12)  # gear 2 is line index 5
        assert np.allclose(np.delete(ratio, 5), 1.0, rtol=1e-12)

    def test_nyquist_guard(self):
        model = EngineModel(engine_id=1, blade_counts=(20, 500))
        with pytest.raises(ValueError, match="Nyquist"):
            line_spectrum((model,) + FLEET[1:], normal_fleet_state(), np.eye(4), CFG)

    def test_running_phase_is_continuous(self):
        # Block starts are whole multiples of N and every line is on-bin, so
        # the running waveform gives every block the same spectrum.
        mixing = mixing_matrix(0.1)
        states = normal_fleet_state()
        closed = line_spectrum(FLEET, states, mixing, CFG)
        for block in (0, 1, 7):
            reference = time_domain_spectrum(FLEET, states, mixing, CFG, block)
            assert np.allclose(closed, reference[:, BINS], rtol=0, atol=1e-8 * CFG.dft_size)

    def test_phases_fixed_by_seed(self):
        assert np.array_equal(line_phases(7, 1), line_phases(7, 1))
        assert not np.array_equal(line_phases(7, 1), line_phases(8, 1))


class TestFaultState:
    def test_gear_fault_needs_valid_gear(self):
        with pytest.raises(ValueError):
            FaultState.gear_fault(4, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultState(kind="wobbly")

    def test_json_roundtrip(self, tmp_path):
        # States cross the disk in a dataset manifest, and a load under any
        # other states fails at the first field that differs.
        states = (FaultState.gear_fault(3, 5.5), FaultState.failure()) + normal_fleet_state()[2:]
        cfg = SimConfig(samples_per_state=1)
        mixing = mixing_matrix(0.1)
        ds = generate_dataset(FLEET, mixing, cfg, (("mixed", states),))
        path = save_dataset(ds, tmp_path / "d")
        load_dataset(path, FLEET, mixing, cfg, (("mixed", states),))
        for other, key in [
            ((FaultState.gear_fault(3, 5.0),) + states[1:], "'states.multiplier'"),
            ((FaultState.gear_fault(2, 5.5),) + states[1:], "'states.gear'"),
            (states[:1] + (FaultState.normal(),) + states[2:], "'states.kind'"),
        ]:
            with pytest.raises(ValueError, match=key):
                load_dataset(path, FLEET, mixing, cfg, (("mixed", other),))

    def test_negative_or_non_finite_multiplier_rejected(self):
        for bad in (-12.0, -1e-300, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="multiplier"):
                FaultState.gear_fault(1, bad)
        assert FaultState.gear_fault(1, 0.0).amplitudes(FLEET[0])[4] == 0.0


class TestMixing:
    def test_identity_mixing_isolates_engines(self):
        healths = np.abs(line_spectrum(FLEET, normal_fleet_state(), np.eye(4), CFG))
        for j in range(4):
            own = slice(7 * j, 7 * (j + 1))
            assert np.all(healths[j, own] > 1.0)
            others = np.delete(healths[j], range(7 * j, 7 * (j + 1)))
            assert np.all(others == 0.0)

    def test_cross_volume_ratio(self):
        healths = np.abs(line_spectrum(FLEET, normal_fleet_state(), mixing_matrix(0.1), CFG))
        # engine 2's lines at sensor 0 sit at amplitude ratio 0.1 (10 dB down)
        assert np.allclose(healths[0, 7:14] / healths[1, 7:14], 0.1, rtol=1e-12)

    def test_energy_scales_with_square_of_volume(self):
        dead = FaultState.failure()
        states = (dead, FaultState.normal(), dead, dead)
        for vol in (0.1, 0.5):
            a = np.eye(4)
            a[0, 1] = vol
            healths = np.abs(line_spectrum(FLEET, states, a, CFG))
            assert np.sum(healths[0] ** 2) == pytest.approx(
                vol**2 * np.sum(healths[1] ** 2), rel=1e-12
            )

    def test_failed_sensor_emits_zero(self):
        # Sample m of condition c is |line spectrum + the noise its own
        # generator draws|, zeroed at the failed sensor.
        cfg = SimConfig(failed_sensors={1}, snr_db=2.0, samples_per_state=2)
        sigma = resolve_sigma(cfg, FLEET)
        conditions = turbine.engine1_conditions()
        healths = generate_dataset(FLEET, mixing_matrix(0.1), cfg, conditions).healths
        for c, (_, states) in enumerate(conditions):
            lines = line_spectrum(FLEET, states, mixing_matrix(0.1), cfg)
            assert np.all(lines[1] == 0)
            for m in range(cfg.samples_per_state):
                expected = np.abs(lines + drawn_line_noise(cfg, sigma, c, m))
                expected[1] = 0.0
                assert np.array_equal(healths[c, m], expected)
        assert np.all(healths[:, :, 1] == 0.0)
        assert np.all(healths[:, :, 0] != 0.0)
        clean = replace(cfg, snr_db=None)
        scenario = dataset_scenario(FLEET, mixing_matrix(0.1), clean, [normal_fleet_state()])
        spectra = dense(scenario)
        assert np.all(spectra[1] == 0.0)
        assert np.all(spectra[0, 0, BINS] != 0.0)

    def test_mixing_validation(self):
        with pytest.raises(ValueError):
            mixing_matrix(1.5)
        bad = np.eye(4)
        bad[0, 0] = 0.5
        with pytest.raises(ValueError):
            turbine.validate_mixing(bad)

    def test_non_finite_mixing_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                mixing_matrix(value)


class TestDft:
    def test_on_bin_cosine_magnitude(self):
        # One live line: engine 1's strongest, heard by sensor 0 alone.
        model = EngineModel(engine_id=1, line_amplitudes=(0.7, 0, 0, 0, 0, 0, 0))
        dead = FaultState.failure()
        states = (FaultState.normal(), dead, dead, dead)
        fleet = (model,) + FLEET[1:]
        spectrum = dense(dataset_scenario(fleet, np.eye(4), CFG, [states]))[0, 0]
        assert np.all(spectrum.imag == 0.0)
        spectrum = spectrum.real
        b = BINS[0]
        assert spectrum.shape == (CFG.dft_size,)
        assert spectrum[b] == pytest.approx(0.7 * CFG.dft_size / 2, rel=1e-12)
        assert spectrum[CFG.dft_size - b] == spectrum[b]
        mask = np.ones(CFG.dft_size, bool)
        mask[[b, CFG.dft_size - b]] = False
        assert np.all(spectrum[mask] == 0.0)


# Property test set-up: 4 Hz bins at N = 2048; random fleets keep every line
# on a whole bin (shafts on multiples of 4 bins, gear ratios in quarters).
PROP_CFG = SimConfig(dft_size=2048, sample_rate=4.0 * 2048)


def random_on_bin_fleet(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    while True:
        fleet = tuple(
            EngineModel(
                engine_id=e,
                turbine_shaft_freqs=tuple(16.0 * rng.integers(1, 24, 2)),
                blade_counts=tuple(int(b) for b in rng.integers(2, 10, 2)),
                gear_ratios=tuple(rng.integers(5, 40, 3) / 4.0),
                line_amplitudes=tuple(rng.uniform(0.1, 2.0, 7)),
            )
            for e in range(1, 5)
        )
        try:
            fleet_line_bins(fleet, PROP_CFG)
        except ValueError:  # two lines share a bin: draw again
            continue
        return fleet


fault_states = st.one_of(
    st.just(FaultState.normal()),
    st.just(FaultState.failure()),
    st.builds(
        FaultState.gear_fault,
        st.integers(1, 3),
        st.floats(0.0, 20.0, allow_nan=False),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    fleet_seed=st.integers(0, 2**32 - 1),
    rng_seed=st.integers(0, 2**32 - 1),
    off_diagonal=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
    states=st.tuples(fault_states, fault_states, fault_states, fault_states),
    failed=st.frozensets(st.integers(0, 3), max_size=3),
    block=st.integers(0, 40),
    snr_db=st.sampled_from([None, 8.0]),
)
def test_closed_form_matches_time_domain(
    fleet_seed, rng_seed, off_diagonal, states, failed, block, snr_db
):
    """Noise-free, the line spectrum equals the DFT of the synthesised sensor
    blocks at the line bins, and the scenario readings equal its magnitude at
    every bin; noisy healths are |line spectrum + the sample's drawn
    line-bin noise|."""
    fleet = random_on_bin_fleet(fleet_seed)
    mixing = np.eye(4)
    mixing[~np.eye(4, dtype=bool)] = off_diagonal
    cfg = replace(
        PROP_CFG,
        rng_seed=rng_seed,
        failed_sensors=failed,
        snr_db=snr_db,
        samples_per_state=block + 1,
    )
    healths = generate_dataset(fleet, mixing, cfg, [("c", states)]).healths[0, block]
    bins = fleet_line_bins(fleet, cfg)
    lines = line_spectrum(fleet, states, mixing, cfg)
    assert np.all(healths[sorted(failed)] == 0.0)
    if snr_db is None:
        reference = time_domain_spectrum(fleet, states, mixing, cfg, block)
        tol = 1e-8 * cfg.dft_size
        assert np.allclose(lines, reference[:, bins], rtol=0, atol=tol)
        spectra = dense(dataset_scenario(fleet, mixing, cfg, [states]))[:, 0]
        assert np.array_equal(spectra[:, bins], healths)
        assert np.allclose(spectra, np.abs(reference), rtol=0, atol=tol)
        off_bins = np.delete(spectra, np.concatenate([bins, cfg.dft_size - bins]), axis=-1)
        assert np.all(off_bins == 0.0)
        assert np.all(spectra[sorted(failed)] == 0.0)
    else:
        sigma = resolve_sigma(cfg, fleet)
        expected = np.abs(lines + drawn_line_noise(cfg, sigma, 0, block))
        expected[sorted(failed)] = 0.0
        assert np.array_equal(healths, expected)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int, alpha: float = 1e-3) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    return np.sqrt(-np.log(alpha / 2) / 2) * np.sqrt((n + m) / (n * m))


class TestFrequencyDomainNoise:
    """The drawn line-bin noise against the rfft of time-domain white noise.

    A dead fleet makes every sample pure noise, so its healths are the
    magnitudes of the drawn noise.  Seeds are fixed: the simulator's
    ``rng_seed`` NOISE_SEED, the reference generator REF_SEED.
    """

    SAMPLES = 2000
    SNR_DB = -12.0  # sigma 1.71 for this fleet
    NOISE_SEED = 20261018
    REF_SEED = 4242

    @pytest.fixture(scope="class")
    def draws(self):
        fleet = random_on_bin_fleet(3)
        cfg = replace(
            PROP_CFG, rng_seed=self.NOISE_SEED, snr_db=self.SNR_DB,
            samples_per_state=self.SAMPLES,
        )
        sigma = resolve_sigma(cfg, fleet)
        n = cfg.dft_size
        bins = fleet_line_bins(fleet, cfg)
        dead = [("dead", tuple(FaultState.failure() for _ in range(4)))]
        healths = generate_dataset(fleet, mixing_matrix(0.1), cfg, dead).healths[0]
        new_lines = [drawn_line_noise(cfg, sigma, 0, m) for m in range(self.SAMPLES)]
        ref_rng = np.random.default_rng(self.REF_SEED)
        ref_lines = []
        for _ in range(self.SAMPLES // 250):  # 250 samples per block keeps memory small
            x = np.fft.rfft(sigma * ref_rng.standard_normal((250, 4, n)), axis=-1)
            ref_lines.append(x[..., bins])
        return {
            "n": n,
            "sigma": sigma,
            "new_lines": np.stack(new_lines),  # (samples, 4, 28)
            "healths": healths,
            "ref_lines": np.concatenate(ref_lines),
        }

    def test_healths_are_the_drawn_line_noise(self, draws):
        assert np.array_equal(draws["healths"], np.abs(draws["new_lines"]))

    def test_line_magnitudes_match_time_domain_noise(self, draws):
        scale = draws["sigma"] * np.sqrt(draws["n"])
        new = draws["healths"].ravel() / scale
        ref = np.abs(draws["ref_lines"]).ravel() / scale
        assert new.size == ref.size >= 2000 * 4 * 28
        assert ks_statistic(new, ref) < ks_critical(new.size, ref.size)

    def test_line_power_is_sigma_squared_n(self, draws):
        power = draws["sigma"] ** 2 * draws["n"]
        for key in ("healths", "ref_lines"):
            mean = np.mean(np.abs(draws[key]) ** 2)
            # The mean of 224,000 unit exponentials has std 0.0021.
            assert mean / power == pytest.approx(1.0, abs=0.01), key

    def test_bins_and_parts_are_uncorrelated(self, draws):
        values = draws["new_lines"].reshape(-1, 28)
        parts = np.concatenate([values.real, values.imag], axis=1)  # 56 columns
        corr = np.corrcoef(parts, rowvar=False)
        off_diagonal = corr[~np.eye(56, dtype=bool)]
        # 8000 rows: one correlation estimate has std 0.011.
        assert np.max(np.abs(off_diagonal)) < 5 / np.sqrt(values.shape[0])
        pooled = np.corrcoef(values.real.ravel(), values.imag.ravel())[0, 1]
        assert abs(pooled) < 5 / np.sqrt(values.size)
        assert np.var(values.real) == pytest.approx(np.var(values.imag), rel=0.02)


class TestGeneration:
    def test_dataset_shape_and_labels(self):
        ds = generate_dataset(FLEET, mixing_matrix(0.1), CFG, turbine.engine1_conditions())
        assert ds.healths.shape == (3, 4, 4, 28)
        assert ds.condition_names == ("normal", "fault", "failure")

    def test_same_seed_is_identical(self):
        cfg = SimConfig(samples_per_state=2, snr_db=0.0)
        mk = lambda: generate_dataset(FLEET, mixing_matrix(0.1), cfg, turbine.engine1_conditions())
        a, b = mk(), mk()
        assert np.array_equal(a.healths, b.healths)

    def test_different_seed_differs(self):
        cfg1 = SimConfig(samples_per_state=2, snr_db=0.0, rng_seed=1)
        cfg2 = SimConfig(samples_per_state=2, snr_db=0.0, rng_seed=2)
        a = generate_dataset(FLEET, mixing_matrix(0.1), cfg1, turbine.engine1_conditions())
        b = generate_dataset(FLEET, mixing_matrix(0.1), cfg2, turbine.engine1_conditions())
        assert not np.array_equal(a.healths, b.healths)

    def test_batched_draw_matches_per_sample_generators(self):
        # Every sample of every condition of every run, bit for bit, against its own
        # _sample_rng: one run through generate_dataset, then the runs of one shared draw.
        cfg = SimConfig(samples_per_state=5, snr_db=-3.0, rng_seed=2**64 + 11,
                        failed_sensors=frozenset({2}))
        mixing, conditions = mixing_matrix(0.4), turbine.engine1_conditions(2, 7.0)
        runs = [
            (replace(cfg, snr_db=None, failed_sensors=frozenset(), samples_per_state=4),
             conditions[:1]),
            (replace(cfg, snr_db=12.0), conditions),
            (cfg, conditions),
            (replace(cfg, failed_sensors=frozenset({0}), samples_per_state=3), conditions),
            (replace(cfg, failed_sensors=frozenset()), conditions[1:2]),
        ]
        for batch, datasets in [
            ([(cfg, conditions)], [generate_dataset(FLEET, mixing, cfg, conditions)]),
            (runs, turbine.generate_datasets(FLEET, mixing, runs)),
        ]:
            datasets = list(datasets)
            assert len(datasets) == len(batch)
            for (run_cfg, run_conditions), ds in zip(batch, datasets):
                assert ds.cfg == run_cfg and ds.conditions == run_conditions
                shape = (len(run_conditions), run_cfg.samples_per_state, 4, 28)
                assert ds.healths.shape == shape
                sigma = resolve_sigma(run_cfg, FLEET)
                for c, (_, states) in enumerate(run_conditions):
                    lines = line_spectrum(FLEET, states, mixing, run_cfg)
                    for m in range(run_cfg.samples_per_state):
                        expected = np.abs(lines + drawn_line_noise(run_cfg, sigma, c, m))
                        expected[sorted(run_cfg.failed_sensors)] = 0.0
                        assert np.array_equal(ds.healths[c, m], expected), (run_cfg, c, m)

    def test_shared_draw_needs_one_seed(self):
        conditions = turbine.engine1_conditions()
        runs = [(SimConfig(samples_per_state=2, rng_seed=seed), conditions) for seed in (1, 2)]
        with pytest.raises(ValueError, match="one rng_seed"):
            next(turbine.generate_datasets(FLEET, mixing_matrix(0.1), runs))

    def test_zero_noise_healths_constant_across_samples(self):
        ds = generate_dataset(FLEET, mixing_matrix(0.1), CFG, turbine.engine1_conditions())
        spread = np.max(np.abs(ds.healths - ds.healths[:, :1]))
        assert spread <= 1e-8 * np.max(ds.healths)

    def test_save_load_roundtrip(self, tmp_path):
        mixing, conditions = mixing_matrix(0.1), turbine.engine1_conditions()
        ds = generate_dataset(FLEET, mixing, CFG, conditions)
        path = save_dataset(ds, tmp_path / "d")
        back = load_dataset(path, FLEET, mixing, CFG, conditions)
        assert np.array_equal(back.healths, ds.healths)
        # A load under any other description fails, naming the first key that differs.
        other_fleet = (FLEET[0], replace(FLEET[1], blade_counts=(21, 24))) + FLEET[2:]
        for fleet, mix, cfg, conds, key in [
            (FLEET, mixing, replace(CFG, rng_seed=1), conditions, "'config.rng_seed'"),
            (FLEET, mixing, replace(CFG, snr_db=0.0), conditions, "'config.snr_db'"),
            (other_fleet, mixing, CFG, conditions, "'fleet.blade_counts'"),
            (FLEET, mixing_matrix(0.2), CFG, conditions, "'mixing'"),
            (FLEET, mixing, CFG, turbine.engine1_conditions(fault_multiplier=11.0),
             "'states.multiplier'"),
            (FLEET, mixing, CFG, conditions[:2], "'conditions' is not a list of 2 entries"),
        ]:
            with pytest.raises(ValueError, match=key):
                load_dataset(path, fleet, mix, cfg, conds)

    def test_manifest_config_keys_not_in_sim_config_are_ignored(self, tmp_path):
        # Manifests written before noise was set by SNR alone carry a second
        # noise key, always 0.0; their datasets must still load.
        cfg = SimConfig(samples_per_state=2, snr_db=5.0)
        ds = generate_dataset(FLEET, mixing_matrix(0.1), cfg, turbine.engine1_conditions())
        path = save_dataset(ds, tmp_path / "d")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["config"]["retired_noise_key"] = 0.0
        (path / "manifest.json").write_text(json.dumps(manifest))
        back = load_dataset(path, FLEET, mixing_matrix(0.1), cfg, turbine.engine1_conditions())
        assert back.cfg == cfg
        assert back.sigma == ds.sigma
        assert np.array_equal(back.healths, ds.healths)

    def test_dft_size_must_fit_int64(self):
        assert SimConfig(dft_size=2**62).dft_size == 2**62
        for exponent in (63, 1100):
            with pytest.raises(ValueError, match=f"dft_size 2\\*\\*{exponent} does not fit"):
                SimConfig(dft_size=2**exponent)

    def test_zero_samples_per_state_rejected(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError, match="samples_per_state"):
                SimConfig(samples_per_state=bad)

    def test_incomplete_health_csv_rejected(self, tmp_path):
        # Every edit of health.csv is refused by the digest manifest.json records.
        ds = generate_dataset(FLEET, mixing_matrix(0.1), CFG, turbine.engine1_conditions())
        path = save_dataset(ds, tmp_path / "d")
        csv = path / "health.csv"
        lines = csv.read_text().splitlines()
        cases = [
            lines[: len(lines) // 2],  # truncated
            lines[:-1] + [lines[1]],  # repeated
            lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"],
            lines[:-1] + [lines[-1][:8]],  # cut mid-key
            lines[:-1] + ["normal,99," + lines[-1].split(",", 2)[2]],  # out of range
            lines[:1] + [lines[2], lines[1]] + lines[3:],  # swapped pair
            lines[:-1] + ["failure,3,3,"],  # no values
            lines[:-1] + [lines[-1] + ",1.0"],  # one column too many
        ]
        for body in cases:
            csv.write_text("\n".join(body) + "\n")
            with pytest.raises(ValueError, match=r"health\.csv: sha256 differs"):
                load_dataset(path, FLEET, mixing_matrix(0.1), CFG, turbine.engine1_conditions())

    def test_edited_health_npy_rejected(self, tmp_path):
        conditions = turbine.engine1_conditions()
        ds = generate_dataset(FLEET, mixing_matrix(0.1), CFG, conditions)
        path = save_dataset(ds, tmp_path / "d")
        npy = path / "health.npy"
        good = npy.read_bytes()
        npy.write_bytes(good[:-8] + np.float64(1.0).tobytes())
        with pytest.raises(ValueError, match=r"health\.npy: sha256 differs"):
            load_dataset(path, FLEET, mixing_matrix(0.1), CFG, conditions)

        def saved(array) -> bytes:
            buf = io.BytesIO()
            np.save(buf, array, allow_pickle=False)
            return buf.getvalue()

        with_nan = ds.healths.copy()
        with_nan[2, 3, 3, 27] = np.nan
        # Behind a re-recorded digest, the value checks still hold.
        for match, data in [
            ("EOF", good[: len(good) // 2]),  # truncated
            ("No data left", b""),
            ("dtype <f4, expected <f8", saved(ds.healths.astype("<f4"))),
            ("dtype >f8, expected <f8", saved(ds.healths.astype(">f8"))),
            (r"shape \(3, 3, 4, 28\), expected \(3, 4, 4, 28\)", saved(ds.healths[:, :3])),
            ("every health value must be finite", saved(with_nan)),
        ]:
            npy.write_bytes(data)
            manifest = json.loads((path / "manifest.json").read_text())
            manifest["files"]["sha256"]["health.npy"] = hashlib.sha256(data).hexdigest()
            (path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match=r"health\.npy: " + match):
                load_dataset(path, FLEET, mixing_matrix(0.1), CFG, conditions)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = SimConfig(samples_per_state=2, snr_db=5.0)
        for name in ("a", "b"):
            ds = generate_dataset(FLEET, mixing_matrix(0.1), cfg, turbine.engine1_conditions())
            save_dataset(ds, tmp_path / name)
        for name in ("health.csv", "health.npy", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("config, datasets", [(BENCH_CONFIG, 5), (THREE_LEVELS, 7)],
                             ids=["bench", "three_levels"])
    def test_shared_row_cache_writes_the_bytes_a_fresh_format_writes(self, tmp_path, config,
                                                                      datasets):
        # ``generate`` saves a plan's datasets with one row-text cache; saving
        # each with a cache of its own must write the same bytes.
        (tmp_path / "c.json").write_text(json.dumps(config))
        plan = cli.load_plan(str(tmp_path / "c.json"), None)
        runs = [run[1:] for run in plan.datasets]
        texts = {}
        for name, shared in (("shared", texts), ("fresh", None)):
            found = turbine.generate_datasets(plan.fleet, plan.mixing, runs)
            for (key, _, _), ds in zip(plan.datasets, found):
                save_dataset(ds, tmp_path / name / "_".join(key), shared)
        trees = [{str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                  if p.is_file()} for root in (tmp_path / "shared", tmp_path / "fresh")]
        assert trees[0] == trees[1]
        assert len([name for name in trees[0] if name.endswith("manifest.json")]) == datasets
        # The shared cache was hit: fewer texts than rows saved.
        assert len(texts) < sum(len(conditions) * cfg.samples_per_state * turbine.SENSORS
                                for cfg, conditions in runs)

    def test_row_cache_holds_each_rows_text_under_its_bytes(self, tmp_path):
        # Every cached text is the row's own decimals, and health.csv holds
        # exactly the cached text of each row after its state,sample,sensor prefix.
        cfg = SimConfig(samples_per_state=3, failed_sensors=frozenset({1}))
        ds = generate_dataset(FLEET, mixing_matrix(0.1), cfg, turbine.engine1_conditions())
        texts = {}
        path = save_dataset(ds, tmp_path / "d", texts)
        assert texts
        for raw, text in texts.items():
            assert text == ",".join(map(repr, np.frombuffer(raw, dtype=ds.healths.dtype).tolist()))
        rows = ds.healths.reshape(-1, ds.healths.shape[-1])
        lines = (path / "health.csv").read_text().splitlines()[1:]
        assert len(lines) == len(rows)
        assert [line.split(",", 3)[3] for line in lines] == [texts[row.tobytes()] for row in rows]

    def test_manifest_with_spectra_entry_loads(self, tmp_path):
        # Manifests written while generate could also write spectra files
        # record "spectra": null under files; their datasets still load.
        ds = generate_dataset(FLEET, mixing_matrix(0.1), CFG, turbine.engine1_conditions())
        path = save_dataset(ds, tmp_path / "d")
        manifest = json.loads((path / "manifest.json").read_text())
        assert set(manifest["files"]) == {"sha256"}
        manifest["files"]["spectra"] = None
        (path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        back = load_dataset(path, FLEET, mixing_matrix(0.1), CFG, turbine.engine1_conditions())
        assert np.array_equal(back.healths, ds.healths)


@settings(max_examples=40, deadline=None)
@given(samples=st.integers(1, 3), data=st.data())
def test_save_load_roundtrip_is_exact(samples, data):
    """Any finite float64 health, subnormals and -0.0 included, survives
    ``save_dataset`` -> ``load_dataset`` bit for bit, and so does every
    decimal ``save_dataset`` writes to ``health.csv``."""
    healths = data.draw(
        hnp.arrays(
            np.float64,
            (3, samples, 4, 28),
            elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        )
    )
    # The extremes every example carries: smallest subnormal, -0.0, largest
    # subnormal, largest finite.
    healths[0, 0, 0, :4] = [5e-324, -0.0, 2.225073858507201e-308, 1.7976931348623157e308]
    ds = turbine.Dataset(
        healths=healths,
        conditions=turbine.engine1_conditions(),
        cfg=SimConfig(samples_per_state=samples),
        mixing=mixing_matrix(0.1),
        fleet=FLEET,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = save_dataset(ds, Path(tmp) / "d")
        back = load_dataset(path, FLEET, ds.mixing, ds.cfg, ds.conditions)
        header, *rows = (path / "health.csv").read_text().splitlines()
    assert np.array_equal(back.healths.view(np.uint64), healths.view(np.uint64))
    assert header == "state,sample,sensor," + ",".join(f"m{i:02d}" for i in range(28))
    assert [row.rsplit(",", 28)[0] for row in rows] == [
        f"{name},{m},{j}" for name in ("normal", "fault", "failure")
        for m in range(samples) for j in range(4)
    ]
    parsed = np.array([[float(x) for x in row.split(",")[3:]] for row in rows])
    assert np.array_equal(parsed.view(np.uint64), healths.reshape(-1, 28).view(np.uint64))


class TestSnrScale:
    def test_sigma_decreases_with_snr(self):
        lo = resolve_sigma(replace(CFG, snr_db=-20.0), FLEET)
        hi = resolve_sigma(replace(CFG, snr_db=0.0), FLEET)
        assert lo == pytest.approx(10.0 * hi)

    def test_snr_none_is_noise_free(self):
        assert SimConfig().snr_db is None
        assert resolve_sigma(CFG, FLEET) == 0.0

    def test_snr_zero_puts_weakest_line_at_reference_margin(self):
        sigma = resolve_sigma(replace(CFG, snr_db=0.0), FLEET)
        line = min(min(m.line_amplitudes) for m in FLEET) * CFG.dft_size / 2
        margin = 20 * np.log10(line / (sigma * np.sqrt(CFG.dft_size / 2)))
        assert margin == pytest.approx(turbine.SNR_REFERENCE_MARGIN_DB, abs=1e-12)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        # NaN fails every comparison, so sigma > 0 would be false and the
        # run silently noise-free; -inf would give an infinite sigma.
        with pytest.raises(ValueError, match="snr_db"):
            SimConfig(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [7000.0, 6200.0, -7000.0])
    def test_snr_without_finite_positive_sigma_rejected(self, snr_db):
        # 10 ** (snr_db / 20) overflows, or underflows to 0 and sigma is inf.
        with pytest.raises(ValueError, match="noise level"):
            resolve_sigma(replace(CFG, snr_db=snr_db), FLEET)


class _ScriptedBitGenerator:
    """What ``np.random.Generator`` reads of a bit generator (``capsule`` and
    ``lock``), replaying the given 64-bit words and doubles; once they run out
    it gives 0 and 0.5, which end any ziggurat draw."""

    def __init__(self, words, doubles):
        words, doubles = list(words), list(doubles)
        u64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
        u32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
        dbl = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)

        class BitgenT(ctypes.Structure):  # numpy/random/bitgen.h
            _fields_ = [("state", ctypes.c_void_p), ("next_uint64", u64),
                        ("next_uint32", u32), ("next_double", dbl), ("next_raw", u64)]

        self._struct = BitgenT(None, u64(lambda _: words.pop(0) if words else 0),
                               u32(lambda _: 0), dbl(lambda _: doubles.pop(0) if doubles else 0.5),
                               u64(lambda _: 0))
        new_capsule = ctypes.pythonapi.PyCapsule_New
        new_capsule.restype = ctypes.py_object
        new_capsule.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]
        self.capsule = new_capsule(ctypes.addressof(self._struct), b"BitGenerator", None)
        self.lock = threading.Lock()


class TestHealthBound:
    def test_standard_normal_tail_stays_under_the_bound(self):
        # Layer 0 with every magnitude bit set takes the ziggurat's tail
        # branch; the tail then draws x from u1 and accepts it against the
        # largest double Philox gives, 1 - 2**-53.
        tail_word = (2**64 - 1) & ~0xFF
        draws = [
            abs(np.random.Generator(_ScriptedBitGenerator(
                [tail_word], [1.0 - 2.0**-k, 1.0 - 2.0**-53])).standard_normal())
            for k in range(1, 54)
        ]
        assert 12.0 < max(draws) < turbine.STANDARD_NORMAL_MAX

    @pytest.mark.parametrize("snr_db", [None, 18.0, -40.0])
    def test_bound_covers_generated_healths(self, snr_db):
        conditions = turbine.engine1_conditions(2, 1e3)
        cfg = replace(CFG, snr_db=snr_db, samples_per_state=16)
        healths = generate_dataset(FLEET, mixing_matrix(1.0), cfg, conditions).healths
        assert healths.max() <= turbine.health_bound(FLEET, cfg, conditions)

    def test_bound_is_inf_past_float64(self):
        conditions = turbine.engine1_conditions(1, 1e308)
        assert turbine.health_bound(FLEET, CFG, conditions) == np.inf


class TestScenarioBridge:
    def setup_method(self):
        self.states = [
            normal_fleet_state(),
            (FaultState.gear_fault(1, 3.0),) + normal_fleet_state()[1:],
        ]
        self.cfg = SimConfig(samples_per_state=1)

    def test_zero_noise_scenario_is_valid_and_separable(self):
        s = dataset_scenario(FLEET, mixing_matrix(0.1), self.cfg, self.states)
        assert validate_scenario(s) == []
        factor_readings(s, tol=1e-7)
        fac = separate(s, tol=1e-6)
        assert fac.images().shape == (4, 2, 28)

    def test_noisy_cfg_refused(self):
        with pytest.raises(ValueError, match="snr_db must be None"):
            dataset_scenario(FLEET, mixing_matrix(0.1), replace(self.cfg, snr_db=8.0), self.states)

    def test_volumes_vary_across_frequencies(self):
        # Different lines carry different loudness, so the coordinates' volume
        # factors are not parallel; each coordinate's images still factor.
        s = dataset_scenario(FLEET, mixing_matrix(0.1), self.cfg, self.states)
        sv = np.linalg.svd(separate(s, tol=1e-6).alpha, compute_uv=False)
        assert sv[1] > 1e-6 * sv[0]

    def test_selection_written_as_a_matrix_gives_the_same_reports(self):
        # The equal general_linear map has the same images, so the same
        # factors and the same reports, with no failure and with each one.
        cycle = [states for _, states in turbine.engine1_conditions()]
        s = dataset_scenario(FLEET, mixing_matrix(0.1), SimConfig(), cycle * 2)
        matrix = np.zeros((s.n, s.M), dtype=complex)
        matrix[:, s.health.cols] = s.health.weights
        dense_map = replace(s, health=HealthMap.linear(matrix))
        facs = [separate(sc, tol=1e-6) for sc in (s, dense_map)]
        assert np.array_equal(facs[0].gamma, facs[1].gamma)
        assert np.array_equal(facs[0].alpha, facs[1].alpha)
        owners = [build_index_sets(sc.health_images(), tol=1e-6) for sc in (s, dense_map)]
        assert np.array_equal(*owners)
        for failed in (None, *range(s.N)):
            reports = [(verify_basis_mapping(fac, own, 1e-6, failed=failed),
                        verify_frame_mapping(fac, own, 1e-6, failed=failed),
                        verify_projective_frame(fac, own, 1e-6, failed=failed),
                        verify_strong_dominance_frame(fac, 1e-6))
                       for fac, own in zip(facs, owners)]
            assert reports[0] == reports[1]

    def test_harmonious_with_positive_mixing(self):
        s = dataset_scenario(FLEET, mixing_matrix(0.1), self.cfg, self.states)
        fac = separate(s, tol=1e-6)
        owners = build_index_sets(s.health_images(), tol=1e-6)
        assert owners.tolist() == [j for j in range(4) for _ in range(7)]
        assert is_harmonious(fac, owners, tol=1e-6)

    def test_sensor_failure_maps_to_non_operational(self):
        cfg = SimConfig(samples_per_state=1, failed_sensors={0})
        s = dataset_scenario(FLEET, mixing_matrix(0.1), cfg, self.states)
        fac = separate(s, tol=1e-6)
        healthy = dataset_scenario(FLEET, mixing_matrix(0.1), self.cfg, self.states)
        owners = build_index_sets(healthy.health_images(), tol=1e-6)
        assert sensor_status(fac, owners, 0, tol=1e-6).status == "non_operational"
        assert sensor_status(fac, owners, 1, tol=1e-6).status == "operational"

    def test_engine_failure_keeps_sensors_operational(self):
        states = [
            (FaultState.failure(),) + normal_fleet_state()[1:],
            normal_fleet_state(),
        ]
        s = dataset_scenario(FLEET, mixing_matrix(0.1), self.cfg, states)
        fac = separate(s, tol=1e-6)
        owners = build_index_sets(s.health_images(), tol=1e-6)
        for j in range(4):
            assert sensor_status(fac, owners, j, tol=1e-6).status == "operational"
        # the dead engine's coordinates stop radiating at the failed time
        assert np.max(np.abs(fac.alpha[0, :7])) <= 1e-6
        assert np.min(np.abs(fac.alpha[1, :7])) > 1e-6
