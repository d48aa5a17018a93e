import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framesense.frames import DEFAULT_TOL
from framesense.scenario import (
    MAX_READINGS,
    Factorization,
    HealthMap,
    NotPreSeparableError,
    NotSeparableError,
    Scenario,
    UncoverableIndexError,
    build_index_sets,
    factor_readings,
    is_harmonious,
    is_i_dominant,
    is_i_radiative,
    is_j_harmonious,
    is_strongly_i_dominant,
    scenario_from_json_dict,
    scenario_to_json_dict,
    sensor_status,
    separate,
    validate_scenario,
)


def dense(s):
    """``s``'s readings as one (N, K, M) array, 0 at every silent parameter."""
    out = np.zeros((s.N, s.K, s.M), dtype=complex)
    out[:, :, s.params] = s.values
    return out


def health_matrix(health, m):
    """``health`` as its n-by-M matrix, 0 in every column it does not read."""
    out = np.zeros((health.n, m), dtype=complex)
    out[:, health.cols] = health.weights
    return out


def dense_factors(s, raw):
    """The raw factors ``raw`` of ``s``, over ``s.params``, as (N, M) and (K, M)
    arrays, 0 at every silent parameter."""
    gamma_hat = np.zeros((s.N, s.M), dtype=complex)
    alpha_hat = np.zeros((s.K, s.M), dtype=complex)
    gamma_hat[:, s.params], alpha_hat[:, s.params] = raw
    return gamma_hat, alpha_hat


def three_sensor_projection_scenario():
    """Three sensors reporting 3 parameters once; health projects to C^2."""
    readings = np.array(
        [[[3, 1, 1]], [[1, 3, 4]], [[1, 1, 5]]], dtype=np.complex128
    )
    health = HealthMap.selection(2, [(0, 1.0), (1, 1.0)])
    return Scenario.from_dense(
        covering=({0, 1, 2},) * 3,
        partition=({0}, {1}, {2}),
        readings=readings,
        health=health,
    )


def random_separable_scenario(rng, n=None, n_sensors=None, n_times=None, m=None):
    n = n or int(rng.integers(1, 7))
    n_sensors = n_sensors or int(rng.integers(1, 7))
    n_times = n_times or int(rng.integers(1, 5))
    m = m or n + int(rng.integers(0, 4))
    gamma_hat = rng.standard_normal((n_sensors, m)) + 1j * rng.standard_normal(
        (n_sensors, m)
    )
    alpha_hat = rng.standard_normal((n_times, m)) + 1j * rng.standard_normal(
        (n_times, m)
    )
    health = HealthMap.selection(n, [(f, 1.0) for f in range(n)])
    return Scenario.from_factors(gamma_hat, alpha_hat, health)


class TestValidate:
    def test_valid_scenario(self):
        s = three_sensor_projection_scenario()
        assert validate_scenario(s) == []

    def test_two_sensor_split_is_valid(self):
        readings = np.ones((2, 1, 4), dtype=complex)
        s = Scenario.from_dense(
            covering=({0, 1, 2, 3}, {0, 1, 2, 3}),
            partition=({0, 1}, {2, 3}),
            readings=readings,
            health=HealthMap.identity(4),
        )
        assert validate_scenario(s) == []

    def test_overlapping_partition_named(self):
        readings = np.ones((2, 1, 2), dtype=complex)
        s = Scenario.from_dense(
            covering=({0, 1}, {0, 1}),
            partition=({0, 1}, {1}),
            readings=readings,
            health=HealthMap.identity(2),
        )
        violations = validate_scenario(s)
        assert any("overlap" in v for v in violations)

    def test_support_violation_named(self):
        readings = np.ones((2, 1, 2), dtype=complex)  # sensor 0 reports f=1
        s = Scenario.from_dense(
            covering=({0}, {0, 1}),
            partition=({0}, {1}),
            readings=readings,
            health=HealthMap.identity(2),
        )
        assert any("outside its covering" in v for v in validate_scenario(s))

    def test_partition_gap_named(self):
        readings = np.ones((2, 1, 3), dtype=complex)
        s = Scenario.from_dense(
            covering=({0, 1, 2}, {0, 1, 2}),
            partition=({0}, {1}),
            readings=readings,
            health=HealthMap.identity(3),
        )
        assert any("partition misses" in v for v in validate_scenario(s))

    def test_overlaps_are_found_without_a_pass_over_every_sensor_pair(self):
        # 5,000 sensors hearing one parameter that only the first is responsible
        # for: no parameter is claimed twice, so no pair needs a comparison.
        n_sensors = 5000
        partition = np.zeros((n_sensors, 1), dtype=bool)
        partition[0] = True
        readings = np.ones((n_sensors, 1, 1), dtype=complex)
        s = Scenario.from_dense(np.ones((n_sensors, 1), dtype=bool), partition, readings,
                                HealthMap.identity(1))
        start = time.perf_counter()
        assert validate_scenario(s) == []
        assert time.perf_counter() - start < 2
        partition = partition.copy()
        partition[[3, 7, 4999]] = True  # claimed four times: six pairs, in (j, l) order
        pairs = [(0, 3), (0, 7), (0, 4999), (3, 7), (3, 4999), (7, 4999)]
        assert validate_scenario(dataclasses.replace(s, partition=partition)) == [
            f"partition sets S_{j} and S_{l} overlap at [0]" for j, l in pairs]


class TestFactorReadings:
    def test_single_sensor_single_time_always_factors(self):
        s = Scenario.from_dense(
            covering=({0, 1},),
            partition=({0, 1},),
            readings=np.array([[[2.0, -3.0]]], dtype=complex),
            health=HealthMap.identity(2),
        )
        gamma_hat, alpha_hat = factor_readings(s)
        products = gamma_hat[:, None, :] * alpha_hat[None, :, :]
        assert np.allclose(products, dense(s))

    def test_outer_product_roundtrip_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_separable_scenario(rng)
            gamma_hat, alpha_hat = factor_readings(s)
            products = gamma_hat[:, None, :] * alpha_hat[None, :, :]
            scale = max(1.0, np.max(np.abs(dense(s))))
            assert np.max(np.abs(products - dense(s))) <= 1e-8 * scale

    def test_rank_two_parameter_rejected(self):
        readings = np.zeros((2, 2, 2), dtype=complex)
        readings[:, :, 0] = np.eye(2)  # rank 2 at f=0
        readings[:, :, 1] = 1.0
        s = Scenario.from_dense(
            covering=({0, 1}, {0, 1}),
            partition=({0}, {1}),
            readings=readings,
            health=HealthMap.identity(2),
        )
        with pytest.raises(NotPreSeparableError) as err:
            factor_readings(s)
        assert err.value.offending == (0,)

    def test_silent_parameter_gets_zero_factors(self):
        readings = np.zeros((1, 1, 2), dtype=complex)
        readings[0, 0, 0] = 5.0
        s = Scenario.from_dense(
            covering=({0, 1},),
            partition=({0, 1},),
            readings=readings,
            health=HealthMap.identity(2),
        )
        gamma_hat, alpha_hat = factor_readings(s)
        assert s.params.tolist() == [0]  # parameter 1 has no column: both factors are 0
        assert gamma_hat.shape == (1, 1) and alpha_hat.shape == (1, 1)

    @pytest.mark.filterwarnings("error")
    def test_all_zero_readings_factor_to_zero(self):
        everything = (range(5),) * 3
        s = Scenario.from_dense(everything, everything, np.zeros((3, 2, 5)), HealthMap.identity(5))
        raw = factor_readings(s)
        assert raw[0].shape == (3, 0) and raw[1].shape == (2, 0)
        gamma_hat, alpha_hat = dense_factors(s, raw)
        assert np.array_equal(gamma_hat, np.zeros((3, 5)))
        assert np.array_equal(alpha_hat, np.zeros((2, 5)))

    def test_gauge_makes_loudest_sensor_real_nonnegative(self):
        rng = np.random.default_rng(12)
        s = random_separable_scenario(rng, n=2, n_sensors=3, n_times=2, m=2)
        gamma_hat, _ = factor_readings(s)
        for col in gamma_hat.T:
            top = np.argmax(np.abs(col))
            assert col[top].imag == pytest.approx(0.0, abs=1e-12)
            assert col[top].real >= 0


class TestFactorization:
    def test_factor_shapes_must_match(self):
        for gamma, alpha in ((np.ones((1, 3)), np.ones((2, 2))),
                             (np.ones(3), np.ones((2, 3))),
                             (np.ones((1, 3)), np.ones((2, 3, 1)))):
            with pytest.raises(ValueError, match=r"expected \(N, n\) and \(K, n\)"):
                Factorization(gamma, alpha)


class TestSeparate:
    def test_identity_selection_copies_factors(self):
        rng = np.random.default_rng(4)
        s = random_separable_scenario(rng, n=3, m=3)
        gamma_hat, alpha_hat = factor_readings(s)
        fac = separate(s)
        assert np.allclose(fac.gamma, gamma_hat)
        assert np.allclose(fac.alpha, alpha_hat)

    def test_three_sensor_projection_products(self):
        s = three_sensor_projection_scenario()
        fac = separate(s)
        products = fac.gamma[:, None, :] * fac.alpha[None, :, :]
        expected = np.array([[[3, 1]], [[1, 3]], [[1, 1]]], dtype=complex)
        assert np.allclose(products, expected)

    @pytest.mark.parametrize("tol", [1.0, 2.0])
    def test_tol_of_one_or_more_refused(self, tol):
        # At tol >= 1 the deviation check is vacuous: it would accept factors
        # that miss the images entirely.
        s = three_sensor_projection_scenario()
        with pytest.raises(ValueError, match="tol must satisfy 0 < tol < 1"):
            separate(s, tol)

    def test_scaled_selection_row_splits_between_factors(self):
        # The balanced gauge gives each factor the root of the row's scale.
        rng = np.random.default_rng(8)
        gamma_hat = rng.standard_normal((2, 3))
        alpha_hat = rng.standard_normal((2, 3))
        plain = HealthMap.selection(2, [(0, 1.0), (1, 1.0)])
        scaled = HealthMap.selection(2, [(0, 1.0), (1, 2.5)])
        s1 = Scenario.from_factors(gamma_hat, alpha_hat, plain)
        s2 = Scenario.from_factors(gamma_hat, alpha_hat, scaled)
        f1, f2 = separate(s1), separate(s2)
        assert np.allclose(f2.images()[:, :, 1], 2.5 * f1.images()[:, :, 1])
        assert np.allclose(f2.images()[:, :, 0], f1.images()[:, :, 0])
        assert np.allclose(np.abs(f2.gamma[:, 1]), np.sqrt(2.5) * np.abs(f1.gamma[:, 1]))
        assert np.allclose(np.abs(f2.alpha[:, 1]), np.sqrt(2.5) * np.abs(f1.alpha[:, 1]))

    def test_block_reads_silent_parameters_as_zero(self):
        # Rows 5 (between live parameters) and 9 (past the last) read 0.
        health = HealthMap.selection(4, [(1, 2.0), (5, 1.0), (6, 3.0), (9, 1.0)])
        v = np.array([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0j]])
        params = np.array([1, 4, 6])
        block = health.block(params)
        assert np.array_equal(block, health_matrix(health, 10)[:, params])
        assert np.array_equal(v @ block.T, [[20, 0, 90, 0], [2, 0, 9j, 0]])

    def test_block_with_no_live_parameters_reads_zeros(self):
        health = HealthMap.selection(2, [(0, 1.0), (3, 2.0)])
        out = np.zeros((3, 0)) @ health.block(np.array([], dtype=np.int64)).T
        assert out.shape == (3, 2) and out.dtype == np.complex128
        assert not out.any()

    def test_general_linear_with_constant_volumes(self):
        rng = np.random.default_rng(15)
        gamma_hat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        alpha_hat = np.repeat(
            (rng.standard_normal(2) + 1j * rng.standard_normal(2))[:, None], 4, axis=1
        )
        health = HealthMap.linear(rng.standard_normal((2, 4)))
        s = Scenario.from_factors(gamma_hat, alpha_hat, health)
        fac = separate(s)
        assert np.allclose(fac.images(), s.health_images(), atol=1e-9)

    def test_general_linear_with_varying_volumes_separates(self):
        # Volume columns (1,1) and (2,3) are not parallel, but both sensors
        # see the image [3, 4] over the two times: rank 1, so it factors.
        gamma_hat = np.ones((2, 2))
        alpha_hat = np.array([[1.0, 2.0], [1.0, 3.0]])
        health = HealthMap.linear(np.ones((1, 2)))
        s = Scenario.from_factors(gamma_hat, alpha_hat, health)
        fac = separate(s)
        gamma, alpha = fac.gamma[:, 0], fac.alpha[:, 0]
        assert np.allclose(gamma / gamma[0], [1, 1])
        assert np.allclose(3 * alpha / alpha[0], [3, 4])
        assert np.allclose(fac.images(), [[[3], [4]], [[3], [4]]])

    def test_opaque_health_map_rejected(self):
        # Only selection and general linear maps exist; any other kind is
        # refused when the map is built.
        with pytest.raises(ValueError, match="unknown health map kind"):
            HealthMap("opaque", np.arange(2), np.eye(2))

    def test_product_identity_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_separable_scenario(rng)
            fac = separate(s)
            images = s.health_images()
            scale = max(1.0, np.max(np.abs(images)))
            assert np.max(np.abs(images - fac.images())) <= 1e-8 * scale


class TestIndexSets:
    def test_greedy_matches_loudness(self):
        # J_0={0,1,2}, J_1={1,2,3}, J_2={1,3,4}: loudness steers the split.
        gamma = np.array(
            [
                [5, 1, 4, 0, 0],
                [0, 2, 1, 3, 0],
                [0, 6, 0, 5, 7],
            ],
            dtype=complex,
        )
        fac = Factorization(gamma, np.ones((1, 5)))
        audible, _ = index_sets_reference(fac.images())
        assert audible == ({0, 1, 2}, {1, 2, 3}, {1, 3, 4})
        assert build_index_sets(fac.images()).tolist() == [0, 2, 0, 2, 2]

    def test_single_sensor_owns_everything(self):
        fac = Factorization(np.ones((1, 4)), np.ones((2, 4)))
        assert build_index_sets(fac.images()).tolist() == [0, 0, 0, 0]

    def test_disjoint_hearing_forces_assignment(self):
        gamma = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 4)))
        owners = build_index_sets(fac.images())
        assert owners.tolist() == [0, 0, 1, 1]
        audible, _ = index_sets_reference(fac.images())
        assert audible == tuple(set(np.flatnonzero(owners == j).tolist()) for j in range(2))

    def test_silent_coordinate_reported(self):
        gamma = np.array([[1, 0], [1, 0]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        with pytest.raises(UncoverableIndexError) as err:
            build_index_sets(fac.images())
        assert err.value.indices == (1,)

    def test_ties_break_to_smallest_sensor(self):
        gamma = np.array([[2, 2], [2, 2]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        assert build_index_sets(fac.images()).tolist() == [0, 0]


class TestPredicates:
    def test_radiative_all_ones(self):
        fac = Factorization(np.ones((2, 3)), np.ones((2, 3)))
        assert is_i_radiative(fac).tolist() == [True] * 3

    def test_transmitter_off_not_radiative(self):
        alpha = np.array([[1, 0], [1, 0]], dtype=complex)
        fac = Factorization(np.ones((2, 2)), alpha)
        assert is_i_radiative(fac).tolist() == [True, False]

    def test_dominant_and_not(self):
        gamma = np.array([[1, 0], [2, 0]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        assert is_i_dominant(fac).tolist() == [True, False]

    def test_strong_dominance_three_sensors(self):
        gamma = np.array([[3, 1], [1, 3], [1, 1]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        assert is_strongly_i_dominant(fac).tolist() == [True, True]

    def test_tie_is_not_strong(self):
        gamma = np.array([[1, 1], [1, 1]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        assert is_i_dominant(fac)[0]
        assert not is_strongly_i_dominant(fac)[0]

    def test_strong_implies_dominant_randomized(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            gamma = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            fac = Factorization(gamma, np.ones((1, 4)))
            assert np.all(is_i_dominant(fac)[is_strongly_i_dominant(fac)])

    def test_everyone_hears_everything_is_harmonious(self):
        gamma = np.abs(np.random.default_rng(2).standard_normal((3, 4))) + 0.1
        fac = Factorization(gamma.astype(complex), np.ones((1, 4)))
        assert is_harmonious(fac, build_index_sets(fac.images()))

    def test_isolated_sensor_is_disjoint(self):
        # Third sensor is the only one hearing coordinate 2.
        gamma = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 3)))
        owners = build_index_sets(fac.images())
        assert is_j_harmonious(fac, owners, 0)
        assert is_j_harmonious(fac, owners, 1)
        assert not is_j_harmonious(fac, owners, 2)
        assert not is_harmonious(fac, owners)

    def test_single_sensor_is_disjoint(self):
        fac = Factorization(np.ones((1, 2)), np.ones((1, 2)))
        assert not is_j_harmonious(fac, build_index_sets(fac.images()), 0)

    def test_empty_owned_set_vacuously_harmonious(self):
        gamma = np.array([[2, 2], [1, 1]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        owners = build_index_sets(fac.images())
        assert not np.any(owners == 1)
        assert is_j_harmonious(fac, owners, 1)

    def test_owners_as_a_list_select_like_an_array(self):
        gamma = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 3)))
        owners = [0, 1, 2]
        assert [is_j_harmonious(fac, owners, j) for j in range(3)] == [True, True, False]
        assert sensor_status(fac, owners, 2).status == "operational"


class TestSensorStatus:
    def setup_method(self):
        gamma = np.array([[2, 1, 0.5], [1, 2, 0]], dtype=complex)
        self.fac = Factorization(gamma, np.ones((1, 3)))
        self.owners = build_index_sets(self.fac.images())

    def test_operational(self):
        assert sensor_status(self.fac, self.owners, 0).status == "operational"

    def test_fully_zeroed(self):
        gamma = self.fac.gamma.copy()
        gamma[0] = 0
        dead = Factorization(gamma, self.fac.alpha)
        status = sensor_status(dead, self.owners, 0)
        assert status.status == "non_operational"
        assert status.failed == ((0, 0), (1, 2))  # sensor 0 owns coordinates 0 and 2

    def test_partial_zeroing_lists_single_position(self):
        gamma = self.fac.gamma.copy()
        gamma[0, 2] = 0
        hurt = Factorization(gamma, self.fac.alpha)
        status = sensor_status(hurt, self.owners, 0)
        assert status.status == "non_operational"
        assert len(status.failed) == 1 and status.failed[0][1] == 2

    def test_empty_owned_set_is_undefined(self):
        gamma = np.array([[2, 2], [1, 1]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        assert sensor_status(fac, build_index_sets(fac.images()), 1).status == "undefined"


class TestLiveParameters:
    def test_from_dense_keeps_columns_with_a_nonzero_reading(self):
        readings = np.zeros((2, 2, 5), dtype=complex)
        readings[1, 0, 3] = 2 - 1j
        readings[0, 1, 1] = 4
        readings[1, 1, 4] = -0.0  # a zero of either sign is silent
        s = Scenario.from_dense((range(5),) * 2, (range(5),) * 2, readings, HealthMap.identity(5))
        assert (s.N, s.K, s.M) == (2, 2, 5)
        assert s.params.dtype == np.int64 and s.params.tolist() == [1, 3]
        assert np.array_equal(dense(s), readings)

    def test_from_factors_keeps_columns_where_both_factors_are_nonzero(self):
        gamma_hat = np.array([[1.0, 0.0, 2.0, 3.0]])
        alpha_hat = np.array([[1.0, 5.0, 0.0, 2.0]])
        s = Scenario.from_factors(gamma_hat, alpha_hat, HealthMap.identity(4))
        assert s.params.tolist() == [0, 3] and s.M == 4
        assert np.array_equal(dense(s), (gamma_hat * alpha_hat)[:, None, :])

    def test_params_must_be_increasing_and_in_range(self):
        values = np.ones((1, 1, 2))
        for params in ([1, 1], [2, 1], [-1, 0], [0, 3]):
            with pytest.raises(ValueError, match="increasing indices in 0..2"):
                Scenario(([0],), ([0],), params, values, 3, HealthMap.identity(1))

    def test_health_map_that_does_not_fit_m_is_refused(self):
        ev = (range(3),)
        with pytest.raises(ValueError, match="health row 1 selects parameter 5, outside 0..2"):
            Scenario.from_dense(ev, ev, np.ones((1, 2, 3)),
                                HealthMap.selection(2, [(0, 1.0), (5, 1.0)]))
        with pytest.raises(ValueError, match="health matrix has width 4, expected M = 3"):
            Scenario.from_dense(ev, ev, np.ones((1, 2, 3)), HealthMap.linear(np.ones((2, 4))))
        with pytest.raises(ValueError, match="health matrix must be 2-D"):
            HealthMap.linear(np.ones(3))
        with pytest.raises(ValueError, match="health row 1 selects parameter -1, outside 0..2"):
            Scenario.from_dense(ev, ev, np.ones((1, 2, 3)),
                                HealthMap.selection(2, [(0, 1.0), (-1, 1.0)]))

    def test_index_sets_outside_0_to_m_minus_1_are_refused(self):
        everything = [range(3)] * 2
        with pytest.raises(ValueError, match=r"covering set 0 holds parameters \[7\], outside 0..2"):
            Scenario.from_dense([{0, 1, 2, 7}, {0, 1, 2}], [{0, 1}, {2, 9}], np.ones((2, 1, 3)),
                                HealthMap.identity(3))
        with pytest.raises(ValueError, match=r"partition set 1 holds parameters \[-1, 9\], outside"):
            Scenario.from_dense(everything, [{0, 1}, {2, 9, -1}], np.ones((2, 1, 3)),
                                HealthMap.identity(3))
        with pytest.raises(ValueError, match=r"covering mask has shape \(2, 4\), expected \(N, 3\)"):
            Scenario.from_dense(np.ones((2, 4), dtype=bool), everything, np.ones((2, 1, 3)),
                                HealthMap.identity(3))
        with pytest.raises(ValueError, match="one covering and one partition set per sensor"):
            Scenario.from_dense(np.ones((1, 3), dtype=bool), everything, np.ones((2, 1, 3)),
                                HealthMap.identity(3))

    def test_index_sets_are_held_as_masks(self):
        s = Scenario.from_dense([{2, 0}, range(3)], [[0, 0], (1, 2)], np.ones((2, 1, 3)),
                                HealthMap.identity(3))
        assert s.covering.dtype == bool and s.covering.tolist() == [[True, False, True]] + [[True] * 3]
        assert s.partition.tolist() == [[True, False, False], [False, True, True]]
        default = Scenario.from_factors(np.ones((2, 5)), np.ones((1, 5)), HealthMap.identity(1))
        assert np.array_equal(default.covering, np.ones((2, 5), dtype=bool))
        assert [np.flatnonzero(t).tolist() for t in default.partition] == [[0, 2, 4], [1, 3]]

    @pytest.mark.parametrize("seed,rows", [
        *((seed, None) for seed in range(6)),
        (6, [(1, 2.0), (0, 1j), (1, -0.5)]),  # rows 0 and 2 read one parameter
        (7, [(0, 1.0), (2, 3.0 - 1j)]),  # row 1 reads a silent parameter
    ])
    def test_health_images_match_the_map_applied_to_dense_readings(self, seed, rows):
        rng = np.random.default_rng(seed)
        n_sensors, n_times, m = (int(x) for x in rng.integers(1, 6, size=3))
        m = m if rows is None else 3
        readings = rng.standard_normal((n_sensors, n_times, m)) + 1j * rng.standard_normal(
            (n_sensors, n_times, m))
        silent = rng.random(m) < 0.5 if rows is None else np.arange(m) == 2
        readings[:, :, silent] = 0  # silent parameters, selected ones among them
        everything = (range(m),) * n_sensors
        if rows is None:
            rows = [(int(f), complex(rng.standard_normal(), 1.0)) for f in rng.integers(0, m, 4)]
        matrix = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        docs = {}
        for health in (HealthMap.selection(len(rows), rows), HealthMap.linear(matrix)):
            s = Scenario.from_dense(everything, everything, readings, health)
            dense_map = health_matrix(health, m)
            assert np.array_equal(health.block(s.params), dense_map[:, s.params])
            assert np.allclose(s.health_images(), readings @ dense_map.T, rtol=1e-12, atol=1e-12)
            docs[health.kind] = json.loads(json.dumps(scenario_to_json_dict(s)))
            back = scenario_from_json_dict(docs[health.kind]).health
            assert back.kind == health.kind
            assert np.array_equal(health_matrix(back, m), dense_map)
        written = docs["selection_matrix"]["health"]["rows"]
        assert [r[:2] for r in written] == [[i + 1, f + 1] for i, (f, _) in enumerate(rows)]


class TestScenarioJson:
    def test_roundtrip_selection(self):
        s = three_sensor_projection_scenario()
        back = scenario_from_json_dict(scenario_to_json_dict(s))
        assert np.allclose(dense(back), dense(s))
        assert np.array_equal(back.covering, s.covering)
        assert np.array_equal(back.partition, s.partition)
        assert np.array_equal(health_matrix(back.health, 3), health_matrix(s.health, 3))

    def test_roundtrip_linear(self):
        rng = np.random.default_rng(3)
        health = HealthMap.linear(rng.standard_normal((2, 3)) + 1j)
        s = Scenario.from_factors(np.ones((2, 3)), np.ones((1, 3)), health)
        doc = scenario_to_json_dict(s)
        back = scenario_from_json_dict(doc)
        assert np.allclose(health_matrix(back.health, 3), health_matrix(health, 3))
        # a linear map takes n from its matrix, so a document may leave it out
        del doc["health"]["n"]
        assert scenario_from_json_dict(doc).health.n == 2

    def test_shape_mismatch_rejected(self):
        doc = scenario_to_json_dict(three_sensor_projection_scenario())
        doc["M"] = 7
        with pytest.raises(ValueError):
            scenario_from_json_dict(doc)

    def test_readings_written_sparse_in_row_major_order(self):
        readings = np.zeros((2, 2, 3), dtype=np.complex128)
        readings[1, 0, 2] = 2 - 1j
        readings[0, 1, 0] = 4
        readings[0, 0, 1] = 0.5
        readings[1, 1, 1] = -0.0  # a zero of either sign is left out
        s = Scenario.from_dense(([0, 1, 2],) * 2, ([0, 1], [2]), readings, HealthMap.identity(3))
        doc = scenario_to_json_dict(s)
        assert doc["readings"] == {
            "shape": [2, 2, 3],
            "nonzero": [[1, 1, 2, 0.5], [1, 2, 1, 4.0], [2, 1, 3, {"re": 2.0, "im": -1.0}]],
        }
        back = scenario_from_json_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(dense(back), readings)

    @pytest.mark.parametrize("readings", [[], {"shape": [1, 1, MAX_READINGS], "nonzero": 5}],
                             ids=["dense", "sparse"])
    def test_readings_cap_is_inclusive(self, readings):
        # N*K*M = MAX_READINGS passes the cap: the refusal is of the body, not the size.
        doc = {"N": 1, "K": 1, "M": MAX_READINGS, "readings": readings}
        with pytest.raises(ValueError, match="'readings' has a bad value") as err:
            scenario_from_json_dict(doc)
        assert "more than" not in str(err.value)
        doc["M"] += 1
        with pytest.raises(ValueError, match=f"N\\*K\\*M = {MAX_READINGS + 1} entries, more than"):
            scenario_from_json_dict(doc)


def factor_reference(readings, tol=DEFAULT_TOL):
    """The per-parameter rule: one SVD per parameter, the loudest sensor's factor real."""
    n_sensors, n_times, m = readings.shape
    scale = np.max(np.abs(readings))
    gamma_hat = np.zeros((n_sensors, m), dtype=complex)
    alpha_hat = np.zeros((n_times, m), dtype=complex)
    offending = []
    for f in range(m):
        u, sv, vh = np.linalg.svd(readings[:, :, f])
        if sv[0] <= tol * scale:
            continue
        if sv.shape[0] > 1 and sv[1] > tol * sv[0]:
            offending.append(f)
            continue
        top = int(np.argmax(np.abs(u[:, 0])))
        phase = np.conj(u[top, 0]) / np.abs(u[top, 0])
        root = np.sqrt(sv[0])
        gamma_hat[:, f] = root * u[:, 0] * phase
        alpha_hat[:, f] = root * vh[0, :] * np.conj(phase)
    return gamma_hat, alpha_hat, offending


@settings(max_examples=150, deadline=None)
@given(
    n_sensors=st.integers(1, 5),
    n_times=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(["rank1", "silent", "quiet", "rank2"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_readings_matches_per_parameter_svd(n_sensors, n_times, kinds, seed):
    rng = np.random.default_rng(seed)

    def outer():
        g = rng.standard_normal(n_sensors) + 1j * rng.standard_normal(n_sensors)
        a = rng.standard_normal(n_times) + 1j * rng.standard_normal(n_times)
        return np.outer(g, a)

    readings = np.zeros((n_sensors, n_times, len(kinds)), dtype=complex)
    for f, kind in enumerate(kinds):
        if kind == "rank1":
            readings[:, :, f] = outer()
        elif kind == "quiet":  # below the silence threshold, whatever its rank
            readings[:, :, f] = 1e-12 * (outer() + outer())
        elif kind == "rank2":  # rank 1 only when N = 1 or K = 1
            readings[:, :, f] = outer() + outer()
    everything = (range(len(kinds)),) * n_sensors
    s = Scenario.from_dense(everything, everything, readings, HealthMap.identity(1))
    gamma_hat, alpha_hat, offending = factor_reference(readings)
    if offending:
        with pytest.raises(NotPreSeparableError) as err:
            factor_readings(s)
        assert list(err.value.offending) == offending
    else:
        raw = factor_readings(s)
        assert s.params.tolist() == np.flatnonzero(np.any(readings != 0, axis=(0, 1))).tolist()
        assert all(map(np.array_equal, dense_factors(s, raw), (gamma_hat, alpha_hat)))


@settings(max_examples=150, deadline=None)
@given(
    n_sensors=st.integers(1, 4),
    n_times=st.integers(1, 4),
    m=st.integers(1, 5),
    n=st.integers(1, 4),
    dense_map=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_separate_matches_per_coordinate_svd(n_sensors, n_times, m, n, dense_map, seed):
    # Whatever the map's kind, separate factors each coordinate's images by
    # the per-parameter rule of factor_readings.
    rng = np.random.default_rng(seed)
    gamma_hat = rng.standard_normal((n_sensors, m)) + 1j * rng.standard_normal((n_sensors, m))
    alpha_hat = rng.standard_normal((n_times, m)) + 1j * rng.standard_normal((n_times, m))
    gamma_hat[:, rng.random(m) < 0.3] = 0.0
    if dense_map:  # sparse rows: a row reading one parameter is rank 1, two usually not
        health = HealthMap.linear(rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.4))
    else:
        health = HealthMap.selection(n, [(int(f), rng.uniform(0.5, 2)) for f in rng.integers(0, m, n)])
    s = Scenario.from_factors(gamma_hat, alpha_hat, health)
    gamma, alpha, offending = factor_reference(s.health_images())
    if offending:
        with pytest.raises(NotSeparableError) as err:
            separate(s)
        assert list(err.value.offending) == offending
    else:
        fac = separate(s)
        assert np.array_equal(fac.gamma, gamma) and np.array_equal(fac.alpha, alpha)


def validate_reference(covering, partition, readings, tol=DEFAULT_TOL):
    """The structural invariants checked set by set: ``covering`` and
    ``partition`` are lists of 0-based index sets, ``readings`` is (N, K, M).
    A reading outside the covering counts above tol times the loudest reading."""
    n_sensors, _, m = readings.shape
    violations = []
    all_params = set(range(m))
    covered = set().union(*covering)
    if covered != all_params:
        violations.append(f"covering misses parameters {sorted(all_params - covered)}")
    for j in range(n_sensors):
        for l in range(j + 1, n_sensors):
            overlap = partition[j] & partition[l]
            if overlap:
                violations.append(f"partition sets S_{j} and S_{l} overlap at {sorted(overlap)}")
    partitioned = set().union(*partition)
    if partitioned != all_params:
        violations.append(f"partition misses parameters {sorted(all_params - partitioned)}")
    for j in range(n_sensors):
        stray = partition[j] - covering[j]
        if stray:
            violations.append(f"S_{j} is not contained in T_{j} (extra {sorted(stray)})")
    for j in range(n_sensors):
        outside = [f for f in range(m) if f not in covering[j]]
        loud = np.abs(readings[j][:, outside]) > tol * np.max(np.abs(readings))
        if np.any(loud):
            ks, ls = np.nonzero(loud)
            violations.append(f"sensor {j} reports parameter {outside[ls[0]]} outside its "
                              f"covering (first at time {ks[0]})")
    return violations


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_scenario_matches_set_rules(seed):
    """Gaps, overlaps, partition entries outside the covering, readings outside
    the covering, duplicate and unsorted indices: masks report what sets do."""
    rng = np.random.default_rng(seed)
    n_sensors, n_times, m = (int(x) for x in rng.integers(1, 5, size=3))

    def index_lists():
        """One shuffled list per sensor with one index repeated: every
        parameter, or m random draws, which may leave gaps."""
        lists = []
        for _ in range(n_sensors):
            picks = np.arange(1, m + 1) if rng.random() < 0.5 else rng.integers(1, m + 1, m)
            lists.append(rng.permutation(np.append(picks, rng.choice(picks))).tolist())
        return lists

    covering = index_lists()
    if rng.random() < 0.5:  # round robin, as from_factors makes it
        partition = [list(range(j + 1, m + 1, n_sensors)) for j in range(n_sensors)]
    else:
        partition = index_lists()
    readings = rng.choice(np.array([0, 0, 0, 1, -2j, 1e-12]), size=(n_sensors, n_times, m))
    everything = [range(m)] * n_sensors
    doc = scenario_to_json_dict(Scenario.from_dense(everything, everything, readings,
                                                    HealthMap.identity(1)))
    doc.update(covering=covering, partition=partition)
    s = scenario_from_json_dict(doc)
    sets = [[{f - 1 for f in t} for t in lists] for lists in (covering, partition)]
    for t, mask in zip(sets, (s.covering, s.partition)):
        assert [set(np.flatnonzero(row).tolist()) for row in mask] == t
    assert validate_scenario(s) == validate_reference(*sets, readings)
    back = scenario_from_json_dict(scenario_to_json_dict(s))
    assert np.array_equal(back.covering, s.covering)
    assert np.array_equal(back.partition, s.partition)


def index_sets_reference(images, tol=DEFAULT_TOL):
    """Ownership set by set: J_j holds the coordinates sensor j hears above
    tol times the loudest image at some time, and I_j those whose loudest
    sensor is j (the smallest j on ties).  Raises UncoverableIndexError for
    the coordinates in no J_j."""
    peak = np.max(np.abs(images), axis=1)  # (N, n)
    n_sensors, n = peak.shape
    floor = tol * np.max(np.abs(images))
    audible = tuple({i for i in range(n) if peak[j, i] > floor} for j in range(n_sensors))
    silent = sorted(set(range(n)) - set().union(*audible))
    if silent:
        raise UncoverableIndexError(silent)
    owned = tuple(set() for _ in range(n_sensors))
    for i in range(n):
        loudest = max(peak[:, i])
        owned[min(j for j in range(n_sensors) if peak[j, i] == loudest)].add(i)
    return audible, owned


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([DEFAULT_TOL, 1e-6]))
def test_owners_match_set_ownership(seed, tol):
    """owners == j is I_j, its owner hears each coordinate (I_j within J_j), and
    silent coordinates are reported as the sets report them."""
    rng = np.random.default_rng(seed)
    n_sensors, n_times, n = (int(x) for x in rng.integers(1, 6, size=3))
    # Few distinct moduli make ties common; some sit at, just above or below
    # tol, the floor when the loudest image is 1.
    moduli = np.array([0.0, tol / 2, tol, tol * (1 + 1e-9), 2 * tol, 0.5, 1.0, 3.0])
    phases = np.array([1, -1, 1j, -1j])  # exact, so equal moduli stay equal
    images = moduli[rng.integers(0, moduli.size, (n_sensors, n_times, n))] \
        * phases[rng.integers(0, 4, (n_sensors, n_times, n))]
    images[:, :, rng.random(n) < 0.2] *= tol  # whole coordinates near silence
    try:
        audible, owned = index_sets_reference(images, tol)
    except UncoverableIndexError as err:
        with pytest.raises(UncoverableIndexError) as ours:
            build_index_sets(images, tol)
        assert ours.value.indices == err.indices
        return
    owners = build_index_sets(images, tol)
    assert owners.shape == (n,)
    assert tuple(set(np.flatnonzero(owners == j).tolist()) for j in range(n_sensors)) == owned
    assert all(i in audible[j] for i, j in enumerate(owners.tolist()))


def predicates_reference(gamma, alpha, tol):
    """The per-coordinate rules: radiative, dominant, strongly dominant.  An
    image gamma_j(i) * alpha_k(i) is audible above tol times the loudest one."""
    n_sensors, n = gamma.shape
    images = np.abs(gamma[:, None, :] * alpha[None, :, :])  # (N, K, n)
    floor = tol * np.max(np.abs(gamma)[:, None, :] * np.abs(alpha)[None, :, :])
    audible = [[bool(np.any(images[j, :, i] > floor)) for i in range(n)] for j in range(n_sensors)]
    rad = [any(audible[j][i] for j in range(n_sensors)) for i in range(n)]
    strong = []
    for i in range(n):
        mags = np.abs(gamma[:, i])
        strong.append(any(
            audible[j][i] and np.all(mags[j] > (n_sensors - 1) * np.delete(mags, j))
            for j in range(n_sensors)
        ))
    return rad, rad, strong


# Small exact values make ties, zeros and entries at the threshold common.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# A real entry is written as a plain number, any other as an {re, im} object.
JSON_ENTRIES = st.one_of(FINITE.map(complex), st.builds(complex, FINITE, FINITE))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["selection_matrix", "general_linear"]))
def test_scenario_json_text_roundtrip(data, kind):
    """scenario_to_json_dict -> JSON text -> scenario_from_json_dict keeps every entry."""
    n_sensors, n_times, m, n = (data.draw(st.integers(1, 3)) for _ in range(4))
    readings = data.draw(
        hnp.arrays(np.complex128, (n_sensors, n_times, m), elements=JSON_ENTRIES)
    )
    if kind == "selection_matrix":
        scale = JSON_ENTRIES.filter(bool)
        health = HealthMap.selection(
            n, [(data.draw(st.integers(0, m - 1)), data.draw(scale)) for _ in range(n)]
        )
    else:
        health = HealthMap.linear(
            data.draw(hnp.arrays(np.complex128, (n, m), elements=JSON_ENTRIES))
        )
    s = Scenario.from_factors(np.ones((n_sensors, m)), np.ones((n_times, m)), health)
    s = Scenario.from_dense(s.covering, s.partition, readings, health)
    back = scenario_from_json_dict(json.loads(json.dumps(scenario_to_json_dict(s))))
    assert np.array_equal(dense(back), dense(s))
    assert np.array_equal(back.covering, s.covering)
    assert np.array_equal(back.partition, s.partition)
    assert back.health.kind == kind
    assert np.array_equal(health_matrix(back.health, m), health_matrix(s.health, m))


ENTRIES = st.sampled_from([0, 0.5, 1, 1, 2, 3, -2, 1j, 1e-12])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tol=st.sampled_from([DEFAULT_TOL, 0.5]))
def test_array_predicates_match_per_coordinate_rules(data, tol):
    n_sensors = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    gamma = data.draw(hnp.arrays(complex, (n_sensors, n), elements=ENTRIES))
    alpha = data.draw(hnp.arrays(complex, (data.draw(st.integers(1, 3)), n), elements=ENTRIES))
    fac = Factorization(gamma, alpha)
    rad, dom, strong = predicates_reference(gamma, alpha, tol)
    assert is_i_radiative(fac, tol).tolist() == rad
    assert is_i_dominant(fac, tol).tolist() == dom
    assert is_strongly_i_dominant(fac, tol).tolist() == strong
