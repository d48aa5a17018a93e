import json

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
    IndexAssignment,
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
    volume_factors_constant,
)


def three_sensor_projection_scenario():
    """Three sensors reporting 3 parameters once; health projects to C^2."""
    readings = np.array(
        [[[3, 1, 1]], [[1, 3, 4]], [[1, 1, 5]]], dtype=np.complex128
    )
    health = HealthMap.selection(2, [(0, 1.0), (1, 1.0)])
    return Scenario(
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
        assert validate_scenario(s).ok

    def test_two_sensor_split_is_valid(self):
        readings = np.ones((2, 1, 4), dtype=complex)
        s = Scenario(
            covering=({0, 1, 2, 3}, {0, 1, 2, 3}),
            partition=({0, 1}, {2, 3}),
            readings=readings,
            health=HealthMap.identity(4),
        )
        assert validate_scenario(s).ok

    def test_overlapping_partition_named(self):
        readings = np.ones((2, 1, 2), dtype=complex)
        s = Scenario(
            covering=({0, 1}, {0, 1}),
            partition=({0, 1}, {1}),
            readings=readings,
            health=HealthMap.identity(2),
        )
        report = validate_scenario(s)
        assert not report.ok
        assert any("overlap" in v for v in report.violations)

    def test_support_violation_named(self):
        readings = np.ones((2, 1, 2), dtype=complex)  # sensor 0 reports f=1
        s = Scenario(
            covering=({0}, {0, 1}),
            partition=({0}, {1}),
            readings=readings,
            health=HealthMap.identity(2),
        )
        report = validate_scenario(s)
        assert any("outside its covering" in v for v in report.violations)

    def test_partition_gap_named(self):
        readings = np.ones((2, 1, 3), dtype=complex)
        s = Scenario(
            covering=({0, 1, 2}, {0, 1, 2}),
            partition=({0}, {1}),
            readings=readings,
            health=HealthMap.identity(3),
        )
        report = validate_scenario(s)
        assert any("partition misses" in v for v in report.violations)


class TestFactorReadings:
    def test_single_sensor_single_time_always_factors(self):
        s = Scenario(
            covering=({0, 1},),
            partition=({0, 1},),
            readings=np.array([[[2.0, -3.0]]], dtype=complex),
            health=HealthMap.identity(2),
        )
        fac = factor_readings(s)
        products = fac.gamma_hat[:, None, :] * fac.alpha_hat[None, :, :]
        assert np.allclose(products, s.readings)

    def test_outer_product_roundtrip_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_separable_scenario(rng)
            fac = factor_readings(s)
            products = fac.gamma_hat[:, None, :] * fac.alpha_hat[None, :, :]
            scale = max(1.0, np.max(np.abs(s.readings)))
            assert np.max(np.abs(products - s.readings)) <= 1e-8 * scale

    def test_rank_two_parameter_rejected(self):
        readings = np.zeros((2, 2, 2), dtype=complex)
        readings[:, :, 0] = np.eye(2)  # rank 2 at f=0
        readings[:, :, 1] = 1.0
        s = Scenario(
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
        s = Scenario(
            covering=({0, 1},),
            partition=({0, 1},),
            readings=readings,
            health=HealthMap.identity(2),
        )
        fac = factor_readings(s)
        assert fac.gamma_hat[0, 1] == 0 and fac.alpha_hat[0, 1] == 0

    @pytest.mark.filterwarnings("error")
    def test_all_zero_readings_factor_to_zero(self):
        everything = (range(5),) * 3
        s = Scenario(everything, everything, np.zeros((3, 2, 5)), HealthMap.identity(5))
        fac = factor_readings(s)
        assert np.array_equal(fac.gamma_hat, np.zeros((3, 5)))
        assert np.array_equal(fac.alpha_hat, np.zeros((2, 5)))

    def test_gauge_makes_loudest_sensor_real_nonnegative(self):
        rng = np.random.default_rng(12)
        s = random_separable_scenario(rng, n=2, n_sensors=3, n_times=2, m=2)
        fac = factor_readings(s)
        for f in range(s.M):
            col = fac.gamma_hat[:, f]
            top = np.argmax(np.abs(col))
            assert col[top].imag == pytest.approx(0.0, abs=1e-12)
            assert col[top].real >= 0


class TestVolumeCondition:
    def test_constant_volumes(self):
        fac = Factorization(
            gamma_hat=np.ones((2, 3)), alpha_hat=np.ones((2, 3))
        )
        assert volume_factors_constant(fac)

    def test_varying_volumes(self):
        fac = Factorization(
            gamma_hat=np.ones((1, 3)), alpha_hat=np.array([[1.0, 2.0, 3.0]])
        )
        assert not volume_factors_constant(fac)


class TestSeparate:
    def test_identity_selection_copies_factors(self):
        rng = np.random.default_rng(4)
        s = random_separable_scenario(rng, n=3, m=3)
        fac = separate(s, factor_readings(s))
        assert np.allclose(fac.gamma, fac.gamma_hat)
        assert np.allclose(fac.alpha, fac.alpha_hat)

    def test_three_sensor_projection_products(self):
        s = three_sensor_projection_scenario()
        fac = separate(s, factor_readings(s))
        products = fac.gamma[:, None, :] * fac.alpha[None, :, :]
        expected = np.array([[[3, 1]], [[1, 3]], [[1, 1]]], dtype=complex)
        assert np.allclose(products, expected)

    def test_scaled_selection_row_moves_into_gamma(self):
        rng = np.random.default_rng(8)
        gamma_hat = rng.standard_normal((2, 3))
        alpha_hat = rng.standard_normal((2, 3))
        plain = HealthMap.selection(2, [(0, 1.0), (1, 1.0)])
        scaled = HealthMap.selection(2, [(0, 1.0), (1, 2.5)])
        s1 = Scenario.from_factors(gamma_hat, alpha_hat, plain)
        s2 = Scenario.from_factors(gamma_hat, alpha_hat, scaled)
        f1 = separate(s1, factor_readings(s1))
        f2 = separate(s2, factor_readings(s2))
        assert np.allclose(f2.gamma[:, 1], 2.5 * f1.gamma[:, 1])
        assert np.allclose(f2.alpha, f1.alpha)

    def test_general_linear_with_constant_volumes(self):
        rng = np.random.default_rng(15)
        gamma_hat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        alpha_hat = np.repeat(
            (rng.standard_normal(2) + 1j * rng.standard_normal(2))[:, None], 4, axis=1
        )
        health = HealthMap.linear(rng.standard_normal((2, 4)))
        s = Scenario.from_factors(gamma_hat, alpha_hat, health)
        fac = separate(s, factor_readings(s))
        assert np.allclose(fac.images(), s.health_images(), atol=1e-9)

    def test_general_linear_with_varying_volumes_rejected(self):
        # Volume columns (1,1) and (2,3) are not parallel, so no split with
        # parameter-independent volumes exists.
        gamma_hat = np.ones((2, 2))
        alpha_hat = np.array([[1.0, 2.0], [1.0, 3.0]])
        health = HealthMap.linear(np.ones((1, 2)))
        s = Scenario.from_factors(gamma_hat, alpha_hat, health)
        with pytest.raises(NotSeparableError):
            separate(s, factor_readings(s))

    def test_opaque_health_map_rejected(self):
        # Only selection and general linear maps exist, and separate() has a
        # route for each; any other kind is refused when the map is built.
        with pytest.raises(ValueError, match="unknown health map kind"):
            HealthMap(n=2, kind="opaque")

    def test_product_identity_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_separable_scenario(rng)
            fac = separate(s, factor_readings(s))
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
        fac = Factorization.from_health_factors(gamma, np.ones((1, 5)))
        assign = build_index_sets(fac.images())
        assert assign.J == (
            frozenset({0, 1, 2}),
            frozenset({1, 2, 3}),
            frozenset({1, 3, 4}),
        )
        assert assign.I == ((0, 2), (), (1, 3, 4))

    def test_single_sensor_owns_everything(self):
        fac = Factorization.from_health_factors(np.ones((1, 4)), np.ones((2, 4)))
        assign = build_index_sets(fac.images())
        assert assign.I == ((0, 1, 2, 3),)

    def test_disjoint_hearing_forces_assignment(self):
        gamma = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 4)))
        assign = build_index_sets(fac.images())
        assert assign.I == ((0, 1), (2, 3))
        assert assign.I == tuple(tuple(sorted(j)) for j in assign.J)

    def test_silent_coordinate_reported(self):
        gamma = np.array([[1, 0], [1, 0]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        with pytest.raises(UncoverableIndexError) as err:
            build_index_sets(fac.images())
        assert err.value.indices == (1,)

    def test_ties_break_to_smallest_sensor(self):
        gamma = np.array([[2, 2], [2, 2]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        assign = build_index_sets(fac.images())
        assert assign.I == ((0, 1), ())

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValueError):
            IndexAssignment(J=({0, 1},), I=((0, 0),))
        with pytest.raises(ValueError):
            IndexAssignment(J=({0},), I=((0, 2),))


class TestPredicates:
    def test_radiative_all_ones(self):
        fac = Factorization.from_health_factors(np.ones((2, 3)), np.ones((2, 3)))
        assert is_i_radiative(fac).tolist() == [True] * 3

    def test_transmitter_off_not_radiative(self):
        alpha = np.array([[1, 0], [1, 0]], dtype=complex)
        fac = Factorization.from_health_factors(np.ones((2, 2)), alpha)
        assert is_i_radiative(fac).tolist() == [True, False]

    def test_dominant_and_not(self):
        gamma = np.array([[1, 0], [2, 0]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        assert is_i_dominant(fac).tolist() == [True, False]

    def test_strong_dominance_three_sensors(self):
        gamma = np.array([[3, 1], [1, 3], [1, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        assert is_strongly_i_dominant(fac).tolist() == [True, True]

    def test_tie_is_not_strong(self):
        gamma = np.array([[1, 1], [1, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        assert is_i_dominant(fac)[0]
        assert not is_strongly_i_dominant(fac)[0]

    def test_strong_implies_dominant_randomized(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            gamma = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            fac = Factorization.from_health_factors(gamma, np.ones((1, 4)))
            assert np.all(is_i_dominant(fac)[is_strongly_i_dominant(fac)])

    def test_everyone_hears_everything_is_harmonious(self):
        gamma = np.abs(np.random.default_rng(2).standard_normal((3, 4))) + 0.1
        fac = Factorization.from_health_factors(gamma.astype(complex), np.ones((1, 4)))
        assign = build_index_sets(fac.images())
        assert is_harmonious(fac, assign)

    def test_isolated_sensor_is_disjoint(self):
        # Third sensor is the only one hearing coordinate 2.
        gamma = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 3)))
        assign = build_index_sets(fac.images())
        assert is_j_harmonious(fac, assign, 0)
        assert is_j_harmonious(fac, assign, 1)
        assert not is_j_harmonious(fac, assign, 2)
        assert not is_harmonious(fac, assign)

    def test_single_sensor_is_disjoint(self):
        fac = Factorization.from_health_factors(np.ones((1, 2)), np.ones((1, 2)))
        assign = build_index_sets(fac.images())
        assert not is_j_harmonious(fac, assign, 0)

    def test_empty_owned_set_vacuously_harmonious(self):
        gamma = np.array([[2, 2], [1, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        assign = build_index_sets(fac.images())
        assert assign.I[1] == ()
        assert is_j_harmonious(fac, assign, 1)


class TestSensorStatus:
    def setup_method(self):
        gamma = np.array([[2, 1, 0.5], [1, 2, 0]], dtype=complex)
        self.fac = Factorization.from_health_factors(gamma, np.ones((1, 3)))
        self.assign = build_index_sets(self.fac.images())

    def test_operational(self):
        assert sensor_status(self.fac, self.assign, 0).status == "operational"

    def test_fully_zeroed(self):
        gamma = self.fac.gamma.copy()
        gamma[0] = 0
        dead = Factorization.from_health_factors(gamma, self.fac.alpha)
        status = sensor_status(dead, self.assign, 0)
        assert status.status == "non_operational"
        assert [i for _, i in status.failed] == list(self.assign.I[0])

    def test_partial_zeroing_lists_single_position(self):
        gamma = self.fac.gamma.copy()
        gamma[0, 2] = 0
        hurt = Factorization.from_health_factors(gamma, self.fac.alpha)
        status = sensor_status(hurt, self.assign, 0)
        assert status.status == "non_operational"
        assert len(status.failed) == 1 and status.failed[0][1] == 2

    def test_empty_owned_set_is_undefined(self):
        gamma = np.array([[2, 2], [1, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        assign = build_index_sets(fac.images())
        assert sensor_status(fac, assign, 1).status == "undefined"


class TestScenarioJson:
    def test_roundtrip_selection(self):
        s = three_sensor_projection_scenario()
        back = scenario_from_json_dict(scenario_to_json_dict(s))
        assert np.allclose(back.readings, s.readings)
        assert back.covering == s.covering
        assert back.partition == s.partition
        assert back.health.rows == s.health.rows

    def test_roundtrip_linear(self):
        rng = np.random.default_rng(3)
        health = HealthMap.linear(rng.standard_normal((2, 3)) + 1j)
        s = Scenario.from_factors(np.ones((2, 3)), np.ones((1, 3)), health)
        doc = scenario_to_json_dict(s)
        back = scenario_from_json_dict(doc)
        assert np.allclose(back.health.matrix, health.matrix)
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
        s = Scenario(([0, 1, 2],) * 2, ([0, 1], [2]), readings, HealthMap.identity(3))
        doc = scenario_to_json_dict(s)
        assert doc["readings"] == {
            "shape": [2, 2, 3],
            "nonzero": [[1, 1, 2, 0.5], [1, 2, 1, 4.0], [2, 1, 3, {"re": 2.0, "im": -1.0}]],
        }
        back = scenario_from_json_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(back.readings, readings)

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
    scale = max(1.0, float(np.max(np.abs(readings))))
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
    s = Scenario(everything, everything, readings, HealthMap.identity(1))
    gamma_hat, alpha_hat, offending = factor_reference(readings)
    if offending:
        with pytest.raises(NotPreSeparableError) as err:
            factor_readings(s)
        assert list(err.value.offending) == offending
    else:
        fac = factor_readings(s)
        assert np.array_equal(fac.gamma_hat, gamma_hat)
        assert np.array_equal(fac.alpha_hat, alpha_hat)


def predicates_reference(gamma, alpha, tol):
    """The per-coordinate rules: radiative, dominant, strongly dominant."""
    n_sensors, n = gamma.shape
    rad = [bool(np.any(np.abs(alpha[:, i]) > tol)) for i in range(n)]
    dom = [bool(np.any(np.abs(gamma[:, i]) > tol)) for i in range(n)]
    strong = []
    for i in range(n):
        mags = np.abs(gamma[:, i])
        strong.append(any(
            mags[j] > tol and np.all(mags[j] > (n_sensors - 1) * np.delete(mags, j))
            for j in range(n_sensors)
        ))
    return rad, dom, strong


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
    s = Scenario(s.covering, s.partition, readings, health)
    back = scenario_from_json_dict(json.loads(json.dumps(scenario_to_json_dict(s))))
    assert np.array_equal(back.readings, s.readings)
    assert (back.covering, back.partition) == (s.covering, s.partition)
    assert back.health.kind == kind
    if kind == "selection_matrix":
        assert back.health.rows == s.health.rows
    else:
        assert np.array_equal(back.health.matrix, s.health.matrix)


ENTRIES = st.sampled_from([0, 0.5, 1, 1, 2, 3, -2, 1j, 1e-12])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tol=st.sampled_from([DEFAULT_TOL, 0.5]))
def test_array_predicates_match_per_coordinate_rules(data, tol):
    n_sensors = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    gamma = data.draw(hnp.arrays(complex, (n_sensors, n), elements=ENTRIES))
    alpha = data.draw(hnp.arrays(complex, (data.draw(st.integers(1, 3)), n), elements=ENTRIES))
    fac = Factorization.from_health_factors(gamma, alpha)
    rad, dom, strong = predicates_reference(gamma, alpha, tol)
    assert is_i_radiative(fac, tol).tolist() == rad
    assert is_i_dominant(fac, tol).tolist() == dom
    assert is_strongly_i_dominant(fac, tol).tolist() == strong
