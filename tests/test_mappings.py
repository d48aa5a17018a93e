import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesense.frames import DEFAULT_TOL, VectorSet, span_certificate
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
    build_index_sets,
    factor_readings,
    separate,
)
from tests.test_scenario import three_sensor_projection_scenario

# Fixed worked example used throughout: two sensors, identity health map on
# C^2, sensor 0 owns coordinate 0 and sensor 1 owns coordinate 1.
TWO_SENSOR_ASSIGN = IndexAssignment(J=({0, 1}, {0, 1}), I=((0,), (1,)))
IDENTITY2 = HealthMap.identity(2)
STACK = np.array([[10, 2], [-1, 7]], dtype=complex)


def separated_fixture():
    s = three_sensor_projection_scenario()
    fac = separate(s, factor_readings(s))
    assign = build_index_sets(s.health_images())
    return s, fac, assign


class TestMaps:
    def test_basis_map_selects_owned_coordinates(self):
        out = basis_map(STACK, IDENTITY2, TWO_SENSOR_ASSIGN)
        assert np.array_equal(out, [10, 7])

    def test_frame_map_sums_magnitudes(self):
        out = frame_map(STACK, IDENTITY2)
        assert np.array_equal(out, [11, 9])
        assert out.dtype == np.complex128

    def test_maps_disagree_on_the_same_stack(self):
        b = basis_map(STACK, IDENTITY2, TWO_SENSOR_ASSIGN)
        f = frame_map(STACK, IDENTITY2)
        assert not np.allclose(b, f)

    def test_zero_stack_maps_to_zero(self):
        zero = np.zeros((2, 2), dtype=complex)
        assert np.allclose(basis_map(zero, IDENTITY2, TWO_SENSOR_ASSIGN), 0)
        assert np.allclose(frame_map(zero, IDENTITY2), 0)

    def test_single_owner_copies_whole_image(self):
        assign = IndexAssignment(J=({0, 1},), I=((0, 1),))
        out = basis_map(np.array([[4, 5j]]), IDENTITY2, assign)
        assert np.allclose(out, [4, 5j])

    def test_per_sensor_basis_images(self):
        # One live sensor at a time: its image masked to the coordinates it owns.
        only = np.zeros((2, 2, 2), dtype=complex)
        only[0, 0], only[1, 1] = STACK[0], STACK[1]
        out = basis_map(only, IDENTITY2, TWO_SENSOR_ASSIGN)
        assert np.array_equal(out, [[10, 0], [0, 7]])

    def test_basis_image_of_failed_sensor_is_zero(self):
        failed = STACK.copy()
        failed[0] = 0
        assert np.array_equal(basis_map(failed, IDENTITY2, TWO_SENSOR_ASSIGN), [0, 7])

    def test_empty_owned_set_gives_zero_image(self):
        # Sensor 1 owns nothing, so its block never reaches the output.
        assign = IndexAssignment(J=({0, 1}, {0, 1}), I=((0, 1), ()))
        other = STACK.copy()
        other[1] = [123, -4j]
        assert np.array_equal(basis_map(STACK, IDENTITY2, assign), [10, 2])
        assert np.array_equal(basis_map(other, IDENTITY2, assign), [10, 2])

    def test_magnitude_image_single_block(self):
        assert np.array_equal(frame_map(STACK[1:], IDENTITY2), [1, 7])

    def test_stacked_blocks_map_like_each_stack(self):
        rng = np.random.default_rng(8)
        stacks = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
        stacks[0, 1, 0] = 0  # a failed sensor in one stack
        b = basis_map(stacks, IDENTITY2, TWO_SENSOR_ASSIGN)
        f = frame_map(stacks, IDENTITY2)
        assert b.shape == f.shape == (3, 5, 2)
        for idx in np.ndindex(3, 5):
            assert np.array_equal(b[idx], [stacks[idx][0, 0], stacks[idx][1, 1]])
            assert np.array_equal(f[idx], np.abs(stacks[idx]).sum(axis=0))

    def test_frame_dominates_selected_magnitudes(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            stack = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            health = HealthMap.identity(4)
            assign = IndexAssignment(
                J=({0, 1, 2, 3},) * 3, I=((0, 1), (2,), (3,))
            )
            b = np.abs(basis_map(stack, health, assign))
            f = frame_map(stack, health).real
            assert np.all(f >= b - 1e-12)

    def test_zeroing_a_block(self):
        # Zeroing sensor 1's block leaves frame-map coordinates it never
        # contributed to unchanged and zeroes its owned basis coordinates.
        stack2 = STACK.copy()
        stack2[1] = 0
        f1 = frame_map(STACK, IDENTITY2).real
        f2 = frame_map(stack2, IDENTITY2).real
        assert np.all(f2 <= f1 + 1e-12)
        b2 = basis_map(stack2, IDENTITY2, TWO_SENSOR_ASSIGN)
        assert b2[1] == 0

    def test_assignment_dimension_mismatch(self):
        with pytest.raises(ValueError):
            basis_map(STACK, HealthMap.identity(3), TWO_SENSOR_ASSIGN)


class TestProjectionSets:
    """The single-coordinate image sets, seen through the verifiers' diagnostics."""

    def test_radiative_set_cardinality(self):
        # All N = 3 sensors' images of each coordinate at its one time: the
        # frame operator is diagonal with entries 3^2 + 1^2 + 1^2 = 11.
        _, fac, assign = separated_fixture()
        diag = verify_frame_mapping(fac, assign).diagnostics
        assert diag["smallest_singular_value"] == pytest.approx(np.sqrt(11))
        assert diag["largest_singular_value"] == pytest.approx(np.sqrt(11))
        basis = diag["per_coordinate_basis"]
        assert [b["label"] for b in basis] == [[0, 0], [1, 1]]

    def test_radiative_set_values_are_single_coordinate(self):
        _, fac, assign = separated_fixture()
        diag = verify_basis_mapping(fac, assign).diagnostics
        assert diag["nonzero_directions"] == [0, 1]
        assert diag["missing_coordinates"] == []

    def test_peak_time_selection(self):
        # Coordinate 0 peaks at time 1 (|alpha| = 2), coordinate 1 at time 0 (3).
        gamma = np.ones((2, 2), dtype=complex)
        alpha = np.array([[1, 3], [2, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, alpha)
        report = verify_frame_mapping(fac, TWO_SENSOR_ASSIGN)
        basis = report.diagnostics["per_coordinate_basis"]
        assert [b["magnitude"] for b in basis] == [2.0, 3.0]
        assert report.diagnostics["largest_singular_value"] == pytest.approx(
            np.sqrt(2) * 3
        )

    def test_silent_coordinate_rejected(self):
        fac = Factorization.from_health_factors(
            np.ones((2, 2)), np.array([[1, 0], [2, 0]])
        )
        report = verify_frame_mapping(fac, TWO_SENSOR_ASSIGN)
        assert report.hypotheses[0].per_coordinate == (True, False)
        assert report.conclusion is None
        assert report.diagnostics == {"note": "hypotheses unmet"}

    def test_full_set_cardinality(self):
        _, fac, assign = separated_fixture()
        two_times = Factorization.from_health_factors(
            fac.gamma, np.vstack([fac.alpha, 2 * fac.alpha])
        )
        for f, times in ((fac, 1), (two_times, 2)):
            report = verify_projective_frame(f, failed=0, assign=assign)
            assert report.diagnostics["cardinality"] == 2 * 3 * times  # n * N * K

    def test_basis_selection_keeps_owner_vectors(self):
        # n basis directions, one per owner; every other selected image is zero.
        _, fac, assign = separated_fixture()
        diag = verify_basis_mapping(fac, assign).diagnostics
        assert diag["distinct_nonzero"] == 2
        assert diag["smallest_singular_value"] == pytest.approx(3.0)

    def test_magnitude_map_values(self):
        _, fac, assign = separated_fixture()
        basis = verify_frame_mapping(fac, assign).diagnostics["per_coordinate_basis"]
        loudest = np.max(np.abs(fac.gamma * fac.alpha[0]), axis=0)
        assert [b["magnitude"] for b in basis] == pytest.approx(loudest)
        assert all(b["magnitude"] >= 0 for b in basis)

    def test_magnitude_of_silenced_sensor_vector_is_zero(self):
        # Sensor 0 is silent at coordinate 0, so its image there is zero and
        # sensor 1 supplies that coordinate's basis vector.
        gamma = np.array([[0, 1], [1, 1]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        report = verify_frame_mapping(fac, TWO_SENSOR_ASSIGN, failed=1)
        assert report.diagnostics["missing_coordinates"] == [0]
        healthy = verify_frame_mapping(fac, TWO_SENSOR_ASSIGN)
        labels = [b["label"] for b in healthy.diagnostics["per_coordinate_basis"]]
        assert labels == [[0, 1], [1, 0]]


class TestVerifiers:
    def test_basis_mapping_on_fixture(self):
        _, fac, assign = separated_fixture()
        report = verify_basis_mapping(fac, assign)
        assert report.applicable and report.conclusion
        assert report.diagnostics["distinct_nonzero"] == 2

    def test_basis_mapping_degrades_under_failure(self):
        _, fac, assign = separated_fixture()
        report = verify_basis_mapping(fac, assign, failed=0)
        assert report.applicable and report.conclusion
        assert 0 in report.diagnostics["missing_coordinates"]

    def test_frame_mapping_on_fixture(self):
        _, fac, assign = separated_fixture()
        report = verify_frame_mapping(fac, assign)
        assert report.applicable and report.conclusion

    def test_frame_mapping_survives_failure_when_harmonious(self):
        _, fac, assign = separated_fixture()
        report = verify_frame_mapping(fac, assign, failed=0)
        assert report.applicable and report.conclusion

    def test_frame_mapping_disjoint_failure_loses_exactly_owned_coords(self):
        gamma = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 3)))
        assign = build_index_sets(fac.images())
        report = verify_frame_mapping(fac, assign, failed=2)
        assert not report.applicable  # harmony fails at the isolated sensor
        assert report.conclusion is None
        assert not report.diagnostics["spans"]
        assert report.diagnostics["missing_coordinates"] == list(assign.I[2])

    def test_projective_frame_on_fixture(self):
        _, fac, assign = separated_fixture()
        report = verify_projective_frame(fac)
        assert report.applicable and report.conclusion
        assert report.diagnostics["cardinality"] == 6

    def test_projective_frame_with_failure(self):
        _, fac, assign = separated_fixture()
        report = verify_projective_frame(fac, failed=0, assign=assign)
        assert report.applicable and report.conclusion

    def test_projective_failure_needs_assignment(self):
        _, fac, _ = separated_fixture()
        with pytest.raises(ValueError):
            verify_projective_frame(fac, failed=0)

    def test_strong_dominance_on_fixture(self):
        _, fac, _ = separated_fixture()
        report = verify_strong_dominance_frame(fac)
        assert report.applicable and report.conclusion
        mags = np.abs(
            fac.gamma[:, None, :] * fac.alpha[None, :, :]
        ).reshape(-1, 2)
        assert np.allclose(sorted(map(tuple, mags)), [(1, 1), (1, 3), (3, 1)])

    def test_strong_dominance_margins_on_fixture(self):
        _, fac, _ = separated_fixture()
        report = verify_strong_dominance_frame(fac)
        for margin in report.diagnostics["dominance_margins"]:
            assert margin["loudest"] > margin["runner_up_bound"]
            assert margin["loudest"] / margin["runner_up_bound"] == pytest.approx(1.5)

    def test_strong_dominance_rejects_ties(self):
        gamma = np.array([[1, 2], [1, 0.5]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, np.ones((1, 2)))
        report = verify_strong_dominance_frame(fac)
        assert not report.applicable
        assert report.conclusion is None

    def test_strong_dominance_needs_enough_sensors(self):
        gamma = np.array([[3, 1, 1], [1, 3, 1]], dtype=complex)  # n=3 > N=2
        fac = Factorization.from_health_factors(gamma, np.ones((1, 3)))
        report = verify_strong_dominance_frame(fac)
        assert not report.applicable
        assert report.conclusion is None
        assert "spans" in report.diagnostics  # diagnostics still reported

    def test_conservative_when_not_radiative(self):
        gamma = np.ones((2, 2), dtype=complex)
        alpha = np.array([[1, 0]], dtype=complex)
        fac = Factorization.from_health_factors(gamma, alpha)
        assign = IndexAssignment(J=({0, 1}, {0, 1}), I=((0,), (1,)))
        for report in (
            verify_basis_mapping(fac, assign),
            verify_frame_mapping(fac, assign),
            verify_projective_frame(fac),
        ):
            assert not report.applicable
            assert report.conclusion is None

    def test_reports_serialize_to_json(self):
        _, fac, assign = separated_fixture()
        for report in (
            verify_basis_mapping(fac, assign),
            verify_frame_mapping(fac, assign, failed=1),
            verify_projective_frame(fac),
            verify_strong_dominance_frame(fac),
        ):
            doc = report.to_json_dict()
            assert json.loads(json.dumps(doc)) == doc


def single_coordinate_rows(values):
    """The rows ``e_i * values[i, ...]``, coordinate-major, as one dense matrix."""
    n = values.shape[0]
    per = values.reshape(n, -1)
    rows = np.zeros((n, per.shape[1], n), dtype=np.complex128)
    rows[np.arange(n), :, np.arange(n)] = per
    return rows.reshape(-1, n)


@settings(max_examples=150, deadline=None)
@given(
    n_sensors=st.integers(1, 4),
    times=st.integers(1, 4),
    n=st.integers(1, 8),  # so N * K falls both below and above n
    zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_closed_form_span_diagnostics_match_dense_svd(n_sensors, times, n, zero_frac, seed,
                                                      data):
    # The basis, frame and projective sets are single-coordinate rows; their
    # closed-form diagnostics must match a full SVD of those rows.
    rng = np.random.default_rng(seed)
    tol = DEFAULT_TOL

    def factor(count):
        # Moduli in [0.5, 2] or exactly 0, far from tol either way. One entry
        # per coordinate stays nonzero, so the radiative and dominant
        # hypotheses hold and every verifier reports its diagnostics.
        f = rng.uniform(0.5, 2.0, (count, n)) * np.exp(2j * np.pi * rng.random((count, n)))
        zero = rng.random((count, n)) < zero_frac
        zero[rng.integers(0, count, n), np.arange(n)] = False
        f[zero] = 0.0
        return f

    gamma, alpha = factor(n_sensors), factor(times)
    failed = data.draw(st.sampled_from([None, *range(n_sensors)]))
    fac = Factorization.from_health_factors(gamma, alpha)
    assign = build_index_sets(fac.images(), tol)
    images = gamma.T[:, :, None] * alpha.T[:, None, :]  # (n, N, K)
    if failed is not None:
        images[:, failed] = 0.0
    peak = images[np.arange(n), :, np.argmax(np.abs(alpha), axis=0)]  # (n, N)
    owned = assign.owners()[:, None] == np.arange(n_sensors)
    cases = (
        (verify_basis_mapping(fac, assign, tol, failed), np.where(owned, peak, 0.0)),
        (verify_frame_mapping(fac, assign, tol, failed), np.abs(peak)),
        (verify_projective_frame(fac, tol, failed, assign), images),
    )
    for report, values in cases:
        diag = report.diagnostics
        rows = single_coordinate_rows(values)
        ref = span_certificate(VectorSet(rows), tol)
        assert diag["spans"] == ref.spans
        heard = np.any(np.abs(rows) > tol, axis=0)
        assert diag["missing_coordinates"] == np.flatnonzero(~heard).tolist()
        for key in ("smallest_singular_value", "largest_singular_value"):
            assert diag[key] == pytest.approx(getattr(ref, key), rel=1e-12, abs=1e-12)
        if not diag["spans"]:
            witness = diag["witness"]
            assert np.linalg.norm(witness) == pytest.approx(1.0)
            assert np.all(np.abs(rows @ witness.conj()) <= tol)
