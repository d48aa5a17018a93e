import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesense.frames import DEFAULT_TOL, VectorSet, basis_map, frame_map, span_certificate
from framesense.mappings import (
    verify_basis_mapping,
    verify_frame_mapping,
    verify_projective_frame,
    verify_strong_dominance_frame,
)
from framesense.scenario import (
    Factorization,
    build_index_sets,
    is_harmonious,
    is_j_harmonious,
    scenario_from_json_dict,
    sensor_status,
    separate,
)
from tests.test_scenario import three_sensor_projection_scenario

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))

# Fixed worked example used throughout: two sensors whose images under the
# identity health map on C^2 are their rows of STACK, sensor 0 owning
# coordinate 0 and sensor 1 coordinate 1.
TWO_SENSOR_OWNERS = np.array([0, 1])
STACK = np.array([[10, 2], [-1, 7]], dtype=complex)


def separated_fixture():
    s = three_sensor_projection_scenario()
    fac = separate(s)
    return s, fac, build_index_sets(s.health_images())


class TestMaps:
    def test_basis_map_selects_owned_coordinates(self):
        out = basis_map(STACK, TWO_SENSOR_OWNERS)
        assert np.array_equal(out, [10, 7])

    def test_frame_map_sums_magnitudes(self):
        out = frame_map(STACK)
        assert np.array_equal(out, [11, 9])
        assert out.dtype == np.float64

    def test_maps_disagree_on_the_same_stack(self):
        b = basis_map(STACK, TWO_SENSOR_OWNERS)
        f = frame_map(STACK)
        assert not np.allclose(b, f)

    def test_zero_stack_maps_to_zero(self):
        zero = np.zeros((2, 2), dtype=complex)
        assert np.allclose(basis_map(zero, TWO_SENSOR_OWNERS), 0)
        assert np.allclose(frame_map(zero), 0)

    def test_single_owner_copies_whole_image(self):
        out = basis_map(np.array([[4, 5j]]), [0, 0])
        assert np.allclose(out, [4, 5j])

    def test_per_sensor_basis_images(self):
        # One live sensor at a time: its image masked to the coordinates it owns.
        only = np.zeros((2, 2, 2), dtype=complex)
        only[0, 0], only[1, 1] = STACK[0], STACK[1]
        out = basis_map(only, TWO_SENSOR_OWNERS)
        assert np.array_equal(out, [[10, 0], [0, 7]])

    def test_basis_image_of_failed_sensor_is_zero(self):
        failed = STACK.copy()
        failed[0] = 0
        assert np.array_equal(basis_map(failed, TWO_SENSOR_OWNERS), [0, 7])

    def test_empty_owned_set_gives_zero_image(self):
        # Sensor 1 owns nothing, so its block never reaches the output.
        other = STACK.copy()
        other[1] = [123, -4j]
        assert np.array_equal(basis_map(STACK, [0, 0]), [10, 2])
        assert np.array_equal(basis_map(other, [0, 0]), [10, 2])

    def test_magnitude_image_single_block(self):
        assert np.array_equal(frame_map(STACK[1:]), [1, 7])

    def test_stacked_blocks_map_like_each_stack(self):
        rng = np.random.default_rng(8)
        stacks = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
        stacks[0, 1, 0] = 0  # a failed sensor in one stack
        b = basis_map(stacks, TWO_SENSOR_OWNERS)
        f = frame_map(stacks)
        assert b.shape == f.shape == (3, 5, 2)
        for idx in np.ndindex(3, 5):
            assert np.array_equal(b[idx], [stacks[idx][0, 0], stacks[idx][1, 1]])
            assert np.array_equal(f[idx], np.abs(stacks[idx]).sum(axis=0))

    def test_frame_dominates_selected_magnitudes(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            stack = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            b = np.abs(basis_map(stack, [0, 0, 1, 2]))
            f = frame_map(stack)
            assert np.all(f >= b - 1e-12)

    def test_zeroing_a_block(self):
        # Zeroing sensor 1's block leaves frame-map coordinates it never
        # contributed to unchanged and zeroes its owned basis coordinates.
        stack2 = STACK.copy()
        stack2[1] = 0
        f1 = frame_map(STACK)
        f2 = frame_map(stack2)
        assert np.all(f2 <= f1 + 1e-12)
        b2 = basis_map(stack2, TWO_SENSOR_OWNERS)
        assert b2[1] == 0

    def test_assignment_dimension_mismatch(self):
        with pytest.raises(ValueError):
            basis_map(np.ones((2, 3), dtype=complex), TWO_SENSOR_OWNERS)
        with pytest.raises(ValueError):
            basis_map(STACK, [0])


class TestProjectionSets:
    """The single-coordinate image sets, seen through the verifiers' diagnostics."""

    def test_radiative_set_cardinality(self):
        # All N = 3 sensors' images of each coordinate at its one time: the
        # frame operator is diagonal with entries 3^2 + 1^2 + 1^2 = 11.
        _, fac, owners = separated_fixture()
        diag = verify_frame_mapping(fac, owners)["diagnostics"]
        assert diag["smallest_singular_value"] == pytest.approx(np.sqrt(11))
        assert diag["largest_singular_value"] == pytest.approx(np.sqrt(11))
        basis = diag["per_coordinate_basis"]
        assert [b["label"] for b in basis] == [[0, 0], [1, 1]]

    def test_radiative_set_values_are_single_coordinate(self):
        _, fac, owners = separated_fixture()
        diag = verify_basis_mapping(fac, owners)["diagnostics"]
        assert diag["nonzero_directions"] == [0, 1]
        assert diag["missing_coordinates"] == []

    def test_peak_time_selection(self):
        # Coordinate 0 peaks at time 1 (|alpha| = 2), coordinate 1 at time 0 (3).
        gamma = np.ones((2, 2), dtype=complex)
        alpha = np.array([[1, 3], [2, 1]], dtype=complex)
        fac = Factorization(gamma, alpha)
        report = verify_frame_mapping(fac, TWO_SENSOR_OWNERS)
        basis = report["diagnostics"]["per_coordinate_basis"]
        assert [b["magnitude"] for b in basis] == [2.0, 3.0]
        assert report["diagnostics"]["largest_singular_value"] == pytest.approx(
            np.sqrt(2) * 3
        )

    def test_silent_coordinate_rejected(self):
        fac = Factorization(
            np.ones((2, 2)), np.array([[1, 0], [2, 0]])
        )
        report = verify_frame_mapping(fac, TWO_SENSOR_OWNERS)
        assert report["hypotheses"][0]["per_coordinate"] == [True, False]
        assert report["conclusion"] is None
        assert report["diagnostics"] == {"note": "hypotheses unmet"}

    def test_full_set_cardinality(self):
        _, fac, owners = separated_fixture()
        two_times = Factorization(
            fac.gamma, np.vstack([fac.alpha, 2 * fac.alpha])
        )
        for f, times in ((fac, 1), (two_times, 2)):
            report = verify_projective_frame(f, owners, failed=0)
            assert report["diagnostics"]["cardinality"] == 2 * 3 * times  # n * N * K

    def test_basis_selection_keeps_owner_vectors(self):
        # n basis directions, one per owner; every other selected image is zero.
        _, fac, owners = separated_fixture()
        diag = verify_basis_mapping(fac, owners)["diagnostics"]
        assert diag["distinct_nonzero"] == 2
        assert diag["smallest_singular_value"] == pytest.approx(3.0)

    def test_magnitude_map_values(self):
        _, fac, owners = separated_fixture()
        basis = verify_frame_mapping(fac, owners)["diagnostics"]["per_coordinate_basis"]
        loudest = np.max(np.abs(fac.gamma * fac.alpha[0]), axis=0)
        assert [b["magnitude"] for b in basis] == pytest.approx(loudest)
        assert all(b["magnitude"] >= 0 for b in basis)

    def test_magnitude_of_silenced_sensor_vector_is_zero(self):
        # Sensor 0 is silent at coordinate 0, so its image there is zero and
        # sensor 1 supplies that coordinate's basis vector.
        gamma = np.array([[0, 1], [1, 1]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        report = verify_frame_mapping(fac, TWO_SENSOR_OWNERS, failed=1)
        assert report["diagnostics"]["missing_coordinates"] == [0]
        healthy = verify_frame_mapping(fac, TWO_SENSOR_OWNERS)
        labels = [b["label"] for b in healthy["diagnostics"]["per_coordinate_basis"]]
        assert labels == [[0, 1], [1, 0]]


class TestVerifiers:
    def test_basis_mapping_on_fixture(self):
        _, fac, owners = separated_fixture()
        report = verify_basis_mapping(fac, owners)
        assert report["applicable"] and report["conclusion"]
        assert report["diagnostics"]["distinct_nonzero"] == 2

    def test_basis_mapping_degrades_under_failure(self):
        _, fac, owners = separated_fixture()
        report = verify_basis_mapping(fac, owners, failed=0)
        assert report["applicable"] and report["conclusion"]
        assert 0 in report["diagnostics"]["missing_coordinates"]

    def test_frame_mapping_on_fixture(self):
        _, fac, owners = separated_fixture()
        report = verify_frame_mapping(fac, owners)
        assert report["applicable"] and report["conclusion"]

    def test_frame_mapping_survives_failure_when_harmonious(self):
        _, fac, owners = separated_fixture()
        report = verify_frame_mapping(fac, owners, failed=0)
        assert report["applicable"] and report["conclusion"]

    def test_frame_mapping_disjoint_failure_loses_exactly_owned_coords(self):
        gamma = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 3)))
        owners = build_index_sets(fac.images())
        report = verify_frame_mapping(fac, owners, failed=2)
        assert not report["applicable"]  # harmony fails at the isolated sensor
        assert report["conclusion"] is None
        assert not report["diagnostics"]["spans"]
        assert report["diagnostics"]["missing_coordinates"] == np.flatnonzero(owners == 2).tolist()

    def test_projective_frame_on_fixture(self):
        _, fac, owners = separated_fixture()
        report = verify_projective_frame(fac, owners)
        assert report["applicable"] and report["conclusion"]
        assert report["diagnostics"]["cardinality"] == 6

    def test_projective_frame_with_failure(self):
        _, fac, owners = separated_fixture()
        report = verify_projective_frame(fac, owners, failed=0)
        assert report["applicable"] and report["conclusion"]

    def test_strong_dominance_on_fixture(self):
        _, fac, _ = separated_fixture()
        report = verify_strong_dominance_frame(fac)
        assert report["applicable"] and report["conclusion"]
        mags = np.abs(
            fac.gamma[:, None, :] * fac.alpha[None, :, :]
        ).reshape(-1, 2)
        assert np.allclose(sorted(map(tuple, mags)), [(1, 1), (1, 3), (3, 1)])

    def test_strong_dominance_margins_on_fixture(self):
        _, fac, _ = separated_fixture()
        report = verify_strong_dominance_frame(fac)
        for margin in report["diagnostics"]["dominance_margins"]:
            assert margin["dominance_ratio"] < 1
            assert 1 / margin["dominance_ratio"] == pytest.approx(1.5)

    def test_strong_dominance_rejects_ties(self):
        gamma = np.array([[1, 2], [1, 0.5]], dtype=complex)
        fac = Factorization(gamma, np.ones((1, 2)))
        report = verify_strong_dominance_frame(fac)
        assert not report["applicable"]
        assert report["conclusion"] is None

    def test_strong_dominance_needs_enough_sensors(self):
        gamma = np.array([[3, 1, 1], [1, 3, 1]], dtype=complex)  # n=3 > N=2
        fac = Factorization(gamma, np.ones((1, 3)))
        report = verify_strong_dominance_frame(fac)
        assert not report["applicable"]
        assert report["conclusion"] is None
        assert "spans" in report["diagnostics"]  # diagnostics still reported

    def test_conservative_when_not_radiative(self):
        gamma = np.ones((2, 2), dtype=complex)
        alpha = np.array([[1, 0]], dtype=complex)
        fac = Factorization(gamma, alpha)
        for report in (
            verify_basis_mapping(fac, TWO_SENSOR_OWNERS),
            verify_frame_mapping(fac, TWO_SENSOR_OWNERS),
            verify_projective_frame(fac, TWO_SENSOR_OWNERS),
        ):
            assert not report["applicable"]
            assert report["conclusion"] is None
        assert verify_strong_dominance_frame(fac)["diagnostics"]["schur_interval"] is None

    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
    def test_schur_interval_is_the_image_set_bounds_on_each_fixture(self, fixture):
        fac = separate(scenario_from_json_dict(json.loads(fixture.read_text())))
        diag = verify_strong_dominance_frame(fac)["diagnostics"]
        assert diag["schur_interval"] == pytest.approx(
            {key: diag[key] for key in ("smallest_singular_value", "largest_singular_value")},
            rel=1e-12)

    def test_schur_interval_contains_the_image_singular_values(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(1200):
            n_sensors, times, n = (int(x) for x in rng.integers(1, 5, 3))
            gamma, alpha = (rng.standard_normal((count, n, 2)) @ [1, 1j]
                            for count in (n_sensors, times))
            alpha[rng.random(alpha.shape) < 0.2] = 0
            diag = verify_strong_dominance_frame(Factorization(gamma, alpha))["diagnostics"]
            if not np.all(np.linalg.norm(alpha, axis=0)):
                assert diag["schur_interval"] is None
                continue
            checked += 1
            lo, hi = (diag["schur_interval"][key]
                      for key in ("smallest_singular_value", "largest_singular_value"))
            assert lo <= diag["smallest_singular_value"] * (1 + 1e-9)
            assert diag["largest_singular_value"] <= hi * (1 + 1e-9)
        assert checked >= 1000

    def test_reports_serialize_to_json(self):
        _, fac, owners = separated_fixture()
        for report in (
            verify_basis_mapping(fac, owners),
            verify_basis_mapping(fac, owners, failed=1),
            verify_frame_mapping(fac, owners, failed=1),
            verify_projective_frame(fac, owners, failed=1),
            verify_strong_dominance_frame(fac),
        ):
            assert json.loads(json.dumps(report)) == report

    def test_owners_as_a_list_give_the_same_reports(self):
        _, fac, owners = separated_fixture()
        for verify in (verify_basis_mapping, verify_frame_mapping, verify_projective_frame):
            for failed in (None, 0, 1, 2):
                as_list = verify(fac, owners.tolist(), failed=failed)
                assert as_list == verify(fac, owners, failed=failed)


# Every public entry point that reads an owner vector, on the three-sensor
# fixture (N = 3 sensors, n = 2 coordinates).
OWNER_READERS = {
    "basis_map": lambda fac, owners: basis_map(fac.images().swapaxes(0, 1), owners),
    "verify_basis_mapping": lambda fac, owners: verify_basis_mapping(fac, owners),
    "verify_basis_mapping_failed": lambda fac, owners: verify_basis_mapping(fac, owners, failed=0),
    "verify_frame_mapping_failed": lambda fac, owners: verify_frame_mapping(fac, owners, failed=0),
    "verify_projective_frame_failed":
        lambda fac, owners: verify_projective_frame(fac, owners, failed=0),
    "is_j_harmonious": lambda fac, owners: is_j_harmonious(fac, owners, 0),
    "is_harmonious": is_harmonious,
    "sensor_status": lambda fac, owners: sensor_status(fac, owners, 0),
}
BAD_OWNERS = {
    "short": ([1], r"owners has shape \(1,\), expected \(2,\)"),
    "long": ([0, 1, 2], r"owners has shape \(3,\), expected \(2,\)"),
    "out_of_range": ([0, 5], r"owners \[5\] are outside 0\.\.2"),
    "negative": ([-1, 0], r"owners \[-1\] are outside 0\.\.2"),
    "not_indices": ([0.0, 1.0], r"owners must be sensor indices, got dtype float64"),
}


@pytest.mark.parametrize("owners, message", BAD_OWNERS.values(), ids=BAD_OWNERS)
@pytest.mark.parametrize("reader", OWNER_READERS.values(), ids=OWNER_READERS)
def test_every_owner_reader_refuses_a_bad_owner_vector(reader, owners, message):
    _, fac, good = separated_fixture()
    reader(fac, good)  # the fixture's own owners pass
    with pytest.raises(ValueError, match=message):
        reader(fac, owners)


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
    fac = Factorization(gamma, alpha)
    owners = build_index_sets(fac.images(), tol)
    images = gamma.T[:, :, None] * alpha.T[:, None, :]  # (n, N, K)
    if failed is not None:
        images[:, failed] = 0.0
    peak = images[np.arange(n), :, np.argmax(np.abs(alpha), axis=0)]  # (n, N)
    owned = owners[:, None] == np.arange(n_sensors)
    cases = (
        (verify_basis_mapping(fac, owners, tol, failed), np.where(owned, peak, 0.0)),
        (verify_frame_mapping(fac, owners, tol, failed), np.abs(peak)),
        (verify_projective_frame(fac, owners, tol, failed), images),
    )
    for report, values in cases:
        diag = report["diagnostics"]
        rows = single_coordinate_rows(values)
        ref = span_certificate(VectorSet(rows), tol)
        assert diag["spans"] == ref.spans
        heard = np.any(np.abs(rows) > tol, axis=0)
        assert diag["missing_coordinates"] == np.flatnonzero(~heard).tolist()
        for key in ("smallest_singular_value", "largest_singular_value"):
            assert diag[key] == pytest.approx(getattr(ref, key), rel=1e-12, abs=1e-12)
        if not diag["spans"]:
            witness = np.array(diag["witness"]) @ [1, 1j]  # [[re, im], ...] -> complex
            assert np.linalg.norm(witness) == pytest.approx(1.0)
            assert np.all(np.abs(rows @ witness.conj()) <= tol)
    basis, frame, projective = (report["diagnostics"] for report, _ in cases)
    selected = np.abs(cases[0][1]).max(axis=1)  # each coordinate's owner value
    assert basis["nonzero_directions"] == np.flatnonzero(selected > tol).tolist()
    assert basis["distinct_nonzero"] == np.count_nonzero(selected > tol)
    mags = np.abs(peak)
    top = mags.max(axis=1)
    heard = np.flatnonzero(top > tol)
    entries = frame["per_coordinate_basis"]
    assert [e["coordinate"] for e in entries] == heard.tolist()
    assert [e["label"] for e in entries] == [[i, int(np.argmax(mags[i]))] for i in heard]
    assert [e["magnitude"] for e in entries] == pytest.approx(top[heard].tolist(), rel=1e-12)
    assert projective["cardinality"] == images.size


def gauge_view(report):
    """``report``'s gauge-free content: the fields that must match exactly,
    and the numbers that must match to rounding (None where absent)."""
    diag = report["diagnostics"]
    exact = {key: report[key] for key in ("applicable", "conclusion", "hypotheses")}
    exact.update({key: diag.get(key) for key in ("spans", "missing_coordinates")})
    schur = diag.get("schur_interval") or {}
    numbers = [source.get(key) for source in (diag, schur)
               for key in ("smallest_singular_value", "largest_singular_value")]
    numbers += [b["magnitude"] for b in diag.get("per_coordinate_basis", [])]
    numbers += [m["dominance_ratio"] for m in diag.get("dominance_margins", [])]
    return exact, numbers


@settings(max_examples=150, deadline=None)
@given(
    n_sensors=st.integers(1, 4),
    times=st.integers(1, 3),
    n=st.integers(1, 5),
    zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reports_are_unchanged_by_a_per_coordinate_gauge(n_sensors, times, n, zero_frac, seed):
    # gamma_j(i) * c_i with alpha_k(i) / c_i leaves every image unchanged, so
    # it must leave every report unchanged too, up to rounding.
    rng = np.random.default_rng(seed)

    def factor(count):
        # Moduli in [1/4, 4] or exactly 0, far from tol before and after the gauge.
        f = 4.0 ** rng.uniform(-1, 1, (count, n)) * np.exp(2j * np.pi * rng.random((count, n)))
        f[rng.random((count, n)) < zero_frac] = 0.0
        return f

    gamma, alpha = factor(n_sensors), factor(times)
    c = 4.0 ** rng.uniform(-1, 1, n) * np.exp(2j * np.pi * rng.random(n))
    pair = (Factorization(gamma, alpha),
            Factorization(gamma * c, alpha / c))
    owners = rng.integers(0, n_sensors, n)
    runs = [lambda fac: verify_strong_dominance_frame(fac)]
    for verify in (verify_basis_mapping, verify_frame_mapping, verify_projective_frame):
        for failed in (None, *range(n_sensors)):
            runs.append(lambda fac, verify=verify, failed=failed:
                        verify(fac, owners, failed=failed))
    for run in runs:
        (exact, numbers), (exact_gauged, numbers_gauged) = (gauge_view(run(fac)) for fac in pair)
        assert exact_gauged == exact
        assert [x is None for x in numbers_gauged] == [x is None for x in numbers]
        assert [x for x in numbers_gauged if x is not None] == pytest.approx(
            [x for x in numbers if x is not None], rel=1e-12, abs=1e-12)
