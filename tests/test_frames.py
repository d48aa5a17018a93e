import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesense import frames
from framesense.frames import (
    DEFAULT_TOL,
    FrameBounds,
    MultiplicativeFactorPair,
    NotAFrameError,
    VectorSet,
    analysis,
    canonical_dual,
    frame_bounds,
    mf_bound_certificate,
    multiplicative_product,
    parse_complex,
    reconstruct,
    span_certificate,
    synthesis,
)

ONB2 = VectorSet([[1, 0], [0, 1]])
# A deliberately non-tight spanning set used throughout: its frame operator
# is [[11, 7], [7, 11]] with eigenvalues 4 and 18.
SKEW3 = VectorSet([[3, 1], [1, 3], [1, 1]])


def random_frame(rng, dim=None, redundancy=None):
    dim = dim or rng.integers(2, 17)
    count = dim * (redundancy or rng.integers(1, 5))
    m = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return VectorSet(m)


class TestAnalysisSynthesis:
    def test_canonical_basis_selects_coordinates(self):
        assert np.array_equal(analysis(np.array([1, 0]), ONB2), [1, 0])

    def test_hand_inner_products(self):
        assert np.allclose(analysis(np.array([1, 1]), SKEW3), [4, 4, 2])

    def test_zero_vector_gives_zero_coefficients(self):
        assert np.array_equal(analysis(np.zeros(2), SKEW3), np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            analysis(np.zeros(3), ONB2)

    def test_selector_coefficients(self):
        assert np.array_equal(synthesis([1, 0, 0], SKEW3), [3, 1])

    def test_parseval_roundtrip_on_onb(self):
        x = np.array([2.0 + 1j, -0.5])
        assert np.allclose(synthesis(analysis(x, ONB2), ONB2), x)

    def test_direct_sum(self):
        assert np.allclose(synthesis([1, 1, 1], SKEW3), [5, 5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            synthesis([1, 0], SKEW3)

    def test_conjugate_linear_in_frame_argument(self):
        x = np.array([1.0, 1j])
        f = VectorSet([[1j, 0.0]])
        assert np.allclose(analysis(x, f), [-1j])


def frame_operator(frame: VectorSet) -> np.ndarray:
    """The n-by-n frame operator ``sum_h x_h x_h^*``, formed directly."""
    return frame.matrix.T @ frame.matrix.conj()


class TestFrameOperatorAndBounds:
    def test_onb_bounds(self):
        assert frame_bounds(ONB2) == FrameBounds(1.0, 1.0)

    def test_skew_bounds(self):
        a, b = frame_bounds(SKEW3)
        assert np.allclose([a, b], [4.0, 18.0])

    def test_rank_deficient_lower_bound_zero(self):
        assert frame_bounds(VectorSet([[1, 0]])).lower == 0.0

    def test_frame_inequality_with_eigvector_equality(self):
        rng = np.random.default_rng(21)
        f = random_frame(rng, dim=5, redundancy=3)
        a, b = frame_bounds(f)
        for _ in range(100):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            energy = np.sum(np.abs(analysis(x, f)) ** 2)
            nsq = np.linalg.norm(x) ** 2
            assert a * nsq <= energy + 1e-9 and energy <= b * nsq + 1e-9
        eigs, vecs = np.linalg.eigh(frame_operator(f))
        lo = np.sum(np.abs(analysis(vecs[:, 0], f)) ** 2)
        hi = np.sum(np.abs(analysis(vecs[:, -1], f)) ** 2)
        assert abs(lo - a) <= 1e-6 * a
        assert abs(hi - b) <= 1e-6 * b

    def test_bounds_are_the_frame_operator_eigenvalues(self):
        # The frames of acceptance criterion 3, drawn in its order.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            count = dim * int(rng.integers(1, 5))
            f = VectorSet(
                rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim)))
            rng.standard_normal(202 * dim)  # the criterion's test vectors
            eigs = np.linalg.eigvalsh(frame_operator(f))
            a, b = frame_bounds(f)
            assert abs(a - eigs[0]) <= 1e-9 * b and abs(b - eigs[-1]) <= 1e-9 * b

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    def test_a_square_float64_cannot_hold_is_refused(self, scale):
        kind = "overflows" if scale > 1 else "underflows"
        with pytest.raises(ValueError, match=kind):
            frame_bounds(VectorSet(scale * SKEW3.matrix))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_bounds_scale_quadratically_while_representable(self, scale):
        assert frame_bounds(VectorSet(scale * SKEW3.matrix)) == pytest.approx(
            (4 * scale**2, 18 * scale**2), rel=1e-12)


class TestClassification:
    """Frame classes read off the optimal bounds and the vector norms."""

    def test_onb_is_funtf(self):
        assert frame_bounds(ONB2) == FrameBounds(1.0, 1.0)
        assert np.allclose(np.linalg.norm(ONB2.matrix, axis=1), 1.0)

    def test_mercedes_benz_is_funtf(self):
        angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3])
        mb = VectorSet(np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex))
        assert np.allclose(frame_bounds(mb), [1.5, 1.5])

    def test_skew_is_plain_frame(self):
        lower, upper = frame_bounds(SKEW3)
        assert DEFAULT_TOL < lower < upper

    def test_tight_but_not_unit_norm(self):
        assert frame_bounds(VectorSet([[2, 0], [0, 2]])) == FrameBounds(4.0, 4.0)

    def test_parseval_not_unit_norm(self):
        s = 1 / np.sqrt(2)
        p = VectorSet([[s, 0], [0, s], [s, 0], [0, s]])
        assert np.allclose(frame_bounds(p), [1.0, 1.0])
        assert np.allclose(np.linalg.norm(p.matrix, axis=1), s)


class TestDualAndReconstruction:
    def test_parseval_frame_is_self_dual(self):
        s = 1 / np.sqrt(2)
        p = VectorSet([[s, 0], [0, s], [s, 0], [0, s]])
        assert np.allclose(canonical_dual(p).matrix, p.matrix)

    def test_tight_frame_dual_scales(self):
        t = VectorSet([[2, 0], [0, 2]])
        assert np.allclose(canonical_dual(t).matrix, t.matrix / 4.0)

    def test_dual_of_dual_is_identity(self):
        rng = np.random.default_rng(3)
        f = random_frame(rng)
        assert np.allclose(canonical_dual(canonical_dual(f)).matrix, f.matrix, atol=1e-9)

    def test_dual_bounds_invert(self):
        rng = np.random.default_rng(5)
        f = random_frame(rng)
        a, b = frame_bounds(f)
        da, db = frame_bounds(canonical_dual(f))
        assert np.allclose([da, db], [1 / b, 1 / a], rtol=1e-9)

    def test_dual_of_non_frame_raises(self):
        with pytest.raises(NotAFrameError):
            canonical_dual(VectorSet([[1, 0], [2, 0]]))

    def test_dual_matches_the_frame_operator_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_frame(rng)
            expected = np.linalg.solve(frame_operator(f), f.matrix.T).T
            assert np.max(np.abs(canonical_dual(f).matrix - expected)) <= 1e-12 * np.max(
                np.abs(expected))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    def test_dual_at_extreme_scales(self, scale):
        rng = np.random.default_rng(19)
        for f in (ONB2, SKEW3, *(random_frame(rng) for _ in range(10))):
            scaled = VectorSet(scale * f.matrix)
            dual = canonical_dual(scaled)
            assert np.all(np.isfinite(dual.matrix))
            assert np.max(np.abs(dual.matrix * scale - canonical_dual(f).matrix)) <= 1e-12 * (
                np.max(np.abs(canonical_dual(f).matrix)))
            back = canonical_dual(dual).matrix
            assert np.max(np.abs(back - scaled.matrix)) <= 1e-12 * np.max(np.abs(scaled.matrix))

    def test_reconstruct_onb_exact(self):
        x = np.array([0.25, -3.5 + 2j])
        assert np.allclose(reconstruct(x, ONB2), x)

    def test_reconstruct_skew(self):
        x = np.array([1.0, 2.0])
        assert np.allclose(reconstruct(x, SKEW3), x, atol=1e-10)

    def test_reconstruct_zero(self):
        assert np.allclose(reconstruct(np.zeros(2), SKEW3), 0.0)



class TestMultiplicative:
    def test_all_ones_is_identity(self):
        pair = MultiplicativeFactorPair(SKEW3, VectorSet([[1, 1]]))
        assert np.allclose(multiplicative_product(pair).matrix, SKEW3.matrix)

    def test_pointwise_product(self):
        pair = MultiplicativeFactorPair(VectorSet([[1, 2]]), VectorSet([[3, 4]]))
        assert np.allclose(multiplicative_product(pair).matrix, [[3, 8]])

    def test_row_j_k_is_y_j_times_z_k(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        z = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        prod = multiplicative_product(MultiplicativeFactorPair(VectorSet(y), VectorSet(z)))
        assert prod.count == 6
        for j in range(3):
            for k in range(2):
                assert np.array_equal(prod.matrix[j * 2 + k], y[j] * z[k])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            MultiplicativeFactorPair(ONB2, VectorSet([[1, 1, 1]]))

    def test_certificate_onb_times_ones(self):
        pair = MultiplicativeFactorPair(ONB2, VectorSet([[1, 1]]))
        cert = mf_bound_certificate(pair, frame_bounds(ONB2))
        assert tuple(cert) == (1.0, 1.0)
        actual = frame_bounds(multiplicative_product(pair))
        assert cert.lower <= actual.lower + 1e-12
        assert actual.upper <= cert.upper + 1e-12

    def test_certificate_skew_times_ones(self):
        pair = MultiplicativeFactorPair(SKEW3, VectorSet([[1, 1]]))
        cert = mf_bound_certificate(pair, frame_bounds(SKEW3))
        assert np.allclose(tuple(cert), (4.0, 18.0))

    def test_certificate_scales_quadratically(self):
        z = VectorSet([[1, 2]])
        z3 = VectorSet([[3, 6]])
        c1 = mf_bound_certificate(MultiplicativeFactorPair(ONB2, z), frame_bounds(ONB2))
        c3 = mf_bound_certificate(MultiplicativeFactorPair(ONB2, z3), frame_bounds(ONB2))
        assert np.allclose([c3.lower, c3.upper], [9 * c1.lower, 9 * c1.upper])

    def test_certificate_requires_nonvanishing_factor(self):
        # Each coordinate heard by some z_k is enough: ONB2 as Z is certified.
        cert = mf_bound_certificate(MultiplicativeFactorPair(ONB2, ONB2), frame_bounds(ONB2))
        assert tuple(cert) == (1.0, 1.0)
        pair = MultiplicativeFactorPair(ONB2, VectorSet([[1, 0], [2, 0]]))
        with pytest.raises(ValueError):
            mf_bound_certificate(pair, frame_bounds(ONB2))

    def test_hypothesis_does_not_depend_on_units(self):
        # d = sum |z_k|**2 overflowed to inf at 1e200, and the identity was refused
        # as "some coordinate vanishes"; now only the unrepresentable bound is.
        z = np.array([[1.0, 1.0], [3.0, 0.0]])
        for scale in (1e-100, 1.0, 1e100):
            cert = mf_bound_certificate(MultiplicativeFactorPair(ONB2, VectorSet(scale * z)),
                                        frame_bounds(ONB2))
            assert tuple(cert) == pytest.approx((scale**2, 10 * scale**2), rel=1e-12)
        for scale, kind in ((1e200, "overflows"), (1e-200, "underflows")):
            pair = MultiplicativeFactorPair(ONB2, VectorSet([[scale, scale]]))
            with pytest.raises(ValueError, match=kind):
                mf_bound_certificate(pair, frame_bounds(ONB2))
            with pytest.raises(ValueError, match="vanishes"):
                mf_bound_certificate(MultiplicativeFactorPair(ONB2, VectorSet([[scale, 0]])),
                                     frame_bounds(ONB2))

    def test_reversed_roles(self):
        # Z the frame, Y the nonvanishing factor: certify the swapped pair.
        pair = MultiplicativeFactorPair(VectorSet([[1, 1]]), ONB2)
        cert = mf_bound_certificate(MultiplicativeFactorPair(pair.Z, pair.Y), frame_bounds(ONB2))
        assert tuple(cert) == (1.0, 1.0)

    def test_containment_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = rng.integers(2, 6)
            y = random_frame(rng, dim=n, redundancy=2)
            zm = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
            zm[0] += 2.0 + 2.0j  # keep one factor bounded away from zero
            pair = MultiplicativeFactorPair(y, VectorSet(zm))
            cert = mf_bound_certificate(pair, frame_bounds(y))
            actual = frame_bounds(multiplicative_product(pair))
            assert cert.lower <= actual.lower + 1e-9
            assert actual.upper <= cert.upper + 1e-9


def random_pair(rng):
    """A random complex factor pair whose Z has 1 to 4 vectors, some entries 0."""
    n = int(rng.integers(1, 7))
    y, z = (rng.standard_normal((count, n, 2)) @ [1, 1j]
            for count in (int(rng.integers(1, 3 * n + 1)), int(rng.integers(1, 5))))
    z[rng.random(z.shape) < 0.3] = 0
    return MultiplicativeFactorPair(VectorSet(y), VectorSet(z))


class TestSchur:
    """The product set's frame operator is the entrywise product of its
    factors', so Schur's theorem bounds its eigenvalues."""

    def test_product_frame_operator_is_the_entrywise_product(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pair = random_pair(rng)
            schur = frame_operator(pair.Y) * frame_operator(pair.Z)
            op = frame_operator(multiplicative_product(pair))
            assert np.max(np.abs(op - schur)) <= 1e-12 * np.max(np.abs(schur))

    def test_interval_contains_the_true_bounds_and_is_never_looser(self):
        rng = np.random.default_rng(11)
        certified = old_holds = 0
        for _ in range(200):
            pair = random_pair(rng)
            y_bounds = frame_bounds(pair.Y)
            try:
                cert = mf_bound_certificate(pair, y_bounds)
            except ValueError:
                continue
            certified += 1
            actual = frame_bounds(multiplicative_product(pair))
            assert cert.lower <= actual.lower * (1 + 1e-9) + 1e-12
            assert actual.upper <= cert.upper * (1 + 1e-9)
            z = np.abs(pair.Z.matrix)
            m_z = z.min(axis=1).max()  # the earlier hypothesis: some z_k nonvanishing
            if m_z > DEFAULT_TOL:
                old_holds += 1
                assert m_z**2 * y_bounds.lower <= cert.lower * (1 + 1e-12)
                assert cert.upper <= len(z) * y_bounds.upper * z.max() ** 2 * (1 + 1e-12)
        assert certified > old_holds > 0

    def test_diagonal_support_pair_is_certified(self):
        # No z_k is nonvanishing, but every coordinate is heard by one of them.
        z = VectorSet(np.diag([2.0, 3.0, 1.0]))
        assert np.abs(z.matrix).min(axis=1).max() == 0
        pair = MultiplicativeFactorPair(VectorSet(np.eye(3) + 0.5), z)
        y_bounds = frame_bounds(pair.Y)
        cert = mf_bound_certificate(pair, y_bounds)
        assert np.allclose(tuple(cert), (y_bounds.lower * 1.0, y_bounds.upper * 9.0))
        actual = frame_bounds(multiplicative_product(pair))
        assert cert.lower <= actual.lower + 1e-12 and actual.upper <= cert.upper + 1e-12


class TestSpanCertificate:
    def test_onb_spans(self):
        assert span_certificate(ONB2).spans

    def test_collinear_witness(self):
        cert = span_certificate(VectorSet([[1, 0], [2, 0]]))
        assert not cert.spans
        assert np.allclose(np.abs(cert.witness), [0, 1])

    def test_skew_spans(self):
        assert span_certificate(SKEW3).spans

    def test_witness_orthogonal_to_all_rows_complex(self):
        rng = np.random.default_rng(23)
        base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rows = np.outer(rng.standard_normal(3) + 1j * rng.standard_normal(3), base)
        cert = span_certificate(VectorSet(rows))
        assert not cert.spans
        inner = rows @ cert.witness.conj()
        assert np.max(np.abs(inner)) <= 1e-9

    def test_agrees_with_is_frame(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = rng.integers(1, 6)
            count = rng.integers(1, 2 * n + 1)
            vs = VectorSet(
                rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
            )
            bounds = frame_bounds(vs)
            assert span_certificate(vs).spans == (bounds.lower > DEFAULT_TOL * bounds.upper)


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(1, 12),
    dim=st.integers(1, 6),
    rank=st.integers(0, 6),
    tol=st.sampled_from([1e-9, 1e-6, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_refuses_exactly_the_sets_that_do_not_span(count, dim, rank, tol, seed):
    # Random sets of a chosen rank, half of them with small full-rank noise added.
    rng = np.random.default_rng(seed)
    rank = min(rank, count, dim)
    matrix = (rng.standard_normal((count, rank, 2)) @ [1, 1j]) @ (
        rng.standard_normal((rank, dim, 2)) @ [1, 1j])
    noise = rng.choice([0.0, 10.0 ** rng.uniform(-12, 0)])
    matrix += noise * (rng.standard_normal((count, dim, 2)) @ [1, 1j])
    vs = VectorSet(matrix)
    spans = span_certificate(vs, tol).spans
    try:
        canonical_dual(vs, tol)
    except NotAFrameError:
        assert not spans
    else:
        assert spans


class TestSerialization:
    """The JSON entry parse that scenario documents read vectors through."""

    def test_real_shorthand_accepted(self):
        rows = [[1, 0], [{"re": 0, "im": 1}, 2.5]]
        vs = VectorSet([[parse_complex(z) for z in row] for row in rows])
        assert np.allclose(vs.matrix, [[1, 0], [1j, 2.5]])

    @pytest.mark.parametrize("entry", [True, "1", None, {"re": "1"}, {"im": False}])
    def test_non_numeric_entry_rejected(self, entry):
        with pytest.raises(TypeError):
            parse_complex(entry)

    @pytest.mark.parametrize("entry", [{"re": 1.0}, {"im": 1.0}, {}, {"re": 1, "im": 0, "x": 0}])
    def test_object_without_exactly_re_and_im_rejected(self, entry):
        # A missing part used to be read as 0.
        with pytest.raises(TypeError):
            parse_complex(entry)


class TestInvariantsRandomized:
    def test_reconstruction_across_random_frames(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            f = random_frame(rng)
            x = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            err = np.linalg.norm(reconstruct(x, f) - x)
            assert err <= 1e-9 * (1 + np.linalg.norm(x))

    def test_vector_set_rejects_nan(self):
        with pytest.raises(ValueError):
            VectorSet([[np.nan, 0]])


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    dim=st.integers(min_value=1, max_value=6),
)
def test_scaled_onb_stays_tight(scale, dim):
    vs = VectorSet(scale * np.eye(dim, dtype=complex))
    a, b = frame_bounds(vs)
    assert np.isclose(a, b)
    assert np.isclose(a, scale**2)


def span_reference(matrix, tol):
    """Spans iff the squared smallest of dim singular values exceeds tol; the
    witness is the last right singular vector, both from a full SVD."""
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    sigma = np.zeros(matrix.shape[1])
    sigma[: s.shape[0]] = s
    return sigma[-1] ** 2 > tol, sigma, vh[-1]


@settings(max_examples=100, deadline=None)
@given(
    count=st.integers(1, 12),
    dim=st.integers(1, 6),
    rank=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_certificate_matches_full_svd(count, dim, rank, seed):
    # Wide (count < dim) and tall sets of a chosen rank: the nonzero singular
    # values are O(1) and the rest vanish, far from the tol boundary.
    rng = np.random.default_rng(seed)
    rank = min(rank, count, dim)

    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    matrix = cgauss(count, rank) @ cgauss(rank, dim)
    spans, sigma, last = span_reference(matrix, 1e-9)
    cert = span_certificate(VectorSet(matrix), 1e-9)
    assert cert.spans == spans == (rank == dim)
    assert cert.smallest_singular_value == pytest.approx(sigma[-1], abs=1e-12)
    assert cert.largest_singular_value == pytest.approx(sigma[0], rel=1e-12, abs=1e-12)
    if spans:
        assert cert.witness is None
    else:
        assert np.linalg.norm(cert.witness) == pytest.approx(1.0)
        assert np.max(np.abs(matrix @ cert.witness.conj())) <= 1e-9 * max(1.0, sigma[0])
        if rank == dim - 1:  # a one-dimensional null space: the same line
            assert abs(np.vdot(last, cert.witness)) == pytest.approx(1.0)


@pytest.mark.parametrize("images", [np.ones(3), np.float64(1.0)], ids=["1-d", "0-d"])
@pytest.mark.parametrize("fuse", [
    lambda images: frames.basis_map(images, [0, 1, 2]),
    frames.frame_map,
], ids=["basis_map", "frame_map"])
def test_fusion_maps_refuse_unstacked_images(fuse, images):
    with pytest.raises(ValueError, match=r"expected \(\.\.\., N, n\)"):
        fuse(images)
