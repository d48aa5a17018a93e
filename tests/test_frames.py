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
    frame_operator,
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


class TestFrameOperatorAndBounds:
    def test_onb_gives_identity(self):
        assert np.allclose(frame_operator(ONB2), np.eye(2))

    def test_sum_of_outer_products(self):
        assert np.allclose(frame_operator(SKEW3), [[11, 7], [7, 11]])

    def test_operator_is_hermitian(self):
        rng = np.random.default_rng(7)
        op = frame_operator(random_frame(rng))
        assert np.allclose(op, op.conj().T)

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

    def test_labels_enumerate_pairs(self):
        pair = MultiplicativeFactorPair(ONB2, VectorSet([[1, 1], [2, 2]]))
        prod = multiplicative_product(pair)
        assert prod.labels == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            MultiplicativeFactorPair(ONB2, VectorSet([[1, 1, 1]]))

    def test_certificate_onb_times_ones(self):
        pair = MultiplicativeFactorPair(ONB2, VectorSet([[1, 1]]))
        cert = mf_bound_certificate(pair, frame_bounds(ONB2))
        assert cert.interval == (1.0, 1.0)
        actual = frame_bounds(multiplicative_product(pair))
        assert cert.lower <= actual.lower + 1e-12
        assert actual.upper <= cert.upper + 1e-12

    def test_certificate_skew_times_ones(self):
        pair = MultiplicativeFactorPair(SKEW3, VectorSet([[1, 1]]))
        cert = mf_bound_certificate(pair, frame_bounds(SKEW3))
        assert np.allclose(cert.interval, (4.0, 18.0))

    def test_certificate_scales_quadratically(self):
        z = VectorSet([[1, 2]])
        z3 = VectorSet([[3, 6]])
        c1 = mf_bound_certificate(MultiplicativeFactorPair(ONB2, z), frame_bounds(ONB2))
        c3 = mf_bound_certificate(MultiplicativeFactorPair(ONB2, z3), frame_bounds(ONB2))
        assert np.allclose([c3.lower, c3.upper], [9 * c1.lower, 9 * c1.upper])

    def test_certificate_requires_nonvanishing_factor(self):
        pair = MultiplicativeFactorPair(ONB2, VectorSet([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            mf_bound_certificate(pair, frame_bounds(ONB2))

    def test_reversed_roles(self):
        # Z the frame, Y the nonvanishing factor: certify the swapped pair.
        pair = MultiplicativeFactorPair(VectorSet([[1, 1]]), ONB2)
        cert = mf_bound_certificate(MultiplicativeFactorPair(pair.Z, pair.Y), frame_bounds(ONB2))
        assert cert.interval == (1.0, 1.0)

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
            assert span_certificate(vs).spans == (frame_bounds(vs).lower > DEFAULT_TOL)


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

    def test_vector_set_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            VectorSet([[1, 0], [0, 1]], labels=[(0, 0), (0, 0)])


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
