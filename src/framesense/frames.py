"""Finite frame theory over complex n-space.

Analysis/synthesis/frame operators, optimal frame bounds, canonical duals,
reconstruction, and multiplicative (coordinatewise-product) frame
construction with certified bound intervals.  All sets are finite and all
operations are pure functions of immutable inputs.

Conventions: a vector set is stored as the rows of an ``(m, n)`` complex
matrix; the inner product is ``<x, y> = sum_i x[i] * conj(y[i])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Reject a tolerance outside ``0 < tol < inf`` (NaN included)."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


class NotAFrameError(ValueError):
    """The vector set does not span, so frame-only operations are undefined."""


class FrameBounds(NamedTuple):
    """Optimal frame constants: the extreme eigenvalues of the frame operator."""

    lower: float
    upper: float


@dataclass(frozen=True)
class VectorSet:
    """An indexed finite set of complex vectors of uniform dimension.

    ``labels`` optionally tags each vector with an index tuple such as
    ``(j, k)``; labels must be unique when present.
    """

    matrix: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise ValueError("vector set must be a nonempty 2-d array of vectors")
        if not np.all(np.isfinite(m)):
            raise ValueError("vector entries must be finite")
        object.__setattr__(self, "matrix", m)
        if self.labels is not None:
            labels = tuple(tuple(lab) for lab in self.labels)
            if len(labels) != m.shape[0]:
                raise ValueError("one label per vector required")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")
            object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _is_real(x) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return type(x) in (int, float)


def parse_complex(value):
    """Accept ``{"re": a, "im": b}`` or a plain real number.

    Anything else, a bool or a string included, is a TypeError.
    """
    if isinstance(value, dict):
        re, im = value.get("re", 0.0), value.get("im", 0.0)
    else:
        re, im = value, 0.0
    if not (_is_real(re) and _is_real(im)):
        raise TypeError(f"expected a number or {{re, im}}, got {value!r}")
    return complex(re, im)


@dataclass(frozen=True)
class MultiplicativeFactorPair:
    """Factor sets Y (N vectors) and Z (K vectors) of equal dimension."""

    Y: VectorSet
    Z: VectorSet

    def __post_init__(self):
        if self.Y.dim != self.Z.dim:
            raise ValueError(
                f"factor dimensions differ: {self.Y.dim} vs {self.Z.dim}"
            )


def analysis(x, frame: VectorSet) -> np.ndarray:
    """Coefficients ``<x, x_h>`` in frame order."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (frame.dim,):
        raise ValueError(f"vector of dim {x.shape} vs frame dim {frame.dim}")
    return frame.matrix.conj() @ x


def synthesis(coeffs, frame: VectorSet) -> np.ndarray:
    """Weighted sum ``sum_h a_h x_h``."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (frame.count,):
        raise ValueError(f"{coeffs.shape[0]} coefficients for {frame.count} vectors")
    return frame.matrix.T @ coeffs


def frame_operator(frame: VectorSet) -> np.ndarray:
    """The n-by-n Hermitian PSD operator ``sum_h x_h x_h^*``.

    Explicitly symmetrized to suppress rounding drift before any
    eigen-solve downstream.
    """
    op = frame.matrix.T @ frame.matrix.conj()
    return 0.5 * (op + op.conj().T)


def frame_bounds(frame: VectorSet) -> FrameBounds:
    """Optimal constants: extreme eigenvalues of the frame operator."""
    eigs = np.linalg.eigvalsh(frame_operator(frame))
    return FrameBounds(float(max(eigs[0], 0.0)), float(eigs[-1]))


def is_frame(frame: VectorSet, tol: float = DEFAULT_TOL) -> bool:
    """True iff the set spans: smallest frame-operator eigenvalue above tol."""
    check_tol(tol)
    return frame_bounds(frame).lower > tol


def classify_frame(frame: VectorSet, tol: float = DEFAULT_TOL) -> str:
    """Most specific class among not_frame / frame / tight / parseval / funtf."""
    lower, upper = frame_bounds(frame)
    if lower <= tol:
        return "not_frame"
    tight = abs(upper - lower) <= tol * upper
    unit_norm = np.allclose(
        np.linalg.norm(frame.matrix, axis=1), 1.0, rtol=0.0, atol=tol
    )
    if tight and unit_norm:
        return "funtf"
    if abs(lower - 1.0) <= tol and abs(upper - 1.0) <= tol:
        return "parseval"
    if tight:
        return "tight"
    return "frame"


def canonical_dual(frame: VectorSet, tol: float = DEFAULT_TOL) -> VectorSet:
    """The dual frame ``{F^-1 x_h}``; its bounds are (1/B, 1/A)."""
    op = frame_operator(frame)
    if frame_bounds(frame).lower <= tol:
        raise NotAFrameError("set does not span; frame operator is singular")
    dual = np.linalg.solve(op, frame.matrix.T).T
    return VectorSet(dual, frame.labels)


def reconstruct(x, frame: VectorSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover x as ``sum_h <x, x_h> F^-1 x_h``; equals x for any frame."""
    coeffs = analysis(x, frame)
    return synthesis(coeffs, canonical_dual(frame, tol))


def multiplicative_product(pair: MultiplicativeFactorPair) -> VectorSet:
    """All NK coordinatewise products ``x_jk(i) = y_j(i) * z_k(i)``, labeled (j, k)."""
    y, z = pair.Y.matrix, pair.Z.matrix
    products = y[:, None, :] * z[None, :, :]
    labels = tuple((j, k) for j in range(y.shape[0]) for k in range(z.shape[0]))
    return VectorSet(products.reshape(-1, y.shape[1]), labels)


@dataclass(frozen=True)
class MultiplicativeBoundCertificate:
    """Certified interval for the frame bounds of a coordinatewise product set.

    ``lower`` uses the quadratic scaling ``min_modulus**2 * lower_Y`` that the
    bound derivation actually yields; ``lower_linear`` is the weaker-looking
    single-power variant ``min_modulus * lower_Y`` reported for comparison.
    Containment of the product set's true bounds is only guaranteed for
    (``lower``, ``upper``).
    """

    lower: float
    upper: float
    lower_linear: float
    min_modulus: float
    witness_k: int

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def mf_bound_certificate(
    pair: MultiplicativeFactorPair, y_bounds: FrameBounds, tol: float = DEFAULT_TOL
) -> MultiplicativeBoundCertificate:
    """Frame-bound interval for ``multiplicative_product(pair)``.

    Requires Y to be a frame with bounds ``y_bounds`` and some z_k with all
    coordinate moduli strictly positive.  The certified interval is

        [ m_z**2 * A_Y,  K * B_Y * max_k ||z_k||_inf**2 ]

    with ``m_z`` the best (largest) minimum modulus over the z_k.
    """
    z = pair.Z.matrix
    min_mods = np.min(np.abs(z), axis=1)
    witness_k = int(np.argmax(min_mods))
    m_z = float(min_mods[witness_k])
    if m_z <= tol:
        raise ValueError(
            "no factor z_k has strictly nonvanishing coordinates; "
            "lower bound hypothesis fails"
        )
    max_inf_sq = float(np.max(np.abs(z)) ** 2)
    k_count = z.shape[0]
    return MultiplicativeBoundCertificate(
        lower=m_z**2 * y_bounds.lower,
        upper=k_count * y_bounds.upper * max_inf_sq,
        lower_linear=m_z * y_bounds.lower,
        min_modulus=m_z,
        witness_k=witness_k,
    )


@dataclass(frozen=True)
class SpanCertificate:
    """Either a span certification or an orthogonal unit witness vector.

    ``spans`` is decided on the squared smallest singular value of the
    stacked matrix, so it agrees with :func:`is_frame` at equal tol.
    """

    spans: bool
    witness: np.ndarray | None
    smallest_singular_value: float
    largest_singular_value: float


def span_certificate(vectors: VectorSet, tol: float = DEFAULT_TOL) -> SpanCertificate:
    """Certify that a set spans, or produce a unit vector orthogonal to all of it."""
    check_tol(tol)
    # A wide set needs the full vh for a null-space row; for a tall set the
    # thin vh is already square, and its (count, count) U is never built.
    m = vectors.matrix
    _, s, vh = np.linalg.svd(m, full_matrices=vectors.count < vectors.dim)
    sigma = np.zeros(vectors.dim)
    sigma[: s.shape[0]] = s
    smallest = float(sigma[-1])
    if smallest**2 > tol:
        return SpanCertificate(True, None, smallest, float(sigma[0]))
    # conj(vh[-1]) spans the null space of m, so y = vh[-1] satisfies
    # <y, w> = conj(m @ conj(y)) ~ 0 for every row w.
    witness = vh[-1] / np.linalg.norm(vh[-1])
    return SpanCertificate(False, witness, smallest, float(sigma[0]))
