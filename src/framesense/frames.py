"""Finite frame theory over complex n-space.

Analysis and synthesis, optimal frame bounds, canonical duals,
reconstruction, span certificates, and multiplicative (coordinatewise-product)
frame construction with certified bound intervals.  All sets are finite and
all operations are pure functions of immutable inputs.

Every spectral quantity of a vector set, the span test, the frame bounds and
the canonical dual alike, is read from one SVD of its stacked matrix
(``_svd``), never from the frame operator, whose entries are the squares of
the set's.  So no decision squares an entry, the dual of a frame scaled by
1e-300 or 1e300 is still finite, and a frame bound whose square float64
cannot hold is a ValueError, never nan, inf or a false 0.

Every tol test here and in ``scenario`` and ``mappings``, for a tol that
passes :func:`check_tol`, follows one of two rules, so that no verdict
depends on the units of the readings:

* span rule (:func:`span_rule`): a set spans when ``sigma_min > sqrt(tol) *
  sigma_max``, in ratio form and never squared (equivalently frame bounds
  ``A > tol * B``);
* magnitude rule: a modulus x counts when ``x > tol * scale``, ``scale``
  being the largest modulus of its kind in the object under test.

The rank-1 test ``sigma2 > tol * sigma1`` already has the span rule's form.

The two fusion maps live here too.  ``basis_map`` reads each health
coordinate from the one sensor that owns it, and ``frame_map`` sums the
coordinate's magnitudes over all sensors.  Both take stacked ``(..., N, n)``
health images.  The theorem verifiers in ``mappings`` certify the images of
these maps, and the detector fuses its health tensor with them, with sensor j
owning engine block j.

Conventions: a vector set is stored as the rows of an ``(m, n)`` complex
matrix; the inner product is ``<x, y> = sum_i x[i] * conj(y[i])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Reject a tolerance outside ``0 < tol < 1`` (NaN included).

    Both rules of the module docstring compare a value with tol (or its
    root) times a bound on it, which tol >= 1 would make vacuous."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol!r}")


class NotAFrameError(ValueError):
    """The vector set does not span, so frame-only operations are undefined."""


class FrameBounds(NamedTuple):
    """Frame constants: the optimal ones are the extreme eigenvalues of the
    frame operator, the squared extreme singular values of the set."""

    lower: float
    upper: float


@dataclass(frozen=True)
class VectorSet:
    """An indexed finite set of complex vectors of uniform dimension."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise ValueError("vector set must be a nonempty 2-d array of vectors")
        if not np.all(np.isfinite(m)):
            raise ValueError("vector entries must be finite")
        object.__setattr__(self, "matrix", m)

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

    Anything else, a bool, a string or an object without exactly the keys
    ``re`` and ``im`` included, is a TypeError.
    """
    if isinstance(value, dict):
        if sorted(value) != ["im", "re"]:
            raise TypeError(f"expected a number or {{re, im}}, got {value!r}")
        re, im = value["re"], value["im"]
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


def _svd(vectors: VectorSet) -> tuple:
    """``(u, sigma, vh)`` of the stacked matrix, ``sigma`` padded with zeros to
    ``dim`` entries, largest first: the one factorization every spectral
    decision here reads.

    A wide set needs the full vh for a null-space row; for a tall set the thin
    vh is already square, and its (count, count) U is never built."""
    u, s, vh = np.linalg.svd(vectors.matrix, full_matrices=vectors.count < vectors.dim)
    sigma = np.zeros(vectors.dim)
    sigma[: s.shape[0]] = s
    return u, sigma, vh


def span_rule(smallest: float, largest: float, tol: float) -> bool:
    """The span rule: a set with extreme singular values ``smallest`` and
    ``largest`` spans when ``smallest > sqrt(tol) * largest``."""
    return bool(smallest > np.sqrt(tol) * largest)


def _product(*factors: float) -> float:
    """The product of ``factors``, taken left to right.  One that overflows
    float64, or is nonzero and rounds to 0, is a ValueError naming it."""
    value = 1.0
    for factor in factors:
        value *= float(factor)
    if value == np.inf or (value == 0 and all(factors)):
        kind = "overflows" if value else "underflows to 0"
        raise ValueError(f"{' * '.join(map(repr, map(float, factors)))} {kind} in float64")
    return value


def frame_bounds(frame: VectorSet) -> FrameBounds:
    """Optimal constants ``(sigma_min**2, sigma_max**2)``, the extreme
    eigenvalues of the frame operator; lower is 0 for a wide set.

    A square that float64 cannot hold, one that overflows or a nonzero one
    that rounds to 0, is a ValueError."""
    _, sigma, _ = _svd(frame)
    return FrameBounds(_product(sigma[-1], sigma[-1]), _product(sigma[0], sigma[0]))


def canonical_dual(frame: VectorSet, tol: float = DEFAULT_TOL) -> VectorSet:
    """The dual frame ``{S^-1 x_h}``, S the frame operator; its bounds are (1/B, 1/A).

    With ``M = U Sigma V^H`` the stacked frame, the dual's rows are those of
    ``U Sigma^-1 V^H``.  A set that does not span by the span rule is a
    NotAFrameError."""
    check_tol(tol)
    u, sigma, vh = _svd(frame)
    if not span_rule(sigma[-1], sigma[0], tol):
        raise NotAFrameError("set does not span; frame operator is singular")
    return VectorSet((u / sigma) @ vh)


def reconstruct(x, frame: VectorSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover x as ``sum_h <x, x_h> S^-1 x_h``; equals x for any frame."""
    coeffs = analysis(x, frame)
    return synthesis(coeffs, canonical_dual(frame, tol))


def multiplicative_product(pair: MultiplicativeFactorPair) -> VectorSet:
    """All NK coordinatewise products ``x_jk(i) = y_j(i) * z_k(i)``, x_jk in row j*K + k."""
    y, z = pair.Y.matrix, pair.Z.matrix
    products = y[:, None, :] * z[None, :, :]
    return VectorSet(products.reshape(-1, y.shape[1]))


def mf_bound_certificate(
    pair: MultiplicativeFactorPair, y_bounds: FrameBounds, tol: float = DEFAULT_TOL
) -> FrameBounds:
    """Schur's frame-bound interval for ``multiplicative_product(pair)``.

    The product set's frame operator is the entrywise product of Y's and
    Z's, so with ``d_i = sum_k |z_k(i)|**2``, the diagonal of Z's, Schur's
    theorem on Hadamard products gives the interval

        [ A_Y * min(d),  B_Y * max(d) ]

    for Y with bounds ``y_bounds``.  It needs every coordinate heard by some
    z_k, ``min(d) > tol * max(d)`` for Z divided by its largest modulus, and
    refuses with ValueError otherwise.  A bound that float64 cannot hold is a
    ValueError, as in :func:`frame_bounds`.
    """
    z = np.abs(pair.Z.matrix)
    top = z.max()
    d = np.sum((z / (top or 1.0)) ** 2, axis=0)
    if not d.min() > tol * d.max():
        raise ValueError("some coordinate vanishes in every z_k; lower bound hypothesis fails")
    return FrameBounds(_product(y_bounds.lower, d.min(), top, top),
                       _product(y_bounds.upper, d.max(), top, top))


@dataclass(frozen=True)
class SpanCertificate:
    """Either a span certification or an orthogonal unit witness vector.

    ``spans`` holds by the span rule: the smallest singular value of the
    stacked matrix exceeds sqrt(tol) times the largest.
    """

    spans: bool
    witness: np.ndarray | None
    smallest_singular_value: float
    largest_singular_value: float


def span_certificate(vectors: VectorSet, tol: float = DEFAULT_TOL) -> SpanCertificate:
    """Certify that a set spans, or produce a unit vector orthogonal to all of it."""
    check_tol(tol)
    _, sigma, vh = _svd(vectors)
    smallest, largest = float(sigma[-1]), float(sigma[0])
    if span_rule(smallest, largest, tol):
        return SpanCertificate(True, None, smallest, largest)
    # conj(vh[-1]) spans the null space of m = vectors.matrix, so y = vh[-1]
    # satisfies <y, w> = conj(m @ conj(y)) ~ 0 for every row w.
    witness = vh[-1] / np.linalg.norm(vh[-1])
    return SpanCertificate(False, witness, smallest, largest)


def owner_vector(owners, N: int, n: int) -> np.ndarray:
    """``owners`` as the (n,) int array that gives each of n coordinates one of N sensors.

    Anything else is a ValueError naming the wrong shape, the dtype or the
    entries outside 0..N-1.
    """
    owners = np.asarray(owners)
    if owners.shape != (n,):
        raise ValueError(f"owners has shape {owners.shape}, expected ({n},)")
    if not np.issubdtype(owners.dtype, np.integer):
        raise ValueError(f"owners must be sensor indices, got dtype {owners.dtype}")
    stray = owners[(owners < 0) | (owners >= N)]
    if stray.size:
        raise ValueError(f"owners {np.unique(stray).tolist()} are outside 0..{N - 1}")
    return owners


def _stacked(images) -> np.ndarray:
    """``images`` as an array of stacked ``(..., N, n)`` health images; fewer
    than 2 dimensions is a ValueError naming the expected shape."""
    images = np.asarray(images)
    if images.ndim < 2:
        raise ValueError(f"health images have shape {images.shape}, expected (..., N, n)")
    return images


def basis_map(images, owners) -> np.ndarray:
    """Fuse stacked ``(..., N, n)`` health images by reading each coordinate from its owner.

    Coordinate i of the ``(..., n)`` output is sensor ``owners[i]``'s image at
    i; every other sensor's image is ignored.
    """
    images = _stacked(images)
    return images[..., owner_vector(owners, *images.shape[-2:]), np.arange(images.shape[-1])]


def frame_map(images) -> np.ndarray:
    """Fuse stacked ``(..., N, n)`` health images by summing magnitudes over sensors.

    The ``(..., n)`` output is real: float64 for complex128 or float64 images.
    """
    return np.abs(_stacked(images)).sum(axis=-2)
