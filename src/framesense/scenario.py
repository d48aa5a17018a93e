"""Sensing-scenario model: sensors, readings, factorization, and health space.

A scenario holds N sensors observing M parameters at K times.  Sensor j can
hear the parameters in its covering set T_j and bears primary responsibility
for the partition set S_j.  Readings factor (when the scenario is
pre-separable) into a per-sensor sensitivity profile and a per-time volume
profile, and a health map carries everything into a low-dimensional space
C^n.  The scenario is separable when the health images factor the same way,
H(v_jk)(i) = gamma_j(i) * alpha_k(i): at each coordinate i the N-by-K matrix
of images has rank at most one within tol, by the rules ``frames`` states.
In C^n each coordinate has one owner, the sensor that hears it best:
:func:`build_index_sets` returns them as the (n,) int array ``owners``, and
sensor j's responsibility set is I_j = {i : owners[i] == j}.  The predicates
at the bottom (radiative, dominant, harmonious, operational) quantify which
coordinates are being emitted, heard, and shared between sensors.

Each stage returns a plain value: :func:`validate_scenario` a list of
violations, :func:`factor_readings` the raw factors ``(gamma_hat,
alpha_hat)`` of the readings, and :func:`separate` a :class:`Factorization`,
the rank-1 factors ``gamma`` and ``alpha`` of the health images that every
predicate and verifier reads.  Both factor by one rule, with one liveness
threshold and one balanced gauge.  A health map of either JSON form is one
linear map, and the images are the readings times its (n, L) block on the
live parameters.

Memory follows the L live parameters, those with a nonzero reading, not M:
a scenario holds the live parameters' readings, T_j and S_j as rows of two
(N, M) bool masks, and the raw factors hold the live columns alone.  On the
benchmark's spectral scenario (L = 56 of M = 8192) ``theorems`` peaks at
34.0 MiB with K = 24 times and 43.5 MiB with K = 240, about 30 MiB of it
the interpreter and imports (2-vCPU VM, one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .frames import DEFAULT_TOL, check_tol, owner_vector, parse_complex


# Most reading entries N*K*M a document may declare, silent parameters
# included, though a Scenario holds the live parameters' readings only.  A
# dense document is still parsed whole, into up to 256 MiB of complex128.
# The benchmark's spectral scenario declares 786,432 and holds 5,376.
MAX_READINGS = 2**24


class NotPreSeparableError(ValueError):
    """Readings fail the rank-1 factorization test at one or more parameters."""

    def __init__(self, offending):
        self.offending = tuple(int(f) for f in offending)
        super().__init__(
            f"readings have rank > 1 at parameter indices {list(self.offending)}"
        )


class NotSeparableError(ValueError):
    """The health images do not factor as gamma_j(i) * alpha_k(i) within tol.

    ``offending`` lists the coordinates whose N-by-K image matrix has rank
    > 1; it is empty when each has rank 1 but the factors' products still
    miss the images.
    """

    def __init__(self, message: str, offending=()):
        self.offending = tuple(int(i) for i in offending)
        super().__init__(message)


class UncoverableIndexError(ValueError):
    """Some health coordinate is heard by no sensor at any time."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(
            f"health coordinates {list(self.indices)} are silent for every "
            "sensor; reduce the health space by dropping them"
        )


@dataclass(frozen=True)
class HealthMap:
    """Linear map C^M -> C^n: output i is ``sum_c weights[i, c] * v[cols[c]]``.

    ``cols`` holds the sorted parameters the map reads and ``weights`` their
    (n, C) block.  ``kind`` is only the JSON form: a "selection_matrix" map
    has one nonzero weight per row, and a "general_linear" map reads every
    parameter, its n-by-M matrix being the weights.
    """

    kind: str
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("selection_matrix", "general_linear"):
            raise ValueError(f"unknown health map kind {self.kind!r}")
        if len(self.weights) < 1:
            raise ValueError("health dimension must be positive")

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def selection(cls, n, rows) -> "HealthMap":
        """Output i reads ``scale * v[f]`` for ``rows[i] = (f, scale)``."""
        rows = [(int(f), complex(s)) for f, s in rows]
        if len(rows) != n:
            raise ValueError("selection map needs one (f, scale) row per output")
        if any(s == 0 for _, s in rows):
            raise ValueError("selection scales must be nonzero")
        cols = np.array(sorted({f for f, _ in rows}), dtype=np.int64)
        weights = np.zeros((n, cols.size), dtype=np.complex128)
        weights[np.arange(n), np.searchsorted(cols, [f for f, _ in rows])] = [s for _, s in rows]
        return cls("selection_matrix", cols, weights)

    @classmethod
    def identity(cls, n) -> "HealthMap":
        return cls.selection(n, [(f, 1.0) for f in range(n)])

    @classmethod
    def linear(cls, matrix) -> "HealthMap":
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("health matrix must be 2-D")
        return cls("general_linear", np.arange(matrix.shape[1]), matrix)

    def block(self, params: np.ndarray) -> np.ndarray:
        """The (n, L) weights on the sorted ``params``, 0 on one the map does not read."""
        # Sorted lookup, not np.isin or np.unique: under numpy 2.4 both import numpy.ma.
        pos = np.minimum(np.searchsorted(self.cols, params), self.cols.size - 1)
        return np.where(self.cols[pos] == params, self.weights[:, pos], 0)


def _live_columns(readings: np.ndarray) -> tuple:
    """The parameters of (N, K, M) ``readings`` with any nonzero reading, and
    their (N, K, L) readings."""
    params = np.flatnonzero(np.any(readings != 0, axis=(0, 1)))
    return params, readings[:, :, params]


def _params(params, m: int) -> np.ndarray:
    """``params`` as increasing int64 indices in 0..m-1, or ValueError."""
    p = np.asarray(params, dtype=np.int64)
    if p.ndim != 1 or p.size and (p[0] < 0 or p[-1] >= m or np.any(p[1:] <= p[:-1])):
        raise ValueError(f"params must be increasing indices in 0..{m - 1}")
    return p


def _mask(sets, m: int, name: str) -> np.ndarray:
    """Index sets as one (len(sets), m) bool mask: a bool array is kept as it
    is, and any other ``sets`` is one iterable of indices in 0..m-1 per sensor."""
    if isinstance(sets, np.ndarray) and sets.dtype == bool:
        if sets.ndim != 2 or sets.shape[1] != m:
            raise ValueError(f"{name} mask has shape {sets.shape}, expected (N, {m})")
        return sets
    mask = np.zeros((len(sets), m), dtype=bool)
    for j, indices in enumerate(sets):
        idx = np.fromiter(indices, dtype=np.int64)
        stray = idx[(idx < 0) | (idx >= m)]
        if stray.size:
            raise ValueError(f"{name} set {j} holds parameters {sorted(set(stray.tolist()))}, "
                             f"outside 0..{m - 1}")
        mask[j, idx] = True
    return mask


@dataclass(frozen=True)
class Scenario:
    """Parameters, sensors, times, covering/partition, readings, health map.

    ``covering`` and ``partition`` are (N, M) bool masks: ``covering[j, f]``
    when f is in sensor j's covering set T_j, ``partition[j, f]`` when f is
    in its partition set S_j.  They may be given as one iterable of indices
    in 0..M-1 per sensor instead.  Only the live parameters are stored:
    ``params`` holds their sorted indices in 0..M-1, and ``values[j, k, l]``
    is sensor j's reading of parameter ``params[l]`` at time k.  The reading
    of every other parameter is 0 by definition.  A reading must vanish
    outside T_j.  :meth:`from_dense` builds one from an (N, K, M) array.
    """

    covering: np.ndarray
    partition: np.ndarray
    params: np.ndarray
    values: np.ndarray
    M: int
    health: HealthMap

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        p = np.asarray(self.params, dtype=np.int64)
        m = int(self.M)
        if v.ndim != 3 or p.shape != v.shape[2:]:
            raise ValueError("values must have shape (N, K, L) for L params")
        p = _params(p, m)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "covering", _mask(self.covering, m, "covering"))
        object.__setattr__(self, "partition", _mask(self.partition, m, "partition"))
        if len(self.covering) != v.shape[0] or len(self.partition) != v.shape[0]:
            raise ValueError("need one covering and one partition set per sensor")
        h = self.health
        if h.kind == "general_linear" and h.cols.size != m:
            raise ValueError(f"health matrix has width {h.cols.size}, expected M = {m}")
        i, c = np.nonzero(h.weights * ((h.cols < 0) | (h.cols >= m)))  # row-major order
        if i.size:
            raise ValueError(f"health row {i[0]} selects parameter {h.cols[c[0]]}, "
                             f"outside 0..{m - 1}")

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def K(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.health.n

    def health_images(self) -> np.ndarray:
        """All H(v_jk) as an (N, K, n) array."""
        return self.values @ self.health.block(self.params).T

    @classmethod
    def from_dense(cls, covering, partition, readings, health) -> "Scenario":
        """Keep the parameters of (N, K, M) ``readings`` with any nonzero reading."""
        r = np.asarray(readings, dtype=np.complex128)
        if r.ndim != 3:
            raise ValueError("readings must have shape (N, K, M)")
        return cls(covering, partition, *_live_columns(r), r.shape[2], health)

    @classmethod
    def from_factors(
        cls, gamma_hat, alpha_hat, health, covering=None, partition=None
    ) -> "Scenario":
        """Build readings as the outer products gamma_hat[j] * alpha_hat[k]."""
        g = np.asarray(gamma_hat, dtype=np.complex128)
        a = np.asarray(alpha_hat, dtype=np.complex128)
        if g.ndim != 2 or a.ndim != 2 or g.shape[1] != a.shape[1]:
            raise ValueError("factor arrays must be (N, M) and (K, M)")
        n_sensors, m = g.shape
        params = np.flatnonzero(np.any(g != 0, axis=0) & np.any(a != 0, axis=0))
        values = g[:, None, params] * a[None, :, params]
        if covering is None:
            covering = np.ones((n_sensors, m), dtype=bool)
        if partition is None:  # round-robin: parameter f goes to sensor f mod N
            partition = np.arange(m) % n_sensors == np.arange(n_sensors)[:, None]
        return cls(covering, partition, params, values, m, health)


@dataclass(frozen=True)
class Factorization:
    """Health-space factors realizing separability: ``gamma`` (N, n) and
    ``alpha`` (K, n), with H(v_jk)(i) = gamma_j(i) * alpha_k(i)."""

    gamma: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.complex128)
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        if gamma.ndim != 2 or alpha.ndim != 2 or gamma.shape[1] != alpha.shape[1]:
            raise ValueError(f"factors have shapes {gamma.shape} and {alpha.shape}, "
                             "expected (N, n) and (K, n)")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)

    def images(self) -> np.ndarray:
        """Health images gamma_j(i) * alpha_k(i) as an (N, K, n) array."""
        return self.gamma[:, None, :] * self.alpha[None, :, :]

    @cached_property
    def peaks(self) -> np.ndarray:
        """(N, n) gauge-free peak images ``|gamma_j(i)| * max_k |alpha_k(i)|``."""
        return np.abs(self.gamma) * np.abs(self.alpha).max(axis=0, initial=0.0)

    @cached_property
    def scale(self) -> float:
        """max|images|, the scale of every magnitude test on the factors."""
        return float(self.peaks.max(initial=0.0))


def validate_scenario(s: Scenario, tol: float = DEFAULT_TOL) -> list:
    """Check the structural invariants and return the violations found, as
    messages; an empty list means the scenario is valid."""
    check_tol(tol)
    violations = []
    missing = np.flatnonzero(~s.covering.any(axis=0))
    if missing.size:
        violations.append(f"covering misses parameters {missing.tolist()}")
    # Only sensors holding a parameter that two partition sets claim can overlap.
    shared = np.flatnonzero(s.partition.sum(axis=0) > 1)
    claims = s.partition[:, shared]
    holders = np.flatnonzero(claims.any(axis=1))
    for a, j in enumerate(holders.tolist()):
        later = holders[a + 1:]
        for l in later[np.any(claims[later] & claims[j], axis=1)].tolist():
            overlap = shared[claims[j] & claims[l]]
            violations.append(f"partition sets S_{j} and S_{l} overlap at {overlap.tolist()}")
    missing = np.flatnonzero(~s.partition.any(axis=0))
    if missing.size:
        violations.append(f"partition misses parameters {missing.tolist()}")
    for j in range(s.N):
        stray = np.flatnonzero(s.partition[j] & ~s.covering[j])
        if stray.size:
            violations.append(f"S_{j} is not contained in T_{j} (extra {stray.tolist()})")
    mags = np.abs(s.values)
    loud = (mags > tol * mags.max(initial=0.0)) & ~s.covering[:, None, s.params]
    for j in np.flatnonzero(loud.any(axis=(1, 2))).tolist():
        ks, ls = np.nonzero(loud[j])
        violations.append(f"sensor {j} reports parameter {s.params[ls[0]]} outside its "
                          f"covering (first at time {ks[0]})")
    return violations


def _rank1_factors(stack: np.ndarray, tol: float) -> tuple:
    """Rank-1 factors of each N-by-K matrix of the (L, N, K) ``stack``.

    Returns ``(gamma, alpha, offending)``: gamma (L, N) and alpha (L, K), with
    ``stack[l]`` close to the outer product of ``gamma[l]`` and ``alpha[l]``,
    and an (L,) bool marking the matrices of rank > 1.  Matrix l is live when
    its top singular value s1 exceeds ``tol * max|stack|``; a quiet one keeps
    both factors 0 and is never offending.  A live one is offending
    when its second singular value exceeds ``tol * s1``.  The gauge makes the
    strongest sensor's entry of gamma real and nonnegative and gives both
    factors the norm sqrt(s1).
    """
    scale = np.max(np.abs(stack), initial=0.0)
    u, sv, vh = np.linalg.svd(stack, full_matrices=False)
    u0, top_sv, vh0 = u[:, :, 0], sv[:, 0], vh[:, 0, :]  # (L, N), (L,), (L, K)
    live = top_sv > tol * scale
    offending = live & (sv[:, 1] > tol * top_sv) if sv.shape[1] > 1 else np.zeros_like(live)
    top = np.take_along_axis(u0, np.argmax(np.abs(u0), axis=1)[:, None], axis=1)
    phase = np.conj(top) / np.abs(top)  # (L, 1)
    root = np.sqrt(top_sv)[:, None]
    gamma = np.where(live[:, None], root * u0 * phase, 0.0)
    alpha = np.where(live[:, None], root * vh0 * np.conj(phase), 0.0)
    return gamma, alpha, offending


def factor_readings(s: Scenario, tol: float = DEFAULT_TOL) -> tuple:
    """Extract rank-1 factors of the readings at every parameter.

    Returns the raw factors ``(gamma_hat, alpha_hat)`` of shapes (N, L) and
    (K, L), whose column l factors the readings of parameter ``s.params[l]``.
    At each parameter the N-by-K matrix of readings must have numerical rank
    at most one; otherwise :class:`NotPreSeparableError` lists the offending
    parameters.  The per-parameter gauge is fixed so that the strongest
    sensor's factor is real and nonnegative.  Only the live parameters are
    decomposed: every other parameter is silent, with both factors 0, as are
    those of one whose top singular value is at most tol * max|readings|.
    """
    check_tol(tol)
    gamma_hat, alpha_hat, offending = _rank1_factors(s.values.transpose(2, 0, 1), tol)
    if offending.any():
        raise NotPreSeparableError(s.params[offending])
    return gamma_hat.T, alpha_hat.T


def separate(s: Scenario, tol: float = DEFAULT_TOL) -> Factorization:
    """Factor the health images: H(v_jk)(i) = gamma_j(i) * alpha_k(i).

    The scenario is separable when, at every health coordinate i, the N-by-K
    matrix of images H(v_jk)(i) has numerical rank at most one; its rank-1
    factors are then that coordinate's columns of ``gamma`` and ``alpha``.
    Every coordinate is factored by the rule :func:`factor_readings` applies
    to each parameter's readings, with tol taken relative to the largest
    image, so the result depends on the images alone, never on the health
    map's kind or on parameters it ignores.  :class:`NotSeparableError` lists
    the coordinates of rank > 1, or says by how much the factors' products
    miss the images when that exceeds ``tol * max|images|``.
    """
    check_tol(tol)
    images = s.health_images()
    gamma, alpha, offending = _rank1_factors(images.transpose(2, 0, 1), tol)
    if offending.any():
        offending = np.flatnonzero(offending)
        raise NotSeparableError(
            f"health images have rank > 1 at coordinate indices {offending.tolist()}", offending)
    fac = Factorization(gamma.T, alpha.T)
    err = np.max(np.abs(images - fac.images()))
    if err > tol * np.max(np.abs(images), initial=0.0):
        raise NotSeparableError(f"factor products deviate from health images by {err:.3e}")
    return fac


def build_index_sets(images: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Assign each health coordinate to the sensor that hears it best.

    ``images`` is the (N, K, n) array of health images.  Returns the (n,)
    ``owners``: coordinate i goes to the sensor with the largest peak
    magnitude (ties to the smallest j), so I_j = {i : owners[i] == j}.  That
    sensor hears i above ``tol * max|images|``, :func:`separate`'s floor;
    :class:`UncoverableIndexError` lists the coordinates no sensor hears so.
    """
    peak = np.max(np.abs(np.asarray(images)), axis=1)  # (N, n)
    silent = np.flatnonzero(~np.any(peak > tol * peak.max(initial=0.0), axis=0))
    if silent.size:
        raise UncoverableIndexError(silent)
    return np.argmax(peak, axis=0)  # argmax ties break to smallest j


def is_i_radiative(fac: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per coordinate i: some image of i is audible, its peak image
    ``fac.peaks[j, i]`` above ``tol * fac.scale`` for some sensor j."""
    return np.any(fac.peaks > tol * fac.scale, axis=0)


def is_i_dominant(fac: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per coordinate i: some sensor hears it, which no gauge-free test tells
    from :func:`is_i_radiative`; the two stay separate hypotheses."""
    return is_i_radiative(fac, tol)


def is_strongly_i_dominant(fac: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per coordinate i: one audible sensor out-hears every other by (N - 1), strictly.

    Only the strongest sensor can qualify, so it is compared with the runner-up.
    """
    mags = np.sort(np.abs(fac.gamma), axis=0)  # (N, n), ascending per coordinate
    n_sensors = mags.shape[0]
    runner_up = mags[-2] if n_sensors > 1 else 0.0
    return is_i_radiative(fac, tol) & (mags[-1] > (n_sensors - 1) * runner_up)


def is_j_harmonious(fac: Factorization, owners, j: int, tol: float = DEFAULT_TOL) -> bool:
    """Every coordinate sensor j owns is audible to some other sensor, with a
    peak image above ``tol * fac.scale``.

    Vacuously true when I_j is empty.  The negation (some owned coordinate
    heard only by j) is the j-disjoint case.
    """
    owners = owner_vector(owners, *fac.gamma.shape)
    others = np.delete(fac.peaks[:, owners == j], j, axis=0)
    return bool(np.all(np.any(others > tol * fac.scale, axis=0)))


def is_harmonious(fac: Factorization, owners, tol: float = DEFAULT_TOL) -> bool:
    return all(is_j_harmonious(fac, owners, j, tol) for j in range(fac.gamma.shape[0]))


@dataclass(frozen=True)
class SensorStatus:
    status: str  # "operational" | "non_operational" | "undefined"
    failed: tuple = ()  # (position, coordinate) pairs within I_j


def sensor_status(fac: Factorization, owners, j: int, tol: float = DEFAULT_TOL) -> SensorStatus:
    """Operational iff sensor j hears every coordinate it owns, its peak image
    above ``tol * fac.scale``."""
    owned = np.flatnonzero(owner_vector(owners, *fac.gamma.shape) == j)
    if not owned.size:
        return SensorStatus(status="undefined")
    silent = np.flatnonzero(fac.peaks[j, owned] <= tol * fac.scale)
    if silent.size:
        failed = tuple(zip(silent.tolist(), owned[silent].tolist()))
        return SensorStatus(status="non_operational", failed=failed)
    return SensorStatus(status="operational")


def _complex_out(z: complex):
    if z.imag == 0.0:
        return z.real
    return {"re": z.real, "im": z.imag}


def scenario_to_json_dict(s: Scenario) -> dict:
    """Serialize with 1-based index sets and {re, im} complex entries.

    The readings are written sparse, as ``{"shape": [N, K, M], "nonzero":
    [[j, k, f, value], ...]}`` with 1-based indices in row-major order.
    """
    js, ks, ls = np.nonzero(s.values)  # params is sorted: row-major in (j, k, f)
    doc = {
        "M": s.M,
        "N": s.N,
        "K": s.K,
        "covering": [(np.flatnonzero(t) + 1).tolist() for t in s.covering],
        "partition": [(np.flatnonzero(t) + 1).tolist() for t in s.partition],
        "readings": {
            "shape": [s.N, s.K, s.M],
            "nonzero": [
                [j + 1, k + 1, f + 1, _complex_out(z)]
                for j, k, f, z in zip(js.tolist(), ks.tolist(), s.params[ls].tolist(),
                                      s.values[js, ks, ls].tolist())
            ],
        },
    }
    h = s.health
    doc["health"] = {"kind": h.kind, "n": h.n}
    if h.kind == "selection_matrix":  # one nonzero weight per row, found in row order
        rows, c = np.nonzero(h.weights)
        doc["health"]["rows"] = [[i + 1, f + 1, _complex_out(w)] for i, f, w in zip(
            rows.tolist(), h.cols[c].tolist(), h.weights[rows, c].tolist())]
    else:
        doc["health"]["matrix"] = [[_complex_out(z) for z in row] for row in h.weights.tolist()]
    return doc


def _of_type(kind):
    """The exact JSON type ``kind``; a bool is not an int."""

    def check(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    return check


_int = _of_type(int)


def _count(value) -> int:
    """A positive JSON int: a number of sensors, times or parameters."""
    if _int(value) < 1:
        raise ValueError(f"expected a positive count, got {value}")
    return value


def _check_indices(columns) -> None:
    """Refuse any index in ``columns``, an iterable of iterables, that is not a JSON int."""
    stray = set(map(type, chain.from_iterable(columns))) - {int}
    if stray:
        raise TypeError(f"expected int indices, found {sorted(t.__name__ for t in stray)}")


def _index_sets(value, N: int, M: int) -> np.ndarray:
    """N 1-based index lists, each index in 1..M, as an (N, M) bool mask."""
    if type(value) is not list or any(type(t) is not list for t in value):
        raise TypeError(f"expected {N} lists of indices")
    _check_indices(value)
    if len(value) != N:
        raise ValueError(f"expected {N} index lists, one per sensor, got {len(value)}")
    if any(t and (min(t) < 1 or max(t) > M) for t in value):  # before an int64 can overflow
        stray = sorted({f for f in chain.from_iterable(value) if not 1 <= f <= M})
        raise ValueError(f"parameter indices {stray} are outside 1..{M}")
    mask = np.zeros((N, M), dtype=bool)
    for row, indices in zip(mask, value):
        row[np.array(indices, dtype=np.int64) - 1] = True
    return mask


def _complex_array(value, shape: tuple) -> np.ndarray:
    """Nested lists of finite numbers and {re, im} objects as a complex array of
    ``shape``, in which a None length matches any.

    The lists are walked one level per dimension, with no object array; every
    list of a level must have the same length, and a level with no lists is
    refused.
    """
    level, dims = [value], []
    for want in shape:
        if any(type(v) is not list for v in level):
            raise TypeError(f"expected nested lists of shape {shape}, "
                            f"found a non-list at depth {len(dims)}")
        lengths = set(map(len, level))
        if len(lengths) != 1 or want not in (None, *lengths):
            raise ValueError(f"expected nested lists of shape {shape}, "
                             f"found lengths {sorted(lengths)} at depth {len(dims)}")
        dims.append(lengths.pop())
        level = list(chain.from_iterable(level))
    kinds = set(map(type, level))
    stray = sorted(t.__name__ for t in kinds - {int, float, dict})
    if stray:
        raise TypeError(f"expected numbers or {{re, im}} objects, found {stray}")
    if dict in kinds:
        level = [parse_complex(z) if type(z) is dict else z for z in level]
    out = np.array(level, dtype=np.complex128).reshape(dims)
    if not np.all(np.isfinite(out)):
        raise ValueError("entries must be finite")
    return out


def _readings(value, shape: tuple) -> tuple:
    """The readings of ``shape`` (N, K, M) as ``Scenario``'s (params, values),
    from dense nested lists or from ``{"shape": [N, K, M], "nonzero": [[j, k,
    f, value], ...]}`` with 1-based indices, each (j, k, f) at most once and
    every other entry 0.

    A shape of more than ``MAX_READINGS`` entries is refused before anything
    is allocated; the sparse form's ``shape`` must repeat the declared one.
    The sparse form keeps a column per distinct f of its entries and never
    allocates the N*K*M entries; dense lists keep their nonzero columns.
    """
    size = shape[0] * shape[1] * shape[2]
    if size > MAX_READINGS:
        raise ValueError(f"N*K*M = {size} entries, more than {MAX_READINGS}")
    if type(value) is not dict:
        return _live_columns(_complex_array(value, shape))
    if sorted(value) != ["nonzero", "shape"]:
        raise ValueError(f'expected keys "shape" and "nonzero", got {sorted(value)}')
    declared, entries = value["shape"], value["nonzero"]
    if type(declared) is not list or list(map(type, declared)) != [int] * 3 \
            or tuple(declared) != shape:
        raise ValueError(f"shape {declared!r} is not the declared [N, K, M] {list(shape)}")
    if type(entries) is not list or any(type(e) is not list or len(e) != 4 for e in entries):
        raise TypeError("nonzero must be a list of [j, k, f, value] entries")
    if not entries:
        return np.zeros(0, dtype=np.int64), np.zeros((*shape[:2], 0), dtype=np.complex128)
    index = [[e[c] for e in entries] for c in range(3)]
    values = [e[3] for e in entries]
    _check_indices(index)
    index = np.array(index, dtype=np.int64) - 1
    try:
        flat = np.ravel_multi_index(index, shape)
    except ValueError:
        raise ValueError("an entry (j, k, f) lies outside 1..N, 1..K, 1..M") from None
    ordered = np.sort(flat)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("an entry (j, k, f) appears more than once")
    params, col = np.unique(index[2], return_inverse=True)
    out = np.zeros((*shape[:2], params.size), dtype=np.complex128)
    out[index[0], index[1], col] = _complex_array(values, (flat.size,))
    return params, out


def _selection_rows(value, n: int, M: int) -> list:
    """1-based ``[i, f, scale]`` rows as one (f, scale) pair per output."""
    if type(value) is not list or len(value) != n:
        raise ValueError(f"needs one row per output 1..{n}")
    rows = [None] * n
    for i, f, scale in value:
        if not 1 <= _int(i) <= n:
            raise ValueError(f"row index {i} is outside 1..{n}")
        if not 1 <= _int(f) <= M:
            raise ValueError(f"parameter index {f} is outside 1..{M}")
        rows[i - 1] = (f - 1, complex(_complex_array(scale, ())))
    if None in rows:
        raise ValueError(f"needs one row per output 1..{n}")
    return rows


def _read(doc, key: str, convert, name: str | None = None):
    """``convert(doc[key])``; ValueError naming the key when absent or mistyped."""
    name = name or key
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"scenario key {name!r} is missing")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"scenario key {name!r} has a bad value: {err}") from None


def scenario_from_json_dict(doc: dict) -> Scenario:
    """Parse the layout :func:`scenario_to_json_dict` writes, or the same
    with the readings as dense (N, K, M) nested lists.

    A missing key, a value of the wrong type or shape, a non-finite entry or
    an index outside its range raises ValueError naming the key.
    """
    shape = tuple(_read(doc, key, _count) for key in ("N", "K", "M"))
    N, M = shape[0], shape[2]
    params, values = _read(doc, "readings", lambda v: _readings(v, shape))
    covering = _read(doc, "covering", lambda v: _index_sets(v, N, M))
    partition = _read(doc, "partition", lambda v: _index_sets(v, N, M))
    hdoc = _read(doc, "health", _of_type(dict))
    kind = _read(hdoc, "kind", _of_type(str), "health.kind")
    if kind == "selection_matrix":
        n = _read(hdoc, "n", _count, "health.n")
        health = _read(hdoc, "rows", lambda v: HealthMap.selection(n, _selection_rows(v, n, M)),
                       "health.rows")
    elif kind == "general_linear":
        health = _read(hdoc, "matrix", lambda v: HealthMap.linear(_complex_array(v, (None, M))),
                       "health.matrix")
        if "n" in hdoc and _read(hdoc, "n", _count, "health.n") != health.n:  # n is optional
            raise ValueError(f"scenario key 'health.n' has a bad value: {hdoc['n']}, "
                             f"but the matrix has {health.n} rows")
    else:
        raise ValueError(f"unknown health map kind {kind!r}")
    return Scenario(covering, partition, params, values, M, health)
