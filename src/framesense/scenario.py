"""Sensing-scenario model: sensors, readings, factorization, and health space.

A scenario holds N sensors observing M parameters at K times.  Sensor j can
hear the parameters in its covering set T_j and bears primary responsibility
for the partition set S_j.  Readings factor (when the scenario is
pre-separable) into a per-sensor sensitivity profile and a per-time volume
profile, and a health map carries everything into a low-dimensional space
C^n where the same factorization persists.  The predicates at the bottom
(radiative, dominant, harmonious, operational) quantify which coordinates
are being emitted, heard, and shared between sensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .frames import DEFAULT_TOL, check_tol, parse_complex


class NotPreSeparableError(ValueError):
    """Readings fail the rank-1 factorization test at one or more parameters."""

    def __init__(self, offending):
        self.offending = tuple(int(f) for f in offending)
        super().__init__(
            f"readings have rank > 1 at parameter indices {list(self.offending)}"
        )


class NotSeparableError(ValueError):
    """No supported health-map route carries the factorization into C^n."""


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
    """Deterministic map C^M -> C^n with H(0) = 0.

    kind = "selection_matrix": rows are scaled rows of the identity, given as
    ``rows[i] = (f_i, scale_i)`` meaning output i reads ``scale_i * v[f_i]``.
    kind = "general_linear": an explicit n-by-M matrix.
    """

    n: int
    kind: str
    rows: tuple | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("health dimension must be positive")
        if self.kind == "selection_matrix":
            if self.rows is None or len(self.rows) != self.n:
                raise ValueError("selection map needs one (f, scale) row per output")
            rows = tuple((int(f), complex(s)) for f, s in self.rows)
            if any(s == 0 for _, s in rows):
                raise ValueError("selection scales must be nonzero")
            object.__setattr__(self, "rows", rows)
        elif self.kind == "general_linear":
            m = np.asarray(self.matrix, dtype=np.complex128)
            if m.shape[0] != self.n:
                raise ValueError("matrix row count must equal health dimension")
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"unknown health map kind {self.kind!r}")

    @classmethod
    def selection(cls, n, rows) -> "HealthMap":
        return cls(n=n, kind="selection_matrix", rows=tuple(rows))

    @classmethod
    def identity(cls, n) -> "HealthMap":
        return cls.selection(n, [(f, 1.0) for f in range(n)])

    @classmethod
    def linear(cls, matrix) -> "HealthMap":
        matrix = np.asarray(matrix, dtype=np.complex128)
        return cls(n=matrix.shape[0], kind="general_linear", matrix=matrix)

    def apply(self, v) -> np.ndarray:
        """Image of one vector; also accepts stacked (..., M) arrays."""
        v = np.asarray(v, dtype=np.complex128)
        if self.kind == "selection_matrix":
            f_idx = np.array([f for f, _ in self.rows])
            scales = np.array([s for _, s in self.rows])
            return v[..., f_idx] * scales
        return v @ self.matrix.T


@dataclass(frozen=True)
class Scenario:
    """Parameters, sensors, times, covering/partition, readings, health map.

    ``readings[j, k, f]`` is sensor j's value for parameter f at time k; it
    must vanish outside the sensor's covering set T_j.
    """

    covering: tuple
    partition: tuple
    readings: np.ndarray
    health: HealthMap

    def __post_init__(self):
        r = np.asarray(self.readings, dtype=np.complex128)
        if r.ndim != 3:
            raise ValueError("readings must have shape (N, K, M)")
        object.__setattr__(self, "readings", r)
        object.__setattr__(
            self, "covering", tuple(frozenset(int(f) for f in t) for t in self.covering)
        )
        object.__setattr__(
            self, "partition", tuple(frozenset(int(f) for f in s) for s in self.partition)
        )
        if len(self.covering) != r.shape[0] or len(self.partition) != r.shape[0]:
            raise ValueError("need one covering and one partition set per sensor")

    @property
    def N(self) -> int:
        return self.readings.shape[0]

    @property
    def K(self) -> int:
        return self.readings.shape[1]

    @property
    def M(self) -> int:
        return self.readings.shape[2]

    @property
    def n(self) -> int:
        return self.health.n

    def health_images(self) -> np.ndarray:
        """All H(v_jk) as an (N, K, n) array."""
        return self.health.apply(self.readings)

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
        readings = g[:, None, :] * a[None, :, :]
        if covering is None:
            covering = [range(m)] * n_sensors
        if partition is None:
            partition = [range(j, m, n_sensors) for j in range(n_sensors)]
        return cls(tuple(covering), tuple(partition), readings, health)


@dataclass(frozen=True)
class Factorization:
    """Sensitivity/volume factors realizing separability.

    ``gamma_hat`` (N, M) and ``alpha_hat`` (K, M) factor the raw readings;
    ``gamma`` (N, n) and ``alpha`` (K, n) factor the health images once
    :func:`separate` has filled them in.
    """

    gamma_hat: np.ndarray
    alpha_hat: np.ndarray
    gamma: np.ndarray | None = None
    alpha: np.ndarray | None = None

    def __post_init__(self):
        for name in ("gamma_hat", "alpha_hat", "gamma", "alpha"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.asarray(val, dtype=np.complex128))

    @property
    def separated(self) -> bool:
        return self.gamma is not None and self.alpha is not None

    def images(self) -> np.ndarray:
        """Health images gamma_j(i) * alpha_k(i) as an (N, K, n) array."""
        if not self.separated:
            raise ValueError("health-space factors not filled in; run separate()")
        return self.gamma[:, None, :] * self.alpha[None, :, :]

    @classmethod
    def from_health_factors(cls, gamma, alpha) -> "Factorization":
        """Factorization given directly in health space (identity raw factors)."""
        gamma = np.asarray(gamma, dtype=np.complex128)
        alpha = np.asarray(alpha, dtype=np.complex128)
        return cls(gamma_hat=gamma, alpha_hat=alpha, gamma=gamma, alpha=alpha)


@dataclass(frozen=True)
class IndexAssignment:
    """Covering sets J_j and the responsibility partition I_j of {0..n-1}."""

    J: tuple
    I: tuple

    def __post_init__(self):
        object.__setattr__(self, "J", tuple(frozenset(j) for j in self.J))
        object.__setattr__(
            self, "I", tuple(tuple(sorted(int(i) for i in s)) for s in self.I)
        )
        seen = [i for s in self.I for i in s]
        if len(seen) != len(set(seen)):
            raise ValueError("responsibility sets I_j must be disjoint")
        if set(seen) != set(range(len(seen))):
            raise ValueError("responsibility sets must partition 0..n-1")
        for j, owned in enumerate(self.I):
            if not set(owned) <= self.J[j]:
                raise ValueError(f"I_{j} is not contained in J_{j}")

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.I)

    def owners(self) -> np.ndarray:
        out = np.full(self.n, -1, dtype=int)
        for j, owned in enumerate(self.I):
            out[list(owned)] = j
        return out


@dataclass
class ValidityReport:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_scenario(s: Scenario, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check the structural invariants; violations are data, not exceptions."""
    check_tol(tol)
    violations = []
    all_params = set(range(s.M))
    covered = set().union(*s.covering) if s.covering else set()
    if covered != all_params:
        missing = sorted(all_params - covered)
        violations.append(f"covering misses parameters {missing}")
    for j in range(s.N):
        for l in range(j + 1, s.N):
            overlap = s.partition[j] & s.partition[l]
            if overlap:
                violations.append(
                    f"partition sets S_{j} and S_{l} overlap at {sorted(overlap)}"
                )
    partitioned = set().union(*s.partition) if s.partition else set()
    if partitioned != all_params:
        missing = sorted(all_params - partitioned)
        violations.append(f"partition misses parameters {missing}")
    for j in range(s.N):
        stray = s.partition[j] - s.covering[j]
        if stray:
            violations.append(f"S_{j} is not contained in T_{j} (extra {sorted(stray)})")
    for j in range(s.N):
        outside = sorted(all_params - s.covering[j])
        if not outside:
            continue
        block = np.abs(s.readings[j][:, outside])
        if np.any(block > tol):
            ks, fs = np.nonzero(block > tol)
            k, f = int(ks[0]), outside[int(fs[0])]
            violations.append(
                f"sensor {j} reports parameter {f} outside its covering "
                f"(first at time {k})"
            )
    return ValidityReport(ok=not violations, violations=violations)


def factor_readings(s: Scenario, tol: float = DEFAULT_TOL) -> Factorization:
    """Extract rank-1 factors of the readings at every parameter.

    At each parameter f the N-by-K matrix of readings must have numerical
    rank at most one; otherwise :class:`NotPreSeparableError` lists the
    offending parameters.  The per-parameter gauge is fixed so that the
    loudest sensor's factor is real and nonnegative.  Only parameters with a
    nonzero reading are decomposed: an all-zero one has top singular value 0,
    so it is silent and keeps both factors zero.
    """
    check_tol(tol)
    r = s.readings
    scale = max(1.0, float(np.max(np.abs(r)))) if r.size else 1.0
    nz = np.flatnonzero(np.any(r != 0, axis=(0, 1)))
    u, sv, vh = np.linalg.svd(r[:, :, nz].transpose(2, 0, 1), full_matrices=False)
    u0, top_sv, vh0 = u[:, :, 0], sv[:, 0], vh[:, 0, :]  # (F, N), (F,), (F, K)
    live = top_sv > tol * scale  # a silent parameter keeps both factors zero
    if sv.shape[1] > 1:
        offending = nz[live & (sv[:, 1] > tol * top_sv)]
        if offending.size:
            raise NotPreSeparableError(offending)
    top = np.take_along_axis(u0, np.argmax(np.abs(u0), axis=1)[:, None], axis=1)
    phase = np.conj(top) / np.abs(top)  # (F, 1)
    root = np.sqrt(top_sv)[:, None]
    gamma_hat = np.zeros((r.shape[0], r.shape[2]), dtype=np.complex128)
    alpha_hat = np.zeros((r.shape[1], r.shape[2]), dtype=np.complex128)
    gamma_hat[:, nz] = np.where(live[:, None], root * u0 * phase, 0.0).T
    alpha_hat[:, nz] = np.where(live[:, None], root * vh0 * np.conj(phase), 0.0).T
    return Factorization(gamma_hat=gamma_hat, alpha_hat=alpha_hat)


def volume_factors_constant(fac: Factorization, tol: float = DEFAULT_TOL) -> bool:
    """True iff each time's volume factor is constant across parameters.

    When this holds, any linear health map yields a separable scenario with
    gamma_j = A @ gamma_hat_j and a parameter-independent alpha_k.
    """
    a = fac.alpha_hat
    spread = np.max(np.abs(a - a.mean(axis=1, keepdims=True)), axis=1)
    limit = tol * np.maximum(1.0, np.max(np.abs(a), axis=1))
    return bool(np.all(spread <= limit))


def constant_volume_regauge(
    fac: Factorization, tol: float = DEFAULT_TOL
) -> Factorization | None:
    """Rewrite the factors so the volume factor is parameter-independent.

    The split of each reading into sensitivity and volume carries a free
    per-parameter scalar, so constancy across parameters is a property of
    one particular split.  A constant-volume split exists exactly when the
    per-parameter volume columns are parallel; this absorbs the
    per-parameter scale into the sensitivities and returns the rewritten
    factorization, or None when no such split exists.
    """
    a = fac.alpha_hat  # (K, M)
    norms = np.linalg.norm(a, axis=0)
    scale = float(norms.max()) if norms.size else 0.0
    live = norms > tol * max(1.0, scale)
    if not np.any(live):
        return fac  # everything silent: volumes are constantly zero
    u, sv, _ = np.linalg.svd(a[:, live])
    if sv.shape[0] > 1 and sv[1] > tol * sv[0]:
        return None
    common = u[:, 0] * sv[0]
    lam = np.zeros(a.shape[1], dtype=np.complex128)
    lam[live] = (common.conj() @ a[:, live]) / (np.linalg.norm(common) ** 2)
    return Factorization(
        gamma_hat=fac.gamma_hat * lam[None, :],
        alpha_hat=np.repeat(common[:, None], a.shape[1], axis=1),
    )


def separate(s: Scenario, fac: Factorization, tol: float = DEFAULT_TOL) -> Factorization:
    """Fill in the health-space factors gamma and alpha.

    Two routes are supported: a selection health map (always works), or a
    general linear map when a constant-volume split of the factors exists
    (regauging when needed).  The result satisfies
    H(v_jk)(i) = gamma_j(i) * alpha_k(i) within tol.
    """
    h = s.health
    if h.kind != "selection_matrix" and not volume_factors_constant(fac, tol):
        fac = constant_volume_regauge(fac, tol)
        if fac is None:
            raise NotSeparableError(
                "general linear health map requires a constant-volume "
                "split of the factors, and none exists"
            )
    gamma = h.apply(fac.gamma_hat)
    if h.kind == "selection_matrix":
        alpha = fac.alpha_hat[:, [f for f, _ in h.rows]]
    else:
        const = fac.alpha_hat.mean(axis=1)
        alpha = np.repeat(const[:, None], h.n, axis=1)
    result = Factorization(
        gamma_hat=fac.gamma_hat, alpha_hat=fac.alpha_hat, gamma=gamma, alpha=alpha
    )
    images = s.health_images()
    err = np.max(np.abs(images - result.images()))
    if err > tol * max(1.0, float(np.max(np.abs(images)))):
        raise NotSeparableError(
            f"factor products deviate from health images by {err:.3e}"
        )
    return result


def build_index_sets(images: np.ndarray, tol: float = DEFAULT_TOL) -> IndexAssignment:
    """Assign each health coordinate to the sensor that hears it loudest.

    ``images`` is the (N, K, n) array of health images.  J_j collects the
    coordinates sensor j ever hears above tol; each coordinate then goes to
    the sensor with the largest peak magnitude (ties to the smallest j).
    Raises :class:`UncoverableIndexError` for coordinates in no J_j.
    """
    images = np.asarray(images)
    peak = np.max(np.abs(images), axis=1)  # (N, n)
    audible = peak > tol
    silent = np.flatnonzero(~audible.any(axis=0))
    if silent.size:
        raise UncoverableIndexError(silent)
    owners = np.argmax(peak, axis=0)  # argmax ties break to smallest j
    return IndexAssignment(
        J=tuple(frozenset(np.flatnonzero(heard).tolist()) for heard in audible),
        I=tuple(np.flatnonzero(owners == j).tolist() for j in range(len(peak))),
    )


def is_i_radiative(fac: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per coordinate i: some time emits it, |alpha_k(i)| > tol for some k."""
    return np.any(np.abs(fac.alpha) > tol, axis=0)


def is_i_dominant(fac: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per coordinate i: some sensor hears it, |gamma_j(i)| > tol for some j."""
    return np.any(np.abs(fac.gamma) > tol, axis=0)


def is_strongly_i_dominant(fac: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per coordinate i: one audible sensor out-hears every other by (N - 1), strictly.

    Only the loudest sensor can qualify, so it is compared with the runner-up.
    """
    mags = np.sort(np.abs(fac.gamma), axis=0)  # (N, n), ascending per coordinate
    n_sensors = mags.shape[0]
    runner_up = mags[-2] if n_sensors > 1 else 0.0
    return (mags[-1] > tol) & (mags[-1] > (n_sensors - 1) * runner_up)


def is_j_harmonious(
    fac: Factorization, assign: IndexAssignment, j: int, tol: float = DEFAULT_TOL
) -> bool:
    """Every coordinate sensor j owns is audible to some other sensor.

    Vacuously true when I_j is empty.  The negation (some owned coordinate
    heard only by j) is the j-disjoint case.
    """
    others = np.delete(np.abs(fac.gamma[:, list(assign.I[j])]), j, axis=0)
    return bool(np.all(np.any(others > tol, axis=0)))


def is_harmonious(
    fac: Factorization, assign: IndexAssignment, tol: float = DEFAULT_TOL
) -> bool:
    return all(is_j_harmonious(fac, assign, j, tol) for j in range(len(assign.I)))


@dataclass(frozen=True)
class SensorStatus:
    status: str  # "operational" | "non_operational" | "undefined"
    failed: tuple = ()  # (position, coordinate) pairs within I_j


def sensor_status(
    fac: Factorization, assign: IndexAssignment, j: int, tol: float = DEFAULT_TOL
) -> SensorStatus:
    """Operational iff gamma_j is nonzero on every coordinate the sensor owns."""
    owned = assign.I[j]
    if not owned:
        return SensorStatus(status="undefined")
    silent = np.flatnonzero(np.abs(fac.gamma[j, list(owned)]) <= tol)
    if silent.size:
        failed = tuple((int(ell), owned[ell]) for ell in silent)
        return SensorStatus(status="non_operational", failed=failed)
    return SensorStatus(status="operational")


def _complex_out(z: complex):
    if z.imag == 0.0:
        return z.real
    return {"re": z.real, "im": z.imag}


def scenario_to_json_dict(s: Scenario) -> dict:
    """Serialize with 1-based index sets and {re, im} complex entries."""
    doc = {
        "M": s.M,
        "N": s.N,
        "K": s.K,
        "covering": [sorted(f + 1 for f in t) for t in s.covering],
        "partition": [sorted(f + 1 for f in t) for t in s.partition],
        "readings": [
            [[_complex_out(complex(z)) for z in row] for row in sensor]
            for sensor in s.readings
        ],
    }
    h = s.health
    if h.kind == "selection_matrix":
        doc["health"] = {
            "kind": "selection_matrix",
            "n": h.n,
            "rows": [
                [i + 1, f + 1, _complex_out(scale)]
                for i, (f, scale) in enumerate(h.rows)
            ],
        }
    else:
        doc["health"] = {
            "kind": "general_linear",
            "n": h.n,
            "matrix": [[_complex_out(complex(z)) for z in row] for row in h.matrix],
        }
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


def _index_sets(value, N: int, M: int) -> list:
    """N 1-based index lists, each index in 1..M, as 0-based frozensets."""
    sets = [frozenset(_int(f) - 1 for f in t) for t in value]
    if len(sets) != N:
        raise ValueError(f"expected {N} index lists, one per sensor, got {len(sets)}")
    stray = sorted(f + 1 for f in set().union(*sets) if not 0 <= f < M)
    if stray:
        raise ValueError(f"parameter indices {stray} are outside 1..{M}")
    return sets


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


def _selection_rows(value, n: int, M: int) -> list:
    """1-based ``[i, f, scale]`` rows as one (f, scale) pair per output."""
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
    """Parse the layout :func:`scenario_to_json_dict` writes.

    A missing key, a value of the wrong type or shape, a non-finite entry or
    an index outside its range raises ValueError naming the key.
    """
    shape = tuple(_read(doc, key, _count) for key in ("N", "K", "M"))
    N, M = shape[0], shape[2]
    readings = _read(doc, "readings", lambda v: _complex_array(v, shape))
    covering = _read(doc, "covering", lambda v: _index_sets(v, N, M))
    partition = _read(doc, "partition", lambda v: _index_sets(v, N, M))
    hdoc = _read(doc, "health", _of_type(dict))
    kind = _read(hdoc, "kind", _of_type(str), "health.kind")
    if kind == "selection_matrix":
        n = _read(hdoc, "n", _int, "health.n")
        health = _read(hdoc, "rows", lambda v: HealthMap.selection(n, _selection_rows(v, n, M)),
                       "health.rows")
    elif kind == "general_linear":
        health = _read(hdoc, "matrix", lambda v: HealthMap.linear(_complex_array(v, (None, M))),
                       "health.matrix")
    else:
        raise ValueError(f"unknown health map kind {kind!r}")
    return Scenario(tuple(covering), tuple(partition), readings, health)
