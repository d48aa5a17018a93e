"""Maps from stacked sensor output into health space, and their guarantees.

Two ways to fuse N sensors' readings into one health vector:

* the basis selection map reads each coordinate from the single sensor that
  owns it, ignoring everyone else — sharp, but a dead sensor silently zeroes
  every coordinate it owned;
* the magnitude-sum map adds |image| contributions from every sensor, so a
  coordinate survives as long as anyone can hear it.

The verify_* functions check, on a concrete separated scenario, the
structural guarantees behind those maps: selection images form a basis (and
lose rank when an owner dies), magnitude images contain a multiplicative
frame (and keep spanning through a failure when the scenario is harmonious),
and strong dominance makes the raw magnitude images a frame on their own.
Each verifier is conservative: it asserts nothing when its hypotheses fail,
but still reports span diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import DEFAULT_TOL, VectorSet, span_certificate
from .scenario import (
    Factorization,
    HealthMap,
    IndexAssignment,
    is_i_dominant,
    is_i_radiative,
    is_j_harmonious,
    is_strongly_i_dominant,
)


def basis_map(blocks, health: HealthMap, assign: IndexAssignment) -> np.ndarray:
    """Fuse stacked ``(..., N, M)`` blocks by reading each coordinate from its owner.

    Coordinate i of the ``(..., n)`` output is sensor ``owners()[i]``'s health
    image at i; every other sensor's block is ignored.
    """
    blocks = np.asarray(blocks, dtype=np.complex128)
    if assign.n != health.n:
        raise ValueError(
            f"assignment covers {assign.n} coordinates, health space has {health.n}"
        )
    images = health.apply(blocks)
    return images[..., assign.owners(), np.arange(health.n)]


def frame_map(blocks, health: HealthMap) -> np.ndarray:
    """Fuse stacked ``(..., N, M)`` blocks by summing magnitude images over sensors.

    Output is complex-typed with zero imaginary part so every mapping output
    shares one vector type.
    """
    blocks = np.asarray(blocks, dtype=np.complex128)
    return np.abs(health.apply(blocks)).sum(axis=-2).astype(np.complex128)


@dataclass(frozen=True)
class ProjectiveSet:
    """Single-coordinate image vectors, one per label.

    kind "Z_radiative": one vector per (coordinate, sensor) using, for each
    coordinate, a time with maximal volume; cardinality n*N.
    kind "X_full": one vector per (coordinate, sensor, time); cardinality n*N*K.
    """

    vectors: VectorSet
    kind: str
    times: tuple | None = None  # chosen time per coordinate (Z only)


def radiative_projection_set(
    fac: Factorization, tol: float = DEFAULT_TOL
) -> ProjectiveSet:
    """The nN single-coordinate vectors built from per-coordinate peak times.

    For each coordinate i the time k_i maximizes |alpha_k(i)| (smallest k on
    ties) and must be audible; a silent coordinate is a radiativity failure.
    """
    gamma, alpha = fac.gamma, fac.alpha
    n = gamma.shape[1]
    k_star = np.argmax(np.abs(alpha), axis=0)
    dead = [i for i in range(n) if np.abs(alpha[k_star[i], i]) <= tol]
    if dead:
        raise ValueError(f"coordinates {dead} are not radiative at any time")
    rows = []
    labels = []
    for i in range(n):
        for j in range(gamma.shape[0]):
            vec = np.zeros(n, dtype=np.complex128)
            vec[i] = gamma[j, i] * alpha[k_star[i], i]
            rows.append(vec)
            labels.append((i, j))
    return ProjectiveSet(
        vectors=VectorSet(np.array(rows), tuple(labels)),
        kind="Z_radiative",
        times=tuple(int(k) for k in k_star),
    )


def full_projection_set(fac: Factorization) -> ProjectiveSet:
    """All nNK single-coordinate image vectors, labeled (i, j, k)."""
    gamma, alpha = fac.gamma, fac.alpha
    n_sensors, n = gamma.shape
    n_times = alpha.shape[0]
    rows = []
    labels = []
    for i in range(n):
        for j in range(n_sensors):
            for k in range(n_times):
                vec = np.zeros(n, dtype=np.complex128)
                vec[i] = gamma[j, i] * alpha[k, i]
                rows.append(vec)
                labels.append((i, j, k))
    return ProjectiveSet(vectors=VectorSet(np.array(rows), tuple(labels)), kind="X_full")


def apply_basis_selection(pset: ProjectiveSet, assign: IndexAssignment) -> VectorSet:
    """Keep each single-coordinate vector only if its sensor owns the coordinate."""
    owners = assign.owners()
    rows = np.array(
        [
            vec if owners[lab[0]] == lab[1] else np.zeros_like(vec)
            for vec, lab in zip(pset.vectors.matrix, pset.vectors.labels)
        ]
    )
    return VectorSet(rows, pset.vectors.labels)


def apply_magnitude_map(pset: ProjectiveSet) -> VectorSet:
    """Coordinatewise magnitudes of the single-coordinate vectors."""
    return VectorSet(
        np.abs(pset.vectors.matrix).astype(np.complex128), pset.vectors.labels
    )


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    ok: bool
    per_coordinate: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one structural verification run."""

    name: str
    hypotheses: tuple
    conclusion: bool | None  # None when some hypothesis failed
    diagnostics: dict

    @property
    def applicable(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "hypotheses": [
                {
                    "name": h.name,
                    "ok": h.ok,
                    "per_coordinate": list(h.per_coordinate)
                    if h.per_coordinate is not None
                    else None,
                    "note": h.note,
                }
                for h in self.hypotheses
            ],
            "applicable": self.applicable,
            "conclusion": self.conclusion,
            "diagnostics": {
                key: _jsonable(value) for key, value in self.diagnostics.items()
            },
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[z.real, z.imag] for z in value.ravel()]
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _radiative_dominant_checks(fac: Factorization, tol: float):
    n = fac.gamma.shape[1]
    rad = tuple(is_i_radiative(fac, i, tol) for i in range(n))
    dom = tuple(is_i_dominant(fac, i, tol) for i in range(n))
    return (
        HypothesisCheck("radiative", all(rad), rad),
        HypothesisCheck("dominant", all(dom), dom),
    )


def _with_failed_sensor(fac: Factorization, failed: int | None) -> Factorization:
    if failed is None:
        return fac
    gamma = fac.gamma.copy()
    gamma[failed] = 0.0
    return Factorization(
        gamma_hat=fac.gamma_hat, alpha_hat=fac.alpha_hat, gamma=gamma, alpha=fac.alpha
    )


def _span_diagnostics(vectors: VectorSet, tol: float) -> dict:
    cert = span_certificate(vectors, tol)
    mags = np.abs(vectors.matrix)
    missing = [
        int(i) for i in range(vectors.dim) if not np.any(mags[:, i] > tol)
    ]
    return {
        "spans": cert.spans,
        "smallest_singular_value": cert.smallest_singular_value,
        "largest_singular_value": cert.largest_singular_value,
        "missing_coordinates": missing,
        "witness": cert.witness,
    }


def verify_basis_mapping(
    fac: Factorization,
    assign: IndexAssignment,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
) -> TheoremReport:
    """Selection images of the radiative set form a basis plus the zero vector.

    With ``failed`` set, verifies the degradation instead: a non-operational
    owner with a nonempty owned set leaves the selection images short of
    spanning, missing exactly the owned coordinates.
    """
    hyps = _radiative_dominant_checks(fac, tol)
    effective = _with_failed_sensor(fac, failed)
    pset = radiative_projection_set(fac, tol) if all(h.ok for h in hyps) else None
    if pset is None:
        return TheoremReport("basis_mapping", hyps, None, {"note": "hypotheses unmet"})
    selected = apply_basis_selection(
        ProjectiveSet(
            VectorSet(
                _rebuild_values(effective, pset), pset.vectors.labels
            ),
            pset.kind,
            pset.times,
        ),
        assign,
    )
    diag = _span_diagnostics(selected, tol)
    nonzero = [
        int(np.argmax(np.abs(v))) for v in selected.matrix if np.any(np.abs(v) > tol)
    ]
    diag["nonzero_directions"] = sorted(nonzero)
    diag["distinct_nonzero"] = len(set(nonzero))
    if failed is None:
        conclusion = (
            len(nonzero) == selected.dim
            and len(set(nonzero)) == selected.dim
            and diag["spans"]
        )
    else:
        hyps = hyps + (
            HypothesisCheck(
                "owned_set_nonempty", len(assign.I[failed]) > 0, None,
                f"sensor {failed} failed",
            ),
        )
        conclusion = (not diag["spans"]) if all(h.ok for h in hyps) else None
    if not all(h.ok for h in hyps):
        conclusion = None
    return TheoremReport("basis_mapping", hyps, conclusion, diag)


def _rebuild_values(fac: Factorization, pset: ProjectiveSet) -> np.ndarray:
    """Re-evaluate a projective set's values against (possibly edited) factors."""
    rows = np.zeros_like(pset.vectors.matrix)
    for row, lab in zip(rows, pset.vectors.labels):
        i, j = lab[0], lab[1]
        k = lab[2] if len(lab) > 2 else pset.times[i]
        row[i] = fac.gamma[j, i] * fac.alpha[k, i]
    return rows


def verify_frame_mapping(
    fac: Factorization,
    assign: IndexAssignment,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
) -> TheoremReport:
    """Magnitude images of the radiative set contain a multiplicative frame.

    With ``failed`` set the scenario must be harmonious at that sensor; the
    images (with the failed sensor silenced) are then still certified to span.
    """
    hyps = _radiative_dominant_checks(fac, tol)
    if failed is not None:
        hyps = hyps + (
            HypothesisCheck(
                "harmonious_at_failed",
                is_j_harmonious(fac, assign, failed, tol),
                None,
                f"sensor {failed} failed",
            ),
        )
    if not all(h.ok for h in hyps[:2]):
        return TheoremReport("frame_mapping", hyps, None, {"note": "hypotheses unmet"})
    pset = radiative_projection_set(fac, tol)
    effective = _with_failed_sensor(fac, failed)
    values = _rebuild_values(effective, pset)
    mapped = VectorSet(np.abs(values).astype(np.complex128), pset.vectors.labels)
    diag = _span_diagnostics(mapped, tol)
    basis_rows = {}
    for vec, lab in zip(mapped.matrix, mapped.labels):
        i = lab[0]
        mag = float(np.abs(vec[i]))
        if mag > tol and mag > basis_rows.get(i, (0.0, None))[0]:
            basis_rows[i] = (mag, lab)
    diag["per_coordinate_basis"] = [
        {"coordinate": i, "magnitude": mag, "label": list(lab)}
        for i, (mag, lab) in sorted(basis_rows.items())
    ]
    conclusion = diag["spans"] if all(h.ok for h in hyps) else None
    return TheoremReport("frame_mapping", hyps, conclusion, diag)


def verify_projective_frame(
    fac: Factorization,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
    assign: IndexAssignment | None = None,
) -> TheoremReport:
    """The full single-coordinate image set (all times) is a multiplicative frame.

    With ``failed`` set, requires a harmonious scenario at that sensor
    (``assign`` must then be given) and re-certifies the span with the failed
    sensor silenced.
    """
    hyps = _radiative_dominant_checks(fac, tol)
    if failed is not None:
        if assign is None:
            raise ValueError("failure injection needs the index assignment")
        hyps = hyps + (
            HypothesisCheck(
                "harmonious_at_failed",
                is_j_harmonious(fac, assign, failed, tol),
                None,
                f"sensor {failed} failed",
            ),
        )
    if not all(h.ok for h in hyps[:2]):
        return TheoremReport(
            "projective_frame", hyps, None, {"note": "hypotheses unmet"}
        )
    effective = _with_failed_sensor(fac, failed)
    pset = full_projection_set(effective)
    diag = _span_diagnostics(pset.vectors, tol)
    diag["cardinality"] = pset.vectors.count
    conclusion = diag["spans"] if all(h.ok for h in hyps) else None
    return TheoremReport("projective_frame", hyps, conclusion, diag)


def verify_strong_dominance_frame(
    fac: Factorization,
    tol: float = DEFAULT_TOL,
) -> TheoremReport:
    """Under strong dominance the NK magnitude images form a multiplicative frame.

    Extracts the candidate basis (per coordinate: the loudest sensor paired
    with the loudest time), certifies its independence, and certifies that
    the full magnitude image set spans.  Needs more sensors than health
    dimensions; when that fails the span check still runs but no conclusion
    is asserted.
    """
    gamma, alpha = fac.gamma, fac.alpha
    n_sensors, n = gamma.shape
    rad = tuple(is_i_radiative(fac, i, tol) for i in range(n))
    strong = tuple(is_strongly_i_dominant(fac, i, n_sensors, tol) for i in range(n))
    hyps = (
        HypothesisCheck("multiple_sensors", n_sensors > 1),
        HypothesisCheck(
            "dimension_at_most_sensors", n <= n_sensors,
            note=f"n={n}, N={n_sensors}",
        ),
        HypothesisCheck("radiative", all(rad), rad),
        HypothesisCheck("strongly_dominant", all(strong), strong),
    )
    w_all = np.abs(gamma[:, None, :] * alpha[None, :, :])  # (N, K, n)
    labels = tuple((j, k) for j in range(n_sensors) for k in range(alpha.shape[0]))
    w_set = VectorSet(
        w_all.reshape(-1, n).astype(np.complex128), labels
    )
    diag = _span_diagnostics(w_set, tol)
    diag["cardinality"] = w_set.count
    j_star = np.argmax(np.abs(gamma), axis=0)
    k_star = np.argmax(np.abs(alpha), axis=0)
    candidate = np.array(
        [gamma[j_star[i]] * alpha[k_star[i]] for i in range(n)]
    )
    diag["candidate_basis_labels"] = [
        (int(j_star[i]), int(k_star[i])) for i in range(n)
    ]
    diag["dominance_margins"] = [
        {
            "coordinate": i,
            "loudest": float(np.abs(gamma[j_star[i], i])),
            "runner_up_bound": float(
                (n_sensors - 1)
                * np.max(np.abs(np.delete(gamma[:, i], j_star[i])))
                if n_sensors > 1
                else 0.0
            ),
        }
        for i in range(n)
    ]
    cand_cert = span_certificate(VectorSet(candidate), tol)
    diag["candidate_basis_independent"] = cand_cert.spans
    applicable = all(h.ok for h in hyps)
    conclusion = (diag["spans"] and cand_cert.spans) if applicable else None
    return TheoremReport("strong_dominance_frame", hyps, conclusion, diag)
