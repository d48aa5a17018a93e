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

from .frames import DEFAULT_TOL, SpanCertificate, VectorSet, check_tol, span_certificate
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


def _coordinate_check(name: str, flags: np.ndarray) -> HypothesisCheck:
    return HypothesisCheck(name, bool(flags.all()), tuple(flags.tolist()))


def _radiative_dominant_checks(fac: Factorization, tol: float):
    return (
        _coordinate_check("radiative", is_i_radiative(fac, tol)),
        _coordinate_check("dominant", is_i_dominant(fac, tol)),
    )


def _image_values(fac: Factorization, failed: int | None) -> np.ndarray:
    """Single-coordinate image values gamma_j(i) * alpha_k(i) as an (n, N, K) array.

    A failed sensor's gamma row is zeroed.
    """
    gamma = fac.gamma.T.copy()  # (n, N)
    if failed is not None:
        gamma[:, failed] = 0.0
    return gamma[:, :, None] * fac.alpha.T[:, None, :]


def _peak_values(fac: Factorization, failed: int | None) -> np.ndarray:
    """The (n, N) radiative-set values, at each coordinate's peak time.

    The peak time of coordinate i maximizes |alpha_k(i)|, the smallest k on ties.
    """
    n = fac.alpha.shape[1]
    peak = np.argmax(np.abs(fac.alpha), axis=0)
    return _image_values(fac, failed)[np.arange(n), :, peak]


def _span_diagnostics(cert: SpanCertificate, heard: np.ndarray) -> dict:
    return {
        "spans": cert.spans,
        "smallest_singular_value": cert.smallest_singular_value,
        "largest_singular_value": cert.largest_singular_value,
        "missing_coordinates": np.flatnonzero(~heard).tolist(),
        "witness": cert.witness,
    }


def _coordinate_span_diagnostics(values: np.ndarray, tol: float) -> dict:
    """Span diagnostics of the rows ``e_i * values[i, ...]``, in closed form.

    Their frame operator is ``diag(||values[i]||^2)``, so the singular values
    are the row norms, and e_i of the weakest coordinate is the witness.
    """
    check_tol(tol)
    per = values.reshape(values.shape[0], -1)
    norms = np.linalg.norm(per, axis=1)
    weakest = int(np.argmin(norms))  # smallest i on ties
    spans = bool(norms[weakest] ** 2 > tol)  # the test span_certificate applies
    witness = None if spans else np.eye(len(norms), dtype=np.complex128)[weakest]
    cert = SpanCertificate(spans, witness, float(norms[weakest]), float(norms.max()))
    return _span_diagnostics(cert, np.any(np.abs(per) > tol, axis=1))


def verify_basis_mapping(
    fac: Factorization,
    assign: IndexAssignment,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
) -> TheoremReport:
    """Selection images of the radiative set form a basis plus the zero vector.

    The selection keeps each coordinate's value from its owner only.  With
    ``failed`` set, verifies the degradation instead: a non-operational
    owner with a nonempty owned set leaves the selection images short of
    spanning, missing exactly the owned coordinates.
    """
    hyps = _radiative_dominant_checks(fac, tol)
    if not all(h.ok for h in hyps):
        return TheoremReport("basis_mapping", hyps, None, {"note": "hypotheses unmet"})
    values = _peak_values(fac, failed)
    owned = assign.owners()[:, None] == np.arange(values.shape[1])
    selected = np.where(owned, values, 0.0)
    diag = _coordinate_span_diagnostics(selected, tol)
    nonzero = np.nonzero(np.abs(selected) > tol)[0].tolist()  # ascending
    diag["nonzero_directions"] = nonzero
    diag["distinct_nonzero"] = len(set(nonzero))
    n = values.shape[0]
    if failed is None:
        conclusion = len(nonzero) == n and len(set(nonzero)) == n and diag["spans"]
    else:
        hyps = hyps + (
            HypothesisCheck(
                "owned_set_nonempty", len(assign.I[failed]) > 0, None,
                f"sensor {failed} failed",
            ),
        )
        conclusion = (not diag["spans"]) if all(h.ok for h in hyps) else None
    return TheoremReport("basis_mapping", hyps, conclusion, diag)


def _harmony_check(fac: Factorization, assign, failed: int, tol: float):
    if assign is None:
        raise ValueError("failure injection needs the index assignment")
    return HypothesisCheck(
        "harmonious_at_failed",
        is_j_harmonious(fac, assign, failed, tol),
        None,
        f"sensor {failed} failed",
    )


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
        hyps = hyps + (_harmony_check(fac, assign, failed, tol),)
    if not all(h.ok for h in hyps[:2]):
        return TheoremReport("frame_mapping", hyps, None, {"note": "hypotheses unmet"})
    mags = np.abs(_peak_values(fac, failed))  # (n, N)
    diag = _coordinate_span_diagnostics(mags, tol)
    loudest, loudest_j = mags.max(axis=1), mags.argmax(axis=1)  # smallest j on ties
    heard = np.flatnonzero(loudest > tol)
    diag["per_coordinate_basis"] = [
        {"coordinate": i, "magnitude": mag, "label": [i, j]}
        for i, mag, j in zip(
            heard.tolist(), loudest[heard].tolist(), loudest_j[heard].tolist()
        )
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
        hyps = hyps + (_harmony_check(fac, assign, failed, tol),)
    if not all(h.ok for h in hyps[:2]):
        return TheoremReport(
            "projective_frame", hyps, None, {"note": "hypotheses unmet"}
        )
    values = _image_values(fac, failed)
    diag = _coordinate_span_diagnostics(values, tol)
    diag["cardinality"] = values.size
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
    hyps = (
        HypothesisCheck("multiple_sensors", n_sensors > 1),
        HypothesisCheck(
            "dimension_at_most_sensors", n <= n_sensors,
            note=f"n={n}, N={n_sensors}",
        ),
        _coordinate_check("radiative", is_i_radiative(fac, tol)),
        _coordinate_check("strongly_dominant", is_strongly_i_dominant(fac, tol)),
    )
    w_all = np.abs(gamma[:, None, :] * alpha[None, :, :])  # (N, K, n)
    w_set = VectorSet(w_all.reshape(-1, n).astype(np.complex128))
    diag = _span_diagnostics(span_certificate(w_set, tol), np.any(w_all > tol, axis=(0, 1)))
    diag["cardinality"] = w_set.count
    j_star = np.argmax(np.abs(gamma), axis=0)
    k_star = np.argmax(np.abs(alpha), axis=0)
    candidate = gamma[j_star] * alpha[k_star]
    diag["candidate_basis_labels"] = list(zip(j_star.tolist(), k_star.tolist()))
    ranked = np.sort(np.abs(gamma), axis=0)  # ascending per coordinate
    runner_up = ranked[-2] if n_sensors > 1 else np.zeros(n)
    diag["dominance_margins"] = [
        {"coordinate": i, "loudest": loud, "runner_up_bound": bound}
        for i, (loud, bound) in enumerate(
            zip(ranked[-1].tolist(), ((n_sensors - 1) * runner_up).tolist())
        )
    ]
    cand_cert = span_certificate(VectorSet(candidate), tol)
    diag["candidate_basis_independent"] = cand_cert.spans
    applicable = all(h.ok for h in hyps)
    conclusion = (diag["spans"] and cand_cert.spans) if applicable else None
    return TheoremReport("strong_dominance_frame", hyps, conclusion, diag)
