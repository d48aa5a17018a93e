"""Theorem verifiers for the two maps that fuse N sensors into one health vector.

The maps themselves are ``frames.basis_map`` and ``frames.frame_map``:

* the basis selection map reads each coordinate from the single sensor that
  owns it, ignoring everyone else — sharp, but a dead sensor silently zeroes
  every coordinate it owned;
* the magnitude-sum map adds |image| contributions from every sensor, so a
  coordinate survives as long as anyone can hear it.

The verify_* functions here check, on a concrete separated scenario, the
structural guarantees behind those maps: selection images form a basis (and
lose rank when an owner dies), magnitude images contain a multiplicative
frame (and keep spanning through a failure when the scenario is harmonious),
and strong dominance makes the raw magnitude images a frame on their own.
Each verifier is conservative: it asserts nothing when its hypotheses fail,
but still reports span diagnostics.

Each returns its report as the plain dict that ``theorems`` writes to
``theorem_<name>.json``: ``name``, ``hypotheses`` (each ``{"name", "ok",
"per_coordinate", "note"}``, ``per_coordinate`` a list or None),
``applicable`` (every hypothesis holds), ``conclusion`` (None unless
applicable) and ``diagnostics``.  A witness vector is written as
``[[re, im], ...]``.

Ownership is the (n,) int array ``owners`` that ``scenario.build_index_sets``
returns: sensor j owns I_j = {i : owners[i] == j}.  ``verify_basis_mapping``
certifies the images of ``basis_map`` itself, the function the detector's
basis pipeline calls.
"""

from __future__ import annotations

import numpy as np

from .frames import DEFAULT_TOL, SpanCertificate, VectorSet, basis_map, check_tol, span_certificate
from .scenario import (
    Factorization,
    is_i_dominant,
    is_i_radiative,
    is_j_harmonious,
    is_strongly_i_dominant,
)


def _hypothesis(name: str, ok: bool, per_coordinate=None, note: str = "") -> dict:
    return {"name": name, "ok": ok, "per_coordinate": per_coordinate, "note": note}


def _coordinate_check(name: str, flags: np.ndarray) -> dict:
    return _hypothesis(name, bool(flags.all()), flags.tolist())


def _report(name: str, hypotheses: list, conclusion: bool | None, diagnostics: dict) -> dict:
    """A verifier's report as ``theorems`` writes it.  It is applicable when
    every hypothesis holds, and asserts ``conclusion`` only then."""
    applicable = all(h["ok"] for h in hypotheses)
    return {
        "name": name,
        "hypotheses": hypotheses,
        "applicable": applicable,
        "conclusion": conclusion if applicable else None,
        "diagnostics": diagnostics,
    }


def _radiative_dominant_checks(fac: Factorization, tol: float) -> list:
    return [
        _coordinate_check("radiative", is_i_radiative(fac, tol)),
        _coordinate_check("dominant", is_i_dominant(fac, tol)),
    ]


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
    """The span fields of a report; the witness is written as ``[[re, im], ...]``."""
    witness = cert.witness
    return {
        "spans": cert.spans,
        "smallest_singular_value": cert.smallest_singular_value,
        "largest_singular_value": cert.largest_singular_value,
        "missing_coordinates": np.flatnonzero(~heard).tolist(),
        "witness": None if witness is None else np.stack([witness.real, witness.imag], -1).tolist(),
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
    owners,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
) -> dict:
    """Selection images of the radiative set form a basis plus the zero vector.

    The selection keeps each coordinate's value from its owner only.  With
    ``failed`` set, verifies the degradation instead: a non-operational
    owner with a nonempty owned set leaves the selection images short of
    spanning, missing exactly the owned coordinates.
    """
    hyps = _radiative_dominant_checks(fac, tol)
    if not all(h["ok"] for h in hyps):
        return _report("basis_mapping", hyps, None, {"note": "hypotheses unmet"})
    selected = basis_map(_peak_values(fac, failed).T, owners)  # (n,)
    # the image of coordinate i is e_i * selected[i], so no direction repeats
    diag = _coordinate_span_diagnostics(selected[:, None], tol)
    nonzero = np.flatnonzero(np.abs(selected) > tol).tolist()
    diag["nonzero_directions"] = nonzero
    diag["distinct_nonzero"] = len(nonzero)
    if failed is None:
        return _report("basis_mapping", hyps, len(nonzero) == selected.size and diag["spans"], diag)
    owns = bool(np.any(np.asarray(owners) == failed))
    hyps.append(_hypothesis("owned_set_nonempty", owns, note=f"sensor {failed} failed"))
    return _report("basis_mapping", hyps, not diag["spans"], diag)


def _failure_checks(fac: Factorization, owners, failed: int | None, tol: float) -> list:
    """The radiative and dominant checks, plus harmony at ``failed`` when it is set."""
    hyps = _radiative_dominant_checks(fac, tol)
    if failed is not None:
        harmonious = is_j_harmonious(fac, owners, failed, tol)
        hyps.append(_hypothesis("harmonious_at_failed", harmonious, note=f"sensor {failed} failed"))
    return hyps


def verify_frame_mapping(
    fac: Factorization,
    owners,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
) -> dict:
    """Magnitude images of the radiative set contain a multiplicative frame.

    With ``failed`` set the scenario must be harmonious at that sensor; the
    images (with the failed sensor silenced) are then still certified to span.
    """
    hyps = _failure_checks(fac, owners, failed, tol)
    if not all(h["ok"] for h in hyps[:2]):
        return _report("frame_mapping", hyps, None, {"note": "hypotheses unmet"})
    mags = np.abs(_peak_values(fac, failed))  # (n, N)
    diag = _coordinate_span_diagnostics(mags, tol)
    top, top_j = mags.max(axis=1), mags.argmax(axis=1)  # smallest j on ties
    heard = np.flatnonzero(top > tol)
    diag["per_coordinate_basis"] = [
        {"coordinate": i, "magnitude": mag, "label": [i, j]}
        for i, mag, j in zip(heard.tolist(), top[heard].tolist(), top_j[heard].tolist())
    ]
    return _report("frame_mapping", hyps, diag["spans"], diag)


def verify_projective_frame(
    fac: Factorization,
    owners,
    tol: float = DEFAULT_TOL,
    failed: int | None = None,
) -> dict:
    """The full single-coordinate image set (all times) is a multiplicative frame.

    With ``failed`` set, requires a harmonious scenario at that sensor and
    re-certifies the span with the failed sensor silenced.
    """
    hyps = _failure_checks(fac, owners, failed, tol)
    if not all(h["ok"] for h in hyps[:2]):
        return _report("projective_frame", hyps, None, {"note": "hypotheses unmet"})
    values = _image_values(fac, failed)
    diag = _coordinate_span_diagnostics(values, tol)
    diag["cardinality"] = values.size
    return _report("projective_frame", hyps, diag["spans"], diag)


def verify_strong_dominance_frame(
    fac: Factorization,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Under strong dominance the NK magnitude images form a multiplicative frame.

    Extracts the candidate basis (per coordinate: the sensor of largest
    |gamma| paired with the time of largest |alpha|), certifies its
    independence, and certifies that the full magnitude image set spans.
    Needs more sensors than health dimensions; when that fails the span
    check still runs but no conclusion is asserted.  Each coordinate's
    ``dominance_ratio`` is (N - 1) * runner-up / top of its |gamma| column,
    which a per-coordinate gauge leaves unchanged and strong dominance needs
    below 1; it is None where the column is 0.
    """
    gamma, alpha = fac.gamma, fac.alpha
    n_sensors, n = gamma.shape
    hyps = [
        _hypothesis("multiple_sensors", n_sensors > 1),
        _hypothesis("dimension_at_most_sensors", n <= n_sensors, note=f"n={n}, N={n_sensors}"),
        _coordinate_check("radiative", is_i_radiative(fac, tol)),
        _coordinate_check("strongly_dominant", is_strongly_i_dominant(fac, tol)),
    ]
    w_all = np.abs(gamma[:, None, :] * alpha[None, :, :])  # (N, K, n)
    w_set = VectorSet(w_all.reshape(-1, n).astype(np.complex128))
    diag = _span_diagnostics(span_certificate(w_set, tol), np.any(w_all > tol, axis=(0, 1)))
    diag["cardinality"] = w_set.count
    j_star = np.argmax(np.abs(gamma), axis=0)
    k_star = np.argmax(np.abs(alpha), axis=0)
    candidate = gamma[j_star] * alpha[k_star]
    diag["candidate_basis_labels"] = np.stack([j_star, k_star], -1).tolist()
    ranked = np.sort(np.abs(gamma), axis=0)  # ascending per coordinate
    runner_up = ranked[-2] if n_sensors > 1 else np.zeros(n)
    diag["dominance_margins"] = [
        {"coordinate": i, "dominance_ratio": (n_sensors - 1) * second / top if top else None}
        for i, (top, second) in enumerate(zip(ranked[-1].tolist(), runner_up.tolist()))
    ]
    independent = span_certificate(VectorSet(candidate), tol).spans
    diag["candidate_basis_independent"] = independent
    return _report("strong_dominance_frame", hyps, diag["spans"] and independent, diag)
