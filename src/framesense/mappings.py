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
returns: sensor j owns I_j = {i : owners[i] == j}.

The basis, frame and projective sets hold single-coordinate rows, so all three
read one audibility table, never the (n, N, K) images: ``G = |gamma|^T`` with
the failed sensor's column zeroed, and ``a_inf`` and ``a_2``, the max and 2-norm
of each coordinate's |alpha|.  Coordinate i's singular value is
``G[i, owners[i]] * a_inf[i]`` (basis), ``||G[i]|| * a_inf[i]`` (frame) or
``||G[i]|| * a_2[i]`` (projective).  Every set spans by the span rule of
``frames``, and coordinate i is heard when ``max(G[i]) * a_inf[i] > tol *
fac.scale``, the loudest image of the unfailed scenario.
"""

from __future__ import annotations

import numpy as np

from .frames import (
    DEFAULT_TOL, SpanCertificate, VectorSet, check_tol, owner_vector, span_certificate, span_rule,
)
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


def _audibility(fac: Factorization, failed: int | None) -> tuple:
    """The audibility table ``(G, a_inf, a_2)``; sensor j at time k hears
    coordinate i at modulus ``G[i, j] * |alpha_k(i)|``."""
    g = np.abs(fac.gamma.T)
    if failed is not None:
        g[:, failed] = 0.0
    return g, np.abs(fac.alpha).max(axis=0), np.linalg.norm(fac.alpha, axis=0)


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


def _coordinate_span_diagnostics(norms: np.ndarray, loudest: np.ndarray, scale: float,
                                 tol: float) -> dict:
    """Span diagnostics of rows ``e_i * v`` from each coordinate's ``norms`` and
    ``loudest`` modulus: the frame operator is ``diag(norms**2)``, so the norms
    are the singular values and e_i of the weakest coordinate is the witness;
    coordinate i is heard when ``loudest[i] > tol * scale``."""
    check_tol(tol)
    weakest = int(np.argmin(norms))  # smallest i on ties
    spans = span_rule(norms[weakest], norms.max(), tol)
    return {
        "spans": spans,
        "smallest_singular_value": float(norms[weakest]),
        "largest_singular_value": float(norms.max()),
        "missing_coordinates": np.flatnonzero(~(loudest > tol * scale)).tolist(),
        "witness": None if spans else [[float(i == weakest), 0.0] for i in range(norms.size)],
    }


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
    g, a_inf, _ = _audibility(fac, failed)
    # the image of coordinate i is e_i * its owner's value, so no direction repeats
    selected = g[np.arange(len(g)), owner_vector(owners, *g.shape[::-1])] * a_inf
    diag = _coordinate_span_diagnostics(selected, selected, fac.scale, tol)
    nonzero = np.flatnonzero(selected > tol * fac.scale).tolist()
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
    g, a_inf, _ = _audibility(fac, failed)
    top, top_j = g.max(axis=1) * a_inf, g.argmax(axis=1)  # smallest j on ties
    diag = _coordinate_span_diagnostics(np.linalg.norm(g, axis=1) * a_inf, top, fac.scale, tol)
    heard = np.flatnonzero(top > tol * fac.scale)
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
    g, a_inf, a_2 = _audibility(fac, failed)
    diag = _coordinate_span_diagnostics(
        np.linalg.norm(g, axis=1) * a_2, g.max(axis=1) * a_inf, fac.scale, tol)
    diag["cardinality"] = g.size * len(fac.alpha)
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

    ``schur_interval`` holds the extreme singular values of ``Y' = |gamma| *
    a_2``, the projective columns of the audibility table.  The images are
    ``|gamma_j(i) alpha_k(i)| = Y'_j(i) Z'_k(i)`` with ``Z' = |alpha| / a_2``,
    whose frame operator has a unit diagonal, so Schur's theorem on Hadamard
    products puts every singular value of the image set in the interval.  It
    is gauge-free, and None when the radiative hypothesis fails, which leaves
    some ``a_2[i]`` at 0.
    """
    gamma, alpha = fac.gamma, fac.alpha
    n_sensors, n = gamma.shape
    radiative = is_i_radiative(fac, tol)
    hyps = [
        _hypothesis("multiple_sensors", n_sensors > 1),
        _hypothesis("dimension_at_most_sensors", n <= n_sensors, note=f"n={n}, N={n_sensors}"),
        _coordinate_check("radiative", radiative),
        _coordinate_check("strongly_dominant", is_strongly_i_dominant(fac, tol)),
    ]
    w_all = np.abs(gamma[:, None, :] * alpha[None, :, :])  # (N, K, n)
    w_set = VectorSet(w_all.reshape(-1, n).astype(np.complex128))
    heard = np.any(w_all > tol * w_all.max(), axis=(0, 1))
    diag = _span_diagnostics(span_certificate(w_set, tol), heard)
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
    diag["schur_interval"] = None
    if radiative.all():
        g, _, a_2 = _audibility(fac, None)
        y = span_certificate(VectorSet(g.T * a_2), tol)
        diag["schur_interval"] = {"smallest_singular_value": y.smallest_singular_value,
                                  "largest_singular_value": y.largest_singular_value}
    return _report("strong_dominance_frame", hyps, diag["spans"] and independent, diag)
