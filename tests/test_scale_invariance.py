"""Readings in other units give the same verdicts.

Every tol test compares singular values in ratio form or a modulus with tol
times the largest modulus of its kind, so scaling a scenario's readings by c
changes no stdout, exit code, boolean, list or label of ``validate`` and
``theorems``.  Singular values and ``magnitude`` fields scale by c and every
other report float is unchanged.  The scales are powers of 4, so sqrt(c), the
share each balanced-gauge factor takes, is exact.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framesense import cli
from framesense.scenario import (
    HealthMap,
    Scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
SCALED_KEYS = {"smallest_singular_value", "largest_singular_value", "magnitude"}
EXPONENTS = st.integers(-40, 40)
TOLS = st.sampled_from(["1e-9", "1e-6"])


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def outcomes(s: Scenario, tol: str, workdir: Path) -> list:
    """``validate`` and ``theorems`` on ``s`` at ``--tol tol``, under no failure
    and under each ``--fail-sensor``: every run's exit code, stdout, stderr
    and reports."""
    path, out = workdir / "scenario.json", workdir / "out"
    path.write_text(json.dumps(scenario_to_json_dict(s)))
    runs = [(*run(["validate", str(path), "--tol", tol]), {})]
    for fail in [[]] + [["--fail-sensor", str(j)] for j in range(1, s.N + 1)]:
        shutil.rmtree(out, ignore_errors=True)
        code, stdout, stderr = run(["theorems", str(path), "--tol", tol, "--out", str(out), *fail])
        reports = {p.name: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
        runs.append((code, stdout, stderr, reports))
    return runs


def split(value, scaled: list, unchanged: list, key=None):
    """``value`` with each float replaced by a marker, the floats appended to
    ``scaled`` (under a singular value or magnitude key) or ``unchanged``."""
    if isinstance(value, dict):
        return {k: split(v, scaled, unchanged, k) for k, v in value.items()}
    if isinstance(value, list):
        return [split(v, scaled, unchanged, key) for v in value]
    if isinstance(value, float):
        (scaled if key in SCALED_KEYS else unchanged).append(value)
        return "<float>"
    return value


def assert_scale_free(s: Scenario, e: int, tol: str):
    c = 4.0**e
    with tempfile.TemporaryDirectory() as tmp:
        base = outcomes(s, tol, Path(tmp))
        moved = outcomes(dataclasses.replace(s, values=s.values * c), tol, Path(tmp))
    for (*printed, reports), (*printed_c, reports_c) in zip(base, moved):
        assert printed_c == printed  # exit code, stdout and stderr
        scaled, unchanged, scaled_c, unchanged_c = [], [], [], []
        assert split(reports_c, scaled_c, unchanged_c) == split(reports, scaled, unchanged)
        assert unchanged_c == unchanged
        assert scaled_c == pytest.approx([c * x for x in scaled], rel=1e-12, abs=0)


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
@settings(max_examples=20, deadline=None)
@given(e=EXPONENTS, tol=TOLS)
@example(e=-40, tol="1e-6")
@example(e=40, tol="1e-9")
def test_fixture_verdicts_do_not_depend_on_units(fixture, e, tol):
    assert_scale_free(scenario_from_json_dict(json.loads(fixture.read_text())), e, tol)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=EXPONENTS, tol=TOLS, dense_map=st.booleans())
def test_random_scenario_verdicts_do_not_depend_on_units(seed, e, tol, dense_map):
    rng = np.random.default_rng(seed)
    n_sensors, times, m = (int(x) for x in rng.integers(1, 5, 3))
    n = int(rng.integers(1, m + 1))

    def factor(count):
        # Moduli in [1/4, 4] or exactly 0, so coordinates go silent and sensors deaf.
        f = 4.0 ** rng.uniform(-1, 1, (count, m)) * np.exp(2j * np.pi * rng.random((count, m)))
        f[rng.random((count, m)) < 0.25] = 0.0
        return f

    if dense_map:  # a row reading one parameter is rank 1, two usually not
        health = HealthMap.linear(rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.4))
    else:
        rows = [(int(f), rng.uniform(0.5, 2)) for f in rng.integers(0, m, n)]
        health = HealthMap.selection(n, rows)
    assert_scale_free(Scenario.from_factors(factor(n_sensors), factor(times), health), e, tol)
