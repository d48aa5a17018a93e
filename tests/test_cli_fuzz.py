"""Property tests of the command line's input surface, run in-process through ``cli.main``.

Valid configs, ``generate`` manifests and the fixture scenario documents are
edited at one place each: a key or list entry dropped, a value replaced by
one of another type or by a non-finite or extreme number, or a list
reshaped.  No run may raise, every exit code is 0, 1 or 2, and a run that
exits 2 leaves no output directory.  ``generate``, ``detect`` and ``sweep``
must also agree on a config's exit code and error line.

Sizes stay small: configs keep a few samples and at most a handful of sweep
points whatever the edit, and huge sizes are left to the explicit cap tests
in ``test_cli.py``.  Scenario documents are fuzzed in both encodings of their
readings, dense nested lists and sparse nonzero entries.
"""

import contextlib
import copy
import io
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesense import cli
from framesense.scenario import scenario_from_json_dict, scenario_to_json_dict

FIXTURES = Path(__file__).parent / "fixtures"

# Derandomized, so every run of the suite tries the same edits.
FUZZ = dict(deadline=None, derandomize=True, database=None)

# A valid config with every key set.  The keys that size a run are never
# dropped, which would restore a default sized for real runs, and are replaced
# only by SMALL_VALUES.
BASE_CONFIG = {
    **cli.config_defaults(),
    "samples_per_state": 2,
    "sweep_samples_per_point": 2,
    "snr_lo": -2.0,
    "snr_hi": 0.0,
    "snr_step": 1.0,
}
SIZE_KEYS = ("samples_per_state", "sweep_samples_per_point", "snr_lo", "snr_hi", "snr_step")

# Replacements: other JSON types, and numbers at or past the edges of what
# float64 and the simulator can represent.  As a size, each of SMALL_VALUES
# asks for at most 3 samples or 5 sweep points.  Huge integers replace only
# config keys that size no array, and scenario document values (see
# SCENARIO_VALUES): a regressed size check must not make the test allocate
# its way out of memory, and the cap tests in test_cli.py cover huge sizes.
SMALL_VALUES = [None, True, "x", [], {}, 0, -1, 1, 3, 0.0, -0.0, -1.0, 0.5,
                math.nan, math.inf, -math.inf]
DOC_VALUES = SMALL_VALUES + [5e-324, 1e308, -1e308, -6140.0]
CONFIG_VALUES = DOC_VALUES + [2**31, 2**63, 2**1100]
# A scenario document's sizes are checked against the lists it holds, or
# against scenario.MAX_READINGS, before anything is allocated.
SCENARIO_VALUES = DOC_VALUES + [2**31, 2**63]


def _paths(doc, prefix=()):
    """Every place in a JSON document, the root excluded, as a key path."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


@st.composite
def edited(draw, doc, values=DOC_VALUES, sizes=()):
    """``doc`` with one place dropped, replaced by one of ``values`` or, for a
    list, reshaped; a key in ``sizes`` is only replaced, by one of ``SMALL_VALUES``."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    ops = ["replace"] + (["drop"] if path[-1] not in sizes else [])
    ops += ["nest", "truncate", "repeat"] if isinstance(node, list) and node else []
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[path[-1]]
    elif op == "replace":
        parent[path[-1]] = draw(st.sampled_from(SMALL_VALUES if path[-1] in sizes else values))
    else:
        parent[path[-1]] = {"nest": [node], "truncate": node[:-1], "repeat": node + node[:1]}[op]
    return doc


def run(argv):
    """``cli.main(argv)``'s exit code and first stderr line; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_IO)
    return code, err.getvalue().partition("\n")[0]


def check_run(argv, out: Path):
    code, first = run(argv + ["--out", str(out)])
    if code == cli.EXIT_IO:
        assert not out.exists(), f"exit 2 ({first}) left {out} behind"
    return code, first


@settings(max_examples=150, **FUZZ)
@given(config=edited(BASE_CONFIG, CONFIG_VALUES, SIZE_KEYS))
def test_config_edits_get_one_outcome_from_every_command(config, tmp_path_factory):
    work = tmp_path_factory.mktemp("config")
    path = work / "config.json"
    path.write_text(json.dumps(config))
    outcomes = {
        check_run([command, "--config", str(path)], work / command)
        for command in ("generate", "detect", "sweep")
    }
    assert len(outcomes) == 1, outcomes
    code, _ = outcomes.pop()
    if code != cli.EXIT_OK:
        assert not any((work / c).exists() for c in ("generate", "detect", "sweep"))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A ``generate`` run of the base config, and that config's path."""
    work = tmp_path_factory.mktemp("generated")
    config = work / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    assert run(["generate", "--config", str(config), "--out", str(work / "gen")])[0] == 0
    return work / "gen", config


@settings(max_examples=60, **FUZZ)
@given(data=st.data())
def test_manifest_edits_through_detect_data(generated, data, tmp_path_factory):
    gen, config = generated
    work = tmp_path_factory.mktemp("manifest")
    copy_root = work / "gen"
    shutil.copytree(gen, copy_root)
    cells = sorted(p.name for p in (copy_root / "datasets").iterdir())
    path = copy_root / "datasets" / data.draw(st.sampled_from(cells)) / "manifest.json"
    path.write_text(json.dumps(data.draw(edited(json.loads(path.read_text())))))
    check_run(["detect", "--config", str(config), "--data", str(copy_root)], work / "out")


SCENARIOS = {}
for _name in ("three_sensor_projection.json", "isolated_sensor.json"):
    SCENARIOS["dense_" + _name] = json.loads((FIXTURES / _name).read_text())
    SCENARIOS["sparse_" + _name] = scenario_to_json_dict(
        scenario_from_json_dict(SCENARIOS["dense_" + _name]))


@settings(max_examples=400, **FUZZ)
@given(data=st.data(), name=st.sampled_from(sorted(SCENARIOS)))
def test_scenario_edits_through_validate_and_theorems(data, name, tmp_path_factory):
    work = tmp_path_factory.mktemp("scenario")
    path = work / name
    path.write_text(json.dumps(data.draw(edited(SCENARIOS[name], SCENARIO_VALUES))))
    run(["validate", str(path)])
    check_run(["theorems", str(path)], work / "reports")
