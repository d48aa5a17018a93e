import atexit
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from framesense import cli, detector, scenario, turbine
from framesense.scenario import MAX_READINGS, scenario_from_json_dict, scenario_to_json_dict

FIXTURES = Path(__file__).parent / "fixtures"
HARMONIOUS = str(FIXTURES / "three_sensor_projection.json")
ISOLATED = str(FIXTURES / "isolated_sensor.json")

SMALL_CONFIG = {"samples_per_state": 4, "sweep_samples_per_point": 4}


def write_config(tmp_path, extra=None):
    cfg = dict(SMALL_CONFIG)
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def sweep_snrs(tmp_path, text, out):
    """The sorted ``snr_db`` column of ``sweep --snr-range text``, two conditions by two levels each."""
    assert cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                     "--snr-range", text]) == 0
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().split()[1:]]
    snrs = sorted({float(r[0]) for r in rows})
    assert len(rows) == len(snrs) * 2 * 2
    return snrs


def refused_by_all(tmp_path, capsys, cfg):
    """The one error line ``generate``, ``detect`` and ``sweep`` print for config
    file ``cfg``; each must exit 2 and leave no output directory."""
    errors = set()
    for command in ("generate", "detect", "sweep"):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        errors.add(capsys.readouterr().err)
        assert not out.exists()
    assert len(errors) == 1, errors
    return errors.pop()


def sparse_doc(path):
    """The scenario document at ``path`` with its readings in the sparse encoding."""
    return scenario_to_json_dict(scenario_from_json_dict(json.loads(Path(path).read_text())))


def dense_doc(doc):
    """``doc`` with its sparse readings written out as dense nested lists."""
    n_sensors, n_times, m = doc["readings"]["shape"]
    lists = [[[0.0] * m for _ in range(n_times)] for _ in range(n_sensors)]
    for j, k, f, value in doc["readings"]["nonzero"]:
        lists[j - 1][k - 1][f - 1] = value
    return {**doc, "readings": lists}


def spectral_doc(times):
    """The zero-noise fleet spectra, states cycling normal / fault / failure."""
    cycle = [states for _, states in turbine.engine1_conditions()]
    scenario = turbine.dataset_scenario(
        turbine.default_fleet(), turbine.mixing_matrix(0.1), turbine.SimConfig(),
        [cycle[k % len(cycle)] for k in range(times)],
    )
    return scenario_to_json_dict(scenario)


def peak_bytes(argv):
    """``cli.main(argv)``'s exit code and the peak of memory traced while it runs."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SILENT_COORDINATE_2 = "domain error: health coordinates [2] are silent for every sensor\n"


def silent_coordinate_scenario(tmp_path):
    """The harmonious fixture with parameter 2, and so health coordinate 2, read as 0."""
    doc = json.loads(Path(HARMONIOUS).read_text())
    for sensor in doc["readings"]:
        sensor[0][1] = 0.0
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidate:
    def test_harmonious_fixture(self, capsys):
        assert cli.main(["validate", HARMONIOUS]) == 0
        out = capsys.readouterr().out
        assert "validity: OK" in out
        assert "separable: yes" in out
        assert "j=1: harmonious, operational" in out
        # strongly dominant at both coordinates
        assert out.count("yes  yes  yes") == 2

    def test_isolated_fixture_reports_disjoint(self, capsys):
        assert cli.main(["validate", ISOLATED]) == 0
        out = capsys.readouterr().out
        assert "j=3: disjoint" in out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["validate", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert cli.main(["validate", "no-such-file.json"]) == 2

    def test_rank_two_readings_reported(self, tmp_path, capsys):
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc["K"] = 2
        # two times whose per-parameter matrices have rank 2 at parameter 1
        doc["readings"] = [
            [[1, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 0]],
        ]
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pre-separable: no" in out
        assert "[1]" in out

    def test_rank_two_after_silent_parameters_keeps_its_index(self, tmp_path, capsys):
        # parameters 1-5 read all zeros and are not factored; parameter 6 has rank 2
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc.update(K=2, M=6, covering=[list(range(1, 7))] * 3,
                   partition=[[1, 2], [3, 4], [5, 6]])
        doc["readings"] = [[[0] * 5 + [float(j == k)] for k in range(2)] for j in range(3)]
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 0
        assert "pre-separable: no (rank > 1 at parameters [6])" in capsys.readouterr().out

    def test_silent_health_coordinate_is_a_domain_error(self, tmp_path, capsys):
        path = silent_coordinate_scenario(tmp_path)
        assert cli.main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "separable: yes" in captured.out
        assert captured.err == SILENT_COORDINATE_2

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda doc: doc.pop("covering"), "'covering'"),
            (lambda doc: doc["readings"][0][0].__setitem__(1, None), "'readings'"),
            (lambda doc: doc["health"].pop("kind"), "'health.kind'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, True), "'readings'"),
            (lambda doc: doc["health"]["rows"][0].__setitem__(1, 0), "'health.rows'"),
            (lambda doc: doc["health"]["rows"][0].__setitem__(1, 4), "'health.rows'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, "1"), "'readings'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, {"re": "1"}), "'readings'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, {"im": False}), "'readings'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, float("inf")), "'readings'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, float("nan")), "'readings'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, 10**400), "'readings'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, {"im": 1e400}), "'readings'"),
            (lambda doc: doc["readings"][0][0].pop(), "'readings'"),
            (lambda doc: doc["health"]["rows"][0].__setitem__(2, float("inf")), "'health.rows'"),
            (
                lambda doc: doc.__setitem__(
                    "health", {"kind": "general_linear", "matrix": [[1, float("inf"), 0]]}
                ),
                "'health.matrix'",
            ),
            (
                lambda doc: doc.__setitem__(
                    "health", {"kind": "general_linear", "matrix": [1, 0, 0]}
                ),
                "'health.matrix'",
            ),
            (
                lambda doc: doc.__setitem__(
                    "health", {"kind": "general_linear", "matrix": [[1, 0]]}
                ),
                "'health.matrix'",
            ),
            (lambda doc: doc["covering"].pop(), "'covering'"),
            (lambda doc: doc["covering"][0].__setitem__(0, 0), "'covering'"),
            (lambda doc: doc["covering"][0].append(4), "'covering'"),
            (lambda doc: doc["partition"][0].append(4), "'partition'"),
            (lambda doc: doc["readings"][0][0].__setitem__(0, [2.0]), "'readings'"),
            (lambda doc: doc["readings"][0].__setitem__(0, 2.0), "'readings'"),
            (lambda doc: doc.__setitem__("readings", []), "'readings'"),
            (
                lambda doc: doc.__setitem__("health", {"kind": "general_linear", "matrix": []}),
                "'health.matrix'",
            ),
            (lambda doc: doc["health"]["rows"][0].__setitem__(2, [1.0]), "'health.rows'"),
            (lambda doc: doc.update(N=0, covering=[], partition=[], readings=[]), "'N'"),
        ],
        ids=[
            "covering_deleted",
            "null_reading",
            "health_without_kind",
            "bool_reading",
            "parameter_zero",
            "parameter_above_M",
            "string_reading",
            "string_real_part",
            "bool_imaginary_part",
            "infinite_reading",
            "nan_reading",
            "reading_too_large_for_a_float",
            "infinite_imaginary_part",
            "ragged_readings_row",
            "infinite_selection_scale",
            "infinite_matrix_entry",
            "matrix_not_nested",
            "matrix_columns_not_M",
            "covering_for_two_of_three_sensors",
            "covering_index_zero",
            "covering_index_above_M",
            "partition_index_above_M",
            "list_for_a_reading",
            "number_for_a_time_row",
            "readings_empty",
            "matrix_empty",
            "list_for_a_selection_scale",
            "no_sensors",
        ],
    )
    def test_bad_scenario_document_exits_2(self, tmp_path, capsys, edit, key):
        doc = json.loads(Path(ISOLATED).read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "o")
        for argv in (["validate", str(path)], ["theorems", str(path), "--out", out]):
            assert cli.main(argv) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scale,validate_code", [(1e308, 2), (1e200, 0)])
    def test_overflowing_selection_scale_exits_2(self, tmp_path, capsys, scale, validate_code):
        # At 1e308 the images pass float64, and validate used to exit 0 and
        # report a separable scenario found from inf; at 1e200 only the
        # squares theorems takes do.
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc["health"]["rows"][0][2] = scale
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == validate_code
        out = tmp_path / "o"
        assert cli.main(["theorems", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: overflow encountered")
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r["nonzero"][0].__setitem__(0, 4),
            lambda r: r["nonzero"][0].__setitem__(0, 0),
            lambda r: r["nonzero"][0].__setitem__(1, 2),
            lambda r: r["nonzero"][0].__setitem__(2, 4),
            lambda r: r["nonzero"][0].__setitem__(2, 2**63),
            lambda r: r["nonzero"].append([1, 1, 1, 7.0]),
            lambda r: r["nonzero"][0].__setitem__(3, float("inf")),
            lambda r: r["nonzero"][0].__setitem__(3, float("nan")),
            lambda r: r["nonzero"][0].__setitem__(3, {"re": 2.0}),
            lambda r: r["nonzero"][0].__setitem__(3, {"re": 2.0, "im": 0.0, "abs": 2.0}),
            lambda r: r["nonzero"][0].__setitem__(3, True),
            lambda r: r["nonzero"].__setitem__(0, {"j": 1, "k": 1, "f": 1, "value": 2.0}),
            lambda r: r["nonzero"][0].pop(),
            lambda r: r["nonzero"][0].append(0.0),
            lambda r: r["nonzero"][0].__setitem__(0, True),
            lambda r: r["nonzero"][0].__setitem__(1, 1.0),
            lambda r: r.__setitem__("nonzero", {}),
            lambda r: r.pop("nonzero"),
            lambda r: r.pop("shape"),
            lambda r: r.__setitem__("shape", [3, 1, 4]),
            lambda r: r.__setitem__("shape", [3, 1]),
            lambda r: r.__setitem__("shape", [3, True, 3]),
            lambda r: r.__setitem__("shape", [3, 1, 3.0]),
            lambda r: r.__setitem__("dtype", "complex128"),
        ],
        ids=[
            "sensor_above_N",
            "sensor_zero",
            "time_above_K",
            "parameter_above_M",
            "parameter_past_int64",
            "repeated_entry",
            "infinite_value",
            "nan_value",
            "re_only_value",
            "extra_key_in_value",
            "bool_value",
            "entry_not_a_list",
            "three_element_entry",
            "five_element_entry",
            "bool_index",
            "float_index",
            "nonzero_not_a_list",
            "nonzero_missing",
            "shape_missing",
            "shape_mismatched",
            "shape_too_short",
            "shape_with_bool",
            "shape_with_float",
            "extra_key",
        ],
    )
    def test_bad_sparse_readings_exit_2(self, tmp_path, capsys, edit):
        doc = sparse_doc(ISOLATED)
        edit(doc["readings"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        for argv in (["validate", str(path)], ["theorems", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("error: scenario key 'readings' has a bad value")
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape",
        [[2**20] * 3, [1, 1, MAX_READINGS + 1], [MAX_READINGS + 1, 1, 1]],
        ids=["exabytes", "one_past_the_cap_in_M", "one_past_the_cap_in_N"],
    )
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_readings_cap_refused_before_allocation(self, tmp_path, capsys, shape, sparse):
        # A sparse document no longer bounds its own size: its shape alone used to
        # size the zero-filled array.
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc.update(zip("NKM", shape))
        doc["readings"] = {"shape": shape, "nonzero": []} if sparse else []
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, peak = peak_bytes(["validate", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: scenario key 'readings' has a bad value: N*K*M = {math.prod(shape)} "
            f"entries, more than {MAX_READINGS}\n"
        )
        assert peak < 2**20

    @pytest.mark.parametrize("n", [2**24, 2**31, 2**63])
    def test_selection_size_past_its_rows_refused_before_allocation(self, tmp_path, capsys, n):
        # A declared health.n of 2**24 used to reach a 128 MiB row table before
        # the rows were counted.
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc["health"]["n"] = n
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, peak = peak_bytes(["validate", str(path)])
        assert code == 2
        assert "'health.rows'" in capsys.readouterr().err
        assert peak < 2**20

    def test_non_positive_selection_size_names_it(self, tmp_path, capsys):
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc["health"].update(n=0, rows=[])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert "'health.n'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["harmonious", "isolated", "spectral"])
    def test_dense_and_sparse_readings_give_identical_output(self, tmp_path, capsys,
                                                             monkeypatch, source):
        if source == "spectral":
            sparse, tol = spectral_doc(3), "1e-6"
            dense = dense_doc(sparse)
        else:
            path = {"harmonious": HARMONIOUS, "isolated": ISOLATED}[source]
            dense, sparse, tol = json.loads(Path(path).read_text()), sparse_doc(path), "1e-9"
        assert type(dense["readings"]) is list and type(sparse["readings"]) is dict
        outputs = []
        for name, doc in (("dense", dense), ("sparse", sparse)):
            work = tmp_path / name
            work.mkdir()
            (work / "s.json").write_text(json.dumps(doc))
            monkeypatch.chdir(work)
            codes = [cli.main(argv + ["--tol", tol]) for argv in (
                ["validate", "s.json"],
                ["theorems", "s.json", "--out", "r"],
                ["theorems", "s.json", "--out", "rf", "--fail-sensor", "1"],
            )]
            reports = {str(p.relative_to(work)): p.read_bytes()
                       for p in sorted(work.rglob("theorem_*.json"))}
            outputs.append((codes, capsys.readouterr(), reports))
        assert len(outputs[0][2]) == 8
        assert outputs[0] == outputs[1]

    def test_invalid_scenario_exits_1(self, tmp_path, capsys):
        doc = json.loads(Path(HARMONIOUS).read_text())
        doc["partition"] = [[1, 2], [2], [3]]
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestTheorems:
    def test_all_verified_on_fixture(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert cli.main(["theorems", HARMONIOUS, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count(": verified") == 4
        for name in (
            "basis_mapping",
            "frame_mapping",
            "projective_frame",
            "strong_dominance_frame",
        ):
            doc = json.loads((out_dir / f"theorem_{name}.json").read_text())
            assert doc["conclusion"] is True

    def test_failure_injection_on_harmonious_fixture(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = cli.main(
            ["theorems", HARMONIOUS, "--out", str(out_dir), "--fail-sensor", "1"]
        )
        assert code == 0
        basis = json.loads((out_dir / "theorem_basis_mapping.json").read_text())
        frame = json.loads((out_dir / "theorem_frame_mapping.json").read_text())
        # selection images lose the span, magnitude images keep it
        assert basis["conclusion"] is True
        assert not basis["diagnostics"]["spans"]
        assert frame["conclusion"] is True
        assert frame["diagnostics"]["spans"]

    def test_disjoint_failure_loses_span(self, tmp_path):
        out_dir = tmp_path / "reports"
        code = cli.main(
            ["theorems", ISOLATED, "--out", str(out_dir), "--fail-sensor", "3"]
        )
        assert code == 0  # hypothesis unmet is reported, not fatal
        frame = json.loads((out_dir / "theorem_frame_mapping.json").read_text())
        assert frame["applicable"] is False
        assert frame["conclusion"] is None
        assert not frame["diagnostics"]["spans"]
        assert frame["diagnostics"]["missing_coordinates"] == [2]

    def test_spectral_scenario_under_sensor_failure(self, tmp_path):
        # The zero-noise fleet spectra, states cycling normal / fault / failure:
        # after sensor 1 fails the selection images stop spanning, the
        # magnitude and projective images keep spanning, and strong dominance
        # (n = 28 > N = 4) asserts nothing.
        cycle = [states for _, states in turbine.engine1_conditions()]
        scenario = turbine.dataset_scenario(
            turbine.default_fleet(), turbine.mixing_matrix(0.1), turbine.SimConfig(),
            [cycle[k % len(cycle)] for k in range(6)],
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_json_dict(scenario)))
        out_dir = tmp_path / "reports"
        argv = ["theorems", str(path), "--out", str(out_dir), "--fail-sensor", "1",
                "--tol", "1e-6"]
        assert cli.main(argv) == 0
        expected = {
            "basis_mapping": (True, True, False),
            "frame_mapping": (True, True, True),
            "projective_frame": (True, True, True),
            "strong_dominance_frame": (False, None, None),
        }
        for name, triple in expected.items():
            doc = json.loads((out_dir / f"theorem_{name}.json").read_text())
            spans = doc["diagnostics"]["spans"] if doc["applicable"] else None
            assert (doc["applicable"], doc["conclusion"], spans) == triple, name

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_non_positive_tol_exits_2(self, tmp_path, capsys, tol):
        for command in (["validate"], ["theorems", "--out", str(tmp_path / "o")]):
            assert cli.main(command + [HARMONIOUS, f"--tol={tol}"]) == 2
            captured = capsys.readouterr()
            assert "tol must be a positive finite number" in captured.err
            assert "silent" not in captured.err and captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_fail_sensor_out_of_range(self, tmp_path):
        assert (
            cli.main(
                ["theorems", HARMONIOUS, "--out", str(tmp_path), "--fail-sensor", "9"]
            )
            == 2
        )

    def test_silent_health_coordinate_is_a_domain_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["theorems", str(silent_coordinate_scenario(tmp_path)),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == SILENT_COORDINATE_2
        assert not out.exists()

    def test_fail_sensor_checked_before_validation(self, tmp_path, capsys, monkeypatch):
        def unreached(*args):
            raise AssertionError("validation ran before the --fail-sensor range check")

        monkeypatch.setattr(scenario, "validate_scenario", unreached)
        out = tmp_path / "o"
        for j in ("0", "4"):
            assert cli.main(["theorems", HARMONIOUS, "--out", str(out), "--fail-sensor", j]) == 2
            assert capsys.readouterr().err == f"--fail-sensor {j} out of range\n"
        assert not out.exists()


class TestGenerateDetectSweep:
    def test_generate_writes_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "config.json").exists()
        for name in ("good_low", "good_high", "s1_failed_low", "s1_failed_high"):
            assert (out / "datasets" / name / "health.csv").exists()
        assert (out / "datasets" / "calibration" / "manifest.json").exists()
        assert "total labeled samples: 48" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"rng_seed": 7})
        for name in ("a", "b"):
            assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "datasets" / "good_high" / "health.csv").read_bytes()
        b = (tmp_path / "b" / "datasets" / "good_high" / "health.csv").read_bytes()
        assert a == b

    def test_detect_composes_with_generate(self, tmp_path):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        outa = tmp_path / "detect_from_data"
        outb = tmp_path / "detect_fused"
        assert cli.main(
            ["detect", "--config", cfg, "--out", str(outa), "--data", str(gen)]
        ) == 0
        assert cli.main(["detect", "--config", cfg, "--out", str(outb)]) == 0
        assert (outa / "results.csv").read_bytes() == (outb / "results.csv").read_bytes()

    def test_detect_rejects_truncated_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        csv = gen / "datasets" / "good_high" / "health.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        out = tmp_path / "det"
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 2
        assert f"{csv}: sha256 differs" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_detect_rejects_edited_or_missing_npy(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        npy = gen / "datasets" / "s1_failed_low" / "health.npy"
        npy.write_bytes(npy.read_bytes()[:-1] + b"\x7f")
        out = tmp_path / "det"
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 2
        assert f"{npy}: sha256 differs" in capsys.readouterr().err
        npy.unlink()
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 2
        assert capsys.readouterr().err == f"file not found: {npy}\n"
        assert not out.exists()

    def test_detect_rejects_data_without_digests(self, tmp_path, capsys):
        # What an older generate wrote: health.csv alone, its manifest without digests.
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        for cell in (gen / "datasets").iterdir():
            (cell / "health.npy").unlink()
            manifest = json.loads((cell / "manifest.json").read_text())
            manifest["files"] = {"health": "health.csv", "spectra": None}
            (cell / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        out = tmp_path / "det"
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 2
        err = capsys.readouterr().err
        assert "calibration/manifest.json: key 'files.sha256.health.csv' is missing" in err
        assert not out.exists()

    def test_detect_rejects_data_from_another_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        out = tmp_path / "det"
        code = cli.main(
            ["detect", "--config", cfg, "--out", str(out), "--data", str(gen), "--seed", "5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "calibration" in err and "rng_seed" in err
        assert not out.exists()
        nowhere = str(tmp_path / "nowhere")
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", nowhere]) == 2

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda m: m["config"].pop("snr_db"), "key 'snr_db' is missing"),
            (lambda m: m["config"].__setitem__("dft_size", "8192"), "'config.dft_size'"),
            (lambda m: m["fleet"][0].__setitem__("blade_counts", 20), "'fleet.blade_counts'"),
            (
                lambda m: m["conditions"][1]["states"][0].__setitem__("multiplier", "12"),
                "'states.multiplier'",
            ),
            (lambda m: m.__setitem__("conditions", []), "'conditions'"),
            (lambda m: m["config"].__setitem__("dft_size", 8192.0), "'config.dft_size'"),
            (lambda m: m["config"].__setitem__("samples_per_state", True),
             "'config.samples_per_state'"),
            (lambda m: m["conditions"].append(m["conditions"][0]), "'conditions'"),
        ],
        ids=["key_missing", "string_int", "int_for_list", "string_float", "no_conditions",
             "float_for_int", "bool_for_int", "extra_condition"],
    )
    def test_detect_rejects_bad_manifest(self, tmp_path, capsys, edit, key):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        path = gen / "datasets" / "good_high" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        out = tmp_path / "det"
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dataset,edit,key",
        [
            ("calibration", lambda m: m["config"].__setitem__("resolved_sigma", 0.5),
             "'config.resolved_sigma'"),
            ("good_low", lambda m: m["config"].__setitem__(
                "resolved_sigma", 3 * m["config"]["resolved_sigma"]), "'config.resolved_sigma'"),
            ("good_low", lambda m: m["line_bins"].__setitem__(0, m["line_bins"][0] + 1),
             "'line_bins'"),
        ],
        ids=["calibration_sigma", "grid_cell_sigma", "grid_cell_line_bin"],
    )
    def test_detect_rejects_self_contradicting_manifest(self, tmp_path, capsys, dataset, edit,
                                                        key):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        path = gen / "datasets" / dataset / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        out = tmp_path / "det"
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not out.exists()

    def test_detect_all_zero_calibration_is_a_domain_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        # A calibration set of all-zero healths, sealed as generate would seal it.
        plan = cli.load_plan(cfg, None)
        key, run_cfg, conditions = plan.datasets[0]
        assert key == cli.CALIBRATION
        calib = turbine.generate_dataset(plan.fleet, plan.mixing, run_cfg, conditions)
        calib.healths[:] = 0.0
        turbine.save_dataset(calib, gen / "datasets" / "calibration")
        out = tmp_path / "det"
        assert cli.main(["detect", "--config", cfg, "--out", str(out), "--data", str(gen)]) == 1
        assert "calibration error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_detect_generates_only_missing_cells(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--config", cfg, "--out", str(gen)]) == 0
        for name in ("good_high", "calibration"):
            for f in (gen / "datasets" / name).iterdir():
                f.unlink()
            (gen / "datasets" / name).rmdir()
        capsys.readouterr()
        outa = tmp_path / "partial"
        outb = tmp_path / "fused"
        assert cli.main(["detect", "--config", cfg, "--out", str(outa), "--data", str(gen)]) == 0
        generated = [l for l in capsys.readouterr().out.splitlines() if "not found" in l]
        assert len(generated) == 2
        assert cli.main(["detect", "--config", cfg, "--out", str(outb)]) == 0
        for name in ("results.csv", "results.json"):
            assert (outa / name).read_bytes() == (outb / name).read_bytes()

    def test_results_columns_follow_noise_levels(self, tmp_path):
        for levels in ({"low": 18.0}, {"low": 18.0, "mid": 13.0, "high": 8.0}):
            cfg = write_config(tmp_path, {"noise_levels": levels})
            out = tmp_path / "_".join(levels)
            assert cli.main(["detect", "--config", cfg, "--out", str(out)]) == 0
            rows = (out / "results.csv").read_text().strip().split("\n")
            expected = ["condition"] + [f"{p}_{lvl}" for lvl in levels for p in ("basis", "frame")]
            assert rows[0].split(",") == expected
            assert all(len(r.split(",")) == len(expected) for r in rows)
            doc = json.loads((out / "results.json").read_text())
            assert {c["noise_level"] for c in doc["conditions"]} == set(levels)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("dft_size", 8192.0),
            ("noise_levels", {"low": "x"}),
            ("samples_per_state", True),
            ("noise_levels", {}),
            ("fault_hi", "2"),
            ("write_spectra", 1),
            pytest.param("fault_hi", 2**1100, id="fault_hi-int_past_float64"),
        ],
    )
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        assert repr(key) in refused_by_all(tmp_path, capsys, str(path))

    def test_negative_fault_multiplier_exits_2(self, tmp_path, capsys):
        # sweep, which runs no fault, used to accept it.
        cfg = write_config(tmp_path, {"samples_per_state": 8, "fault_multiplier": -12.0})
        assert "fault multiplier" in refused_by_all(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("dead_lo", [0.0, -1.0, 1.5])
    def test_dead_lo_outside_unit_interval_exits_2(self, tmp_path, capsys, dead_lo):
        # At dead_lo <= 0 detect would write a plausible results.csv in which
        # failure is never declared; no run may leave output behind.
        cfg = write_config(tmp_path, {"dead_lo": dead_lo})
        assert "0 < dead_lo < 1" in refused_by_all(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("name", ["a,b", "x/y", "..", ""])
    def test_bad_noise_level_name_exits_2(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, {"noise_levels": {name: 18.0}})
        err = refused_by_all(tmp_path, capsys, cfg)
        assert "'noise_levels'" in err and repr(name) in err

    @pytest.mark.parametrize("snr_db", [7000.0, -7000.0])
    def test_noise_level_without_finite_sigma_exits_2(self, tmp_path, capsys, snr_db):
        # At -7000 dB sigma was inf and every run exited 0 with plausible
        # results; at +7000 dB 10 ** (SNR / 20) overflowed.
        cfg = write_config(tmp_path, {"noise_levels": {"low": snr_db}})
        assert "'noise_levels'" in refused_by_all(tmp_path, capsys, cfg)

    @pytest.mark.parametrize(
        "extra,key",
        [({"fault_multiplier": 1e308}, "fault_multiplier"),
         ({"noise_levels": {"low": -6140.0}}, "noise_levels")],
        ids=["fault_multiplier", "noise_levels"],
    )
    def test_non_finite_healths_exit_2(self, tmp_path, capsys, extra, key):
        # Each wrote nan or inf healths with exit 0; sigma alone was finite.
        cfg = write_config(tmp_path, extra)
        err = refused_by_all(tmp_path, capsys, cfg)
        assert f"config key {key!r}" in err and "summed healths could overflow float64" in err

    def test_largest_accepted_fault_multiplier_fuses_finitely(self):
        # At full cross volume every sensor hears the fault line, and the frame
        # pipeline sums it over all four.
        fleet, sim = turbine.default_fleet(), turbine.SimConfig(samples_per_state=1)
        gear_line = fleet[0].line_amplitudes[4] * sim.dft_size / 2
        edge = turbine.MAX_HEALTH / gear_line * (1 - 1e-9)
        conditions = turbine.engine1_conditions(1, edge)
        cli._check_run(sim, fleet, conditions, "samples_per_state", [], "")
        ds = turbine.generate_dataset(fleet, turbine.mixing_matrix(1.0), sim, conditions)
        assert np.all(np.isfinite(detector.map_healths(ds.healths, "frame")))
        with pytest.raises(ValueError, match="'fault_multiplier'"):
            cli._check_run(sim, fleet, turbine.engine1_conditions(1, edge * 1.01),
                           "samples_per_state", [], "")

    @pytest.mark.parametrize(
        "extra,message",
        [({"sweep_mixing_off_diagonal": -1.0}, "mixing entries must be nonnegative"),
         ({"snr_step": 0.0}, "STEP > 0"),
         ({"samples_per_state": 2**31}, "config key 'samples_per_state'")],
        ids=["sweep_mixing_off_diagonal", "snr_step", "samples_per_state"],
    )
    def test_key_another_command_reads_is_checked(self, tmp_path, capsys, extra, message):
        # Each was accepted by the commands that do not read the key.
        assert message in refused_by_all(tmp_path, capsys, write_config(tmp_path, extra))

    @pytest.mark.parametrize("exponent", [1100, 100])
    def test_dft_size_past_int64_exits_2(self, tmp_path, capsys, exponent):
        # 2**1100 overflowed float64 in the SNR scale and 2**100 overflowed
        # the int64 bin indices, each with a traceback and exit 1.
        cfg = write_config(tmp_path, {"dft_size": 2**exponent})
        err = refused_by_all(tmp_path, capsys, cfg)
        assert f"dft_size 2**{exponent} does not fit in int64" in err

    def test_off_bin_dft_size_exits_2(self, tmp_path, capsys):
        # At 8 Hz bins engine 1's 60 Hz gear line falls between two; generate
        # and sweep used to echo config.json before finding that out.
        err = refused_by_all(tmp_path, capsys, write_config(tmp_path, {"dft_size": 4096}))
        assert "'dft_size'" in err and "line at 60.0 Hz does not land on a DFT bin" in err

    def test_health_value_cap(self):
        # Checked from the config alone: nothing is simulated here.
        fleet, conditions = turbine.default_fleet(), turbine.engine1_conditions()
        most = cli.MAX_HEALTH_VALUES_PER_DATASET // (3 * 4 * 28)
        for samples, refused in ((most, False), (most + 1, True)):
            sim = turbine.SimConfig(samples_per_state=samples)
            if refused:
                with pytest.raises(ValueError, match="config key 'samples_per_state'"):
                    cli._check_run(sim, fleet, conditions, "samples_per_state", [], "")
            else:
                cli._check_run(sim, fleet, conditions, "samples_per_state", [], "")

    @pytest.mark.parametrize(
        "command,key",
        [("generate", "samples_per_state"), ("detect", "samples_per_state"),
         ("sweep", "sweep_samples_per_point")],
    )
    def test_infeasible_sample_count_exits_2(self, tmp_path, capsys, command, key):
        # 2**40 samples per state made a 2.6 PiB array: a MemoryError
        # traceback, exit 1, and config.json and datasets/ left behind.
        cfg = write_config(tmp_path, {key: 2**40})
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_grid_of_repeated_points_exits_2(self, tmp_path, capsys):
        # 100 points 1e-14 dB apart round to 71 distinct float64 SNRs: sweep used
        # to print "100-point sweep" over a sweep.csv of 71.
        cfg = write_config(tmp_path, {"snr_lo": 100.0, "snr_hi": 100.000000000001,
                                      "snr_step": 1e-14})
        err = refused_by_all(tmp_path, capsys, cfg)
        assert err == ("error: SNR range 100.0:100.000000000001:1e-14: STEP is too small "
                       "for 100 distinct float64 points\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                         "--snr-range", "100:100.000000000001:0.00000000000001"]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_sweep_point_cap(self, tmp_path, capsys):
        assert len(cli._snr_grid(0.0, cli.MAX_SWEEP_POINTS - 1.0, 1.0)) == cli.MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match=f"{cli.MAX_SWEEP_POINTS + 1} points, more than"):
            cli._snr_grid(0.0, float(cli.MAX_SWEEP_POINTS), 1.0)
        # Ranges whose point list once exhausted memory, refused before it is built.
        for extra, argv in [({"snr_hi": 1e30}, []), ({}, ["--snr-range", "-20:1e7:1"])]:
            out = tmp_path / "sweep"
            assert cli.main(["sweep", "--config", write_config(tmp_path, extra),
                             "--out", str(out)] + argv) == 2
            assert "points, more than" in capsys.readouterr().err
            assert not out.exists()

    def test_config_echoed_with_write_spectra_exits_2(self, tmp_path, capsys):
        # Configs echoed before spectra files were dropped must drop the key.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cli.config_defaults(), "write_spectra": False}))
        assert "'write_spectra'" in refused_by_all(tmp_path, capsys, str(path))

    def test_detect_results_contract(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["detect", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().strip().split("\n")
        table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        # selection pipeline sees a dead sensor as engine failure
        assert table["normal_s1_failed"][0] == "0.00"
        assert table["normal_s1_failed"][1] == "100.00"

    def test_sweep_range_flag(self, tmp_path):
        out = tmp_path / "sweep"
        assert sweep_snrs(tmp_path, "-2:0:1", out) == [-2, -1, 0]
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["snr_lo"] == -2.0 and echoed["snr_hi"] == 0.0

    def test_bad_snr_range(self, tmp_path):
        cfg = write_config(tmp_path)
        # The last two are finite, but 10 ** (SNR / 20) overflows or reaches 0.
        for text in ("5:1:1", "-inf:0:1", "0:inf:1", "0:1:inf", "nan:0:1",
                     "-1e308:1e308:1", "7000:7000:1", "-7000:-7000:1", "-6140:-6140:1"):
            assert cli.main(["sweep", "--config", cfg, "--snr-range", text,
                             "--out", str(tmp_path / "s")]) == 2
            assert not (tmp_path / "s").exists()

    def test_sweep_rerun_from_echoed_config_is_byte_identical(self, tmp_path):
        # The echoed range is the one given, not one rebuilt from the grid.
        cfg = write_config(tmp_path)
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main(["sweep", "--config", cfg, "--out", str(first),
                         "--snr-range", "-3:0:0.3"]) == 0
        echoed = str(first / "config.json")
        assert cli.main(["sweep", "--config", echoed, "--out", str(again)]) == 0
        assert (again / "sweep.csv").read_bytes() == (first / "sweep.csv").read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for doc, message in (({"sample_count": 4}, "unknown config keys"),
                             (5, "config must be a JSON object")):
            path.write_text(json.dumps(doc))
            assert message in refused_by_all(tmp_path, capsys, str(path))

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"rng_seed": 1})
        out = tmp_path / "run"
        assert cli.main(["generate", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["rng_seed"] == 99


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "framesense.cli", "validate", HARMONIOUS],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "validity: OK" in proc.stdout


# What the ``framesense`` console script runs.
CLI_ENTRY = "import sys; from framesense.cli import main; sys.exit(main())"
# The same, with an atexit handler registered before main's that reports on
# stderr the framesense modules the run loaded; it must still run at exit.
CLI_LOADED = (
    "import atexit, sys; atexit.register(lambda: print(sorted("
    "m for m in sys.modules if m.startswith('framesense.')), file=sys.stderr)); "
    "from framesense.cli import main; sys.exit(main())"
)
ALL_LAYERS = ["cli", "detector", "frames", "mappings", "scenario", "turbine"]


def run_process(code, args, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, cwd=cwd, env=env)


class TestProcess:
    """Commands run as the console script runs them: each in a fresh process."""

    def test_each_command_loads_only_its_layers(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps(SMALL_CONFIG))
        dataset_args = ["--config", "c.json", "--seed", "3"]
        commands = [
            (["validate", HARMONIOUS], ["cli", "frames", "scenario"]),
            (["theorems", HARMONIOUS, "--out", "t"], ["cli", "frames", "mappings", "scenario"]),
            (["generate", *dataset_args, "--out", "g"], ["cli", "detector", "frames", "turbine"]),
            (["detect", *dataset_args, "--data", "g", "--out", "d"], ALL_LAYERS),
            (["sweep", *dataset_args, "--snr-range", "-2:0:1", "--out", "s"], ALL_LAYERS),
        ]
        for args, layers in commands:
            proc = run_process(CLI_LOADED, args, tmp_path)
            assert proc.returncode == 0, proc.stderr
            loaded = proc.stderr.splitlines()[-1]
            assert loaded == repr([f"framesense.{layer}" for layer in layers]), args[0]

    def test_process_outputs_match_in_process_runs(self, tmp_path, capsys, monkeypatch):
        # The exit-time gc.freeze must not cost a byte of output or a flushed line.
        (tmp_path / "c.json").write_text(json.dumps(SMALL_CONFIG))
        commands = [
            ["generate", "--config", "../c.json", "--seed", "7", "--out", "g"],
            ["detect", "--config", "../c.json", "--seed", "7", "--data", "g", "--out", "d"],
            ["theorems", HARMONIOUS, "--out", "t", "--fail-sensor", "1"],
        ]
        runs = {}
        for name in ("process", "in_process"):
            work = tmp_path / name
            work.mkdir()
            outs = []
            for args in commands:
                if name == "process":
                    proc = run_process(CLI_ENTRY, args, work)
                    outs.append((proc.returncode, proc.stdout, proc.stderr))
                else:
                    monkeypatch.chdir(work)
                    code = cli.main(args)
                    outs.append((code, *capsys.readouterr()))
            files = {str(p.relative_to(work)): p.read_bytes()
                     for p in sorted(work.rglob("*")) if p.is_file()}
            runs[name] = (outs, files)
        outs, files = runs["process"]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        manifests = [name for name in files if name.endswith("manifest.json")]
        assert len(manifests) == 5
        for name in manifests:
            recorded = json.loads(files[name])["files"]["sha256"]
            folder = name.rsplit("/", 1)[0]
            for health, digest in recorded.items():
                assert hashlib.sha256(files[f"{folder}/{health}"]).hexdigest() == digest
        assert any(name.startswith("t/theorem_") for name in files)
        assert runs["process"] == runs["in_process"]

    def test_main_never_freezes_and_registers_its_exit_hook_once(self, capsys):
        argv = ["validate", HARMONIOUS]
        assert cli.main(argv) == 0
        hooks = atexit._ncallbacks()
        for _ in range(3):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert atexit._ncallbacks() == hooks
        assert gc.isenabled() and gc.get_freeze_count() == 0


# The benchmark's generate config, and one with three noise levels: 7 datasets.
BENCH_CONFIG = {"samples_per_state": 64, "rng_seed": 3, "dft_size": 8192,
                "mixing_off_diagonal": 0.1}
THREE_LEVELS = {"samples_per_state": 8,
                "noise_levels": {"low": 18.0, "mid": 12.0, "high": 8.0}}


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelGenerate:
    """``generate`` writes its datasets in one process per available CPU."""

    def run(self, tmp_path, monkeypatch, capsys, workers, config, name, blocked=()):
        """``generate`` in ``tmp_path/name`` with ``workers`` CPUs available, the
        datasets ``blocked`` replaced by plain files: (exit code, stdout, stderr, files)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        work = tmp_path / name
        (work / "g" / "datasets").mkdir(parents=True)
        for dataset in blocked:
            (work / "g" / "datasets" / dataset).write_text("")
        (work / "c.json").write_text(json.dumps(config))
        monkeypatch.chdir(work)
        code = cli.main(["generate", "--config", "c.json", "--seed", "11", "--out", "g"])
        assert_no_children()
        return (code, *capsys.readouterr(), tree(work / "g"))

    @pytest.mark.parametrize("config, datasets", [(BENCH_CONFIG, 5), (THREE_LEVELS, 7)])
    def test_every_worker_count_writes_the_same_bytes(self, tmp_path, monkeypatch, capsys,
                                                       config, datasets):
        runs = [self.run(tmp_path, monkeypatch, capsys, workers, config, f"w{workers}")
                for workers in (1, 2, 3)]
        code, out, err, files = runs[0]
        assert (code, err) == (0, "")
        assert out.count("wrote ") == datasets - 1
        assert len([name for name in files if name.endswith("manifest.json")]) == datasets
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("affinity", ["one_cpu", "absent"])
    def test_one_worker_never_forks(self, tmp_path, monkeypatch, capsys, affinity):
        def no_fork():
            raise AssertionError("forked with one worker")

        monkeypatch.setattr(os, "fork", no_fork)
        if affinity == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
        (tmp_path / "c.json").write_text(json.dumps(SMALL_CONFIG))
        argv = ["generate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "g")]
        assert cli.main(argv) == 0
        assert "total labeled samples: 48" in capsys.readouterr().out

    @pytest.mark.parametrize("blocked", [
        ["good_low"], ["s1_failed_low"], ["good_low", "good_high"],
    ])
    def test_failure_reads_as_the_serial_run(self, tmp_path, monkeypatch, capsys, blocked):
        # With 2 workers good_low and s1_failed_low are the child's, good_high the
        # parent's; the first blocked dataset in plan order is reported.
        runs = [self.run(tmp_path, monkeypatch, capsys, workers, SMALL_CONFIG, f"w{workers}",
                         blocked)
                for workers in (1, 2, 3)]
        code, out, err, _ = runs[0]
        assert code == 2
        assert err == f"error: [Errno 17] File exists: 'g/datasets/{blocked[0]}'\n"
        assert all(run[:3] == runs[0][:3] for run in runs)
        if blocked == ["s1_failed_low"]:
            assert out == ("wrote g/datasets/good_low (12 samples)\n"
                           "wrote g/datasets/good_high (12 samples)\n")

    def test_a_child_that_dies_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        write_share = cli._write_share

        def dies_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return write_share(*args)

        monkeypatch.setattr(cli, "_write_share", dies_in_child)
        code, out, err, _ = self.run(tmp_path, monkeypatch, capsys, 2, SMALL_CONFIG, "w2")
        assert (code, out) == (2, "")
        assert err.startswith("error: dataset worker ")
        assert err.endswith(" exited with status 3 and no result\n")

    def test_only_the_fork_warning_is_ignored(self, tmp_path, monkeypatch, capsys):
        # Python 3.12+ warns on forking a process with threads; tests run with
        # warnings as errors, so an unfiltered warning would fail the fork.
        fork = os.fork

        def warning_fork(message):
            def forks():
                warnings.warn(message, DeprecationWarning, stacklevel=2)
                return fork()
            return forks

        monkeypatch.setattr(os, "fork", warning_fork(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child."))
        assert self.run(tmp_path, monkeypatch, capsys, 2, SMALL_CONFIG, "a")[0] == 0
        monkeypatch.setattr(os, "fork", warning_fork("another deprecation"))
        with pytest.raises(DeprecationWarning, match="another deprecation"):
            self.run(tmp_path, monkeypatch, capsys, 2, SMALL_CONFIG, "b")
        assert_no_children()

    def test_a_forked_child_never_returns_to_the_caller(self, tmp_path, monkeypatch, capsys):
        # Without OPENBLAS_NUM_THREADS, OpenBLAS's pool thread is alive at the
        # fork; unbuffered output is off, so "before" sits in the buffer then.
        (tmp_path / "c.json").write_text(json.dumps(SMALL_CONFIG))
        argv = ["generate", "--config", "../c.json", "--seed", "5", "--out", "g"]
        code = ("from framesense.cli import main; print('before'); "
                f"rc = main({argv!r}); print('after', rc)")
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        (tmp_path / "process").mkdir()
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True, cwd=tmp_path / "process", env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines.count("before") == 1 and lines.count("after 0") == 1
        assert lines[-1] == "after 0"
        (tmp_path / "in_process").mkdir()
        monkeypatch.chdir(tmp_path / "in_process")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "\n".join(lines[1:-1]) + "\n"
        assert tree(tmp_path / "process" / "g") == tree(tmp_path / "in_process" / "g")
        assert tree(tmp_path / "in_process" / "g")


def test_parse_snr_range_inclusive(tmp_path):
    # HI is a grid point when a step lands on it.
    assert sweep_snrs(tmp_path, "-20:0:1", tmp_path / "sweep") == list(range(-20, 1))


def test_parse_snr_range_stops_at_hi(tmp_path):
    # The grid is LO, LO + STEP, ... and stops before the first point past HI.
    assert sweep_snrs(tmp_path, "-20:0:3", tmp_path / "sweep") == [-20, -17, -14, -11, -8, -5, -2]
