"""Command line driver: file formats, exit codes, and reproducibility,
exercised in process through main(argv)."""

import json
import math

import numpy as np
import pytest

import demandinv as di
from demandinv import modelio
from demandinv.cli import EXIT_IO, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, main
from oracles import read_trace_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


def generate(tmp_path, family="logit", J=3, M=2, n=12, seed=3):
    model = tmp_path / "model.json"
    code = run_cli(
        "generate",
        "--family", family,
        "--J", J,
        "--M", M,
        "--n", n,
        "--seed", seed,
        "--out", model,
    )
    assert code == EXIT_OK
    return model


class TestGenerate:
    def test_writes_model_and_truth(self, tmp_path):
        model_path = generate(tmp_path, seed=7)
        truth_path = tmp_path / "model.truth.json"
        assert model_path.exists() and truth_path.exists()
        market = modelio.load_model(model_path)
        expected, x_star, sigma_star = di.make_logit_instance(3, 2, 12, seed=7)
        assert np.array_equal(market.z, expected.z)
        assert np.array_equal(market.nu, expected.nu)
        x_back, s_back = modelio.load_truth(truth_path)
        assert np.array_equal(x_back, x_star)
        assert np.array_equal(s_back, sigma_star)
        assert modelio.read_json(model_path)["seed"] == 7

    def test_small_logit_truth_matches_hand_formula(self, tmp_path):
        model_path = generate(tmp_path, J=2, M=1, n=1, seed=3)
        market = modelio.load_model(model_path)
        x_star, sigma_star = modelio.load_truth(tmp_path / "model.truth.json")
        assert np.array_equal(x_star, market.z @ market.beta)
        u = x_star + (market.nu @ market.z.T)[0]
        expected = np.exp(u) / (1.0 + np.exp(u).sum())
        assert np.max(np.abs(sigma_star - expected)) < 1e-15

    def test_purechar_family(self, tmp_path):
        model_path = generate(tmp_path, family="purechar", J=4, M=3, n=20, seed=1)
        market = modelio.load_model(model_path)
        assert isinstance(market, di.PureCharMarket)
        assert market.beta[0] == 1.0

    def test_purechar_single_attribute_rejected(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--family", "purechar", "--J", 3, "--M", 1, "--n", 5,
            "--out", tmp_path / "m.json",
        )
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--family", "logit", "--J", 2, "--M", 1, "--n", 2, "--seed", -1,
            "--out", tmp_path / "m.json",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "m.json").exists()

    def test_size_numpy_cannot_index_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--family", "logit", "--J", 10**20, "--M", 2, "--n", 5,
            "--out", tmp_path / "m.json",
        )
        assert code == EXIT_USAGE
        expected = f"error: market too large to index: J={10**20}, M=2, n=5\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "m.json").exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = run_cli(
            "generate", "--family", "logit", "--J", 2, "--M", 1, "--n", 2,
            "--out", tmp_path / "missing-dir" / "m.json",
        )
        assert code == EXIT_IO


class TestInvert:
    def test_round_trip_from_truth_shares(self, tmp_path):
        model_path = generate(tmp_path, seed=5)
        out = tmp_path / "result.json"
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", tmp_path / "model.truth.json",
            "--method", "convex_tr",
            "--out", out,
        )
        assert code == EXIT_OK
        doc = modelio.read_json(out)
        assert doc["converged"] is True
        x_star, _ = modelio.load_truth(tmp_path / "model.truth.json")
        assert np.max(np.abs(np.array(doc["x_final"]) - x_star)) < 1e-8
        rows = read_trace_csv(tmp_path / "result.trace.csv")
        assert rows and all(r["method"] == "convex_tr" for r in rows)
        assert rows[-1]["error_maxnorm"] == doc["error_final"]

    def test_inline_share_list(self, tmp_path):
        model_path = generate(tmp_path)
        out = tmp_path / "result.json"
        code = run_cli(
            "invert", "--model", model_path, "--shares", "0.2,0.3,0.1", "--out", out,
        )
        assert code == EXIT_OK
        market = modelio.load_model(model_path)
        doc = modelio.read_json(out)
        got = market.evaluate(np.array(doc["x_final"])).shares
        assert np.max(np.abs(got - [0.2, 0.3, 0.1])) < 1e-12

    def test_each_method_runs(self, tmp_path):
        model_path = generate(tmp_path, seed=2)
        for method in di.METHODS:
            out = tmp_path / f"{method}.json"
            code = run_cli(
                "invert",
                "--model", model_path,
                "--shares", tmp_path / "model.truth.json",
                "--method", method,
                "--out", out,
            )
            assert code == EXIT_OK
            assert modelio.read_json(out)["method"] == method

    def test_truth_delta_start_and_seed(self, tmp_path):
        model_path = generate(tmp_path, seed=4)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out, seed in ((first, 0), (second, 1)):
            code = run_cli(
                "invert",
                "--model", model_path,
                "--shares", tmp_path / "model.truth.json",
                "--x0", "truth+delta:5",
                "--x0-seed", seed,
                "--out", out,
            )
            assert code == EXIT_OK
        err_a = read_trace_csv(tmp_path / "a.trace.csv")[0]["error_maxnorm"]
        err_b = read_trace_csv(tmp_path / "b.trace.csv")[0]["error_maxnorm"]
        assert err_a != err_b  # different seeds give different starts
        x_star, _ = modelio.load_truth(tmp_path / "model.truth.json")
        market = modelio.load_model(model_path)
        x0 = di.perturb_start(x_star, 5.0, 0)
        expected = np.abs(market.evaluate(x0).shares - market.evaluate(x_star).shares).max()
        assert err_a == expected

    def test_x0_file_layouts(self, tmp_path):
        model_path = generate(tmp_path)
        x0_path = tmp_path / "x0.json"
        out = tmp_path / "r.json"
        for doc in ([0.1, 0.2, 0.3], {"x0": [0.1, 0.2, 0.3]}, {"x_star": [0.1, 0.2, 0.3]}):
            modelio.write_json(x0_path, doc)
            code = run_cli(
                "invert",
                "--model", model_path,
                "--shares", tmp_path / "model.truth.json",
                "--x0", x0_path,
                "--out", out,
            )
            assert code == EXIT_OK
        modelio.write_json(x0_path, {"start": [0.1, 0.2, 0.3]})
        assert run_cli(
            "invert", "--model", model_path,
            "--shares", tmp_path / "model.truth.json",
            "--x0", x0_path, "--out", out,
        ) == EXIT_USAGE

    def test_zero_iteration_budget_reports_no_convergence(self, tmp_path):
        model_path = generate(tmp_path)
        out = tmp_path / "r.json"
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", tmp_path / "model.truth.json",
            "--x0", "truth+delta:10",
            "--max-iter", 0,
            "--out", out,
        )
        assert code == EXIT_NO_CONVERGENCE
        assert modelio.read_json(out)["converged"] is False
        assert len(read_trace_csv(tmp_path / "r.trace.csv")) == 1

    def test_loose_tolerance_converges_fast(self, tmp_path):
        model_path = generate(tmp_path)
        out = tmp_path / "r.json"
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", tmp_path / "model.truth.json",
            "--x0", "truth+delta:10",
            "--tol", "1e-3",
            "--out", out,
        )
        assert code == EXIT_OK
        assert modelio.read_json(out)["error_final"] <= 1e-3

    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path)
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", tmp_path / "model.truth.json",
            "--tol", "inf",
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: gradient_tolerance must be finite and > 0\n"

    def test_negative_x0_seed_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path)
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", tmp_path / "model.truth.json",
            "--x0", "truth+delta:1",
            "--x0-seed", -3,
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"

    def test_contraction_boundary_target_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path)
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", "0.0,0.5,0.2",
            "--method", "contraction",
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert "unsupported target" in capsys.readouterr().err

    def test_simplex_violation_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path)
        code = run_cli(
            "invert",
            "--model", model_path,
            "--shares", "0.9,0.9,0.9",
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        code = run_cli(
            "invert",
            "--model", tmp_path / "nope.json",
            "--shares", "0.5",
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err

    def test_malformed_model_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(
            "invert", "--model", bad, "--shares", "0.5", "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("J", "x", "an integer, got 'x'"),
            ("z", [["a"], ["b"], ["c"]], "a rectangular array of numbers"),
            ("z", [[0.1, 0.2], [0.3], [0.4, 0.5]], "a rectangular array of numbers"),
            ("family", ["logit"], "a string, got ['logit']"),
        ],
        ids=["J_string", "z_strings", "z_ragged", "family_list"],
    )
    def test_mistyped_model_field_is_usage_error(self, tmp_path, capsys, key, value, expected):
        model_path = generate(tmp_path)
        doc = modelio.read_json(model_path)
        doc[key] = value
        modelio.write_json(model_path, doc)
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", "0.2,0.2,0.2", "--out", tmp_path / "r.json"
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: model file: {key!r} must be {expected}\n"

    def test_overflowing_model_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path, J=2, M=1, n=2)
        doc = modelio.read_json(model_path)
        doc["z"], doc["nu"] = [[1e200], [1.0]], [[1e200], [1.0]]
        modelio.write_json(model_path, doc)
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", "0.2,0.2", "--out", tmp_path / "r.json"
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: z @ nu.T overflows a double\n"

    def test_overflowing_slope_range_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path, family="purechar", J=3, M=2, n=1)
        doc = modelio.read_json(model_path)
        doc["z"] = [[-1e308, 0.0], [1e308, 0.0], [1.0, 0.0]]
        modelio.write_json(model_path, doc)
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", "0.2,0.2,0.2", "--out", tmp_path / "r.json"
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: z[:, 0] slope range (zero line included) overflows a double\n"

    @pytest.mark.parametrize("family", ["logit", "purechar"])
    def test_overflowing_welfare_is_one_line_usage_error(self, tmp_path, capsys, family):
        model_path = generate(tmp_path, family=family)
        x0_path = tmp_path / "x0.json"
        modelio.write_json(x0_path, [1.79e308] * 3)
        capsys.readouterr()
        for method in ("convex_tr", "residual_tr", "contraction"):
            code = run_cli(
                "invert",
                "--model", model_path,
                "--shares", "0.2,0.2,0.2",
                "--method", method,
                "--x0", x0_path,
                "--out", tmp_path / "r.json",
            )
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == "error: welfare must be finite\n"

    def test_gibberish_inline_shares(self, tmp_path, capsys):
        model_path = generate(tmp_path)
        code = run_cli(
            "invert", "--model", model_path, "--shares", "abc", "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert "comma-separated" in capsys.readouterr().err


class TestSimulate:
    def spec_doc(self):
        return {
            "model_family": "logit",
            "J": 3,
            "M": 2,
            "n": 15,
            "replications": 2,
            "delta_norm": 5.0,
            "master_seed": 4,
            "solver": {"max_iterations": 25},
        }

    def write_spec(self, tmp_path, doc=None):
        spec_path = tmp_path / "spec.json"
        modelio.write_json(spec_path, doc if doc is not None else self.spec_doc())
        return spec_path

    def test_writes_all_reports(self, tmp_path):
        spec_path = self.write_spec(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli("simulate", "--spec", spec_path, "--out-dir", out_dir) == EXIT_OK
        for name in ("trace.csv", "bands.json", "degeneracy.json", "manifest.json"):
            assert (out_dir / name).exists()
        bands = json.loads((out_dir / "bands.json").read_text())
        assert list(bands) == ["methods"]
        assert len(bands["methods"]["contraction"]["median"]) == 26
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["spec"]["master_seed"] == 4
        assert manifest["failures"] == {}
        rows = read_trace_csv(out_dir / "trace.csv")
        assert {r["method"] for r in rows} == set(di.METHODS)

    def test_reruns_byte_identical(self, tmp_path, monkeypatch):
        spec_path = self.write_spec(tmp_path)
        monkeypatch.delenv(di.WORKERS_ENV, raising=False)
        dirs = [tmp_path / "one", tmp_path / "two", tmp_path / "three"]
        for i, out_dir in enumerate(dirs):
            if i == 2:
                monkeypatch.setenv(di.WORKERS_ENV, "2")
            assert run_cli("simulate", "--spec", spec_path, "--out-dir", out_dir) == EXIT_OK
        for name in ("trace.csv", "bands.json", "degeneracy.json", "manifest.json"):
            reference = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == reference
            assert (dirs[2] / name).read_bytes() == reference

    def test_single_replication_bands_equal_lone_trace(self, tmp_path):
        doc = self.spec_doc()
        doc["replications"] = 1
        doc["methods"] = ["convex_tr"]
        spec_path = self.write_spec(tmp_path, doc)
        out_dir = tmp_path / "run"
        assert run_cli("simulate", "--spec", spec_path, "--out-dir", out_dir) == EXIT_OK
        rows = read_trace_csv(out_dir / "trace.csv")
        errors = [r["error_maxnorm"] for r in rows]
        bands = json.loads((out_dir / "bands.json").read_text())["methods"]["convex_tr"]
        assert len(errors) < doc["solver"]["max_iterations"] + 1
        assert bands["min"] == errors
        assert bands["median"] == errors
        assert bands["max"] == errors

    def test_band_axis_ends_at_longest_trace_not_budget(self, tmp_path):
        doc = self.spec_doc()
        doc["methods"] = ["convex_tr", "residual_tr"]
        doc["solver"]["max_iterations"] = 100_000
        spec_path = self.write_spec(tmp_path, doc)
        out_dir = tmp_path / "run"
        assert run_cli("simulate", "--spec", spec_path, "--out-dir", out_dir) == EXIT_OK
        rows = read_trace_csv(out_dir / "trace.csv")
        bands = json.loads((out_dir / "bands.json").read_text())
        for method, band in bands["methods"].items():
            longest = 1 + max(r["iteration"] for r in rows if r["method"] == method)
            assert longest < 100
            assert len(band["median"]) == longest

    def test_unknown_spec_key_is_usage_error(self, tmp_path, capsys):
        doc = self.spec_doc()
        doc["plot"] = True
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            (
                "replications",
                "two",
                "experiment spec: 'replications' must be an integer, got 'two'",
            ),
            (
                "methods",
                "convex_tr",
                "experiment spec: 'methods' must be a list of method names, got 'convex_tr'",
            ),
            ("model_family", 5, "experiment spec: 'model_family' must be a string, got 5"),
            ("J", "3", "experiment spec: 'J' must be an integer, got '3'"),
            ("M", True, "experiment spec: 'M' must be an integer, got True"),
            ("n", 1.5, "experiment spec: 'n' must be an integer, got 1.5"),
            ("delta_norm", "x", "experiment spec: 'delta_norm' must be a number, got 'x'"),
            ("master_seed", None, "experiment spec: 'master_seed' must be an integer, got None"),
            ("solver", [25], "experiment spec solver must hold a JSON object"),
        ],
        ids=["replications_string", "methods_string", "model_family_number", "J_string",
             "M_bool", "n_float", "delta_norm_string", "master_seed_null", "solver_list"],
    )
    def test_mistyped_spec_field_is_usage_error(self, tmp_path, capsys, key, value, expected):
        doc = self.spec_doc()
        doc[key] = value
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "solver, expected",
        [
            (
                {"max_iterations": True},
                "experiment spec solver: 'max_iterations' must be an integer, got True",
            ),
            (
                {"max_iterations": 2.5},
                "experiment spec solver: 'max_iterations' must be an integer, got 2.5",
            ),
            (
                {"max_iterations": None},
                "experiment spec solver: 'max_iterations' must be an integer, got None",
            ),
            (
                {"gradient_tolerance": "1e-8"},
                "experiment spec solver: 'gradient_tolerance' must be a number, got '1e-8'",
            ),
            (
                {"initial_radius": 2.0},
                "experiment spec solver has unknown keys: initial_radius",
            ),
        ],
        ids=["iterations_bool", "iterations_float", "iterations_null", "tolerance_string",
             "removed_key"],
    )
    def test_bad_solver_setting_is_usage_error(self, tmp_path, capsys, solver, expected):
        doc = self.spec_doc()
        doc["solver"] = solver
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("value, literal", [(math.inf, "Infinity"), (math.nan, "NaN")])
    def test_nonfinite_delta_norm_is_usage_error(self, tmp_path, capsys, value, literal):
        doc = self.spec_doc()
        doc["delta_norm"] = value
        spec_path = self.write_spec(tmp_path, doc)
        assert f'"delta_norm": {literal}' in spec_path.read_text()
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: delta_norm must be finite and >= 0\n"

    @pytest.mark.parametrize("where", ["spec", "solver"])
    def test_number_beyond_double_range_is_usage_error(self, tmp_path, capsys, where):
        # Python's JSON reader keeps a huge integer exact; float() of it overflows
        huge = 10**400
        doc = self.spec_doc()
        if where == "spec":
            key, what = "delta_norm", "experiment spec"
            doc[key] = huge
        else:
            key, what = "gradient_tolerance", "experiment spec solver"
            doc["solver"][key] = huge
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        expected = f"error: {what}: {key!r} must fit in a double, got {str(huge)[:40]}\n"
        assert capsys.readouterr().err == expected

    def test_size_numpy_cannot_index_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(di.WORKERS_ENV, "1")
        doc = self.spec_doc()
        doc["J"] = 10**20
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        expected = f"error: market too large to index: J={10**20}, M=2, n=15\n"
        assert capsys.readouterr().err == expected

    def test_missing_spec_file_is_io_error(self, tmp_path):
        code = run_cli("simulate", "--spec", tmp_path / "nope.json", "--out-dir", tmp_path / "r")
        assert code == EXIT_IO


class TestParser:
    def test_no_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["invert", "--model", "m.json", "--shares", "0.5",
                  "--method", "newton", "--out", "r.json"])
        assert info.value.code == EXIT_USAGE
