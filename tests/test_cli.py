"""Command line driver: file formats, exit codes, and reproducibility,
exercised in process through main(argv)."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import demandinv as di
from demandinv import cli, modelio
from demandinv.cli import EXIT_IO, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, main
from oracles import read_trace_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


def suite_never_started(spec):
    raise AssertionError(f"a suite of {spec.replications} replications was started")


def small_suite(spec):
    """run_suite for a suite no larger than the fuzz's valid spec; a larger one
    is never started."""
    return di.run_suite(spec) if spec.replications <= 2 else suite_never_started(spec)


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

    def test_shares_file_layouts(self, tmp_path):
        # a bare array, a 'shares' key, and a truth sidecar's 'sigma_star' key
        # each give the inline list's result, to the byte
        model_path = generate(tmp_path)
        inline = tmp_path / "inline.json"
        code = run_cli(
            "invert", "--model", model_path, "--shares", "0.2,0.3,0.1", "--out", inline
        )
        assert code == EXIT_OK
        shares_path = tmp_path / "shares.json"
        out = tmp_path / "r.json"
        values = [0.2, 0.3, 0.1]
        for doc in (values, {"shares": values}, {"sigma_star": values, "x_star": [0, 0, 0]}):
            modelio.write_json(shares_path, doc)
            code = run_cli(
                "invert", "--model", model_path, "--shares", shares_path, "--out", out
            )
            assert code == EXIT_OK
            assert out.read_bytes() == inline.read_bytes()

    @pytest.mark.parametrize(
        "J, option, doc, expected",
        [
            (3, "shares", {"values": [0.5]}, "shares file needs a 'shares' or 'sigma_star' key"),
            (
                3,
                "shares",
                [0.5, 0.25, 0.5],
                "shares sum to 1.25 > 1 (outside share would be negative)",
            ),
            (3, "shares", None, "shares file needs a 'shares' or 'sigma_star' key"),
            (3, "shares", [0.2, 0.3], "share vector has dimension 2, expected 3"),
            (3, "shares", [0.9, 0.9], "share vector has dimension 2, expected 3"),
            (3, "x0", None, "x0 file needs an 'x0' or 'x_star' key"),
            (3, "x0", {"x0": None}, "x0 file needs an 'x0' or 'x_star' key"),
            (1, "x0", None, "x0 file needs an 'x0' or 'x_star' key"),
            (1, "x0", {"x0": None}, "x0 file needs an 'x0' or 'x_star' key"),
            (3, "x0", [0.1, 0.2], "mean utility has dimension 2, expected 3"),
        ],
        ids=["shares_unknown_key", "shares_simplex", "shares_null", "shares_length",
             "shares_length_and_simplex", "x0_null_J3", "x0_key_null_J3", "x0_null_J1",
             "x0_key_null_J1", "x0_length"],
    )
    def test_bad_vector_file_is_usage_error(self, tmp_path, capsys, J, option, doc, expected):
        # invert checks the file's values against the model's J; a null
        # start must not fall back to the zero start
        model_path = generate(tmp_path, J=J)
        path = tmp_path / "vector.json"
        modelio.write_json(path, doc)
        shares = path if option == "shares" else tmp_path / "model.truth.json"
        argv = ["invert", "--model", model_path, "--shares", shares]
        if option == "x0":
            argv += ["--x0", path]
        code = run_cli(*argv, "--out", tmp_path / "r.json")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "r.json").exists()

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

    @pytest.mark.parametrize("entry, shown", [("-1e308", "-1e+308"), ("-0.5", "-0.5")])
    def test_negative_share_message_exact(self, tmp_path, capsys, entry, shown):
        # the offending entry is printed as a Python float, not a numpy repr
        model_path = generate(tmp_path)
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", f"0.2,{entry},0.1",
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: share coordinate 1 is negative ({shown})\n"

    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        code = run_cli(
            "invert",
            "--model", tmp_path / "nope.json",
            "--shares", "0.5",
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["model", "spec", "shares", "x0", "truth"])
    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b"[0.5, \"\xff\"]",
            b"[" * 100_000 + b"]" * 100_000,
            b"[" + b"7" * 5_000 + b"]",
        ],
        ids=["syntax", "bytes", "depth", "digits"],
    )
    def test_malformed_model_json_is_usage_error(self, tmp_path, capsys, option, content):
        # any file the command line reads, the truth sidecar that --x0
        # truth+delta: reads included: undecodable bytes, a syntax error,
        # nesting too deep for the parser, an integer too long to convert
        bad = tmp_path / ("model.truth.json" if option == "truth" else "bad.json")
        if option == "spec":
            bad.write_bytes(content)
            code = run_cli("simulate", "--spec", bad, "--out-dir", tmp_path / "run")
        else:
            files = {"model": generate(tmp_path), "shares": "0.2,0.3,0.1", "x0": None}
            if option == "truth":
                files["x0"] = "truth+delta:5"
            else:
                files[option] = bad
            bad.write_bytes(content)  # after generate, which writes the truth sidecar
            argv = ["invert", "--model", files["model"], "--shares", files["shares"]]
            if files["x0"] is not None:
                argv += ["--x0", files["x0"]]
            code = run_cli(*argv, "--out", tmp_path / "r.json")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON: {bad}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("J", "x", "an integer, got 'x'"),
            ("z", [["a"], ["b"], ["c"]], "a rectangular array of numbers"),
            ("z", [[0.1, 0.2], [0.3], [0.4, 0.5]], "a rectangular array of numbers"),
            ("family", ["logit"], "a string, got ['logit']"),
            ("seed", "x", "an integer, got 'x'"),
            ("seed", -5, "non-negative, got -5"),
        ],
        ids=["J_string", "z_strings", "z_ragged", "family_list", "seed_string", "seed_negative"],
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

    @pytest.mark.parametrize(
        "file, key, entry, expected",
        [
            ("model", "z", "quoted", "model file: 'z'"),
            ("model", "nu", False, "model file: 'nu'"),
            ("model", "beta", True, "model file: 'beta'"),
            ("shares", None, "quoted", "shares file"),
            ("shares", "shares", False, "shares file"),
            ("shares", None, None, "shares file"),
            ("x0", "x0", "quoted", "x0 file"),
            ("truth", "x_star", True, "truth file: 'x_star'"),
            ("truth", "sigma_star", "quoted", "truth file: 'sigma_star'"),
        ],
        ids=["model_z_string", "model_nu_false", "model_beta_true", "shares_string",
             "shares_key_false", "shares_null_entry", "x0_key_string", "truth_x_star_true",
             "truth_sigma_star_string"],
    )
    def test_non_number_entries_are_usage_error(self, tmp_path, capsys, file, key, entry, expected):
        # JSON strings, booleans and nulls are not numbers, though numpy would
        # read "0.25" as 0.25 and true as 1.0; "quoted" quotes one entry
        model_path = generate(tmp_path, family="purechar", J=4, M=3, n=30)
        paths = {"model": model_path, "truth": tmp_path / "model.truth.json"}
        paths.update(shares=tmp_path / "shares.json", x0=tmp_path / "x0.json")
        if file in ("model", "truth"):
            doc = modelio.read_json(paths[file])
            values = doc[key]
        else:
            values = [0.2, 0.1, 0.1, 0.1]
            doc = values if key is None else {key: values}
        inner = values[0] if isinstance(values[0], list) else values
        inner[0] = str(inner[0]) if entry == "quoted" else entry
        modelio.write_json(paths[file], doc)
        shares = paths["shares"] if file == "shares" else "0.2,0.1,0.1,0.1"
        x0 = paths["x0"] if file == "x0" else "truth+delta:0.5"  # reads the truth file
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", shares, "--x0", x0,
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {expected} must be a rectangular array of numbers\n"
        assert not (tmp_path / "r.json").exists()

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

    def run_from_overflowing_start(self, tmp_path, capsys, family, method):
        """invert from x0 = 1.79e308 on a generated model, with every warning an
        error, checked to be a valid run that does not converge; returns its
        result document."""
        model_path = generate(tmp_path, family=family)
        x0_path = tmp_path / "x0.json"
        modelio.write_json(x0_path, [1.79e308] * 3)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "invert",
                "--model", model_path,
                "--shares", "0.2,0.2,0.2",
                "--method", method,
                "--x0", x0_path,
                "--out", tmp_path / "r.json",
            )
        assert code == EXIT_NO_CONVERGENCE
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.startswith(f"{method} did not converge: ")
        assert sorted(p.name for p in tmp_path.glob("r.*")) == ["r.json", "r.trace.csv"]
        doc = modelio.read_json(tmp_path / "r.json")
        assert doc["method"] == method and doc["converged"] is False
        assert len(doc["x_final"]) == 3 and all(map(math.isfinite, doc["x_final"]))
        return doc

    @pytest.mark.parametrize("family", ["logit", "purechar"])
    def test_convex_tr_from_overflowing_start_is_valid_run(self, tmp_path, capsys, family):
        # convex_tr reads the welfare, whose per-consumer values sum past a
        # double at this start; their mean does not, so the run goes on
        doc = self.run_from_overflowing_start(tmp_path, capsys, family, "convex_tr")
        assert doc["eval_counts"]["welfare"] > 0

    @pytest.mark.parametrize("method", ["contraction", "residual_tr"])
    @pytest.mark.parametrize("family", ["logit", "purechar"])
    def test_overflowing_start_is_valid_run_without_welfare(
        self, tmp_path, capsys, family, method
    ):
        # the shares and the Jacobian stay finite at this start, and these
        # methods never read the welfare
        doc = self.run_from_overflowing_start(tmp_path, capsys, family, method)
        assert doc["eval_counts"]["welfare"] == 0

    @pytest.mark.parametrize(
        "file, key, expected",
        [
            ("model", "z", "model file: 'z'"),
            ("model", "nu", "model file: 'nu'"),
            ("truth", "x_star", "truth file: 'x_star'"),
            ("truth", "sigma_star", "truth file: 'sigma_star'"),
            ("shares", "shares", "shares file"),
            ("x0", None, "x0 file"),
        ],
        ids=["model_z", "model_nu", "truth_x_star", "truth_sigma_star", "shares", "x0"],
    )
    def test_huge_integer_entry_is_usage_error(self, tmp_path, capsys, file, key, expected):
        # Python's JSON reader keeps a 401-digit integer exact; its conversion
        # to a double overflows
        model_path = generate(tmp_path)
        paths = {"model": model_path, "truth": tmp_path / "model.truth.json"}
        paths.update(shares=tmp_path / "shares.json", x0=tmp_path / "x0.json")
        modelio.write_json(paths["shares"], {"shares": [0.2, 0.3, 0.1]})
        modelio.write_json(paths["x0"], [0.0, 0.0, 0.0])
        doc = modelio.read_json(paths[file])
        values = doc if key is None else doc[key]
        inner = values[-1] if isinstance(values[-1], list) else values
        inner[-1] = 10**400
        modelio.write_json(paths[file], doc)
        x0 = "truth+delta:1" if file == "truth" else paths["x0"]
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", paths["shares"], "--x0", x0,
            "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {expected} has an integer too large for a double\n"

    def test_truth_file_unknown_key_is_usage_error(self, tmp_path, capsys):
        model_path = generate(tmp_path)
        truth_path = tmp_path / "model.truth.json"
        doc = modelio.read_json(truth_path)
        doc["x0"] = [0.0, 0.0, 0.0]
        modelio.write_json(truth_path, doc)
        capsys.readouterr()
        code = run_cli(
            "invert", "--model", model_path, "--shares", "0.2,0.3,0.1",
            "--x0", "truth+delta:1", "--out", tmp_path / "r.json",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: truth file has unknown keys: x0\n"

    def test_long_inline_share_list(self, tmp_path):
        # J=30 shares at full precision make an argument longer than a file
        # name may be; it is read as the list, to the truth file's result bytes
        model_path = generate(tmp_path, J=30, M=3, n=40)
        truth_path = tmp_path / "model.truth.json"
        inline = ",".join(repr(s) for s in modelio.read_json(truth_path)["sigma_star"])
        assert len(inline) > 255
        outs = (tmp_path / "inline.json", tmp_path / "file.json")
        for shares, out in zip((inline, truth_path), outs):
            code = run_cli("invert", "--model", model_path, "--shares", shares, "--out", out)
            assert code == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        traces = [out.with_suffix(".trace.csv").read_bytes() for out in outs]
        assert traces[0] == traces[1]

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

    def test_repeated_method_is_usage_error(self, tmp_path, capsys):
        doc = self.spec_doc()
        doc["methods"] = ["convex_tr", "residual_tr", "convex_tr"]
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: method 'convex_tr' is listed more than once\n"
        assert not (tmp_path / "run").exists()

    def test_replication_count_beyond_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # refused while the spec is read: the suite is never started
        monkeypatch.setattr(cli, "run_suite", suite_never_started)
        doc = self.spec_doc()
        doc["replications"] = 10**400
        spec_path = self.write_spec(tmp_path, doc)
        code = run_cli("simulate", "--spec", spec_path, "--out-dir", tmp_path / "run")
        assert code == EXIT_USAGE
        expected = f"error: replications must be <= {di.harness.MAX_REPLICATIONS}\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "run").exists()

    def test_missing_spec_file_is_io_error(self, tmp_path):
        code = run_cli("simulate", "--spec", tmp_path / "nope.json", "--out-dir", tmp_path / "r")
        assert code == EXIT_IO


# What the fuzz swaps in for a value: JSON null, booleans, a string, nested and
# ragged lists, numbers at the edge of a double, an integer beyond it, and the
# NaN and Infinity literals that Python's JSON writer emits.
FUZZ_VALUES = (
    None, True, False, "0.25", [[0.5]], [0.5, [0.5]], 1e308, -1e308, 10**400, -(10**400),
    math.nan, math.inf, -math.inf,
)


def json_paths(doc, prefix=()):
    """Every node of a JSON document, as its key/index path from the root."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid model, truth, spec, --shares and --x0 documents for a tiny market
    of each family."""
    inputs = {}
    for family in ("logit", "purechar"):
        base = tmp_path_factory.mktemp(family)
        model_path = generate(base, family=family, J=2, M=2, n=4)
        truth = modelio.read_json(base / "model.truth.json")
        spec = {
            "model_family": family, "J": 2, "M": 2, "n": 4, "replications": 2,
            "delta_norm": 1.0, "master_seed": 0, "solver": {"max_iterations": 10},
        }
        inputs[family] = {
            "model": modelio.read_json(model_path),
            "truth": truth,
            "spec": spec,
            "shares": {"shares": truth["sigma_star"]},
            "x0": [0.5, -0.5],
        }
    return inputs


class TestInputFuzz:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        family=st.sampled_from(("logit", "purechar")),
        file=st.sampled_from(("model", "truth", "spec", "shares", "x0")),
        method=st.sampled_from(di.METHODS),
        data=st.data(),
    )
    def test_mutated_input_file_exits_cleanly(self, fuzz_inputs, family, file, method, data):
        # one value deleted or swapped in one valid input file: the command
        # line converges, does not converge, or refuses the file in one line
        docs = copy.deepcopy(fuzz_inputs[family])
        path = data.draw(st.sampled_from(list(json_paths(docs[file]))))
        delete = bool(path) and data.draw(st.booleans())
        value = None if delete else data.draw(st.sampled_from(FUZZ_VALUES))
        # a huge trial budget is valid, so it is a long run rather than a refusal
        assume(not (file == "spec" and path[-1:] == ("max_iterations",) and value == 10**400))
        if not path:
            docs[file] = value
        else:
            parent = docs[file]
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, f"{name}.json") for name in docs}
            paths["truth"] = os.path.join(tmp, "model.truth.json")
            for name, doc in docs.items():
                modelio.write_json(paths[name], doc)
            if file == "spec":
                argv = ["simulate", "--spec", paths["spec"], "--out-dir", os.path.join(tmp, "run")]
            else:
                x0 = "truth+delta:1" if file == "truth" else paths["x0"]
                argv = [
                    "invert", "--model", paths["model"], "--shares", paths["shares"],
                    "--x0", x0, "--method", method, "--max-iter", "10",
                    "--out", os.path.join(tmp, "r.json"),
                ]
            err = io.StringIO()
            with (
                mock.patch.dict(os.environ, {di.WORKERS_ENV: "1"}),
                mock.patch.object(cli, "run_suite", small_suite),
                contextlib.redirect_stderr(err),
                contextlib.redirect_stdout(io.StringIO()),
            ):
                code = run_cli(*argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE)
        assert "Traceback" not in err.getvalue()
        if code == EXIT_USAGE:
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


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
