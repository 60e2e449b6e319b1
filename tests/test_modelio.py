"""Serialization: model/truth/spec JSON files, trace CSVs, and run artifacts.
Floats travel as shortest round-trip decimal text, so reloads are bit-exact."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import demandinv as di
from demandinv import modelio
from oracles import read_trace_csv

SPECS_DIR = Path(__file__).parents[1] / "specs"

# spec_sha256 of each shipped spec; manifest.json records it, so it must not drift.
SHIPPED_SPEC_SHA256 = {
    "logit_desk.json": "b8fb6f7369f05bd051ad28586b1e0a120d650b960b2eded60c87a6a88701b60a",
    "logit_paper.json": "57efa27fde752c898249c328ecda00aae07790ff02e328f0ffa6f6029dcb47e0",
    "purechar_desk.json": "7952f238ef37ec04e41abba937be4aa45fc5b8d9431c883d3863cf5338842cd0",
    "purechar_paper.json": "097a4446de2a98d5e277d5ed258450d33dbd51034ecf0ecb2a85a2dbf1573c8f",
}

# sha256 of the bytes save_model writes for make_<family>_instance(3, 2, 4, seed=5),
# without and with the seed key; model files are read back by every later version,
# so they must not drift.
SAVED_MODEL_SHA256 = {
    ("logit", None): "d5ca8ab9a570348760f8be8e1387df70ca174cbe8fff6d1dc28229744e8770c2",
    ("logit", 5): "e917a5b02f4759403fccf47b47d9522cb319a24b0c34d85350f56b79d273038a",
    ("purechar", None): "6c0e89e0eb9ccbd051928dbb29d6215aff266669b5632c3bc0834861a85a9e29",
    ("purechar", 5): "bb8df60e0b8fd03185d8ab849509683cf6c64fed0bcc8d387068a859877d5a5d",
}


@pytest.fixture()
def logit_triple():
    return di.make_logit_instance(4, 2, 25, seed=11)


@pytest.fixture()
def purechar_triple():
    return di.make_purechar_instance(4, 3, 25, seed=11)


class WrappedMarket(di.DemandModel):
    """A market behind a DemandModel class that no model family names."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def J(self):
        return self.inner.J

    def evaluate(self, x, want_jacobian=False):
        return self.inner.evaluate(x, want_jacobian)


class TestModelFiles:
    @pytest.mark.parametrize("family", ["logit", "purechar"])
    def test_round_trip_is_bit_exact(self, tmp_path, family, logit_triple, purechar_triple):
        market, x_star, sigma_star = logit_triple if family == "logit" else purechar_triple
        path = tmp_path / "model.json"
        modelio.save_model(path, market, seed=11)
        loaded = modelio.load_model(path)
        assert type(loaded) is type(market)
        assert np.array_equal(loaded.z, market.z)
        assert np.array_equal(loaded.beta, market.beta)
        if family == "logit":
            assert np.array_equal(loaded.nu, market.nu)
        else:
            assert np.array_equal(loaded.nu_rest, market.nu_rest)
        # the reload reproduces the target shares to the last bit
        assert np.array_equal(loaded.evaluate(x_star).shares, sigma_star)

    def test_seed_key_optional(self, tmp_path, logit_triple):
        market, _, _ = logit_triple
        path = tmp_path / "model.json"
        modelio.save_model(path, market)
        assert "seed" not in modelio.read_json(path)
        modelio.save_model(path, market, seed=5)
        assert modelio.read_json(path)["seed"] == 5
        modelio.load_model(path)  # seed key tolerated on the way back in

    def test_unknown_keys_rejected(self, tmp_path, logit_triple):
        market, _, _ = logit_triple
        path = tmp_path / "model.json"
        modelio.save_model(path, market)
        doc = modelio.read_json(path)
        doc["extra"] = 1
        modelio.write_json(path, doc)
        with pytest.raises(di.InvalidInputError, match="unknown keys"):
            modelio.load_model(path)

    def test_missing_keys_rejected(self, tmp_path, logit_triple):
        market, _, _ = logit_triple
        path = tmp_path / "model.json"
        doc = modelio.model_to_dict(market)
        del doc["beta"]
        modelio.write_json(path, doc)
        with pytest.raises(di.InvalidInputError, match="missing keys"):
            modelio.load_model(path)

    @pytest.mark.parametrize("key", ["J", "M", "n"])
    @pytest.mark.parametrize("family", ["logit", "purechar"])
    def test_shape_mismatch_rejected(self, family, key, logit_triple, purechar_triple):
        market, _, _ = logit_triple if family == "logit" else purechar_triple
        doc = modelio.model_to_dict(market)
        doc[key] += 1
        with pytest.raises(di.InvalidInputError, match="shape"):
            modelio.market_from_dict(doc)

    @pytest.mark.parametrize("family, seed", list(SAVED_MODEL_SHA256))
    def test_saved_bytes_pinned(self, tmp_path, family, seed):
        make = di.make_logit_instance if family == "logit" else di.make_purechar_instance
        market, _, _ = make(3, 2, 4, seed=5)
        path = tmp_path / "model.json"
        modelio.save_model(path, market, seed=seed)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_MODEL_SHA256[(family, seed)]

    def test_model_of_no_family_not_serialized(self, logit_triple):
        with pytest.raises(di.InvalidInputError, match="cannot serialize .* WrappedMarket"):
            modelio.model_to_dict(WrappedMarket(logit_triple[0]))

    def test_unknown_family_rejected(self, logit_triple):
        market, _, _ = logit_triple
        doc = modelio.model_to_dict(market)
        doc["family"] = "nested"
        with pytest.raises(di.InvalidInputError):
            modelio.market_from_dict(doc)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        modelio.write_json(path, [1, 2, 3])
        with pytest.raises(di.InvalidInputError):
            modelio.load_model(path)


class TestTruthAndShares:
    def test_truth_sidecar_round_trip(self, tmp_path, purechar_triple):
        _, x_star, sigma_star = purechar_triple
        model_path = tmp_path / "model.json"
        truth_path = modelio.truth_path_for(model_path)
        assert truth_path == tmp_path / "model.truth.json"
        modelio.save_truth(truth_path, x_star, sigma_star)
        x_back, s_back = modelio.load_truth(truth_path)
        assert np.array_equal(x_back, x_star)
        assert np.array_equal(s_back, sigma_star)

    def test_load_shares_accepts_three_layouts(self, tmp_path):
        values = [0.2, 0.3, 0.1]
        for doc in (values, {"shares": values}, {"sigma_star": values, "x_star": [0, 0, 0]}):
            path = tmp_path / "shares.json"
            modelio.write_json(path, doc)
            assert np.array_equal(modelio.load_shares(path), np.array(values))

    def test_load_shares_needs_known_key(self, tmp_path):
        path = tmp_path / "shares.json"
        modelio.write_json(path, {"values": [0.5]})
        with pytest.raises(di.InvalidInputError):
            modelio.load_shares(path)

    def test_load_shares_validates_simplex(self, tmp_path):
        path = tmp_path / "shares.json"
        modelio.write_json(path, [0.9, 0.9])
        with pytest.raises(di.InvalidInputError):
            modelio.load_shares(path)


class TestSpecFiles:
    def spec(self):
        return di.ExperimentSpec(
            model_family="purechar",
            J=5,
            M=3,
            n=40,
            replications=6,
            methods=("convex_tr", "contraction"),
            delta_norm=7.5,
            solver=di.SolverConfig(max_iterations=80, gradient_tolerance=1e-12),
            master_seed=9,
        )

    def test_round_trip(self):
        spec = self.spec()
        doc = modelio.spec_to_dict(spec)
        # The spec file's key order, which manifest.json keeps.
        assert list(doc) == [
            "model_family", "J", "M", "n", "replications",
            "methods", "delta_norm", "master_seed", "solver",
        ]
        assert doc["methods"] == ["convex_tr", "contraction"]
        back = modelio.spec_from_dict(doc)
        assert back == spec

    def test_integer_numbers_read_as_floats(self):
        doc = {"model_family": "logit", "J": 3, "M": 2, "n": 10, "replications": 2,
               "delta_norm": 5, "solver": {"gradient_tolerance": 1}}
        spec = modelio.spec_from_dict(doc)
        assert type(spec.delta_norm) is float and spec.delta_norm == 5.0
        assert type(spec.solver.gradient_tolerance) is float
        assert spec.solver.gradient_tolerance == 1.0

    def test_defaults_fill_in(self):
        doc = {"model_family": "logit", "J": 3, "M": 2, "n": 10, "replications": 2}
        spec = modelio.spec_from_dict(doc)
        assert spec.methods == di.METHODS
        assert spec.delta_norm == 20.0
        assert spec.master_seed == 0
        assert spec.solver == di.SolverConfig()

    def test_unknown_keys_rejected(self):
        doc = modelio.spec_to_dict(self.spec())
        doc["verbose"] = True
        with pytest.raises(di.InvalidInputError, match="unknown keys"):
            modelio.spec_from_dict(doc)

    def test_bad_solver_field_rejected(self):
        doc = modelio.spec_to_dict(self.spec())
        doc["solver"]["step_size"] = 0.1
        with pytest.raises(di.InvalidInputError, match="solver"):
            modelio.spec_from_dict(doc)

    def test_shipped_specs_round_trip(self):
        paths = sorted(SPECS_DIR.glob("*.json"))
        assert paths
        assert [path.name for path in paths] == sorted(SHIPPED_SPEC_SHA256)
        for path in paths:
            spec = modelio.spec_from_dict(modelio.read_json(path))
            assert modelio.spec_from_dict(modelio.spec_to_dict(spec)) == spec, path.name
            assert modelio.spec_sha256(spec) == SHIPPED_SPEC_SHA256[path.name]

    def test_hash_is_stable_and_discriminating(self):
        a = modelio.spec_sha256(self.spec())
        b = modelio.spec_sha256(self.spec())
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")
        other = di.ExperimentSpec(model_family="logit", J=5, M=3, n=40, replications=6)
        assert modelio.spec_sha256(other) != a


class TestTraceCSV:
    def suite(self):
        spec = di.ExperimentSpec(
            model_family="logit",
            J=3,
            M=2,
            n=20,
            replications=2,
            delta_norm=5.0,
            solver=di.SolverConfig(max_iterations=30),
            master_seed=2,
        )
        return di.run_suite(spec)

    def test_round_trip_and_ordering(self, tmp_path):
        suite = self.suite()
        path = tmp_path / "trace.csv"
        modelio.write_trace_csv(path, suite.results)
        rows = read_trace_csv(path)
        keys = [(r["method"], r["replication_id"], r["iteration"]) for r in rows]
        assert keys == sorted(keys)
        total = sum(res.error_trace.size for res in suite.results.values())
        assert len(rows) == total
        by_run = {}
        for row in rows:
            by_run.setdefault((row["method"], row["replication_id"]), []).append(row)
        for key, run_rows in by_run.items():
            res = suite.results[key]
            assert [r["iteration"] for r in run_rows] == list(range(res.error_trace.size))
            # repr round trip: the parsed errors are the original doubles
            errors = np.array([r["error_maxnorm"] for r in run_rows])
            assert np.array_equal(errors, res.error_trace)
            evals = np.array([r["evaluations"] for r in run_rows])
            assert np.array_equal(evals, res.eval_trace)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(di.InvalidInputError):
            read_trace_csv(path)

    def test_unix_line_endings(self, tmp_path):
        suite = self.suite()
        path = tmp_path / "trace.csv"
        modelio.write_trace_csv(path, suite.results)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestRunArtifacts:
    def test_bands_dict_structure(self):
        spec = di.ExperimentSpec(
            model_family="logit",
            J=3,
            M=2,
            n=15,
            replications=2,
            delta_norm=5.0,
            solver=di.SolverConfig(max_iterations=20),
            master_seed=4,
        )
        suite = di.run_suite(spec)
        doc = modelio.bands_to_dict(suite.bands)
        assert list(doc) == ["methods"]
        assert list(doc["methods"]) == sorted(spec.methods)
        for method, method_doc in doc["methods"].items():
            longest = max(suite.results[(method, r)].error_trace.size for r in range(2))
            assert len(method_doc["min"]) == longest
            assert len(method_doc["median"]) == longest
            assert len(method_doc["max"]) == longest
        json.dumps(doc)  # must be directly serializable

    def test_nan_rate_becomes_null(self):
        band = di.MethodBand(
            minimum=np.zeros(3),
            median=np.zeros(3),
            maximum=np.zeros(3),
            empirical_rate=math.nan,
        )
        doc = modelio.bands_to_dict({"convex_tr": band})
        assert doc["methods"]["convex_tr"]["empirical_rate"] is None

    def test_degeneracy_dict(self):
        deg = di.DegeneracyStats(
            min_inside_share=np.array([0.2, 1e-16]),
            outside_share=np.array([0.1, 0.3]),
            min_overall=np.array([0.1, 1e-16]),
        )
        doc = modelio.degeneracy_to_dict(deg)
        assert doc["threshold"] == 1e-14
        assert doc["fraction_below"] == 0.5
        assert [r["replication_id"] for r in doc["replications"]] == [0, 1]
        assert doc["replications"][1]["min_overall"] == 1e-16

    def test_manifest(self):
        spec = di.ExperimentSpec(model_family="logit", J=3, M=2, n=15, replications=2)
        failures = {("contraction", 1): "unsupported target for contraction"}
        doc = modelio.manifest_dict(spec, failures)
        assert doc["artifact_version"] == modelio.ARTIFACT_VERSION
        assert doc["master_seed"] == 0
        assert doc["spec_sha256"] == modelio.spec_sha256(spec)
        assert doc["spec"] == modelio.spec_to_dict(spec)
        assert doc["failures"] == {"contraction:1": "unsupported target for contraction"}

    def test_inversion_result_dict(self):
        market, _, sigma_star = di.make_logit_instance(3, 2, 15, seed=0)
        res = di.invert(market, sigma_star, "convex_tr")
        doc = modelio.inversion_result_to_dict(res, "convex_tr")
        assert doc["method"] == "convex_tr"
        assert doc["converged"] is True
        assert doc["iterations_used"] == res.iterations_used
        assert doc["error_final"] == res.error_trace[-1]
        assert np.array_equal(np.array(doc["x_final"]), res.x_final)
        assert doc["eval_counts"] == res.eval_counts
        json.dumps(doc)

    def test_write_json_format(self, tmp_path):
        path = tmp_path / "doc.json"
        modelio.write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.startswith("{\n  ")
        # insertion order preserved, not sorted
        assert text.index('"b"') < text.index('"a"')
