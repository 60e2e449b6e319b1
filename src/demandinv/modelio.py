"""File formats: JSON model files with truth sidecars, experiment spec files,
long-form trace CSVs, and the band/degeneracy/manifest reports.

All floats are serialized via Python's shortest round-trip repr, so
write-then-read reproduces doubles bit-exactly and repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from pathlib import Path

import numpy as np

from .core import InvalidInputError, as_float_array, as_mean_utility, as_share_vector
from .harness import DEGENERACY_THRESHOLD, FAMILIES, DegeneracyStats, ExperimentSpec, MethodBand
from .solvers import InversionResult

ARTIFACT_VERSION = "4"

# trace.csv columns, in file order.
TRACE_COLUMNS = (
    "replication_id",
    "method",
    "iteration",
    "error_maxnorm",
    "evaluations",
)

def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def read_json(path):
    """The document in a UTF-8 JSON file; content that fails to decode raises InvalidInputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes or syntax, deep nesting, long int
            raise InvalidInputError(f"invalid JSON: {path}: {exc}") from None


# The JSON value each field type accepts: (what it must be, the check).
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int)),
    float: ("a number", lambda v: isinstance(v, (int, float))),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[str, ...]: (
        "a list of method names",
        lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v),
    ),
}


def _numbers(value, name: str) -> np.ndarray:
    """A JSON value as a float array; InvalidInputError unless every entry of its
    nested lists is a JSON number, which numpy would not check."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        elif type(item) not in (int, float):
            raise InvalidInputError(f"{name} must be a rectangular array of numbers")
    return as_float_array(value, name)


def _field(doc: dict, key: str, kind, what: str):
    """doc[key] checked against _KINDS and converted to `kind`, an array of
    numbers, or a nested dataclass; JSON booleans never count as numbers."""
    if dataclasses.is_dataclass(kind):
        return _from_doc(kind, doc[key], f"{what} {key}")
    value = doc[key]
    if kind is np.ndarray:
        return _numbers(value, f"{what}: {key!r}")
    expected, valid = _KINDS[kind]
    if isinstance(value, bool) or not valid(value):
        raise InvalidInputError(f"{what}: {key!r} must be {expected}, got {value!r:.40}")
    try:
        return kind(value)
    except OverflowError:  # a JSON integer beyond the range of a double
        raise InvalidInputError(f"{what}: {key!r} must fit in a double, got {value!r:.40}") from None


def _from_doc(cls, doc, what: str):
    """A `cls` dataclass from a JSON object keyed by its field names; unknown keys,
    missing fields without a default and mistyped values raise InvalidInputError,
    the values checked in the object's key order."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must hold a JSON object")
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    missing = [key for key in required if key not in doc]
    if missing:
        raise InvalidInputError(f"{what} is missing keys: {', '.join(missing)}")
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise InvalidInputError(f"{what} has unknown keys: {', '.join(unknown)}")
    kinds = typing.get_type_hints(cls)
    return cls(**{key: _field(doc, key, kinds[key], what) for key in doc})


def _to_doc(obj) -> dict:
    """The inverse of _from_doc: fields in order, arrays and tuples as lists, None left out."""
    doc = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = _to_doc(value)
        elif isinstance(value, (np.ndarray, tuple)):
            value = list(value) if isinstance(value, tuple) else value.tolist()
        if value is not None:
            doc[f.name] = value
    return doc


# ---------------------------------------------------------------------------
# model files


@dataclasses.dataclass(frozen=True)
class _ModelFile:
    """A model file's keys in file order; model_to_dict and market_from_dict both use it."""

    family: str
    J: int
    M: int
    n: int
    beta: np.ndarray
    z: np.ndarray
    nu: np.ndarray
    seed: int = 0


def model_to_dict(market, seed=None) -> dict:
    family = next((name for name, cls in FAMILIES.items() if isinstance(market, cls)), None)
    if family is None:
        raise InvalidInputError(f"cannot serialize model of type {type(market).__name__}")
    draws = getattr(market, market.DRAWS)
    seed = None if seed is None else int(seed)  # None leaves the key out, read back as 0
    model = _ModelFile(family, market.J, market.M, market.n, market.beta, market.z, draws, seed)
    return _to_doc(model)


def market_from_dict(doc):
    model = _from_doc(_ModelFile, doc, "model file")
    if model.seed < 0:
        raise InvalidInputError(f"model file: 'seed' must be non-negative, got {model.seed}")
    if model.family not in FAMILIES:
        raise InvalidInputError(f"unknown model family {model.family!r}")
    market = FAMILIES[model.family](model.z, model.nu, model.beta)
    shape, expected = (market.J, market.M, market.n), (model.J, model.M, model.n)
    if shape != expected:
        raise InvalidInputError(f"arrays have shape (J, M, n) = {shape}, expected {expected}")
    return market


def save_model(path, market, seed=None) -> None:
    write_json(path, model_to_dict(market, seed=seed))


def load_model(path):
    return market_from_dict(read_json(path))


def truth_path_for(model_path) -> Path:
    return Path(model_path).with_suffix(".truth.json")


@dataclasses.dataclass(frozen=True)
class _TruthFile:
    """A truth sidecar's keys, in file order, as save_truth writes and load_truth reads them."""

    x_star: np.ndarray
    sigma_star: np.ndarray


def save_truth(path, x_star, sigma_star) -> None:
    arrays = (np.asarray(x_star, dtype=float), np.asarray(sigma_star, dtype=float))
    write_json(path, _to_doc(_TruthFile(*arrays)))


def load_truth(path):
    truth = _from_doc(_TruthFile, read_json(path), "truth file")
    return as_mean_utility(truth.x_star), as_share_vector(truth.sigma_star)


def load_vector(path, keys, missing: str):
    """Vector values from a JSON file holding a bare array, or an object with
    the values under the first of `keys` present; `missing` is the error
    message when the object has none of them or the file holds null."""
    doc = read_json(path)
    if isinstance(doc, dict):
        doc = next((doc[key] for key in keys if doc.get(key) is not None), None)
    if doc is None:
        raise InvalidInputError(missing)
    return _numbers(doc, f"{keys[0]} file")


# ---------------------------------------------------------------------------
# experiment spec files


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """The spec file's JSON object: the spec's fields in order, lists for tuples."""
    return _to_doc(spec)


def spec_from_dict(doc) -> ExperimentSpec:
    return _from_doc(ExperimentSpec, doc, "experiment spec")


def spec_sha256(spec: ExperimentSpec) -> str:
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# run artifacts


def write_trace_csv(path, results: dict) -> None:
    """Long-form raw traces, one row per accepted iterate, sorted by
    (method, replication_id, iteration). `evaluations` counts the model
    evaluations made up to each iterate's acceptance. No field needs CSV
    quoting, so the rows are formatted directly, one write per run, which
    keeps no more than one run's rows in memory."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for method, replication in sorted(results):
            res: InversionResult = results[(method, replication)]
            pairs = enumerate(zip(res.error_trace.tolist(), res.eval_trace.tolist()))
            rows = [
                f"{replication},{method},{k},{error!r},{evals}\n" for k, (error, evals) in pairs
            ]
            fh.write("".join(rows))


def bands_to_dict(bands: dict[str, MethodBand]) -> dict:
    methods = {}
    for method, band in sorted(bands.items()):
        rate = band.empirical_rate
        methods[method] = {
            "min": band.minimum.tolist(),
            "median": band.median.tolist(),
            "max": band.maximum.tolist(),
            "empirical_rate": None if math.isnan(rate) else float(rate),
        }
    return {"methods": methods}


def degeneracy_to_dict(deg: DegeneracyStats) -> dict:
    columns = _to_doc(deg)
    rows = zip(*columns.values())
    return {
        "threshold": DEGENERACY_THRESHOLD,
        "fraction_below": deg.fraction_below(),
        "replications": [
            {"replication_id": r, **dict(zip(columns, row))} for r, row in enumerate(rows)
        ],
    }


def manifest_dict(spec: ExperimentSpec, failures: dict) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "master_seed": spec.master_seed,
        "spec_sha256": spec_sha256(spec),
        "spec": spec_to_dict(spec),
        "failures": {
            f"{method}:{replication}": message
            for (method, replication), message in sorted(failures.items())
        },
    }


def inversion_result_to_dict(res: InversionResult, method: str) -> dict:
    return {
        "method": method,
        "converged": bool(res.converged),
        "iterations_used": int(res.iterations_used),
        "error_final": float(res.error_trace[-1]),
        "x_final": res.x_final.tolist(),
        "eval_counts": {k: int(res.eval_counts[k]) for k in sorted(res.eval_counts)},
    }
