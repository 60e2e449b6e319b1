"""File formats: JSON model files with truth sidecars, experiment spec files,
long-form trace CSVs, and the band/degeneracy/manifest reports.

All floats are serialized via Python's shortest round-trip repr, so
write-then-read reproduces doubles bit-exactly and repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
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

_MODEL_KEYS = {"family", "J", "M", "n", "beta", "z", "nu", "seed"}


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require(doc: dict, keys, what: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidInputError(f"{what} is missing keys: {', '.join(missing)}")


def _reject_unknown(doc: dict, allowed, what: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise InvalidInputError(f"{what} has unknown keys: {', '.join(unknown)}")


def _typed(doc: dict, key: str, what: str, expected: str, valid):
    """doc[key], or InvalidInputError unless valid(doc[key]); JSON booleans
    never count as numbers."""
    value = doc[key]
    if isinstance(value, bool) or not valid(value):
        raise InvalidInputError(f"{what}: {key!r} must be {expected}, got {value!r:.40}")
    return value


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


def _field(doc: dict, key: str, kind, what: str):
    """doc[key] checked against _KINDS and converted to `kind`, or a nested dataclass."""
    if dataclasses.is_dataclass(kind):
        return _from_doc(kind, doc[key], f"{what} {key}")
    expected, valid = _KINDS[kind]
    value = _typed(doc, key, what, expected, valid)
    try:
        return kind(value)
    except OverflowError:  # a JSON integer beyond the range of a double
        raise InvalidInputError(f"{what}: {key!r} must fit in a double, got {value!r:.40}") from None


def _from_doc(cls, doc, what: str):
    """A `cls` dataclass from a JSON object keyed by its field names; unknown keys,
    missing fields without a default and mistyped values raise InvalidInputError."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must hold a JSON object")
    fields = dataclasses.fields(cls)
    missing = dataclasses.MISSING
    required = [f.name for f in fields if f.default is missing and f.default_factory is missing]
    _require(doc, required, what)
    _reject_unknown(doc, [f.name for f in fields], what)
    kinds = typing.get_type_hints(cls)
    return cls(**{key: _field(doc, key, kinds[key], what) for key in doc})


# ---------------------------------------------------------------------------
# model files


def model_to_dict(market, seed=None) -> dict:
    family = next((name for name, fam in FAMILIES.items() if isinstance(market, fam.market)), None)
    if family is None:
        raise InvalidInputError(f"cannot serialize model of type {type(market).__name__}")
    doc = {
        "family": family,
        "J": market.J,
        "M": market.M,
        "n": market.n,
        "beta": market.beta.tolist(),
        "z": market.z.tolist(),
        "nu": getattr(market, FAMILIES[family].draws).tolist(),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def market_from_dict(doc):
    if not isinstance(doc, dict):
        raise InvalidInputError("model file must hold a JSON object")
    _require(doc, ("family", "J", "M", "n", "beta", "z", "nu"), "model file")
    _reject_unknown(doc, _MODEL_KEYS, "model file")
    family = _field(doc, "family", str, "model file")
    J, M, n = (_field(doc, key, int, "model file") for key in ("J", "M", "n"))
    z, nu, beta = (as_float_array(doc[key], f"model file: {key!r}") for key in ("z", "nu", "beta"))
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown model family {family!r}")
    fam = FAMILIES[family]
    market = fam.market(**{"z": z, fam.draws: nu, "beta": beta})
    shape = (market.J, market.M, market.n)
    if shape != (J, M, n):
        raise InvalidInputError(f"arrays have shape (J, M, n) = {shape}, expected {(J, M, n)}")
    return market


def save_model(path, market, seed=None) -> None:
    write_json(path, model_to_dict(market, seed=seed))


def load_model(path):
    return market_from_dict(read_json(path))


def truth_path_for(model_path) -> Path:
    return Path(model_path).with_suffix(".truth.json")


def save_truth(path, x_star, sigma_star) -> None:
    write_json(
        path,
        {
            "x_star": np.asarray(x_star, dtype=float).tolist(),
            "sigma_star": np.asarray(sigma_star, dtype=float).tolist(),
        },
    )


def load_truth(path):
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InvalidInputError("truth file must hold a JSON object")
    _require(doc, ("x_star", "sigma_star"), "truth file")
    return as_mean_utility(doc["x_star"]), as_share_vector(doc["sigma_star"])


def load_vector(path, keys, missing: str):
    """Vector values from a JSON file holding a bare array, or an object with
    the values under the first of `keys` present; `missing` is the error
    message when the object has none of them."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        return doc
    values = next((doc[key] for key in keys if doc.get(key) is not None), None)
    if values is None:
        raise InvalidInputError(missing)
    return values


def load_shares(path):
    """Share vector from a JSON file: a bare array, or an object with a
    'shares' or 'sigma_star' key (truth sidecars work directly)."""
    missing = "shares file needs a 'shares' or 'sigma_star' key"
    return as_share_vector(load_vector(path, ("shares", "sigma_star"), missing))


# ---------------------------------------------------------------------------
# experiment spec files


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """The spec file's JSON object: the spec's fields in order, lists for tuples."""
    doc = dataclasses.asdict(spec)
    return {key: list(value) if isinstance(value, tuple) else value for key, value in doc.items()}


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
    evaluations made up to each iterate's acceptance."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for method, replication in sorted(results):
            res: InversionResult = results[(method, replication)]
            rows = zip(res.error_trace.tolist(), res.eval_trace.tolist())
            for k, (error, evals) in enumerate(rows):
                writer.writerow([replication, method, k, repr(error), evals])


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
    return {
        "threshold": DEGENERACY_THRESHOLD,
        "fraction_below": deg.fraction_below(),
        "replications": [
            {
                "replication_id": r,
                "min_inside_share": float(deg.min_inside_share[r]),
                "outside_share": float(deg.outside_share[r]),
                "min_overall": float(deg.min_overall[r]),
            }
            for r in range(deg.min_overall.size)
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
