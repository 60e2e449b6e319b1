"""Evaluator contract shared by all demand models, and input validation."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

# Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.5772156649015329

# Slack used when checking simplex membership of share vectors.
SIMPLEX_ATOL = 1e-12


class InvalidInputError(ValueError):
    """Structurally invalid input: wrong shape, non-finite entries, bad flags."""


class UnsupportedTargetError(InvalidInputError):
    """Target share vector that the selected method cannot handle."""


def as_float_array(value, name: str) -> np.ndarray:
    """np.asarray(value, dtype=float), raising InvalidInputError for strings
    and ragged nesting."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a rectangular array of numbers") from None


def as_mean_utility(x, J: int | None = None) -> np.ndarray:
    """Validate and return a mean-utility vector as a float64 array.

    Rejects NaN/infinite coordinates eagerly so solvers can tell model
    failures apart from bad steps.
    """
    x = np.atleast_1d(as_float_array(x, "mean utility"))
    if x.ndim != 1:
        raise InvalidInputError(f"mean utility must be a vector, got shape {x.shape}")
    if J is not None and x.shape[0] != J:
        raise InvalidInputError(f"mean utility has dimension {x.shape[0]}, expected {J}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("mean utility has NaN or infinite coordinates")
    return x


def as_share_vector(s, J: int | None = None) -> np.ndarray:
    """Validate a vector of inside-good shares: finite, >= 0, coordinate sum <= 1.

    SIMPLEX_ATOL absorbs float round-off; genuine violations raise
    InvalidInputError naming the offending coordinate.
    """
    s = np.atleast_1d(as_float_array(s, "share vector"))
    if s.ndim != 1:
        raise InvalidInputError(f"share vector must be a vector, got shape {s.shape}")
    if J is not None and s.shape[0] != J:
        raise InvalidInputError(f"share vector has dimension {s.shape[0]}, expected {J}")
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("share vector has NaN or infinite coordinates")
    bad = np.nonzero(s < -SIMPLEX_ATOL)[0]
    if bad.size:
        raise InvalidInputError(f"share coordinate {bad[0]} is negative ({s[bad[0]]!r})")
    total = float(s.sum())
    if total > 1.0 + SIMPLEX_ATOL:
        raise InvalidInputError(f"shares sum to {total!r} > 1 (outside share would be negative)")
    return s


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """seed as a SeedSequence, raising InvalidInputError for a negative or non-integer seed."""
    try:
        return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}") from None


def set_frozen_array(obj, name: str, value, shape=None) -> np.ndarray:
    """Coerce a frozen-dataclass field to a validated read-only float array."""
    arr = np.array(as_float_array(value, name))
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class ModelEvaluation:
    """Welfare, shares, and optionally the share Jacobian at one utility point.

    The Jacobian, when present, is the Hessian of the (convex) welfare
    function, so it is symmetric positive semidefinite up to round-off.
    """

    welfare: float
    shares: np.ndarray
    jacobian: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.welfare):
            raise InvalidInputError("welfare must be finite")
        shares = np.asarray(self.shares, dtype=float)
        if shares.ndim != 1 or not np.all(np.isfinite(shares)):
            raise InvalidInputError("shares must be a finite vector")
        object.__setattr__(self, "shares", shares)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian, dtype=float)
            J = shares.shape[0]
            if jac.shape != (J, J) or not np.all(np.isfinite(jac)):
                raise InvalidInputError(f"jacobian must be a finite {J}x{J} matrix")
            object.__setattr__(self, "jacobian", jac)


class DemandModel(abc.ABC):
    """A demand system that reports average welfare, shares, and the share Jacobian.

    Implementations are immutable after construction; `evaluate` must be
    deterministic and safe to call concurrently.
    """

    @property
    @abc.abstractmethod
    def J(self) -> int:
        """Number of inside products."""

    @abc.abstractmethod
    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Evaluate welfare and shares (and the Jacobian if requested) at x."""

