"""Evaluator contract shared by all demand models, and input validation."""

from __future__ import annotations

import abc
import math

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
    """np.asarray(value, dtype=float), raising InvalidInputError for strings,
    ragged nesting and integers beyond the range of a double."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise InvalidInputError(f"{name} has an integer too large for a double") from None
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a rectangular array of numbers") from None


def _as_vector(value, name: str, J: int | None, finite: bool = True) -> np.ndarray:
    """value as a float64 vector, of length J when J is given and finite unless
    `finite` is False; a scalar becomes a vector of length 1."""
    v = as_float_array(value, name)
    if v.ndim == 0:
        v = v.reshape(1)
    elif v.ndim != 1:
        raise InvalidInputError(f"{name} must be a vector, got shape {v.shape}")
    if J is not None and v.shape[0] != J:
        raise InvalidInputError(f"{name} has dimension {v.shape[0]}, expected {J}")
    if finite and not np.isfinite(v).all():
        raise InvalidInputError(f"{name} has NaN or infinite coordinates")
    return v


def as_mean_utility(x, J: int | None = None) -> np.ndarray:
    """Validate and return a mean-utility vector as a float64 array.

    Rejects NaN/infinite coordinates eagerly so solvers can tell model
    failures apart from bad steps.
    """
    return _as_vector(x, "mean utility", J)


def as_share_vector(s, J: int | None = None) -> np.ndarray:
    """Validate a vector of inside-good shares: finite, >= 0, coordinate sum <= 1.

    SIMPLEX_ATOL absorbs float round-off; genuine violations raise
    InvalidInputError naming the offending coordinate.
    """
    s = _as_vector(s, "share vector", J)
    bad = np.nonzero(s < -SIMPLEX_ATOL)[0]
    if bad.size:
        raise InvalidInputError(f"share coordinate {bad[0]} is negative ({float(s[bad[0]])!r})")
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
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def check_market_size(J: int, M: int, n: int, min_M: int = 1) -> None:
    """Raise InvalidInputError unless J >= 1, M >= min_M and n >= 1, and the
    (J, M), (n, M) and (J, n) arrays of such a market have element counts
    that numpy can index."""
    if J < 1 or M < min_M or n < 1:
        raise InvalidInputError(f"need J >= 1, M >= {min_M}, n >= 1")
    if max(J * M, n * M, J * n) > np.iinfo(np.intp).max:
        raise InvalidInputError(f"market too large to index: J={J}, M={M}, n={n}")


def frozen_product(a, b, name: str) -> np.ndarray:
    """a @ b as a read-only array; InvalidInputError when an entry overflows a
    double, which would make every later evaluation fail."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = a @ b
    if not np.isfinite(product).all():
        raise InvalidInputError(f"{name} overflows a double")
    product.setflags(write=False)
    return product


def _finite_welfare(welfare):
    if not math.isfinite(welfare):
        raise InvalidInputError("welfare must be finite")
    return welfare


class ModelEvaluation:
    """Welfare, shares, and optionally the share Jacobian at one utility point.

    The Jacobian, when present, is the Hessian of the (convex) welfare
    function, so it is symmetric positive semidefinite up to round-off.
    `welfare` is the value, or a zero-argument function run once, on the first
    read of `.welfare`, with numpy's overflow warning off; it must not read
    memory that a later evaluation overwrites. A non-finite welfare raises
    InvalidInputError here or on that read. Instances are read-only.
    """

    __slots__ = ("_welfare", "shares", "jacobian")

    def __init__(self, welfare, shares, jacobian=None):
        if not callable(welfare):
            welfare = _finite_welfare(welfare)
        shares = np.asarray(shares, dtype=float)
        # a finite sum proves every share finite; Python's float sum, unlike
        # numpy's, never warns, and adds a few floats faster than isfinite
        if shares.ndim != 1 or not (
            math.isfinite(sum(shares.tolist())) or np.isfinite(shares).all()
        ):
            raise InvalidInputError("shares must be a finite vector")
        if jacobian is not None:
            jacobian = np.asarray(jacobian, dtype=float)
            J = shares.shape[0]
            finite = np.logical_and.reduce(np.isfinite(jacobian), axis=None)
            if jacobian.shape != (J, J) or not finite:
                raise InvalidInputError(f"jacobian must be a finite {J}x{J} matrix")
        object.__setattr__(self, "_welfare", welfare)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "jacobian", jacobian)

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelEvaluation is read-only: cannot set {name!r}")

    @property
    def welfare(self) -> float:
        welfare = self._welfare
        if callable(welfare):
            with np.errstate(over="ignore"):
                welfare = _finite_welfare(welfare())
            object.__setattr__(self, "_welfare", welfare)
        return welfare


class DemandModel(abc.ABC):
    """A demand system that reports average welfare, shares, and the share Jacobian.

    Implementations are immutable after construction; `evaluate` must be
    deterministic and safe to call concurrently. It may defer the welfare to
    its first read (see ModelEvaluation), which must then not depend on state
    that a later `evaluate` overwrites.
    """

    @property
    @abc.abstractmethod
    def J(self) -> int:
        """Number of inside products."""

    @abc.abstractmethod
    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Evaluate welfare and shares (and the Jacobian if requested) at x."""


class SyntheticMarket(DemandModel):
    """A synthetic market of J products with M attributes and n consumers.

    A family fixes its first FIXED taste coefficients at 1 and integrates
    them in its evaluator, so it simulates draws only for the other M - FIXED.
    Its dataclass fields are z (J, M), the draws (n, M - FIXED) in the field
    named DRAWS, and beta (M,) with beta[:FIXED] == 1, in that order.
    Construction checks and freezes them, then holds each entry of the dict
    that the family's `_derive(z, draws)` returns, top-level arrays read-only;
    arrays nested in tuples the family makes read-only itself.
    """

    FIXED: int
    DRAWS: str

    def __post_init__(self):
        fixed, name = self.FIXED, self.DRAWS
        z = set_frozen_array(self, "z", self.z)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] <= fixed:
            raise InvalidInputError(
                f"z must be a (J, M) matrix with J >= 1, M >= {fixed + 1}, got {z.shape}"
            )
        free = z.shape[1] - fixed
        draws = set_frozen_array(self, name, getattr(self, name))
        if draws.ndim != 2 or draws.shape[0] < 1 or draws.shape[1] != free:
            raise InvalidInputError(f"{name} must be (n, {free}) with n >= 1, got {draws.shape}")
        beta = set_frozen_array(self, "beta", self.beta, shape=z.shape[1:])
        if (beta[:fixed] != 1.0).any():
            raise InvalidInputError(f"beta[:{fixed}] must be all 1, got {beta[:fixed].tolist()}")
        # derived caches are not fields, so equality and model files never see them
        for key, value in self._derive(z, draws).items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, key, value)

    @property
    def J(self) -> int:
        return self.z.shape[0]

    @property
    def M(self) -> int:
        return self.z.shape[1]

    @property
    def n(self) -> int:
        return getattr(self, self.DRAWS).shape[0]

    @classmethod
    def draw(cls, J: int, M: int, n: int, seed):
        """Draw a synthetic market together with its true utilities and shares.

        beta = (1,) * FIXED followed by Uniform[0,1]^(M - FIXED), z_j ~ N(0, I_M)
        and the draws ~ N(0, I_(M - FIXED)), each from its own child of the
        seeded stream so that, e.g., changing n leaves z untouched.
        x* = z beta and sigma* = shares at x*; degenerate instances (some share
        numerically zero) are kept.

        Returns:
            (market, x_star, sigma_star)
        """
        check_market_size(J, M, n, min_M=cls.FIXED + 1)
        ss_beta, ss_z, ss_draws = as_seed_sequence(seed).spawn(3)
        beta = np.random.Generator(np.random.Philox(ss_beta)).random(M - cls.FIXED)
        beta = np.concatenate([np.ones(cls.FIXED), beta])
        z = np.random.Generator(np.random.Philox(ss_z)).standard_normal((J, M))
        draws = np.random.Generator(np.random.Philox(ss_draws)).standard_normal((n, M - cls.FIXED))
        market = cls(z, draws, beta)
        x_star = z @ beta
        return market, x_star, market.evaluate(x_star).shares

