"""Share inversion solvers: BLP contraction, trust-region Newton on the convex
objective, and a Gauss-Newton trust-region on the share residual.

All three stop on the same criterion, the max norm of sigma(x) - sigma*, and
report the same result shape so traces are directly comparable. The two
trust-region methods share one loop and one step: each model Hessian gets one
eigendecomposition and a Levenberg floor, and the dogleg solves the subproblem
on the floored model in its eigenbasis, where that model is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DemandModel,
    InvalidInputError,
    UnsupportedTargetError,
    as_mean_utility,
    as_share_vector,
)

_EPS = float(np.finfo(float).eps)

# Trust-region radius schedule: start and cap, the rho = actual/predicted
# reduction that accepts a step or grows the radius, and the resize factors.
INITIAL_RADIUS = 1.0
RADIUS_MAX = 1e6
ACCEPT_RATIO = 0.1
EXPAND_RATIO = 0.75
SHRINK_FACTOR = 0.25
EXPAND_FACTOR = 2.0

# Smallest eigenvalue of every trust-region model Hessian, after the Levenberg
# shift in _floor_hessian; raised to max(64, J(J+1)) eps times the largest
# |eigenvalue| when that is bigger.
REGULARIZATION_FLOOR = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Trial-step budget and stopping tolerance on the max share error."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-13

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidInputError("max_iterations must be >= 0")
        if not 0 < self.gradient_tolerance < math.inf:
            raise InvalidInputError("gradient_tolerance must be finite and > 0")


@dataclass(frozen=True, eq=False)
class InversionResult:
    """Outcome of one inversion run.

    error_trace[k] is the best max-norm share error over accepted iterates
    0..k (non-increasing by construction); x_final is the iterate achieving
    the last entry. eval_trace[k] is the number of model evaluations made
    when iterate k was accepted; eval_counts are the final (welfare, shares,
    jacobian) totals including trailing rejected trial steps.
    """

    x_final: np.ndarray
    converged: bool
    iterations_used: int
    error_trace: np.ndarray
    eval_counts: dict[str, int]
    eval_trace: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("x_final", "error_trace", "eval_trace"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# Which of (welfare, shares, jacobian) each method computes on every model
# evaluation: per-kind counts are the number of evaluations times these flags.
_KIND_MASK = {"contraction": (0, 1, 0), "convex_tr": (1, 1, 1), "residual_tr": (0, 1, 1)}


def _result(method, best_x, best_err, trace, evals, total, cfg) -> InversionResult:
    """evals[k]: evaluations made when iterate k was accepted; total: all made."""
    kinds = zip(("welfare", "shares", "jacobian"), _KIND_MASK[method])
    return InversionResult(
        x_final=np.array(best_x),
        converged=best_err <= cfg.gradient_tolerance,
        iterations_used=len(trace) - 1,
        error_trace=np.array(trace),
        eval_counts={kind: total * flag for kind, flag in kinds},
        eval_trace=np.array(evals),
    )


def _contraction(model, target, x, cfg) -> InversionResult:
    """BLP fixed point on a validated interior target, from a validated start x."""
    shares = model.evaluate(x).shares
    best_err = float(np.abs(shares - target).max())
    best_x = x  # each iterate is a fresh array, never written in place
    trace = [best_err]

    log_target = np.log(target)
    while best_err > cfg.gradient_tolerance and len(trace) <= cfg.max_iterations:
        if not np.logical_and.reduce(shares):
            break  # log undefined: report a diverged run, not an exception
        x = x + log_target - np.log(shares)
        shares = model.evaluate(x).shares
        err = shares - target
        err = float(np.maximum.reduce(np.abs(err, out=err)))
        if err < best_err:
            best_err = err
            best_x = x
        trace.append(best_err)
    evals = range(1, len(trace) + 1)  # one evaluation per iterate
    return _result("contraction", best_x, best_err, trace, evals, len(trace), cfg)


def _to_boundary(z, d, radius) -> float:
    """tau >= 0 with ||z + tau*d|| = radius, assuming ||z|| < radius, d != 0."""
    dd = float(d @ d)
    zd = float(z @ d)
    slack = radius * radius - float(z @ z)
    return (-zd + math.sqrt(zd * zd + dd * slack)) / dd


def _floor_hessian(B) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) from one eigh of the J x J B = V diag(eig) V': lam is eig plus
    a Levenberg shift that lifts its smallest entry to at least
    max(REGULARIZATION_FLOOR, max(64, J(J+1)) eps max|eig|), or eig if there.

    The relative term is needed because computed eigenvalues are accurate only
    to about J eps max|eig|, and eig + shift is rounded at that scale: an
    absolute floor alone rounds away on badly scaled B and leaves a lam <= 0.
    """
    eig, V = np.linalg.eigh(B)
    J = B.shape[0]
    lo, hi = float(eig[0]), float(eig[-1])
    floor = max(REGULARIZATION_FLOOR, max(64, J * (J + 1)) * _EPS * max(-lo, hi))
    if lo >= floor:
        return eig, V
    return eig + (floor + max(0.0, -lo)), V


def _tr_step(gt, lam, radius) -> np.ndarray:
    """Dogleg step on the model gt'p + p'diag(lam)p/2 within `radius`; lam > 0."""
    p_newton = -gt / lam
    if math.sqrt(float(p_newton @ p_newton)) <= radius:
        return p_newton
    gg = float(gt @ gt)
    gBg = float(lam @ gt**2)
    p_cauchy = -(gg / gBg) * gt
    norm_cauchy = math.sqrt(float(p_cauchy @ p_cauchy))
    if norm_cauchy >= radius:
        return -(radius / math.sqrt(gg)) * gt
    d = p_newton - p_cauchy
    return p_cauchy + _to_boundary(p_cauchy, d, radius) * d


def _trust_region(method, x, cfg, state) -> InversionResult:
    """Shared trust-region driver, from a validated start x.

    `state(x)` performs one full model evaluation and returns
    (f, g, B, err, scale): objective, gradient, model Hessian, max-norm share
    error, and a magnitude scale for the round-off guard below. The B of the
    start and of each accepted state gets one eigh in _floor_hessian, and each
    trial steps in that eigenbasis, on gt = V'g, with the floored eigenvalues
    lam. A rejected trial's B is never used, so it is not factorized.

    max_iterations bounds trial steps; only accepted steps extend the trace.
    Each trial makes one evaluation, so trials + 1 have been made in all.
    """
    f, g, B, err, scale = state(x)
    lam, V = _floor_hessian(B)
    gt = V.T @ g
    best_err = err
    best_x = x  # each iterate is a fresh array, never written in place
    trace = [best_err]
    evals = [1]
    radius = INITIAL_RADIUS

    trials = 0
    while best_err > cfg.gradient_tolerance and trials < cfg.max_iterations:
        trials += 1
        pt = _tr_step(gt, lam, radius)
        pred = -(float(gt @ pt) + 0.5 * float(lam @ pt**2))
        x_trial = x + V @ pt
        f_t, g_t, B_t, err_t, scale_t = state(x_trial)
        actual = f - f_t
        # Near the solution both objective values agree to all representable
        # digits, so actual/pred is pure cancellation noise. Treat a step whose
        # actual and predicted changes are below the round-off floor as a
        # perfect fit instead of rejecting it and stalling the radius.
        noise = 64.0 * _EPS * (scale + scale_t)
        if abs(actual) <= noise and pred <= noise:
            rho = 1.0
        elif pred <= 0.0:
            rho = -math.inf
        else:
            rho = actual / pred
        if rho >= ACCEPT_RATIO:
            hit_boundary = math.sqrt(float(pt @ pt)) >= (1.0 - 1e-6) * radius
            lam, V = _floor_hessian(B_t)
            x, f, gt, err, scale = x_trial, f_t, V.T @ g_t, err_t, scale_t
            if err < best_err:
                best_err = err
                best_x = x
            trace.append(best_err)
            evals.append(trials + 1)
            if rho >= EXPAND_RATIO and hit_boundary:
                radius = min(EXPAND_FACTOR * radius, RADIUS_MAX)
        else:
            radius = SHRINK_FACTOR * radius
    return _result(method, best_x, best_err, trace, evals, trials + 1, cfg)


def _convex_state(model, target):
    """f(x) = U(x) - x'target: gradient sigma(x) - target, Hessian dsigma/dx."""

    def state(x):
        ev = model.evaluate(x, want_jacobian=True)
        inner = float(x @ target)
        f = ev.welfare - inner
        g = ev.shares - target
        err = float(np.abs(g).max())
        scale = abs(ev.welfare) + abs(inner)
        return f, g, ev.jacobian, err, scale

    return state


def _residual_state(model, target):
    """f(x) = 0.5*||sigma(x) - target||^2 with the Gauss-Newton Hessian J'J."""

    def state(x):
        ev = model.evaluate(x, want_jacobian=True)
        r = ev.shares - target
        jac = ev.jacobian
        f = 0.5 * float(r @ r)
        g = jac.T @ r
        B = jac.T @ jac
        abs_r = np.abs(r)
        err = float(np.maximum.reduce(abs_r))
        scale = float(np.add.reduce(abs_r))
        return f, g, B, err, scale

    return state


def convex_objective(model: DemandModel, target, x):
    """(value, gradient, hessian) of f(x) = U(x) - x'target, the function
    `convex_tr` minimizes.

    Its gradient is sigma(x) - target and its Hessian is the share Jacobian,
    so the unconstrained minimizers of f are exactly the utility vectors whose
    model shares match `target`.
    """
    target = as_share_vector(target, model.J)
    x = as_mean_utility(x, model.J)
    return _convex_state(model, target)(x)[:3]


METHODS = ("contraction", "convex_tr", "residual_tr")


def invert(model: DemandModel, sigma_star, method: str, x0=None, cfg: SolverConfig | None = None):
    """Invert sigma(x) = sigma* with the named method from x0 (default: zeros).

    - contraction: the BLP fixed point x <- x + log sigma* - log sigma(x). It
      needs a strictly interior target; a model share of exact zero ends the
      run with converged=False rather than raising.
    - convex_tr: trust-region Newton on the convex U(x) - x'sigma*, the paper's
      method. At interior points its unconstrained step is the Newton-Raphson
      step on the residual, and convexity makes it globally convergent. Zero
      target shares are allowed; unattainable at finite x, they end the run
      with converged=False.
    - residual_tr: trust-region Gauss-Newton on sigma(x) - sigma*, the
      fsolve-style baseline. It may stall at a nonzero-residual stationary
      point (converged=False) on degenerate instances.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    cfg = cfg if cfg is not None else SolverConfig()
    target = as_share_vector(sigma_star, model.J)
    if method == "contraction" and (np.any(target <= 0.0) or float(target.sum()) >= 1.0):
        raise UnsupportedTargetError(
            "unsupported target for contraction: every share must be > 0 with sum < 1"
        )
    x = np.zeros(model.J) if x0 is None else np.array(as_mean_utility(x0, model.J))
    # Only convex_tr reads the welfare; an overflowing one fails on that read,
    # without numpy's warning, and nothing else here silences numpy.
    if method == "contraction":
        return _contraction(model, target, x, cfg)
    state = {"convex_tr": _convex_state, "residual_tr": _residual_state}[method]
    return _trust_region(method, x, cfg, state(model, target))
