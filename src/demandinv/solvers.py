"""Share inversion solvers: BLP contraction, trust-region Newton on the convex
objective, and a Gauss-Newton trust-region on the share residual.

All three stop on the same criterion, the max norm of sigma(x) - sigma*, and
report the same result shape so traces are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    DemandModel,
    InvalidInputError,
    UnsupportedTargetError,
    as_mean_utility,
    as_share_vector,
)

# Dogleg requires a safely positive definite Hessian; below this smallest
# eigenvalue the subproblem falls back to Steihaug-CG.
PD_SWITCH = 1e-10

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, stopping tolerance, and trust-region constants."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-13
    initial_radius: float = 1.0
    radius_max: float = 1e6
    accept_ratio: float = 0.1
    expand_ratio: float = 0.75
    shrink_factor: float = 0.25
    expand_factor: float = 2.0
    regularization_floor: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidInputError("max_iterations must be >= 0")
        if not self.gradient_tolerance > 0:
            raise InvalidInputError("gradient_tolerance must be > 0")
        if not (self.initial_radius > 0 and self.radius_max > 0):
            raise InvalidInputError("trust-region radii must be > 0")
        if not 0 < self.accept_ratio <= 0.25:
            raise InvalidInputError("accept_ratio must lie in (0, 1/4]")
        if not self.accept_ratio <= self.expand_ratio:
            raise InvalidInputError("expand_ratio must be >= accept_ratio")
        if not 0 < self.shrink_factor < 1 < self.expand_factor:
            raise InvalidInputError("need 0 < shrink_factor < 1 < expand_factor")
        if not self.regularization_floor > 0:
            raise InvalidInputError("regularization_floor must be > 0")


@dataclass(frozen=True, eq=False)
class InversionResult:
    """Outcome of one inversion run.

    error_trace[k] is the best max-norm share error over accepted iterates
    0..k (non-increasing by construction); x_final is the iterate achieving
    the last entry. eval_trace[k] holds the cumulative (welfare, shares,
    jacobian) evaluation counts when iterate k was accepted; eval_counts are
    the final totals including trailing rejected trial steps.
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
    mask = np.array(_KIND_MASK[method], dtype=np.int64)
    return InversionResult(
        x_final=np.array(best_x),
        converged=best_err <= cfg.gradient_tolerance,
        iterations_used=len(trace) - 1,
        error_trace=np.array(trace),
        eval_counts=dict(zip(("welfare", "shares", "jacobian"), (total * mask).tolist())),
        eval_trace=np.outer(evals, mask),
    )


def contraction_invert(model: DemandModel, sigma_star, x0=None, cfg: SolverConfig | None = None):
    """BLP fixed point x <- x + log sigma* - log sigma(x).

    Requires a strictly interior target (log of both target and model shares
    is taken). A model share hitting exact zero mid-run ends the iteration
    with converged=False rather than raising.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    target = as_share_vector(sigma_star, model.J)
    if np.any(target <= 0.0) or float(target.sum()) >= 1.0:
        raise UnsupportedTargetError(
            "unsupported target for contraction: every share must be > 0 with sum < 1"
        )
    x = np.zeros(model.J) if x0 is None else np.array(as_mean_utility(x0, model.J))

    shares = model.evaluate(x).shares
    best_err = float(np.abs(shares - target).max())
    best_x = x.copy()
    trace = [best_err]

    log_target = np.log(target)
    while best_err > cfg.gradient_tolerance and len(trace) <= cfg.max_iterations:
        if np.any(shares == 0.0):
            break  # log undefined: report a diverged run, not an exception
        x = x + log_target - np.log(shares)
        shares = model.evaluate(x).shares
        err = float(np.abs(shares - target).max())
        if err < best_err:
            best_err = err
            best_x = x.copy()
        trace.append(best_err)
    evals = range(1, len(trace) + 1)  # one evaluation per iterate
    return _result("contraction", best_x, best_err, trace, evals, len(trace), cfg)


def _to_boundary(z, d, radius) -> float:
    """tau >= 0 with ||z + tau*d|| = radius, assuming ||z|| < radius, d != 0."""
    dd = float(d @ d)
    zd = float(z @ d)
    slack = radius * radius - float(z @ z)
    return (-zd + math.sqrt(zd * zd + dd * slack)) / dd


def _dogleg_step(g, B, radius) -> np.ndarray:
    c, low = scipy.linalg.cho_factor(B)
    p_newton = scipy.linalg.cho_solve((c, low), -g)
    if float(np.linalg.norm(p_newton)) <= radius:
        return p_newton
    gg = float(g @ g)
    gBg = float(g @ (B @ g))
    p_cauchy = -(gg / gBg) * g
    norm_cauchy = float(np.linalg.norm(p_cauchy))
    if norm_cauchy >= radius:
        return -(radius / math.sqrt(gg)) * g
    d = p_newton - p_cauchy
    return p_cauchy + _to_boundary(p_cauchy, d, radius) * d


def _steihaug_step(g, B, radius) -> np.ndarray:
    """Truncated CG on the trust-region subproblem; handles indefinite or
    singular B by stepping to the boundary along nonpositive-curvature
    directions."""
    z = np.zeros_like(g)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return z
    stop = min(0.5, math.sqrt(gnorm)) * gnorm
    r = g.copy()
    d = -g
    rr = gnorm * gnorm
    for _ in range(max(10, 2 * g.size)):
        Bd = B @ d
        dBd = float(d @ Bd)
        if dBd <= 1e-14 * float(d @ d):
            return z + _to_boundary(z, d, radius) * d
        alpha = rr / dBd
        z_next = z + alpha * d
        if float(np.linalg.norm(z_next)) >= radius:
            return z + _to_boundary(z, d, radius) * d
        r = r + alpha * Bd
        rr_next = float(r @ r)
        z = z_next
        if math.sqrt(rr_next) <= stop:
            break
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z


def _tr_step(g, B, radius) -> np.ndarray:
    if np.linalg.eigvalsh(B)[0] >= PD_SWITCH:
        try:
            return _dogleg_step(g, B, radius)
        except scipy.linalg.LinAlgError:
            pass
    return _steihaug_step(g, B, radius)


def _cauchy_reduction(g, B, radius) -> float:
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return 0.0
    gBg = float(g @ (B @ g))
    tau = 1.0 if gBg <= 0 else min(1.0, gnorm**3 / (radius * gBg))
    p = -(tau * radius / gnorm) * g
    return -(float(g @ p) + 0.5 * float(p @ (B @ p)))


def _trust_region_invert(method, model, x0, cfg, state):
    """Shared trust-region driver.

    `state(x)` performs one full model evaluation and returns
    (f, g, B, err, scale): objective, gradient, model Hessian, max-norm share
    error, and a magnitude scale for the round-off guard below.

    max_iterations bounds trial steps; only accepted steps extend the trace.
    Each trial makes one evaluation, so trials + 1 have been made in all.
    """
    x = np.array(as_mean_utility(x0, model.J))
    f, g, B, err, scale = state(x)
    best_err = err
    best_x = x.copy()
    trace = [best_err]
    evals = [1]
    radius = cfg.initial_radius

    trials = 0
    while best_err > cfg.gradient_tolerance and trials < cfg.max_iterations:
        trials += 1
        p = _tr_step(g, B, radius)
        pred = -(float(g @ p) + 0.5 * float(p @ (B @ p)))
        if __debug__:
            cauchy = _cauchy_reduction(g, B, radius)
            assert pred >= cauchy - 1e-9 * max(1.0, abs(cauchy))
        x_trial = x + p
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
        if rho >= cfg.accept_ratio:
            hit_boundary = float(np.linalg.norm(p)) >= (1.0 - 1e-6) * radius
            x, f, g, B, err, scale = x_trial, f_t, g_t, B_t, err_t, scale_t
            if err < best_err:
                best_err = err
                best_x = x.copy()
            trace.append(best_err)
            evals.append(trials + 1)
            if rho >= cfg.expand_ratio and hit_boundary:
                radius = min(cfg.expand_factor * radius, cfg.radius_max)
        else:
            radius = cfg.shrink_factor * radius
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


def _residual_state(model, target, floor):
    """f(x) = 0.5*||sigma(x) - target||^2 with the Gauss-Newton Hessian J'J,
    floored by a Levenberg shift when J is near-singular."""

    def state(x):
        ev = model.evaluate(x, want_jacobian=True)
        r = ev.shares - target
        jac = ev.jacobian
        f = 0.5 * float(r @ r)
        g = jac.T @ r
        B = jac.T @ jac
        if np.linalg.eigvalsh(B)[0] < floor:
            B = B + floor * np.eye(B.shape[0])
        err = float(np.abs(r).max())
        scale = float(np.abs(r).sum())
        return f, g, B, err, scale

    return state


def convex_trust_region_invert(
    model: DemandModel, sigma_star, x0=None, cfg: SolverConfig | None = None
):
    """Trust-region Newton on the convex objective U(x) - x'sigma*.

    The paper's method: with an interior minimizer the unconstrained Newton
    step equals the residual solver's Newton-Raphson step, but global
    convergence needs no globalization tricks because the objective is convex.
    Zero coordinates in sigma* are allowed; they may be unattainable at finite
    x, in which case the run reports converged=False.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    target = as_share_vector(sigma_star, model.J)
    x0 = np.zeros(model.J) if x0 is None else x0
    return _trust_region_invert("convex_tr", model, x0, cfg, _convex_state(model, target))


def residual_trust_region_invert(
    model: DemandModel, sigma_star, x0=None, cfg: SolverConfig | None = None
):
    """Trust-region Gauss-Newton on the residual sigma(x) - sigma*.

    The fsolve-style baseline. May stall at a nonzero-residual stationary
    point (converged=False), its documented failure mode on degenerate
    instances.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    target = as_share_vector(sigma_star, model.J)
    x0 = np.zeros(model.J) if x0 is None else x0
    state = _residual_state(model, target, cfg.regularization_floor)
    return _trust_region_invert("residual_tr", model, x0, cfg, state)


METHODS = ("contraction", "convex_tr", "residual_tr")

_DISPATCH = {
    "contraction": contraction_invert,
    "convex_tr": convex_trust_region_invert,
    "residual_tr": residual_trust_region_invert,
}


def invert(model: DemandModel, sigma_star, method: str, x0=None, cfg: SolverConfig | None = None):
    """Invert sigma(x) = sigma* with the named method.

    method is one of contraction | convex_tr | residual_tr.
    """
    try:
        solver = _DISPATCH[method]
    except KeyError:
        raise InvalidInputError(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        ) from None
    return solver(model, sigma_star, x0, cfg)
