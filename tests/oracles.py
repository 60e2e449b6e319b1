"""Independent oracles the tests compare the library against.

Everything here is deliberately written from the defining formulas:
per-consumer Python loops, raw choice simulation, grid argmax, and
`upper_envelope`, a monotone-chain sweep of one consumer's lines that
test_envelope.py checks against grid argmax. The only library code an oracle
uses is the solvers' `_floor_hessian` and `_tr_step`, in `floored_step`.
Slow and simple on purpose. `logit_decimal_reference` carries the logit
formulas at 40 significant digits, and `purechar_mpmath_reference` the
pure-characteristics ones, so they measure the library's round-off.
`outside_segment_consumers` tells where the outside good owns no segment,
so that the shares sum to 1 in exact arithmetic. `cauchy_reduction` is the
decrease every trust-region step must at least reach, `floored_step` takes
the solvers' trial step in the coordinates of its inputs, and
`read_trace_csv` reads back the trace files the library writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
from scipy.special import ndtr

from demandinv import InvalidInputError
from demandinv.modelio import TRACE_COLUMNS
from demandinv.solvers import _floor_hessian, _tr_step

EULER_GAMMA = 0.5772156649015329
EULER_GAMMA_40 = Decimal("0.5772156649015328606065120900824024310422")

# Owner sentinel for the outside option's zero line.
OUTSIDE = -1


def logit_reference(z, nu, x):
    """Sum-of-logs logit evaluation, one consumer at a time, no stabilization.

    Returns (welfare, shares, jacobian). Only valid for moderate utilities.
    """
    z = np.asarray(z, float)
    nu = np.asarray(nu, float)
    x = np.asarray(x, float)
    J = z.shape[0]
    n = nu.shape[0]
    welfare = 0.0
    shares = np.zeros(J)
    jac = np.zeros((J, J))
    for i in range(n):
        expu = np.array([math.exp(x[j] + float(z[j] @ nu[i])) for j in range(J)])
        denom = 1.0 + expu.sum()
        welfare += math.log(denom)
        s = expu / denom
        shares += s
        jac += np.diag(s) - np.outer(s, s)
    return welfare / n + EULER_GAMMA, shares / n, jac / n


def logit_decimal_reference(z, nu, x, digits=40):
    """Logit welfare, shares and Jacobian carried at `digits` significant
    digits, one consumer at a time, and rounded to doubles at the end.

    z nu' + x is formed from the exact decimal values of the doubles, and the
    Jacobian's diagonal p_j (p_0 + sum_{k != j} p_k) adds positive terms, so
    nothing cancels. Returns (welfare, shares, jacobian).
    """
    z = np.asarray(z, float).tolist()
    nu = np.asarray(nu, float).tolist()
    x = np.asarray(x, float).tolist()
    J, n = len(z), len(nu)
    with localcontext() as ctx:
        ctx.prec = digits
        zd = [[Decimal(v) for v in row] for row in z]
        welfare = Decimal(0)
        shares = [Decimal(0)] * J
        jac = [[Decimal(0)] * J for _ in range(J)]
        for row in nu:
            nud = [Decimal(v) for v in row]
            e = [(Decimal(x[j]) + sum(a * b for a, b in zip(zd[j], nud))).exp() for j in range(J)]
            denom = 1 + sum(e)
            welfare += denom.ln()
            p = [ej / denom for ej in e]
            outside = 1 / denom
            for j in range(J):
                shares[j] += p[j]
                others = [p[k] for k in range(J) if k != j]
                for k in range(J):
                    jac[j][k] += p[j] * (outside + sum(others)) if k == j else -p[j] * p[k]
        welfare = float(welfare / n + EULER_GAMMA_40)
        return (
            welfare,
            np.array([float(s / n) for s in shares]),
            np.array([[float(v / n) for v in row] for row in jac]),
        )


def finite_difference_gradient(model, x, step=1e-5):
    """Central-difference gradient of welfare, one coordinate at a time."""
    x = np.asarray(x, float)
    grad = np.empty(x.size)
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        grad[j] = (model.evaluate(hi).welfare - model.evaluate(lo).welfare) / (2.0 * step)
    return grad


def mc_logit_shares(z, nu, x, rounds, seed):
    """Choice-simulated logit shares: every consumer draws `rounds` vectors of
    independent Gumbel shocks (one per product and one for the outside good)
    and picks the utility-maximizing option.

    Returns (shares_hat, total_draws) with total_draws = rounds * n.
    """
    z = np.asarray(z, float)
    nu = np.asarray(nu, float)
    x = np.asarray(x, float)
    n = nu.shape[0]
    J = z.shape[0]
    v = x + nu @ z.T  # (n, J)
    rng = np.random.default_rng(seed)
    wins = np.zeros(J + 1, dtype=np.int64)  # slot 0 is the outside good
    chunk = max(1, 2_000_000 // (n * (J + 1)))
    done = 0
    while done < rounds:
        m = min(chunk, rounds - done)
        g = rng.gumbel(size=(m, n, J + 1))
        u = g.copy()
        u[:, :, 1:] += v
        winner = u.reshape(m * n, J + 1).argmax(axis=1)
        wins += np.bincount(winner, minlength=J + 1)
        done += m
    return wins[1:] / (rounds * n), rounds * n


def mc_purechar_shares(z, nu_rest, x, rounds, seed):
    """Choice-simulated pure-characteristics shares: every consumer draws
    `rounds` values of the scalar normal coefficient and picks the best
    product, or the outside good when no product beats utility zero.

    Returns (shares_hat, total_draws).
    """
    z = np.asarray(z, float)
    nu_rest = np.asarray(nu_rest, float)
    x = np.asarray(x, float)
    n = nu_rest.shape[0]
    J = z.shape[0]
    a = x + nu_rest @ z[:, 1:].T  # (n, J)
    b = z[:, 0]
    rng = np.random.default_rng(seed)
    wins = np.zeros(J, dtype=np.int64)
    chunk = max(1, 2_000_000 // (n * J))
    done = 0
    while done < rounds:
        m = min(chunk, rounds - done)
        t = rng.standard_normal((m, n))
        u = a[None, :, :] + t[:, :, None] * b  # (m, n, J)
        best = u.argmax(axis=2).ravel()
        beats_outside = u.max(axis=2).ravel() > 0.0
        wins += np.bincount(best[beats_outside], minlength=J)
        done += m
    return wins / (rounds * n), rounds * n


def mc_standard_errors(shares, total_draws):
    """Conservative standard errors for the simulators above: the binomial
    variance of the pooled indicator, which bounds the stratified variance."""
    shares = np.asarray(shares, float)
    return np.sqrt(np.clip(shares * (1.0 - shares), 0.0, None) / total_draws)


@dataclass(frozen=True)
class EnvelopeSegment:
    """One maximal interval of the upper envelope.

    owner is a product index or OUTSIDE; the owner's line a + b*t weakly
    dominates every other line on [lower, upper].
    """

    owner: int
    lower: float
    upper: float
    a: float
    b: float


def upper_envelope(lines, include_zero_line: bool = True) -> list[EnvelopeSegment]:
    """Upper envelope of affine functions t -> a + b*t.

    Args:
        lines: iterable of (owner, a, b) triples with integer owner >= 0.
        include_zero_line: also include the outside option's zero line,
            owned by OUTSIDE.

    Returns:
        Minimal left-to-right segment list covering (-inf, +inf): breakpoints
        strictly increasing, slopes strictly increasing, no zero-width pieces.
        Coincident lines are merged with the tie going to the lowest product
        index; OUTSIDE loses ties to any product.
    """
    entries = []
    for owner, a, b in lines:
        a = float(a)
        b = float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidInputError(f"line owned by {owner} has non-finite coefficients")
        entries.append((int(owner), a, b))
    if include_zero_line:
        entries.append((OUTSIDE, 0.0, 0.0))
    if not entries:
        raise InvalidInputError("need at least one line or the zero line")

    def tie_rank(owner: int) -> float:
        return math.inf if owner == OUTSIDE else owner

    # Among lines of equal slope only the highest intercept can ever win;
    # among coincident lines the preferred owner keeps the segment.
    best: dict[float, tuple[int, float, float]] = {}
    for owner, a, b in entries:
        cur = best.get(b)
        if cur is None or a > cur[1] or (a == cur[1] and tie_rank(owner) < tie_rank(cur[0])):
            best[b] = (owner, a, b)
    cand = sorted(best.values(), key=lambda e: e[2])

    # Convex-hull-style sweep in slope order: pop the stack top whenever the
    # incoming line overtakes it at or before the top's own start. Slopes a
    # subnormal apart cross at +-inf: a line that empties the stack starts at
    # -inf, and one that overtakes the top only at +inf never wins.
    stack = []
    starts = []
    for ent in cand:
        _, a, b = ent
        t = -math.inf
        while stack:
            _, ta, tb = stack[-1]
            t = (ta - a) / (b - tb)
            if t > starts[-1]:
                break
            stack.pop()
            starts.pop()
            t = -math.inf
        if t < math.inf:
            stack.append(ent)
            starts.append(t)

    uppers = starts[1:] + [math.inf]
    return [
        EnvelopeSegment(owner=o, lower=lo, upper=hi, a=a, b=b)
        for (o, a, b), lo, hi in zip(stack, starts, uppers)
    ]


def grid_argmax_owner(lines, include_zero_line, ts):
    """Pointwise envelope ownership on a grid, by brute-force comparison.

    Same tie rule as the envelope code: the highest line wins; among ties the
    lowest product index wins and the zero line loses to any product.
    Returns an owner array aligned with ts (-1 for the zero line).
    """
    ts = np.asarray(ts, float)
    owners = [int(o) for o, _, _ in lines]
    vals = np.array([[a + b * t for t in ts] for _, a, b in lines])
    if include_zero_line:
        owners.append(-1)
        vals = np.vstack([vals, np.zeros_like(ts)])
    # rank owners so that lower product index is preferred and -1 always loses
    rank = np.array([len(owners) if o == -1 else o for o in owners])
    out = np.empty(ts.size, dtype=int)
    for k in range(ts.size):
        col = vals[:, k]
        best = col.max()
        tied = np.nonzero(col == best)[0]
        out[k] = owners[tied[np.argmin(rank[tied])]]
    return out


def purechar_share_quadrature(z, nu_rest, x, grid=None):
    """Shares by dense-grid ownership plus exact normal cell masses.

    Uses grid argmax (not the envelope code) so it is an independent, if
    coarse, cross-check: each breakpoint can be misassigned by at most one
    cell. Accuracy ~ cell width at the density scale.
    """
    z = np.asarray(z, float)
    nu_rest = np.asarray(nu_rest, float)
    x = np.asarray(x, float)
    if grid is None:
        grid = np.linspace(-10.0, 10.0, 20_001)
    n = nu_rest.shape[0]
    J = z.shape[0]
    a = x + nu_rest @ z[:, 1:].T
    b = z[:, 0]
    mids = 0.5 * (grid[:-1] + grid[1:])
    mass = np.diff(ndtr(grid))
    shares = np.zeros(J)
    for i in range(n):
        u = a[i][:, None] + b[:, None] * mids[None, :]  # (J, G)
        best = u.argmax(axis=0)
        win = u.max(axis=0) > 0.0
        shares += np.bincount(best[win], weights=mass[win], minlength=J)
    return shares / n


def normal_pdf(t: float) -> float:
    """Standard normal density of a Python float; 0 at +-inf and in the far tails."""
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def purechar_sweep_reference(z, nu_rest, x, want_jacobian=False):
    """Pure-characteristics evaluation by one envelope sweep per consumer.

    Each consumer's lines a_ij + b_j t go through `upper_envelope` with the
    zero line, so any slope configuration works, ties included. Shares are
    the normal masses of the owned segments, welfare the normal moment of the
    envelope, and every breakpoint t between segments p and q adds
    phi(t) / (b_q - b_p) times (e_p - e_q)(e_p - e_q)' to the Jacobian.

    Returns (welfare, shares, jacobian), jacobian None unless requested.
    """
    z = np.asarray(z, float)
    nu_rest = np.asarray(nu_rest, float)
    x = np.asarray(x, float)
    n = nu_rest.shape[0]
    J = z.shape[0]
    a = x + nu_rest @ z[:, 1:].T
    b = z[:, 0]
    # owner OUTSIDE = -1 indexes the trailing slot, sliced off below
    width = np.zeros(J + 1)
    flux = np.zeros((J + 1, J + 1))
    welfare = 0.0
    for i in range(n):
        segs = upper_envelope([(j, a[i, j], b[j]) for j in range(J)], include_zero_line=True)
        for s, seg in enumerate(segs):
            # the mass on its tail side: 1 - ndtr(lower) would cancel for lower > 0
            lo, hi = (-seg.upper, -seg.lower) if seg.lower > 0 else (seg.lower, seg.upper)
            mass = max(float(ndtr(hi) - ndtr(lo)), 0.0)
            width[seg.owner] += mass
            welfare += seg.a * mass + seg.b * (normal_pdf(seg.lower) - normal_pdf(seg.upper))
            if want_jacobian and s > 0:
                p, q = segs[s - 1].owner, seg.owner
                w = normal_pdf(seg.lower) / (seg.b - segs[s - 1].b)
                flux[p, p] += w
                flux[q, q] += w
                flux[p, q] -= w
                flux[q, p] -= w
    jac = flux[:J, :J] / n if want_jacobian else None
    return welfare / n, width[:J] / n, jac


def outside_segment_consumers(market, x) -> int:
    """How many consumers' envelopes, zero line included, give the outside
    good a segment at mean utilities x."""
    a = np.asarray(x, float) + market.nu_rest @ market.z[:, 1:].T
    b = market.z[:, 0]
    return sum(
        any(seg.owner == OUTSIDE for seg in upper_envelope(zip(range(market.J), row, b)))
        for row in a
    )


def purechar_mpmath_reference(z, nu_rest, x, digits=40):
    """Pure-characteristics welfare, shares and Jacobian carried at `digits`
    significant digits with mpmath, one consumer at a time, and rounded to
    doubles at the end.

    Consumer i's lines a_j + b_j t are formed from the exact values of the
    doubles, with the outside good's zero line. The envelope is found by brute
    force: every pairwise crossing is a candidate breakpoint, and between two
    consecutive ones the highest line owns the interval, ties going to the
    lowest product index and never to the outside good. Each segment's normal
    mass is taken on its tail side, the welfare is the normal moment of the
    envelope, and each breakpoint t between segments p and q adds
    phi(t) / (b_q - b_p) times (e_p - e_q)(e_p - e_q)' to the Jacobian.
    Returns (welfare, shares, jacobian).
    """
    import mpmath

    z = np.asarray(z, float).tolist()
    nu_rest = np.asarray(nu_rest, float).tolist()
    x = np.asarray(x, float).tolist()
    J, n = len(z), len(nu_rest)
    with mpmath.workdps(digits):
        mpf = mpmath.mpf
        # the outside good is line J, which the key -j ranks after every product
        b = [mpf(row[0]) for row in z] + [mpf(0)]
        welfare = mpf(0)
        width = [mpf(0)] * (J + 1)
        flux = [[mpf(0)] * (J + 1) for _ in range(J + 1)]
        for row in nu_rest:
            a = [mpf(x[j]) + mpmath.fsum(mpf(c) * mpf(v) for c, v in zip(z[j][1:], row))
                 for j in range(J)] + [mpf(0)]
            ts = sorted({(a[p] - a[q]) / (b[q] - b[p])
                         for p in range(J + 1) for q in range(p) if b[p] != b[q]})
            bounds = [-mpmath.inf, *ts, mpmath.inf]
            # one probe inside each interval between consecutive bounds
            probes = [(lo + hi) / 2 for lo, hi in zip(ts, ts[1:])]
            probes = [ts[0] - 1, *probes, ts[-1] + 1] if ts else [mpf(0)]
            segs = []  # (owner, lower, upper), merged where one owner continues
            for k, t in enumerate(probes):
                owner = max(range(J + 1), key=lambda j: (a[j] + b[j] * t, -j))
                if segs and segs[-1][0] == owner:
                    segs[-1][2] = bounds[k + 1]
                else:
                    segs.append([owner, bounds[k], bounds[k + 1]])
            for s, (owner, lo, hi) in enumerate(segs):
                # the mass on its tail side: 1 - ncdf(lo) would cancel for lo > 0
                left, right = (-hi, -lo) if lo > 0 else (lo, hi)
                mass = mpmath.ncdf(right) - mpmath.ncdf(left)
                width[owner] += mass
                welfare += a[owner] * mass + b[owner] * (mpmath.npdf(lo) - mpmath.npdf(hi))
                if s > 0:
                    p = segs[s - 1][0]
                    w = mpmath.npdf(lo) / (b[owner] - b[p])
                    flux[p][p] += w
                    flux[owner][owner] += w
                    flux[p][owner] -= w
                    flux[owner][p] -= w
        return (
            float(welfare / n),
            np.array([float(w / n) for w in width[:J]]),
            np.array([[float(v / n) for v in row[:J]] for row in flux[:J]]),
        )


def cauchy_reduction(g, B, radius) -> float:
    """Model decrease -(g'p + p'Bp/2) at the Cauchy point: the minimizer of the
    model g'p + p'Bp/2 along -g within `radius` (Nocedal and Wright, Alg. 4.2)."""
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return 0.0
    gBg = float(g @ (B @ g))
    tau = 1.0 if gBg <= 0 else min(1.0, gnorm**3 / (radius * gBg))
    p = -(tau * radius / gnorm) * g
    return -(float(g @ p) + 0.5 * float(p @ (B @ p)))


def floored_step(g, B, radius):
    """The trust-region trial step from a state with gradient g and model
    Hessian B: B floored by _floor_hessian into eigenvalues lam and vectors V,
    the dogleg taken on V'g and diag(lam), and the step rotated back.

    Returns (p, floored), floored = V diag(lam) V' the model Hessian p is for.
    """
    lam, V = _floor_hessian(B)
    return V @ _tr_step(V.T @ g, lam, radius), (V * lam) @ V.T


# The type each trace.csv column is read back as.
_TRACE_TYPES = dict(zip(TRACE_COLUMNS, (int, str, int, float, int), strict=True))


def read_trace_csv(path) -> list[dict]:
    """Rows of a trace.csv as typed dicts; InvalidInputError on another header."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != TRACE_COLUMNS:
            raise InvalidInputError(f"trace CSV has unexpected header {reader.fieldnames}")
        return [{col: kind(row[col]) for col, kind in _TRACE_TYPES.items()} for row in reader]
