"""Independent oracles the tests compare the library against.

Everything here is deliberately written from the defining formulas:
per-consumer Python loops, raw choice simulation, and grid argmax. The only
library code used is the public `upper_envelope` in the pure-characteristics
sweep, and that is checked against grid argmax on its own. Slow and simple on
purpose.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

import demandinv as di

EULER_GAMMA = 0.5772156649015329


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
        segs = di.upper_envelope([(j, a[i, j], b[j]) for j in range(J)], include_zero_line=True)
        for s, seg in enumerate(segs):
            mass = max(float(ndtr(seg.upper) - ndtr(seg.lower)), 0.0)
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
