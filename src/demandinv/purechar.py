"""Pure characteristics demand: shares and welfare as exact normal integrals
over the upper envelope of per-consumer utility lines.

Conditional on a consumer's simulated tastes, utility for product j is a line
a_j + b_j*t in the remaining scalar coefficient t ~ N(0,1), with slope
b_j = z_j1 shared by all consumers. The product chosen at t is the owner of
the upper-envelope segment containing t, so shares are normal interval masses
and welfare is the exact normal moment of a piecewise-linear function. No
quadrature is involved; true zero shares come out as exact zeros.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidInputError,
    ModelEvaluation,
    SyntheticMarket,
    as_mean_utility,
    frozen_product,
)

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# _phi(t) is exactly 0 once |t| exceeds ~38.6, so _phi squares min(|t|, this
# bound), which changes no value and keeps np.square below its overflow at
# ~1.3e154. A bound near 40 would be as exact but puts the infinite envelope
# ends on exp's slow underflow path.
_PHI_CLIP = 1e150
_ZERO = np.zeros(1)  # the outside good's mean utility
_TINY = np.finfo(float).smallest_subnormal
# Most bytes of crossing table a market caches; blocks past the cap are formed
# on each call by the same operations, so the cap moves no bit.
_TABLE_BYTES = 1 << 24
# Each thread's _Scratch for the latest (K, n) it evaluated, so that concurrent
# evaluations never share working arrays and a thread keeps one shape's worth.
_LOCAL = threading.local()


def _phi(t):
    """Standard normal pdf, exact 0 at +-inf."""
    return _INV_SQRT2PI * np.exp(-0.5 * np.square(np.minimum(np.abs(t), _PHI_CLIP)))


def _block(lines, e: int, g_head, out):
    """Line c = len(out)'s crossing-table block: (l_p - l_c) / g_pc for rows
    p < e, and the tie slice [e, c) left undivided."""
    np.subtract(lines[: len(out)], lines[len(out)], out=out)
    out[:e] /= g_head
    return out


class _Scratch:
    """Working arrays for evaluating a market of K lines and n consumers.

    L, R and the crossing buffer are (K, n) and d is (K, K); `lines` holds the
    bounds loop's views of them for each line c >= 1. t and s have room for
    all K*n segments and the closing +inf. A segment's consumer-major flat
    index i*K + c maps to its flat index c*n + i in the (K, n) arrays through
    `at`, and to its line c through `line`. Each evaluation writes every entry
    it reads, so nothing carries over from one call to the next.
    """

    def __init__(self, K: int, n: int):
        self.shape = (K, n)
        self.L, self.R, buf = np.empty((3, K, n))
        self.d = np.empty((K, K))
        self.t, self.s = np.empty((2, K * n + 1))
        d, L, R = self.d, self.L, self.R
        self.lines = [(d[c, :c, None], buf[:c], L[c], R[:c]) for c in range(1, K)]
        self.at = (np.arange(K) * n + np.arange(n)[:, None]).ravel()
        self.line = np.tile(np.arange(K), n)


@dataclass(frozen=True, eq=False)
class PureCharMarket(SyntheticMarket):
    """One synthetic pure-characteristics market.

    Attributes:
        z: (J, M) product attributes; column 0 holds the slopes b_j that
            multiply the analytically integrated N(0,1) coefficient.
        nu_rest: (n, M-1) simulated draws for the remaining coefficients.
        beta: (M,) taste parameter with beta[0] == 1 (scale normalization);
            used only to construct true utilities.
    """

    FIXED = 1
    DRAWS = "nu_rest"

    z: np.ndarray
    nu_rest: np.ndarray
    beta: np.ndarray

    def _derive(self, z, nu) -> dict:
        # The K = J+1 lines (products, then the zero line) in one stable slope
        # order: equal slopes keep index order, the zero line last. + 0.0 turns
        # -0.0 into 0.0, so equal slopes subtract to +0.0. `_lines` caches their
        # (K, n) intercepts net of x, like LogitMarket's cache, not a field.
        slopes = np.append(z[:, 0], 0.0) + 0.0
        if not math.isfinite(float(slopes.max()) - float(slopes.min())):
            raise InvalidInputError("z[:, 0] slope range (zero line included) overflows a double")
        order = np.argsort(slopes, kind="stable")
        nz = frozen_product(nu, z[:, 1:].T, "nu_rest @ z[:, 1:].T")
        lines = np.vstack([nz.T, np.zeros(nz.shape[0])])[order]
        bs = slopes[order]
        K, n = lines.shape
        # Line c's crossing with p < c, ((l_p + x_p) - (l_c + x_c)) / g_pc with
        # g_pc = b_c - b_p, is T_pc + d_pc: block c of the table caches T_pc =
        # (l_p - l_c) / g_pc, and evaluate forms d_pc = (x_p - x_c) / g_pc. From
        # the first row where T is not finite (equal slopes, a subnormal gap, an
        # overflowing l_p - l_c) on, the tie slice [e, c) holds both undivided,
        # and evaluate divides their sum by g: g = 0 gives the tie rule's +-inf or NaN.
        gaps = bs[:, None] - bs
        gaps.setflags(write=False)
        div = np.ones((K, K))  # d's divisors: g_pc off the tie slices, else 1
        blocks = []
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for c in range(1, K):
                g = gaps[c, :c, None]
                T = _block(lines, c, g, np.empty((c, n)))
                bad = np.flatnonzero(~np.isfinite(T).all(axis=1))
                e = int(bad[0]) if bad.size else c
                div[c, :e] = gaps[c, :e]
                if fits := 4 * c * (c + 1) * n <= _TABLE_BYTES:  # blocks 1 to c fit the cap
                    np.subtract(lines[e:c], lines[c], out=T[e:])  # the tie slice, undivided
                    T.setflags(write=False)
                blocks.append((T if fits else None, e, g[:e], g[e:] if e < c else None))
        return dict(_order=order, _slopes=bs, _lines=lines, _div=div, _blocks=tuple(blocks))

    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Shares, welfare and optionally the Jacobian via the interval formulation.

        There are no slope groups: the bounds run over all K = J+1 lines in
        slope order. Line c is on the envelope exactly on (L_c, R_c), where
        L_c is the largest crossing with an earlier line and R_c the smallest
        crossing with a later one. Equal slopes cross at +-inf, which ends the
        lower line; coincident lines cross at NaN, which ends the later one.
        So the tie rule is the line order: the lowest product index wins and
        the outside good loses. Only the alive segments, L_c < R_c, are
        integrated. Two consecutive ones meet at a breakpoint t, whose tail
        mass Phi(-|t|) and density phi(t) are computed once and shared by
        both. Every call forms phi and the slope steps as fresh arrays; the
        deferred welfare reads them, and the Jacobian sums one rank-one flux
        per breakpoint from them into S, then takes -S on the inside products
        with S's full row sums on its diagonal. The other working arrays are
        the calling thread's scratch for (K, n), so concurrent calls share
        none, and every returned array is fresh.
        scipy.special is imported on the first call.
        """
        J = self.J
        K = J + 1
        n = self._lines.shape[1]
        order = self._order
        bs = self._slopes
        scratch = getattr(_LOCAL, "scratch", None)
        if scratch is None or scratch.shape != (K, n):
            # a new shape replaces, and so releases, this thread's old scratch
            scratch = _LOCAL.scratch = _Scratch(K, n)
        L, R, d = scratch.L, scratch.R, scratch.d

        # The crossing of lines p < c bounds c from the left and p from the
        # right. L and R are (K, n), so the loop works on contiguous rows. Each
        # crossing is T + d, and the tie slice's sums are then divided by g.
        xo = np.concatenate((as_mean_utility(x, J), _ZERO))[order]  # x in line order, outside 0
        L[0] = -np.inf
        R.fill(np.inf)
        # Slopes a subnormal apart overflow to an infinite crossing, and equal
        # slopes divide by zero to one, both the right value. Coincident lines
        # give NaN, which max keeps in L and fmin leaves out of R.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.divide(np.subtract(xo, xo[:, None], out=d), self._div, out=d)
            for (dc, cross, Lc, Rp), (T, e, g_head, g_tail) in zip(scratch.lines, self._blocks):
                if T is None:  # past the table's cap: its block, formed here
                    T = _block(self._lines, e, g_head, cross)
                np.add(T, dc, out=cross)
                if g_tail is not None:
                    cross[e:] /= g_tail
                np.maximum.reduce(cross, axis=0, out=Lc)
                np.fmin(Rp, cross, out=Rp)

        # The alive segments, listed per consumer in slope order, so one
        # consumer's envelope is a run of consecutive entries; `at` is each
        # one's flat index in the (K, n) arrays and `cs` its line.
        alive = np.less(L, R).T.ravel().nonzero()[0]
        at = scratch.at[alive]
        cs = scratch.line[alive]
        k = alive.size
        # Segment m spans (t[m], t[m + 1]): t lists each consumer's opening
        # -inf and interior breakpoints, then a closing +inf, and the -inf
        # that opens a consumer also closes the segment before it.
        t = scratch.t[: k + 1]
        t[:k] = L.ravel()[at]
        t[k] = np.inf
        # Each normal mass is taken on its tail side, where it cannot cancel:
        # with s = sign(t) Phi(-|t|), segment m's mass is s[m] - s[m + 1],
        # plus 1 when it straddles 0.
        from scipy.special import ndtr

        s = scratch.s[: k + 1]
        np.copysign(t, -1.0, out=s)  # -|t|
        np.copysign(ndtr(s, out=s), t, out=s)
        neg = np.signbit(t)
        straddle = neg[:-1] > (neg & np.isfinite(t))[1:]
        mass = np.maximum(s[:-1] - s[1:] + straddle, 0.0)
        own = order[cs]
        widths = np.bincount(own, weights=mass, minlength=K)
        # Summed by parts, the welfare's density term is each breakpoint's
        # density times the slope step there; a consumer's -inf has density 0.
        db = bs[cs]  # each segment's slope, then the steps between them
        pdf, db = _phi(t[1:-1]), db[1:] - db[:-1]

        def welfare():  # on first read, when the scratch may hold a later call's arrays
            a = self._lines.ravel()[at] + xo[cs]
            am, pd = a * mass, pdf * db
            mean = float(np.add.reduce(am) + np.add.reduce(pd)) / n
            # where the sum overflows, dividing first overflows only with the mean
            return mean if math.isfinite(mean) else float(np.sum(am / n) + np.sum(pd / n))

        jac = None
        if want_jacobian:
            # The owners p, q of the two segments at a breakpoint get the
            # rank-one flux w*(e_p - e_q)(e_p - e_q)'; S[p, q] sums w over them.
            # Between two consumers pdf is 0 and db has any sign; the floor
            # keeps w = 0 there and leaves every interior db > 0 as it is.
            w = pdf / np.maximum(db, _TINY)
            S = np.bincount(own[:-1] * K + own[1:], weights=w, minlength=K * K).reshape(K, K)
            S = S + S.T  # its diagonal is exactly +0.0: w = 0 where the owners coincide
            jac = np.subtract(0.0, S[:J, :J])
            # The diagonal is the full row sum, outside column included.
            jac.ravel()[::K] = np.add.reduce(S[:J], axis=1)
            jac /= n
        return ModelEvaluation(welfare, widths[:J] / n, jac)


make_purechar_instance = PureCharMarket.draw

# Inert: bench/spans.py wraps this name in its traced pass and bench/test_bench_counts.py reads it.
upper_envelope = None
