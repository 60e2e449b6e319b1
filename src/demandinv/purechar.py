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

# Owner sentinel for the outside option's zero line.
OUTSIDE = -1

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# _phi(t) is exactly 0 once |t| exceeds ~38.6, so clipping |t| at this bound
# changes no value; it keeps np.square below its overflow at ~1.3e154. A bound
# near 40 would be as exact but puts the infinite envelope ends on exp's slow
# underflow path.
_PHI_CLIP = 1e150
_TINY = np.finfo(float).smallest_subnormal
# Most bytes of crossing table a market caches; blocks past the cap are formed
# on each call by the same operations, so the cap moves no bit.
_TABLE_BYTES = 1 << 24
# Each thread's _Scratch for the latest (K, n) it evaluated, so that concurrent
# evaluations never share working arrays and a thread keeps one shape's worth.
_LOCAL = threading.local()


def _phi(t):
    """Standard normal pdf, exact 0 at +-inf."""
    return _INV_SQRT2PI * np.exp(-0.5 * np.square(np.clip(t, -_PHI_CLIP, _PHI_CLIP)))


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

    def __post_init__(self):
        z, nu = self._freeze_arrays()
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
        lines.setflags(write=False)
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
        div.setflags(write=False)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_slopes", bs)
        object.__setattr__(self, "_lines", lines)
        object.__setattr__(self, "_div", div)
        object.__setattr__(self, "_blocks", blocks)

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
        per breakpoint from them. The other working arrays are the calling
        thread's scratch for (K, n), so concurrent calls share none, and
        every returned array is fresh.
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
        xo = np.append(as_mean_utility(x, J), 0.0)[order]  # x in line order, outside 0
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
                cross.max(axis=0, out=Lc)
                np.fmin(Rp, cross, out=Rp)

        # The alive segments, listed per consumer in slope order, so one
        # consumer's envelope is a run of consecutive entries; `at` is each
        # one's flat index in the (K, n) arrays and `cs` its line.
        alive = np.flatnonzero(np.less(L, R).T)
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
        np.negative(np.abs(t, out=s), out=s)
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
            mean = float(np.sum(am) + np.sum(pd)) / n
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
            S = S + S.T
            # The diagonal is the full row sum, outside column included.
            jac = (np.diag(S.sum(axis=1)) - S)[:J, :J] / n
        return ModelEvaluation(welfare, widths[:J] / n, jac)


make_purechar_instance = PureCharMarket.draw
