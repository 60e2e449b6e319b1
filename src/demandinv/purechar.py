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
from dataclasses import dataclass

import numpy as np

from .core import (
    DemandModel,
    InvalidInputError,
    ModelEvaluation,
    as_mean_utility,
    as_seed_sequence,
    check_market_size,
    frozen_product,
    set_frozen_array,
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


def _phi(t):
    """Standard normal pdf, exact 0 at +-inf."""
    return _INV_SQRT2PI * np.exp(-0.5 * np.square(np.clip(t, -_PHI_CLIP, _PHI_CLIP)))


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
class PureCharMarket(DemandModel):
    """One synthetic pure-characteristics market.

    Attributes:
        z: (J, M) product attributes; column 0 holds the slopes b_j that
            multiply the analytically integrated N(0,1) coefficient.
        nu_rest: (n, M-1) simulated draws for the remaining coefficients.
        beta: (M,) taste parameter with beta[0] == 1 (scale normalization);
            used only to construct true utilities.
    """

    z: np.ndarray
    nu_rest: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        z = set_frozen_array(self, "z", self.z)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 2:
            raise InvalidInputError(f"z must be a (J, M) matrix with J >= 1, M >= 2, got {z.shape}")
        J, M = z.shape
        nu = set_frozen_array(self, "nu_rest", self.nu_rest)
        if nu.ndim != 2 or nu.shape[0] < 1 or nu.shape[1] != M - 1:
            raise InvalidInputError(f"nu_rest must be (n, {M - 1}) with n >= 1, got {nu.shape}")
        beta = set_frozen_array(self, "beta", self.beta, shape=(M,))
        if beta[0] != 1.0:
            raise InvalidInputError(f"beta[0] must be exactly 1, got {beta[0]!r}")
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
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_slopes", slopes[order])
        object.__setattr__(self, "_lines", lines)

    @property
    def J(self) -> int:
        return self.z.shape[0]

    @property
    def M(self) -> int:
        return self.z.shape[1]

    @property
    def n(self) -> int:
        return self.nu_rest.shape[0]

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
        both; the Jacobian sums one rank-one flux per breakpoint.
        scipy.special is imported on the first call.
        """
        J = self.J
        K = J + 1
        n = self.n
        order = self._order
        bs = self._slopes

        # The crossing of lines p < c bounds c from the left and p from the
        # right. A, L and R are (K, n), so the loop works on contiguous rows.
        A = self._lines + np.append(as_mean_utility(x, J), 0.0)[order, None]
        L = np.full((K, n), -np.inf)
        R = np.full((K, n), np.inf)
        gaps = bs[:, None] - bs
        buf = np.empty((K, n))
        # Slopes a subnormal apart overflow to an infinite crossing, and equal
        # slopes divide by zero to one, both the right value. Coincident lines
        # give NaN, which max keeps in L and fmin leaves out of R.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for c in range(1, K):
                cross = np.subtract(A[:c], A[c], out=buf[:c])
                cross /= gaps[c, :c, None]
                cross.max(axis=0, out=L[c])
                np.fmin(R[:c], cross, out=R[:c])

        # The alive segments, listed per consumer in slope order, so one
        # consumer's envelope is a run of consecutive entries; `at` is each
        # one's flat index in the (K, n) arrays.
        rows, cs = np.nonzero(L.T < R.T)
        at = cs * n + rows
        # Segment k spans (t[k], t[k + 1]): t lists each consumer's opening
        # -inf and interior breakpoints, then a closing +inf, and the -inf
        # that opens a consumer also closes the segment before it.
        t = np.append(L.ravel()[at], np.inf)
        # Each normal mass is taken on its tail side, where it cannot cancel:
        # with s = sign(t) Phi(-|t|), a segment's mass is s[k] - s[k + 1],
        # plus 1 when it straddles 0.
        from scipy.special import ndtr

        s = np.copysign(ndtr(-np.abs(t)), t)
        neg = np.signbit(t)
        straddle = neg[:-1] > (neg & np.isfinite(t))[1:]
        mass = np.maximum(s[:-1] - s[1:] + straddle, 0.0)
        own = order[cs]
        widths = np.bincount(own, weights=mass, minlength=K)
        # Summed by parts, the welfare's density term is each breakpoint's
        # density times the slope step there; a consumer's -inf has density 0.
        pdf = _phi(t[1:-1])
        b = bs[cs]
        db = b[1:] - b[:-1]
        welfare = float(np.sum(A.ravel()[at] * mass) + np.sum(pdf * db)) / n

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


def make_purechar_instance(J: int, M: int, n: int, seed):
    """Draw a synthetic pure-characteristics market with its true utilities and shares.

    beta = (1, beta_rest) with beta_rest ~ Uniform[0,1]^(M-1), z_j ~ N(0, I_M),
    nu_i ~ N(0, I_(M-1)), each from its own child of the seeded stream.
    x* = z beta and sigma* = shares at x*; degenerate instances (some share
    numerically zero) are expected and kept.

    Returns:
        (market, x_star, sigma_star)
    """
    check_market_size(J, M, n, min_M=2)
    root = as_seed_sequence(seed)
    ss_beta, ss_z, ss_nu = root.spawn(3)
    beta = np.concatenate([[1.0], np.random.Generator(np.random.Philox(ss_beta)).random(M - 1)])
    z = np.random.Generator(np.random.Philox(ss_z)).standard_normal((J, M))
    nu_rest = np.random.Generator(np.random.Philox(ss_nu)).standard_normal((n, M - 1))
    market = PureCharMarket(z=z, nu_rest=nu_rest, beta=beta)
    x_star = z @ beta
    sigma_star = market.evaluate(x_star).shares
    return market, x_star, sigma_star
