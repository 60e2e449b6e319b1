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
from scipy.special import ndtr

from .core import (
    DemandModel,
    InvalidInputError,
    ModelEvaluation,
    as_mean_utility,
    as_seed_sequence,
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

        # Slope data shared by every consumer, precomputed once. The K = J+1
        # lines (products, then the zero line at index J) fall into G groups of
        # equal slope, in increasing slope order. Only a group's highest line
        # can own an envelope segment, so the evaluator works on G lines with
        # distinct slopes. Members of a tied group are listed by index, so the
        # first maximum is the lowest product index and the zero line loses.
        slopes = np.append(z[:, 0], 0.0)
        order = np.argsort(slopes, kind="stable")
        ranked = slopes[order]
        starts = np.flatnonzero(np.append(True, ranked[1:] != ranked[:-1]))
        sizes = np.diff(starts, append=slopes.size)
        tied = np.flatnonzero(sizes > 1)
        # (T, S) member table of the tied groups, padded by repeating a group's
        # last member; a repeat changes neither the maximum nor its owner.
        offsets = np.minimum(np.arange(sizes.max()), sizes[tied, None] - 1)
        members = order[starts[tied, None] + offsets]
        object.__setattr__(self, "_group_slopes", ranked[starts])
        object.__setattr__(self, "_heads", order[starts])
        object.__setattr__(self, "_tied", tied)
        object.__setattr__(self, "_members", members)

    @property
    def J(self) -> int:
        return self.z.shape[0]

    @property
    def M(self) -> int:
        return self.z.shape[1]

    @property
    def n(self) -> int:
        return self.nu_rest.shape[0]

    def intercepts(self, x) -> np.ndarray:
        """Per-consumer line intercepts a_ij = x_j + z_j[1:]'nu_i, shape (n, J)."""
        x = as_mean_utility(x, self.J)
        return x + self.nu_rest @ self.z[:, 1:].T

    def _group_lines(self, block):
        """Each slope group's highest intercept per consumer, (m, G), and, when
        some slopes tie, the line that owns each group per consumer, (m, G)."""
        full = np.concatenate([block, np.zeros((block.shape[0], 1))], axis=1)
        A = full[:, self._heads]
        if not self._tied.size:
            return A, None
        cand = full[:, self._members]  # (m, T, S)
        A[:, self._tied] = cand.max(axis=2)
        owner = np.tile(self._heads, (block.shape[0], 1))
        owner[:, self._tied] = self._members[np.arange(self._tied.size), cand.argmax(axis=2)]
        return A, owner

    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Shares, welfare and optionally the Jacobian via the interval formulation.

        Per consumer, each slope group is reduced to its highest line. With
        the G reduced slopes distinct, group c is on the envelope exactly on
        (L_c, R_c), where L_c is the largest crossing with a lower-slope line
        and R_c the smallest crossing with a higher-slope line; the segment
        belongs to the consumer's winner in group c.
        """
        a = self.intercepts(x)
        J = self.J
        K = J + 1
        n = self.n
        heads = self._heads
        tied = self._tied
        bs = self._group_slopes
        G = bs.size

        diffb = bs[:, None] - bs[None, :]
        np.fill_diagonal(diffb, 1.0)  # diagonal is masked below
        lower_mask = np.tril(np.ones((G, G), dtype=bool), -1)
        upper_mask = np.triu(np.ones((G, G), dtype=bool), 1)
        positions = np.arange(G)

        width_sum = np.zeros(G)
        member_width = np.zeros(K)  # per-line widths inside tied groups
        welfare_sum = 0.0
        flux = np.zeros((K, K)) if want_jacobian else None

        chunk = max(1, int(2_000_000) // (G * G))
        for i0 in range(0, n, chunk):
            A, owner = self._group_lines(a[i0 : i0 + chunk])
            # Slopes a subnormal apart overflow to an infinite crossing, which
            # is the right value.
            with np.errstate(over="ignore"):
                cross = (A[:, None, :] - A[:, :, None]) / diffb
            L = np.where(lower_mask, cross, -np.inf).max(axis=2)
            R = np.where(upper_mask, cross, np.inf).min(axis=2)
            alive = L < R

            cdf_L = ndtr(L)
            cdf_R = ndtr(R)
            pdf_L = _phi(L)
            pdf_R = _phi(R)
            width = np.where(alive, np.maximum(cdf_R - cdf_L, 0.0), 0.0)
            width_sum += width.sum(axis=0)
            if owner is not None:
                member_width += np.bincount(
                    owner[:, tied].ravel(), weights=width[:, tied].ravel(), minlength=K
                )
            piece = A * (cdf_R - cdf_L) + bs * (pdf_L - pdf_R)
            welfare_sum += float(np.where(alive, piece, 0.0).sum())

            if want_jacobian:
                # Adjacent alive groups p < c share the breakpoint L_c; their
                # owners get the rank-one flux w*(e_p - e_q)(e_p - e_q)'.
                idx = np.where(alive, positions, -1)
                prev = np.maximum.accumulate(idx, axis=1)
                left = np.full_like(idx, -1)
                left[:, 1:] = prev[:, :-1]
                pair = alive & (left >= 0)
                rows, cs = np.nonzero(pair)
                ps = left[rows, cs]
                w = _phi(L[rows, cs]) / (bs[cs] - bs[ps])
                if owner is None:
                    op, oc = heads[ps], heads[cs]
                else:
                    op, oc = owner[rows, ps], owner[rows, cs]
                flat = np.concatenate([op * K + op, oc * K + oc, op * K + oc, oc * K + op])
                vals = np.concatenate([w, w, -w, -w])
                flux += np.bincount(flat, weights=vals, minlength=K * K).reshape(K, K)

        widths = np.empty(K)
        widths[heads] = width_sum
        widths[self._members] = member_width[self._members]
        shares = widths[:J] / n
        welfare = welfare_sum / n
        jac = flux[:J, :J] / n if want_jacobian else None
        return ModelEvaluation(welfare, shares, jac)


def make_purechar_instance(J: int, M: int, n: int, seed):
    """Draw a synthetic pure-characteristics market with its true utilities and shares.

    beta = (1, beta_rest) with beta_rest ~ Uniform[0,1]^(M-1), z_j ~ N(0, I_M),
    nu_i ~ N(0, I_(M-1)), each from its own child of the seeded stream.
    x* = z beta and sigma* = shares at x*; degenerate instances (some share
    numerically zero) are expected and kept.

    Returns:
        (market, x_star, sigma_star)
    """
    if J < 1 or M < 2 or n < 1:
        raise InvalidInputError("need J >= 1, M >= 2, n >= 1")
    root = as_seed_sequence(seed)
    ss_beta, ss_z, ss_nu = root.spawn(3)
    beta = np.concatenate([[1.0], np.random.Generator(np.random.Philox(ss_beta)).random(M - 1)])
    z = np.random.Generator(np.random.Philox(ss_z)).standard_normal((J, M))
    nu_rest = np.random.Generator(np.random.Philox(ss_nu)).standard_normal((n, M - 1))
    market = PureCharMarket(z=z, nu_rest=nu_rest, beta=beta)
    x_star = z @ beta
    sigma_star = market.evaluate(x_star).shares
    return market, x_star, sigma_star
