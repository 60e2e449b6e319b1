"""Random-coefficients logit demand with closed-form welfare, shares, and Jacobian."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EULER_GAMMA, ModelEvaluation, SyntheticMarket, _as_vector, frozen_product


@dataclass(frozen=True, eq=False)
class LogitMarket(SyntheticMarket):
    """One synthetic logit market; every taste coefficient is simulated.

    Attributes:
        z: (J, M) product attributes.
        nu: (n, M) random-coefficient draws, one row per simulated consumer.
        beta: (M,) taste parameter used only to construct the true utilities;
            evaluation depends on (z, nu) alone.
    """

    FIXED = 0
    DRAWS = "nu"

    z: np.ndarray
    nu: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        z, nu = self._freeze_arrays()
        # (J, n) utilities net of x; not a field, so equality and model files never see it
        zn = frozen_product(z, nu.T, "z @ nu.T")
        object.__setattr__(self, "_zn", zn)
        # E = exp(z nu') serves every x with max|x| <= _room: there each numerator
        # E e^x is a normal double and each sum of J + 1 of them stays finite
        room = 700.0 - float(np.log(self.J + 1.0) + np.abs(zn).max())
        object.__setattr__(self, "_room", room)
        object.__setattr__(self, "_exp", np.exp(zn) if room >= 0.0 else None)
        if room >= 0.0:
            self._exp.setflags(write=False)

    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Average log-sum-exp welfare (plus Euler's constant), choice shares,
        and optionally the share Jacobian accumulated in the same pass.

        Within the table's room (see __post_init__), consumer i's numerators
        are E[:, i] e^x. One max|x| is both that guard and the finiteness
        check: NaN and infinities fail the guard and are rejected past it.
        Elsewhere overflow is guarded by a per-consumer shift of
        max(0, max_q v_iq): the numerators are exp(v - shift) and the outside
        one exp(-shift), so finite x never produces NaN and deeply negative
        utilities underflow to exact zero shares. Either way the denominators
        and shares are the same two matrix-vector products.
        """
        x = _as_vector(x, "mean utility", self.J, finite=False)
        if np.maximum.reduce(np.abs(x)) <= self._room:
            return _evaluate(self._exp, np.exp(x), 1.0, 0.0, want_jacobian)
        x = _as_vector(x, "mean utility", self.J)  # rejects NaN and infinities
        v = self._zn + x[:, None]  # (J, n) systematic utilities, a fresh array
        shift = v.max(axis=0, initial=0.0)
        v -= shift
        np.exp(v, out=v)
        return _evaluate(v, np.ones(self.J), np.exp(-shift), shift, want_jacobian)


def _evaluate(table, ex, base, shift, want_jacobian):
    """LogitMarket.evaluate from consumer i's numerators table[:, i] * ex and
    outside numerator base, each scaled by exp(-shift) (base and shift are
    (n,) arrays or scalars); the welfare adds shift back. No argument is written."""
    n = table.shape[1]
    denom = base + ex @ table  # (n,) a fresh array, never written again
    inv = 1.0 / denom

    def welfare():  # on first read; shift and denom are never written again
        w = shift + np.log(denom)
        mean = float(w.sum() / n)
        # where the sum overflows, dividing first overflows only with the mean
        return (mean if math.isfinite(mean) else float((w / n).sum())) + EULER_GAMMA

    shares = ex * (table @ inv) / n
    jac = None
    if want_jacobian:
        p = table * ex[:, None]
        p *= inv  # in place: a second (J, n) temporary would get the heap trimmed
        outside = base * inv  # (n,) outside-good probabilities
        cross = p @ p.T
        np.fill_diagonal(cross, 0.0)
        # the diagonal p_j (p_0 + sum_{k != j} p_k) adds nonnegative terms, so it
        # cannot cancel to 0 where p_j rounds to 1
        np.fill_diagonal(cross, -(p @ outside + cross.sum(axis=1)))
        jac = cross / -n
    return ModelEvaluation(welfare, shares, jac)


make_logit_instance = LogitMarket.draw
