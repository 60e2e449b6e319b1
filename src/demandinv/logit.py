"""Random-coefficients logit demand with closed-form welfare, shares, and Jacobian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EULER_GAMMA, ModelEvaluation, SyntheticMarket, as_mean_utility, frozen_product


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
        are E[:, i] e^x, so the denominators and shares are matrix-vector
        products. Elsewhere overflow is guarded by a per-consumer shift of
        max(0, max_q v_iq), so finite x never produces NaN; deeply negative
        utilities underflow to exact zero shares.
        """
        x = as_mean_utility(x, self.J)
        if max(x.max(), -x.min()) <= self._room:
            return _evaluate_table(self._exp, x, want_jacobian)
        v = self._zn + x[:, None]  # (J, n) systematic utilities, a fresh array
        n = v.shape[1]
        shift = v.max(axis=0, initial=0.0)
        v -= shift
        np.exp(v, out=v)
        outside = np.exp(-shift)
        denom = outside + v.sum(axis=0)

        def welfare():  # on first read; shift and denom are never written again
            return float((shift + np.log(denom)).sum() / n) + EULER_GAMMA

        v /= denom  # (J, n) per-consumer choice probabilities
        shares = v.sum(axis=1) / n
        jac = _jacobian(v, outside / denom) if want_jacobian else None
        return ModelEvaluation(welfare, shares, jac)


def _evaluate_table(table, x, want_jacobian):
    """LogitMarket.evaluate from the table E = exp(z nu'), unshifted."""
    n = table.shape[1]
    ex = np.exp(x)
    denom = 1.0 + ex @ table  # (n,) a fresh array, never written again

    def welfare():
        return float(np.log(denom).sum() / n) + EULER_GAMMA

    outside = 1.0 / denom  # (n,) outside-good probabilities
    shares = ex * (table @ outside) / n
    jac = None
    if want_jacobian:
        p = table * ex[:, None]
        p *= outside  # in place: a second (J, n) temporary would get the heap trimmed
        jac = _jacobian(p, outside)
    return ModelEvaluation(welfare, shares, jac)


def _jacobian(p, outside):
    """The share Jacobian from (J, n) choice probabilities and the (n,) outside ones."""
    cross = p @ p.T
    np.fill_diagonal(cross, 0.0)
    # the diagonal p_j (p_0 + sum_{k != j} p_k) adds nonnegative terms, so it
    # cannot cancel to 0 where p_j rounds to 1
    np.fill_diagonal(cross, -(p @ outside + cross.sum(axis=1)))
    return cross / -p.shape[1]


make_logit_instance = LogitMarket.draw
