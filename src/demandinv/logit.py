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
        object.__setattr__(self, "_zn", frozen_product(z, nu.T, "z @ nu.T"))

    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Average log-sum-exp welfare (plus Euler's constant), choice shares,
        and optionally the share Jacobian accumulated in the same pass.

        Overflow is guarded by a per-consumer shift of max(0, max_q v_iq), so
        finite x never produces NaN; deeply negative utilities underflow to
        exact zero shares.
        """
        x = as_mean_utility(x, self.J)
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
        jac = None
        if want_jacobian:
            cross = v @ v.T
            np.fill_diagonal(cross, 0.0)
            # the diagonal p_j (p_0 + sum_{k != j} p_k) adds nonnegative terms, so it
            # cannot cancel to 0 where p_j rounds to 1
            np.fill_diagonal(cross, -(v @ (outside / denom) + cross.sum(axis=1)))
            jac = cross / -n
        return ModelEvaluation(welfare, shares, jac)


make_logit_instance = LogitMarket.draw
