"""Random-coefficients logit demand with closed-form welfare, shares, and Jacobian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EULER_GAMMA,
    DemandModel,
    InvalidInputError,
    ModelEvaluation,
    as_mean_utility,
    as_seed_sequence,
    check_market_size,
    frozen_product,
    set_frozen_array,
)


@dataclass(frozen=True, eq=False)
class LogitMarket(DemandModel):
    """One synthetic logit market.

    Attributes:
        z: (J, M) product attributes.
        nu: (n, M) random-coefficient draws, one row per simulated consumer.
        beta: (M,) taste parameter used only to construct the true utilities;
            evaluation depends on (z, nu) alone.
    """

    z: np.ndarray
    nu: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        z = set_frozen_array(self, "z", self.z)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
            raise InvalidInputError(f"z must be a (J, M) matrix with J, M >= 1, got {z.shape}")
        J, M = z.shape
        nu = set_frozen_array(self, "nu", self.nu)
        if nu.ndim != 2 or nu.shape[0] < 1 or nu.shape[1] != M:
            raise InvalidInputError(f"nu must be (n, {M}) with n >= 1, got {nu.shape}")
        set_frozen_array(self, "beta", self.beta, shape=(M,))
        # (J, n) utilities net of x; not a field, so equality and model files never see it
        object.__setattr__(self, "_zn", frozen_product(z, nu.T, "z @ nu.T"))

    @property
    def J(self) -> int:
        return self.z.shape[0]

    @property
    def M(self) -> int:
        return self.z.shape[1]

    @property
    def n(self) -> int:
        return self.nu.shape[0]

    def evaluate(self, x, want_jacobian: bool = False) -> ModelEvaluation:
        """Average log-sum-exp welfare (plus Euler's constant), choice shares,
        and optionally the share Jacobian accumulated in the same pass.

        Overflow is guarded by a per-consumer shift of max(0, max_q v_iq), so
        finite x never produces NaN; deeply negative utilities underflow to
        exact zero shares.
        """
        x = as_mean_utility(x, self.J)
        v = self._zn + x[:, None]  # (J, n) systematic utilities, a fresh array
        shift = v.max(axis=0, initial=0.0)
        v -= shift
        np.exp(v, out=v)
        outside = np.exp(-shift)
        denom = outside + v.sum(axis=0)
        welfare = float((shift + np.log(denom)).sum() / self.n) + EULER_GAMMA
        v /= denom  # (J, n) per-consumer choice probabilities
        shares = v.sum(axis=1) / self.n
        jac = None
        if want_jacobian:
            cross = v @ v.T
            np.fill_diagonal(cross, 0.0)
            # the diagonal p_j (p_0 + sum_{k != j} p_k) adds nonnegative terms, so it
            # cannot cancel to 0 where p_j rounds to 1
            np.fill_diagonal(cross, -(v @ (outside / denom) + cross.sum(axis=1)))
            jac = cross / -self.n
        return ModelEvaluation(welfare, shares, jac)


def make_logit_instance(J: int, M: int, n: int, seed):
    """Draw a synthetic logit market together with its true utilities and shares.

    beta ~ Uniform[0,1]^M, z_j ~ N(0, I_M), nu_i ~ N(0, I_M), each from its own
    child of the seeded stream so that, e.g., changing n leaves z untouched.
    x* = z beta and sigma* = shares at x*.

    Returns:
        (market, x_star, sigma_star)
    """
    check_market_size(J, M, n)
    root = as_seed_sequence(seed)
    ss_beta, ss_z, ss_nu = root.spawn(3)
    beta = np.random.Generator(np.random.Philox(ss_beta)).random(M)
    z = np.random.Generator(np.random.Philox(ss_z)).standard_normal((J, M))
    nu = np.random.Generator(np.random.Philox(ss_nu)).standard_normal((n, M))
    market = LogitMarket(z=z, nu=nu, beta=beta)
    x_star = z @ beta
    sigma_star = market.evaluate(x_star).shares
    return market, x_star, sigma_star
