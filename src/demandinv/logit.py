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
        v = self.nu @ self.z.T + x  # (n, J) systematic utilities
        shift = np.maximum(v.max(axis=1), 0.0)
        expv = np.exp(v - shift[:, None])
        denom = np.exp(-shift) + expv.sum(axis=1)
        log_denom = shift + np.log(denom)
        probs = expv / denom[:, None]  # (n, J) per-consumer choice probabilities
        shares = probs.mean(axis=0)
        welfare = float(log_denom.mean()) + EULER_GAMMA
        jac = None
        if want_jacobian:
            jac = np.diag(shares) - probs.T @ probs / self.n
        return ModelEvaluation(welfare, shares, jac)


def make_logit_instance(J: int, M: int, n: int, seed):
    """Draw a synthetic logit market together with its true utilities and shares.

    beta ~ Uniform[0,1]^M, z_j ~ N(0, I_M), nu_i ~ N(0, I_M), each from its own
    child of the seeded stream so that, e.g., changing n leaves z untouched.
    x* = z beta and sigma* = shares at x*.

    Returns:
        (market, x_star, sigma_star)
    """
    if J < 1 or M < 1 or n < 1:
        raise InvalidInputError("J, M, n must all be >= 1")
    root = as_seed_sequence(seed)
    ss_beta, ss_z, ss_nu = root.spawn(3)
    beta = np.random.Generator(np.random.Philox(ss_beta)).random(M)
    z = np.random.Generator(np.random.Philox(ss_z)).standard_normal((J, M))
    nu = np.random.Generator(np.random.Philox(ss_nu)).standard_normal((n, M))
    market = LogitMarket(z=z, nu=nu, beta=beta)
    x_star = z @ beta
    sigma_star = market.evaluate(x_star).shares
    return market, x_star, sigma_star
