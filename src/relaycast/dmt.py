"""High-SNR outage exponents of the two-layer 2x1 MISO.

Numerically verifies the asymptotic analysis: with layer powers split as
P_tot - (P_s^alpha + (c P_s)^beta) and P_s^alpha + (c P_s)^beta out of
P_tot = P_s (1 + c), the layer outage probabilities decay as P_s^{-2(1-r1)}
and P_s^{-2(alpha-r2)}.  Exponents are estimated by regressing exact
finite-SNR outage probabilities (Gamma(2,1) fading CDF, no small-x
approximation) against log P_s, so the asymptotic claims are tested rather
than restated.  c is the relay-to-source power ratio P_r/P_s, held constant
while P_s grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DmtConfig", "DmtExponents", "dmt_outage_exponents", "dmt_average_rate"]

DEFAULT_SNR_GRID_DB = (40.0, 50.0, 60.0, 70.0, 80.0)


@dataclass(frozen=True)
class DmtConfig:
    r1: float
    r2: float
    alpha_exp: float
    beta_exp: float
    c: float = 1.0
    snr_grid_db: tuple = DEFAULT_SNR_GRID_DB

    def __post_init__(self):
        if not 0.0 <= self.r1 < 1.0 or not 0.0 <= self.r2 < 1.0:
            raise ValueError("multiplexing gains must lie in [0, 1)")
        if not 0.0 < self.alpha_exp < 1.0 or not 0.0 < self.beta_exp < 1.0:
            raise ValueError("power exponents must lie in (0, 1)")
        if self.c <= 0.0:
            raise ValueError("power ratio c must be positive")
        grid = tuple(float(g) for g in self.snr_grid_db)
        if len(grid) < 4 or any(b <= a for a, b in zip(grid[:-1], grid[1:])):
            raise ValueError("snr_grid_db needs at least 4 increasing points")
        object.__setattr__(self, "snr_grid_db", grid)


@dataclass(frozen=True)
class DmtExponents:
    d1_hat: float
    d2_hat: float
    degenerate1: bool  # outage pinned at 1: no diversity on this branch
    degenerate2: bool
    p_out1: tuple
    p_out2: tuple


def _lambda_cdf(x: float) -> float:
    """P(lambda < x) for lambda = |h_s|^2 + |h_d|^2 ~ Gamma(2, 1): the
    regularized gamma P(2, x) = 1 - e^{-x}(1 + x).  Below x = 0.5, where that
    difference cancels, the series sum_n (-1)^n x^{n+2}/(n! (n+2))."""
    if x <= 0.0:
        return 0.0
    if x >= 0.5:
        return 1.0 - math.exp(-x) * (1.0 + x)
    total, power = 0.0, x * x  # power = x^{n+2}/n!
    for n in range(20):
        total += (-power if n % 2 else power) / (n + 2)
        power *= x / (n + 1)
    return total


def _outage_probs(config: DmtConfig, p_s: float) -> tuple[float, float]:
    p_tot = p_s * (1.0 + config.c)
    p2 = p_s ** config.alpha_exp + (config.c * p_s) ** config.beta_exp
    t1 = p_tot ** config.r1
    denom = p_tot - t1 * p2
    out1 = 1.0 if denom <= 0.0 else _lambda_cdf(t1 / denom)
    out2 = _lambda_cdf(p_tot ** config.r2 / p2)
    return out1, out2


def _fit_exponent(p_s_grid: np.ndarray, probs: np.ndarray) -> tuple[float, bool]:
    degenerate = bool(np.any(probs >= 1.0 - 1e-12) or np.any(probs <= 0.0))
    if degenerate:
        return 0.0, True
    slope = np.polyfit(np.log(p_s_grid), np.log(probs), 1)[0]
    return float(-slope), False


def dmt_outage_exponents(config: DmtConfig) -> DmtExponents:
    """Least-squares outage exponents over the configured SNR grid."""
    p_s_grid = np.array([10.0 ** (db / 10.0) for db in config.snr_grid_db])
    outs = np.array([_outage_probs(config, p) for p in p_s_grid])
    d1, deg1 = _fit_exponent(p_s_grid, outs[:, 0])
    d2, deg2 = _fit_exponent(p_s_grid, outs[:, 1])
    return DmtExponents(d1_hat=d1, d2_hat=d2, degenerate1=deg1, degenerate2=deg2,
                        p_out1=tuple(outs[:, 0]), p_out2=tuple(outs[:, 1]))


def dmt_average_rate(config: DmtConfig, p_s: float) -> float:
    """Piecewise asymptotic average rate (in multiplexing-gain units).

    Zero when the dominant layer-2 exponent starves layer 1
    (1 - r1 - max(alpha, beta) < 0); layer 2 contributes only when that
    dominant exponent exceeds r2.  The outage terms use the high-SNR
    case-matched expressions, so the value tends to r1 + r2 as P_s grows.
    """
    a, b, c = config.alpha_exp, config.beta_exp, config.c
    m = max(a, b)
    if 1.0 - config.r1 - m < 0.0:
        return 0.0
    out1 = min((1.0 + c) ** (-2.0 * (1.0 - config.r1)) * p_s ** (-2.0 * (1.0 - config.r1)), 1.0)
    rate = (1.0 - out1) * config.r1
    if m > config.r2:
        if math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12):
            scale = (1.0 + c) ** (2.0 * config.r2) / (1.0 + c ** a) ** 2
        elif a > b:
            scale = (1.0 + c) ** (2.0 * config.r2)
        else:
            scale = (1.0 + c) ** (2.0 * config.r2) / c ** (2.0 * b)
        out2 = min(scale * p_s ** (-2.0 * (m - config.r2)), 1.0)
        rate += (1.0 - out2) * config.r2
    return rate
