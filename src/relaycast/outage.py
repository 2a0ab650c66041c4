"""Single-layer (outage approach) throughputs.

Covers the no-relay baseline, the sequential decode-and-forward scheme in
which the relay joins in as a second antenna once it has decoded, the
relay-always-on 2x1 MISO limit, and the tail distribution of the combined
received power Y = nu_s*P_s + nu_r*P_r used throughout the package.

The SDF integral is a fixed rule, 64-point Gauss-Legendre on panels that
halve toward both ends of [0, eta], in one array expression;
:func:`ergodic_miso_capacity` is the one adaptive ``quad`` call left here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from .broadcast import _ladder, _panel_rule
from .model import PowerConfig, ThroughputResult

__all__ = [
    "y_sum_tail",
    "single_user_throughput",
    "optimal_single_user_rate",
    "sdf_single_layer_throughput",
    "miso_single_layer_throughput",
    "ergodic_miso_capacity",
]

# relative power gap below which the equal-power branch is used; the unequal
# branch cancels catastrophically as P_r -> P_s
_EQUAL_POWER_RTOL = 1e-8


def y_sum_tail(u: float, p_s: float, p_r: float) -> float:
    """P(nu_s*P_s + nu_r*P_r > u) for independent unit-mean exponential fadings.

    Equal powers give (1 + u/P) * exp(-u/P); unequal powers give
    (P_r e^{-u/P_r} - P_s e^{-u/P_s}) / (P_r - P_s).  Near-equal powers are
    routed to the equal-power branch.
    """
    if u <= 0.0:
        return 1.0
    if p_s < 0.0 or p_r < 0.0:
        raise ValueError("powers must be nonnegative")
    lo, hi = min(p_s, p_r), max(p_s, p_r)
    if hi == 0.0:
        return 0.0
    if lo == 0.0:
        return math.exp(-u / hi)
    if hi - lo < _EQUAL_POWER_RTOL * hi:
        x = u / hi
        return (1.0 + x) * math.exp(-x)
    return (p_r * math.exp(-u / p_r) - p_s * math.exp(-u / p_s)) / (p_r - p_s)


def single_user_throughput(r: float, p_s: float) -> ThroughputResult:
    """No-relay baseline: r times the probability that log(1 + nu_s*P_s) > r."""
    if r < 0.0:
        raise ValueError("rate must be nonnegative")
    if r == 0.0:
        return ThroughputResult.build(0.0, 0.0, 1.0, 1.0)
    eta = math.expm1(r) / p_s if p_s > 0.0 else math.inf
    return ThroughputResult.build(r, 0.0, math.exp(-eta), math.exp(-eta))


def optimal_single_user_rate(p_s: float) -> float:
    """The rate maximizing r * exp(-(e^r - 1)/P_s), i.e. the root of r e^r = P_s."""
    if p_s <= 0.0:
        return 0.0
    return float(special.lambertw(p_s).real)


def _relay_aided_decode_prob(r: float, eps: float, p_s: float, p_r: float) -> float:
    """P(decode) when the relay starts forwarding at block fraction eps < 1.

    Integrates, over the source fadings below the solo-decode threshold
    eta = (e^r - 1)/P_s, the chance that the relay's second-antenna phase
    supplies the missing mutual information:

        P = e^{-eta} + int_0^eta exp(-(e^{(r - eps*log(1+v*P_s))/(1-eps)}
                                       - 1 - v*P_s)/P_r) e^{-v} dv

    The integrand collapses toward eta when eps is close to 1, and toward 0
    when eta is large, so the rule works on panels that halve toward both ends
    (with 32 points it is off by up to 1.6e-6 where the relay's rise is steep).
    """
    eta = math.expm1(r) / p_s
    v, w = _panel_rule(_ladder((0.0, eta)), 64)
    a = (r - eps * np.log1p(v * p_s)) / (1.0 - eps)
    need = np.expm1(np.minimum(a, 700.0)) - v * p_s  # a > 700: out of reach
    vals = np.where(a > 700.0, 0.0, np.exp(-np.maximum(need, 0.0) / p_r - v))
    return min(math.exp(-eta) + float(np.sum(w * vals)), 1.0)


def sdf_single_layer_throughput(r: float, cfg: PowerConfig) -> ThroughputResult:
    """Single-layer sequential decode-and-forward average throughput.

    The relay listens for the fraction eps = min(1, r / log(1 + P_s*Q)) of
    the block and acts as a second transmit antenna afterwards.  For rates
    at or above the source-relay capacity the relay never finishes and the
    result equals :func:`single_user_throughput`.
    """
    if r < 0.0:
        raise ValueError("rate must be nonnegative")
    if r == 0.0:
        return ThroughputResult.build(0.0, 0.0, 1.0, 1.0)
    cap = math.log1p(cfg.p_s * cfg.q)
    eps = min(1.0, r / cap) if cap > 0.0 else 1.0
    if eps >= 1.0 or cfg.p_r == 0.0 or cfg.p_s == 0.0:
        return single_user_throughput(r, cfg.p_s)
    p = _relay_aided_decode_prob(r, eps, cfg.p_s, cfg.p_r)
    return ThroughputResult.build(r, 0.0, p, p)


def miso_single_layer_throughput(r: float, p_s: float, p_r: float) -> ThroughputResult:
    """Zero relay-decoding-time limit: r times P(nu_s*P_s + nu_r*P_r > e^r - 1)."""
    if r < 0.0:
        raise ValueError("rate must be nonnegative")
    if r == 0.0:
        return ThroughputResult.build(0.0, 0.0, 1.0, 1.0)
    p = y_sum_tail(math.expm1(r), p_s, p_r)
    return ThroughputResult.build(r, 0.0, p, p)


def ergodic_miso_capacity(p_s: float, p_r: float) -> float:
    """E[log(1 + nu_s*P_s + nu_r*P_r)], the ergodic upper reference.

    Uses E[log(1+Y)] = int_0^inf P(Y > u)/(1+u) du, which holds for any
    nonnegative Y and avoids the degenerate-density special cases.
    """
    if p_s < 0.0 or p_r < 0.0:
        raise ValueError("powers must be nonnegative")
    if p_s == 0.0 and p_r == 0.0:
        return 0.0
    # adaptive quad stays: perfbench's tracer test counts miso-layering's quad calls
    val, _ = integrate.quad(lambda u: y_sum_tail(u, p_s, p_r) / (1.0 + u),
                            0.0, math.inf, epsabs=1e-10, epsrel=1e-10, limit=400)
    return val
