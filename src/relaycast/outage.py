"""Single-layer (outage approach) throughputs.

Covers the no-relay baseline, the sequential decode-and-forward scheme in
which the relay joins in as a second antenna once it has decoded, the
relay-always-on 2x1 MISO limit, and the law of the combined fading
s = nu_s + (P_r/P_s)*nu_r (_layer_tail_terms): the one formula in the package
for the tail of Y = nu_s*P_s + nu_r*P_r, which y_sum_tail, the direct and
MISO closed forms, the layered plans and the continuous densities all read.

The SDF is the one-layer simplex plan of :mod:`relaycast.twolayer`, with its
listen time from :func:`~relaycast.model.decoding_times`, so its decode
integral is that module's; :func:`ergodic_miso_capacity` is the one adaptive
``quad`` call left here.
"""

from __future__ import annotations

import math

from scipy import integrate

from .model import PowerConfig, ThroughputResult, TwoLayerAllocation, _check_nonneg

__all__ = [
    "y_sum_tail",
    "single_user_throughput",
    "optimal_single_user_rate",
    "sdf_single_layer_throughput",
    "miso_single_layer_throughput",
    "ergodic_miso_capacity",
]


def y_sum_tail(u: float, p_s: float, p_r: float) -> float:
    """P(nu_s*P_s + nu_r*P_r > u) for independent unit-mean exponential fadings.

    The sum is symmetric in the two powers, so this is the layer tail of
    :func:`_layer_tail_terms` for the larger power P, read at u/P.
    """
    if p_s < 0.0 or p_r < 0.0:
        raise ValueError("powers must be nonnegative")
    if u <= 0.0:
        return 1.0
    p = max(p_s, p_r)
    if p == 0.0:
        return 0.0
    return _layer_tail_terms(p, min(p_s, p_r))(u / p)[0]


def _layer_tail_terms(p_s: float, p_r: float, xp=math):
    """eta -> (T, T', T''): the layer tail T(eta) = P(nu_s + rho nu_r > eta),
    rho = P_r/P_s, and its first two derivatives in eta.  T is the tail of s,
    the one law of s in the package: the closed forms and the layered plans
    read it on scalars (``xp`` = math) and the continuous densities of
    :mod:`relaycast.broadcast` on arrays (``xp`` = numpy).

    With w = (e^{-eta/rho} - e^{-eta})/(rho - 1), T = e^{-eta} + rho w,
    T' = -w and T'' = (w - e^{-eta})/rho.  w is written with expm1, as
    -e^{-eta/rho} expm1(-eta g)/(rho - 1) for rho > 1 and
    e^{-eta} expm1(eta g)/(rho - 1) for rho < 1, g = (rho - 1)/rho, so it
    neither cancels as rho -> 1 nor overflows at large eta.  rho = 1 gives
    (1 + eta)e^{-eta}, P_r = 0 gives e^{-eta}, and P_s = 0 gives 1: every
    rate is then 0, and a layer of rate 0 always decodes.
    """
    if p_s == 0.0:
        return lambda eta: (1.0, 0.0, 0.0)
    rho, exp, expm1 = p_r / p_s, xp.exp, xp.expm1
    if rho == 0.0:
        def direct(eta: float) -> tuple[float, float, float]:
            e = exp(-eta)
            return e, -e, e
        return direct
    if rho == 1.0:
        def equal(eta: float) -> tuple[float, float, float]:
            e = exp(-eta)
            return (1.0 + eta) * e, -eta * e, (eta - 1.0) * e
        return equal
    g, d = (rho - 1.0) / rho, rho - 1.0

    def unequal(eta: float) -> tuple[float, float, float]:
        e = exp(-eta)
        w = (-exp(-eta / rho) * expm1(-eta * g) if g > 0.0
             else e * expm1(eta * g)) / d
        return e + rho * w, -w, (w - e) / rho
    return unequal


def single_user_throughput(r: float, p_s: float) -> ThroughputResult:
    """No-relay baseline: r times the probability that log(1 + nu_s*P_s) > r."""
    r = _check_nonneg("rate", r)
    if r == 0.0:
        return ThroughputResult.build(0.0, 0.0, 1.0, 1.0)
    eta = math.expm1(r) / p_s if p_s > 0.0 else math.inf
    return ThroughputResult.build(r, 0.0, math.exp(-eta), math.exp(-eta))


def optimal_single_user_rate(p_s: float) -> float:
    """The rate maximizing r * exp(-(e^r - 1)/P_s), i.e. the root of r e^r = P_s
    (the Lambert W function), by Halley's iteration on w e^w = P_s (Corless
    et al., On the Lambert W function, Adv. Comput. Math. 5, 1996)."""
    if p_s <= 0.0:
        return 0.0
    if p_s < math.e:
        w = math.log1p(p_s)
    else:  # the first terms of W's asymptotic series
        l1 = math.log(p_s)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    for _ in range(20):
        e = math.exp(w)
        f = w * e - p_s
        step = f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 4e-16 * w:
            break
    return w


def sdf_single_layer_throughput(r: float, cfg: PowerConfig) -> ThroughputResult:
    """Single-layer sequential decode-and-forward average throughput.

    The one-layer simplex plan alpha = beta = 1, eta1 = eta2 = (e^r - 1)/P_s:
    the relay listens for the fraction min(1, r / log(1 + P_s*Q)) that
    :func:`~relaycast.model.decoding_times` gives, then acts as a second
    transmit antenna.  At or above the source-relay capacity the relay never
    finishes and the result is :func:`single_user_throughput`'s.
    """
    r = _check_nonneg("rate", r)
    if cfg.p_s == 0.0:  # eta would divide by zero; nothing is ever decoded
        return single_user_throughput(r, cfg.p_s)
    from .twolayer import _simplex_throughput  # twolayer imports this module

    eta = math.expm1(r) / cfg.p_s
    return _simplex_throughput(TwoLayerAllocation(alpha=1.0, eta1=eta, eta2=eta), cfg)


def miso_single_layer_throughput(r: float, p_s: float, p_r: float) -> ThroughputResult:
    """Zero relay-decoding-time limit: r times P(nu_s*P_s + nu_r*P_r > e^r - 1)."""
    r = _check_nonneg("rate", r)
    p = y_sum_tail(math.expm1(r), p_s, p_r)
    return ThroughputResult.build(r, 0.0, p, p)


def ergodic_miso_capacity(p_s: float, p_r: float) -> float:
    """E[log(1 + nu_s*P_s + nu_r*P_r)], the ergodic upper reference.

    Uses E[log(1+Y)] = int_0^inf P(Y > u)/(1+u) du, which holds for any
    nonnegative Y and avoids the degenerate-density special cases.
    """
    if p_s < 0.0 or p_r < 0.0:
        raise ValueError("powers must be nonnegative")
    p = max(p_s, p_r)
    if p == 0.0:
        return 0.0
    tail = _layer_tail_terms(p, min(p_s, p_r))  # y_sum_tail's law, built once
    # adaptive quad stays: perfbench's tracer test counts miso-layering's quad calls
    val, _ = integrate.quad(lambda u: tail(u / p)[0] / (1.0 + u),
                            0.0, math.inf, epsabs=1e-10, epsrel=1e-10, limit=400)
    return val
