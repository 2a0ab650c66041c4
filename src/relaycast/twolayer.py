"""Closed-form layered throughputs: direct, MISO (equal and unequal relay
power split), simplex relay, and the duplex-gain condition.

The direct and equal-split MISO forms weight each layer's rate by the tail of
s = nu_s + (P_r/P_s)*nu_r at its threshold, outage._layer_tail_terms.  The
unequal MISO results come from the decode-region geometry in the (nu_s, nu_r)
plane: each layer is decodable above a straight threshold line, and the
average throughput is a sum of closed-form exponential integrals over the
regions between those lines.  The simplex results replace the lines by the
curved thresholds of :mod:`relaycast.bounds` and integrate numerically: over
[v_lo, eta1] by 16-point Gauss-Legendre on panels that halve toward both ends
and break at the K/U crossings its nodes see (refined to float resolution by
regula falsi), over [eta1, eta2] by ``quad`` on a U that reads math's
log1p/expm1.  A layer of rate 0 always decodes and sets no threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .bounds import (BoundContext, _k_values, _u_kernel, _u_values, discontinuity_point,
                     find_intersections)
from .broadcast import _ladder, _panel_rule, cumulative_rate
from .model import (PowerConfig, ThroughputResult, TwoLayerAllocation,
                    _check_nonneg, decoding_times)
from .outage import _layer_tail_terms

__all__ = [
    "direct_multilayer_throughput",
    "miso_equal_throughput",
    "miso_unequal_throughput",
    "miso_max_throughput",
    "simplex_equal_throughput",
    "simplex_unequal_throughput",
    "DuplexVerdict",
    "duplex_gain_condition",
    "discretize_power_density",
    "CLOSED_FORMS",
]

_QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-9, limit=200)
_LOWER_NODES = 16  # Gauss-Legendre nodes per panel of the simplex rule on [v_lo, eta1]


def _layer_rate_list(thresholds: Sequence[float], fractions: Sequence[float],
                     p_s: float) -> list[float]:
    """Per-layer rates R_i = log(1 + eta_i*frac_i*P / (1 + eta_i*resid_i*P))."""
    if len(thresholds) != len(fractions):
        raise ValueError("thresholds and fractions must have equal length")
    if any(f < -1e-12 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be nonnegative and sum to 1")
    if any(b < a for a, b in zip(thresholds[:-1], thresholds[1:])):
        raise ValueError("thresholds must be nondecreasing")
    rates = []
    resid = 1.0  # power fraction on this layer and above
    for eta, frac in zip(thresholds, fractions):
        resid_next = max(resid - frac, 0.0)
        rates.append(math.log1p(eta * resid * p_s) - math.log1p(eta * resid_next * p_s))
        resid = resid_next
    return rates


def _layered_result(thresholds: Sequence[float], fractions: Sequence[float],
                    p_s: float, p_r: float) -> ThroughputResult:
    """Sum R_i T(eta_i) packaged as a ThroughputResult, T the layer tail of
    outage._layer_tail_terms(p_s, p_r), each clipped to [0, 1] (e^{-eta}
    passes 1 at a caller's eta < 0).

    For more than two layers r2/p_both aggregate the upper layers
    (rate-weighted), preserving r_av = r1*p1 + r2*p_both exactly.
    """
    rates = _layer_rate_list(thresholds, fractions, p_s)
    tail = _layer_tail_terms(p_s, p_r)
    tails = [min(max(tail(eta)[0], 0.0), 1.0) for eta in thresholds]
    r1, p1 = rates[0], tails[0]
    r_hi = sum(rates[1:])
    p_hi = sum(r * t for r, t in zip(rates[1:], tails[1:])) / r_hi if r_hi > 0.0 else p1
    return ThroughputResult.build(r1, r_hi, p1, p_hi)


def direct_multilayer_throughput(thresholds: Sequence[float],
                                 fractions: Sequence[float],
                                 p_s: float) -> ThroughputResult:
    """No-relay layered transmission: R_av = sum_i R_i e^{-eta_i}."""
    return _layered_result(thresholds, fractions, p_s, 0.0)


def miso_equal_throughput(thresholds: Sequence[float], fractions: Sequence[float],
                          p_s: float, p_r: float) -> ThroughputResult:
    """Always-on relay reusing the source split: R_av = sum_i R_i P(Y > eta_i P_s)."""
    return _layered_result(thresholds, fractions, p_s, p_r)


def _layered_two_layer_rate(alpha: float, beta: float, eta1: float, eta2: float,
                            p_s: float, p_r: float) -> float:
    """``miso_equal_throughput(...).r_av`` of the split (alpha, 1 - alpha) at
    (eta1, eta2) bit for bit, from unchecked floats; beta is ignored, and P_r
    = 0 gives the direct form."""
    tail = _layer_tail_terms(p_s, p_r)
    p1 = min(max(tail(eta1)[0], 0.0), 1.0)
    t2 = min(max(tail(eta2)[0], 0.0), 1.0)
    ab = max(1.0 - alpha, 0.0)
    r1 = math.log1p(eta1 * p_s) - math.log1p(eta1 * ab * p_s)
    r2 = math.log1p(eta2 * ab * p_s)
    # the rate-weighted layer-2 probability of _layered_result, rounding included
    p_both = min(r2 * t2 / r2, p1) if r2 > 0.0 else p1
    return r1 * p1 + r2 * p_both


def _seg(lo: float, hi: float, slope: float, anchor: float) -> float:
    """int_lo^hi exp(-v - slope*(anchor - v)) dv for a threshold line
    slope*(anchor - v): the larger endpoint's value times
    -expm1(-|slope - 1|*(hi - lo))/|slope - 1|, which neither cancels near
    unit slope nor overflows at large slopes."""
    if hi <= lo or math.isinf(slope):
        return 0.0
    v = hi if slope > 1.0 else lo
    top = math.exp(-v - slope * (anchor - v))
    c = abs(slope - 1.0)
    return top * (hi - lo) if c == 0.0 else top * -math.expm1(-c * (hi - lo)) / c


def _miso_unequal_parts(alpha: float, beta: float, eta1: float, eta2: float,
                        p_s: float, p_r: float) -> tuple[float, float, float, float]:
    """(r1, r2, p1, p_both) of miso_unequal_throughput, clipped as
    ThroughputResult.build clips them, so r_av = r1*p1 + r2*p_both.  No
    validation: needs 0 <= alpha, beta <= 1 and 0 <= eta1 <= eta2."""
    ab, bb = 1.0 - alpha, 1.0 - beta
    e1, e2 = eta1, eta2
    r1 = math.log1p(e1 * p_s) - math.log1p(e1 * ab * p_s)
    r2 = math.log1p(e2 * ab * p_s)
    d = beta + e1 * p_s * (beta - alpha)
    n = ab * p_s / (bb * p_r) if bb * p_r > 0.0 else math.inf
    k = alpha * p_s / (d * p_r) if d * p_r != 0.0 else math.inf
    if p_r == 0.0:  # the direct form, rounded as direct_multilayer_throughput
        tail = _layer_tail_terms(p_s, 0.0)
        p1 = tail(e1)[0]
        p_both = r2 * tail(e2)[0] / r2 if r2 > 0.0 else p1
    elif abs(d) <= 1e-12 * max(1.0, beta + e1 * p_s * (beta + alpha)):
        # layer-1 threshold line is vertical at eta1: relay power neither
        # helps nor hurts layer 1
        p1 = math.exp(-e1)
        p_both = math.exp(-e2) + _seg(e1, e2, n, e2)
    elif d > 0.0:
        p1 = math.exp(-e1) + _seg(0.0, e1, k, e1)
        if math.isinf(n) or k * e1 <= n * e2:
            v1 = 0.0  # layer-2 line dominates all of [0, eta1]
        else:
            # exact in [0, eta1]; rounding at n ~ k (eta1 = eta2) can leave it
            v1 = min(max((n * e2 - k * e1) / (n - k), 0.0), e1)
        p_both = math.exp(-e2) + _seg(v1, e2, n, e2) + _seg(0.0, v1, k, e1)
    else:
        # layer 1 decodable only for nu_s > eta1 with nu_r BELOW |k|(nu_s-eta1)
        kk = -k
        p1 = math.exp(-e1) * kk / (1.0 + kk)
        v2 = (n * e2 - k * e1) / (n - k)  # crossing in [eta1, eta2]
        tail_above = math.exp(-v2 - kk * (v2 - e1)) / (1.0 + kk)
        p_both = math.exp(-e2) + _seg(v2, e2, n, e2) - tail_above
    p1 = min(max(p1, 0.0), 1.0)
    return r1, r2, p1, p1 if r2 == 0.0 else min(max(p_both, 0.0), p1)


def _miso_unequal_two_layer_rate(alpha: float, beta: float, eta1: float, eta2: float,
                                 p_s: float, p_r: float) -> float:
    r1, r2, p1, p_both = _miso_unequal_parts(alpha, beta, eta1, eta2, p_s, p_r)
    return r1 * p1 + r2 * p_both


def miso_unequal_throughput(alloc: TwoLayerAllocation, p_s: float,
                            p_r: float) -> ThroughputResult:
    """Two-layer MISO with an independent relay power split beta.

    Layer 1 is decodable where nu_r*P_r*(1 - e^{r1}*beta_bar) exceeds
    (e^{r1}-1) - nu_s*P_s*(1 - e^{r1}*alpha_bar), layer 2 (after
    cancellation) where nu_s*alpha_bar*P_s + nu_r*beta_bar*P_r >= eta2*
    alpha_bar*P_s.  The sign of d = beta + eta1*P_s*(beta - alpha), i.e. of
    1 - e^{r1}*beta_bar, selects whether relay power helps or hurts layer 1;
    d < 0 is reachable only for beta < alpha and flips the layer-1 region
    below its threshold line.  P_r = 0 gives the direct form.
    """
    return ThroughputResult.build(*_miso_unequal_parts(
        alloc.alpha, alloc.beta, alloc.eta1, alloc.eta2, _check_nonneg("p_s", p_s), p_r))


def miso_max_throughput(alloc: TwoLayerAllocation, p_s: float) -> ThroughputResult:
    """Unit-slope optimum of the unequal MISO over n, k >= 1:
    R_av = R1 e^{-eta1}(1+eta1) + R2 e^{-eta2}(1+eta2), the equal MISO at
    P_r = P_s."""
    p_s = _check_nonneg("p_s", p_s)
    return miso_equal_throughput((alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar),
                                 p_s, p_s)


def _simplex_throughput(alloc: TwoLayerAllocation, cfg: PowerConfig) -> ThroughputResult:
    """Simplex assembly: the relay forwards from its decoding time of layer 2."""
    x = decoding_times(alloc, cfg).eps2
    # a relay that never decodes within the block, or is silent, leaves the
    # source alone
    if x >= 1.0 or cfg.p_r == 0.0:
        return direct_multilayer_throughput(
            (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar), cfg.p_s)
    if x <= 0.0:
        return miso_unequal_throughput(alloc, cfg.p_s, cfg.p_r)

    ctx = BoundContext.from_config(alloc, cfg, x)
    r1, r2 = ctx.r1, ctx.r2
    # [v_lo, eta1], the single-layer SDF's whole integral, by the panel rule cut
    # at K = U; a layer of rate 0 sets no threshold (K would read 0/0 at beta = 0)
    v_lo = discontinuity_point(ctx)
    v, w = _panel_rule(_ladder((v_lo, alloc.eta1)), _LOWER_NODES)

    def integral(thr: np.ndarray) -> float:  # int exp(-max(thr, 0) - v)
        return float(np.sum(w * np.exp(-np.maximum(thr, 0.0) - v)))

    k = _k_values(v, ctx) if r1 > 0.0 else None
    u = _u_values(v, ctx) if r2 > 0.0 else None
    if k is not None and u is not None:
        crossings = find_intersections(ctx, v, k, u)
        if crossings:
            v, w = _panel_rule(_ladder((v_lo, *crossings, alloc.eta1)), _LOWER_NODES)
            k, u = _k_values(v, ctx), _u_values(v, ctx)
    p1 = 1.0 if k is None else math.exp(-alloc.eta1) + integral(k)
    if u is None:  # layer 2 has rate 0 (alpha = 1, as in every SDF plan)
        return ThroughputResult.build(r1, r2, p1, p1)

    u_of = _u_kernel(ctx, math)  # never compared with the array nodes

    def exp_u(v: float) -> float:  # exp(-max(U, 0) - v): a conditional beats max
        thr = u_of(v)
        return math.exp(-(thr if thr > 0.0 else 0.0) - v)

    # [eta1, eta2] stays on adaptive quad: perfbench pins D5's validate cell
    p_both = math.exp(-alloc.eta2)
    p_both += integrate.quad(exp_u, alloc.eta1, alloc.eta2, **_QUAD_OPTS)[0]
    if k is not None:  # layer 2 needs layer 1 first: its threshold is max(K, U)
        with np.errstate(invalid="ignore"):  # K - U is NaN where both are inf
            u = np.where(k - u <= 0.0, u, k)
    p_both += integral(u)
    return ThroughputResult.build(r1, r2, p1, min(p_both, p1))


def simplex_equal_throughput(alloc: TwoLayerAllocation, cfg: PowerConfig) -> ThroughputResult:
    """Relay decodes both layers before forwarding, reusing the source split."""
    if alloc.beta != alloc.alpha:
        raise ValueError("equal allocation requires beta == alpha")
    return _simplex_throughput(alloc, cfg)


def simplex_unequal_throughput(alloc: TwoLayerAllocation, cfg: PowerConfig) -> ThroughputResult:
    """Relay decodes both layers before forwarding with its own split beta >= alpha."""
    if alloc.beta < alloc.alpha:
        raise ValueError("beta >= alpha required; beta < alpha degrades layer 1 "
                         "irrespective of relay power (use the Monte-Carlo module "
                         "to explore it)")
    return _simplex_throughput(alloc, cfg)


class _TwoLayerForm(NamedTuple):
    """A CLOSED_FORMS entry; calling it evaluates the closed form.  ``rate``
    (direct and MISO) gives r_av from unchecked floats (alpha, beta, eta1,
    eta2, p_s, p_r) bit for bit; for direct and miso-equal it is
    _layered_two_layer_rate, at P_r = 0 for direct."""

    closed_form: Callable[[TwoLayerAllocation, PowerConfig], ThroughputResult]
    rate: Callable[..., float] | None = None

    def __call__(self, alloc: TwoLayerAllocation, cfg: PowerConfig) -> ThroughputResult:
        return self.closed_form(alloc, cfg)


# The two-layer closed forms by scheme name, each mapping an allocation and a
# PowerConfig to its ThroughputResult.  The direct and MISO-equal schemes read
# only alpha (beta is ignored).  Every entry looks its function up by module
# global name at call time, so a patched module attribute (a test, a span
# tracer) sees every call made through the table.
CLOSED_FORMS: dict[str, _TwoLayerForm] = {
    "direct": _TwoLayerForm(
        lambda a, cfg: direct_multilayer_throughput(
            (a.eta1, a.eta2), (a.alpha, a.alpha_bar), cfg.p_s),
        lambda a, b, e1, e2, p_s, p_r: _layered_two_layer_rate(a, b, e1, e2, p_s, 0.0)),
    "miso-equal": _TwoLayerForm(
        lambda a, cfg: miso_equal_throughput(
            (a.eta1, a.eta2), (a.alpha, a.alpha_bar), cfg.p_s, cfg.p_r),
        _layered_two_layer_rate),
    "miso-unequal": _TwoLayerForm(
        lambda a, cfg: miso_unequal_throughput(a, cfg.p_s, cfg.p_r),
        _miso_unequal_two_layer_rate),
    "simplex-equal": _TwoLayerForm(lambda a, cfg: simplex_equal_throughput(a, cfg)),
    "simplex-unequal": _TwoLayerForm(lambda a, cfg: simplex_unequal_throughput(a, cfg)),
}


@dataclass(frozen=True)
class DuplexVerdict:
    """Outcome of the full-duplex gain check.

    ``simplex_sufficient`` means 1 < 2*alpha_bar + Q*alpha_bar^2*P_s, which
    guarantees no full-duplex gain only under the (numerically observed,
    unproven) ordering r1_opt > r2_opt of the optimal single-user rates;
    ``assumes_rate_ordering`` records that caveat.
    """

    simplex_sufficient: bool
    margin: float
    assumes_rate_ordering: bool = True

    @property
    def verdict(self) -> str:
        return "simplex-sufficient" if self.simplex_sufficient else "condition-not-met"


def duplex_gain_condition(alloc: TwoLayerAllocation, cfg: PowerConfig) -> DuplexVerdict:
    """Sufficient condition for the simplex relay to match the full-duplex one."""
    ab = alloc.alpha_bar
    margin = 2.0 * ab + cfg.q * ab * ab * cfg.p_s - 1.0
    return DuplexVerdict(simplex_sufficient=margin > 0.0, margin=margin)


def discretize_power_density(density, n_layers: int) -> tuple[list[float], list[float]]:
    """Quantize a continuous layering profile into an n-layer plan:
    (thresholds, residuals).

    The thresholds sit at equal increments R(u1)(i + 1/2)/n of
    broadcast.cumulative_rate's R(u), so each layer carries an equal share of
    the profile's rate.  The residuals are the power fractions left after each
    of the first n - 1 layers, I(eta_i)/P, so the discrete residual
    interference matches I at every threshold; the last layer leaves 0.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    us, cum = cumulative_rate(density)
    thresholds = np.interp(cum[-1] * (np.arange(n_layers) + 0.5) / n_layers, cum, us).tolist()
    return thresholds, [float(density.i_of_u(u)) / density.total_power for u in thresholds[:-1]]
