"""Threshold machinery for the simplex relay closed forms.

With the relay joining after the block fraction x, layer decodability at the
destination reduces to nu_r exceeding a threshold curve in nu_s.  This module
provides those curves for the allocation in a BoundContext: the auxiliary
factor t, the layer-1 threshold K (the F family when beta = alpha), the
layer-2 threshold U, the point v_lo below which layer 1 is undecodable for any
nu_r, and the K/U crossings between the nodes of :mod:`relaycast.twolayer`'s
fixed Gauss-Legendre rule on [v_lo, eta1], where that rule breaks its panels.
The relay's residual fraction beta_bar comes from the context's allocation.
K and U come on arrays and on one float, from kernels that bind a context's
constants once (_k_kernel, _u_kernel), which the crossing refinement reads
and, on math's log1p/expm1, quad's [eta1, eta2] integrand.

t, K, U and v_lo are written in complement variables, so that they keep
their digits as the relay decodes late (x -> 1).  With S = nu_s P_s,
G = (1 + S)/(1 + alpha_bar S) and delta = (r1 - log G)/x_bar, a log1p over
the context's x_bar = 1 - x (_delta): t = G e^delta, and
K = (1 + S) expm1(delta) / (P_r (1 - t beta_bar)) with 1 - t beta_bar =
(beta + (beta - alpha) S)/(1 + alpha_bar S) - beta_bar G expm1(delta); U
takes r2 - log Z as a log1p over x_bar in the same way (_u_values); v_lo is
eta1 less a gap (discontinuity_point).  For the derivation of t and the
thresholds from the phase-wise mutual information balance, and of the
complement form, see docs/conformance.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PowerConfig, TwoLayerAllocation, decoding_times, layer_rates

__all__ = [
    "BoundContext",
    "t_factor",
    "relay_threshold_bound",
    "u_bound",
    "discontinuity_point",
]

_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class BoundContext:
    """Frozen inputs of the threshold curves.

    ``x`` is the effective relay decoding time used in all bounds (the
    layer-2 time, which already dominates the layer-1 time by construction);
    x = 1 is the no-relay degenerate case and is rejected here because the
    callers route it to direct transmission.  ``x_bar`` = 1 - x, which t, K,
    U and v_lo read, defaults to 1 - x; from_config computes it from its own
    log1p (_listen_complement).
    """

    alloc: TwoLayerAllocation
    cfg: PowerConfig
    x: float
    r1: float
    r2: float
    x_bar: float = math.nan

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"x must lie in [0, 1), got {self.x!r}")
        if math.isnan(self.x_bar):
            object.__setattr__(self, "x_bar", 1.0 - self.x)

    @classmethod
    def from_config(cls, alloc: TwoLayerAllocation, cfg: PowerConfig,
                    x: float | None = None) -> "BoundContext":
        # x is decoding_times(alloc, cfg).eps2, passed in by a caller that has it
        r1, r2 = layer_rates(alloc, cfg.p_s)
        x = decoding_times(alloc, cfg).eps2 if x is None else x
        return cls(alloc=alloc, cfg=cfg, x=x, r1=r1, r2=r2,
                   x_bar=_listen_complement(alloc, cfg, x, r1, r2))

    @property
    def eta1(self) -> float:
        return self.alloc.eta1

    @property
    def eta2(self) -> float:
        return self.alloc.eta2


def _listen_complement(alloc: TwoLayerAllocation, cfg: PowerConfig, x: float,
                       r1: float, r2: float) -> float:
    """1 - x for x = decoding_times(alloc, cfg).eps2 and layer rates r1, r2:
    the smaller of the layers' (cap - r)/cap, with cap - r written as a log1p
    (a layer of rate 0 takes none); 1 - x itself unless 0 < x < 1, or where
    rounding leaves the result outside (0, 1]."""
    if not 0.0 < x < 1.0:
        return 1.0 - x
    a, ab, p_s, q = alloc.alpha, alloc.alpha_bar, cfg.p_s, cfg.q
    qp = q * p_s
    x_bar = 1.0
    if r1 > 0.0:
        x_bar = (math.log1p(a * p_s * (q - alloc.eta1)
                            / ((1.0 + qp * ab) * (1.0 + alloc.eta1 * p_s)))
                 / math.log1p(qp * a / (1.0 + qp * ab)))
    if r2 > 0.0:
        x_bar = min(x_bar, math.log1p(ab * p_s * (q - alloc.eta2)
                                      / (1.0 + alloc.eta2 * ab * p_s)) / math.log1p(qp * ab))
    return x_bar if 0.0 < x_bar <= 1.0 else 1.0 - x


def _delta(v_s, ctx: BoundContext):
    """delta = (r1 - log G)/x_bar, with r1 - log G = log(G(eta1)/G(v_s)) as the
    log1p of alpha P_s (eta1 - v_s)/((1 + alpha_bar s1)(1 + S)); on an array
    or (as an np.float64) on a float, with the same operations."""
    p_s = ctx.cfg.p_s
    ab_s1 = 1.0 + ctx.alloc.alpha_bar * ctx.eta1 * p_s
    return np.log1p(ctx.alloc.alpha * p_s * (ctx.eta1 - v_s)
                    / (ab_s1 * (1.0 + v_s * p_s))) / ctx.x_bar


def _divide(numer: float, denom: float) -> float:
    """numer / denom with numpy's result (+-inf or nan) for a zero denom."""
    try:
        return numer / denom
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(numer) / denom)


def t_factor(v_s: float, ctx: BoundContext) -> float:
    """t = G e^delta at one point: the layer-1 balance solved for the
    combined-phase SINR, t = exp((r1 - x log G)/(1 - x)).  Monotone
    decreasing in v_s, equal to e^{r1} at eta1; +inf where delta > 700.

    The scalar kernels (t_factor, relay_threshold_bound, u_bound) repeat
    their array kernel's operations on Python floats and call numpy's
    log1p/expm1/exp/log, which agree with numpy's array path; math.exp
    differs from it in the last bit on a few percent of inputs.
    """
    s = v_s * ctx.cfg.p_s
    delta = float(_delta(v_s, ctx))
    if delta > _EXP_OVERFLOW:
        return math.inf
    return (1.0 + s) / (1.0 + ctx.alloc.alpha_bar * s) * float(np.exp(delta))


def _k_values(v_s, ctx: BoundContext):
    """Layer-1 threshold on nu_r (K family; equals F when beta = alpha).

    K = (1 + S) expm1(delta) / (bracket * P_r), with the bracket
    (beta + (beta - alpha) S)/(1 + alpha_bar S) - beta_bar G expm1(delta) =
    1 - t beta_bar; neither the numerator nor the bracket forms a
    difference of t-sized terms.  Returns +inf where the bracket is not
    positive (the pre-discontinuity region: undecodable for any nu_r).
    """
    v = np.asarray(v_s, dtype=float)
    s = v * ctx.cfg.p_s
    alloc = ctx.alloc
    delta = _delta(v, ctx)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        grow = np.where(delta > _EXP_OVERFLOW, np.inf, np.expm1(delta))
        one_s, one_as = 1.0 + s, 1.0 + alloc.alpha_bar * s
        # beta_bar * inf is NaN at beta = 1, where the bracket then fails > 0
        bracket = ((alloc.beta + (alloc.beta - alloc.alpha) * s) / one_as
                   - alloc.beta_bar * (one_s / one_as) * grow)
        val = one_s * grow / (bracket * ctx.cfg.p_r)
    return np.where(bracket > 0.0, val, np.inf)


def _k_kernel(ctx: BoundContext):
    """v_s -> K on one float, bit for bit as _k_values gives it, with the
    context's constants bound once."""
    alloc, p_s, p_r, eta1, x_bar = ctx.alloc, ctx.cfg.p_s, ctx.cfg.p_r, ctx.eta1, ctx.x_bar
    ab, beta, bb, b_less_a = alloc.alpha_bar, alloc.beta, alloc.beta_bar, alloc.beta - alloc.alpha
    a_ps, ab_s1 = alloc.alpha * p_s, 1.0 + ab * eta1 * p_s

    def k(v_s: float) -> float:
        s = v_s * p_s
        delta = float(np.log1p(a_ps * (eta1 - v_s) / (ab_s1 * (1.0 + s)))) / x_bar
        grow = math.inf if delta > _EXP_OVERFLOW else float(np.expm1(delta))
        one_s, one_as = 1.0 + s, 1.0 + ab * s
        bracket = (beta + b_less_a * s) / one_as - bb * (one_s / one_as) * grow
        if not bracket > 0.0:
            return math.inf
        return _divide(one_s * grow, bracket * p_r)

    return k


def relay_threshold_bound(v_s: float, ctx: BoundContext) -> float:
    """K at one point, bit for bit as _k_values gives it: +inf before the
    layer-1 discontinuity, where no nu_r decodes layer 1."""
    return _k_kernel(ctx)(v_s)


def _u_values(v_s, ctx: BoundContext):
    """Layer-2 threshold U = Z expm1((r2 - log Z)/x_bar) / (beta_bar * P_r),
    with Z = 1 + v_s*alpha_bar*P_s and r2 - log Z = log(Z(eta2)/Z) as the
    log1p of alpha_bar P_s (eta2 - v_s)/Z, so that U keeps its digits as the
    relay decodes late (x -> 1).  Zero at eta2, negative beyond."""
    alloc = ctx.alloc
    ab, p_s = alloc.alpha_bar, ctx.cfg.p_s
    v = np.asarray(v_s, dtype=float)
    z = 1.0 + v * ab * p_s
    log_pow = np.log1p(ab * p_s * (alloc.eta2 - v) / z) / ctx.x_bar
    with np.errstate(over="ignore"):  # overflow gives inf, as in the scalar u_bound
        numer = z * np.where(log_pow > _EXP_OVERFLOW, np.inf, np.expm1(log_pow))
        bb = alloc.beta_bar
        if bb > 0.0:
            return numer / (bb * ctx.cfg.p_r)
    # all relay power on layer 1: the relay cannot help layer 2 at all
    return np.where(numer > 0.0, np.inf, np.where(numer < 0.0, -np.inf, 0.0))


def _u_kernel(ctx: BoundContext, xp=np):
    """v_s -> U on one float, with the context's constants bound once: bit for
    bit as _u_values gives it on numpy's log1p/expm1 (``xp`` = numpy), and on
    math's (``xp`` = math) for quad's integrand, never compared with it."""
    ab, p_s, eta2, x_bar = ctx.alloc.alpha_bar, ctx.cfg.p_s, ctx.eta2, ctx.x_bar
    ab_ps, bb = ab * p_s, ctx.alloc.beta_bar
    bb_pr, log1p, expm1 = bb * ctx.cfg.p_r, xp.log1p, xp.expm1

    def u(v_s: float) -> float:
        z = 1.0 + v_s * ab * p_s
        log_pow = float(log1p(ab_ps * (eta2 - v_s) / z)) / x_bar
        numer = z * (math.inf if log_pow > _EXP_OVERFLOW else float(expm1(log_pow)))
        if bb > 0.0:
            return _divide(numer, bb_pr)
        return math.inf if numer > 0.0 else -math.inf if numer < 0.0 else 0.0

    return u


def u_bound(v_s: float, ctx: BoundContext) -> float:
    """U at one point, bit for bit as _u_values gives it."""
    return _u_kernel(ctx)(v_s)


def discontinuity_point(ctx: BoundContext) -> float:
    """The nu_s below which layer 1 is undecodable regardless of nu_r.

    Solves t(v) = 1/beta_bar, where K's bracket 1 - t*beta_bar changes sign
    (with beta = alpha this is the F family's point), as its distance below
    eta1; 0 when t(0) = e^{r1/x_bar} never reaches 1/beta_bar.  With
    c1 = 1 - e^{r1} beta_bar = (beta + (beta - alpha) s1)/(1 + alpha_bar s1),
    the root has G(v)/G(eta1) = e^{-D}, D = -x_bar log1p(-c1)/x, and with
    w = -expm1(-D) the log1p identity of _delta gives
    eta1 - v = w (1 + s1)(1 + alpha_bar s1) / (P_s (alpha + alpha_bar w (1 + s1))),
    which forms no difference of nearly equal terms.
    """
    alloc = ctx.alloc
    if alloc.beta_bar <= 0.0 or not ctx.r1 > 0.0:
        return 0.0  # the bracket is positive throughout, or K is never used
    s1 = ctx.eta1 * ctx.cfg.p_s
    one_as1 = 1.0 + alloc.alpha_bar * s1
    c1 = (alloc.beta + (alloc.beta - alloc.alpha) * s1) / one_as1
    if not c1 > 0.0:  # t(eta1) >= 1/beta_bar: cannot happen for beta >= alpha
        return ctx.eta1
    if ctx.x == 0.0:  # t = e^{r1} is constant, below 1/beta_bar
        return 0.0
    w = -math.expm1(ctx.x_bar * math.log1p(-c1) / ctx.x)
    gap = w * (1.0 + s1) * one_as1 / (ctx.cfg.p_s * (alloc.alpha
                                                     + alloc.alpha_bar * w * (1.0 + s1)))
    return max(ctx.eta1 - gap, 0.0)


def _refine_crossing(diff, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The sign change of diff between lo and hi (f_lo = diff(lo), f_hi =
    diff(hi)) to float resolution, since the curves can be near-vertical by
    the discontinuity: regula falsi with the Illinois halving, a secant that
    lands on an end trying the float next to it once and the midpoint where
    it lands there again or a value is not finite.  A NaN (inf - inf) counts
    as K above U, as in find_intersections' sign test; a zero is returned."""
    above_lo, kept, crept = not f_lo <= 0.0, 0, False  # kept: -1 lo, 1 hi
    while True:
        gap = f_hi - f_lo  # inf or NaN where a value is not finite
        x = hi - f_hi * (hi - lo) / gap if gap and math.isfinite(gap) else math.nan
        crept = not crept and (x <= lo or x >= hi)
        if crept:
            x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return x
        f = diff(x)
        if f == 0.0:
            return x
        if (not f <= 0.0) == above_lo:
            lo, f_lo, f_hi, kept = x, f, f_hi * (0.5 if kept == 1 else 1.0), 1
        else:
            hi, f_hi, f_lo, kept = x, f, f_lo * (0.5 if kept == -1 else 1.0), -1


def find_intersections(ctx: BoundContext, v, k, u) -> tuple[float, ...]:
    """The sign changes of K - U between the ascending nodes v, given K and U
    there, each refined by _refine_crossing; a NaN (inf - inf) counts as K
    above U.  A sign change is skipped where exp(-max(K, U, 0) - v) is 0 at
    both its nodes: max(K, U) is nonincreasing, so no integrand panel need
    break there (at high power, rounding flips K between about 1e6 and +inf
    where U = +inf)."""
    with np.errstate(invalid="ignore"):
        d = k - u
        above = ~(d <= 0.0)
        live = np.exp(-np.maximum(np.maximum(k, u), 0.0) - v) > 0.0
    k_of, u_of = _k_kernel(ctx), _u_kernel(ctx)

    def diff(x: float) -> float:
        return k_of(x) - u_of(x)

    flips = np.nonzero((above[:-1] != above[1:]) & (live[:-1] | live[1:]))[0]
    return tuple(_refine_crossing(diff, float(v[i]), float(v[i + 1]),
                                  float(d[i]), float(d[i + 1])) for i in flips)
