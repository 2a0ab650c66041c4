"""Threshold machinery for the simplex relay closed forms.

With the relay joining after the block fraction x, layer decodability at the
destination reduces to nu_r exceeding a threshold curve in nu_s.  This module
provides those curves for the allocation in a BoundContext: the auxiliary
factor t, the layer-1 threshold K (the F family when beta = alpha), the
layer-2 threshold U, the point below which layer 1 is undecodable for any
nu_r, and the scanner that cuts [v_lo, eta1] at the crossings of K and U,
where :mod:`relaycast.twolayer`'s fixed Gauss-Legendre rule breaks its panels.
The relay's residual fraction beta_bar comes from the context's allocation.

For the derivation of t and the thresholds from the phase-wise mutual
information balance see docs/conformance.md.
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
    "find_intersections",
]

_EXP_OVERFLOW = 700.0
_N_SCAN = 10_000  # sign-scan intervals of find_intersections


@dataclass(frozen=True)
class BoundContext:
    """Frozen inputs of the threshold curves.

    ``x`` is the effective relay decoding time used in all bounds (the
    layer-2 time, which already dominates the layer-1 time by construction);
    x = 1 is the no-relay degenerate case and is rejected here because the
    callers route it to direct transmission.
    """

    alloc: TwoLayerAllocation
    cfg: PowerConfig
    x: float
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"x must lie in [0, 1), got {self.x!r}")

    @classmethod
    def from_config(cls, alloc: TwoLayerAllocation, cfg: PowerConfig) -> "BoundContext":
        r1, r2 = layer_rates(alloc, cfg.p_s)
        x = decoding_times(alloc, cfg).eps2
        return cls(alloc=alloc, cfg=cfg, x=x, r1=r1, r2=r2)

    @property
    def eta1(self) -> float:
        return self.alloc.eta1

    @property
    def eta2(self) -> float:
        return self.alloc.eta2


def _log_g(v_s, alloc: TwoLayerAllocation, p_s: float):
    """log of G = (1 + S) / (1 + alpha_bar*S), the solo layer-1 SINR term."""
    s = np.asarray(v_s, dtype=float) * p_s
    return np.log1p(s) - np.log1p(alloc.alpha_bar * s)


def _t_values(v_s, ctx: BoundContext):
    """t = exp((r1 - x*log G)/(1 - x)); the layer-1 balance solved for the
    combined-phase SINR.  Monotone decreasing in v_s, equal to e^{r1} at eta1."""
    log_t = (ctx.r1 - ctx.x * _log_g(v_s, ctx.alloc, ctx.cfg.p_s)) / (1.0 - ctx.x)
    with np.errstate(over="ignore"):
        return np.where(log_t > _EXP_OVERFLOW, np.inf, np.exp(log_t))


def _divide(numer: float, denom: float) -> float:
    """numer / denom with numpy's result (+-inf or nan) for a zero denom."""
    try:
        return numer / denom
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(numer) / denom)


def t_factor(v_s: float, ctx: BoundContext) -> float:
    """t at one point, bit for bit as _t_values gives it.

    The scalar kernels (t_factor, relay_threshold_bound, u_bound) repeat
    their array kernel's operations on Python floats and call numpy's
    log1p/exp/log, which agree with numpy's array path; math.exp differs
    from it in the last bit on a few percent of inputs.
    """
    s = v_s * ctx.cfg.p_s
    log_g = float(np.log1p(s)) - float(np.log1p(ctx.alloc.alpha_bar * s))
    log_t = (ctx.r1 - ctx.x * log_g) / (1.0 - ctx.x)
    return math.inf if log_t > _EXP_OVERFLOW else float(np.exp(log_t))


def _k_values(v_s, ctx: BoundContext):
    """Layer-1 threshold on nu_r (K family; equals F when beta = alpha).

    nu_r >= (-S (1 - t*alpha_bar) - (1 - t)) / ((1 - t*beta_bar) P_r),
    valid where 1 - t*beta_bar > 0.  Returns +inf where the denominator is
    nonpositive (the pre-discontinuity region: undecodable for any nu_r).
    """
    t = _t_values(v_s, ctx)
    s = np.asarray(v_s, dtype=float) * ctx.cfg.p_s
    ab = ctx.alloc.alpha_bar
    bb = ctx.alloc.beta_bar
    denom = 1.0 - t * bb
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        val = (-s * (1.0 - t * ab) - (1.0 - t)) / (denom * ctx.cfg.p_r)
    return np.where(denom > 0.0, val, np.inf)


def relay_threshold_bound(v_s: float, ctx: BoundContext) -> float:
    """K at one point, bit for bit as _k_values gives it: +inf before the
    layer-1 discontinuity, where no nu_r decodes layer 1."""
    t = t_factor(v_s, ctx)
    denom = 1.0 - t * ctx.alloc.beta_bar
    if not denom > 0.0:
        return math.inf
    s = v_s * ctx.cfg.p_s
    return _divide(-s * (1.0 - t * ctx.alloc.alpha_bar) - (1.0 - t), denom * ctx.cfg.p_r)


def _u_values(v_s, ctx: BoundContext):
    """Layer-2 threshold U = Z ((Z e^{-r2})^{1/(x-1)} - 1) / (beta_bar * P_r),
    with Z = 1 + v_s*alpha_bar*P_s.  Zero at eta2, negative beyond."""
    z = 1.0 + np.asarray(v_s, dtype=float) * ctx.alloc.alpha_bar * ctx.cfg.p_s
    log_pow = (np.log(z) - ctx.r2) / (ctx.x - 1.0)
    with np.errstate(over="ignore"):  # overflow gives inf, as in the scalar u_bound
        powed = np.where(log_pow > _EXP_OVERFLOW, np.inf, np.exp(log_pow))
        numer = z * (powed - 1.0)
        bb = ctx.alloc.beta_bar
        if bb > 0.0:
            return numer / (bb * ctx.cfg.p_r)
    # all relay power on layer 1: the relay cannot help layer 2 at all
    return np.where(numer > 0.0, np.inf, np.where(numer < 0.0, -np.inf, 0.0))


def u_bound(v_s: float, ctx: BoundContext) -> float:
    """U at one point, bit for bit as _u_values gives it."""
    z = 1.0 + v_s * ctx.alloc.alpha_bar * ctx.cfg.p_s
    log_pow = (float(np.log(z)) - ctx.r2) / (ctx.x - 1.0)
    powed = math.inf if log_pow > _EXP_OVERFLOW else float(np.exp(log_pow))
    numer = z * (powed - 1.0)
    bb = ctx.alloc.beta_bar
    if bb > 0.0:
        return _divide(numer, bb * ctx.cfg.p_r)
    return math.inf if numer > 0.0 else -math.inf if numer < 0.0 else 0.0


def discontinuity_point(ctx: BoundContext) -> float:
    """The nu_s below which layer 1 is undecodable regardless of nu_r.

    Solves t(v) = 1/beta_bar, where K's denominator 1 - t*beta_bar changes
    sign (with beta = alpha this is the F family's point); returns 0 when
    t(0) = e^{r1/(1-x)} never reaches 1/beta_bar.  With t monotone in v the
    root has the closed form G(v) = chi,
    log chi = (r1 + (1-x) log(beta_bar)) / x.
    """
    bb = ctx.alloc.beta_bar
    if bb <= 0.0:
        return 0.0
    # existence: r1/(1-x) > -log(beta_bar)
    if ctx.r1 <= -(1.0 - ctx.x) * math.log(bb):
        return 0.0
    if t_factor(ctx.eta1, ctx) >= 1.0 / bb:  # cannot happen for beta >= alpha
        return ctx.eta1
    if ctx.x == 0.0:  # t is constant: only rounding at t = 1/beta_bar gets here
        return 0.0
    chi = math.exp((ctx.r1 + (1.0 - ctx.x) * math.log(bb)) / ctx.x)
    # the t(eta1) check above puts the root below eta1; at high P_s the closed form
    # cancels and can round past it
    root = (chi - 1.0) / (ctx.cfg.p_s * (1.0 - ctx.alloc.alpha_bar * chi))
    return min(root, ctx.eta1)


def _bisect_crossing(diff, lo: float, hi: float) -> float:
    # refine to 1e-12 and then on to float resolution: the curves can be
    # near-vertical close to the discontinuity, where a fixed-width bracket
    # would leave a visible residual.  A NaN (inf - inf) counts as K above U,
    # as in find_intersections' scan.
    above_lo = not diff(lo) <= 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid
        if (not f_mid <= 0.0) == above_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_intersections(ctx: BoundContext) -> tuple[float, ...]:
    """Cut [v_lo, eta1] at the crossings of the layer-1 and layer-2 thresholds.

    Returns (v_lo, *crossings, eta1), v_lo = discontinuity_point(ctx): a sign
    scan of K - U on _N_SCAN intervals, then a bisection of each sign change.
    A NaN (inf - inf) counts as K above U in both.
    """
    v_lo = discontinuity_point(ctx)

    def diff_scalar(v: float) -> float:
        return relay_threshold_bound(v, ctx) - u_bound(v, ctx)

    span = ctx.eta1 - v_lo
    grid = np.linspace(v_lo, ctx.eta1, _N_SCAN + 1)
    grid[0] += 1e-9 * span   # dodge the pole at v_lo
    grid[-1] -= 1e-12 * span
    with np.errstate(invalid="ignore"):
        signs = ~(_k_values(grid, ctx) - _u_values(grid, ctx) <= 0.0)
    crossings = (_bisect_crossing(diff_scalar, float(grid[i]), float(grid[i + 1]))
                 for i in np.nonzero(signs[:-1] != signs[1:])[0])
    return (v_lo, *crossings, ctx.eta1)
