"""Continuous (infinite-layer) broadcasting rates.

The transmitter spreads its power over a continuum of code layers indexed by
the fading level u; I(u) is the power left to layers above u and
rho(u) = -dI/du the layering density.  This module builds the optimal I for
a given fading distribution, evaluates the resulting average rate, and forms
the two relay-channel lower bounds in which the relay layers its power
proportionally to the source (I_r = (P_r/P_s) I_s), so decodability is
governed by the combined fading s = nu_s + (P_r/P_s) nu_r.

With the proportional relay density the received signal and interference of
every layer scale by the same factor s, so the rate functional keeps its
single-user form with the source density I_s in the denominator and only the
fading distribution replaced by that of s (see docs/conformance.md).

:func:`continuous_layering` alone picks the density and distribution of the
``siso``, ``relay`` and ``miso`` schemes, for the bounds, the Monte-Carlo
``layered-continuous`` strategy and the figure presets alike.

:func:`broadcast_rate` integrates by a fixed rule, 64-node Gauss-Legendre on
8 panels crowded geometrically toward u0, in one array call.  The one table of
the cumulative rate, :func:`cumulative_rate` (8 nodes on 1024 such panels),
quantizes the 8-layer plans and credits the Monte-Carlo ``layered-continuous``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy import optimize

from .model import PowerConfig

__all__ = [
    "FadingDistribution",
    "PowerDensity",
    "rayleigh_distribution",
    "sum_fading_distribution",
    "optimal_power_density",
    "continuous_layering",
    "cumulative_rate",
    "broadcast_rate",
    "siso_broadcast_rate",
    "relay_or_miso_broadcast_bound",
]

_BRACKET_LO = 1e-8
_BRACKET_HI = 1e9
_SUM_FADING_EQUAL_ATOL = 1e-6
# cumulative_rate's table: Gauss-Legendre panels x nodes
_TABLE_PANELS, _TABLE_NODES = 1024, 8


@dataclass(frozen=True)
class FadingDistribution:
    """CDF/PDF pair of the decode-governing fading variable.

    All callables accept scalars or numpy arrays; ``pdf_prime`` is the
    derivative of ``pdf``, which the closed-form layering density reads.
    """

    cdf: Callable
    pdf: Callable
    label: str
    pdf_prime: Callable


@dataclass(frozen=True)
class PowerDensity:
    """Residual interference profile I(u) with its active range [u0, u1].

    I(u0) = total_power, I(u1) = 0 and I is nonincreasing in between.
    ``rho_of_u`` is the layering density -dI/du in closed form.
    """

    i_of_u: Callable
    u0: float
    u1: float
    total_power: float
    rho_of_u: Callable


def rayleigh_distribution() -> FadingDistribution:
    """Unit-mean exponential fading power (Rayleigh amplitude)."""
    return FadingDistribution(
        cdf=lambda s: -np.expm1(-np.asarray(s, dtype=float)),
        pdf=lambda s: np.exp(-np.asarray(s, dtype=float)),
        pdf_prime=lambda s: -np.exp(-np.asarray(s, dtype=float)),
        label="rayleigh",
    )


def sum_fading_distribution(a: float) -> FadingDistribution:
    """Distribution of s = nu_s + a*nu_r for independent unit-mean exponentials.

    a != 1:  f(s) = e^{-s/a}/(a-1) + e^{-s}/(1-a),
             F(s) = 1 + e^{-s}/(a-1) + a e^{-s/a}/(1-a)
    a  = 1:  f(s) = s e^{-s},  F(s) = 1 - e^{-s} - s e^{-s}
    Ratios within 1e-6 of unity are routed to the a = 1 branch.
    """
    if a <= 0.0:
        raise ValueError(f"power ratio must be positive, got {a!r}")
    if abs(a - 1.0) < _SUM_FADING_EQUAL_ATOL:
        return FadingDistribution(
            cdf=lambda s: np.where(np.asarray(s) <= 0, 0.0,
                                   -np.expm1(-np.asarray(s, dtype=float))
                                   - np.asarray(s, dtype=float) * np.exp(-np.asarray(s, dtype=float))),
            pdf=lambda s: np.asarray(s, dtype=float) * np.exp(-np.asarray(s, dtype=float)),
            pdf_prime=lambda s: (1.0 - np.asarray(s, dtype=float)) * np.exp(-np.asarray(s, dtype=float)),
            label="sum-fading(a=1)",
        )

    def pdf(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-s / a) / (a - 1.0) + np.exp(-s) / (1.0 - a)

    def cdf(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0, 0.0,
                        1.0 + np.exp(-s) / (a - 1.0) + a * np.exp(-s / a) / (1.0 - a))

    def pdf_prime(s):
        s = np.asarray(s, dtype=float)
        return -np.exp(-s / a) / (a * (a - 1.0)) - np.exp(-s) / (1.0 - a)

    return FadingDistribution(cdf=cdf, pdf=pdf, pdf_prime=pdf_prime,
                              label=f"sum-fading(a={a:g})")


def optimal_power_density(total_power: float, dist: FadingDistribution) -> PowerDensity:
    """Rate-optimal residual interference for the given fading distribution.

    On the active range the unclipped profile is
    I(u) = (1 - F(u) - u f(u)) / (u^2 f(u)); u1 solves I(u1) = 0 and u0
    solves I(u0) = total_power, both by bracketing root search.  Outside the
    range I is clipped to total_power (below u0) and 0 (above u1).
    """
    if total_power <= 0.0:
        raise ValueError("total_power must be positive")
    cdf, pdf = dist.cdf, dist.pdf

    def survival_excess(u):  # numerator 1 - F - u f, root gives u1
        return float(1.0 - cdf(u) - u * pdf(u))

    def i_raw(u):
        return float((1.0 - cdf(u) - u * pdf(u)) / (u * u * pdf(u)))

    hi = 1.0
    while survival_excess(hi) > 0.0 and hi < _BRACKET_HI:
        hi *= 2.0
    if survival_excess(hi) > 0.0:
        warnings.warn(f"upper layering boundary beyond {_BRACKET_HI:g}; clamped")
        u1 = _BRACKET_HI
    else:
        u1 = optimize.brentq(survival_excess, min(hi / 2.0, _BRACKET_LO), hi,
                             xtol=1e-14, rtol=8.9e-16)

    lo = u1 / 2.0
    while i_raw(lo) < total_power and lo > _BRACKET_LO:
        lo /= 2.0
    if i_raw(lo) < total_power:
        warnings.warn(f"lower layering boundary below {_BRACKET_LO:g}; clamped")
        u0 = _BRACKET_LO
    elif i_raw(u1) >= total_power:
        raise ValueError(f"no layering range for {dist.label}: I(u) is still at or "
                         f"above the total power {total_power:g} at the clamped upper "
                         f"layering boundary u1 = {u1:g}")
    else:
        u0 = optimize.brentq(lambda u: i_raw(u) - total_power, lo, u1,
                             xtol=1e-14, rtol=8.9e-16)
    if not u0 < u1:
        raise ValueError(f"unsupported distribution shape: no layering range "
                         f"found for {dist.label}")

    def i_of_u(u):
        u_arr = np.asarray(u, dtype=float)
        mid = (1.0 - cdf(u_arr) - u_arr * pdf(u_arr)) / (u_arr * u_arr * pdf(u_arr))
        out = np.where(u_arr <= u0, total_power,
                       np.where(u_arr >= u1, 0.0, np.clip(mid, 0.0, total_power)))
        return out if out.ndim else float(out)

    def rho_of_u(u):
        # -d/du of the unclipped profile: (1-F)(2f + u f') / (u^3 f^2)
        u_arr = np.asarray(u, dtype=float)
        f = pdf(u_arr)
        val = (1.0 - cdf(u_arr)) * (2.0 * f + u_arr * dist.pdf_prime(u_arr)) / (u_arr ** 3 * f * f)
        out = np.where((u_arr > u0) & (u_arr < u1), val, 0.0)
        return out if out.ndim else float(out)

    return PowerDensity(i_of_u=i_of_u, u0=u0, u1=u1, total_power=total_power,
                        rho_of_u=rho_of_u)


def continuous_layering(cfg: PowerConfig, mode: Literal["siso", "relay", "miso"]
                        ) -> tuple[PowerDensity, FadingDistribution, float]:
    """(density, decode-governing fading distribution, P_r/P_s) of a scheme.

    ``siso``: the Rayleigh-matched density and distribution.  ``relay``: the
    source keeps that density, unaware of the relay, and decoding follows
    s = nu_s + (P_r/P_s) nu_r.  ``miso``: the density is matched to s.  A
    ratio below 1e-12 falls back to ``siso`` and is returned as 0.
    """
    if mode not in ("siso", "relay", "miso"):
        raise ValueError(f"mode must be 'siso', 'relay' or 'miso', got {mode!r}")
    if cfg.p_s <= 0.0:
        raise ValueError("p_s must be positive")
    a = cfg.p_r / cfg.p_s
    rayleigh = rayleigh_distribution()
    if mode == "siso" or a < 1e-12:
        return optimal_power_density(cfg.p_s, rayleigh), rayleigh, 0.0
    dist = sum_fading_distribution(a)
    return optimal_power_density(cfg.p_s, rayleigh if mode == "relay" else dist), dist, a


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], n even: Newton's method on the three-term Legendre recurrence
    from the Tricomi estimates of the positive roots, mirrored."""
    x = np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 2e-16:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


def _panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the n-point Gauss-Legendre rule on each panel
    of the sorted ``edges``: sum(w * f(nodes)) integrates f over the span."""
    x, w = _gauss_legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
    return nodes.ravel(), (half * w).ravel()


def _ladder(cuts) -> np.ndarray:
    """Sorted panel edges from cuts[0] to cuts[-1] that halve toward both ends,
    down to 2^-40 of the span, and break at every cut in between."""
    lo, hi = cuts[0], cuts[-1]
    steps = (hi - lo) * 0.5 ** np.arange(40, 0, -1)
    return np.sort(np.concatenate(([lo], lo + steps, hi - steps[-2::-1], [hi], cuts[1:-1])))


def _geometric_panels(density: PowerDensity, panels: int, nodes: int):
    """(edges, nodes, weights) of ``nodes``-point Gauss-Legendre on each of
    ``panels`` panels of [u0, u1] with edges u0 + (u1 - u0) * {0, 1e-6, ..., 1}.

    The edges are geometric toward u0, where a high-power integrand is
    steepest; uniform panels are off by up to 2.3e-2 relative (miso, 80 dB,
    P_r/P_s = 1000).
    """
    fractions = np.concatenate(([0.0], np.geomspace(1e-6, 1.0, panels)))
    edges = density.u0 + (density.u1 - density.u0) * fractions
    return (edges, *_panel_rule(edges, nodes))


def cumulative_rate(density: PowerDensity) -> tuple[np.ndarray, np.ndarray]:
    """Table (u, R(u)) of the rate R(u) = int_{u0}^u v rho(v) / (1 + v I(v)) dv
    of the layers decodable at fading level u, at the edges of
    :func:`_geometric_panels`' 1024 panels, each summed by 8-node Gauss-Legendre."""
    edges, u, w = _geometric_panels(density, _TABLE_PANELS, _TABLE_NODES)
    g = w * u * density.rho_of_u(u) / (1.0 + u * density.i_of_u(u))
    panels = g.reshape(_TABLE_PANELS, _TABLE_NODES).sum(axis=1)
    return edges, np.concatenate(([0.0], np.cumsum(panels)))


def broadcast_rate(density: PowerDensity, dist: FadingDistribution) -> float:
    """Average decoded rate int_{u0}^{u1} (1 - F(u)) u rho(u) / (1 + u I(u)) du.

    Fixed rule: :func:`_geometric_panels` with 8 panels of 64 nodes, every
    node in one call of the density's and the distribution's array callables.
    """
    _, u, w = _geometric_panels(density, 8, 64)
    rho = density.rho_of_u(u)
    integrand = (1.0 - dist.cdf(u)) * u * rho / (1.0 + u * density.i_of_u(u))
    return float(np.sum(w * integrand))


def siso_broadcast_rate(p_s: float) -> float:
    """Continuous broadcasting rate of the plain Rayleigh point-to-point channel."""
    return broadcast_rate(*continuous_layering(PowerConfig(p_s=p_s, p_r=0.0, q=1.0),
                                               "siso")[:2])


def relay_or_miso_broadcast_bound(cfg: PowerConfig,
                                  mode: Literal["relay", "miso"]) -> float:
    """Continuous-broadcasting lower bounds with a proportionally layered relay.

    The density and distribution of ``mode`` come from
    :func:`continuous_layering`.  Both bounds assume the relay already knows
    the message (informed operation, negligible relay decoding time).
    """
    return broadcast_rate(*continuous_layering(cfg, mode)[:2])
