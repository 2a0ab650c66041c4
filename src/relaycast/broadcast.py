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
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import PowerConfig
from .outage import _layer_tail_terms

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

# cumulative_rate's table: Gauss-Legendre panels x nodes
_TABLE_PANELS, _TABLE_NODES = 1024, 8


@dataclass(frozen=True)
class FadingDistribution:
    """Law of the decode-governing fading s = nu_s + ratio * nu_r, for
    independent unit-mean exponentials; ratio 0 is Rayleigh (s = nu_s).
    ``terms`` is its tail T(u) = P(s > u) with T' and T'' on arrays, the
    layered plans' outage._layer_tail_terms(1, ratio); ``cdf`` = 1 - T and
    ``pdf`` = -T'."""

    ratio: float
    label: str

    def terms(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _layer_tail_terms(1.0, self.ratio, np)(np.asarray(u, dtype=float))

    def cdf(self, u):
        return 1.0 - self.terms(u)[0]

    def pdf(self, u):
        return -self.terms(u)[1]


@dataclass(frozen=True)
class PowerDensity:
    """Residual interference profile I(u), matched to ``dist``, with its
    active range [u0, u1].

    I(u0) = total_power, I(u1) = 0 and I is nonincreasing in between; below
    u0 it is total_power and above u1 it is 0.  With the tail T of ``dist``,
    I = -(T + u T')/(u^2 T') on the range, and ``rho_of_u`` is the layering
    density -dI/du = -T (2T' + u T'')/(u^3 T'^2) there, 0 outside it.
    """

    dist: FadingDistribution
    u0: float
    u1: float
    total_power: float

    def profile(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, rho, T) at nodes u inside (u0, u1), from one tail evaluation."""
        t, t1, t2 = self.dist.terms(u)
        i = np.clip((t + u * t1) / (-u * u * t1), 0.0, self.total_power)
        return i, -t * (2.0 * t1 + u * t2) / (u ** 3 * t1 * t1), t

    def i_of_u(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(u <= self.u0, self.total_power,
                       np.where(u >= self.u1, 0.0, self.profile(u)[0]))
        return out if out.ndim else float(out)

    def rho_of_u(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where((u > self.u0) & (u < self.u1), self.profile(u)[1], 0.0)
        return out if out.ndim else float(out)


def rayleigh_distribution() -> FadingDistribution:
    """Unit-mean exponential fading power (Rayleigh amplitude)."""
    return FadingDistribution(0.0, "rayleigh")


def sum_fading_distribution(a: float) -> FadingDistribution:
    """Distribution of s = nu_s + a*nu_r for independent unit-mean exponentials:
    T(s) = (a e^{-s/a} - e^{-s})/(a - 1), and (1 + s) e^{-s} at a = 1."""
    if a <= 0.0:
        raise ValueError(f"power ratio must be positive, got {a!r}")
    return FadingDistribution(a, f"sum-fading(a={a:g})")


def _layering_boundary(tail, p: float, hi: float) -> float:
    """The root in (0, hi] of h = T + u T' + p u^2 T' for the tail T: u1 at
    p = 0 (I = 0) and u0 at p = P (I = P), I(u) = -(T + u T')/(u^2 T').  The
    slope (1 + p u)(2T' + u T'') is negative below u1, so h falls from 1 at
    u = 0 through one root, and h(hi) <= 0 (hi = 1 + ratio for u1, u1 for
    u0).  Newton steps from hi, each kept in the bracket that the signs seen
    so far leave (else bisecting it), until a step moves u by an ulp or two."""
    lo, u = 0.0, hi
    while True:
        t, t1, t2 = tail(u)
        v = t + u * t1 + p * u * u * t1
        if v == 0.0:
            return u
        lo, hi = (u, hi) if v > 0.0 else (lo, u)
        step = u - v / ((1.0 + p * u) * (2.0 * t1 + u * t2))
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - u) <= 4e-16 * step:
            return step
        u = step


def optimal_power_density(total_power: float, dist: FadingDistribution) -> PowerDensity:
    """Rate-optimal residual interference for the given fading distribution:
    the profile of :class:`PowerDensity` between the boundaries that
    :func:`_layering_boundary` solves for.  For Rayleigh, h(1) = 0 gives
    u1 = 1, and h = e^{-u}(1 - u - P u^2) has the closed-form root u0.
    """
    if total_power <= 0.0:
        raise ValueError("total_power must be positive")
    tail = _layer_tail_terms(1.0, dist.ratio)
    u1 = _layering_boundary(tail, 0.0, 1.0 + dist.ratio)
    u0 = (_layering_boundary(tail, total_power, u1) if dist.ratio
          else 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * total_power)))
    if not u0 < u1:  # u1 - u0 is about P u1, so below P ~ 1e-16 it rounds to 0
        raise ValueError(f"no layering range for {dist.label} at total power {total_power:g}")
    return PowerDensity(dist, u0, u1, total_power)


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
    ``panels`` panels of [u0, u1] with edges u0 + (u1 - u0) * {0, f, ..., 1},
    f = min(1e-6, u0/(u1 - u0)), geometric in between.

    The edges are geometric toward u0, where a high-power integrand is
    steepest; uniform panels are off by up to 2.3e-2 relative (miso, 80 dB,
    P_r/P_s = 1000).  Where u1/u0 exceeds about 1e6 the first panel shrinks
    with u0, so it never spans the decades of u just above u0 (a fixed 1e-6
    is off by 1.8e-2 at u1/u0 = 1e10).
    """
    u0, u1 = density.u0, density.u1
    fractions = np.concatenate(([0.0], np.geomspace(min(1e-6, u0 / (u1 - u0)), 1.0, panels)))
    edges = u0 + (u1 - u0) * fractions
    return (edges, *_panel_rule(edges, nodes))


def cumulative_rate(density: PowerDensity) -> tuple[np.ndarray, np.ndarray]:
    """Table (u, R(u)) of the rate R(u) = int_{u0}^u v rho(v) / (1 + v I(v)) dv
    of the layers decodable at fading level u, at the edges of
    :func:`_geometric_panels`' 1024 panels, each summed by 8-node Gauss-Legendre."""
    edges, u, w = _geometric_panels(density, _TABLE_PANELS, _TABLE_NODES)
    i, rho, _ = density.profile(u)
    panels = (w * u * rho / (1.0 + u * i)).reshape(_TABLE_PANELS, _TABLE_NODES).sum(axis=1)
    return edges, np.concatenate(([0.0], np.cumsum(panels)))


def broadcast_rate(density: PowerDensity, dist: FadingDistribution) -> float:
    """Average decoded rate int_{u0}^{u1} T(u) u rho(u) / (1 + u I(u)) du, T the
    tail of ``dist``.

    Fixed rule: :func:`_geometric_panels` with 8 panels of 64 nodes, every
    node in one tail evaluation of the density (and one of ``dist`` where
    the density is matched to another law, as the relay bound's is).
    """
    _, u, w = _geometric_panels(density, 8, 64)
    i, rho, t = density.profile(u)
    if dist.ratio != density.dist.ratio:
        t = dist.terms(u)[0]
    return float(np.sum(w * t * u * rho / (1.0 + u * i)))


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
