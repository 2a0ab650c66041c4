"""Deterministic allocation optimizers.

All searches are a dense coarse grid followed by coordinate-wise
golden-section refinement: the objectives are cheap, at most
four-dimensional, and may be non-smooth at branch boundaries of the closed
forms, so an auditable deterministic search beats stochastic methods here.
``miso-unequal`` with beta free has no grid of its own: the unequal split
contains the equal one (beta = alpha), so it refines the ``miso-equal``
optimum over all free parameters.
No randomness anywhere; rerunning returns bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import twolayer
from .model import PowerConfig, TwoLayerAllocation
from .outage import optimal_single_user_rate, y_sum_tail

__all__ = [
    "OptResult",
    "golden_section_max",
    "maximize_throughput",
    "oblivious_rate_plan",
    "miso_single_layer_rate",
    "horizontal_db_gain",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PARAM_ORDER = ("alpha", "beta", "eta1", "eta2")
# coarse grid points per free dimension, keyed by dimensionality;
# keeps the grid size near 64k evaluations in the worst case
_COARSE_BY_DIM = {1: 64, 2: 64, 3: 40, 4: 16}
_ETA_MAX = 4.0  # upper end of every eta search range
_TOL = 1e-6  # coordinate passes stop once no parameter moves by more
_MAX_PASSES = 40
_N_STARTS = 3  # coarse-grid points refined by maximize_throughput
# array-scored grid points within this of the third-best are rescored on the
# scalar kernel; it covers the last-ulp gaps between numpy's and math's
# exp/log1p in the direct and miso-equal grids
_SHORTLIST_RTOL = 1e-6


@dataclass(frozen=True)
class OptResult:
    params: dict
    value: float
    n_evals: int
    coarse_best: float  # best objective seen on the coarse grid


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] to interval width tol.

    Returns the best point probed anywhere, not just the final bracket, so a
    non-unimodal slice can never come back worse than something already seen.
    """
    if hi <= lo:
        return lo, f(lo)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = (x1, f1) if f1 >= f2 else (x2, f2)
    while hi - lo > tol:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
            if f1 > best[1]:
                best = (x1, f1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
            if f2 > best[1]:
                best = (x2, f2)
    return best


def _search_box(i: int, x: Sequence[float], beta_ge_alpha: bool = False
                ) -> tuple[float, float]:
    """Search range of position i of an (alpha, beta, eta1, eta2) point x:
    eta1 <= eta2 <= _ETA_MAX, and with ``beta_ge_alpha`` also alpha <= beta."""
    if i == 0:
        return 0.0, x[1] if beta_ge_alpha else 1.0
    if i == 1:
        return x[0] if beta_ge_alpha else 0.0, 1.0
    if i == 2:
        return 0.0, x[3]
    return x[2], _ETA_MAX


def _coordinate_ascent(value: Callable[[list[float]], float],
                       start: tuple[float, Sequence[float]], coords: Sequence[int],
                       bounds: Callable[[int, list[float]], tuple[float, float]],
                       max_passes: int = _MAX_PASSES) -> tuple[float, list[float]]:
    """Cyclic golden-section line searches over positions ``coords`` of a point,
    each over ``bounds(i, point)``, from ``start``, a (value, point) pair,
    accepting only strictly improving moves, until a pass moves no position by
    more than _TOL or ``max_passes`` passes ran.  One position stops after one
    pass, since ``bounds`` of a position does not read that position, so a
    second pass would repeat the same search.  Returns the final (value, point).
    """
    cur_val, cur = start[0], list(start[1])
    for _ in range(max_passes):
        moved = 0.0
        for i in coords:
            lo, hi = bounds(i, cur)

            def line(xv: float, _i=i) -> float:
                trial = cur.copy()
                trial[_i] = xv
                return value(trial)

            x_new, f_new = golden_section_max(line, lo, hi, tol=_TOL)
            if f_new > cur_val:
                moved = max(moved, abs(x_new - cur[i]))
                cur[i] = x_new
                cur_val = f_new
        if moved <= _TOL or len(coords) == 1:
            break
    return cur_val, cur


def maximize_throughput(scheme: str, free_params: Iterable[str],
                        fixed: Mapping[str, float], cfg: PowerConfig,
                        coarse_points: int | None = None) -> OptResult:
    """Maximize a two-layer scheme over a subset of {alpha, beta, eta1, eta2}.

    Coarse grid over the free box (feasible points only), then coordinate
    golden-section passes from the 3 best grid points (ties to the earlier
    one), accepting only improving moves, until no parameter shifts by more
    than 1e-6.  With one free parameter the search box does not depend on the
    start, so only the best grid point is refined, by one line search.
    Direct and miso-equal score the grid in one array call, then rescore with
    the bit-exact scalar kernel every point within 1e-6 (relative) of the
    third-best, because numpy's exp/log1p may differ from math's in the last
    ulp and grids hold near-ties; miso-unequal and simplex go point by point.
    ``n_evals`` counts each feasible grid point once, plus every refinement
    step, and ``coarse_best`` is the best grid value.  ``coarse_points`` must
    be at least 1.

    ``miso-unequal`` with beta and another parameter free has no grid: the
    ``miso-equal`` search over the other free parameters (at
    ``coarse_points``) gives the start, with beta = alpha, of one ascent
    over all of them (_unequal_from_equal).  ``n_evals`` counts both
    searches and ``coarse_best`` is the equal search's.
    """
    free = [p for p in _PARAM_ORDER if p in set(free_params)]
    if not free:
        raise ValueError("free_params must name at least one parameter")
    if any(p not in _PARAM_ORDER for p in free_params):
        raise ValueError(f"free_params must be among {_PARAM_ORDER}")
    if scheme not in twolayer.CLOSED_FORMS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "miso-unequal" and "beta" in free and len(free) > 1:
        equal = maximize_throughput("miso-equal", [p for p in free if p != "beta"],
                                    fixed, cfg, coarse_points)
        return _unequal_from_equal(equal, free, fixed, cfg)
    n_pts = _COARSE_BY_DIM[len(free)] if coarse_points is None else coarse_points
    if n_pts < 1:
        raise ValueError(f"coarse_points must be at least 1, got {n_pts}")
    form = twolayer.CLOSED_FORMS[scheme]
    rate = form.rate or (lambda a, b, e1, e2, *_: form(
        TwoLayerAllocation(alpha=a, eta1=e1, eta2=e2, beta=b), cfg).r_av)
    evals = 0

    # one (alpha, beta, eta1, eta2) point per grid row: a fixed value fills
    # its slot, an absent one is NaN, and a NaN beta means beta = alpha
    slots = [_PARAM_ORDER.index(name) for name in free]
    axes = [np.linspace(0.0, _ETA_MAX if name.startswith("eta") else 1.0, n_pts)
            if name in free else [float(fixed.get(name, math.nan))] for name in _PARAM_ORDER]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    alpha, beta, eta1, eta2 = points.T
    beta_is_alpha = (scheme not in ("miso-unequal", "simplex-unequal")
                     or math.isnan(beta[0]))
    beta_ge_alpha = scheme == "simplex-unequal" and not beta_is_alpha

    def score(x: Sequence[float]) -> float:
        alpha, beta, eta1, eta2 = x
        if beta_is_alpha:
            beta = alpha
        return rate(alpha, beta, eta1, eta2, cfg.p_s, cfg.p_r)

    def value(x: Sequence[float]) -> float:
        nonlocal evals
        evals += 1
        return score(x)

    if beta_is_alpha:
        beta = alpha
    feasible = ~(eta1 > eta2)
    if beta_ge_alpha:
        feasible &= ~(beta < alpha)
    rows = np.flatnonzero(feasible)
    if not rows.size:
        raise ValueError("empty feasible set on the coarse grid")
    # the search box keeps free values in the domain, so only fixed values,
    # the same in every row, can leave it; TwoLayerAllocation raises its ValueError
    a, b, e1, e2 = (float(v[rows[0]]) for v in (alpha, beta, eta1, eta2))
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= e1 <= e2 < math.inf):
        TwoLayerAllocation(alpha=a, eta1=e1, eta2=e2, beta=b)

    if form.grid is None:
        scored = [(value(x), x) for x in points[rows].tolist()]
    else:
        coarse = form.grid(alpha[rows], beta[rows], eta1[rows], eta2[rows], cfg.p_s, cfg.p_r)
        evals += rows.size
        third = np.sort(coarse)[-min(_N_STARTS, rows.size)]
        shortlist = rows[coarse >= third - _SHORTLIST_RTOL * abs(third)]
        scored = [(score(x), x) for x in points[shortlist].tolist()]
    scored.sort(key=lambda t: -t[0])
    coarse_best = scored[0][0]

    best_val, best = max(
        (_coordinate_ascent(value, start, slots,
                            lambda i, x: _search_box(i, x, beta_ge_alpha))
         for start in scored[:_N_STARTS if len(slots) > 1 else 1]),
        key=lambda t: t[0])
    params = {**fixed, **{name: best[i] for name, i in zip(free, slots)}}
    return OptResult(params=params, value=best_val, n_evals=evals, coarse_best=coarse_best)


def _unequal_from_equal(equal: OptResult, free: Sequence[str],
                        fixed: Mapping[str, float], cfg: PowerConfig) -> OptResult:
    """The miso-unequal optimum over ``free`` (beta among them), by one
    coordinate ascent from ``equal``, a miso-equal result over the other free
    parameters, with beta = alpha: the unequal split contains the equal one.
    ``n_evals`` adds the ascent's evaluations, the scored start included, to
    ``equal``'s, and ``coarse_best`` is ``equal``'s."""
    evals = 0
    rate = twolayer._miso_unequal_two_layer_rate

    def value(x: Sequence[float]) -> float:
        nonlocal evals
        evals += 1
        return rate(*x, cfg.p_s, cfg.p_r)

    p = equal.params
    start = [p["alpha"], p["alpha"], p["eta1"], p["eta2"]]
    slots = sorted(_PARAM_ORDER.index(name) for name in free)
    best_val, best = _coordinate_ascent(value, (value(start), start), slots, _search_box)
    params = {**fixed, **{_PARAM_ORDER[i]: best[i] for i in slots}}
    return OptResult(params=params, value=best_val, n_evals=equal.n_evals + evals,
                     coarse_best=equal.coarse_best)


def oblivious_rate_plan(p_s: float, n_layers: int = 2) -> TwoLayerAllocation:
    """The source's relay-unaware plan: maximize the direct throughput.

    One layer reduces to the optimal single-user rate; two layers run a
    64-per-dimension grid over the feasible (alpha, eta1 <= eta2) points and
    coordinate golden-section refinement from its 3 best points.
    """
    if p_s <= 0.0:
        raise ValueError("p_s must be positive")
    if n_layers == 1:
        eta = math.expm1(optimal_single_user_rate(p_s)) / p_s
        return TwoLayerAllocation(alpha=1.0, eta1=eta, eta2=eta)
    if n_layers != 2:
        raise ValueError("only 1 or 2 layers are supported here")

    n = 64
    alphas = np.linspace(0.0, 1.0, n)
    etas = np.linspace(0.0, _ETA_MAX, n)
    # the feasible triangle eta1 <= eta2 only, in (alpha, eta1, eta2) grid order
    j, k = np.triu_indices(n)
    e1, e2 = etas[j], etas[k]
    obj = twolayer._direct_grid(alphas[:, None], None, e1, e2, p_s, 0.0).ravel()
    # the 3 best points.  Exact ties occur below about -17.5 dB and above
    # about 71 dB, along the alpha = 0 and alpha = 1 rows, where one
    # threshold drops out of the objective; they go to the point with the
    # fewer grid steps between eta1 and eta2, then to the earlier grid point
    third = obj[np.argpartition(obj, -3)[-3:]].min()
    tied = np.flatnonzero(obj >= third)
    starts = tied[np.lexsort((tied, (k - j)[tied % len(j)], -obj[tied]))][:3]

    def value(x: Sequence[float]) -> float:  # beta, at x[1], is unused
        return twolayer._direct_two_layer_rate(x[0], x[2], x[3], p_s)

    refined = []
    for idx in starts:
        i, pair = divmod(int(idx), len(j))
        start = [float(alphas[i]), math.nan, float(e1[pair]), float(e2[pair])]
        refined.append(_coordinate_ascent(value, (value(start), start), (0, 2, 3),
                                          _search_box))
    best = max(refined, key=lambda t: t[0])[1]
    return TwoLayerAllocation(alpha=best[0], eta1=best[2], eta2=best[3])


def miso_single_layer_rate(p_s: float, p_r: float) -> float:
    """The rate R maximizing the single-layer MISO throughput R P(Y > e^R - 1)
    (outage.miso_single_layer_throughput): coarse scan plus golden refinement."""
    hi = math.log1p(10.0 * (p_s + p_r)) + 1.0
    grid = np.linspace(0.0, hi, 64)

    def throughput(r: float) -> float:
        return r * y_sum_tail(math.expm1(r), p_s, p_r)

    i = int(np.argmax([throughput(r) for r in grid]))
    return float(golden_section_max(throughput, grid[max(i - 1, 0)],
                                    grid[min(i + 1, len(grid) - 1)], tol=1e-7)[0])


def horizontal_db_gain(ps_db: Sequence[float], base_rates: Sequence[float],
                       better_rates: Sequence[float], at_ps_db: float) -> float:
    """dB-equivalent gain of one throughput curve over another.

    Reads the baseline throughput at ``at_ps_db`` and returns how many fewer
    dB of source power the better curve needs to match it (horizontal gap of
    the throughput-versus-dB plots).  Both curves must be increasing in P_s.
    """
    ps = np.asarray(ps_db, dtype=float)
    base = np.asarray(base_rates, dtype=float)
    better = np.asarray(better_rates, dtype=float)
    if np.any(np.diff(base) <= 0.0) or np.any(np.diff(better) <= 0.0):
        raise ValueError("throughput curves must be strictly increasing in P_s")
    level = float(np.interp(at_ps_db, ps, base))
    if level < better[0] or level > better[-1]:
        raise ValueError("baseline level outside the better curve's range; "
                         "extend the sweep grid")
    ps_needed = float(np.interp(level, better, ps))
    return at_ps_db - ps_needed
