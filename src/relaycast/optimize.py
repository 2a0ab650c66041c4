"""Deterministic allocation optimizers.

Every two-layer search, the source's oblivious plan included, is one coarse
grid over the eta1 <= eta2 triangle (maximize_throughput) followed by
coordinate-wise Brent line searches to a 1e-7 bracket (_coordinate_ascent,
golden_section_max): the objectives are cheap, at most four-dimensional,
and may be non-smooth at branch boundaries of the closed forms, so an
auditable deterministic search beats stochastic methods here.  A
coordinate's first line search spans its whole box, later ones a bracket
sized by its last move; a search ends on a whole-box pass that moves nothing
by more than _TOL = 1e-6.
``miso-unequal`` with beta free has no grid of its own: the unequal split
contains the equal one (beta = alpha), so it refines the ``miso-equal``
optimum over all free parameters.
The ``direct`` and ``miso-equal`` kernels are twolayer._tail_kernels of
their layer tails, e^{-eta} and P(Y > eta*P_s).  A ``miso-equal`` search
computes each tail once: a line search moves at most one threshold and the
alpha lines none, so the grid, the rescoring and the refinement read one
cache, made when the search starts and dropped when it returns (the form's
``tail``, with the kernels rebuilt on the cache).  ``direct`` has no
``tail``: its math.exp costs less than a cache lookup.  Each search logs one
DEBUG line with its evaluations, where it caches tails its tail
computations, and per ascent the passes run, then the line searches, the
brackets widened and the ascents that ran all their passes (capped).
No randomness anywhere; rerunning returns bit-identical output.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import twolayer
from .model import PowerConfig, TwoLayerAllocation
from .outage import y_sum_tail

__all__ = [
    "OptResult",
    "golden_section_max",
    "maximize_throughput",
    "oblivious_rate_plan",
    "miso_single_layer_rate",
    "horizontal_db_gain",
]

log = logging.getLogger(__name__)

_GOLD = (3.0 - math.sqrt(5.0)) / 2.0  # a golden step, as a share of the bracket side
_PARAM_ORDER = ("alpha", "beta", "eta1", "eta2")
# coarse grid points per free dimension, keyed by dimensionality;
# keeps the grid size near 64k evaluations in the worst case
_COARSE_BY_DIM = {1: 64, 2: 64, 3: 40, 4: 16}
_ETA_MAX = 4.0  # upper end of every eta search range
_TOL = 1e-6  # coordinate passes stop once no parameter moves by more
_LINE_TOL = 1e-7  # bracket width each of _coordinate_ascent's line searches ends at
_MAX_PASSES = 40
_BRACKET_MIN = 10 * _TOL  # least half-width of a later line search's bracket
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
    """Safeguarded Brent maximization of f on [lo, hi] to bracket width tol.

    Each step tries the vertex of the parabola through the three best probes
    and takes a golden-section step into the larger side of the bracket
    when the vertex falls outside it or does not shrink it fast enough; a
    probe lies at least tol/4 from the best one, and the search ends once
    the bracket around the best probe is at most tol wide.  Returns the best
    point probed anywhere, so a non-unimodal slice can never come back worse
    than something already seen; a NaN probe counts as -inf, so it is never
    the result while another probe is a number.  A zero-width interval
    returns (lo, f(lo)).  The name is kept from the golden-section search
    this replaced: the golden step is still its fallback, and the
    benchmark's tracer (perfbench/tracer.py) counts line searches by it.
    """
    if hi <= lo:
        return lo, f(lo)
    a, b = lo, hi
    x = w = v = a + _GOLD * (b - a)
    fx = f(x)
    fx = fw = fv = fx if fx == fx else -math.inf
    d = e = 0.0  # the last step, and the one before it
    step = tol / 4.0  # least distance of a probe from the best one
    done = tol / 2.0  # the search ends with both bracket ends this close to x
    while x - a > done or b - x > done:
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > step:  # the parabola's vertex, if it is in the bracket
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if x + d - a < done or b - x - d < done:
                    d = step if x < m else -step
                golden = False
        if golden:
            e = (b if x < m else a) - x
            d = _GOLD * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = f(u)
        fu = fu if fu == fu else -math.inf
        if fu >= fx:  # u is the new best probe, x a bracket end
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


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
                       max_passes: int = _MAX_PASSES
                       ) -> tuple[float, list[float], int, int]:
    """Cyclic line searches (golden_section_max to a _LINE_TOL bracket) over
    positions ``coords`` of a point, from ``start``, a (value, point) pair,
    accepting only strictly improving moves, until a pass whose searches span
    their whole boxes moves no position by more than _TOL, or ``max_passes``
    passes ran.  One position stops after one pass, since ``bounds`` of a
    position does not read that position, so a second pass would repeat the
    same search.  Line searches end ten times finer than _TOL: at 1e-6 the
    oblivious plan fell by up to 2.1e-5 at 79 dB, where 1 - alpha < 1e-6.

    A whole-box pass searches each position over ``bounds(i, point)``; the
    first pass is one, and so is the pass after any other pass that moved no
    position by more than _TOL.  In the other passes a line search spans a
    bracket around the position, clipped to its box, of half-width twice the
    position's last move (0 after a search that found no strict gain),
    floored at _BRACKET_MIN; while the best probe lies within _TOL of a
    bracket edge that is not a box edge, the half-width grows 8-fold and the
    search runs again.  Returns the final (value, point), the passes run and
    the brackets widened.
    """
    cur_val, cur = start[0], list(start[1])
    half = dict.fromkeys(coords, math.inf)  # bracket half-width per position
    widened = 0
    for passes in range(1, max_passes + 1):
        moved, whole = 0.0, math.inf in half.values()  # all inf or none
        for i in coords:
            box_lo, box_hi = bounds(i, cur)

            def line(xv: float, _i=i) -> float:
                trial = cur.copy()
                trial[_i] = xv
                return value(trial)

            while True:
                lo, hi = max(box_lo, cur[i] - half[i]), min(box_hi, cur[i] + half[i])
                x_new, f_new = golden_section_max(line, lo, hi, tol=_LINE_TOL)
                if not ((lo > box_lo and x_new - lo <= _TOL)
                        or (hi < box_hi and hi - x_new <= _TOL)):
                    break
                half[i] *= 8.0
                widened += 1
            step = 0.0
            if f_new > cur_val:
                step = abs(x_new - cur[i])
                cur[i] = x_new
                cur_val = f_new
            moved = max(moved, step)
            half[i] = max(2.0 * step, _BRACKET_MIN)
        if (moved <= _TOL and whole) or len(coords) == 1:
            break
        if moved <= _TOL:  # confirmed, or not, by a whole-box pass
            half = dict.fromkeys(coords, math.inf)
    return cur_val, cur, passes, widened


def _ascent_stats(runs: Sequence[tuple], n_coords: int,
                  max_passes: int = _MAX_PASSES) -> str:
    """The DEBUG fields of _coordinate_ascent results ``runs`` over
    ``n_coords`` positions: the passes of each, the line searches in all
    (one per position and pass, plus one per widened bracket), the brackets
    widened in all, and how many ran all ``max_passes``."""
    passes, widened = [r[2] for r in runs], sum(r[3] for r in runs)
    return (f"passes={','.join(map(str, passes))} "
            f"lines={n_coords * sum(passes) + widened} widened={widened} "
            f"capped={passes.count(max_passes)}")


def maximize_throughput(scheme: str, free_params: Iterable[str],
                        fixed: Mapping[str, float], cfg: PowerConfig,
                        coarse_points: int | None = None) -> OptResult:
    """Maximize a two-layer scheme over a subset of {alpha, beta, eta1, eta2}.

    The coarse grid is the (alpha, beta) rows (beta >= alpha for
    simplex-unequal) against the eta1 <= eta2 pairs of the free box.
    Coordinate line-search passes run from its 3 best points, accepting
    only improving moves, until a pass over the whole boxes shifts no
    parameter by more than 1e-6 (the passes between search brackets around
    each parameter's last move; see _coordinate_ascent); with one free
    parameter the search box does not depend on the start, so only the best
    point is refined, by one line search over its box.  Exact ties go to the
    point with fewer grid steps between eta1 and eta2 when both are free,
    then to the earlier one.
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
    p_s, p_r = cfg.p_s, cfg.p_r
    rate, grid, tail = form.rate, form.grid, None
    if form.tail is not None:
        # each threshold's tail is computed once in this search; a line
        # search moves at most one threshold, and the alpha lines none
        tail = functools.cache(form.tail)
        rate, grid = twolayer._tail_kernels(tail)
    rate = rate or (lambda a, b, e1, e2, *_: form(
        TwoLayerAllocation(alpha=a, eta1=e1, eta2=e2, beta=b), cfg).r_av)
    slots = [_PARAM_ORDER.index(name) for name in free]
    evals = 0

    # each axis holds a free parameter's grid or its fixed value (NaN if
    # absent; a NaN beta means beta = alpha).  The grid is the (alpha, beta)
    # rows against the feasible (eta1, eta2) pairs, in 4-D meshgrid order
    axes = [np.linspace(0.0, _ETA_MAX if name.startswith("eta") else 1.0, n_pts)
            if name in free else np.array([float(fixed.get(name, math.nan))])
            for name in _PARAM_ORDER]
    beta_is_alpha = (scheme not in ("miso-unequal", "simplex-unequal")
                     or math.isnan(axes[1][0]))
    beta_ge_alpha = scheme == "simplex-unequal" and not beta_is_alpha
    # the search box keeps free values in the domain, so only fixed values can
    # leave it, and TwoLayerAllocation raises its ValueError before any grid.
    # A free value is checked at its range's start, 0, and a free eta2 at
    # eta1, so a fixed eta1 past _ETA_MAX leaves the grid empty
    a, b, e1, e2 = (float(axis[0]) for axis in axes)
    b = a if beta_is_alpha else b
    e2 = e1 if "eta2" in free else e2
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= e1 <= e2 < math.inf):
        TwoLayerAllocation(alpha=a, eta1=e1, eta2=e2, beta=b)
    alpha, beta = (m.ravel() for m in np.meshgrid(axes[0], axes[1], indexing="ij"))
    if beta_ge_alpha:
        keep = ~(beta < alpha)
        alpha, beta = alpha[keep], beta[keep]
    j, k = np.nonzero(~(axes[2][:, None] > axes[3]))  # indices into the eta axes
    if not (alpha.size and j.size):
        raise ValueError("empty feasible set on the coarse grid")
    eta1, eta2 = axes[2][j], axes[3][k]

    def point(i: int) -> list[float]:  # grid point i, in meshgrid order
        row, pair = divmod(i, j.size)
        return [float(alpha[row]), float(beta[row]), float(eta1[pair]), float(eta2[pair])]

    def value(x: Sequence[float]) -> float:
        nonlocal evals
        evals += 1
        return rate(x[0], x[0] if beta_is_alpha else x[1], x[2], x[3], p_s, p_r)

    coarse = (np.array([value(point(i)) for i in range(alpha.size * j.size)])
              if grid is None else
              grid(alpha[:, None], beta[:, None], axes[2], axes[3], j, k, p_s, p_r).ravel())
    n_top = min(_N_STARTS, coarse.size)
    third = np.partition(coarse, -n_top)[-n_top]
    shortlist = np.flatnonzero(coarse >= third - _SHORTLIST_RTOL * abs(third)).tolist()
    if grid is not None:  # rescored on the scalar kernel; each point counts once
        evals += coarse.size - len(shortlist)
        coarse[shortlist] = [value(point(i)) for i in shortlist]
    # ties go to fewer eta steps: by grid order alone 10 of 401 oblivious plans
    # (-20..80 dB) fall, by up to 5.3e-6 near -19 dB from a tied start on the
    # flat alpha = 0 edge, for 0.02% fewer evaluations (ROADMAP, Settled)
    steps = k - j if "eta1" in free and "eta2" in free else 0 * j
    shortlist.sort(key=lambda i: (-coarse[i], steps[i % j.size], i))

    runs = [_coordinate_ascent(value, (float(coarse[i]), point(i)), slots,
                               lambda i, x: _search_box(i, x, beta_ge_alpha))
            for i in shortlist[:_N_STARTS if len(slots) > 1 else 1]]
    best_val, best = max(runs, key=lambda t: t[0])[:2]
    params = {**fixed, **{name: best[i] for name, i in zip(free, slots)}}
    tails = "" if tail is None else f" tails={tail.cache_info().misses}"
    log.debug("maximize_throughput %s free=%s evals=%d%s %s value=%.6g", scheme,
              ",".join(free), evals, tails, _ascent_stats(runs, len(slots)), best_val)
    return OptResult(params=params, value=best_val, n_evals=evals,
                     coarse_best=float(coarse[shortlist[0]]))


def _unequal_from_equal(equal: OptResult, free: Sequence[str],
                        fixed: Mapping[str, float], cfg: PowerConfig) -> OptResult:
    """The miso-unequal optimum over ``free`` (beta among them), by one
    coordinate ascent from ``equal``, a miso-equal result over the other free
    parameters, with beta = alpha: the unequal split contains the equal one.
    ``n_evals`` adds the ascent's evaluations, the scored start included, to
    ``equal``'s, and ``coarse_best`` is ``equal``'s."""
    evals = 0
    rate = twolayer.CLOSED_FORMS["miso-unequal"].rate

    def value(x: Sequence[float]) -> float:
        nonlocal evals
        evals += 1
        return rate(*x, cfg.p_s, cfg.p_r)

    p = equal.params
    start = [p["alpha"], p["alpha"], p["eta1"], p["eta2"]]
    slots = sorted(_PARAM_ORDER.index(name) for name in free)
    run = _coordinate_ascent(value, (value(start), start), slots, _search_box)
    best_val, best = run[:2]
    params = {**fixed, **{_PARAM_ORDER[i]: best[i] for i in slots}}
    log.debug("maximize_throughput miso-unequal from miso-equal free=%s evals=%d "
              "%s value=%.6g", ",".join(_PARAM_ORDER[i] for i in slots), evals,
              _ascent_stats([run], len(slots)), best_val)
    return OptResult(params=params, value=best_val, n_evals=equal.n_evals + evals,
                     coarse_best=equal.coarse_best)


def oblivious_rate_plan(p_s: float) -> TwoLayerAllocation:
    """The source's relay-unaware two-layer plan: maximize the direct throughput.

    The maximize_throughput("direct") search over (alpha, eta1, eta2) with 64
    grid points per dimension.
    """
    if p_s <= 0.0:
        raise ValueError("p_s must be positive")
    res = maximize_throughput("direct", ("alpha", "eta1", "eta2"), {},
                              PowerConfig(p_s, 0.0, 0.0), coarse_points=64)
    return TwoLayerAllocation(**res.params)


def miso_single_layer_rate(p_s: float, p_r: float) -> float:
    """The rate R maximizing the single-layer MISO throughput R P(Y > e^R - 1)
    (outage.miso_single_layer_throughput): coarse scan plus a Brent line search
    (golden_section_max) between the best scan point's neighbours."""
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
    the throughput-versus-dB plots).  Both curves must be increasing in P_s and
    sampled on the increasing ``ps_db`` grid, which must span ``at_ps_db``.
    """
    ps = np.asarray(ps_db, dtype=float)
    base = np.asarray(base_rates, dtype=float)
    better = np.asarray(better_rates, dtype=float)
    if any(np.any(np.diff(x) <= 0.0) for x in (ps, base, better)):
        raise ValueError("ps_db and both throughput curves must be strictly increasing")
    if not (len(ps) == len(base) == len(better) and ps[0] <= at_ps_db <= ps[-1]):
        raise ValueError("the curves must have one value per ps_db point, and "
                         f"at_ps_db ({at_ps_db}) must lie in [{ps[0]}, {ps[-1]}]")
    level = float(np.interp(at_ps_db, ps, base))
    if level < better[0] or level > better[-1]:
        raise ValueError("baseline level outside the better curve's range; "
                         "extend the sweep grid")
    ps_needed = float(np.interp(level, better, ps))
    return at_ps_db - ps_needed
