"""Deterministic allocation optimizers.

The equal-split optima are exact plans, with no grid and no line search
(_layered_plan): each threshold is a Newton root of its own layer term,
and the residual powers solve by Newton steps on an analytic tridiagonal
Hessian, to the exact stationary point.  At n = 1 that is the single-layer
MISO rate (miso_single_layer_rate), at n = 2 every ``direct`` and
``miso-equal`` search over all of (alpha, eta1, eta2) (_two_layer_plan,
from one fixed start; at the direct tail, the source's oblivious plan,
oblivious_rate_plan), and at n = 8 fig3's and fig4's plans.
Every other two-layer search of a free parameter subset is one coarse grid
over the eta1 <= eta2 <= 4 triangle (maximize_throughput), scored point by
point, followed by coordinate-wise Brent line searches to a 1e-7 bracket
(_coordinate_ascent, golden_section_max): the objectives are cheap, at most
four-dimensional, and may be non-smooth at branch boundaries of the closed
forms, so an auditable deterministic search beats stochastic methods here.
A coordinate's first line search spans its whole box, later ones a bracket
sized by its last move; a search ends on a whole-box pass that moves nothing
by more than _TOL = 1e-6.  ``miso-unequal`` with beta free has no grid of
its own: the unequal split contains the equal one (beta = alpha), so it
refines the ``miso-equal`` optimum over all free parameters, by Newton
steps on central differences (_difference_newton) and one confirming
coordinate ascent, in eta <= 4 max(1, P_r/P_s).
The ``direct`` and ``miso-equal`` kernels and the plans read one law, the
layer tail of outage._layer_tail_terms (e^{-eta} at P_r = 0).  Each search
logs one DEBUG line with its evaluations and ``plan`` where it is the exact
plan, else per ascent the passes run, then the line searches, the brackets
widened and the ascents that ran all their passes (capped); the unequal
refinement logs its Newton steps, shifts, positions held on a face and
confirming passes.
No randomness anywhere; rerunning returns bit-identical output.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import twolayer
from .model import PowerConfig, TwoLayerAllocation
from .outage import _layer_tail_terms

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
_ETA_MAX = 4.0  # upper end of the grids' eta ranges (see _unequal_from_equal)
_TOL = 1e-6  # coordinate passes stop once no parameter moves by more
_LINE_TOL = 1e-7  # bracket width each of _coordinate_ascent's line searches ends at
_MAX_PASSES = 40
_BRACKET_MIN = 10 * _TOL  # least half-width of a later line search's bracket
_N_STARTS = 3  # coarse-grid points refined by maximize_throughput
_ROOT_STEPS = 100  # most evaluations of h per layer's threshold root
_PLAN_ITERATIONS = 50  # most Newton steps of _layered_plan
_PLAN_STEP = 2.0  # most any log residual moves in one of its steps
_PLAN_HALVINGS = 40  # most halvings of one step
_PLAN_RTOL = 1e-16  # the plan ends once a step would gain no more, relative
_DIFF_STEP = 1e-4  # _difference_newton's difference step, as a share of a position's room


@dataclass(frozen=True)
class OptResult:
    params: dict
    value: float
    n_evals: int


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


def _search_box(i: int, x: Sequence[float], eta_max: float, beta_ge_alpha: bool = False
                ) -> tuple[float, float]:
    """Search range of position i of an (alpha, beta, eta1, eta2) point x:
    eta1 <= eta2 <= ``eta_max``, and with ``beta_ge_alpha`` also alpha <= beta."""
    if i == 0:
        return 0.0, x[1] if beta_ge_alpha else 1.0
    if i == 1:
        return x[0] if beta_ge_alpha else 0.0, 1.0
    if i == 2:
        return 0.0, x[3]
    return x[2], eta_max


def _coordinate_ascent(value: Callable[[list[float]], float],
                       start: tuple[float, Sequence[float]], coords: Sequence[int],
                       bounds: Callable[[int, list[float]], tuple[float, float]]
                       ) -> tuple[float, list[float], int, int]:
    """Cyclic line searches (golden_section_max to a _LINE_TOL bracket) over
    positions ``coords`` of a point, from ``start``, a (value, point) pair,
    accepting only strictly improving moves, until a pass whose searches span
    their whole boxes moves no position by more than _TOL, or _MAX_PASSES
    passes ran.  One position stops after one pass, since ``bounds`` of a
    position does not read that position, so a second pass would repeat the
    same search.  Line searches end ten times finer than _TOL: at 1e-6 the
    64-point direct search over (alpha, eta1, eta2) fell by up to 2.1e-5 at
    79 dB, where 1 - alpha < 1e-6.

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
    for passes in range(1, _MAX_PASSES + 1):
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


def maximize_throughput(scheme: str, free_params: Iterable[str],
                        fixed: Mapping[str, float], cfg: PowerConfig,
                        coarse_points: int | None = None) -> OptResult:
    """Maximize a two-layer scheme over a subset of {alpha, beta, eta1, eta2}.

    Only the unequal splits read beta, so the other schemes drop a free beta
    from their search.  Direct and miso-equal with alpha, eta1 and eta2 free
    return the exact two-layer plan (_two_layer_plan, from a fixed start),
    scored once by the scalar kernel.  Every other search scores a coarse
    grid point by point: the (alpha, beta) rows (beta >= alpha for
    simplex-unequal) against the eta1 <= eta2 pairs of the free box, whose
    eta axes end at _ETA_MAX.
    Coordinate line-search passes run from its 3 best points, accepting
    only improving moves, until a pass over the whole boxes shifts no
    parameter by more than 1e-6 (the passes between search brackets around
    each parameter's last move; see _coordinate_ascent); with one free
    parameter the search box does not depend on the start, so only the best
    point is refined, by one line search over its box.  Exact ties go to the
    point with fewer grid steps between eta1 and eta2 when both are free,
    then to the earlier one.  ``n_evals`` counts every evaluation: the plan's
    values and its scoring, each feasible grid point once, and the passes'
    line-search probes.  ``coarse_points`` must be at least 1, P_s above 0.

    ``miso-unequal`` with beta and another parameter free has no grid: the
    ``miso-equal`` search over the other free parameters (at
    ``coarse_points``) gives the start, with beta = alpha, of Newton steps
    over all of them and one confirming ascent (_unequal_from_equal), and
    ``n_evals`` counts both searches.
    """
    if not 0.0 < cfg.p_s < math.inf:
        raise ValueError(f"p_s must be positive and finite, got {cfg.p_s!r}")
    if any(p not in _PARAM_ORDER for p in free_params):
        raise ValueError(f"free_params must be among {_PARAM_ORDER}")
    if scheme not in twolayer.CLOSED_FORMS:
        raise ValueError(f"unknown scheme {scheme!r}")
    split_beta = scheme in ("miso-unequal", "simplex-unequal")  # the rest read only alpha
    free = [p for p in _PARAM_ORDER if p in set(free_params)
            and (split_beta or p != "beta")]
    if not free:
        raise ValueError(f"free_params must name at least one parameter {scheme} reads")
    if scheme == "miso-unequal" and "beta" in free and len(free) > 1:
        equal = maximize_throughput("miso-equal", [p for p in free if p != "beta"],
                                    fixed, cfg, coarse_points)
        return _unequal_from_equal(equal, free, fixed, cfg)
    n_pts = _COARSE_BY_DIM[len(free)] if coarse_points is None else coarse_points
    if n_pts < 1:
        raise ValueError(f"coarse_points must be at least 1, got {n_pts}")
    form = twolayer.CLOSED_FORMS[scheme]
    p_s, p_r = cfg.p_s, cfg.p_r
    rate = form.rate or (lambda a, b, e1, e2, *_: form(
        TwoLayerAllocation(alpha=a, eta1=e1, eta2=e2, beta=b), cfg).r_av)
    slots = [_PARAM_ORDER.index(name) for name in free]
    # a free or fixed beta is the scheme's own only for the unequal splits;
    # a fixed NaN beta means beta = alpha
    beta_is_alpha = (not split_beta
                     or ("beta" not in free and math.isnan(fixed.get("beta", math.nan))))
    beta_ge_alpha = scheme == "simplex-unequal" and not beta_is_alpha
    evals = 0

    def value(x: Sequence[float]) -> float:
        nonlocal evals
        evals += 1
        return rate(x[0], x[0] if beta_is_alpha else x[1], x[2], x[3], p_s, p_r)

    def result(best_val: float, best: Sequence[float], path: str) -> OptResult:
        log.debug("maximize_throughput %s free=%s evals=%d %s value=%.6g", scheme,
                  ",".join(free), evals, path, best_val)
        return OptResult(params={**fixed, **{name: best[i] for name, i in zip(free, slots)}},
                         value=best_val, n_evals=evals)

    if scheme in ("direct", "miso-equal") and free == ["alpha", "eta1", "eta2"]:
        plan, evals = _two_layer_plan(p_s, p_r if scheme == "miso-equal" else 0.0)
        return result(value(plan), plan, "plan")

    # each axis holds a free parameter's grid or its fixed value (NaN if
    # absent).  The grid is the (alpha, beta) rows against the feasible
    # (eta1, eta2) pairs, row by row
    axes = [np.linspace(0.0, _ETA_MAX if name.startswith("eta") else 1.0, n_pts).tolist()
            if name in free else [float(fixed.get(name, math.nan))]
            for name in _PARAM_ORDER]
    # the search box keeps free values in the domain, so only fixed values can
    # leave it, and TwoLayerAllocation raises its ValueError before any grid.
    # A free value is checked at its range's start, 0, and a free eta2 at
    # eta1, so a fixed eta1 past _ETA_MAX leaves the grid empty
    a, b, e1, e2 = (axis[0] for axis in axes)
    b = a if beta_is_alpha else b
    e2 = e1 if "eta2" in free else e2
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= e1 <= e2 < math.inf):
        TwoLayerAllocation(alpha=a, eta1=e1, eta2=e2, beta=b)
    rows = [(a, b) for a in axes[0] for b in axes[1] if not (beta_ge_alpha and b < a)]
    # each (eta1, eta2) pair with its grid steps between eta1 and eta2 (0
    # unless both are free): ties go to fewer steps (ROADMAP, Settled)
    both = "eta1" in free and "eta2" in free
    pairs = [(e1, e2, k - j if both else 0) for j, e1 in enumerate(axes[2])
             for k, e2 in enumerate(axes[3]) if not e1 > e2]
    if not (rows and pairs):
        raise ValueError("empty feasible set on the coarse grid")

    def point(i: int) -> list[float]:  # grid point i, row by row
        row, pair = divmod(i, len(pairs))
        return [*rows[row], *pairs[pair][:2]]

    coarse = [value(point(i)) for i in range(len(rows) * len(pairs))]
    starts = heapq.nsmallest(_N_STARTS if len(slots) > 1 else 1, range(len(coarse)),
                             key=lambda i: (-coarse[i], pairs[i % len(pairs)][2], i))
    runs = [_coordinate_ascent(value, (coarse[i], point(i)), slots,
                               lambda i, x: _search_box(i, x, _ETA_MAX, beta_ge_alpha))
            for i in starts]
    best_val, best = max(runs, key=lambda t: t[0])[:2]
    passes, widened = [r[2] for r in runs], sum(r[3] for r in runs)
    return result(best_val, best, f"passes={','.join(map(str, passes))} lines="
                  f"{len(slots) * sum(passes) + widened} widened={widened} "
                  f"capped={passes.count(_MAX_PASSES)}")


def _two_layer_plan(p_s: float, p_r: float) -> tuple[list[float], int]:
    """(alpha, alpha, eta1, eta2) of _layered_plan at n = 2 for the MISO layer
    tail (e^{-eta} at P_r = 0), and its plan values, from one fixed start:
    thresholds (1, 1) and the residual 1/2."""
    (eta1, eta2), (alpha, _), evals = _layered_plan(_layer_tail_terms(p_s, p_r), 2, p_s,
                                                    ([1.0, 1.0], [0.5]))
    return [alpha, alpha, eta1, eta2], evals


def _unequal_from_equal(equal: OptResult, free: Sequence[str],
                        fixed: Mapping[str, float], cfg: PowerConfig) -> OptResult:
    """The miso-unequal optimum over ``free`` (beta among them), from
    ``equal``, a miso-equal result over the other free parameters, with beta =
    alpha (the unequal split contains the equal one): Newton steps
    (_difference_newton), then one coordinate ascent, which a converged Newton
    point ends in its first, whole-box pass.  Both search eta <= _ETA_MAX
    max(1, P_r/P_s), as the MISO thresholds grow with P_r/P_s (the equal
    plan's eta2 stays below 1.62 max(1, P_r/P_s) on -20..80 dB and P_r/P_s up
    to 1e4).  ``n_evals`` adds both stages' evaluations to ``equal``'s."""
    evals = 0
    rate = twolayer.CLOSED_FORMS["miso-unequal"].rate

    def value(x: Sequence[float]) -> float:
        nonlocal evals
        evals += 1
        return rate(*x, cfg.p_s, cfg.p_r)

    p = equal.params
    start = [p["alpha"], p["alpha"], p["eta1"], p["eta2"]]
    slots = sorted(_PARAM_ORDER.index(name) for name in free)
    box = functools.partial(_search_box, eta_max=_ETA_MAX * max(1.0, cfg.p_r / cfg.p_s))
    newton = _difference_newton(value, (value(start), start), slots, box)
    run = _coordinate_ascent(value, newton[:2], slots, box)
    best_val, best = run[:2]
    params = {**fixed, **{_PARAM_ORDER[i]: best[i] for i in slots}}
    log.debug("maximize_throughput miso-unequal from miso-equal free=%s evals=%d "
              "newton=%d shifts=%d held=%d passes=%d value=%.6g",
              ",".join(_PARAM_ORDER[i] for i in slots), evals, *newton[2:], run[2], best_val)
    return OptResult(params=params, value=best_val, n_evals=equal.n_evals + evals)


def _difference_newton(value: Callable[[list[float]], float],
                       start: tuple[float, Sequence[float]], coords: Sequence[int],
                       bounds: Callable[[int, list[float]], tuple[float, float]]
                       ) -> tuple[float, list[float], int, int, int]:
    """(value, point, iterations, shifts, held) of Newton steps on central
    differences of ``value`` over positions ``coords`` of an (alpha, beta,
    eta1, eta2) point, from ``start``, a (value, point) pair, in the box
    ``bounds`` (_unequal_from_equal's eta <= _ETA_MAX max(1, P_r/P_s)).
    A position's difference step is _DIFF_STEP of its distance to the nearer
    end of its box, so 1 - alpha of 1e-7 is resolved as well as 0.5; one on an
    end is held there (``held`` at the last step) while a step of _DIFF_STEP
    of its box inward does not raise the value, except that eta1 = eta2, both
    held, move as one.  Each step is _shifted_newton_step's, clipped to the
    box and halved until the value rises; the search stops where
    _layered_plan's would, or once the gain the Newton model predicts at the
    halved step is at most half an ulp of the value, which rounding hides.
    """
    fx, x = start[0], list(start[1])
    iterations = shifts = held = 0
    while iterations < _PLAN_ITERATIONS:
        groups, h = [], []  # the positions each difference step moves, and its size
        for i in coords:
            lo, hi = bounds(i, x)
            if min(x[i] - lo, hi - x[i]) <= 0.0 < hi - lo:  # on a face: one step in
                probe = x.copy()
                probe[i] += math.copysign(_DIFF_STEP * (hi - lo), lo + hi - 2.0 * x[i])
                inward = value(probe)
                if inward > fx:
                    x, fx = probe, inward
            if min(x[i] - lo, hi - x[i]) > 0.0:
                groups.append((i,))
                h.append(_DIFF_STEP * min(x[i] - lo, hi - x[i]))
        eta_max = bounds(3, x)[1]
        if x[2] == x[3] and 0.0 < x[2] < eta_max and {2, 3} <= set(coords):
            groups.append((2, 3))
            h.append(_DIFF_STEP * min(x[2], eta_max - x[2]))
        held = len(coords) - sum(map(len, groups))

        def at(*moves: tuple[int, float]) -> float:
            trial = x.copy()
            for k, t in moves:
                for i in groups[k]:
                    trial[i] += t * h[k]
            return value(trial)

        ends = [(at((k, 1.0)), at((k, -1.0))) for k in range(len(groups))]
        grad = [0.5 * (up - down) for up, down in ends]
        curv = [up + down - 2.0 * fx for up, down in ends]
        # the lower triangle, by f(x + u) + f(x - u) - 2 f(x) = u^T H u
        hess = [[0.5 * (at((j, 1.0), (k, 1.0)) + at((j, -1.0), (k, -1.0)) - 2.0 * fx
                        - curv[j] - curv[k]) for k in range(j)] + [curv[j]]
                for j in range(len(groups))]
        step, tried = _shifted_newton_step(grad, hess)
        shifts += tried
        gain = 0.5 * sum(g * d for g, d in zip(grad, step))  # the Newton model's
        if not gain > _PLAN_RTOL * abs(fx):
            break
        scale, new = 1.0, fx
        for _ in range(_PLAN_HALVINGS):
            if scale * gain <= 0.5 * math.ulp(fx):  # a gain this small rounds away
                break
            trial = x.copy()
            for group, d, hk in zip(groups, step, h):
                for i in group:
                    trial[i] += scale * d * hk
            for i in reversed(coords):  # eta2 before eta1
                lo, hi = bounds(i, trial)
                trial[i] = min(max(trial[i], lo), hi)
            if trial != x and all(lo <= trial[i] <= hi for i in coords
                                  for lo, hi in [bounds(i, trial)]):
                new = value(trial)
                if new > fx:
                    break
            scale *= 0.5
        if not new > fx:
            break
        x, fx = trial, new
        iterations += 1
    return fx, x, iterations, shifts, held


def oblivious_rate_plan(p_s: float) -> TwoLayerAllocation:
    """The source's relay-unaware two-layer plan: maximize the direct throughput.

    The plan is the exact two-layer plan of the direct tail e^{-eta}
    (_two_layer_plan at P_r = 0), whose DEBUG line reports it.  ``p_s`` must
    be positive and finite.
    """
    if not 0.0 < p_s < math.inf:
        raise ValueError(f"p_s must be positive and finite, got {p_s!r}")
    alpha, _, eta1, eta2 = _two_layer_plan(p_s, 0.0)[0]
    return TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta2)


def _layer_threshold(tail, a: float, b: float, x: float) -> tuple[float, ...]:
    """(eta, L T, T, T', h', root steps) of the threshold maximizing the layer
    term L(eta) T(eta), L = log1p(eta a) - log1p(eta b), between residual
    powers a > b >= 0, from the guess x > 0; ``tail`` gives (T, T', T'').

    eta is the root of h = L'T + LT', with L' = (a - b)/(uv), u = 1 + eta a,
    v = 1 + eta b, and L'' = -L'(a/u + b/v): L and a log-concave T make the
    term log-concave, so h > 0 below the root and h < 0 above it.  Newton
    steps on h' = L''T + 2L'T' + LT'' run inside the bracket that h's signs
    narrow, bisecting (or doubling, while no h < 0 is seen) where a step
    leaves it, until a step would move eta by at most 4e-16 of itself, or
    for _ROOT_STEPS evaluations.
    """
    lo, hi, steps = 0.0, math.inf, 0
    while True:
        steps += 1
        u, v = 1.0 + x * a, 1.0 + x * b
        t, t1, t2 = tail(x)
        dl = (a - b) / (u * v)
        ell = math.log1p(x * (a - b) / v)
        h = dl * t + ell * t1
        dh = -dl * (a / u + b / v) * t + 2.0 * dl * t1 + ell * t2
        if h > 0.0:
            lo = x
        elif h < 0.0:
            hi = x
        if h == 0.0 or abs(h) <= 4e-16 * x * -dh or steps >= _ROOT_STEPS:
            return x, ell * t, t, t1, dh, steps
        nxt = x - h / dh if dh < 0.0 else math.nan
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi) if hi < math.inf else 2.0 * x


def _layered_plan(tail, n: int, p_s: float, start
                  ) -> tuple[list[float], list[float], int]:
    """The optimal n-layer equal-split plan (thresholds, power fractions) for the
    layer tail ``tail`` (eta -> (T, T', T''), log-concave), from ``start``,
    a (thresholds, residuals) plan such as twolayer.discretize_power_density's,
    and the plan values it computed (the start's and every trial step's).

    The residual powers c_0 = P_s > c_1 > ... > c_{n-1} > c_n = 0 (residuals
    c_i/P_s) give the value sum_k L_k(eta_k) T(eta_k), where layer k's term
    reads only (c_{k-1}, c_k), so each eta_k is profiled out by
    _layer_threshold.  By the envelope theorem dV/dc_j = phi(eta_{j+1}, c_j)
    - phi(eta_j, c_j), phi(eta, c) = eta T/(1 + eta c), and with the implicit
    d eta_k/dc = -(dh_k/dc)/h_k' the Hessian over the residual powers is
    tridiagonal.  Newton steps run over log c_1..c_{n-1}: a Levenberg shift
    (0, then growing tenfold from 1e-9 of the largest diagonal entry) until
    every pivot of the tridiagonal LDL^T is negative, the step scaled to move
    no log residual by more than _PLAN_STEP, then halved until the residual
    powers stay ordered, the thresholds increase and the value does not fall
    (at most _PLAN_HALVINGS times, else the plan stops).  The plan stops once
    the gain grad.step/2 that the Newton model predicts is at most _PLAN_RTOL
    of the value, or after _PLAN_ITERATIONS steps.  Logs one DEBUG line with
    the steps taken (iterations), the root steps of all thresholds, the
    shifts and the value.  The fractions returned are the closed forms'
    (twolayer.direct_multilayer_throughput, miso_equal_throughput).
    """
    thresholds, residuals = start
    c = [p_s, *(r * p_s for r in residuals), 0.0]
    root_steps = shifts = values = 0

    def layers(c: list[float], guess: list[float]):
        nonlocal root_steps, values
        out = [_layer_threshold(tail, c[k], c[k + 1], guess[k]) for k in range(n)]
        root_steps += sum(t[5] for t in out)
        values += 1
        return out, sum(t[1] for t in out)

    terms, value = layers(c, thresholds)
    iterations = 0
    while iterations < _PLAN_ITERATIONS:
        # per layer (a, b) = (c_k, c_{k+1}): dV/da, d2V/da2, dV/db, d2V/db2 and
        # d2V/dadb, thresholds profiled, with psi_a = dh/da and psi_b = -dh/db
        parts = []
        for k, (eta, _, t, t1, dh, _) in enumerate(terms):
            u, v = 1.0 + eta * c[k], 1.0 + eta * c[k + 1]
            psi_a, psi_b = t / (u * u) + t1 * eta / u, t / (v * v) + t1 * eta / v
            parts.append((eta * t / u, -eta * eta * t / (u * u) - psi_a * psi_a / dh,
                          -eta * t / v, eta * eta * t / (v * v) - psi_b * psi_b / dh,
                          psi_a * psi_b / dh))
        # in log c_1..c_{n-1}: H_jm c_j c_m, plus c_j dV/dc_j on the diagonal
        s = c[1:n]
        grad = [(parts[j][2] + parts[j + 1][0]) * cj for j, cj in enumerate(s)]
        hess = [[(parts[j][3] + parts[j + 1][1]) * cj * cj + grad[j] if k == j else
                 parts[j][4] * s[k] * cj if k == j - 1 else 0.0 for k in range(j + 1)]
                for j, cj in enumerate(s)]  # the lower triangle
        step, tried = _shifted_newton_step(grad, hess)
        shifts += tried
        # the gain the Newton model predicts; NaN ends the plan too
        if not 0.5 * sum(g * d for g, d in zip(grad, step)) > _PLAN_RTOL * value:
            break
        scale = min(1.0, _PLAN_STEP / max(map(abs, step)))
        for _ in range(_PLAN_HALVINGS):
            trial = [p_s, *(cj * math.exp(scale * d) for cj, d in zip(s, step)), 0.0]
            if trial != c and all(x > y for x, y in zip(trial, trial[1:])):
                new_terms, new_value = layers(trial, [t[0] for t in terms])
                if (new_value >= value
                        and all(x[0] < y[0] for x, y in zip(new_terms, new_terms[1:]))):
                    break
            scale *= 0.5
        else:
            break
        c, terms, value = trial, new_terms, new_value
        iterations += 1
    log.debug("_layered_plan layers=%d iterations=%d root_steps=%d shifts=%d value=%.17g",
              n, iterations, root_steps, shifts, value)
    # per-layer fractions whose running differences from 1, as the closed forms
    # take them, give back the residuals to rounding and end at 0 exactly
    fractions, resid = [], 1.0
    for cj in c[1:n]:
        fractions.append(resid - cj / p_s)
        resid -= fractions[-1]
    return [t[0] for t in terms], [*fractions, resid], values


def _shifted_newton_step(grad: list[float], hess: list[list[float]]
                         ) -> tuple[list[float], int]:
    """(step, shifts): the solution of (H - lam I) step = -grad for the
    symmetric H ``hess`` (its lower triangle read), by LDL^T with the least
    lam of 0, 1e-9 and tenfold steps of the largest |diagonal entry| that
    leaves every pivot negative; ``shifts`` counts the nonzero lams tried.  A
    Hessian that no finite lam makes negative definite (a NaN entry) gives a
    NaN step.  The terms off a band are exact zeros, so a tridiagonal H
    rounds as a tridiagonal solver would."""
    m = len(grad)
    lam, shifts = 0.0, 0
    scale = max((abs(hess[j][j]) for j in range(m)), default=0.0) or 1.0
    while True:
        low, pivots = [], []  # the rows of L left of the diagonal, and D
        for j in range(m):
            u = []  # L_jk D_k, k < j
            for k in range(j):
                u.append(hess[j][k] - sum(a * b for a, b in zip(u, low[k])))
            low.append([a / p for a, p in zip(u, pivots)])
            p = hess[j][j] - lam - sum(a * b for a, b in zip(low[j], u))
            if not p < 0.0:
                break
            pivots.append(p)
        else:
            break
        if not lam < math.inf:
            return [math.nan] * m, shifts
        shifts += 1
        lam = 10.0 * lam if lam else 1e-9 * scale
    y = []  # forward: L y = -grad; then back: D L^T x = y
    for j in range(m):
        y.append(-grad[j] - sum(a * b for a, b in zip(low[j], y)))
    x = [0.0] * m
    for j in reversed(range(m)):
        x[j] = y[j] / pivots[j] - sum(low[k][j] * x[k] for k in range(j + 1, m))
    return x, shifts


def miso_single_layer_rate(p_s: float, p_r: float) -> float:
    """The rate R maximizing the single-layer MISO throughput R P(Y > e^R - 1)
    (outage.miso_single_layer_throughput): the one-layer plan (_layered_plan
    at n = 1, the _layer_threshold root between P and 0) of the MISO layer
    tail, R = log1p(eta P).  The tail is symmetric in (P_s, P_r), so P is the
    larger power; at P_r = 0 this is optimal_single_user_rate, and with both
    powers 0 the rate is 0."""
    p, other = max(p_s, p_r), min(p_s, p_r)
    if other < 0.0:
        raise ValueError("powers must be nonnegative")
    if p == 0.0:
        return 0.0
    (eta,), _, _ = _layered_plan(_layer_tail_terms(p, other), 1, p, ([1.0], []))
    return math.log1p(eta * p)


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
