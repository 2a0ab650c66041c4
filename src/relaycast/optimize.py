"""Deterministic allocation optimizers.

All searches are a dense coarse grid followed by coordinate-wise
golden-section refinement: the objectives are cheap, at most
four-dimensional, and may be non-smooth at branch boundaries of the closed
forms, so an auditable deterministic search beats stochastic methods here.
No randomness anywhere; rerunning returns bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import twolayer
from .model import PowerConfig, TwoLayerAllocation
from .outage import optimal_single_user_rate

__all__ = [
    "OptResult",
    "golden_section_max",
    "maximize_throughput",
    "oblivious_rate_plan",
    "horizontal_db_gain",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PARAM_ORDER = ("alpha", "beta", "eta1", "eta2")
# coarse grid points per free dimension, keyed by dimensionality;
# keeps the grid size near 64k evaluations in the worst case
_COARSE_BY_DIM = {1: 64, 2: 64, 3: 40, 4: 16}
DEFAULT_ETA_MAX = 4.0


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


def _scheme_objective(scheme: str, cfg: PowerConfig) -> Callable[[Mapping[str, float]], float]:
    def alloc_of(p: Mapping[str, float]) -> TwoLayerAllocation:
        return TwoLayerAllocation(alpha=p["alpha"], eta1=p["eta1"], eta2=p["eta2"],
                                  beta=p.get("beta", p["alpha"]))

    if scheme == "direct":
        return lambda p: twolayer.direct_multilayer_throughput(
            (p["eta1"], p["eta2"]), (p["alpha"], 1.0 - p["alpha"]), cfg.p_s).r_av
    if scheme == "miso-equal":
        return lambda p: twolayer.miso_equal_throughput(
            (p["eta1"], p["eta2"]), (p["alpha"], 1.0 - p["alpha"]),
            cfg.p_s, cfg.p_r).r_av
    if scheme == "miso-unequal":
        return lambda p: twolayer.miso_unequal_throughput(alloc_of(p), cfg.p_s, cfg.p_r).r_av
    if scheme == "simplex-equal":
        return lambda p: twolayer.simplex_equal_throughput(
            alloc_of({**p, "beta": p["alpha"]}), cfg).r_av
    if scheme == "simplex-unequal":
        return lambda p: twolayer.simplex_unequal_throughput(alloc_of(p), cfg).r_av
    raise ValueError(f"unknown scheme {scheme!r}")


def _bounds_for(name: str, params: Mapping[str, float], eta_max: float,
                beta_ge_alpha: bool) -> tuple[float, float]:
    if name == "alpha":
        hi = params.get("beta", 1.0) if beta_ge_alpha else 1.0
        return 0.0, hi
    if name == "beta":
        lo = params["alpha"] if beta_ge_alpha else 0.0
        return lo, 1.0
    if name == "eta1":
        return 0.0, params["eta2"]
    if name == "eta2":
        return params["eta1"], eta_max
    raise ValueError(f"unknown parameter {name!r}")


def maximize_throughput(scheme: str, free_params: Iterable[str],
                        fixed: Mapping[str, float], cfg: PowerConfig,
                        eta_max: float = DEFAULT_ETA_MAX,
                        coarse_points: int | None = None,
                        tol: float = 1e-6,
                        n_starts: int = 3,
                        max_passes: int = 40) -> OptResult:
    """Maximize a two-layer scheme over a subset of {alpha, beta, eta1, eta2}.

    Coarse grid over the free box (feasible points only), then coordinate
    golden-section passes from the best grid points, accepting only
    improving moves, until no parameter shifts by more than ``tol``.
    """
    free = [p for p in _PARAM_ORDER if p in set(free_params)]
    if not free:
        raise ValueError("free_params must name at least one parameter")
    if any(p not in _PARAM_ORDER for p in free_params):
        raise ValueError(f"free_params must be among {_PARAM_ORDER}")
    beta_ge_alpha = scheme == "simplex-unequal"
    objective = _scheme_objective(scheme, cfg)
    evals = 0

    def value(params: Mapping[str, float]) -> float:
        nonlocal evals
        evals += 1
        return objective(params)

    n_pts = coarse_points or _COARSE_BY_DIM[len(free)]
    axes = {}
    for name in free:
        hi = eta_max if name.startswith("eta") else 1.0
        axes[name] = np.linspace(0.0, hi, n_pts)

    scored: list[tuple[float, dict]] = []
    mesh = np.meshgrid(*[axes[name] for name in free], indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    for row in flat:
        params = dict(fixed)
        params.update(zip(free, row))
        if params["eta1"] > params["eta2"]:
            continue
        if beta_ge_alpha and params.get("beta", params["alpha"]) < params["alpha"]:
            continue
        scored.append((value(params), params))
    if not scored:
        raise ValueError("empty feasible set on the coarse grid")
    scored.sort(key=lambda t: -t[0])
    coarse_best = scored[0][0]

    best_val, best_params = scored[0]
    for start_val, start in scored[:n_starts]:
        cur = dict(start)
        cur_val = start_val
        for _ in range(max_passes):
            moved = 0.0
            for name in free:
                lo, hi = _bounds_for(name, cur, eta_max, beta_ge_alpha)

                def line(xv: float, _name=name) -> float:
                    trial = dict(cur)
                    trial[_name] = xv
                    return value(trial)

                x_new, f_new = golden_section_max(line, lo, hi, tol=tol)
                if f_new > cur_val:
                    moved = max(moved, abs(x_new - cur[name]))
                    cur[name] = x_new
                    cur_val = f_new
            if moved <= tol:
                break
        if cur_val > best_val:
            best_val, best_params = cur_val, cur

    return OptResult(params=dict(best_params), value=best_val, n_evals=evals,
                     coarse_best=coarse_best)


def oblivious_rate_plan(p_s: float, n_layers: int = 2,
                        eta_max: float = DEFAULT_ETA_MAX) -> TwoLayerAllocation:
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
    etas = np.linspace(0.0, eta_max, n)
    # the feasible triangle eta1 <= eta2 only, in (alpha, eta1, eta2) grid order
    j, k = np.triu_indices(n)
    e1, e2 = etas[j], etas[k]
    ab = (1.0 - alphas)[:, None]
    obj = ((np.log1p(e1 * p_s) - np.log1p(e1 * ab * p_s)) * np.exp(-e1)
           + np.log1p(e2 * ab * p_s) * np.exp(-e2)).ravel()
    # the 3 best points.  Exact ties occur below about -17.5 dB and above
    # about 71 dB, along the alpha = 0 and alpha = 1 rows, where one
    # threshold drops out of the objective; they go to the point with the
    # fewer grid steps between eta1 and eta2, then to the earlier grid point
    third = obj[np.argpartition(obj, -3)[-3:]].min()
    tied = np.flatnonzero(obj >= third)
    starts = tied[np.lexsort((tied, (k - j)[tied % len(j)], -obj[tied]))][:3]

    def value(p: list[float]) -> float:
        return twolayer._direct_two_layer_rate(p[0], p[1], p[2], p_s)

    best_val, best = -math.inf, None
    for idx in starts:
        i, pair = divmod(int(idx), len(j))
        cur = [float(alphas[i]), float(e1[pair]), float(e2[pair])]
        cur_val = value(cur)
        for _ in range(40):
            moved = 0.0
            for c, name in enumerate(("alpha", "eta1", "eta2")):
                lo, hi = _bounds_for(name, {"eta1": cur[1], "eta2": cur[2]}, eta_max,
                                     beta_ge_alpha=False)

                def line(xv: float, _c=c) -> float:
                    trial = list(cur)
                    trial[_c] = xv
                    return value(trial)

                x_new, f_new = golden_section_max(line, lo, hi, tol=1e-6)
                if f_new > cur_val:
                    moved = max(moved, abs(x_new - cur[c]))
                    cur[c] = x_new
                    cur_val = f_new
            if moved <= 1e-6:
                break
        if cur_val > best_val:
            best_val, best = cur_val, cur
    return TwoLayerAllocation(alpha=best[0], eta1=best[1], eta2=best[2])


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
