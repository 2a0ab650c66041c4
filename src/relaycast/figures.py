"""Preset CSV sweeps (figure subcommand), the scheme tables and the sweep rows.

``_SINGLE_LAYER`` and ``_BOUNDS`` name the schemes outside ``twolayer.CLOSED_FORMS``
and ``_oblivious_rows`` builds the rows of ``sweep`` and fig6-fig8.  A preset's
keyword parameters, defaults included, are its grid; it returns (fieldnames,
rows) and ``run_preset`` echoes the resolved grid for the run manifest.  Rates
are nats/channel use, powers dB.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math

from . import broadcast, twolayer
from .model import PowerConfig
from .montecarlo import SimConfig, simulate_strategy
from .optimize import (_ascent_stats, _coordinate_ascent, _unequal_from_equal,
                       maximize_throughput, miso_single_layer_rate, oblivious_rate_plan)
from .outage import (ergodic_miso_capacity, miso_single_layer_throughput,
                     optimal_single_user_rate, sdf_single_layer_throughput,
                     single_user_throughput)

__all__ = ["PRESETS", "run_preset"]

log = logging.getLogger(__name__)

# single-layer schemes: (the source's default rate, throughput at a rate)
_SINGLE_LAYER = {
    "single-user": (lambda cfg: optimal_single_user_rate(cfg.p_s),
                    lambda r, cfg: single_user_throughput(r, cfg.p_s)),
    "single-sdf": (lambda cfg: optimal_single_user_rate(cfg.p_s),
                   lambda r, cfg: sdf_single_layer_throughput(r, cfg)),
    "miso-single": (lambda cfg: miso_single_layer_rate(cfg.p_s, cfg.p_r),
                    lambda r, cfg: miso_single_layer_throughput(r, cfg.p_s, cfg.p_r)),
}
# schemes with a throughput and no rate plan
_BOUNDS = {
    "ergodic-miso": lambda cfg: ergodic_miso_capacity(cfg.p_s, cfg.p_r),
    "continuous-siso": lambda cfg: broadcast.siso_broadcast_rate(cfg.p_s),
    "continuous-relay": lambda cfg: broadcast.relay_or_miso_broadcast_bound(cfg, "relay"),
    "continuous-miso": lambda cfg: broadcast.relay_or_miso_broadcast_bound(cfg, "miso"),
}
# sweep schemes that follow the source's oblivious plan
_PLAN_SCHEMES = ("direct-2", "simplex-equal", "simplex-unequal-opt", "miso-equal")
# the columns of sweep and of fig6-fig8
_ROW_FIELDS = ("ps_db", "q_db", "pr_over_ps", "scheme", "throughput_nats")


def _throughput(scheme: str, cfg: PowerConfig) -> float:
    """A _SINGLE_LAYER scheme at its default rate, or a _BOUNDS scheme."""
    if scheme in _BOUNDS:
        return _BOUNDS[scheme](cfg)
    default_rate, throughput = _SINGLE_LAYER[scheme]
    return throughput(default_rate(cfg), cfg).r_av


def _db2lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _ps_grid(start=0.0, stop=25.0, step=2.5) -> list[float]:
    n = math.floor((stop - start) / step + 1e-9)  # never past stop
    return [start + i * step for i in range(n + 1)]


_POLISH_PASSES = 4  # coordinate passes of the 8-layer polish


def _refined_layered(cfg: PowerConfig, tail, n_layers: int, density) -> float:
    """Quantize the continuous profile into n layers and polish it by four
    coordinate passes of Brent line searches over the thresholds and the
    residual power fractions of twolayer.discretize_power_density: the
    first over each coordinate's whole range, later ones over brackets
    around each coordinate's last move (optimize._coordinate_ascent).

    A line search moves one coordinate, so it changes at most two of the n
    layer terms.  The polish computes each layer term
    (log1p(eta*prev*P_s) - log1p(eta*r_i*P_s))*tail(eta, P_s, P_r) once per
    (eta, prev, r_i), in a cache that lasts one call; the rate is still the
    left-to-right sum of the n terms, bit for bit.  ``tail`` is a layer
    tail of twolayer (the contract of _TwoLayerForm.tail), called once per
    term computation, so a caller whose tail costs more than a cache lookup
    (fig4's _miso_tail, not fig3's _direct_tail) passes a functools.cache of
    it made for the call, and the DEBUG line then counts its misses."""
    thresholds, residuals = twolayer.discretize_power_density(density, n_layers)
    # the point: n thresholds, then the power fractions left after each of the
    # first n - 1 layers; the fraction left after the last layer is 0
    n, last, p_s, p_r = n_layers, 2 * n_layers - 2, cfg.p_s, cfg.p_r

    @functools.cache
    def term(eta: float, prev: float, r_i: float) -> float:
        return (math.log1p(eta * prev * p_s) - math.log1p(eta * r_i * p_s)) * tail(eta, p_s, p_r)

    def rate(x) -> float:
        total, prev = 0.0, 1.0
        for i in range(n):
            r_i = x[n + i] if i < n - 1 else 0.0
            total += term(x[i], prev, r_i)
            prev = r_i
        return total

    def bounds(i: int, x) -> tuple[float, float]:
        if i < n:  # a threshold stays between its neighbours
            return (x[i - 1] if i else 1e-6,
                    x[i + 1] if i < n - 1 else max(4.0, x[i] * 2.0))
        return (x[i + 1] if i < last else 0.0, x[i - 1] if i > n else 1.0)

    x0 = [*thresholds, *residuals]
    run = _coordinate_ascent(rate, (rate(x0), x0), range(last + 1), bounds,
                             max_passes=_POLISH_PASSES)
    value = run[0]
    terms = term.cache_info()  # every evaluation looks up n terms
    cached = getattr(tail, "cache_info", None)  # a tail the caller caches
    log.debug("_refined_layered layers=%d evals=%d terms=%d%s %s value=%.6g", n,
              (terms.hits + terms.misses) // n, terms.misses,
              "" if cached is None else f" tails={cached().misses}",
              _ascent_stats([run], last + 1, _POLISH_PASSES), value)
    return value


# fig2's curves: CSV label -> scheme
_FIG2_CURVES = {"continuous-relay": "continuous-relay", "continuous-miso": "continuous-miso",
                "continuous-siso": "continuous-siso", "single-layer-miso": "miso-single",
                "single-layer-siso": "single-user"}


def fig2(ps_db=tuple(_ps_grid()), ratios=(0.5, 1.0, 2.0)):
    """Continuous broadcasting bounds and single-layer rates vs source power."""
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        for ratio in ratios:
            cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0)
            for label, scheme in _FIG2_CURVES.items():
                rows.append({"ps_db": db, "pr_over_ps": ratio, "scheme": label,
                             "throughput_nats": _throughput(scheme, cfg)})
    return ["ps_db", "pr_over_ps", "scheme", "throughput_nats"], rows


def fig3(ps_db=tuple(_ps_grid())):
    """SISO: optimal 1-, 2-, 8-layer and continuous broadcasting rates."""
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        cfg = PowerConfig(p_s=p_s, p_r=0.0, q=1.0)
        density, dist, _ = broadcast.continuous_layering(cfg, "siso")
        values = {
            1: _throughput("single-user", cfg),
            2: twolayer.CLOSED_FORMS["direct"](oblivious_rate_plan(p_s), cfg).r_av,
            8: _refined_layered(cfg, twolayer._direct_tail, 8, density),
        }
        for n, value in values.items():
            rows.append({"ps_db": db, "scheme": f"direct-{n}-layer", "n_layers": n,
                         "throughput_nats": value})
        rows.append({"ps_db": db, "scheme": "continuous-siso", "n_layers": 0,
                     "throughput_nats": broadcast.broadcast_rate(density, dist)})
    return ["ps_db", "scheme", "n_layers", "throughput_nats"], rows


def _miso_two_layer(cfg: PowerConfig) -> tuple[float, float]:
    """fig4's and fig5's optimized two-layer MISO rates: (equal, unequal split)."""
    equal = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                coarse_points=24)
    unequal = _unequal_from_equal(equal, ("alpha", "beta", "eta1", "eta2"), {}, cfg)
    return equal.value, unequal.value


def fig4(ps_db=tuple(_ps_grid(step=5.0)), ratios=(0.5, 1.0, 2.0)):
    """2x1 MISO: equal/unequal layering for N = 1, 2, 8, continuous, ergodic."""
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        for ratio in ratios:
            cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0)
            density, dist, _ = broadcast.continuous_layering(cfg, "miso")
            equal2, unequal2 = _miso_two_layer(cfg)
            entries = (
                ("miso-1-layer", 1, _throughput("miso-single", cfg)),
                ("miso-2-equal", 2, equal2),
                ("miso-2-unequal", 2, unequal2),
                ("miso-8-equal", 8, _refined_layered(
                    cfg, functools.cache(twolayer._miso_tail), 8, density)),
                ("continuous-miso", 0, broadcast.broadcast_rate(density, dist)),
                ("ergodic-miso", 0, _throughput("ergodic-miso", cfg)),
            )
            for scheme, n, value in entries:
                rows.append({"ps_db": db, "pr_over_ps": ratio, "scheme": scheme,
                             "n_layers": n, "throughput_nats": value})
    return ["ps_db", "pr_over_ps", "scheme", "n_layers", "throughput_nats"], rows


def fig5(pr_db=tuple(_ps_grid(0.0, 40.0, 4.0)), ps_db=(40.0,)):
    """MISO equal vs unequal layering as the relay power varies."""
    rows = []
    for ps in ps_db:
        p_s = _db2lin(ps)
        for db in pr_db:
            values = _miso_two_layer(PowerConfig(p_s=p_s, p_r=_db2lin(db), q=1.0))
            for scheme, value in zip(("miso-2-equal", "miso-2-unequal"), values):
                rows.append({"pr_db": db, "ps_db": ps, "scheme": scheme,
                             "throughput_nats": value})
    return ["pr_db", "ps_db", "scheme", "throughput_nats"], rows


def _oblivious_rows(ps_db, q_db_list, ratios, schemes):
    """Rows of ``sweep`` and of fig6-fig8, in _ROW_FIELDS.

    ``schemes`` holds _SINGLE_LAYER or _BOUNDS names, or plan schemes:
    "direct-2" (CLOSED_FORMS["direct"]), "simplex-unequal-opt" (beta >= alpha
    searched per relay setting) and twolayer.CLOSED_FORMS names, which follow
    the source's oblivious plan.  The plan depends only on P_s, so it is
    computed once per P_s, and only when a plan scheme is asked for.
    """
    needs_plan = any(s not in _SINGLE_LAYER and s not in _BOUNDS for s in schemes)
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        plan = oblivious_rate_plan(p_s) if needs_plan else None
        for q_db in q_db_list:
            for ratio in ratios:
                cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=_db2lin(q_db))
                for scheme in schemes:
                    if scheme in _SINGLE_LAYER or scheme in _BOUNDS:
                        value = _throughput(scheme, cfg)
                    elif scheme == "simplex-unequal-opt":
                        value = maximize_throughput(
                            "simplex-unequal", ("beta",),
                            {"alpha": plan.alpha, "eta1": plan.eta1, "eta2": plan.eta2},
                            cfg, coarse_points=12).value
                    else:
                        name = "direct" if scheme == "direct-2" else scheme
                        value = twolayer.CLOSED_FORMS[name](plan, cfg).r_av
                    rows.append({"ps_db": db, "q_db": q_db, "pr_over_ps": ratio,
                                 "scheme": scheme, "throughput_nats": value})
    return rows


def fig6(ps_db=tuple(_ps_grid()), q_db=(15.0, 20.0), ratios=(1.0,)):
    """Oblivious simplex relay vs direct transmission over P_s and Q."""
    return _ROW_FIELDS, _oblivious_rows(ps_db, q_db, ratios, ("direct-2", "simplex-equal"))


def fig7(ratios=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0), q_db=(10.0, 20.0),
         ps_db=(10.0, 20.0)):
    """Oblivious simplex relay vs relay power ratio at fixed source powers."""
    return _ROW_FIELDS, _oblivious_rows(ps_db, q_db, ratios, ("direct-2", "simplex-equal"))


def fig8(ps_db=tuple(_ps_grid()), q_db=(20.0,), ratios=(1.0,)):
    """Optimized-beta simplex relay vs the equal split and the MISO bound."""
    return _ROW_FIELDS, _oblivious_rows(
        ps_db, q_db, ratios, ("simplex-equal", "simplex-unequal-opt", "miso-equal"))


def fig9(ps_db=(0.0, 5.0, 10.0, 15.0, 20.0), q_db=(0.0, 5.0, 10.0, 20.0),
         ratios=(1.0,), blocks=100_000, seed=20_240_001, workers=1):
    """Full-duplex vs simplex relay by simulation, with the duplex condition."""
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        plan = oblivious_rate_plan(p_s)
        for q in q_db:
            for ratio in ratios:
                cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=_db2lin(q))
                verdict = twolayer.duplex_gain_condition(plan, cfg).verdict
                for strategy in ("simplex-equal", "full-duplex"):
                    est = simulate_strategy(
                        SimConfig(blocks=blocks, seed=seed, strategy=strategy,
                                  params=plan), cfg, workers=workers)
                    rows.append({"ps_db": db, "q_db": q, "pr_over_ps": ratio,
                                 "scheme": strategy, "throughput_nats": est.mean,
                                 "stderr_nats": est.stderr,
                                 "duplex_condition": verdict})
    return [*_ROW_FIELDS, "stderr_nats", "duplex_condition"], rows


PRESETS = {"fig2": fig2, "fig3": fig3, "fig4": fig4, "fig5": fig5,
           "fig6": fig6, "fig7": fig7, "fig8": fig8, "fig9": fig9}


def run_preset(name: str, **overrides):
    """Run preset ``name`` with ``overrides`` of its keyword parameters and
    return (fieldnames, rows, grid); ``grid`` holds every resolved parameter
    but ``workers``, for the run manifest."""
    if name not in PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; "
                         f"choose from {', '.join(sorted(PRESETS))}")
    bound = inspect.signature(PRESETS[name]).bind(**overrides)
    bound.apply_defaults()
    fields, rows = PRESETS[name](**bound.arguments)
    return fields, rows, {k: v for k, v in bound.arguments.items() if k != "workers"}
