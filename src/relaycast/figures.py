"""Preset CSV sweeps (figure subcommand).

Each preset returns (fieldnames, rows, grid) where ``grid`` echoes the
resolved parameter grid for the run manifest.  Every preset exposes its
grid as overridable defaults; rates are nats/channel use, powers dB.
"""

from __future__ import annotations

import math

import numpy as np

from . import broadcast, twolayer
from .model import PowerConfig
from .montecarlo import SimConfig, simulate_strategy
from .optimize import (_coordinate_ascent, maximize_throughput,
                       miso_single_layer_rate, oblivious_rate_plan)
from .outage import (ergodic_miso_capacity, miso_single_layer_throughput,
                     optimal_single_user_rate, single_user_throughput, y_sum_tail)

__all__ = ["PRESETS", "run_preset"]


def _db2lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _ps_grid(start=0.0, stop=25.0, step=2.5) -> list[float]:
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1)]


def _refined_layered(p_s: float, tail, n_layers: int, density, dist) -> float:
    """Quantize the continuous profile into n layers and polish it by four
    coordinate golden-section passes over thresholds and residual fractions."""
    thresholds, fractions = twolayer.discretize_power_density(density, dist, n_layers)
    resids = np.clip(1.0 - np.cumsum(fractions), 0.0, 1.0)
    # the point: n thresholds, then the power fractions left after each of the
    # first n - 1 layers; the fraction left after the last layer is 0
    n, last = n_layers, 2 * n_layers - 2

    def rate(x) -> float:
        total, prev = 0.0, 1.0
        for i in range(n):
            eta, r_i = x[i], (x[n + i] if i < n - 1 else 0.0)
            total += (math.log1p(eta * prev * p_s) - math.log1p(eta * r_i * p_s)) * tail(eta)
            prev = r_i
        return total

    def bounds(i: int, x) -> tuple[float, float]:
        if i < n:  # a threshold stays between its neighbours
            return (x[i - 1] if i else 1e-6,
                    x[i + 1] if i < n - 1 else max(4.0, x[i] * 2.0))
        return (x[i + 1] if i < last else 0.0, x[i - 1] if i > n else 1.0)

    x0 = [*thresholds, *resids[:-1]]
    return _coordinate_ascent(rate, (rate(x0), x0), range(last + 1), bounds,
                              max_passes=4)[0]


def fig2(ps_db=None, ratios=(0.5, 1.0, 2.0), **_):
    """Continuous broadcasting bounds and single-layer rates vs source power."""
    ps_db = ps_db or _ps_grid()
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        r_siso_bc = broadcast.siso_broadcast_rate(p_s)
        r_su = single_user_throughput(optimal_single_user_rate(p_s), p_s).r_av
        for ratio in ratios:
            p_r = ratio * p_s
            cfg = PowerConfig(p_s=p_s, p_r=p_r, q=1.0)
            for scheme, value in (
                ("continuous-relay", broadcast.relay_or_miso_broadcast_bound(cfg, "relay")),
                ("continuous-miso", broadcast.relay_or_miso_broadcast_bound(cfg, "miso")),
                ("continuous-siso", r_siso_bc),
                ("single-layer-miso", miso_single_layer_throughput(
                    miso_single_layer_rate(p_s, p_r), p_s, p_r).r_av),
                ("single-layer-siso", r_su),
            ):
                rows.append({"ps_db": db, "pr_over_ps": ratio, "scheme": scheme,
                             "throughput_nats": value})
    return ["ps_db", "pr_over_ps", "scheme", "throughput_nats"], rows, \
        {"ps_db": ps_db, "ratios": list(ratios)}


def fig3(ps_db=None, **_):
    """SISO: optimal 1-, 2-, 8-layer and continuous broadcasting rates."""
    ps_db = ps_db or _ps_grid()
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        density, dist, _ = broadcast.continuous_layering(
            PowerConfig(p_s=p_s, p_r=0.0, q=1.0), "siso")
        plan = oblivious_rate_plan(p_s, 2)
        values = {
            1: single_user_throughput(optimal_single_user_rate(p_s), p_s).r_av,
            2: twolayer.direct_multilayer_throughput(
                (plan.eta1, plan.eta2), (plan.alpha, plan.alpha_bar), p_s).r_av,
            8: _refined_layered(p_s, lambda eta: math.exp(-eta), 8, density, dist),
        }
        for n, value in values.items():
            rows.append({"ps_db": db, "scheme": f"direct-{n}-layer", "n_layers": n,
                         "throughput_nats": value})
        rows.append({"ps_db": db, "scheme": "continuous-siso", "n_layers": 0,
                     "throughput_nats": broadcast.broadcast_rate(density, dist)})
    return ["ps_db", "scheme", "n_layers", "throughput_nats"], rows, {"ps_db": ps_db}


def fig4(ps_db=None, ratios=(0.5, 1.0, 2.0), **_):
    """2x1 MISO: equal/unequal layering for N = 1, 2, 8, continuous, ergodic."""
    ps_db = ps_db or _ps_grid(step=5.0)
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        for ratio in ratios:
            p_r = ratio * p_s
            cfg = PowerConfig(p_s=p_s, p_r=p_r, q=1.0)
            density, dist, _ = broadcast.continuous_layering(cfg, "miso")
            eq2 = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                      coarse_points=24)
            uneq2 = maximize_throughput("miso-unequal",
                                        ("alpha", "beta", "eta1", "eta2"), {}, cfg,
                                        coarse_points=12)
            entries = (
                ("miso-1-layer", 1, miso_single_layer_throughput(
                    miso_single_layer_rate(p_s, p_r), p_s, p_r).r_av),
                ("miso-2-equal", 2, eq2.value),
                ("miso-2-unequal", 2, uneq2.value),
                ("miso-8-equal", 8, _refined_layered(
                    p_s, lambda eta: y_sum_tail(eta * p_s, p_s, p_r), 8, density, dist)),
                ("continuous-miso", 0, broadcast.broadcast_rate(density, dist)),
                ("ergodic-miso", 0, ergodic_miso_capacity(p_s, p_r)),
            )
            for scheme, n, value in entries:
                rows.append({"ps_db": db, "pr_over_ps": ratio, "scheme": scheme,
                             "n_layers": n, "throughput_nats": value})
    return ["ps_db", "pr_over_ps", "scheme", "n_layers", "throughput_nats"], rows, \
        {"ps_db": ps_db, "ratios": list(ratios)}


def fig5(pr_db=None, ps_db=(40.0,), **_):
    """MISO equal vs unequal layering as the relay power varies."""
    pr_db = pr_db or _ps_grid(0.0, 40.0, 4.0)
    rows = []
    for ps in ps_db:
        p_s = _db2lin(ps)
        for db in pr_db:
            cfg = PowerConfig(p_s=p_s, p_r=_db2lin(db), q=1.0)
            eq2 = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                      coarse_points=24)
            uneq2 = maximize_throughput("miso-unequal", ("alpha", "beta", "eta1", "eta2"),
                                        {}, cfg, coarse_points=12)
            for scheme, value in (("miso-2-equal", eq2.value),
                                  ("miso-2-unequal", uneq2.value)):
                rows.append({"pr_db": db, "ps_db": ps, "scheme": scheme,
                             "throughput_nats": value})
    return ["pr_db", "ps_db", "scheme", "throughput_nats"], rows, \
        {"pr_db": pr_db, "ps_db": list(ps_db)}


def _oblivious_rows(ps_db, q_db_list, ratios, schemes):
    """Rows of the oblivious relay figures and of ``sweep``.

    ``schemes`` holds "direct-2", "simplex-unequal-opt" (beta >= alpha
    searched per relay setting) or twolayer.CLOSED_FORMS names.  The source
    plan depends only on P_s and is reused across relay parameters, and so is
    the direct rate, which ignores the relay.
    """
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        plan = oblivious_rate_plan(p_s, 2)
        direct = None
        for q_db in q_db_list:
            for ratio in ratios:
                cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=_db2lin(q_db))
                for scheme in schemes:
                    if scheme == "simplex-unequal-opt":
                        value = maximize_throughput(
                            "simplex-unequal", ("beta",),
                            {"alpha": plan.alpha, "eta1": plan.eta1, "eta2": plan.eta2},
                            cfg, coarse_points=12).value
                    elif scheme == "direct-2":
                        if direct is None:
                            direct = twolayer.CLOSED_FORMS["direct"](plan, cfg).r_av
                        value = direct
                    else:
                        value = twolayer.CLOSED_FORMS[scheme](plan, cfg).r_av
                    rows.append({"ps_db": db, "q_db": q_db, "pr_over_ps": ratio,
                                 "scheme": scheme, "throughput_nats": value})
    return rows


def fig6(ps_db=None, q_db=(15.0, 20.0), ratios=(1.0,), **_):
    """Oblivious simplex relay vs direct transmission over P_s and Q."""
    ps_db = ps_db or _ps_grid()
    rows = _oblivious_rows(ps_db, q_db, ratios, ("direct-2", "simplex-equal"))
    return ["ps_db", "q_db", "pr_over_ps", "scheme", "throughput_nats"], rows, \
        {"ps_db": ps_db, "q_db": list(q_db), "ratios": list(ratios)}


def fig7(ratios=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0), q_db=(10.0, 20.0),
         ps_db=(10.0, 20.0), **_):
    """Oblivious simplex relay vs relay power ratio at fixed source powers."""
    rows = _oblivious_rows(ps_db, q_db, ratios, ("direct-2", "simplex-equal"))
    return ["ps_db", "q_db", "pr_over_ps", "scheme", "throughput_nats"], rows, \
        {"ps_db": list(ps_db), "q_db": list(q_db), "ratios": list(ratios)}


def fig8(ps_db=None, q_db=(20.0,), ratios=(1.0,), **_):
    """Optimized-beta simplex relay vs the equal split and the MISO bound."""
    ps_db = ps_db or _ps_grid()
    rows = _oblivious_rows(ps_db, q_db, ratios,
                           ("simplex-equal", "simplex-unequal-opt", "miso-equal"))
    return ["ps_db", "q_db", "pr_over_ps", "scheme", "throughput_nats"], rows, \
        {"ps_db": ps_db, "q_db": list(q_db), "ratios": list(ratios)}


def fig9(ps_db=(0.0, 5.0, 10.0, 15.0, 20.0), q_db=(0.0, 5.0, 10.0, 20.0),
         ratios=(1.0,), blocks=100_000, seed=20_240_001, workers=1, **_):
    """Full-duplex vs simplex relay by simulation, with the duplex condition."""
    rows = []
    for db in ps_db:
        p_s = _db2lin(db)
        plan = oblivious_rate_plan(p_s, 2)
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
    fields = ["ps_db", "q_db", "pr_over_ps", "scheme", "throughput_nats",
              "stderr_nats", "duplex_condition"]
    return fields, rows, {"ps_db": list(ps_db), "q_db": list(q_db),
                          "ratios": list(ratios), "blocks": blocks, "seed": seed}


PRESETS = {"fig2": fig2, "fig3": fig3, "fig4": fig4, "fig5": fig5,
           "fig6": fig6, "fig7": fig7, "fig8": fig8, "fig9": fig9}


def run_preset(name: str, **overrides):
    if name not in PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; "
                         f"choose from {', '.join(sorted(PRESETS))}")
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    return PRESETS[name](**kwargs)
