"""Property checks over the documented domain: the two-layer closed forms
at alpha, beta in [0, 1] with their end points, eta1 <= eta2 with equality,
P_r = 0, P_s from -20 dB to 80 dB and Q from -20 dB to 80 dB; the
single-layer schemes and bounds of the CLI at P_s from -20 dB to 80 dB,
P_r/P_s from 0 to 1e7 and any Q; continuous-miso rising with P_r up to
P_r/P_s = 1e12, between the single-layer and ergodic MISO rates; and the
exact 8-layer plans of fig3/fig4 at P_s from -20 dB to 80 dB; and the
direct and miso-equal searches over all thresholds, which are the exact
two-layer plan wherever its thresholds lie, and never end below the coarse
eta <= 4 grid that the plan path does not score."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scalar_grid_best
from relaycast import (PowerConfig, TwoLayerAllocation, broadcast, figures, optimize,
                       maximize_throughput, miso_equal_throughput, oblivious_rate_plan)
from relaycast.twolayer import CLOSED_FORMS

# exact end points first, so every run draws the degenerate plans
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
ETA = st.floats(0.0, 5.0)
GAP = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


def _from_db(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda db: 10.0 ** (db / 10.0))


POWERS = st.builds(PowerConfig, p_s=_from_db(-20.0, 80.0),
                   p_r=st.one_of(st.just(0.0), _from_db(-20.0, 80.0)),
                   q=_from_db(-20.0, 80.0))


@st.composite
def plans(draw, scheme: str) -> TwoLayerAllocation:
    alpha = draw(UNIT)
    if scheme == "miso-unequal":
        beta = draw(UNIT)
    elif scheme == "simplex-unequal":
        beta = min(alpha + draw(UNIT) * (1.0 - alpha), 1.0)
    else:
        beta = alpha
    eta1 = draw(ETA)
    return TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta1 + draw(GAP), beta=beta)


@pytest.mark.parametrize("scheme", sorted(CLOSED_FORMS))
def test_closed_form_is_finite_and_within_the_layer_rates(scheme):
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alloc=plans(scheme), cfg=POWERS)
    def check(alloc, cfg):
        res = CLOSED_FORMS[scheme](alloc, cfg)
        assert math.isfinite(res.r_av)
        assert 0.0 <= res.r_av <= res.r1 + res.r2

    check()


# P_r/P_s: 0, 1e7 and -30..70 dB
RATIO = st.one_of(st.sampled_from([0.0, 1e7]), _from_db(-30.0, 70.0))
RATIO_POWERS = st.builds(lambda p_s, ratio, q: PowerConfig(p_s=p_s, p_r=ratio * p_s, q=q),
                         _from_db(-20.0, 80.0), RATIO, _from_db(-20.0, 80.0))


@pytest.mark.filterwarnings("ignore:upper layering boundary:UserWarning")
@pytest.mark.parametrize("scheme", sorted(figures._SINGLE_LAYER) + sorted(figures._BOUNDS))
def test_single_layer_and_bound_values_are_finite_or_raise(scheme):
    # a single-layer value lies in [0, its rate], a bound's in [0, inf);
    # a ValueError is the one other outcome allowed
    evaluated = 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=RATIO_POWERS)
    def check(cfg):
        nonlocal evaluated
        try:
            if scheme in figures._BOUNDS:
                value, ceiling = figures._BOUNDS[scheme](cfg), math.inf
            else:
                default_rate, throughput = figures._SINGLE_LAYER[scheme]
                ceiling = default_rate(cfg)
                value = throughput(ceiling, cfg).r_av
        except ValueError:
            return
        evaluated += 1
        assert math.isfinite(value)
        assert 0.0 <= value <= ceiling

    check()
    assert evaluated > 0


@pytest.mark.parametrize("ps_db", [-20.0, 0.0, 20.0, 80.0])
def test_continuous_miso_does_not_decrease_in_relay_power(ps_db):
    # P_r/P_s from 1e3 to 1e12 in half decades, where the upper layering
    # boundary, about P_r/P_s, reaches 1e12; and at each ratio the bound lies
    # between the single-layer MISO rate and the ergodic MISO capacity
    p_s = 10.0 ** (ps_db / 10.0)
    cfgs = [PowerConfig(p_s, 10.0 ** (e / 2) * p_s, 1.0) for e in range(6, 25)]
    values = [figures._throughput("continuous-miso", cfg) for cfg in cfgs]
    assert all(b >= a for a, b in zip(values, values[1:])), values
    for cfg, value in zip(cfgs, values):
        assert (figures._throughput("miso-single", cfg) <= value
                <= figures._throughput("ergodic-miso", cfg)), cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ps_db=st.one_of(st.sampled_from([-20.0, 80.0]), st.floats(-20.0, 80.0)),
       ratio=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_eight_layer_plans_are_ordered_and_bracketed(ps_db, ratio):
    # fig3's plan at P_r = 0, fig4's otherwise: finite, thresholds rising,
    # residual power fractions falling inside (0, 1), and a value between the
    # optimal 2-layer value and the continuous bound
    p_s = 10.0 ** (ps_db / 10.0)
    cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0)
    density, dist, _ = broadcast.continuous_layering(cfg, "miso" if ratio else "siso")
    thresholds, fractions = figures._eight_layer_plan(cfg, density)
    residuals, resid = [], 1.0
    for f in fractions[:-1]:
        resid -= f
        residuals.append(resid)
    value = miso_equal_throughput(thresholds, fractions, p_s, cfg.p_r).r_av
    assert all(map(math.isfinite, [*thresholds, *fractions, value]))
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    assert all(a > b for a, b in zip([1.0, *residuals], [*residuals, 0.0]))
    if ratio:
        two = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                  coarse_points=24).value
    else:
        two = CLOSED_FORMS["direct"](oblivious_rate_plan(p_s), cfg).r_av
    assert two <= value <= broadcast.broadcast_rate(density, dist)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scheme=st.sampled_from(["direct", "miso-equal"]),
       ps_db=st.one_of(st.sampled_from([-20.0, 80.0]), st.floats(-20.0, 80.0)),
       ratio=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4]),
       coarse=st.sampled_from([1, 2, 3, 6, 10, 12, 24]))
def test_all_threshold_searches_are_the_exact_plan(scheme, ps_db, ratio, coarse):
    # a search over (alpha, eta1, eta2) returns the exact two-layer plan on
    # its plan path, with no grid, wherever the plan's thresholds lie (the
    # MISO ones pass eta = 4 at P_r/P_s >= 4 and low P_s, and at every P_s
    # from P_r/P_s = 100), and it never ends below the coarse eta <= 4 grid,
    # scored on the scalar kernel
    p_s = 10.0 ** (ps_db / 10.0)
    cfg = PowerConfig(p_s, ratio * p_s, 1.0)
    with mock.patch.object(optimize.log, "debug") as debug:
        res = maximize_throughput(scheme, ("alpha", "eta1", "eta2"), {}, cfg,
                                  coarse_points=coarse)
    plan, _ = optimize._two_layer_plan(p_s, cfg.p_r if scheme == "miso-equal" else 0.0)
    assert [res.params[name] for name in ("alpha", "alpha", "eta1", "eta2")] == plan
    [line] = [c.args[0] % c.args[1:] for c in debug.call_args_list
              if c.args[0].startswith("maximize_throughput")]
    assert " plan value=" in line
    assert math.isfinite(res.value) and res.value >= scalar_grid_best(scheme, cfg, coarse)
