"""Property checks over the documented domain: the two-layer closed forms
at alpha, beta in [0, 1] with their end points, eta1 <= eta2 with equality,
P_r = 0, P_s from -20 dB to 80 dB and Q from -20 dB to 80 dB; the
single-layer schemes and bounds of the CLI at P_s from -20 dB to 80 dB,
P_r/P_s from 0 to 1e7 and any Q."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from relaycast import PowerConfig, TwoLayerAllocation, figures
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
