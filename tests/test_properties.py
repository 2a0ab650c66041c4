"""Property checks of the two-layer closed forms over the documented domain:
alpha, beta in [0, 1] with their end points, eta1 <= eta2 with equality,
P_r = 0, P_s from -20 dB to 80 dB and Q from -20 dB to 80 dB."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from relaycast import PowerConfig, TwoLayerAllocation
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
