import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaycast import (DecodingTimes, PowerConfig, ThroughputResult,
                       TwoLayerAllocation, decoding_times, layer_rates)


def test_power_config_rejects_bad_values():
    with pytest.raises(ValueError):
        PowerConfig(p_s=-1.0, p_r=0.0, q=0.0)
    with pytest.raises(ValueError):
        PowerConfig(p_s=math.nan, p_r=1.0, q=1.0)


def test_allocation_validation():
    with pytest.raises(ValueError):
        TwoLayerAllocation(alpha=1.2, eta1=0.1, eta2=0.2)
    with pytest.raises(ValueError):
        TwoLayerAllocation(alpha=0.5, eta1=0.5, eta2=0.2)
    a = TwoLayerAllocation(alpha=0.3, eta1=0.1, eta2=0.2)
    assert a.beta == 0.3  # equal split by default
    assert a.with_beta(0.7).beta == 0.7


def test_decoding_times_ordering_validation():
    with pytest.raises(ValueError):
        DecodingTimes(eps1=0.8, eps2=0.5)


def test_unit_mean_and_exponential_tail():
    # the inverse-CDF mapping -log(1 - u) of the Monte-Carlo fading stream
    u = np.random.Generator(np.random.Philox(key=123)).random((1_000_000, 2))
    nu_s = -np.log1p(-u[:, 0])
    assert abs(nu_s.mean() - 1.0) < 0.005
    assert abs((nu_s > 1.0).mean() - math.exp(-1.0)) < 0.002


class TestLayerRates:
    def test_direct_evaluation(self):
        r1, r2 = layer_rates(TwoLayerAllocation(alpha=0.5, eta1=1.0, eta2=2.0), 10.0)
        assert r1 == pytest.approx(math.log(11.0 / 6.0), abs=1e-12)
        assert r2 == pytest.approx(math.log(11.0), abs=1e-12)

    def test_degenerate_allocations(self):
        r1, r2 = layer_rates(TwoLayerAllocation(alpha=1.0, eta1=0.7, eta2=2.0), 5.0)
        assert r2 == 0.0 and r1 == pytest.approx(math.log1p(0.7 * 5.0))
        r1, _ = layer_rates(TwoLayerAllocation(alpha=0.4, eta1=0.0, eta2=1.0), 5.0)
        assert r1 == 0.0

    @given(alpha=st.floats(0.0, 1.0), eta1=st.floats(0.0, 3.0),
           gap=st.floats(0.0, 3.0), p_s=st.floats(0.0, 200.0))
    def test_rates_nonnegative(self, alpha, eta1, gap, p_s):
        alloc = TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta1 + gap)
        r1, r2 = layer_rates(alloc, p_s)
        assert r1 >= 0.0 and r2 >= 0.0

    def test_monotone_in_thresholds_and_alpha(self):
        p_s = 10.0
        etas = np.linspace(0.0, 2.0, 40)
        r1s = [layer_rates(TwoLayerAllocation(alpha=0.6, eta1=e, eta2=2.5), p_s)[0]
               for e in etas]
        r2s = [layer_rates(TwoLayerAllocation(alpha=0.6, eta1=0.0, eta2=e), p_s)[1]
               for e in etas]
        assert np.all(np.diff(r1s) >= 0) and np.all(np.diff(r2s) >= 0)
        r2_by_alpha = [layer_rates(TwoLayerAllocation(alpha=a, eta1=0.1, eta2=1.0), p_s)[1]
                       for a in np.linspace(0.0, 1.0, 40)]
        assert np.all(np.diff(r2_by_alpha) <= 1e-15)


class TestDecodingTimes:
    def test_direct_evaluation(self):
        # R1 = 0.5 needs eta1 solving log((1+e1*P)/(1+e1*ab*P)) = 0.5 at alpha=0.5;
        # instead check against an allocation whose r1 comes out near 0.5
        alloc = TwoLayerAllocation(alpha=0.5, eta1=1.0, eta2=1.0)
        cfg = PowerConfig(p_s=1.0, p_r=1.0, q=10.0)
        r1, _ = layer_rates(alloc, cfg.p_s)
        t = decoding_times(alloc, cfg)
        assert t.eps1 == pytest.approx(r1 / math.log(11.0 / 6.0), rel=1e-12)

    def test_spec_value(self):
        # denominator log(1 + Q a P/(1+Q ab P)) = log(11/6) at Q=10, P=1, a=0.5;
        # a rate of 0.5 nats then needs 82.5% of the block
        assert 0.5 / math.log(11.0 / 6.0) == pytest.approx(0.825, abs=5e-4)

    def test_large_q_limit_stays_positive(self):
        alloc = TwoLayerAllocation(alpha=0.6, eta1=0.4, eta2=1.5)
        r1, _ = layer_rates(alloc, 10.0)
        limit = r1 / math.log(1.0 / alloc.alpha_bar)
        eps_hi = decoding_times(alloc, PowerConfig(p_s=10.0, p_r=1.0, q=1e9)).eps1
        assert eps_hi == pytest.approx(limit, rel=1e-6)
        assert limit > 0.0

    def test_single_layer_collapse(self):
        alloc = TwoLayerAllocation(alpha=1.0, eta1=0.5, eta2=0.5)
        cfg = PowerConfig(p_s=2.0, p_r=1.0, q=5.0)
        r1, _ = layer_rates(alloc, cfg.p_s)
        t = decoding_times(alloc, cfg)
        assert t.eps1 == pytest.approx(min(1.0, r1 / math.log1p(cfg.q * cfg.p_s)))

    def test_degenerate_relay_cannot_decode(self):
        alloc = TwoLayerAllocation(alpha=0.5, eta1=0.5, eta2=1.0)
        t = decoding_times(alloc, PowerConfig(p_s=2.0, p_r=1.0, q=0.0))
        assert t == DecodingTimes(eps1=1.0, eps2=1.0)

    def test_ordering_holds_over_draws(self, param_rng):
        from conftest import draw_alloc, draw_powers
        for _ in range(200):
            t = decoding_times(draw_alloc(param_rng), draw_powers(param_rng))
            assert 0.0 <= t.eps1 <= t.eps2 <= 1.0


@given(r1=st.floats(0.0, 5.0), r2=st.floats(0.0, 5.0),
       p1=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0))
def test_throughput_result_identity(r1, r2, p1, frac):
    res = ThroughputResult.build(r1, r2, p1, frac * p1)
    assert 0.0 <= res.p_both <= res.p_layer1 <= 1.0
    assert res.r_av == pytest.approx(res.r1 * res.p_layer1 + res.r2 * res.p_both,
                                     abs=1e-12)
    assert res.r_av <= res.r1 + res.r2 + 1e-12
