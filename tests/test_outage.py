import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from relaycast import (PowerConfig, ergodic_miso_capacity,
                       miso_single_layer_throughput, optimal_single_user_rate,
                       sdf_single_layer_throughput, single_user_throughput,
                       y_sum_tail)
from relaycast.montecarlo import SimConfig, simulate_strategy


def mc_sum_tail(u, p_s, p_r, n=1_000_000, seed=5150):
    nu = -np.log1p(-np.random.default_rng(seed).random((n, 2)))
    hits = nu[:, 0] * p_s + nu[:, 1] * p_r > u
    return hits.mean(), hits.std(ddof=1) / math.sqrt(n)


def dense_decode_prob(r, eps, p_s, p_r, depth=60, sub=100):
    """_relay_aided_decode_prob by brute force: 20-point Gauss-Legendre on
    `sub` equal parts of each panel of a ladder halving toward 0 and eta down
    to 2^-depth eta (2 * depth * sub * 20 = 240,000 nodes)."""
    eta = math.expm1(r) / p_s
    steps = eta * 0.5 ** np.arange(depth, 0, -1)
    ladder = np.concatenate(([0.0], steps, eta - steps[-2::-1], [eta]))
    edges = np.concatenate([np.linspace(lo, hi, sub + 1)[:-1]
                            for lo, hi in zip(ladder[:-1], ladder[1:])] + [[eta]])
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)[:, None]
    v = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
    a = (r - eps * np.log1p(v * p_s)) / (1.0 - eps)
    need = np.expm1(np.minimum(a, 700.0)) - v * p_s
    f = np.where(a > 700.0, 0.0, np.exp(-np.maximum(need, 0.0) / p_r - v))
    return min(math.exp(-eta) + float(np.sum(half * w * f)), 1.0)


class TestYSumTail:
    def test_boundaries(self):
        assert y_sum_tail(0.0, 2.0, 1.0) == 1.0
        assert y_sum_tail(1e4, 2.0, 1.0) < 1e-300

    def test_unequal_power_value_and_oracle(self):
        want = (1.0 * math.exp(-1.0) - 2.0 * math.exp(-0.5)) / (1.0 - 2.0)
        assert want == pytest.approx(0.8452, abs=5e-5)
        assert y_sum_tail(1.0, 2.0, 1.0) == pytest.approx(want, abs=1e-15)
        mean, se = mc_sum_tail(1.0, 2.0, 1.0)
        assert abs(y_sum_tail(1.0, 2.0, 1.0) - mean) < 3 * se

    def test_equal_branch_matches_unequal_limit(self):
        for u in (0.3, 1.0, 4.0):
            exact = y_sum_tail(u, 1.0, 1.0)
            near = y_sum_tail(u, 1.0, 1.0 + 1e-7)  # just above the routing tolerance
            assert abs(near - exact) / exact < 1e-6

    def test_degenerate_powers(self):
        assert y_sum_tail(1.0, 2.0, 0.0) == pytest.approx(math.exp(-0.5))
        assert y_sum_tail(1.0, 0.0, 0.0) == 0.0

    @given(p_s=st.floats(0.1, 50.0), p_r=st.floats(0.1, 50.0))
    def test_nonincreasing_in_u(self, p_s, p_r):
        us = np.linspace(0.0, 20.0, 50)
        vals = [y_sum_tail(u, p_s, p_r) for u in us]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestSingleUser:
    def test_boundaries(self):
        assert single_user_throughput(0.0, 3.0).r_av == 0.0
        assert single_user_throughput(1.0, 1e12).r_av == pytest.approx(1.0, abs=1e-9)

    def test_frozen_value_and_oracle(self):
        want = math.exp(-(math.e - 1.0))
        res = single_user_throughput(1.0, 1.0)
        assert res.r_av == pytest.approx(want, abs=1e-15)
        nu = -np.log1p(-np.random.default_rng(99).random(1_000_000))
        hits = np.log1p(nu) > 1.0
        se = hits.std(ddof=1) / 1000.0
        assert abs(res.r_av - hits.mean()) < 3 * se


class TestOptimalRate:
    @staticmethod
    def bisect_root(p):
        lo, hi = 0.0, max(1.0, math.log(p) + 1.0)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_against_bisection_oracle(self):
        for p in (0.1, 1.0, math.e, 100.0, 5000.0):
            assert optimal_single_user_rate(p) == pytest.approx(
                self.bisect_root(p), abs=1e-10)

    def test_known_points(self):
        assert optimal_single_user_rate(math.e) == pytest.approx(1.0, abs=1e-12)
        assert optimal_single_user_rate(100.0) == pytest.approx(3.3856301402900497,
                                                                abs=1e-10)
        assert optimal_single_user_rate(1e-9) < 1e-8

    def test_maximizes_throughput(self):
        for p in (0.5, 10.0):
            r_star = optimal_single_user_rate(p)
            best = single_user_throughput(r_star, p).r_av
            for r in np.linspace(0.01, 3.0 * r_star, 200):
                assert single_user_throughput(float(r), p).r_av <= best + 1e-12


class TestSdfSingleLayer:
    def test_no_relay_branch(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=0.01)
        r = 1.0  # above log(1 + P_s Q) ~ 0.095
        assert sdf_single_layer_throughput(r, cfg).r_av == pytest.approx(
            single_user_throughput(r, cfg.p_s).r_av, abs=1e-15)

    def test_vanishing_listen_time_reaches_miso(self):
        # eps shrinks only like r / log(1 + P_s Q), so the limit is checked by
        # driving eps directly; a huge finite Q must approach from below
        from relaycast.outage import _relay_aided_decode_prob
        want = miso_single_layer_throughput(0.8, 5.0, 3.0).r_av
        p = _relay_aided_decode_prob(0.8, 1e-8, 5.0, 3.0)
        assert 0.8 * p == pytest.approx(want, abs=1e-6)
        via_q = sdf_single_layer_throughput(0.8, PowerConfig(p_s=5.0, p_r=3.0, q=1e12))
        assert want - 2e-3 < via_q.r_av < want

    def test_monte_carlo_oracle(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        res = sdf_single_layer_throughput(1.0, cfg)
        est = simulate_strategy(SimConfig(blocks=1_000_000, seed=17,
                                          strategy="single-layer-SDF", params=1.0), cfg)
        assert abs(res.r_av - est.mean) < 3 * est.stderr

    @pytest.mark.parametrize("eps", [0.2, 0.9, 0.999, 1.0 - 1e-7])
    def test_late_relay_matches_a_dense_reference(self, eps):
        # the later the relay joins, the closer to eta the integrand collapses
        from relaycast.outage import _relay_aided_decode_prob
        r, p_s, p_r = 1.5, 10.0, 5.0
        want = dense_decode_prob(r, eps, p_s, p_r)
        assert _relay_aided_decode_prob(r, eps, p_s, p_r) == pytest.approx(want, rel=1e-12)

    def test_large_threshold_keeps_the_mass_near_zero(self):
        # eta ~ 7e4: e^{-v} holds the integrand within a few units of 0,
        # which adaptive quad on panels that only halve toward eta missed
        # (it read 6.4e-16)
        from relaycast.outage import _relay_aided_decode_prob
        r, eps, p_s, p_r = 7.0, 0.011, 0.015, 1.2e5
        want = dense_decode_prob(r, eps, p_s, p_r)
        assert want > 0.99
        assert _relay_aided_decode_prob(r, eps, p_s, p_r) == pytest.approx(want, rel=1e-12)

    def test_scheme_ordering_and_q_monotonicity(self, param_rng):
        for _ in range(25):
            r = float(param_rng.uniform(0.1, 2.0))
            p_s = float(np.exp(param_rng.uniform(np.log(0.5), np.log(50))))
            p_r = float(np.exp(param_rng.uniform(np.log(0.5), np.log(50))))
            qs = [0.2, 2.0, 20.0, 200.0]
            vals = [sdf_single_layer_throughput(r, PowerConfig(p_s=p_s, p_r=p_r, q=q)).r_av
                    for q in qs]
            lo = single_user_throughput(r, p_s).r_av
            hi = miso_single_layer_throughput(r, p_s, p_r).r_av
            assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in vals)
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestMisoSingleLayer:
    def test_boundaries(self):
        assert miso_single_layer_throughput(0.0, 1.0, 1.0).r_av == 0.0
        want = single_user_throughput(0.9, 4.0).r_av
        assert miso_single_layer_throughput(0.9, 4.0, 0.0).r_av == pytest.approx(want)

    def test_equal_power_value(self):
        # (1 + (e-1)) * exp(-(e-1)) evaluated by the equal-power tail branch
        want = (1.0 + (math.e - 1.0)) * math.exp(-(math.e - 1.0))
        res = miso_single_layer_throughput(1.0, 1.0, 1.0)
        assert res.r_av == pytest.approx(want, abs=1e-15)
        mean, se = mc_sum_tail(math.e - 1.0, 1.0, 1.0, seed=31)
        assert abs(res.r_av - mean) < 3 * se


class TestErgodicMiso:
    def test_boundaries(self):
        assert ergodic_miso_capacity(0.0, 0.0) == 0.0

    def test_single_antenna_closed_form(self):
        assert ergodic_miso_capacity(1.0, 0.0) == pytest.approx(
            math.e * special.exp1(1.0), abs=1e-9)

    def test_monte_carlo_oracle(self):
        nu = -np.log1p(-np.random.default_rng(12).random((1_000_000, 2)))
        vals = np.log1p(10.0 * nu[:, 0] + 10.0 * nu[:, 1])
        se = vals.std(ddof=1) / 1000.0
        assert abs(ergodic_miso_capacity(10.0, 10.0) - vals.mean()) < 3 * se

    def test_dominates_single_layer_optimum(self):
        for p in (1.0, 10.0):
            r = optimal_single_user_rate(p)
            assert ergodic_miso_capacity(p, p) > miso_single_layer_throughput(r, p, p).r_av
