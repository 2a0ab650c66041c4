import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from conftest import dense_decode_prob
from relaycast import (PowerConfig, ThroughputResult, ergodic_miso_capacity,
                       miso_single_layer_throughput, optimal_single_user_rate,
                       sdf_single_layer_throughput, single_user_throughput,
                       y_sum_tail)
from relaycast.montecarlo import SimConfig, simulate_strategy
from relaycast.outage import _layer_tail_terms


def mc_sum_tail(u, p_s, p_r, n=1_000_000, seed=5150):
    nu = -np.log1p(-np.random.default_rng(seed).random((n, 2)))
    hits = nu[:, 0] * p_s + nu[:, 1] * p_r > u
    return hits.mean(), hits.std(ddof=1) / math.sqrt(n)


# (P_r/P_s, eta, T, T') of the layer tail T(eta) = P(nu_s + rho nu_r > eta) near
# equal powers, by 40-digit mpmath at the float rho: with w = (e^{-eta/rho} -
# e^{-eta})/(rho - 1), T = e^{-eta} + rho w and T' = -w
NEAR_EQUAL_TAILS = [
    (1.0 + 1e-15, 1e-3, 0.99999950033320837, -0.0009990004998333739),
    (1.0 + 1e-15, 0.1, 0.99532115983955554, -0.090483741803595866),
    (1.0 + 1e-15, 1.0, 0.73575888234288485, -0.36787944117144212),
    (1.0 + 1e-15, 4.0, 0.091578194443671064, -0.073262555554936803),
    (1.0 + 1e-15, 30.0, 2.9008631203405009e-12, -2.807286890652096e-12),
    (1.0 + 1e-12, 1e-3, 0.99999950033320837, -0.00099900049983237642),
    (1.0 + 1e-12, 0.1, 0.99532115983956005, -0.090483741803509995),
    (1.0 + 1e-12, 1.0, 0.7357588823430686, -0.36787944117125837),
    (1.0 + 1e-12, 4.0, 0.09157819444381744, -0.07326255555500999),
    (1.0 + 1e-12, 30.0, 2.9008631203825672e-12, -2.8072868906913579e-12),
    (1.0 + 5e-9, 1e-3, 0.99999950033321086, -0.00099900049484087007),
    (1.0 + 5e-9, 0.1, 0.99532115986217647, -0.090483741373798193),
    (1.0 + 5e-9, 1.0, 0.73575888326258324, -0.36787944025174373),
    (1.0 + 5e-9, 4.0, 0.091578195176296454, -0.073262555921249496),
    (1.0 + 5e-9, 30.0, 2.9008633308869791e-12, -2.807287087162142e-12),
    (1.0 + 1.5e-8, 1e-3, 0.99999950033321586, -0.00099900048485586033),
    (1.0 + 1.5e-8, 0.1, 0.99532115990741833, -0.090483740514202667),
    (1.0 + 1.5e-8, 1.0, 0.73575888510198041, -0.36787943841234654),
    (1.0 + 1.5e-8, 4.0, 0.091578196641547566, -0.073262556653875042),
    (1.0 + 1.5e-8, 30.0, 2.900863751980086e-12, -2.8072874801823723e-12),
    (1.0 + 1e-7, 1e-3, 0.99999950033325832, -0.00099900039998328498),
    (1.0 + 1e-7, 0.1, 0.9953211602919742, -0.090483733207641301),
    (1.0 + 1e-7, 1.0, 0.73575890073685549, -0.36787942277747087),
    (1.0 + 1e-7, 4.0, 0.091578209096182509, -0.073262562881192037),
    (1.0 + 1e-7, 30.0, 2.9008673312745824e-12, -2.8072908208570984e-12),
    (1.0 + 1e-5, 1e-3, 0.99999950033820332, -0.00099899051492317828),
    (1.0 + 1e-5, 0.1, 0.9953212050809891, -0.090482882216207362),
    (1.0 + 1e-5, 1.0, 0.73576072172782794, -0.36787760178036779),
    (1.0 + 1e-5, 4.0, 0.091579659699666131, -0.073263288178050166),
    (1.0 + 1e-5, 30.0, 2.9012842512747859e-12, -2.8076799447869361e-12),
    (1.0 - 1e-15, 1e-3, 0.99999950033320837, -0.00099900049983337601),
    (1.0 - 1e-15, 0.1, 0.99532115983955553, -0.090483741803596048),
    (1.0 - 1e-15, 1.0, 0.73575888234288446, -0.36787944117144251),
    (1.0 - 1e-15, 4.0, 0.091578194443670755, -0.073262555554936648),
    (1.0 - 1e-15, 30.0, 2.9008631203404121e-12, -2.8072868906520131e-12),
    (1.0 - 1e-12, 1e-3, 0.99999950033320837, -0.00099900049983437349),
    (1.0 - 1e-12, 0.1, 0.99532115983955101, -0.090483741803681919),
    (1.0 - 1e-12, 1.0, 0.73575888234270071, -0.36787944117162626),
    (1.0 - 1e-12, 4.0, 0.09157819444352438, -0.07326255555486346),
    (1.0 - 1e-12, 30.0, 2.9008631202983458e-12, -2.8072868906127512e-12),
    (1.0 - 5e-9, 1e-3, 0.99999950033320587, -0.00099900050482588),
    (1.0 - 5e-9, 0.1, 0.99532115981693459, -0.090483742233393735),
    (1.0 - 5e-9, 1.0, 0.73575888142318604, -0.36787944209114092),
    (1.0 - 5e-9, 4.0, 0.091578193711045352, -0.073262555188623945),
    (1.0 - 5e-9, 30.0, 2.9008629097939481e-12, -2.8072866941419797e-12),
    (1.0 - 1.5e-8, 1e-3, 0.99999950033320087, -0.00099900051481089025),
    (1.0 - 1.5e-8, 0.1, 0.99532115977169272, -0.090483743092989303),
    (1.0 - 1.5e-8, 1.0, 0.7357588795837888, -0.36787944393053815),
    (1.0 - 1.5e-8, 4.0, 0.091578192245794243, -0.073262554455998381),
    (1.0 - 1.5e-8, 30.0, 2.9008624887009882e-12, -2.807286301121881e-12),
    (1.0 - 1e-7, 1e-3, 0.99999950033315842, -0.0009990005996834849),
    (1.0 - 1e-7, 0.1, 0.99532115938713678, -0.090483750399552245),
    (1.0 - 1e-7, 1.0, 0.73575886394891137, -0.36787945956541498),
    (1.0 - 1e-7, 4.0, 0.091578179791160287, -0.073262548228680925),
    (1.0 - 1e-7, 30.0, 2.9008589094139102e-12, -2.8072829604538044e-12),
    (1.0 - 1e-5, 1e-3, 0.99999950032821331, -0.00099901048494317197),
    (1.0 - 1e-5, 0.1, 0.99532111459724729, -0.090484601407301787),
    (1.0 - 1e-5, 1.0, 0.73575704293341607, -0.36788128057477948),
    (1.0 - 1e-5, 4.0, 0.091576729197444029, -0.073261822926939114),
    (1.0 - 1e-5, 30.0, 2.9004420652028732e-12, -2.8068939044535159e-12),
]


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
        # near rho = 1 a difference of exponentials cancels, and (1 + eta)e^{-eta}
        # is off by up to 7e-8 at these gaps: the law must hold 1e-13 at every
        # rho != 1.  |T'| stays above 2e-12, so one relative bound serves T' too
        for rho, eta, t, t1 in NEAR_EQUAL_TAILS:
            got = _layer_tail_terms(1.0, rho)(eta)
            assert got[0] == pytest.approx(t, rel=1e-13), (rho, eta)
            assert got[1] == pytest.approx(t1, rel=1e-13), (rho, eta)
            assert y_sum_tail(eta, 1.0, rho) == pytest.approx(t, rel=1e-13), (rho, eta)

    def test_degenerate_powers(self):
        assert y_sum_tail(1.0, 2.0, 0.0) == pytest.approx(math.exp(-0.5))
        assert y_sum_tail(1.0, 0.0, 0.0) == 0.0
        assert y_sum_tail(0.0, 0.0, 0.0) == y_sum_tail(-1.0, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0])
    def test_negative_powers_raise_at_every_u(self, u):
        # the powers are checked before the u <= 0 shortcut
        for p_s, p_r in ((-1.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                y_sum_tail(u, p_s, p_r)

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

    def test_matches_scipy_lambertw(self):
        # Halley's iteration against scipy's W0 over -20..80 dB
        for db in np.linspace(-20.0, 80.0, 401):
            p = 10.0 ** (db / 10.0)
            assert optimal_single_user_rate(p) == pytest.approx(
                special.lambertw(p).real, rel=1e-15)

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
        # eps shrinks only like r / log(1 + P_s Q) (no finite Q reaches 1e-8),
        # so a huge finite Q must approach the MISO limit from below
        want = miso_single_layer_throughput(0.8, 5.0, 3.0).r_av
        via_q = sdf_single_layer_throughput(0.8, PowerConfig(p_s=5.0, p_r=3.0, q=1e12))
        assert want - 2e-3 < via_q.r_av < want

    def test_monte_carlo_oracle(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        res = sdf_single_layer_throughput(1.0, cfg)
        est = simulate_strategy(SimConfig(blocks=1_000_000, seed=17,
                                          strategy="single-layer-SDF", params=1.0), cfg)
        assert abs(res.r_av - est.mean) < 3 * est.stderr

    @staticmethod
    def decode_prob_and_reference(r, eps, p_s, p_r):
        """p_layer1 with the listen time set to eps through Q, and the dense
        reference at the listen time that Q gives."""
        cfg = PowerConfig(p_s=p_s, p_r=p_r, q=math.expm1(r / eps) / p_s)
        got = sdf_single_layer_throughput(r, cfg).p_layer1
        return got, dense_decode_prob(r, r / math.log1p(p_s * cfg.q), p_s, p_r)

    @pytest.mark.parametrize("eps", [0.2, 0.9, 0.999, 1.0 - 1e-7])
    def test_late_relay_matches_a_dense_reference(self, eps):
        # the later the relay joins, the closer to eta the integrand collapses
        got, want = self.decode_prob_and_reference(1.5, eps, 10.0, 5.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_large_threshold_keeps_the_mass_near_zero(self):
        # eta ~ 7e4: e^{-v} holds the integrand within a few units of 0,
        # which adaptive quad on panels that only halve toward eta missed
        # (it read 6.4e-16); Q ~ 1.6e278 sets eps = 0.011
        got, want = self.decode_prob_and_reference(7.0, 0.011, 0.015, 1.2e5)
        assert want > 0.99
        assert got == pytest.approx(want, rel=1e-12)

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


@pytest.mark.parametrize("p_s", [0.0, 1e-3, 10.0, 1e8])
@pytest.mark.parametrize("p_r", [0.0, 1.0, 1e6])
@pytest.mark.parametrize("q", [0.0, 1.0, 1e9])
def test_a_zero_rate_always_decodes(p_s, p_r, q):
    # no special case: the general paths give (0, 0, 1, 1) exactly
    want = ThroughputResult.build(0.0, 0.0, 1.0, 1.0)
    assert sdf_single_layer_throughput(0.0, PowerConfig(p_s=p_s, p_r=p_r, q=q)) == want
    assert miso_single_layer_throughput(0.0, p_s, p_r) == want


@pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
def test_a_rate_must_be_finite_and_nonnegative(r):
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
    for evaluate in (lambda: single_user_throughput(r, cfg.p_s),
                     lambda: sdf_single_layer_throughput(r, cfg),
                     lambda: miso_single_layer_throughput(r, cfg.p_s, cfg.p_r)):
        with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
            evaluate()


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
