import math

import numpy as np
import pytest

from conftest import draw_alloc, draw_powers
from relaycast import (PowerConfig, TwoLayerAllocation,
                       direct_multilayer_throughput, duplex_gain_condition,
                       miso_equal_throughput, miso_max_throughput,
                       miso_unequal_throughput, simplex_equal_throughput,
                       simplex_unequal_throughput, single_user_throughput,
                       y_sum_tail)
from relaycast.montecarlo import SimConfig, simulate_strategy
from relaycast.twolayer import _direct_two_layer_rate
from relaycast.validation import validation_corpus


def mc_check(scheme, alloc, cfg, analytic, blocks=200_000, seed=1):
    est = simulate_strategy(SimConfig(blocks=blocks, seed=seed, strategy=scheme,
                                      params=alloc), cfg)
    assert abs(analytic - est.mean) < 3 * max(est.stderr, 1e-12), \
        f"{scheme}: analytic {analytic} vs mc {est.mean} +- {est.stderr}"


class TestDirect:
    def test_single_layer_collapse(self):
        res = direct_multilayer_throughput((0.7,), (1.0,), 5.0)
        want = single_user_throughput(math.log1p(0.7 * 5.0), 5.0)
        assert res.r_av == pytest.approx(want.r_av, abs=1e-14)

    def test_all_power_on_layer_one(self):
        alloc = TwoLayerAllocation(alpha=1.0, eta1=0.7, eta2=2.0)
        res = direct_multilayer_throughput((alloc.eta1, alloc.eta2),
                                           (alloc.alpha, alloc.alpha_bar), 5.0)
        want = single_user_throughput(math.log1p(0.7 * 5.0), 5.0)
        assert res.r_av == pytest.approx(want.r_av, abs=1e-14)
        assert res.r2 == 0.0

    def test_monte_carlo_oracle(self):
        alloc = TwoLayerAllocation(alpha=0.5, eta1=0.2, eta2=1.5)
        cfg = PowerConfig(p_s=10.0, p_r=0.0, q=0.0)
        res = direct_multilayer_throughput((0.2, 1.5), (0.5, 0.5), 10.0)
        mc_check("direct", alloc, cfg, res.r_av, blocks=400_000)

    def test_result_identity_and_validation(self):
        res = direct_multilayer_throughput((0.1, 0.4, 0.9), (0.5, 0.3, 0.2), 8.0)
        assert res.r_av == pytest.approx(
            res.r1 * res.p_layer1 + res.r2 * res.p_both, abs=1e-12)
        with pytest.raises(ValueError):
            direct_multilayer_throughput((0.4, 0.1), (0.5, 0.5), 8.0)
        with pytest.raises(ValueError):
            direct_multilayer_throughput((0.1, 0.4), (0.7, 0.7), 8.0)


    def test_two_layer_kernel_bit_identical(self):
        # oblivious_rate_plan's lean kernel against the public closed form,
        # on P_s from -20 to 80 dB with the degenerate plans mixed in
        rng = np.random.default_rng(20_240_802)
        for i in range(3000):
            alpha = (0.0, 1.0)[i % 2] if i % 7 == 0 else float(rng.uniform())
            eta1 = float(rng.uniform(0.0, 4.0))
            eta2 = eta1 if i % 5 == 0 else float(rng.uniform(eta1, 4.0))
            p_s = 10.0 ** float(rng.uniform(-2.0, 8.0))
            want = direct_multilayer_throughput((eta1, eta2), (alpha, 1.0 - alpha), p_s).r_av
            got = _direct_two_layer_rate(alpha, eta1, eta2, p_s)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                (alpha, eta1, eta2, p_s)


class TestMisoEqual:
    def test_no_relay_reduces_to_direct(self):
        got = miso_equal_throughput((0.3, 1.0), (0.6, 0.4), 5.0, 0.0)
        want = direct_multilayer_throughput((0.3, 1.0), (0.6, 0.4), 5.0)
        assert got.r_av == pytest.approx(want.r_av, abs=1e-14)

    def test_monte_carlo_oracle(self):
        alloc = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=2.0)
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=1.0)
        res = miso_equal_throughput((0.3, 2.0), (0.6, 0.4), 10.0, 10.0)
        mc_check("miso-equal", alloc, cfg, res.r_av, blocks=400_000)

    def test_eight_layer_bracket(self):
        # a quantized-and-polished 8-layer plan must land between the optimal
        # 2-layer rate and the continuous bound
        from relaycast import optimal_power_density, sum_fading_distribution, broadcast_rate
        from relaycast.figures import _refined_layered
        from relaycast.optimize import maximize_throughput

        p = 10.0
        cfg = PowerConfig(p_s=p, p_r=p, q=1.0)
        dist = sum_fading_distribution(1.0)
        density = optimal_power_density(p, dist)
        r8 = _refined_layered(p, lambda eta: y_sum_tail(eta * p, p, p), 8, density, dist)
        r2 = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                 coarse_points=24).value
        cont = broadcast_rate(density, dist)
        assert r2 <= r8 <= cont


class TestMisoUnequal:
    def test_equal_split_matches_equal_form(self, param_rng):
        for _ in range(12):
            alloc = draw_alloc(param_rng)
            cfg = draw_powers(param_rng)
            got = miso_unequal_throughput(alloc, cfg.p_s, cfg.p_r)
            want = miso_equal_throughput((alloc.eta1, alloc.eta2),
                                         (alloc.alpha, alloc.alpha_bar),
                                         cfg.p_s, cfg.p_r)
            assert got.r_av == pytest.approx(want.r_av, abs=1e-9)

    def test_unit_slope_regime_matches_max_form(self):
        # P_r = P_s with beta = alpha makes both threshold slopes exactly 1
        alloc = TwoLayerAllocation(alpha=0.55, eta1=0.4, eta2=1.3)
        got = miso_unequal_throughput(alloc, 7.0, 7.0)
        want = miso_max_throughput(alloc, 7.0)
        assert got.r_av == pytest.approx(want.r_av, abs=1e-12)

    def test_monte_carlo_oracle_random_draws(self, param_rng):
        for i in range(12):
            alloc = draw_alloc(param_rng, beta_mode="any")
            cfg = draw_powers(param_rng)
            res = miso_unequal_throughput(alloc, cfg.p_s, cfg.p_r)
            mc_check("miso-unequal", alloc, cfg, res.r_av, seed=500 + i)

    def test_unit_slope_cap_dominance_minigrid(self):
        p_s, eta1, eta2 = 10.0, 0.3, 1.2
        for alpha in np.linspace(0.1, 0.9, 8):
            cap = miso_max_throughput(
                TwoLayerAllocation(alpha=float(alpha), eta1=eta1, eta2=eta2), p_s).r_av
            for beta in np.linspace(0.05, 0.95, 8):
                for p_r in (0.5, 2.0, 8.0):
                    alloc = TwoLayerAllocation(alpha=float(alpha), eta1=eta1,
                                               eta2=eta2, beta=float(beta))
                    ab, bb = alloc.alpha_bar, alloc.beta_bar
                    d = beta + eta1 * p_s * (beta - alpha)
                    if bb <= 0.0 or d <= 0.0:
                        continue
                    n = ab * p_s / (bb * p_r)
                    k = alpha * p_s / (d * p_r)
                    if n >= 1.0 and k >= 1.0:
                        val = miso_unequal_throughput(alloc, p_s, p_r).r_av
                        assert val <= cap + 1e-9


class TestSimplex:
    def test_equal_requires_matching_beta(self):
        alloc = TwoLayerAllocation(alpha=0.5, eta1=0.3, eta2=1.0, beta=0.7)
        with pytest.raises(ValueError):
            simplex_equal_throughput(alloc, PowerConfig(p_s=1, p_r=1, q=1))

    def test_unequal_rejects_beta_below_alpha(self):
        alloc = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.0, beta=0.4)
        with pytest.raises(ValueError):
            simplex_unequal_throughput(alloc, PowerConfig(p_s=1, p_r=1, q=1))

    def test_dead_relay_link_reduces_to_direct(self):
        alloc = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.2)
        cfg = PowerConfig(p_s=8.0, p_r=4.0, q=1e-9)
        got = simplex_equal_throughput(alloc, cfg)
        want = direct_multilayer_throughput((0.3, 1.2), (0.6, 0.4), 8.0)
        assert got.r_av == pytest.approx(want.r_av, abs=1e-9)

    def test_q_to_infinity_gap_persists(self):
        # interference-limited relay decoding keeps the simplex strictly
        # below the zero-decoding-time rate even at huge collocation gain
        alloc = TwoLayerAllocation(alpha=0.7, eta1=0.3, eta2=1.2)
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=1e6)
        simplex = simplex_equal_throughput(alloc, cfg).r_av
        miso = miso_equal_throughput((0.3, 1.2), (0.7, 0.3), 10.0, 10.0).r_av
        assert simplex < miso - 0.01

    def test_equal_beta_identity(self, param_rng):
        for _ in range(6):
            alloc = draw_alloc(param_rng)
            cfg = draw_powers(param_rng)
            eq = simplex_equal_throughput(alloc, cfg)
            uneq = simplex_unequal_throughput(alloc.with_beta(alloc.alpha), cfg)
            assert uneq.r_av == pytest.approx(eq.r_av, abs=1e-9)

    def test_scheme_ordering(self, param_rng):
        # fixed plan: direct <= simplex <= always-on relay
        for _ in range(10):
            alloc = draw_alloc(param_rng)
            cfg = draw_powers(param_rng)
            direct = direct_multilayer_throughput(
                (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar), cfg.p_s).r_av
            simplex = simplex_equal_throughput(alloc, cfg).r_av
            miso = miso_equal_throughput(
                (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar),
                cfg.p_s, cfg.p_r).r_av
            assert direct - 1e-9 <= simplex <= miso + 1e-9

    def test_equal_monte_carlo_oracle(self, param_rng):
        for i in range(8):
            alloc = draw_alloc(param_rng)
            cfg = draw_powers(param_rng)
            res = simplex_equal_throughput(alloc, cfg)
            mc_check("simplex-equal", alloc, cfg, res.r_av, seed=700 + i)

    def test_unequal_monte_carlo_oracle(self, param_rng):
        for i in range(8):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            cfg = draw_powers(param_rng)
            res = simplex_unequal_throughput(alloc, cfg)
            mc_check("simplex-unequal", alloc, cfg, res.r_av, seed=800 + i)

    def test_raising_beta_lifts_layer_one(self, param_rng):
        # e^{-K} >= e^{-F} pointwise translates into a higher layer-1 probability
        for _ in range(8):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            cfg = draw_powers(param_rng)
            eq = simplex_equal_throughput(alloc.with_beta(alloc.alpha), cfg)
            uneq = simplex_unequal_throughput(alloc, cfg)
            assert uneq.p_layer1 >= eq.p_layer1 - 1e-9


    @pytest.mark.xfail(strict=True, reason="D5: adaptive quad misses the layer-2 "
                       "integral when the relay decodes late (x -> 1)")
    def test_late_relay_layer2_integral(self):
        # simplex-unequal with x = 0.9669: exp(-U) is a step of width ~(1 - x)
        # just below eta2, and quad gives 9.1e-26 for its integral over
        # [eta1, eta2] where composite 20-point Gauss-Legendre gives 4.877e-6.
        # The reference r_av is that brute force over every integral of the
        # assembly, unchanged from 2*10^5 to 10^7 nodes per integral.
        case = validation_corpus(20_240_001, 10)[51]
        assert case.scheme == "simplex-unequal"
        got = simplex_unequal_throughput(case.alloc, case.cfg).r_av
        assert got == pytest.approx(0.9701818802247695, rel=1e-9)


class TestDuplexCondition:
    def test_examples(self):
        full = TwoLayerAllocation(alpha=0.0, eta1=0.2, eta2=0.5)  # alpha_bar = 1
        assert duplex_gain_condition(full, PowerConfig(p_s=1, p_r=1, q=1)).verdict \
            == "simplex-sufficient"
        mid = TwoLayerAllocation(alpha=0.5, eta1=0.2, eta2=0.5)
        v = duplex_gain_condition(mid, PowerConfig(p_s=10.0, p_r=1.0, q=1.0))
        assert v.simplex_sufficient and v.margin == pytest.approx(2.5)
        tight = TwoLayerAllocation(alpha=0.9, eta1=0.2, eta2=0.5)
        v = duplex_gain_condition(tight, PowerConfig(p_s=1.0, p_r=1.0, q=1.0))
        assert v.verdict == "condition-not-met"
        assert v.margin == pytest.approx(0.21 - 1.0)
        assert v.assumes_rate_ordering
