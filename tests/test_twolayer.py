import math
import warnings

import numpy as np
import pytest

from conftest import dense_decode_prob, draw_alloc, draw_powers
from relaycast import (PowerConfig, TwoLayerAllocation,
                       direct_multilayer_throughput, duplex_gain_condition,
                       miso_equal_throughput, miso_max_throughput,
                       miso_unequal_throughput, simplex_equal_throughput,
                       sdf_single_layer_throughput, simplex_unequal_throughput,
                       single_user_throughput)
from relaycast import BoundContext, broadcast, discontinuity_point, twolayer
from relaycast.bounds import _k_values, _u_values
from relaycast.model import decoding_times
from relaycast.montecarlo import SimConfig, simulate_strategy
from relaycast.validation import validation_corpus


def gauss_legendre(f, lo, hi, panels=10_000, nodes=20):
    """int_lo^hi f by composite Gauss-Legendre; f takes an array of points."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    v = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    return float(np.sum(f(v) * half * w))


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
        # the direct search's lean kernel against the public closed form,
        # on P_s from -20 to 80 dB with the degenerate plans mixed in
        rng = np.random.default_rng(20_240_802)
        for i in range(3000):
            alpha = (0.0, 1.0)[i % 2] if i % 7 == 0 else float(rng.uniform())
            eta1 = float(rng.uniform(0.0, 4.0))
            eta2 = eta1 if i % 5 == 0 else float(rng.uniform(eta1, 4.0))
            p_s = 10.0 ** float(rng.uniform(-2.0, 8.0))
            want = direct_multilayer_throughput((eta1, eta2), (alpha, 1.0 - alpha), p_s).r_av
            got = twolayer.CLOSED_FORMS["direct"].rate(alpha, alpha, eta1, eta2, p_s, 0.0)
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
        r8 = _refined_layered(cfg, twolayer._miso_tail, 8, density)
        r2 = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                 coarse_points=24).value
        cont = broadcast_rate(density, dist)
        assert r2 <= r8 <= cont


@pytest.mark.parametrize("mode", ["siso", "miso"])
@pytest.mark.parametrize("ps_db", [0.0, 25.0])
def test_discretized_residuals_are_the_continuous_residuals(mode, ps_db):
    # the n - 1 residuals are I(eta_i)/P at the first n - 1 thresholds, bit for bit
    p_s = 10.0 ** (ps_db / 10.0)
    density, _, _ = broadcast.continuous_layering(PowerConfig(p_s=p_s, p_r=p_s, q=1.0), mode)
    thresholds, residuals = twolayer.discretize_power_density(density, 8)
    assert len(thresholds) == 8
    assert residuals == [float(density.i_of_u(u)) / density.total_power
                         for u in thresholds[:-1]]
    # and each threshold reads back through the R(u) table to R(u1)(i + 1/2)/n
    u, cum = broadcast.cumulative_rate(density)
    targets = cum[-1] * (np.arange(8) + 0.5) / 8
    np.testing.assert_allclose(np.interp(thresholds, u, cum), targets, rtol=1e-12, atol=0.0)


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

    def test_crossing_stays_in_range_at_equal_thresholds(self):
        # eta1 = eta2 with n close to k: rounding pushed the layer crossing v1
        # out of [0, eta1], and _seg overflowed (the fig5 preset's failure)
        alloc = TwoLayerAllocation(alpha=3 / 11, eta1=8 / 11, eta2=8 / 11)
        cfg = PowerConfig(p_s=1e4, p_r=10 ** 0.4, q=1.0)
        res = miso_unequal_throughput(alloc, cfg.p_s, cfg.p_r)
        assert math.isfinite(res.r_av) and res.r_av <= res.r1 + res.r2
        mc_check("miso-unequal", alloc, cfg, res.r_av, blocks=1_000_000, seed=2)

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

    def test_near_unit_slope_does_not_cancel(self):
        # beta = 0.70000003 puts the layer-2 slope n 1e-7 above 1, where a
        # difference quotient over (n - 1) cancels; the reference is a
        # 50-digit mpmath evaluation of the same region integrals
        alloc = TwoLayerAllocation(alpha=0.7, eta1=0.3, eta2=1.8, beta=0.70000003)
        got = miso_unequal_throughput(alloc, 10.0, 10.0).r_av
        assert got == pytest.approx(1.5761067262590640667, rel=1e-14)

    @pytest.mark.parametrize("lo, hi, slope, anchor, want", [
        # int_lo^hi exp(-v - slope*(anchor - v)) dv by 50-digit mpmath: near,
        # at, below and above unit slope, and a slope large enough to underflow
        (0.0, 0.9, 1.0 + 1e-8, 0.9, 0.3659126921199320946),
        (0.0, 0.9, 1.0, 0.9, 0.36591269376653923),
        (0.1, 0.9, 0.5, 0.9, 0.39992199994406863),
        (0.1, 0.9, 3.0, 0.9, 0.16224233055835016),
        (0.0, 1.0, 1e6, 1.0, 3.6787980905125135e-07),
    ])
    def test_segment_integral(self, lo, hi, slope, anchor, want):
        assert twolayer._seg(lo, hi, slope, anchor) == pytest.approx(want, rel=1e-15)


def kernel_draw_groups(n_groups=120, per_group=30, n_near=40):
    """(p_s, p_r, [(alpha, beta, eta1, eta2), ...]) over P_s from -20 to 80 dB.

    P_r cycles through 0, a vanishing 1e-12 P_s, P_s and a random ratio;
    alpha and beta mix 0, 1 and random values with the special splits
    beta = alpha, a vertical layer-1 line (d = 0) and a layer-2 slope within
    5e-10 of 1; every fifth plan has eta1 = eta2.  Then ``n_near`` groups with
    P_r = P_s (1 + {1.5e-8, 3e-8, 1e-7, 1e-6}), where y_sum_tail's
    unequal-power branch cancels, at eta2 - eta1 in {0, 1e-12, 1e-9, 1e-6}:
    there rounding can put the layer-2 tail above the layer-1 tail.  They come
    from a generator of their own, so the groups before them keep their draws.
    """
    rng = np.random.default_rng(20_240_803)
    for g in range(n_groups):
        p_s = 10.0 ** float(rng.uniform(-2.0, 8.0))
        p_r = (0.0, 1e-12 * p_s, p_s, p_s * 10.0 ** float(rng.uniform(-3.0, 3.0)))[g % 4]
        plans = []
        for i in range(per_group):
            alpha = (0.0, 1.0)[i % 2] if i % 7 < 2 else float(rng.uniform())
            eta1 = float(rng.uniform(0.0, 4.0))
            eta2 = eta1 if i % 5 == 0 else float(rng.uniform(eta1, 4.0))
            kind = i % 6
            if kind == 0:
                beta = alpha
            elif kind in (1, 2):
                beta = float(kind == 1)
            elif kind == 3:
                beta = float(rng.uniform())
            elif kind == 4:  # d = beta + eta1 P_s (beta - alpha) = 0
                beta = eta1 * p_s * alpha / (1.0 + eta1 * p_s)
            elif p_r in (0.0, p_s):  # both slopes exactly 1 at P_r = P_s
                beta = alpha
            else:  # n = alpha_bar P_s / (beta_bar P_r) within 5e-10 of 1
                delta = float(rng.uniform(-5e-10, 5e-10))
                beta = 1.0 - (1.0 - alpha) * p_s / p_r * (1.0 + delta)
                if not 0.0 <= beta <= 1.0:
                    beta = float(rng.uniform())
            plans.append((alpha, beta, eta1, eta2))
        yield p_s, p_r, plans
    rng = np.random.default_rng(20_241_023)
    for g in range(n_near):
        p_s = 10.0 ** float(rng.uniform(-2.0, 8.0))
        p_r = p_s * (1.0 + (1.5e-8, 3e-8, 1e-7, 1e-6)[g % 4])
        plans = []
        for i in range(per_group):
            alpha = float(rng.uniform())
            beta = alpha if i % 3 else float(rng.uniform())
            eta1 = float(rng.uniform(0.0, 4.0))
            plans.append((alpha, beta, eta1, eta1 + (0.0, 1e-12, 1e-9, 1e-6)[i % 4]))
        yield p_s, p_r, plans


@pytest.mark.parametrize("scheme", ["direct", "miso-equal", "miso-unequal"])
def test_scalar_kernels_match_the_closed_forms_bit_for_bit(scheme):
    form = twolayer.CLOSED_FORMS[scheme]
    for p_s, p_r, plans in kernel_draw_groups():
        cfg = PowerConfig(p_s=p_s, p_r=p_r, q=1.0)
        for alpha, beta, eta1, eta2 in plans:
            alloc = TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta2, beta=beta)
            want = form(alloc, cfg).r_av
            got = form.rate(alpha, beta, eta1, eta2, p_s, p_r)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                (alpha, beta, eta1, eta2, p_s, p_r)


@pytest.mark.parametrize("scheme", ["direct", "miso-equal"])
def test_array_kernels_match_the_scalar_kernels(scheme):
    form = twolayer.CLOSED_FORMS[scheme]
    for p_s, p_r, plans in kernel_draw_groups():
        want = np.array([form.rate(*plan, p_s, p_r) for plan in plans])
        alpha, beta, eta1, eta2 = np.array(plans).T
        each = np.arange(len(plans))  # plan i's row against its own pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.diagonal(form.grid(alpha[:, None], beta[:, None], eta1, eta2,
                                        each, each, p_s, p_r))
        # the absolute part is ulps of the decode probabilities times the
        # layer rates, up to log(1 + eta2 P_s) nats
        rates = np.maximum(1.0, np.log1p(np.array(plans)[:, 3] * p_s))
        bad = np.abs(got - want) > 1e-12 * np.abs(want) + 1e-13 * rates
        assert not bad.any(), (p_s, p_r, np.array(plans)[bad], got[bad], want[bad])


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


    def test_silent_relay_is_direct(self):
        # P_r = 0 leaves the source alone, at any Q, alpha = 0 and
        # eta1 = eta2 included
        cfg = PowerConfig(p_s=10.0, p_r=0.0, q=100.0)
        for alloc in (TwoLayerAllocation(alpha=0.5, eta1=0.5, eta2=1.0),
                      TwoLayerAllocation(alpha=0.0, eta1=0.5, eta2=1.0),
                      TwoLayerAllocation(alpha=0.5, eta1=1.0, eta2=1.0),
                      TwoLayerAllocation(alpha=0.5, eta1=0.5, eta2=1.0, beta=0.8)):
            want = direct_multilayer_throughput((alloc.eta1, alloc.eta2),
                                                (alloc.alpha, alloc.alpha_bar), 10.0)
            form = simplex_equal_throughput if alloc.beta == alloc.alpha \
                else simplex_unequal_throughput
            assert form(alloc, cfg) == want
        alloc = TwoLayerAllocation(alpha=0.5, eta1=0.5, eta2=1.0)
        mc_check("simplex-equal", alloc, cfg,
                 simplex_equal_throughput(alloc, cfg).r_av, blocks=400_000)

    def test_degenerate_plans_match_the_oracle(self):
        # alpha = 0 (a zero-rate layer 1 that sets no threshold) and
        # eta1 = eta2 (both thresholds meet at eta1)
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        for alloc in (TwoLayerAllocation(alpha=0.0, eta1=0.5, eta2=1.0),
                      TwoLayerAllocation(alpha=0.5, eta1=1.0, eta2=1.0)):
            res = simplex_equal_throughput(alloc, cfg)
            assert math.isfinite(res.r_av) and 0.0 < res.r_av <= res.r1 + res.r2
            mc_check("simplex-equal", alloc, cfg, res.r_av, blocks=400_000)

    def test_alpha_zero_with_a_relay_split_keeps_its_value(self):
        # with beta > 0 the layer-1 threshold is 0 and U binds on all of
        # [0, eta1]: these values come out as they did from the threshold scan
        low = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        high = PowerConfig(p_s=10 ** 4.24, p_r=51.27, q=42.34)
        for beta, cfg, want in ((0.3, low, "0x1.49bca4f00c6f0p+0"),
                                (0.3, high, "0x1.cbfd54882a11cp+1"),
                                (1.0, low, "0x1.c3a760f0d1b47p-1"),
                                (1.0, high, "0x1.cbb9ffaabc634p+1")):
            alloc = TwoLayerAllocation(alpha=0.0, eta1=0.5, eta2=1.0, beta=beta)
            res = simplex_unequal_throughput(alloc, cfg)
            assert res.r_av.hex() == want and res.p_layer1 == 1.0

    @pytest.mark.filterwarnings("error")
    def test_noise_crossings_at_high_power_match_a_dense_reference(self):
        # at 72.7 dB the relay decodes after all but 3.3e-8 of the block, and
        # K - U changes sign with rounding noise; the rule takes the larger
        # curve at every node, which keeps r_av at composite Gauss-Legendre
        # applied to max(K, U), and a piece an ulp wide no longer makes
        # adaptive quad warn
        alloc = TwoLayerAllocation(alpha=0.005409707427599053, eta1=1.5391245754166443,
                                   eta2=2.9341772085613624)
        cfg = PowerConfig(p_s=1.8443289253065765e7, p_r=7.692303295090042e4,
                          q=24.050633000383957)
        ctx = BoundContext.from_config(alloc, cfg)
        v_lo, e1, e2 = discontinuity_point(ctx), alloc.eta1, alloc.eta2

        def k(v):
            return np.maximum(_k_values(v, ctx), 0.0)

        def u(v):
            return np.maximum(_u_values(v, ctx), 0.0)

        with np.errstate(all="ignore"):
            p1 = math.exp(-e1) + gauss_legendre(lambda v: np.exp(-k(v) - v), v_lo, e1)
            p_both = (math.exp(-e2) + gauss_legendre(lambda v: np.exp(-u(v) - v), e1, e2)
                      + gauss_legendre(lambda v: np.exp(-np.maximum(k(v), u(v)) - v),
                                       v_lo, e1))
        want = ctx.r1 * p1 + ctx.r2 * min(p_both, p1)
        got = simplex_equal_throughput(alloc, cfg).r_av
        assert got == pytest.approx(want, rel=1e-9)

    def test_one_layer_plan_matches_the_single_layer_sdf(self):
        # alpha = 1 and eta1 = eta2 = expm1(r)/P_s send one layer at rate r,
        # so the simplex form is the single-layer SDF one (the SDF is computed
        # as this plan) and agrees with the SDF's dense reference to 2e-16;
        # adaptive quad on the layer-1 integral missed a narrow peak of
        # exp(-K - v) below eta1 and read r_av 0.0032258121521 (-6.7e-4)
        r = 5.922695910116097
        cfg = PowerConfig(p_s=49.55410510340221, p_r=0.2991693503646765,
                          q=15.757603356988609)
        eta = math.expm1(r) / cfg.p_s
        got = simplex_equal_throughput(TwoLayerAllocation(alpha=1.0, eta1=eta, eta2=eta), cfg)
        want = dense_decode_prob(r, r / math.log1p(cfg.p_s * cfg.q), cfg.p_s, cfg.p_r)
        assert got.p_layer1 == pytest.approx(want, rel=1e-12)

    def test_a_zero_rate_layer_sets_no_threshold(self, monkeypatch):
        # a layer of rate 0 always decodes: alpha = 1 (every SDF plan among
        # them) evaluates no U, crossing search or [eta1, eta2] quad, and
        # alpha = 0 no K and no crossing search
        calls = set()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.add(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_k_values", "_u_values", "find_intersections"):
            monkeypatch.setattr(twolayer, name, counted(name, getattr(twolayer, name)))
        monkeypatch.setattr(twolayer.integrate, "quad",
                            counted("quad", twolayer.integrate.quad))
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        cases = (((1.0, 0.5, 0.5), {"_k_values"}),
                 ((1.0, 0.5, 1.0), {"_k_values"}),
                 ((0.0, 0.5, 1.0), {"_u_values", "quad"}),
                 ((0.7, 0.3, 1.8),
                  {"_k_values", "_u_values", "find_intersections", "quad"}))
        for (alpha, eta1, eta2), want in cases:
            alloc = TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta2)
            assert 0.0 < decoding_times(alloc, cfg).eps2 < 1.0
            calls.clear()
            simplex_equal_throughput(alloc, cfg)
            assert calls == want, alloc
        calls.clear()
        sdf_single_layer_throughput(1.0, cfg)
        assert calls == {"_k_values"}

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


def test_closed_form_table_calls_the_module_attribute(monkeypatch):
    # span tracers patch module attributes; a table holding the function
    # objects themselves would hide its calls from them
    from relaycast import twolayer

    seen = []
    original = twolayer.simplex_equal_throughput

    def spy(alloc, cfg):
        seen.append(alloc)
        return original(alloc, cfg)

    monkeypatch.setattr(twolayer, "simplex_equal_throughput", spy)
    alloc = TwoLayerAllocation(alpha=0.7, eta1=0.3, eta2=1.8)
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
    res = twolayer.CLOSED_FORMS["simplex-equal"](alloc, cfg)
    assert seen == [alloc]
    assert res == original(alloc, cfg)
