import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_alloc, draw_powers
from relaycast import (BoundContext, PowerConfig, TwoLayerAllocation,
                       conditional_layer_probability, discontinuity_point,
                       find_intersections, layer_rates, relay_threshold_bound,
                       simplex_equal_throughput, t_factor, u_bound)
from relaycast.bounds import _bisect_crossing, _k_values, _t_values, _u_values
from relaycast.optimize import oblivious_rate_plan
from relaycast.validation import validation_corpus


def make_ctx(alpha=0.6, beta=None, eta1=0.4, eta2=1.4, p_s=8.0, p_r=5.0, x=0.5):
    """Context with an explicitly chosen decoding time (q is irrelevant then)."""
    alloc = TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta2,
                               beta=alpha if beta is None else beta)
    cfg = PowerConfig(p_s=p_s, p_r=p_r, q=1.0)
    r1, r2 = layer_rates(alloc, p_s)
    return BoundContext(alloc=alloc, cfg=cfg, x=x, r1=r1, r2=r2)


def with_beta(ctx, beta):
    """ctx with the relay split beta, at the same decoding time and rates."""
    return replace(ctx, alloc=ctx.alloc.with_beta(beta))


def try_ctx(alloc, cfg):
    """from_config, or None when the relay never decodes (x = 1)."""
    try:
        return BoundContext.from_config(alloc, cfg)
    except ValueError:
        return None


def interior_grid(ctx, n=1000):
    v_lo = discontinuity_point(ctx)
    span = ctx.eta1 - v_lo
    return np.linspace(v_lo + 1e-6 * span, ctx.eta1 - 1e-9 * span, n)


class TestTFactor:
    def test_value_at_eta1(self):
        ctx = make_ctx()
        assert t_factor(ctx.eta1, ctx) == pytest.approx(math.exp(ctx.r1), rel=1e-12)

    def test_value_at_zero(self):
        ctx = make_ctx()
        assert t_factor(0.0, ctx) == pytest.approx(
            math.exp(ctx.r1 / (1.0 - ctx.x)), rel=1e-12)

    def test_strictly_decreasing(self, param_rng):
        checked = 0
        for _ in range(30):
            ctx = try_ctx(draw_alloc(param_rng), draw_powers(param_rng))
            if ctx is None:
                continue
            ts = [t_factor(v, ctx) for v in np.linspace(0.0, ctx.eta1, 1000)]
            assert all(b < a for a, b in zip(ts, ts[1:]))
            checked += 1
        assert checked >= 10

    def test_increasing_in_x(self):
        base = make_ctx(x=0.4)
        hi = make_ctx(x=0.6)
        for v in np.linspace(0.0, 0.99 * base.eta1, 50):
            assert t_factor(v, hi) > t_factor(v, base)

    def test_rejects_degenerate_time(self):
        with pytest.raises(ValueError):
            make_ctx(x=1.0)


class TestRelayThreshold:
    def test_zero_at_eta1(self):
        ctx = make_ctx()
        assert relay_threshold_bound(ctx.eta1, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_equal_reduces_exactly(self, param_rng):
        for _ in range(10):
            alloc = draw_alloc(param_rng)
            x = float(param_rng.uniform(0.1, 0.9))
            ctx_f = make_ctx(alpha=alloc.alpha, eta1=alloc.eta1, eta2=alloc.eta2, x=x)
            ctx_k = make_ctx(alpha=alloc.alpha, beta=alloc.alpha,
                             eta1=alloc.eta1, eta2=alloc.eta2, x=x)
            for v in interior_grid(ctx_f, 100):
                assert relay_threshold_bound(v, ctx_k) == pytest.approx(
                    relay_threshold_bound(v, ctx_f), abs=1e-12)

    def test_sign_rule_and_prediscontinuity_inf(self):
        ctx = make_ctx(alpha=0.35, eta1=1.1, eta2=2.0, p_s=30.0, x=0.5)
        v_dc = discontinuity_point(ctx)
        assert v_dc > 0.0
        for v in interior_grid(ctx, 200):
            t = t_factor(v, ctx)
            assert (1.0 - t * ctx.alloc.alpha_bar) > 0.0
            assert relay_threshold_bound(v, ctx) >= -1e-12
        assert relay_threshold_bound(0.5 * v_dc, ctx) == math.inf

    def test_unequal_lowers_threshold(self, param_rng):
        for _ in range(10):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            x = float(param_rng.uniform(0.1, 0.9))
            ctx_k = make_ctx(alpha=alloc.alpha, beta=alloc.beta,
                             eta1=alloc.eta1, eta2=alloc.eta2, x=x)
            ctx_f = make_ctx(alpha=alloc.alpha, eta1=alloc.eta1,
                             eta2=alloc.eta2, x=x)
            v_lo = max(discontinuity_point(ctx_f), discontinuity_point(ctx_k))
            span = alloc.eta1 - v_lo
            for v in np.linspace(v_lo + 1e-6 * span, alloc.eta1, 60):
                assert relay_threshold_bound(v, ctx_k) <= \
                    relay_threshold_bound(v, ctx_f) + 1e-12

    def test_conditional_simulation_oracle(self):
        alloc = TwoLayerAllocation(alpha=0.55, eta1=0.5, eta2=1.6)
        cfg = PowerConfig(p_s=6.0, p_r=4.0, q=25.0)
        ctx = BoundContext.from_config(alloc, cfg)
        v_lo = discontinuity_point(ctx)
        for frac in (0.3, 0.6, 0.9):
            v = v_lo + frac * (ctx.eta1 - v_lo)
            want = math.exp(-relay_threshold_bound(v, ctx))
            est = conditional_layer_probability(v, 1, ctx, blocks=200_000, seed=61)
            assert abs(want - est.mean) < 3 * max(est.stderr, 1e-4)


class TestUBound:
    def test_zero_at_eta2(self):
        ctx = make_ctx()
        assert u_bound(ctx.eta2, ctx) == pytest.approx(0.0, abs=1e-9)
        assert u_bound(ctx.eta2 + 0.2, ctx) < 0.0

    def test_decreasing_and_convex(self, param_rng):
        for _ in range(20):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            ctx = make_ctx(alpha=alloc.alpha, beta=alloc.beta, eta1=alloc.eta1,
                           eta2=alloc.eta2, x=float(param_rng.uniform(0.05, 0.95)))
            vs = np.linspace(0.0, 0.999 * ctx.eta2, 1000)
            u = np.array([u_bound(v, ctx) for v in vs])
            assert np.all(np.diff(u) < 0.0)
            assert np.all(np.diff(u, 2) >= -1e-9)

    def test_increasing_in_x(self):
        base = make_ctx(x=0.4)
        hi = make_ctx(x=0.6)
        for v in np.linspace(0.0, 0.99 * base.eta2, 50):
            assert u_bound(v, hi) > u_bound(v, base)

    def test_conditional_simulation_oracle(self):
        alloc = TwoLayerAllocation(alpha=0.55, eta1=0.5, eta2=1.6, beta=0.7)
        cfg = PowerConfig(p_s=6.0, p_r=4.0, q=25.0)
        ctx = BoundContext.from_config(alloc, cfg)
        for v in (0.7, 1.0, 1.4):
            want = math.exp(-u_bound(v, ctx))
            est = conditional_layer_probability(v, 2, ctx, blocks=200_000, seed=62)
            assert abs(want - est.mean) < 3 * max(est.stderr, 1e-4)

    def test_probability_one_beyond_eta2(self):
        alloc = TwoLayerAllocation(alpha=0.6, eta1=0.4, eta2=1.4)
        ctx = BoundContext.from_config(alloc, PowerConfig(p_s=8.0, p_r=5.0, q=30.0))
        est = conditional_layer_probability(ctx.eta2 * 1.05, 2, ctx,
                                            blocks=10_000, seed=63)
        assert est.mean == 1.0


class TestDiscontinuityPoint:
    def test_absent_when_condition_fails(self):
        ctx = make_ctx(alpha=0.9, eta1=0.1, eta2=0.5, x=0.3)
        assert math.exp(ctx.r1 / (1.0 - ctx.x)) <= 1.0 / ctx.alloc.alpha_bar
        assert discontinuity_point(ctx) == 0.0

    def test_defining_equation_and_location(self):
        ctx = make_ctx(alpha=0.35, eta1=1.1, eta2=2.0, p_s=30.0, x=0.5)
        v_dc = discontinuity_point(ctx)
        assert 0.0 < v_dc < ctx.eta1
        assert abs(t_factor(v_dc, ctx) * ctx.alloc.alpha_bar - 1.0) < 1e-9

    def test_unequal_uses_beta_fraction(self):
        ctx = make_ctx(alpha=0.35, beta=0.55, eta1=1.1, eta2=2.0, p_s=30.0, x=0.5)
        v_dcv = discontinuity_point(ctx)
        if v_dcv > 0.0:
            assert abs(t_factor(v_dcv, ctx) * ctx.alloc.beta_bar - 1.0) < 1e-9
        # the K family switches sign later than the F family
        assert v_dcv <= discontinuity_point(with_beta(ctx, ctx.alloc.alpha))


class TestThresholdComparisons:
    def test_max_rule_over_x(self, param_rng):
        # the bound evaluated at the larger decoding time dominates pointwise
        for _ in range(15):
            alloc = draw_alloc(param_rng)
            x = float(param_rng.uniform(0.05, 0.85))
            lo = make_ctx(alpha=alloc.alpha, eta1=alloc.eta1, eta2=alloc.eta2, x=x)
            hi = make_ctx(alpha=alloc.alpha, eta1=alloc.eta1, eta2=alloc.eta2,
                          x=x + 0.09)
            v_start = max(discontinuity_point(lo), discontinuity_point(hi))
            span = alloc.eta1 - v_start
            for v in np.linspace(v_start + 1e-6 * span, alloc.eta1, 200):
                assert relay_threshold_bound(v, hi) >= \
                    relay_threshold_bound(v, lo) - 1e-12

    def test_k_decreasing_where_signs_match(self, param_rng):
        for _ in range(15):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            ctx = make_ctx(alpha=alloc.alpha, beta=alloc.beta, eta1=alloc.eta1,
                           eta2=alloc.eta2, x=float(param_rng.uniform(0.05, 0.95)))
            vs = interior_grid(ctx, 1000)
            t = np.array([t_factor(v, ctx) for v in vs])
            k = np.asarray(_k_values(vs, ctx))
            match = (np.sign(1.0 - t * ctx.alloc.alpha_bar)
                     == np.sign(1.0 - t * ctx.alloc.beta_bar))
            both = match[:-1] & match[1:]
            assert np.all(np.diff(k)[both] <= 1e-10)


class TestFindIntersections:
    def test_partition_structure(self, param_rng):
        checked = 0
        for _ in range(40):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            ctx = make_ctx(alpha=alloc.alpha, beta=alloc.beta, eta1=alloc.eta1,
                           eta2=alloc.eta2, x=float(param_rng.uniform(0.05, 0.95)))
            cuts = find_intersections(ctx)
            checked += 1
            assert cuts[0] == discontinuity_point(ctx) and cuts[-1] == ctx.eta1
            assert all(b > a for a, b in zip(cuts, cuts[1:]))
            for v in cuts[1:-1]:
                f = float(_k_values(v, ctx))
                u = float(_u_values(v, ctx))
                if abs(f) < 745.0:
                    # thresholds large enough to underflow exp(-f) cannot
                    # affect any integral, and near its pole the evaluation
                    # noise of the curve itself exceeds any fixed tolerance
                    assert abs(f - u) < 1e-9 * max(1.0, abs(f))
        assert checked == 40

    def test_miso_like_counts(self, param_rng):
        # at zero decoding time the threshold curves are the MISO lines:
        # only 0, 1 or 2 crossings, so 2, 3 or 4 cut points, can occur
        for _ in range(40):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            ctx = make_ctx(alpha=alloc.alpha, beta=alloc.beta, eta1=alloc.eta1,
                           eta2=alloc.eta2, x=0.0)
            assert len(find_intersections(ctx)) in (2, 3, 4)


def same_float(a, b) -> bool:
    """Bit-for-bit equality (the sign of zero included); NaN matches NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestScalarKernels:
    """The scalar t/K/U kernels behind quad's integrands and the crossing
    bisection (t_factor, relay_threshold_bound, u_bound) must reproduce the
    array kernels bit for bit."""

    CASES = {
        "ordinary": dict(),
        "late-relay": dict(x=1.0 - 1e-9),  # log_t and U's exponent pass 700
        "discontinuity": dict(alpha=0.35, eta1=1.1, eta2=2.0, p_s=30.0),
        "beta-one": dict(alpha=0.35, beta=1.0, eta1=1.1, eta2=2.0, p_s=30.0),
        "no-relay-power": dict(p_r=0.0),
        "no-relay-power-late": dict(alpha=0.35, eta1=1.1, eta2=2.0, p_s=1e8,
                                    p_r=0.0, x=0.999),
        "alpha-zero": dict(alpha=0.0),
        "alpha-one": dict(alpha=1.0),
        "equal-thresholds": dict(eta1=1.0, eta2=1.0),
        "zero-decoding-time": dict(x=0.0),
        "high-power": dict(p_s=1e8, p_r=1e8, x=0.9),
    }

    @staticmethod
    def assert_kernels_agree(ctx):
        vs = np.linspace(0.0, ctx.eta2 + 0.5, 2001)
        # U at the context's beta_bar, at alpha_bar and at 0 (all relay power
        # on layer 1)
        u_ctxs = [with_beta(ctx, beta) for beta in (ctx.alloc.beta, ctx.alloc.alpha, 1.0)]
        with np.errstate(all="ignore"):
            t, k = _t_values(vs, ctx), _k_values(vs, ctx)
            u = [_u_values(vs, c) for c in u_ctxs]
        for i, v in enumerate(vs):
            v = float(v)
            assert same_float(t_factor(v, ctx), t[i]), (v, "t")
            assert same_float(relay_threshold_bound(v, ctx), k[i]), (v, "K")
            for c, u_c in zip(u_ctxs, u):
                assert same_float(u_bound(v, c), u_c[i]), (v, "U", c.alloc.beta)
        return t, k

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned_cases(self, name):
        ctx = make_ctx(**self.CASES[name])
        t, k = self.assert_kernels_agree(ctx)
        if name == "late-relay":
            assert np.isinf(t[0])
        if name == "discontinuity":
            assert 0.0 < discontinuity_point(ctx) < ctx.eta1
            assert np.isinf(k[0])

    def test_random_contexts(self, param_rng):
        checked = 0
        for _ in range(12):
            ctx = try_ctx(draw_alloc(param_rng, beta_mode="ge"), draw_powers(param_rng))
            if ctx is not None:
                self.assert_kernels_agree(ctx)
                checked += 1
        assert checked >= 6


def bisect_discontinuity(ctx):
    """Bisection on the monotone t for t(v) = 1/beta_bar: the cross-check
    that discontinuity_point ran beside its closed form."""
    lo, hi = 0.0, ctx.eta1
    target = 1.0 / ctx.alloc.beta_bar
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_factor(mid, ctx) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def simplex_contexts():
    """Threshold contexts of the validation corpus's simplex cases and of the
    fig6/fig7/fig8 oblivious plans on their default grids (fig8 over the
    coarse beta grid of its search)."""
    for case in validation_corpus(20_240_001, 50):
        if case.scheme.startswith("simplex"):
            yield case.alloc, case.cfg
    ps_grid = [2.5 * i for i in range(11)]
    grids = [  # (P_s dB, Q dB, P_r/P_s) of each preset
        (ps_grid, (15.0, 20.0), (1.0,)),
        ((10.0, 20.0), (10.0, 20.0), (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)),
        (ps_grid, (20.0,), (1.0,)),
    ]
    plans = {}
    for ps_db, q_db, ratios in grids:
        for db in ps_db:
            p_s = 10.0 ** (db / 10.0)
            if db not in plans:
                plans[db] = oblivious_rate_plan(p_s)
            plan = plans[db]
            betas = [plan.alpha] + [b for b in np.linspace(0.0, 1.0, 12) if b >= plan.alpha]
            for q in q_db:
                for ratio in ratios:
                    cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=10.0 ** (q / 10.0))
                    for beta in betas:
                        yield plan.with_beta(float(beta)), cfg


def test_discontinuity_closed_form_matches_bisection():
    checked = 0
    for alloc, cfg in simplex_contexts():
        ctx = try_ctx(alloc, cfg)
        if ctx is None or ctx.x == 0.0:
            continue  # never reaches the threshold machinery
        for c in (ctx, with_beta(ctx, ctx.alloc.alpha)):
            v = discontinuity_point(c)
            if 0.0 < v < ctx.eta1:
                assert abs(v - bisect_discontinuity(c)) <= \
                    1e-8 * max(1.0, ctx.eta1), (alloc, cfg, c.alloc.beta)
                checked += 1
    assert checked >= 300


@pytest.mark.parametrize("diff", [
    lambda v: math.nan if v < 0.3 else -1.0,
    lambda v: -1.0 if v < 0.3 else math.nan,
])
def test_bisection_counts_nan_as_f_above_u(diff):
    # K - U is NaN (inf - inf) where both curves are infinite; the scan
    # counts that as K above U, so the bisection must too and find the
    # boundary at 0.3
    assert _bisect_crossing(diff, 0.0, 1.0) == pytest.approx(0.3, abs=1e-15)


def test_discontinuity_point_stays_below_eta1_at_high_power():
    # at 75.3 dB the closed form cancels and used to round past eta1
    alloc = TwoLayerAllocation(alpha=0.4414527970026278, eta1=1.1703141222481437,
                               eta2=2.5219466540055393)
    cfg = PowerConfig(p_s=3.4095e7, p_r=3.4095e7, q=100.0)
    ctx = BoundContext.from_config(alloc, cfg)
    assert discontinuity_point(ctx) <= ctx.eta1
    cuts = find_intersections(ctx)
    assert cuts[0] <= cuts[-1] == ctx.eta1
    res = simplex_equal_throughput(alloc, cfg)
    assert math.isfinite(res.r_av) and 0.0 <= res.r_av <= ctx.r1 + ctx.r2
