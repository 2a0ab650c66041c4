import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_alloc, draw_powers
from relaycast import (BoundContext, PowerConfig, TwoLayerAllocation, bounds,
                       conditional_layer_probability, decoding_times,
                       discontinuity_point, figures, layer_rates, relay_threshold_bound,
                       simplex_equal_throughput, t_factor, twolayer, u_bound)
from relaycast.bounds import _k_values, _refine_crossing, _u_values, find_intersections
from relaycast.broadcast import _ladder, _panel_rule
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

    def test_overflowing_t_at_beta_one_is_inf_without_a_warning(self):
        # alpha = beta = 1: beta_bar = 0, and t = inf near 0 (expm1(delta)
        # overflows) makes the bracket's beta_bar * G * expm1(delta) inf * 0;
        # the NaN bracket fails bracket > 0, so K is +inf there
        ctx = make_ctx(alpha=1.0, eta1=1.0, eta2=1.0, p_s=1e4, x=0.99)
        v = np.array([0.0, 1e-5, 0.5])
        assert all(t_factor(float(x), ctx) == math.inf for x in v[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = _k_values(v, ctx)
        assert k[0] == k[1] == math.inf
        assert list(k) == [relay_threshold_bound(float(x), ctx) for x in v]


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

    def test_conditional_layer_two_ignores_layer_one(self):
        # below the discontinuity no nu_r decodes layer 1 (K = +inf), yet the
        # layer-2 estimate is U's condition alone: exp(-U) = 0.066 here
        ctx = BoundContext.from_config(TwoLayerAllocation(alpha=0.9, eta1=0.5, eta2=0.75),
                                       PowerConfig(p_s=5.0, p_r=5.0, q=1.5))
        v = 0.0486
        assert v < discontinuity_point(ctx) and relay_threshold_bound(v, ctx) == math.inf
        assert conditional_layer_probability(v, 1, ctx, blocks=200_000, seed=64).mean == 0.0
        est = conditional_layer_probability(v, 2, ctx, blocks=200_000, seed=64)
        assert abs(math.exp(-u_bound(v, ctx)) - est.mean) < 3 * max(est.stderr, 1e-4)

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


def rule_crossings(ctx):
    """find_intersections on the nodes of the simplex closed forms' rule."""
    v, _ = _panel_rule(_ladder((discontinuity_point(ctx), ctx.eta1)), twolayer._LOWER_NODES)
    return find_intersections(ctx, v, _k_values(v, ctx), _u_values(v, ctx))


class TestFindIntersections:
    def test_partition_structure(self, param_rng):
        checked = 0
        for _ in range(40):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            ctx = make_ctx(alpha=alloc.alpha, beta=alloc.beta, eta1=alloc.eta1,
                           eta2=alloc.eta2, x=float(param_rng.uniform(0.05, 0.95)))
            cuts = (discontinuity_point(ctx), *rule_crossings(ctx), ctx.eta1)
            checked += 1
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
        # only 0, 1 or 2 crossings can occur
        for _ in range(40):
            alloc = draw_alloc(param_rng, beta_mode="ge")
            ctx = make_ctx(alpha=alloc.alpha, beta=alloc.beta, eta1=alloc.eta1,
                           eta2=alloc.eta2, x=0.0)
            assert len(rule_crossings(ctx)) in (0, 1, 2)


def same_float(a, b) -> bool:
    """Bit-for-bit equality (the sign of zero included); NaN matches NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestScalarKernels:
    """The scalar K/U kernels behind quad's integrand and the crossing
    bisection (relay_threshold_bound, u_bound) must reproduce the array
    kernels bit for bit; t is read from the scalar t_factor."""

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
            k = _k_values(vs, ctx)
            u = [_u_values(vs, c) for c in u_ctxs]
        t = np.array([t_factor(float(v), ctx) for v in vs])
        for i, v in enumerate(vs):
            v = float(v)
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


def scan_sign_changes(ctx, visible=True):
    """The brackets of the sign changes of K - U on a uniform 10,001-point
    grid of [v_lo, eta1], nudged off the pole at v_lo and off eta1: a dense
    reference for the crossings.  With ``visible``, only those where
    exp(-max(K, U, 0) - v) is nonzero at either end."""
    v_lo = discontinuity_point(ctx)
    span = ctx.eta1 - v_lo
    grid = np.linspace(v_lo, ctx.eta1, 10_001)
    grid[0] += 1e-9 * span
    grid[-1] -= 1e-12 * span
    with np.errstate(invalid="ignore"):
        k, u = _k_values(grid, ctx), _u_values(grid, ctx)
        above = ~(k - u <= 0.0)
        live = np.exp(-np.maximum(np.maximum(k, u), 0.0) - grid) > 0.0
    flips = above[:-1] != above[1:]
    if visible:
        flips &= live[:-1] | live[1:]
    return [(grid[i], grid[i + 1]) for i in np.nonzero(flips)[0]]


def random_plans(rng, n):
    """n simplex plans from -20 to 80 dB, with beta = alpha in about half."""
    for _ in range(n):
        alpha = float(rng.uniform(0.0, 1.0))
        beta = alpha if rng.uniform() < 0.5 else float(rng.uniform(alpha, 1.0))
        eta1, eta2 = sorted(float(e) for e in rng.uniform(0.0, 4.0, 2))
        p_s = 10.0 ** (rng.uniform(-20.0, 80.0) / 10.0)
        yield (TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta2, beta=beta),
               PowerConfig(p_s=p_s, p_r=p_s * 10.0 ** rng.uniform(-2.0, 2.0),
                           q=10.0 ** rng.uniform(-2.0, 8.0)))


def test_rule_nodes_lose_no_visible_crossing(param_rng):
    # every sign change that the dense uniform scan sees, and that the
    # integrand can see, lies in a bracket holding a crossing of the rule's
    # nodes
    visible = 0
    for alloc, cfg in (*simplex_contexts(), *random_plans(param_rng, 300)):
        ctx = try_ctx(alloc, cfg)
        if ctx is None or ctx.r1 == 0.0:
            continue  # no layer-1 threshold to cross
        crossings = rule_crossings(ctx)
        for lo, hi in scan_sign_changes(ctx):
            assert any(lo <= c <= hi for c in crossings), (alloc, cfg, lo, hi)
            visible += 1
    assert visible >= 100


def test_noise_crossings_are_skipped():
    # at 66 dB the relay decodes after all but 6.8e-8 of the block.  K formed
    # as a difference of t-sized terms flipped by rounding between about 1e6
    # and +inf where U = +inf: over 1,000 sign changes on the scan, none of
    # which the integrand could see.  In complement variables K falls
    # smoothly from the discontinuity to 0 at eta1, below U = +inf, so no
    # sign change is left to skip
    alpha = 0.33749905930863977
    alloc = TwoLayerAllocation(alpha=alpha, eta1=3.991948240095225,
                               eta2=3.9939568722355077, beta=alpha)
    cfg = PowerConfig(p_s=4341282.5630751755, p_r=61252089.78125765,
                      q=93.43343293320558)
    ctx = BoundContext.from_config(alloc, cfg)
    assert scan_sign_changes(ctx, visible=False) == []
    assert rule_crossings(ctx) == ()
    # r_av with p1's lower-range integral from an 80-digit mpmath K and
    # discontinuity point; the difference form read 0.3071593155010401
    assert simplex_equal_throughput(alloc, cfg).r_av == pytest.approx(
        0.3071593165100845, rel=1e-12)


def test_sign_change_skipped_only_where_integrand_vanishes():
    ctx = make_ctx()
    v = np.array([0.1, 0.2])
    inf = math.inf
    # K: +inf -> 1e6 under U = +inf flips the sign (NaN, then -inf) with
    # exp(-max(K, U)) = 0 at both nodes
    assert find_intersections(ctx, v, np.array([inf, 1e6]), np.array([inf, inf])) == ()
    # a flip to thresholds that the integrand sees is kept
    crossings = find_intersections(ctx, v, np.array([inf, 1.0]), np.array([inf, 3.0]))
    assert len(crossings) == 1 and 0.1 <= crossings[0] <= 0.2


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
def test_refinement_counts_nan_as_f_above_u(diff):
    # K - U is NaN (inf - inf) where both curves are infinite;
    # find_intersections' sign test counts that as K above U, so the
    # refinement must too and find the boundary at 0.3
    assert _refine_crossing(diff, 0.0, 1.0, diff(0.0), diff(1.0)) == pytest.approx(
        0.3, abs=1e-15)


def bisect_sign_change(diff, lo, hi):
    """Bisection of the sign change of diff between lo and hi down to
    adjacent floats, a NaN counting as K above U: the reference for
    _refine_crossing."""
    above_lo = not diff(lo) <= 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (not diff(mid) <= 0.0) == above_lo:
            lo = mid
        else:
            hi = mid


def test_refined_crossings_match_bisection(monkeypatch):
    # every crossing that fig6-fig8 (their default grids, fig8's beta searches
    # included), 400 simplex cases of the validation corpus and two
    # TestScalarKernels contexts refine
    calls, seen = [], {"ctx": None, "preset": True}
    refine, k_kernel = bounds._refine_crossing, bounds._k_kernel

    def record_ctx(ctx):
        seen["ctx"] = ctx
        return k_kernel(ctx)

    def record(diff, lo, hi, f_lo, f_hi):
        calls.append((seen["preset"], seen["ctx"], diff, lo, hi, f_lo, f_hi))
        return refine(diff, lo, hi, f_lo, f_hi)

    monkeypatch.setattr(bounds, "_k_kernel", record_ctx)
    monkeypatch.setattr(bounds, "_refine_crossing", record)
    for name in ("fig6", "fig7", "fig8"):
        figures.run_preset(name)
    seen["preset"] = False
    for case in validation_corpus(20_240_001, 200):
        if case.scheme.startswith("simplex"):
            twolayer.CLOSED_FORMS[case.scheme](case.alloc, case.cfg)
    for name in ("discontinuity", "late-relay"):
        rule_crossings(make_ctx(**TestScalarKernels.CASES[name]))
    assert sum(preset for preset, *_ in calls) >= 100 and len(calls) >= 200

    def above(f):
        return not f <= 0.0

    for preset, ctx, diff, lo, hi, f_lo, f_hi in calls:
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return diff(x)

        root = refine(counted, lo, hi, f_lo, f_hi)
        assert evals <= 20 or not preset, (ctx, lo, hi, evals)
        # a sign change at float resolution: diff is 0 at root, or changes
        # sign between root and a neighbouring float
        f = diff(root)
        assert f == 0.0 or any(above(diff(math.nextafter(root, end))) != above(f)
                               for end in (lo, hi)), (ctx, lo, hi, root)
        ref = bisect_sign_change(diff, lo, hi)
        if abs(root - ref) > 2 * math.ulp(ref):
            # rounding flips the sign of K - U several times near the
            # crossing (over up to about 1,000 ulps at nu_s ~ 2e-3), and the
            # two searches stop at different flips: K and U agree to
            # rounding between them
            k_of = bounds._k_kernel(ctx)
            for x in np.linspace(min(root, ref), max(root, ref), 65):
                x = float(x)
                assert abs(diff(x)) <= 1e-12 * max(1.0, abs(k_of(x))), (ctx, lo, hi, x)


@pytest.mark.parametrize("name", sorted(TestScalarKernels.CASES))
def test_layer2_integrand_matches_u_bound(name):
    # quad's [eta1, eta2] integrand reads U on math's log1p/expm1, u_bound on
    # numpy's.  It lies in [0, 1], and the two agree to 4 ulps of 1; not to
    # 4 ulps of the integrand itself, since a one-ulp move of U moves
    # exp(-U) by about U of its ulps, and the backends' U can differ by tens
    # of ulps where expm1's argument is large.  U is 0/0 at eta2 when P_r = 0,
    # which the closed forms send to the direct form
    ctx = make_ctx(**TestScalarKernels.CASES[name])
    vs = np.linspace(0.0, ctx.eta2 + 0.5, 2001)
    checked = 0
    for c in (ctx, with_beta(ctx, ctx.alloc.alpha), with_beta(ctx, 1.0)):
        u_math = bounds._u_kernel(c, math)
        for v in vs:
            v = float(v)
            u, thr = u_bound(v, c), u_math(v)
            if not math.isnan(u):  # twolayer's integrand, as it writes it
                got = math.exp(-(thr if thr > 0.0 else 0.0) - v)
                assert abs(got - math.exp(-max(u, 0.0) - v)) <= 4 * math.ulp(1.0), (v, c)
                checked += 1
    assert checked >= 3 * len(vs) - 3


def test_discontinuity_point_stays_below_eta1_at_high_power():
    # at 75.3 dB the closed form cancels and used to round past eta1
    alloc = TwoLayerAllocation(alpha=0.4414527970026278, eta1=1.1703141222481437,
                               eta2=2.5219466540055393)
    cfg = PowerConfig(p_s=3.4095e7, p_r=3.4095e7, q=100.0)
    ctx = BoundContext.from_config(alloc, cfg)
    v_lo = discontinuity_point(ctx)
    assert v_lo <= ctx.eta1
    assert all(v_lo < c < ctx.eta1 for c in rule_crossings(ctx))
    res = simplex_equal_throughput(alloc, cfg)
    assert math.isfinite(res.r_av) and 0.0 <= res.r_av <= ctx.r1 + ctx.r2


# Trapezoid sums of exp(-max(K, 0) - v) over 801 uniform nodes of [0, eta1]
# (K is +inf below the discontinuity) for the first 24 random_plans (seed 3)
# at 60-80 dB whose relay decodes with 0 < 1 - x <= 1e-4, with K evaluated
# once by 80-digit mpmath from the same float plans.  K formed as a
# difference of t-sized terms was off by up to 4.5e-5 on these plans
HIGH_POWER_K_INTEGRALS = (
    0.000157924889994144, 6.060717624867828e-05, 0.00014245650317555952,
    0.10243205676262211, 0.00016865425790175227, 0.0001995699176239257,
    0.11308133831564124, 9.524040588717865e-05, 0.0001272365956027611,
    0.0043730031429225985, 9.529314262419017e-05, 0.0210696002846101,
    0.009230948599786144, 8.051722699691675e-05, 0.00021968870295980124,
    0.0001560118322680095, 0.020716599645756832, 0.00016506742323275014,
    0.04268022783712035, 0.00022132784059876042, 0.00015283309306979756,
    0.0001875387236141981, 0.124382371402516, 0.0001689440828053379,
)


def test_k_at_high_power_matches_an_80_digit_evaluation():
    got = []
    for alloc, cfg in random_plans(np.random.default_rng(3), 6000):
        x = decoding_times(alloc, cfg).eps2
        if cfg.p_s >= 1e6 and 0.0 < 1.0 - x <= 1e-4:
            ctx = BoundContext.from_config(alloc, cfg)
            v = np.linspace(0.0, alloc.eta1, 801)
            w = np.full(801, alloc.eta1 / 800)
            w[[0, -1]] *= 0.5
            with np.errstate(all="ignore"):
                k = _k_values(v, ctx)
            got.append(float(np.sum(w * np.exp(-np.maximum(k, 0.0) - v))))
            if len(got) == len(HIGH_POWER_K_INTEGRALS):
                break
    assert got == pytest.approx(HIGH_POWER_K_INTEGRALS, rel=1e-13)


# a 78.7 dB plan whose relay decodes after all but 4.75e-9 of the block
LATE_RELAY_PLAN = (TwoLayerAllocation(alpha=0.0085, eta1=2.8515610502662736,
                                      eta2=3.3904975210181356),
                   PowerConfig(p_s=74131024.13009177, p_r=29847158.50734121,
                               q=3408.0063706907818))


def test_lower_range_integral_at_78_7_db():
    # the relay decodes after all but 4.75e-9 of the block, and layer 1 is
    # decodable only on the 1.35e-8 below eta1.  On 4,001 uniform nodes K is
    # +inf below eta1, as its exact value is; the rule's lower-range
    # integral of p1 matches its 80-digit value 8.79e-11, where the
    # difference forms of K and of the discontinuity point read 6.3e-7
    alloc, cfg = LATE_RELAY_PLAN
    ctx = BoundContext.from_config(alloc, cfg)
    assert 1.0 - ctx.x == pytest.approx(4.75e-9, rel=1e-3)
    assert ctx.eta1 - discontinuity_point(ctx) == pytest.approx(1.3536e-8, rel=1e-4)
    with np.errstate(all="ignore"):
        assert np.isinf(_k_values(np.linspace(0.0, ctx.eta1, 4001)[:-1], ctx)).all()
    lower = simplex_equal_throughput(alloc, cfg).p_layer1 - math.exp(-alloc.eta1)
    assert lower == pytest.approx(8.790207232865943e-11, abs=1e-16)


# U at LATE_RELAY_PLAN's nu_s = eta2 - f (eta2 - eta1) for f = 1e-6, 1e-7,
# 1e-8 and 1e-9, evaluated once by 60-digit mpmath from the same float plan
# and points, with the plan's exact 1 - x.  U formed from (log Z - r2)/(x - 1)
# was off by up to 9.3e-4 on these points
LATE_RELAY_U = (2939121854520531.5, 231.26692783957745, 3.3494022377745942,
                0.2867593176108984)


def test_u_at_78_7_db_matches_a_60_digit_evaluation():
    alloc, cfg = LATE_RELAY_PLAN
    ctx = BoundContext.from_config(alloc, cfg)
    v = [alloc.eta2 - f * (alloc.eta2 - alloc.eta1) for f in (1e-6, 1e-7, 1e-8, 1e-9)]
    assert list(_u_values(np.array(v), ctx)) == pytest.approx(LATE_RELAY_U, rel=1e-12)
    assert [u_bound(x, ctx) for x in v] == pytest.approx(LATE_RELAY_U, rel=1e-12)
