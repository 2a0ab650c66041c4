import numpy as np
import pytest

from relaycast import (PowerConfig, optimize, twolayer,
                       direct_multilayer_throughput, maximize_throughput,
                       oblivious_rate_plan, optimal_single_user_rate,
                       single_user_throughput)
from relaycast.optimize import golden_section_max, horizontal_db_gain


def plan_value(plan, p_s):
    return direct_multilayer_throughput((plan.eta1, plan.eta2),
                                        (plan.alpha, plan.alpha_bar), p_s).r_av


def brute_direct_optimum(p_s, n=200, eta_max=2.5):
    """Independent chunked brute-force grid over (alpha, eta1, eta2)."""
    best = -np.inf
    e1 = np.linspace(0.0, eta_max, n)[:, None]
    e2 = np.linspace(0.0, eta_max, n)[None, :]
    feasible = e1 <= e2
    for a in np.linspace(0.0, 1.0, n):
        ab = 1.0 - a
        obj = ((np.log1p(e1 * p_s) - np.log1p(e1 * ab * p_s)) * np.exp(-e1)
               + np.log1p(e2 * ab * p_s) * np.exp(-e2))
        best = max(best, float(np.max(np.where(feasible, obj, -np.inf))))
    return best


def test_golden_section_max():
    x, fx = golden_section_max(lambda x: -(x - 1.3) ** 2, 0.0, 3.0, tol=1e-8)
    assert x == pytest.approx(1.3, abs=1e-6) and fx == pytest.approx(0.0, abs=1e-12)
    x, fx = golden_section_max(lambda x: x, 2.0, 2.0)  # zero-width interval
    assert x == 2.0 and fx == 2.0


class TestObliviousPlan:
    @pytest.mark.parametrize("p_s", [1.0, 10.0, 100.0])
    def test_two_layers_beat_one(self, p_s):
        one = single_user_throughput(optimal_single_user_rate(p_s), p_s).r_av
        assert plan_value(oblivious_rate_plan(p_s), p_s) >= one - 1e-12

    @pytest.mark.parametrize("p_s", [1.0, 10.0])
    def test_beats_brute_force_grid(self, p_s):
        brute = brute_direct_optimum(p_s)
        assert plan_value(oblivious_rate_plan(p_s), p_s) >= brute - 1e-6

    def test_deterministic(self):
        assert oblivious_rate_plan(7.0) == oblivious_rate_plan(7.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oblivious_rate_plan(0.0)


# (P_s dB, alpha, eta1, eta2 as float.hex) of oblivious_rate_plan(P_s), as
# its own 64-point grid search gave them before the plan became a direct
# maximize_throughput call.  The coarse grid holds exact ties below about
# -17.5 dB and above about 71 dB (one threshold drops out of the objective on
# the alpha = 0 and alpha = 1 rows); at -19.5, -19.25, -18.75, 71.5, 71.75 and
# 74.5 dB the plan depends on breaking them by fewer grid steps between eta1
# and eta2
PINNED_PLANS = [
    (-20.0, "0x1.0177dc0efd794p-1", "0x1.fc39c7e5b7e22p-1", "0x1.febc57712deb1p-1"),
    (-19.5, "0x1.01a53a9b9e275p-1", "0x1.fbc6237de4f1bp-1", "0x1.fe9563d1d860fp-1"),
    (-19.25, "0x1.01beecc1144d7p-1", "0x1.fb8756b9e48d6p-1", "0x1.fe803b52407bfp-1"),
    (-18.75, "0x1.01f3363de2743p-1", "0x1.fafece72832e3p-1", "0x1.fe52237f7e208p-1"),
    (-18.0, "0x1.024f36f7fdba3p-1", "0x1.fa13bccabdc26p-1", "0x1.fe02a9db8b82ep-1"),
    (-17.5, "0x1.029504093aa46p-1", "0x1.f96037eee38edp-1", "0x1.fdc5d5da69de3p-1"),
    (-17.0, "0x1.02e3693feed0ap-1", "0x1.f8982a127dbe2p-1", "0x1.fd81ee2d0b359p-1"),
    (-15.0, "0x1.04804f178a9b8p-1", "0x1.f47c2dcf90720p-1", "0x1.fc1a8b294f8efp-1"),
    (-12.5, "0x1.07bc146201ee1p-1", "0x1.ec4c5ae3d59a6p-1", "0x1.f9431de9185c1p-1"),
    (-10.0, "0x1.0cfd6b6a3dc0dp-1", "0x1.df1f63e9be75bp-1", "0x1.f48fdb249ca5ep-1"),
    (-5.0, "0x1.20d125e323da5p-1", "0x1.aefdee6d81d6ep-1", "0x1.e1ff5871850a5p-1"),
    (0.0, "0x1.43701369af81cp-1", "0x1.610f4124cbdc6p-1", "0x1.bed7b8ea12cc5p-1"),
    (5.0, "0x1.6fa6f5b6ceb5ap-1", "0x1.08bdda4bd26fbp-1", "0x1.8e0bb9c790962p-1"),
    (10.0, "0x1.9bc09116f0590p-1", "0x1.785f9cb81990dp-2", "0x1.59f5a73d88589p-1"),
    (15.0, "0x1.c07ef5fa20328p-1", "0x1.06e359cfb2274p-2", "0x1.2b2ed937503b7p-1"),
    (20.0, "0x1.db17a4c1d7a2dp-1", "0x1.71fb9adbf3774p-3", "0x1.04fc3801cc0b5p-1"),
    (25.0, "0x1.ec2fda4ea150cp-1", "0x1.0a2221b1d1612p-3", "0x1.ce49d4799117fp-2"),
    (30.0, "0x1.f61944f223703p-1", "0x1.8a2002a2bd7c1p-4", "0x1.a05d3e2b84599p-2"),
    (40.0, "0x1.fdef1b61a6de3p-1", "0x1.d9ba19fa692e0p-5", "0x1.616f39f89ee35p-2"),
    (50.0, "0x1.ffa3ff45e4ba0p-1", "0x1.3cf8336156f5ep-5", "0x1.3a2478103b964p-2"),
    (60.0, "0x1.fff1d6d624cf2p-1", "0x1.cb74de4382cb3p-6", "0x1.1fba0bbc336dcp-2"),
    (70.0, "0x1.fffe0664c0433p-1", "0x1.62bbca5c04c60p-6", "0x1.0d8f03221e46ap-2"),
    (71.5, "0x1.fffe8d27aa0e6p-1", "0x1.57c6670ee48d7p-6", "0x1.0bbab0106a9eap-2"),
    (71.75, "0x1.fffe940b345a4p-1", "0x1.519faf7c77f96p-6", "0x1.09befb4be7884p-2"),
    (72.5, "0x1.fffec7849de60p-1", "0x1.4c1a246387ebfp-6", "0x1.08b8fb605cae6p-2"),
    (74.5, "0x1.ffff2cd720415p-1", "0x1.3c208dca7eb51p-6", "0x1.054b72838d163p-2"),
    (77.5, "0x1.ffff8b461850bp-1", "0x1.267f3670d9114p-6", "0x1.0084521036288p-2"),
    (80.0, "0x1.ffffb39a0a0c8p-1", "0x1.0e2646f2c9357p-6", "0x1.f2c53aee0e333p-3"),
]


@pytest.mark.parametrize("ps_db,alpha,eta1,eta2", PINNED_PLANS)
def test_pinned_plans(ps_db, alpha, eta1, eta2):
    plan = oblivious_rate_plan(10 ** (ps_db / 10))
    assert (plan.alpha, plan.eta1, plan.eta2) == tuple(map(float.fromhex, (alpha, eta1, eta2)))


class TestMaximizeThroughput:
    def test_feasible_and_improves_on_coarse(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        res = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                  coarse_points=16)
        p = res.params
        assert 0.0 <= p["alpha"] <= 1.0 and 0.0 <= p["eta1"] <= p["eta2"]
        assert res.value >= res.coarse_best

    def test_beta_constraint_respected(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        plan = oblivious_rate_plan(10.0)
        res = maximize_throughput("simplex-unequal", ("beta",),
                                  {"alpha": plan.alpha, "eta1": plan.eta1,
                                   "eta2": plan.eta2}, cfg, coarse_points=8)
        assert res.params["beta"] >= plan.alpha - 1e-12

    def test_single_point_feasible_set(self):
        cfg = PowerConfig(p_s=5.0, p_r=5.0, q=10.0)
        res = maximize_throughput("simplex-unequal", ("beta",),
                                  {"alpha": 1.0, "eta1": 0.2, "eta2": 0.8},
                                  cfg, coarse_points=8)
        assert res.params["beta"] == pytest.approx(1.0)

    def test_dominates_equal_split_point(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        plan = oblivious_rate_plan(10.0)
        from relaycast import simplex_equal_throughput
        eq = simplex_equal_throughput(plan, cfg).r_av
        res = maximize_throughput("simplex-unequal", ("beta",),
                                  {"alpha": plan.alpha, "eta1": plan.eta1,
                                   "eta2": plan.eta2}, cfg, coarse_points=8)
        assert res.value >= eq - 1e-12

    def test_one_free_parameter_runs_one_line_search(self, monkeypatch):
        # the box of a lone coordinate does not depend on the start, so every
        # start and every further pass would repeat the same golden search
        searches = []

        def counted(*args, **kwargs):
            searches.append(args[1:3])
            return golden_section_max(*args, **kwargs)

        monkeypatch.setattr(optimize, "golden_section_max", counted)
        res = maximize_throughput("simplex-unequal", ("beta",),
                                  {"alpha": 0.7, "eta1": 0.3, "eta2": 1.8},
                                  PowerConfig(10.0, 10.0, 100.0), coarse_points=10)
        assert searches == [(0.7, 1.0)]
        assert (res.value, res.params["beta"]) == (1.0410386128522764, 0.7000002609033692)

    def test_reproducible(self):
        cfg = PowerConfig(p_s=3.0, p_r=9.0, q=1.0)
        a = maximize_throughput("miso-unequal", ("alpha", "beta"),
                                {"eta1": 0.3, "eta2": 1.1}, cfg, coarse_points=12)
        b = maximize_throughput("miso-unequal", ("alpha", "beta"),
                                {"eta1": 0.3, "eta2": 1.1}, cfg, coarse_points=12)
        assert a == b

    def test_input_validation(self):
        cfg = PowerConfig(p_s=1.0, p_r=1.0, q=1.0)
        with pytest.raises(ValueError):
            maximize_throughput("direct", (), {"alpha": 0.5, "eta1": 0.1,
                                               "eta2": 0.2}, cfg)
        with pytest.raises(ValueError):
            maximize_throughput("direct", ("gamma",), {}, cfg)
        with pytest.raises(ValueError):
            maximize_throughput("warp", ("alpha",), {"eta1": 0.1, "eta2": 0.2}, cfg)

    @pytest.mark.parametrize("coarse", [0, -2])
    def test_coarse_points_below_one_raise(self, coarse):
        cfg = PowerConfig(p_s=1.0, p_r=1.0, q=1.0)
        with pytest.raises(ValueError, match="coarse_points"):
            maximize_throughput("direct", ("alpha", "eta1", "eta2"), {}, cfg,
                                coarse_points=coarse)


# (P_s dB, P_r/P_s, scheme, free, fixed, coarse points, value, params, n_evals)
# returned by the point-by-point grid before the array-scored one; the -20 dB
# miso-equal grid has 45 points tied to rounding at its top, and P_r = 0
# ties every beta of miso-unequal
PINNED = [
    (-20.0, 0.5, "miso-equal", ("alpha", "eta1", "eta2"), {}, 24, 0.006103606866741826,
     {"alpha": 0.0, "eta1": 0.34782608695652173, "eta2": 1.206321307886644}, 7782),
    (25.0, 2.0, "miso-equal", ("alpha", "eta1", "eta2"), {}, 24, 5.187470690350326,
     {"alpha": 0.9845430980687317, "eta1": 0.4614733576874494,
      "eta2": 1.3218579269451707}, 13115),
    (25.0, 2.0, "miso-unequal", ("alpha", "beta", "eta1", "eta2"), {}, 12, 5.13976515975075,
     {"alpha": 0.932054581361531, "beta": 0.9322690454727516, "eta1": 0.3368347728031353,
      "eta2": 1.0456395614637604}, 26472),
    (-20.0, 0.0, "miso-unequal", ("alpha", "beta", "eta1", "eta2"), {}, 8,
     0.0036605670114499556,
     {"alpha": 0.0, "beta": 0.0, "eta1": 0.5714285714285714, "eta2": 0.9950655649293677},
     2938),
    (10.0, 0.0, "miso-unequal", ("alpha", "beta", "eta1", "eta2"), {}, 8, 1.1214241254671167,
     {"alpha": 0.8042035427571808, "beta": 0.0, "eta1": 0.36755243306352675,
      "eta2": 0.6757023191931215}, 5203),
    (25.0, 0.0, "miso-equal", ("alpha", "eta1", "eta2"), {}, 12, 3.642567693986696,
     {"alpha": 0.9613023822998997, "eta1": 0.1299477349843, "eta2": 0.4514530469459957},
     3394),
    (-20.0, 0.0, "direct", ("alpha", "eta1", "eta2"), {}, 10, 0.003660578116517921,
     {"alpha": 0.5028698580515196, "eta1": 0.9926284201830822,
      "eta2": 0.9975306362775664}, 2740),
    (80.0, 0.0, "direct", ("alpha", "eta2"), {"eta1": 0.2}, 16, 13.885961897291823,
     {"alpha": 0.9999996678126025, "eta1": 0.2, "eta2": 0.3601808564869735}, 565),
    (50.0, 1000.0, "miso-unequal", ("alpha", "beta"), {"eta1": 0.3, "eta2": 1.8}, 16,
     12.091229578013998,
     {"alpha": 0.9333775902664662, "beta": 0.9335052504965807, "eta1": 0.3, "eta2": 1.8},
     7696),
    (10.0, 2.0, "miso-unequal", ("beta", "eta1", "eta2"), {"alpha": 0.7}, 10,
     2.098919764469623,
     {"alpha": 0.7, "beta": 0.6997096228045993, "eta1": 0.7806654632540874,
      "eta2": 1.436325799143522}, 12188),
    (80.0, 0.001, "miso-equal", ("eta1", "eta2"), {"alpha": 0.6}, 16, 14.772221721346593,
     {"alpha": 0.6, "eta1": 0.00026512358772550084, "eta2": 0.06752583283780086}, 504),
    (-7.5, 0.5, "miso-unequal", ("alpha", "eta1", "eta2"), {}, 10, 0.0992611327411663,
     {"alpha": 0.5458103698844096, "eta1": 1.0968934304141444,
      "eta2": 1.1709921872274083}, 6022),
    (80.0, 1.0, "miso-equal", ("alpha", "eta1", "eta2"), {}, 12, 17.28591815112988,
     {"alpha": 0.9999994625095001, "eta1": 0.10712425231115612,
      "eta2": 0.6708513117367508}, 2448),
    (10.0, 2.0, "miso-unequal", ("alpha", "eta1", "eta2"), {"beta": 0.3}, 10,
     2.063729879177752,
     {"alpha": 0.31026006914706417, "beta": 0.3, "eta1": 0.5882868488102133,
      "eta2": 1.2576313902758125}, 12190),
    # alpha = 0 drops eta1 out, so all 16 grid points tie; with eta2 fixed the
    # search starts from, and keeps, the earliest one
    (-20.0, 0.0, "direct", ("eta1",), {"alpha": 0.0, "eta2": 2.0}, 16, 0.0026799941739575595,
     {"alpha": 0.0, "eta2": 2.0, "eta1": 0.0}, 41),
]


# (value, params, n_evals) of rows above, keyed by (P_s dB, P_r/P_s, free),
# re-captured when their search changed: the miso-unequal rows with beta free
# when that search began to start from the equal-split optimum, and the rows
# whose coarse grid holds exact ties when those began to go to the point with
# fewer grid steps between eta1 and eta2.  A new value may not fall below the
# PINNED value by more than 1e-6 relative
RECAPTURED = {
    (-20.0, 0.5, ("alpha", "eta1", "eta2")): (
        0.006103627694240707,
        {"alpha": 0.5032174057633415, "eta1": 1.2035740048186694,
         "eta2": 1.2090996522479156}, 12672),
    (25.0, 0.0, ("alpha", "eta1", "eta2")): (
        3.642567693986696,
        {"alpha": 0.9613023822998997, "eta1": 0.1299477349843, "eta2": 0.4514530469459957},
        5384),
    (-20.0, 0.0, ("alpha", "eta1", "eta2")): (
        0.003660578116517921,
        {"alpha": 0.5028698580515196, "eta1": 0.9926284201830822,
         "eta2": 0.9975306362775664}, 5968),
    (80.0, 1.0, ("alpha", "eta1", "eta2")): (
        17.28591815112988,
        {"alpha": 0.9999994625095001, "eta1": 0.10712425231115612,
         "eta2": 0.6708513117367508}, 2922),
    (25.0, 2.0, ("alpha", "beta", "eta1", "eta2")): (
        5.188095902063042,
        {"alpha": 0.98523993284817, "beta": 0.9844136984828225,
         "eta1": 0.4338422403783624, "eta2": 1.3685664779437259}, 12261),
    (-20.0, 0.0, ("alpha", "beta", "eta1", "eta2")): (
        0.0036605781165179223,
        {"alpha": 0.5028721348978143, "beta": 0.5028721348978143,
         "eta1": 0.9926284396615764, "eta2": 0.9975306558522576}, 3930),
    (10.0, 0.0, ("alpha", "beta", "eta1", "eta2")): (
        1.1214241254672634,
        {"alpha": 0.8042032105697833, "beta": 0.8042035427571808,
         "eta1": 0.3675522606382542, "eta2": 0.6757020525912635}, 5833),
    (50.0, 1000.0, ("alpha", "beta")): (
        12.09146697959807,
        {"eta1": 0.3, "eta2": 1.8, "alpha": 0.9698698347980078,
         "beta": 0.9699666157421898}, 172),
    (10.0, 2.0, ("beta", "eta1", "eta2")): (
        2.098919764469623,
        {"alpha": 0.7, "beta": 0.6997096228045993, "eta1": 0.7806654637084773,
         "eta2": 1.4363257995053693}, 2683),
}


@pytest.mark.parametrize("ps_db,ratio,scheme,free,fixed,coarse,value,params,n_evals",
                         PINNED)
def test_pinned_results(ps_db, ratio, scheme, free, fixed, coarse, value, params,
                        n_evals):
    p_s = 10 ** (ps_db / 10)
    res = maximize_throughput(scheme, free, fixed, PowerConfig(p_s, ratio * p_s, 1.0),
                              coarse_points=coarse)
    recaptured = RECAPTURED.get((ps_db, ratio, free))
    if recaptured is not None:
        assert res.value >= value * (1.0 - 1e-6)
        value, params, n_evals = recaptured
    assert (res.value, res.params, res.n_evals) == (value, params, n_evals)


def test_direct_and_miso_objectives_build_no_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("object built during the search")

    for name in ("direct_multilayer_throughput", "miso_equal_throughput",
                 "miso_unequal_throughput"):
        monkeypatch.setattr(twolayer, name, forbidden)
    monkeypatch.setattr(optimize, "TwoLayerAllocation", forbidden)
    monkeypatch.setattr(twolayer.ThroughputResult, "build", forbidden)
    cfg = PowerConfig(p_s=10.0, p_r=20.0, q=1.0)
    for scheme in ("direct", "miso-equal", "miso-unequal"):
        res = maximize_throughput(scheme, ("alpha", "beta", "eta1", "eta2"), {}, cfg,
                                  coarse_points=6)
        assert res.value >= res.coarse_best > 0.0


@pytest.mark.parametrize("scheme,fixed,message", [
    ("direct", {"alpha": 1.5}, "alpha must lie in"),
    ("miso-equal", {"alpha": -0.1}, "alpha must lie in"),
    ("miso-unequal", {"alpha": 0.5, "beta": 2.0}, "beta must lie in"),
])
def test_fixed_values_outside_the_domain_raise(scheme, fixed, message):
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=1.0)
    with pytest.raises(ValueError, match=message):
        maximize_throughput(scheme, ("eta1", "eta2"), fixed, cfg, coarse_points=6)


def test_unequal_split_at_least_matches_equal_split():
    # fig4 at 25 dB, P_r/P_s = 2: the unequal split contains the equal one
    # (beta = alpha); its own 4-D grid of 12 came out at 5.140 against 5.187
    # nats (D6), before it started from the equal-split optimum
    p_s = 10 ** 2.5
    cfg = PowerConfig(p_s=p_s, p_r=2.0 * p_s, q=1.0)
    eq = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                             coarse_points=24)
    uneq = maximize_throughput("miso-unequal", ("alpha", "beta", "eta1", "eta2"), {}, cfg,
                               coarse_points=12)
    assert uneq.value >= eq.value - 1e-9


class TestHorizontalGain:
    def test_exact_shift_recovered(self):
        ps = np.linspace(0.0, 20.0, 81)
        base = np.log1p(10 ** (ps / 10.0))
        better = np.log1p(10 ** ((ps + 2.0) / 10.0))  # worth exactly 2 dB
        assert horizontal_db_gain(ps, base, better, 10.0) == pytest.approx(2.0, abs=1e-6)

    def test_rejects_nonmonotone_and_out_of_range(self):
        ps = np.linspace(0.0, 10.0, 11)
        up = np.linspace(1.0, 2.0, 11)
        with pytest.raises(ValueError):
            horizontal_db_gain(ps, up[::-1], up, 5.0)
        with pytest.raises(ValueError):
            horizontal_db_gain(ps, up + 10.0, up, 5.0)
