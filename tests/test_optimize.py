import logging
import math
import re

import numpy as np
import pytest

from conftest import scalar_grid_best
from relaycast import (PowerConfig, TwoLayerAllocation, broadcast, figures, optimize,
                       twolayer, direct_multilayer_throughput, maximize_throughput,
                       miso_equal_throughput, oblivious_rate_plan, optimal_single_user_rate,
                       single_user_throughput, y_sum_tail)
from relaycast.montecarlo import SimConfig, simulate_strategy
from relaycast.optimize import golden_section_max, horizontal_db_gain, miso_single_layer_rate
from relaycast.outage import _layer_tail_terms
from relaycast.validation import family_z


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


class TestLineSearch:
    """golden_section_max, the Brent line search of every coordinate ascent."""

    @staticmethod
    def search(f, lo, hi, tol):
        probes = []

        def recorded(x):
            fx = f(x)
            probes.append((x, fx))
            return fx

        return golden_section_max(recorded, lo, hi, tol), probes

    @pytest.mark.parametrize("tol", [1e-5, 1e-6, 1e-7])
    def test_smooth_maximum_takes_fewer_probes_than_golden_section(self, tol):
        # log1p(x) - 0.3 x peaks at 7/3; golden section keeps 1/phi of the
        # bracket per probe after its first two.  Below about 3e-8 the
        # function's rounding hides where its maximum lies
        (x, fx), probes = self.search(lambda x: math.log1p(x) - 0.3 * x, 0.0, 4.0, tol)
        assert abs(x - 7.0 / 3.0) <= tol and (x, fx) in probes
        golden = 2 + math.ceil(math.log(4.0 / tol) / math.log((1 + math.sqrt(5.0)) / 2))
        assert len(probes) < golden / 2
        assert all(0.0 < p < 4.0 for p, _ in probes)

    @pytest.mark.parametrize("peak,edge", [(1.5, 1.0), (-0.5, 0.0)])
    def test_maximum_on_a_box_edge(self, peak, edge):
        (x, fx), probes = self.search(lambda x: -(x - peak) ** 2, 0.0, 1.0, 1e-7)
        assert abs(x - edge) <= 1e-7 and fx == max(f for _, f in probes)

    def test_kinked_two_peak_slice_returns_the_best_probe(self):
        # two tents, the lower one nearer the first probe: whichever peak the
        # search settles on, no probe it made is better than its result
        def f(x):
            return max(1.0 - 10.0 * abs(x - 0.35), 1.2 - 40.0 * abs(x - 0.9))

        (x, fx), probes = self.search(f, 0.0, 1.0, 1e-7)
        assert fx == f(x) == max(f for _, f in probes)
        assert (x, fx) == max(probes, key=lambda p: p[1])

    @pytest.mark.parametrize("band", [(0.0, 0.5), (0.6, 0.65)])
    def test_a_nan_probe_is_never_the_result(self, band):
        # NaN on a band that holds the first probe, or golden section's
        # second one, between the search's start and the maximum at 0.7
        def f(x):
            return math.nan if band[0] <= x < band[1] else -(x - 0.7) ** 2

        (x, fx), probes = self.search(f, 0.0, 1.0, 1e-7)
        assert any(math.isnan(f) for _, f in probes)
        assert fx == f(x) == max(f for _, f in probes if not math.isnan(f))


# the values of the 64-point direct search over (alpha, eta1, eta2) at -20..80
# dB in 2.5 dB steps, read by direct_multilayer_throughput at its result,
# captured before that search became the exact two-layer plan
DIRECT_GRID_SEARCH = (
    0.003660578116517924, 0.006484746328923097, 0.011454890428105144,
    0.020135480917745446, 0.035107440189814584, 0.060423737616834075,
    0.10199382005122276, 0.16757965674383915, 0.26606296170629773, 0.4059600683082546,
    0.593688705938138, 0.8323411675866784, 1.1214241254672768, 1.4574812601768836,
    1.8351679296959875, 2.248336591329179, 2.6908723781271027, 3.1572086507472283,
    3.6425676939898333, 4.143011718696814, 4.655384710084661, 5.177204362142915,
    5.706541140239811, 6.241904426797969, 6.782144508429411, 7.326372665974968,
    7.873898307453096, 8.424180687530718, 8.976792421728845, 9.531392189950118,
    10.08770442080101, 10.64550418827684, 11.204605956838641, 11.764855156051727,
    12.326121813489195, 12.88829571789086, 13.451282695439883, 14.015001691549802,
    14.579382459371594, 15.144364117654328, 15.70989241334238,
)


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

    @pytest.mark.parametrize("p_s", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_p_s_outside_the_domain_before_any_search(self, p_s, monkeypatch):
        # no plan is computed: NaN would otherwise reach
        # TwoLayerAllocation's "eta1 must be finite"
        monkeypatch.setattr(optimize, "_layered_plan", None)
        with pytest.raises(ValueError, match="p_s must be positive and finite"):
            oblivious_rate_plan(p_s)

    def test_never_below_the_grid_search(self):
        # the 64-point maximize_throughput("direct") search that was the plan,
        # at the 41 points -20..80 dB in 2.5 dB steps, by its captured values
        for ps_db, grid_value in zip(np.arange(-20.0, 80.1, 2.5), DIRECT_GRID_SEARCH):
            p_s = 10 ** (ps_db / 10)
            assert plan_value(oblivious_rate_plan(p_s), p_s) >= grid_value * (1.0 - 1e-12)

    def test_logs_one_debug_line(self, caplog, capsys):
        # the exact two-layer plan's own line reports the plan
        caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
        plan = oblivious_rate_plan(10.0)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG and capsys.readouterr().out == ""
        found = re.fullmatch(r"_layered_plan layers=2 iterations=\d+ root_steps=\d+ "
                             r"shifts=\d+ value=(\S+)", record.getMessage())
        assert found
        assert float(found[1]) == pytest.approx(plan_value(plan, 10.0), rel=1e-15, abs=0.0)


# (alpha, P_s, eta1, eta2) with eta1 the root of h and eta2 = expm1(W(alpha_bar
# P_s))/(alpha_bar P_s), both evaluated once by 40-digit mpmath (eta1 by 200
# bisections of h) from the same floats; the last two are the 70 and 80 dB
# plans' splits
PROFILED_THRESHOLDS = (
    (0.05, 0.01, 0.99043565296436762, 0.99530921916674779),
    (0.5, 0.01, 0.99261441952530219, 0.9975165273615797),
    (0.3, 1.0, 0.6469069097539164, 0.80621396617673709),
    (0.75, 1.0, 0.70907611669522524, 0.90464500270457471),
    (0.1, 10.0, 0.27620771581303502, 0.48447567899764487),
    (0.8, 10.0, 0.36634035514032521, 0.67287537746138276),
    (0.99, 316.22776601683796, 0.1745547108014359, 0.61222676086227498),
    (0.5, 100000.0, 0.0037905061679717614, 0.1154407288596295),
    (0.9999847675013748, 10000000.0, 0.021560042539061652, 0.26269189072108352),
    (0.9999979730859314, 100000000.0, 0.017276290553402174, 0.24884760951372794),
)
# expm1(W(P))/P, the single-layer threshold, by 40-digit mpmath
SINGLE_LAYER_ETA = {0.01: 0.99506556257502963, 1.0: 0.76322283435189671,
                    10.0: 0.47289255653869415, 1e8: 0.063820285463711153}


class TestProfiledThresholds:
    """optimize._layer_threshold on the direct tail e^{-eta}: the thresholds
    of the oblivious plan at a fixed power split alpha, layer 1 between P_s
    and (1 - alpha)P_s and layer 2 between (1 - alpha)P_s and 0."""

    @staticmethod
    def thresholds(alpha, p_s):
        tail, rest = _layer_tail_terms(p_s, 0.0), (1.0 - alpha) * p_s
        return (optimize._layer_threshold(tail, p_s, rest, 1.0),
                optimize._layer_threshold(tail, rest, 0.0, 1.0))

    @pytest.mark.parametrize("alpha,p_s,eta1,eta2", PROFILED_THRESHOLDS)
    def test_matches_a_40_digit_evaluation(self, alpha, p_s, eta1, eta2):
        first, second = self.thresholds(alpha, p_s)
        assert first[0] == pytest.approx(eta1, rel=1e-13, abs=0.0)
        assert second[0] == pytest.approx(eta2, rel=1e-13, abs=0.0)
        assert 0 < first[5] < optimize._ROOT_STEPS and 0 < second[5] < optimize._ROOT_STEPS

    @pytest.mark.parametrize("p_s,eta", SINGLE_LAYER_ETA.items())
    def test_edges_are_the_single_layer_plan(self, p_s, eta):
        # at alpha 0 or 1 one layer holds all of P_s
        got = optimize._layer_threshold(_layer_tail_terms(p_s, 0.0), p_s, 0.0, 1.0)[0]
        assert got == pytest.approx(eta, rel=1e-13, abs=0.0)

    def test_eta1_never_exceeds_eta2(self):
        # h(eta_w) <= 0 at every split, so eta1 <= eta_w <= eta2, with eta_w
        # the single-layer threshold expm1(W(P_s))/P_s
        for p_s in 10.0 ** np.arange(-2.0, 8.01, 0.5):
            eta_w = math.expm1(optimal_single_user_rate(p_s)) / p_s
            for alpha in np.linspace(0.0, 1.0, 41)[1:-1].tolist() + [1e-9, 1.0 - 1e-9]:
                first, second = self.thresholds(alpha, p_s)
                assert first[0] <= eta_w <= second[0]


# (P_s dB, alpha, eta1, eta2 as float.hex) of oblivious_rate_plan(P_s), as
# its own 64-point grid search gave them before the plan became a direct
# maximize_throughput call.  That grid held exact ties below about -17.5 dB
# and above about 71 dB, which its tie rule broke; the plan is now the exact
# two-layer plan, so no grid tie decides it, and these dB points stay as
# they were pinned
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


# the plans of PINNED_PLANS, keyed by P_s dB, as each of them moved, oldest
# first: when every line search after a coordinate's first began to span a
# bracket around the coordinate's last move, when the line searches became
# Brent's to a 1e-7 bracket, when both thresholds were profiled out of a
# search over alpha alone, and when the plan became the exact two-layer plan
# (_layered_plan at n = 2).  The last capture is the current plan,
# and its direct objective may not fall below the PINNED_PLANS plan's or an
# earlier capture's by more than 1e-6 relative
RECAPTURED_PLANS = {
    -20.0: [("0x1.01793ae1e291cp-1", "0x1.fc39cc0b84fdap-1", "0x1.febc59a725a74p-1"),
            ("0x1.01781bae9f33bp-1", "0x1.fc39c9f52212cp-1", "0x1.febc574a4c9a2p-1"),
            ("0x1.01783f9c5e685p-1", "0x1.fc39ca26e9e2cp-1", "0x1.febc57c2de833p-1"),
            ("0x1.01786912c1ee2p-1", "0x1.fc39ca5a9c7e5p-1", "0x1.febc57f73f0e7p-1")],
    -19.5: [("0x1.01a582778ca32p-1", "0x1.fbc624891deb4p-1", "0x1.fe95637fd5e14p-1"),
            ("0x1.01a562b8dc38fp-1", "0x1.fbc62438d479bp-1", "0x1.fe9563a8480c5p-1"),
            ("0x1.01a5bb63afee9p-1", "0x1.fbc624ffd669dp-1", "0x1.fe95647eee619p-1"),
            ("0x1.01a58d7a2237bp-1", "0x1.fbc624bfcedcep-1", "0x1.fe95643df5898p-1")],
    -19.25: [("0x1.01be6b4a5e2dcp-1", "0x1.fb875622fbcefp-1", "0x1.fe8037f9ed655p-1"),
             ("0x1.01bd536bfd65fp-1", "0x1.fb8752abfcc43p-1", "0x1.fe80363f94e7fp-1"),
             ("0x1.01be5da501762p-1", "0x1.fb87556adee63p-1", "0x1.fe8037ce0f620p-1"),
             ("0x1.01be142f1d64cp-1", "0x1.fb8754fe897f7p-1", "0x1.fe80376009f2dp-1")],
    -18.75: [("0x1.01f311e71d30ep-1", "0x1.fafeceed2e97ap-1", "0x1.fe52241777ce1p-1"),
             ("0x1.01f357dbe1c87p-1", "0x1.fafecf6870f35p-1", "0x1.fe5223f033f6cp-1"),
             ("0x1.01f36296c88d9p-1", "0x1.fafecf6a7d394p-1", "0x1.fe52251b22cabp-1"),
             ("0x1.01f36804f316cp-1", "0x1.fafecf7370f47p-1", "0x1.fe5225243e7f5p-1")],
    -18.0: [("0x1.024f569096b1ap-1", "0x1.fa13bcf641370p-1", "0x1.fe02aa73eec85p-1"),
            ("0x1.024f1d2b5b61ap-1", "0x1.fa13bbd3cfc03p-1", "0x1.fe02aa0811361p-1"),
            ("0x1.024f76ef3a238p-1", "0x1.fa13bcba43348p-1", "0x1.fe02aae64cde5p-1"),
            ("0x1.024f4aee9fbb6p-1", "0x1.fa13bc64995cep-1", "0x1.fe02aa8ede014p-1")],
    -17.5: [("0x1.02959876ae64fp-1", "0x1.f9603a2e80bc2p-1", "0x1.fdc5d80d7e4fep-1"),
            ("0x1.029543039495cp-1", "0x1.f96038d6d0f69p-1", "0x1.fdc5d76241a63p-1"),
            ("0x1.02959497bcf7bp-1", "0x1.f960398c9701fp-1", "0x1.fdc5d8a17dbfap-1"),
            ("0x1.0295839877058p-1", "0x1.f9603967a4aeep-1", "0x1.fdc5d87bb0ca3p-1")],
    -17.0: [("0x1.02e3b5a5e4c42p-1", "0x1.f8982c10d582bp-1", "0x1.fd81efe8044fdp-1"),
            ("0x1.02e3b483a6807p-1", "0x1.f8982c642f4a3p-1", "0x1.fd81ef4430708p-1"),
            ("0x1.02e3cb3d343f3p-1", "0x1.f8982c556405ap-1", "0x1.fd81ef7c7810fp-1"),
            ("0x1.02e3d3120a95fp-1", "0x1.f8982c68631a6p-1", "0x1.fd81ef8ff4e4fp-1")],
    -15.0: [("0x1.04804c5771fb1p-1", "0x1.f47c2e05d384ap-1", "0x1.fc1a8b5f4e3e7p-1"),
            ("0x1.04806d979839ap-1", "0x1.f47c2e7c46903p-1", "0x1.fc1a8da2fb328p-1"),
            ("0x1.0480975573ef4p-1", "0x1.f47c2f9ef025bp-1", "0x1.fc1a8e453cec3p-1"),
            ("0x1.04809428cb3dbp-1", "0x1.f47c2f9314447p-1", "0x1.fc1a8e38e69c1p-1")],
    -12.5: [("0x1.07bbf0290a428p-1", "0x1.ec4c58be10de9p-1", "0x1.f9431f20cfe55p-1"),
            ("0x1.07bbf31e9c6fcp-1", "0x1.ec4c5969b6314p-1", "0x1.f9431ec8a4dbdp-1"),
            ("0x1.07bbd23957d61p-1", "0x1.ec4c57f12d0a0p-1", "0x1.f9431d25f0616p-1"),
            ("0x1.07bbd46e32083p-1", "0x1.ec4c57ff0451dp-1", "0x1.f9431d34bd9efp-1")],
    -10.0: [("0x1.0cfd3c32c1b92p-1", "0x1.df1f60eeb9821p-1", "0x1.f48fd707398f5p-1"),
            ("0x1.0cfd42d624437p-1", "0x1.df1f612ce8ccdp-1", "0x1.f48fd76b7d0abp-1"),
            ("0x1.0cfd3c8d46f09p-1", "0x1.df1f611f8e600p-1", "0x1.f48fd66c96c1dp-1"),
            ("0x1.0cfd3cbcdd3f6p-1", "0x1.df1f6121721aap-1", "0x1.f48fd66eb30c6p-1")],
    -5.0: [("0x1.20d137ec25f63p-1", "0x1.aefded7fda529p-1", "0x1.e1ff5d731e0dbp-1"),
           ("0x1.20d13e20ac3f3p-1", "0x1.aefded1d5e90cp-1", "0x1.e1ff5e1f07e86p-1"),
           ("0x1.20d147002e424p-1", "0x1.aefdee7851ac3p-1", "0x1.e1ff5f0fcdad4p-1"),
           ("0x1.20d1448a6b17bp-1", "0x1.aefdee407a4e5p-1", "0x1.e1ff5ec75b7a6p-1")],
    0.0: [("0x1.43700160ad65ep-1", "0x1.610f3bb072f6cp-1", "0x1.bed7b5c1991d0p-1"),
          ("0x1.437001c39234ap-1", "0x1.610f3bf6af98fp-1", "0x1.bed7b545da2cap-1"),
          ("0x1.436ff58a2bbb5p-1", "0x1.610f39a61f214p-1", "0x1.bed7b25d2cda8p-1"),
          ("0x1.436ff502c091bp-1", "0x1.610f3991650cep-1", "0x1.bed7b23bd351bp-1")],
    5.0: [("0x1.6fa707bfd0d18p-1", "0x1.08bddd2626c63p-1", "0x1.8e0bbd7d774c0p-1"),
          ("0x1.6fa704ef9c091p-1", "0x1.08bddd92856acp-1", "0x1.8e0bbf6e0be90p-1"),
          ("0x1.6fa711bba3053p-1", "0x1.08bde04aa38f7p-1", "0x1.8e0bc5101c8d9p-1"),
          ("0x1.6fa711825979ap-1", "0x1.08bde03e1ddb3p-1", "0x1.8e0bc4f73f148p-1")],
    10.0: [("0x1.9bc07f0dee3d2p-1", "0x1.785f9f64e9e47p-2", "0x1.59f598ffc955bp-1"),
           ("0x1.9bc084785d69ep-1", "0x1.785f9ceae0a34p-2", "0x1.59f59d7b4bc5ep-1"),
           ("0x1.9bc07139354d0p-1", "0x1.785f919f3ded6p-2", "0x1.59f5906d00b0ap-1"),
           ("0x1.9bc071ca92f3fp-1", "0x1.785f91f3ca858p-2", "0x1.59f590cfcbc29p-1")],
    15.0: [("0x1.c07f011f98027p-1", "0x1.06e35f6e81127p-2", "0x1.2b2ee5a1451a2p-1"),
           ("0x1.c07f00565a2fdp-1", "0x1.06e361688d04ep-2", "0x1.2b2ee4fd57d9cp-1"),
           ("0x1.c07f0e14a1b7ap-1", "0x1.06e36c44ccafbp-2", "0x1.2b2ef3347a26fp-1"),
           ("0x1.c07f0e13694d9p-1", "0x1.06e36c43d8100p-2", "0x1.2b2ef33337abep-1")],
    20.0: [("0x1.db17a4c1d7a2dp-1", "0x1.71fbab9b1531cp-3", "0x1.04fc3bd53bbe8p-1"),
           ("0x1.db17a30c859ddp-1", "0x1.71fba49635383p-3", "0x1.04fc383c5587cp-1"),
           ("0x1.db179a08d3cc8p-1", "0x1.71fb9036948a4p-3", "0x1.04fc2952f3b62p-1"),
           ("0x1.db1799f82407ep-1", "0x1.71fb901178f4cp-3", "0x1.04fc293804138p-1")],
    25.0: [("0x1.ec2fda4ea150cp-1", "0x1.0a22150761681p-3", "0x1.ce49e308dc98dp-2"),
           ("0x1.ec2fea4c73262p-1", "0x1.0a224e5928d9ap-3", "0x1.ce4a322b26374p-2"),
           ("0x1.ec2fe315273dep-1", "0x1.0a2236bb9dcf7p-3", "0x1.ce4a0b8dcf652p-2"),
           ("0x1.ec2fe31377cd6p-1", "0x1.0a2236b5e7a7fp-3", "0x1.ce4a0b84c7250p-2")],
    30.0: [("0x1.f61950179b402p-1", "0x1.8a206e71a7cafp-4", "0x1.a05dafb3627d6p-2"),
           ("0x1.f61948d99229ap-1", "0x1.8a202562bc735p-4", "0x1.a05d67181478ap-2"),
           ("0x1.f6194c85f5309p-1", "0x1.8a204e529fcd2p-4", "0x1.a05d8a278dbfbp-2"),
           ("0x1.f6194ca31df92p-1", "0x1.8a204f974a8c2p-4", "0x1.a05d8b3dfd6bfp-2")],
    40.0: [("0x1.fdef1c6158a74p-1", "0x1.d9ba68c5b2eb6p-5", "0x1.616f57d94082dp-2"),
           ("0x1.fdef1d41c2036p-1", "0x1.d9baaf4c8eb13p-5", "0x1.616f7a782b1d2p-2"),
           ("0x1.fdef1e64c079ap-1", "0x1.d9bb04354502dp-5", "0x1.616fa4c5e03c0p-2"),
           ("0x1.fdef1e605fa55p-1", "0x1.d9bb02f05adf4p-5", "0x1.616fa422dee3fp-2")],
    50.0: [("0x1.ffa3f968f9dcbp-1", "0x1.3cf10ab03cab3p-5", "0x1.3a204bb01ec63p-2"),
           ("0x1.ffa3fb89d4cccp-1", "0x1.3cf39f82b935ep-5", "0x1.3a21cfe9c42edp-2"),
           ("0x1.ffa3fb7228f06p-1", "0x1.3cf382177ef62p-5", "0x1.3a21be13e50eep-2"),
           ("0x1.ffa3fb7215963p-1", "0x1.3cf381ffe5676p-5", "0x1.3a21be0629a2ep-2")],
    60.0: [("0x1.fff1daa24d9bcp-1", "0x1.cba334b1699bfp-6", "0x1.1fc96c2ccceb2p-2"),
           ("0x1.fff1db99d55c6p-1", "0x1.cbaf144bd12d9p-6", "0x1.1fcd5af04aa9cp-2"),
           ("0x1.fff1dc2de7739p-1", "0x1.cbb61fc2bac9ep-6", "0x1.1fcfb3fe76c8dp-2"),
           ("0x1.fff1dc2e424cap-1", "0x1.cbb624156c028p-6", "0x1.1fcfb56f46d8ep-2")],
    70.0: [("0x1.fffe04186af4cp-1", "0x1.621b7ace51b78p-6", "0x1.0d52be683278ep-2"),
           ("0x1.fffe0106abfccp-1", "0x1.614748a53a0e7p-6", "0x1.0d02d5b7f85bbp-2"),
           ("0x1.fffe00e1d5495p-1", "0x1.613d5f66ff057p-6", "0x1.0cff1a5e5fdcap-2"),
           ("0x1.fffe00e2008aap-1", "0x1.613d6b08d8ed1p-6", "0x1.0cff1ebfeb6dap-2")],
    71.5: [("0x1.fffe8712d429bp-1", "0x1.5599588a37ff0p-6", "0x1.0ae53017cac97p-2"),
           ("0x1.fffe84df9552dp-1", "0x1.54d27fd13be7cp-6", "0x1.0a990ddd401e2p-2"),
           ("0x1.fffe85109e550p-1", "0x1.54e3bbd0f0591p-6", "0x1.0a9fa8a236cd3p-2"),
           ("0x1.fffe851040a79p-1", "0x1.54e39adfe2ae3p-6", "0x1.0a9f9c02da5e6p-2")],
    71.75: [("0x1.fffe940b345a4p-1", "0x1.519fa6ff3e86ep-6", "0x1.09bef89d3763fp-2"),
            ("0x1.fffe976641c10p-1", "0x1.52d99fb7d76f7p-6", "0x1.0a3798fec057ap-2"),
            ("0x1.fffe978af9805p-1", "0x1.52e71f363b6bdp-6", "0x1.0a3cc904bc79dp-2"),
            ("0x1.fffe978af2cecp-1", "0x1.52e71cbfff187p-6", "0x1.0a3cc8128e319p-2")],
    72.5: [("0x1.fffec9afecdedp-1", "0x1.4d025d9f5eee2p-6", "0x1.0913217a41ceap-2"),
           ("0x1.fffec98d520abp-1", "0x1.4cf3f124105fcp-6", "0x1.090d7bb24dcbbp-2"),
           ("0x1.fffec9cf477dcp-1", "0x1.4d0fb17c4636ep-6", "0x1.09183d43020b5p-2"),
           ("0x1.fffec9cfaf899p-1", "0x1.4d0fdd48932cep-6", "0x1.09184e3c4efe6p-2")],
    74.5: [("0x1.ffff309fa921cp-1", "0x1.3e63e1d80a3d0p-6", "0x1.06310930d2033p-2"),
           ("0x1.ffff309fd8263p-1", "0x1.3e64068cf7a1dp-6", "0x1.06311516faab2p-2"),
           ("0x1.ffff307d3846ep-1", "0x1.3e4f13ee32584p-6", "0x1.0628c80048735p-2"),
           ("0x1.ffff307c3009ap-1", "0x1.3e4e7424661b1p-6", "0x1.062888ad98226p-2")],
    77.5: [("0x1.ffff8bb8827a7p-1", "0x1.26f247e158913p-6", "0x1.00b3870d817b6p-2"),
           ("0x1.ffff8eaa5a31bp-1", "0x1.29f8a42d306adp-6", "0x1.01f09f4355328p-2"),
           ("0x1.ffff8edfc609ap-1", "0x1.2a307f5c80411p-6", "0x1.02077fcac7b10p-2"),
           ("0x1.ffff8ee07d8b9p-1", "0x1.2a313f875d563p-6", "0x1.0207ce78471f6p-2")],
    80.0: [("0x1.ffffb62c96066p-1", "0x1.11e6a1bae47bdp-6", "0x1.f5eee857a4480p-3"),
           ("0x1.ffffbba9792d0p-1", "0x1.1a83a301e8e14p-6", "0x1.fd2f779f5465cp-3"),
           ("0x1.ffffbbfcf0d38p-1", "0x1.1b0e03bb1359cp-6", "0x1.fda3d0c464d7fp-3"),
           ("0x1.ffffbbfcf9ef5p-1", "0x1.1b0e12e12d75dp-6", "0x1.fda3dd80db639p-3")],
}


@pytest.mark.parametrize("ps_db,alpha,eta1,eta2", PINNED_PLANS)
def test_pinned_plans(ps_db, alpha, eta1, eta2):
    p_s = 10 ** (ps_db / 10)
    plan = oblivious_rate_plan(p_s)
    *earlier, current = [TwoLayerAllocation(*map(float.fromhex, hexes)) for hexes in
                         [(alpha, eta1, eta2), *RECAPTURED_PLANS.get(ps_db, ())]]
    assert all(plan_value(current, p_s) >= plan_value(old, p_s) * (1.0 - 1e-6)
               for old in earlier)
    assert (plan.alpha, plan.eta1, plan.eta2) == (current.alpha, current.eta1, current.eta2)


class TestCoordinateAscent:
    """optimize._coordinate_ascent's bracketed line searches on toy objectives
    over the unit square."""

    @staticmethod
    def run(monkeypatch, value, start):
        searches = []  # (lo, hi, best x) of every line search

        def recorded(f, lo, hi, tol):
            x, fx = golden_section_max(f, lo, hi, tol)
            searches.append((lo, hi, x))
            return x, fx

        monkeypatch.setattr(optimize, "golden_section_max", recorded)
        result = optimize._coordinate_ascent(value, (value(start), start), [0, 1],
                                             lambda i, x: (0.0, 1.0))
        return result, searches

    def test_bracket_widens_to_a_moved_line_maximum(self, monkeypatch):
        # the line maximum in x[0] jumps from 0.2 to 0.25 once x[1] passes 0.4,
        # far outside the 1e-5 bracket x[0] gets after its first search found
        # no gain; the whole-box optimum is (0.25, 0.5)
        def value(x):
            return -0.01 * (x[0] - (0.2 if x[1] < 0.4 else 0.25)) ** 2 - (x[1] - 0.5) ** 2

        (val, x, passes, widened), searches = self.run(monkeypatch, value, [0.2, 0.0])
        assert x == pytest.approx([0.25, 0.5], abs=1e-6) and val == pytest.approx(0.0, abs=1e-12)
        # pass 2 searches x[0] on 0.2 +- 1e-5 * 8^k, clipped to the box, until
        # the best probe leaves the bracket's inner edge: at k = 5, [0, 0.5277]
        halves = [optimize._BRACKET_MIN]  # 10 * 1e-6
        while len(halves) < 6:
            halves.append(halves[-1] * 8.0)
        assert [s[:2] for s in searches[2:8]] == [(max(0.0, 0.2 - h), 0.2 + h)
                                                  for h in halves]
        assert widened == 5 and searches[7][2] == pytest.approx(0.25, abs=1e-6)

    def test_bracket_stops_widening_at_a_box_edge(self, monkeypatch):
        # x[0]'s maximum is the box edge 1: the bracket 1 +- 2 * 0.01 after the
        # first pass moved x[0] from 0.99 is clipped there, and does not widen
        def value(x):
            return x[0] - (x[1] - 0.3) ** 2

        (val, x, passes, widened), searches = self.run(monkeypatch, value, [0.99, 0.0])
        assert widened == 0 and x == pytest.approx([1.0, 0.3], abs=1e-6)
        lo, hi, best = searches[2]
        assert 0.0 < lo < 0.99 and hi == 1.0 and best >= 1.0 - 1e-6

    def test_one_coordinate_is_one_box_search(self):
        # a lone coordinate's one line search spans its box: the same probes,
        # in the same order, and the same result as golden_section_max there
        probes, direct = [], []

        def line(v):
            return math.sin(3.0 * v) + v

        def value(x):
            probes.append(x[0])
            return line(x[0])

        result = optimize._coordinate_ascent(value, (line(1.9), [1.9]), [0],
                                             lambda i, x: (0.0, 2.0))
        best = golden_section_max(lambda v: direct.append(v) or line(v), 0.0, 2.0,
                                  tol=optimize._LINE_TOL)
        assert probes == direct
        assert result == (best[1], [best[0]], 1, 0)


class TestMaximizeThroughput:
    def test_feasible_and_improves_on_coarse(self):
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        res = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg,
                                  coarse_points=16)
        p = res.params
        assert 0.0 <= p["alpha"] <= 1.0 and 0.0 <= p["eta1"] <= p["eta2"]
        assert res.value >= scalar_grid_best("miso-equal", cfg, 16)

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
        # (value, beta) captured before the line searches became Brent's to a
        # 1e-7 bracket, then after (its last bit re-captured when U moved to
        # the complement x_bar); the current value may not fall below the old
        # by more than 1e-6 relative
        old = (1.0410386128522764, 0.7000002609033692)
        current = (1.0410386151708306, 0.7000000365909307)
        assert current[0] >= old[0] * (1.0 - 1e-6)
        assert (res.value, res.params["beta"]) == current

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

    @pytest.mark.parametrize("scheme,cfg,free,fixed,coarse", [
        pytest.param("direct", PowerConfig(10.0, 0.0, 1.0), ("alpha", "eta1", "eta2"), {},
                     None, id="direct-0.0"),
        pytest.param("miso-equal", PowerConfig(10.0, 10.0, 1.0), ("alpha", "eta1", "eta2"),
                     {}, None, id="miso-equal-1.0"),
        pytest.param("simplex-equal", PowerConfig(10.0, 10.0, 100.0), ("eta2",),
                     {"alpha": 0.7, "eta1": 0.3}, 6, id="simplex-equal-eta2"),
    ])
    def test_a_free_beta_is_dropped_where_only_alpha_is_read(self, scheme, cfg, free, fixed,
                                                              coarse):
        # a flat beta axis once made the all-free search score 16^2 grid rows,
        # report beta = 0 and end up to 6e-14 below the exact plan; simplex-equal
        # with (beta, eta2) free reported beta = 0 after 875 evaluations, where
        # eta2 alone takes 18
        with_beta = maximize_throughput(scheme, ("beta", *free), fixed, cfg, coarse)
        without = maximize_throughput(scheme, free, fixed, cfg, coarse)
        assert with_beta == without and "beta" not in with_beta.params
        with pytest.raises(ValueError, match="at least one parameter"):
            maximize_throughput(scheme, ("beta",), {"alpha": 0.5, "eta1": 0.1, "eta2": 0.2},
                                cfg)

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


# captures of (value, params, n_evals) of rows above, oldest first, keyed by
# (P_s dB, P_r/P_s, free), taken when their search changed: the miso-unequal
# rows with beta free when that search began to start from the equal-split
# optimum; the rows whose coarse grid holds exact ties when those began to go
# to the point with fewer grid steps between eta1 and eta2; every row with
# more than one free parameter when each line search after a coordinate's
# first began to span a bracket around the coordinate's last move; every row
# when the line searches became Brent's to a 1e-7 bracket; and the direct and
# miso-equal rows over (alpha, eta1, eta2), and the miso-unequal rows that
# start from such a search, when it became the exact two-layer plan; and the
# miso-unequal rows with beta free when their search began with Newton steps
# on central differences; and the rows that search (alpha, eta1, eta2) by the
# exact plan, or start from such a search, when that plan began from one
# fixed start in place of the best grid point, and the miso-unequal rows with
# beta free when their Newton steps stopped halving at a predicted gain of
# half an ulp; and the rows that search (alpha, eta1, eta2) by the exact plan,
# or start from such a search, when that plan stopped scoring the coarse grid
# first (their n_evals alone moved); and the miso-unequal rows with beta free
# and P_r/P_s = 2 when the unequal refinement's box became eta <= 4 max(1,
# P_r/P_s) (n_evals alone moved); and the miso-equal rows, and the
# miso-unequal rows that start from one, that moved by an ulp or so when the
# direct and equal MISO closed forms began to read the one law of
# s = nu_s + (P_r/P_s) nu_r, outage._layer_tail_terms.  The last capture is
# the current result, and it may not fall below the PINNED value or an
# earlier capture by more than 1e-6 relative
RECAPTURED = {
    (-20.0, 0.5, ("alpha", "eta1", "eta2")): [
        (0.006103627694240707,
         {"alpha": 0.5032174057633415, "eta1": 1.2035740048186694,
          "eta2": 1.2090996522479156}, 12672),
        (0.006103627694240703,
         {"alpha": 0.5032203178684223, "eta1": 1.2035739936625052,
          "eta2": 1.2090996411137955}, 10158),
        (0.006103627694240707,
         {"alpha": 0.5032181483920116, "eta1": 1.2035740378050277,
          "eta2": 1.209099697910897}, 8832),
        (0.006103627694240709,
         {"alpha": 0.5032151692468776, "eta1": 1.2035739958914855,
          "eta2": 1.2090996552562818}, 7207),
        (0.006103627694240709,
         {"alpha": 0.5032153054917142, "eta1": 1.2035739966396053,
          "eta2": 1.2090996560139318}, 7204),
        (0.006103627694240709,
         {"alpha": 0.5032153054917142, "eta1": 1.2035739966396053,
          "eta2": 1.2090996560139318}, 4),
    ],
    (25.0, 2.0, ("alpha", "eta1", "eta2")): [
        (5.187470690352275,
         {"alpha": 0.9845432179997308, "eta1": 0.46147421427140967,
          "eta2": 1.321859625952951}, 10754),
        (5.187470690352123,
         {"alpha": 0.9845431930668596, "eta1": 0.4614739646496458,
          "eta2": 1.3218592841722079}, 8879),
        (5.187470690352317,
         {"alpha": 0.984543235939507, "eta1": 0.4614742579804331,
          "eta2": 1.321859864586427}, 7206),
        (5.187470690352317,
         {"alpha": 0.9845432359395272, "eta1": 0.4614742579805602,
          "eta2": 1.3218598645867172}, 7207),
        (5.187470690352317,
         {"alpha": 0.9845432359395272, "eta1": 0.4614742579805602,
          "eta2": 1.3218598645867172}, 7),
    ],
    (25.0, 2.0, ("alpha", "beta", "eta1", "eta2")): [
        (5.188095902063042,
         {"alpha": 0.98523993284817, "beta": 0.9844136984828225,
          "eta1": 0.4338422403783624, "eta2": 1.3685664779437259}, 12261),
        (5.188095886268883,
         {"alpha": 0.9852405895693436, "beta": 0.9844144342314023,
          "eta1": 0.43384896228306385, "eta2": 1.368574956066071}, 6833),
        (5.188095892852301,
         {"alpha": 0.9852403173257571, "beta": 0.9844140691124934,
          "eta1": 0.43384401533607936, "eta2": 1.368574051618472}, 3891),
        (5.188095892505418,
         {"alpha": 0.9852403317827947, "beta": 0.9844140828181139,
          "eta1": 0.433844068396481, "eta2": 1.3685743206012633}, 2094),
        (5.188097258373706,
         {"alpha": 0.9851260550465076, "beta": 0.9843054341895784,
          "eta1": 0.4334145104024886, "eta2": 1.3662769691220948}, 1111),
        (5.1880972583737055,
         {"alpha": 0.985126055046594, "beta": 0.9843054341900597,
          "eta1": 0.43341451042223794, "eta2": 1.3662769691050083}, 1113),
        (5.1880972583737055,
         {"alpha": 0.985126055046594, "beta": 0.9843054341900597,
          "eta1": 0.43341451042223794, "eta2": 1.3662769691050083}, 177),
        (5.1880972583737055,
         {"alpha": 0.985126055046594, "beta": 0.9843054341900597,
          "eta1": 0.43341451042223794, "eta2": 1.3662769691050083}, 181),
    ],
    (-20.0, 0.0, ("alpha", "beta", "eta1", "eta2")): [
        (0.0036605781165179223,
         {"alpha": 0.5028721348978143, "beta": 0.5028721348978143,
          "eta1": 0.9926284396615764, "eta2": 0.9975306558522576}, 3930),
        (0.003660578116517924,
         {"alpha": 0.5028713155173081, "beta": 0.5028713155173081,
          "eta1": 0.9926283927033653, "eta2": 0.9975306808707265}, 2590),
        (0.003660578116517924,
         {"alpha": 0.5028747615114978, "beta": 0.5028747615114978,
          "eta1": 0.9926284206866312, "eta2": 0.9975307038630545}, 2043),
        (0.003660578116517925,
         {"alpha": 0.5028717542436328, "beta": 0.5028717542436328,
          "eta1": 0.9926284053899055, "eta2": 0.9975306976114764}, 373),
        (0.003660578116517925,
         {"alpha": 0.5028717542436328, "beta": 0.5028717542436328,
          "eta1": 0.9926284053899055, "eta2": 0.9975306976114764}, 393),
        (0.003660578116517924,
         {"alpha": 0.5028717837712657, "beta": 0.5028717837712657,
          "eta1": 0.9926284061059475, "eta2": 0.997530697757182}, 398),
        (0.003660578116517924,
         {"alpha": 0.5028717837712657, "beta": 0.5028717837712657,
          "eta1": 0.9926284061059475, "eta2": 0.997530697757182}, 110),
    ],
    (10.0, 0.0, ("alpha", "beta", "eta1", "eta2")): [
        (1.1214241254672634,
         {"alpha": 0.8042032105697833, "beta": 0.8042035427571808,
          "eta1": 0.3675522606382542, "eta2": 0.6757020525912635}, 5833),
        (1.121424125467326,
         {"alpha": 0.8042028783823858, "beta": 0.8042030052666809,
          "eta1": 0.3675522426616668, "eta2": 0.6757018600913219}, 3649),
        (1.1214241254673436,
         {"alpha": 0.8042028466337533, "beta": 0.8042030479981469,
          "eta1": 0.36755214142320475, "eta2": 0.6757018024623981}, 1784),
        (1.1214241254673585,
         {"alpha": 0.80420260992138, "beta": 0.80420260992138,
          "eta1": 0.3675520710776634, "eta2": 0.6757016423350749}, 367),
        (1.1214241254673585,
         {"alpha": 0.80420260992138, "beta": 0.80420260992138,
          "eta1": 0.3675520710776634, "eta2": 0.6757016423350749}, 387),
        (1.1214241254673585,
         {"alpha": 0.8042026096702256, "beta": 0.8042026099951513,
          "eta1": 0.36755207109911714, "eta2": 0.675701642385211}, 388),
        (1.1214241254673585,
         {"alpha": 0.8042026096702256, "beta": 0.8042026099951513,
          "eta1": 0.36755207109911714, "eta2": 0.675701642385211}, 100),
    ],
    (25.0, 0.0, ("alpha", "eta1", "eta2")): [
        (3.642567693986696,
         {"alpha": 0.9613023822998997, "eta1": 0.1299477349843,
          "eta2": 0.4514530469459957}, 5384),
        (3.642567693990334,
         {"alpha": 0.9613027191591771, "eta1": 0.1299479936575992,
          "eta2": 0.45145406464113524}, 4088),
        (3.6425676939895677,
         {"alpha": 0.961302601706062, "eta1": 0.1299478542486806,
          "eta2": 0.45145367088096067}, 2549),
        (3.642567693990665,
         {"alpha": 0.9613028489365973, "eta1": 0.12994806997906155,
          "eta2": 0.4514543342393238}, 943),
        (3.6425676939906646,
         {"alpha": 0.9613028489365216, "eta1": 0.1299480699789974,
          "eta2": 0.45145433423912085}, 942),
        (3.6425676939906646,
         {"alpha": 0.9613028489365216, "eta1": 0.1299480699789974,
          "eta2": 0.45145433423912085}, 6),
        (3.642567693990665,
         {"alpha": 0.9613028489365216, "eta1": 0.1299480699789974,
          "eta2": 0.45145433423912085}, 6),
    ],
    (-20.0, 0.0, ("alpha", "eta1", "eta2")): [
        (0.003660578116517921,
         {"alpha": 0.5028698580515196, "eta1": 0.9926284201830822,
          "eta2": 0.9975306362775664}, 5968),
        (0.003660578116517918,
         {"alpha": 0.5028648151835192, "eta1": 0.9926283034674103,
          "eta2": 0.997530659660653}, 4024),
        (0.003660578116517923,
         {"alpha": 0.5028674141524717, "eta1": 0.9926283732123128,
          "eta2": 0.9975306646053497}, 3040),
        (0.003660578116517924,
         {"alpha": 0.5028717333863502, "eta1": 0.9926284058605465,
          "eta2": 0.9975306975085556}, 557),
        (0.003660578116517924,
         {"alpha": 0.5028717837712657, "eta1": 0.9926284061059475,
          "eta2": 0.997530697757182}, 554),
        (0.003660578116517924,
         {"alpha": 0.5028717837712657, "eta1": 0.9926284061059475,
          "eta2": 0.997530697757182}, 4),
    ],
    (80.0, 0.0, ("alpha", "eta2")): [
        (13.885961897291823,
         {"eta1": 0.2, "alpha": 0.9999996678126025, "eta2": 0.3601808564869735}, 638),
        (13.959106025016853,
         {"eta1": 0.2, "alpha": 0.9999999494962314, "eta2": 0.5524942659255161}, 822),
    ],
    (50.0, 1000.0, ("alpha", "beta")): [
        (12.09146697959807,
         {"eta1": 0.3, "eta2": 1.8, "alpha": 0.9698698347980078,
          "beta": 0.9699666157421898}, 172),
        (12.09146697959807,
         {"eta1": 0.3, "eta2": 1.8, "alpha": 0.9698698347980078,
          "beta": 0.9699666157421898}, 196),
        (12.091466979628242,
         {"eta1": 0.3, "eta2": 1.8, "alpha": 0.9698699088626281,
          "beta": 0.969966751501424}, 164),
        (12.091467022700702,
         {"eta1": 0.3, "eta2": 1.8, "alpha": 0.9701559000402733,
          "beta": 0.9702523849153215}, 197),
        (12.0914670227007,
         {"eta1": 0.3, "eta2": 1.8, "alpha": 0.97015590007364,
          "beta": 0.9702523849506612}, 157),
        (12.091467022700702,
         {"eta1": 0.3, "eta2": 1.8, "alpha": 0.9701559002247779,
          "beta": 0.9702523850990069}, 159),
    ],
    (10.0, 2.0, ("beta", "eta1", "eta2")): [
        (2.098919764469623,
         {"alpha": 0.7, "beta": 0.6997096228045993, "eta1": 0.7806654637084773,
          "eta2": 1.4363257995053693}, 2683),
        (2.098919764475214,
         {"alpha": 0.7, "beta": 0.6997086215705269, "eta1": 0.7806597264894524,
          "eta2": 1.43632818628552}, 1751),
        (2.0989197644750877,
         {"alpha": 0.7, "beta": 0.6997086717978469, "eta1": 0.7806599951893303,
          "eta2": 1.4363280435421553}, 843),
        (2.0989197644756397,
         {"alpha": 0.7, "beta": 0.6997082761944626, "eta1": 0.7806578025026308,
          "eta2": 1.4363289859233663}, 375),
        (2.0989197644756397,
         {"alpha": 0.7, "beta": 0.6997082761944626, "eta1": 0.7806578025026308,
          "eta2": 1.4363289859233663}, 373),
        (2.0989197644756405,
         {"alpha": 0.7, "beta": 0.699708271393664, "eta1": 0.7806577749333522,
          "eta2": 1.4363289859269386}, 372),
    ],
    (80.0, 0.001, ("eta1", "eta2")): [
        (14.772221721346606,
         {"alpha": 0.6, "eta1": 0.0002651354165459188, "eta2": 0.06752580546314912}, 663),
        (14.772221721346655,
         {"alpha": 0.6, "eta1": 0.00026513194812401847, "eta2": 0.0675258189200752}, 477),
        (14.772221721346654,
         {"alpha": 0.6, "eta1": 0.00026513194812401847, "eta2": 0.06752581892039655}, 477),
    ],
    (-7.5, 0.5, ("alpha", "eta1", "eta2")): [
        (0.09926113274116638,
         {"alpha": 0.545810575187512, "eta1": 1.0968933802738106,
          "eta2": 1.1709922238552193}, 3860),
        (0.0992611327411665,
         {"alpha": 0.5458109080994266, "eta1": 1.0968934203667284,
          "eta2": 1.1709922659506695}, 2183),
    ],
    (80.0, 1.0, ("alpha", "eta1", "eta2")): [
        (17.28591815112988,
         {"alpha": 0.9999994625095001, "eta1": 0.10712425231115612,
          "eta2": 0.6708513117367508}, 2922),
        (17.28591815112991,
         {"alpha": 0.9999994625095001, "eta1": 0.10712428332939371,
          "eta2": 0.6708513515644289}, 3620),
        (17.288797845649015,
         {"alpha": 0.9999996174041471, "eta1": 0.11795182486929875,
          "eta2": 0.7022982364362407}, 3052),
        (17.288798250223756,
         {"alpha": 0.999999618917286, "eta1": 0.11808263165547782,
          "eta2": 0.7026821124645235}, 951),
        (17.288798250223753,
         {"alpha": 0.999999618917286, "eta1": 0.11808263165548633,
          "eta2": 0.7026821124645485}, 949),
        (17.288798250223753,
         {"alpha": 0.999999618917286, "eta1": 0.11808263165548633,
          "eta2": 0.7026821124645485}, 13),
    ],
    (10.0, 2.0, ("alpha", "eta1", "eta2")): [
        (2.063729879179878,
         {"beta": 0.3, "alpha": 0.31026013406657105, "eta1": 0.5882863134032964,
          "eta2": 1.2576313854588959}, 6734),
        (2.063729879177892,
         {"beta": 0.3, "alpha": 0.3102600733099857, "eta1": 0.5882869055946504,
          "eta2": 1.2576313361842284}, 3177),
    ],
    (-20.0, 0.0, ("eta1",)): [
        (0.0026799941739575595, {"alpha": 0.0, "eta2": 2.0, "eta1": 0.0}, 45),
    ],
}


def expected(row):
    """The current (value, params, n_evals) of a PINNED row, after checking
    that it falls below no earlier capture by more than 1e-6 relative."""
    ps_db, ratio, _, free, *_, value, params, n_evals = row
    *earlier, current = [(value, params, n_evals),
                         *RECAPTURED.get((ps_db, ratio, free), ())]
    assert all(current[0] >= old[0] * (1.0 - 1e-6) for old in earlier)
    return current


@pytest.mark.parametrize("ps_db,ratio,scheme,free,fixed,coarse,value,params,n_evals",
                         PINNED)
def test_pinned_results(ps_db, ratio, scheme, free, fixed, coarse, value, params,
                        n_evals):
    p_s = 10 ** (ps_db / 10)
    res = maximize_throughput(scheme, free, fixed, PowerConfig(p_s, ratio * p_s, 1.0),
                              coarse_points=coarse)
    assert (res.value, res.params, res.n_evals) == expected(
        (ps_db, ratio, scheme, free, fixed, coarse, value, params, n_evals))


def test_direct_search_logs_no_tail_count(monkeypatch, caplog, capsys):
    # one DEBUG line per search, with no tail count: no search caches a tail,
    # each evaluation reads the law of s.  lines= counts the line searches of
    # all three ascents, and nothing goes to stdout
    searches = []

    def counted(*args, **kwargs):
        searches.append(args[1:3])
        return golden_section_max(*args, **kwargs)

    monkeypatch.setattr(optimize, "golden_section_max", counted)
    caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
    res = maximize_throughput("direct", ("eta1", "eta2"), {"alpha": 0.7},
                              PowerConfig(10.0, 0.0, 1.0))
    [record] = caplog.records
    assert re.fullmatch(rf"maximize_throughput direct free=eta1,eta2 "
                        rf"evals={res.n_evals} passes=\d+,\d+,\d+ lines={len(searches)} "
                        rf"widened=\d+ capped=0 value={res.value:.6g}", record.getMessage())
    assert record.levelno == logging.DEBUG
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("scheme,ratio", [("direct", 0.0), ("miso-equal", 2.0)])
def test_all_threshold_search_is_the_two_layer_plan(scheme, ratio, monkeypatch, caplog):
    # _layered_plan at n = 2 and no grid and no line search: the value is the
    # scalar kernel's at the plan, and n_evals is the plan's values and that
    # one; the grid the search no longer scores never beats it
    monkeypatch.setattr(optimize, "golden_section_max", None)
    caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
    cfg = PowerConfig(10.0, 10.0 * ratio, 1.0)
    res = maximize_throughput(scheme, ("alpha", "eta1", "eta2"), {}, cfg, coarse_points=12)
    plan_line, line = (rec.getMessage() for rec in caplog.records)
    assert plan_line.startswith("_layered_plan layers=2 ")
    assert re.fullmatch(rf"maximize_throughput {scheme} free=alpha,eta1,eta2 "
                        rf"evals={res.n_evals} plan value={res.value:.6g}", line)
    p = res.params
    assert res.value == twolayer.CLOSED_FORMS[scheme].rate(
        p["alpha"], p["alpha"], p["eta1"], p["eta2"], cfg.p_s, cfg.p_r)
    assert res.n_evals == optimize._two_layer_plan(cfg.p_s, cfg.p_r)[1] + 1
    assert res.value >= scalar_grid_best(scheme, cfg, 12)


def test_all_threshold_search_agrees_with_nelder_mead():
    # the 80 dB miso-equal row (P_r = P_s, coarse 12), which the coordinate
    # ascents left 2.3e-8 below this: Nelder-Mead over (log(1 - alpha), eta1,
    # eta2) on the scalar kernel, from the ascents' last result
    from scipy.optimize import minimize

    p_s = 1e8
    rate = twolayer.CLOSED_FORMS["miso-equal"].rate

    def negative(x):
        if not (x[0] < 0.0 and 0.0 <= x[1] <= x[2]):
            return math.inf
        alpha = -math.expm1(x[0])
        return -rate(alpha, alpha, x[1], x[2], p_s, p_s)

    start = [math.log1p(-0.9999996174041471), 0.11795182486929875, 0.7022982364362407]
    found = minimize(negative, start, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 20_000,
                              "maxfev": 20_000, "adaptive": True})
    assert found.success
    res = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {},
                              PowerConfig(p_s, p_s, 1.0), coarse_points=12)
    assert res.value == pytest.approx(-found.fun, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ps_db,pr_db", [(-5.0, 5.0), (0.0, 20.0), (-20.0, 10.0)])
def test_far_relay_plans_agree_with_nelder_mead(ps_db, pr_db):
    # P_r/P_s = 10, 100 and 1000, where the plan's eta2 (7.8, 51 and 676)
    # lies past eta = 4 and the search used to fall back to a grid and
    # ascents held in eta <= 4 (0.6072, 1.5617 and 0.0391 nats): Nelder-Mead
    # over (alpha, eta1, eta2), unbounded in eta, from alpha = 0.5 and the
    # plan's eta1 halved and eta2 raised by half, finds the plan's value
    from scipy.optimize import minimize

    p_s, p_r = 10.0 ** (ps_db / 10.0), 10.0 ** (pr_db / 10.0)
    res = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {},
                              PowerConfig(p_s, p_r, 1.0))
    rate = twolayer.CLOSED_FORMS["miso-equal"].rate

    def negative(x):
        alpha, eta1, eta2 = x
        inside = 0.0 <= alpha <= 1.0 and 0.0 <= eta1 <= eta2
        return -rate(alpha, alpha, eta1, eta2, p_s, p_r) if inside else math.inf

    x, best = np.array([0.5, 0.5 * res.params["eta1"], 1.5 * res.params["eta2"]]), -math.inf
    for _ in range(3):
        found = minimize(negative, x, method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-16, "maxfev": 20_000,
                                  "adaptive": True})
        x, best = found.x, max(best, -found.fun)
    assert abs(best - res.value) <= 1e-9


def test_a_far_relay_search_is_not_held_at_eta_4():
    # -20 dB, P_r 10 dB, coarse 10: the search read 0.0391025278 nats at
    # alpha = 0, eta1 = eta2 = 4, where the plan reads 1.1225467
    res = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {},
                              PowerConfig(0.01, 10.0, 1.0), coarse_points=10)
    assert res.value == pytest.approx(1.1225467, abs=5e-8)
    assert res.params["eta1"] == pytest.approx(367.552, abs=1e-3)
    assert res.params["eta2"] == pytest.approx(675.702, abs=1e-3)


def test_unequal_search_off_the_eta_4_corner():
    # -5 dB, P_r 5 dB: with eta <= 4 the equal plan sat in the eta1 = eta2 = 4
    # corner, on the kink of the unequal form at alpha = beta, and the
    # unequal search read 0.6076510634; it now starts from the exact equal
    # plan, 0.6592624607, and never ends below it
    res = maximize_throughput("miso-unequal", ("alpha", "beta", "eta1", "eta2"), {},
                              PowerConfig(10.0 ** -0.5, 10.0 ** 0.5, 1.0), coarse_points=24)
    assert res.value >= 0.6592624607


def test_all_free_miso_searches_reach_the_plan_over_the_domain():
    # P_s -20..80 dB in 2.5 dB steps x P_r/P_s 0..1e4: every all-free
    # miso-equal search is the exact plan, finite and ordered, with eta2 below
    # 1.62 max(1, P_r/P_s) (the docstring's bound, well inside the unequal
    # refinement's 4 max(1, P_r/P_s)), and every all-free miso-unequal search
    # ends at least at that plan's value
    for ps_db in np.arange(-20.0, 80.1, 2.5):
        p_s = 10.0 ** (ps_db / 10.0)
        for ratio in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4):
            cfg = PowerConfig(p_s, ratio * p_s, 1.0)
            plan = optimize._two_layer_plan(p_s, cfg.p_r)[0]
            assert all(map(math.isfinite, plan)), (ps_db, ratio)
            assert 0.0 <= plan[0] <= 1.0 and 0.0 <= plan[2] <= plan[3], (ps_db, ratio)
            assert plan[3] <= 1.62 * max(1.0, ratio), (ps_db, ratio)
            equal = maximize_throughput("miso-equal", ("alpha", "eta1", "eta2"), {}, cfg)
            assert [equal.params[k] for k in ("alpha", "alpha", "eta1", "eta2")] == plan
            unequal = maximize_throughput("miso-unequal", ("alpha", "beta", "eta1", "eta2"),
                                          {}, cfg)
            assert unequal.value >= equal.value, (ps_db, ratio)


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
        grid = scalar_grid_best(scheme, cfg, 6, beta_free=scheme == "miso-unequal")
        res = maximize_throughput(scheme, ("alpha", "beta", "eta1", "eta2"), {}, cfg,
                                  coarse_points=6)
        assert res.value >= grid > 0.0


@pytest.mark.parametrize("scheme,free,fixed,message", [
    ("direct", ("eta1", "eta2"), {"alpha": 1.5}, "alpha must lie in"),
    ("miso-equal", ("eta1", "eta2"), {"alpha": -0.1}, "alpha must lie in"),
    ("miso-unequal", ("eta1", "eta2"), {"alpha": 0.5, "beta": 2.0}, "beta must lie in"),
    # fixed values that leave no eta pair are checked before the grid
    ("miso-unequal", ("beta",), {"alpha": 0.5, "eta1": 0.3, "eta2": 0.2},
     "eta1 <= eta2 required"),
    ("direct", ("eta1",), {"alpha": 0.5, "eta2": -1.0}, "eta2 must be finite and nonnegative"),
    # a fixed eta1 in the domain but past the eta2 range leaves the grid empty
    ("direct", ("eta2",), {"alpha": 0.5, "eta1": 5.0}, "empty feasible set"),
], ids=["direct-alpha", "miso-equal-alpha", "miso-unequal-beta", "miso-unequal-eta-order",
        "direct-eta2", "direct-eta1-past-grid"])
def test_fixed_values_outside_the_domain_raise(scheme, free, fixed, message):
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=1.0)
    with pytest.raises(ValueError, match=message):
        maximize_throughput(scheme, free, fixed, cfg, coarse_points=6)


@pytest.mark.parametrize("scheme", sorted(twolayer.CLOSED_FORMS))
@pytest.mark.parametrize("free", [("alpha", "beta", "eta1", "eta2"), ("eta2",)],
                         ids=["all-free", "subset"])
def test_zero_source_power_raises(scheme, free, monkeypatch):
    # the all-free direct and miso-equal plans divided by P_s in the MISO
    # layer tail (ZeroDivisionError), and every grid search read 0.0, since
    # each layer rate is log1p(0); the check comes before any search
    monkeypatch.setattr(optimize, "_two_layer_plan", None)
    monkeypatch.setattr(optimize, "_coordinate_ascent", None)
    with pytest.raises(ValueError, match="p_s must be positive and finite, got 0.0"):
        maximize_throughput(scheme, free, {"alpha": 0.5, "eta1": 0.3},
                            PowerConfig(0.0, 10.0, 1.0), coarse_points=4)


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


# miso-unequal values before the search began with Newton steps, at fig4's
# default settings ((P_s dB, P_r/P_s)), at fig5's (P_r dB, P_s 40 dB) and
# elsewhere ((P_s dB, P_r/P_s)): a coordinate ascent from the exact equal plan,
# which ended at its 40-pass cap in 12 of fig4's 18 and 2 of fig5's 11
UNEQUAL_ASCENT_FIG4 = {
    (0.0, 0.5): 0.4194190637273316, (0.0, 1.0): 0.5270097469838211,
    (0.0, 2.0): 0.6755589831010131, (5.0, 0.5): 0.8928330895745249,
    (5.0, 1.0): 1.0688865366980944, (5.0, 2.0): 1.2917587217037836,
    (10.0, 0.5): 1.5972821053550312, (10.0, 1.0): 1.8324281840106385,
    (10.0, 2.0): 2.112030600711354, (15.0, 0.5): 2.480372980040014,
    (15.0, 1.0): 2.7553080749798315, (15.0, 2.0): 3.0697740528343083,
    (20.0, 0.5): 3.4755715211853357, (20.0, 1.0): 3.773761846459619,
    (20.0, 2.0): 4.107266727097349, (25.0, 0.5): 4.533575159057957,
    (25.0, 1.0): 4.844634104062418, (25.0, 2.0): 5.1880958924917095,
}
UNEQUAL_ASCENT_FIG5 = {
    0.0: 6.783778166825461, 4.0: 6.786265116965303, 8.0: 6.79260781895995,
    12.0: 6.809240656588068, 16.0: 6.854038587545128, 20.0: 6.937923899601959,
    24.0: 7.051088785408096, 28.0: 7.193033494126676, 32.0: 7.399328478686293,
    36.0: 7.757023949587282, 40.0: 8.182296572522283,
}
UNEQUAL_ASCENT_EDGES = {
    (70.0, 0.5): 14.67166540637314, (70.0, 10.0): 16.320545559129506,
    (80.0, 0.5): 16.95671312534396, (80.0, 10.0): 18.592386082951933,
    (-10.0, 10.0): 0.2500268894273969,
    # the optimum lies on eta1 = eta2 and beta = 1 (the thresholds move as one)
    (-12.5, 0.01): 0.020399115900139347,
    # in the eta <= 4 box the equal plan lay in the alpha = 0, eta1 = eta2 = 4 corner
    (-20.0, 10.0): 0.029132007222034552,
}
# RECAPTURED edge values, (in the eta <= 4 box, in the box of eta <= 4 max(1,
# P_r/P_s)), when the unequal refinement's box was scaled: at P_r/P_s = 10 the
# search held eta2 = 4, where it now ends at eta2 = 4.19 (70 dB) and on the
# eta2 = 40 face (-10 and -20 dB); 80 dB did not move
UNEQUAL_EDGES_RECAPTURED = {
    (70.0, 10.0): (16.322822623300258, 16.322966909600186),
    (-10.0, 10.0): (0.2500579825534087, 0.301191879780146),
    (-20.0, 10.0): (0.029132007222034552, 0.03956792992863442),
}


def unequal_search(p_s, p_r, caplog):
    """fig4's and fig5's unequal search at (p_s, p_r): (result, the unequal
    stage's evaluations, its confirming passes), read off its DEBUG line."""
    caplog.clear()
    caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
    res = maximize_throughput("miso-unequal", ("alpha", "beta", "eta1", "eta2"), {},
                              PowerConfig(p_s, p_r, 1.0), coarse_points=24)
    [line] = [r.getMessage() for r in caplog.records if "from miso-equal" in r.getMessage()]
    found = re.search(r"evals=(\d+) newton=\d+ shifts=\d+ held=\d+ passes=(\d+) ", line)
    return res, int(found[1]), int(found[2])


def unequal_eta_max(p_s, p_r):
    """The eta bound of the unequal refinement's search box."""
    return optimize._ETA_MAX * max(1.0, p_r / p_s)


def in_search_box(params, p_s, p_r):
    return (0.0 <= params["alpha"] <= 1.0 and 0.0 <= params["beta"] <= 1.0
            and 0.0 <= params["eta1"] <= params["eta2"] <= unequal_eta_max(p_s, p_r))


class TestUnequalNewton:
    """The miso-unequal search: Newton steps from the equal plan, then one
    confirming coordinate ascent."""

    def test_fig4_never_below_the_ascent_and_uncapped(self, caplog):
        total = 0
        for (ps_db, ratio), old in UNEQUAL_ASCENT_FIG4.items():
            p_s = figures._db2lin(ps_db)
            res, evals, passes = unequal_search(p_s, ratio * p_s, caplog)
            assert res.value >= old * (1.0 - 1e-12), (ps_db, ratio)
            assert passes < optimize._MAX_PASSES
            total += evals
        assert total <= 5000  # the capped ascents took 13,764

    def test_fig5_never_below_the_ascent_and_uncapped(self, caplog):
        for pr_db, old in UNEQUAL_ASCENT_FIG5.items():
            res, _, passes = unequal_search(figures._db2lin(40.0), figures._db2lin(pr_db),
                                            caplog)
            assert res.value >= old * (1.0 - 1e-12), pr_db
            assert passes < optimize._MAX_PASSES

    @pytest.mark.parametrize("ps_db,ratio", list(UNEQUAL_ASCENT_EDGES))
    def test_high_power_and_box_edges(self, ps_db, ratio, caplog):
        p_s = figures._db2lin(ps_db)
        res, _, _ = unequal_search(p_s, ratio * p_s, caplog)
        assert math.isfinite(res.value) and in_search_box(res.params, p_s, ratio * p_s)
        floor = max([UNEQUAL_ASCENT_EDGES[ps_db, ratio],
                     *UNEQUAL_EDGES_RECAPTURED.get((ps_db, ratio), ())])
        assert res.value >= floor * (1.0 - 1e-12)

    @pytest.mark.parametrize("ps_db,ratio,pr_db", [
        (0.0, 0.5, None), (25.0, 2.0, None), (40.0, None, 24.0), (40.0, None, 36.0)],
        ids=["fig4-0dB-x0.5", "fig4-25dB-x2", "fig5-24dB-beta-face", "fig5-36dB"])
    def test_agrees_with_nelder_mead(self, ps_db, ratio, pr_db, caplog):
        from scipy.optimize import minimize
        p_s = figures._db2lin(ps_db)
        p_r = ratio * p_s if pr_db is None else figures._db2lin(pr_db)
        res, _, _ = unequal_search(p_s, p_r, caplog)
        x = np.array([res.params[name] for name in ("alpha", "beta", "eta1", "eta2")])
        # Nelder-Mead in units of 1% of each parameter's room in its box
        eta_max = unequal_eta_max(p_s, p_r)
        room = np.minimum(np.array([x[0], x[1], x[2], x[3] - x[2]]),
                          np.array([1 - x[0], 1 - x[1], x[3] - x[2], eta_max - x[3]]))
        unit = 0.01 * np.where(room > 0.0, room, 1e-3)
        rate = twolayer.CLOSED_FORMS["miso-unequal"].rate

        def negative(z):
            a, b, e1, e2 = x + z * unit
            inside = 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= e1 <= e2 <= eta_max
            return -rate(a, b, e1, e2, p_s, p_r) if inside else math.inf

        best = res.value
        for _ in range(2):
            found = minimize(negative, np.zeros(4), method="Nelder-Mead",
                             options={"xatol": 1e-10, "fatol": 1e-16, "maxfev": 20000})
            x, best = x + found.x * unit, max(best, -found.fun)
        assert abs(best - res.value) <= 1e-9


class TestMisoSingleLayerRate:
    """miso_single_layer_rate, the one-layer plan of the MISO layer tail."""

    @pytest.mark.parametrize("ps_db", [-20.0, -7.5, 0.0, 10.0, 25.0, 40.0, 60.0, 80.0])
    def test_without_a_relay_is_the_single_user_rate(self, ps_db):
        # the Brent search this replaced stopped up to 3.7e-11 off in rate
        p_s = 10.0 ** (ps_db / 10.0)
        assert miso_single_layer_rate(p_s, 0.0) == pytest.approx(
            optimal_single_user_rate(p_s), rel=1e-15, abs=0.0)

    def test_never_below_a_brent_reference(self):
        # P_s -20..80 dB in 2.5 dB steps and P_r/P_s 0..1e7, near-equal powers
        # (1 + 1e-9) included: the throughput at the rate never falls below a
        # Brent search's best probe over the whole rate range, to a 1e-12
        # bracket, by more than 1e-15 relative
        for ps_db in np.arange(-20.0, 80.1, 2.5):
            p_s = 10.0 ** (ps_db / 10.0)
            for ratio in (0.0, 0.01, 0.5, 1.0, 1.0 + 1e-9, 2.0, 100.0, 1e7):
                p_r = ratio * p_s

                def throughput(r):
                    return r * y_sum_tail(math.expm1(r), p_s, p_r)

                hi = math.log1p(10.0 * (p_s + p_r)) + 1.0
                ref = golden_section_max(throughput, 0.0, hi, tol=1e-12)[1]
                got = throughput(miso_single_layer_rate(p_s, p_r))
                assert got >= ref * (1.0 - 1e-15), (ps_db, ratio, got, ref)

    def test_zero_powers(self):
        # no source power leaves the relay's single-user rate; no power at all
        # sends nothing (the scan this replaced returned 0.0159)
        assert miso_single_layer_rate(0.0, 10.0) == pytest.approx(
            optimal_single_user_rate(10.0), rel=1e-15, abs=0.0)
        assert miso_single_layer_rate(0.0, 0.0) == 0.0


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
        # a reading point off the 0..10 dB grid, or NaN, used to extrapolate
        for at in (-3.0, 10.5, 30.0, math.nan):
            with pytest.raises(ValueError):
                horizontal_db_gain(ps, up, up + 0.05, at)
        with pytest.raises(ValueError):  # curves of unequal length
            horizontal_db_gain(ps, up[:-1], up, 5.0)
        with pytest.raises(ValueError):
            horizontal_db_gain(ps, up, up[:-1], 5.0)
        with pytest.raises(ValueError):  # an out-of-order grid used to give a wrong gain
            horizontal_db_gain(ps[[0, 2, 1, *range(3, 11)]], up, up + 0.05, 5.0)
        assert horizontal_db_gain(ps, up, up + 0.05, 10.0) == pytest.approx(0.5)
        assert horizontal_db_gain(ps, up + 0.05, up, 0.0) == pytest.approx(-0.5)


def layered_plan(ps_db, ratio, n=8):
    """(value, plan, continuous bound) of optimize._layered_plan for n layers
    at P_s = ps_db and P_r/P_s = ratio, from the quantized continuous profile,
    the value read by the closed form at the plan."""
    p_s = 10.0 ** (ps_db / 10.0)
    cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0)
    density, dist, _ = broadcast.continuous_layering(cfg, "miso" if ratio else "siso")
    plan = optimize._layered_plan(_layer_tail_terms(p_s, cfg.p_r), n, p_s,
                                  twolayer.discretize_power_density(density, n))[:2]
    value = miso_equal_throughput(*plan, p_s, cfg.p_r).r_av
    return value, plan, broadcast.broadcast_rate(density, dist)


class TestLayeredPlan:
    """optimize._layered_plan, the exact equal-split n-layer plan, against
    Nelder-Mead, the two-layer searches, the Monte-Carlo oracle and the
    values the coordinate polish it replaced fell short of."""

    @pytest.mark.parametrize("ps_db,ratio", [(25.0, 0.0), (25.0, 2.0)])
    def test_agrees_with_nelder_mead_over_the_residuals(self, ps_db, ratio):
        # the 7 log residual powers searched by Nelder-Mead from the solver's
        # own start, each threshold profiled by optimize._layer_threshold and
        # each value summed on y_sum_tail; at the optimum found, a bounded
        # scalar search of each layer term finds no better threshold
        from scipy.optimize import minimize, minimize_scalar

        value, _, _ = layered_plan(ps_db, ratio)
        p_s = 10.0 ** (ps_db / 10.0)
        p_r = ratio * p_s
        tail = _layer_tail_terms(p_s, p_r)
        density, _, _ = broadcast.continuous_layering(
            PowerConfig(p_s, p_r, 1.0), "miso" if ratio else "siso")
        thresholds, residuals = twolayer.discretize_power_density(density, 8)

        def term(eta, a, b):
            return ((math.log1p(eta * a) - math.log1p(eta * b))
                    * y_sum_tail(eta * p_s, p_s, p_r))

        def layers(x):
            c = [p_s, *np.exp(x), 0.0]
            return list(zip(c, c[1:]))

        def negative(x):
            pairs = layers(x)
            if any(a <= b for a, b in pairs):
                return math.inf
            return -sum(term(optimize._layer_threshold(tail, a, b, eta)[0], a, b)
                        for (a, b), eta in zip(pairs, thresholds))

        found = minimize(negative, np.log(np.array(residuals) * p_s), method="Nelder-Mead",
                         options={"xatol": 1e-7, "fatol": 1e-13, "maxiter": 20_000,
                                  "maxfev": 20_000, "adaptive": True})
        assert found.success
        assert -found.fun == pytest.approx(value, rel=1e-12, abs=0.0)
        for (a, b), eta in zip(layers(found.x), thresholds):
            profiled = term(optimize._layer_threshold(tail, a, b, eta)[0], a, b)
            scalar = -minimize_scalar(lambda e: -term(e, a, b), bounds=(0.0, 50.0),
                                      method="bounded", options={"xatol": 1e-12}).fun
            assert profiled >= scalar * (1.0 - 1e-14)

    @pytest.mark.parametrize("ps_db", [x / 2.0 for x in range(-40, 161, 5)])
    def test_two_direct_layers_are_the_oblivious_plan(self, ps_db):
        # from the continuous profile's start, and as the all-free direct search
        value, _, _ = layered_plan(ps_db, 0.0, n=2)
        p_s = 10.0 ** (ps_db / 10.0)
        plan = plan_value(oblivious_rate_plan(p_s), p_s)
        assert value == pytest.approx(plan, rel=1e-12, abs=0.0)
        searched = maximize_throughput("direct", ("alpha", "eta1", "eta2"), {},
                                       PowerConfig(p_s, 0.0, 1.0), coarse_points=24)
        assert searched.value == pytest.approx(plan, rel=1e-15, abs=0.0)

    def test_two_direct_layers_resolve_alpha_near_one(self):
        # at 150 dB, outside the documented domain, 1 - alpha* is below 1e-12;
        # the floor is 0.4 above a search over alpha, which stopped at 3e-10
        p_s = 1e15
        plan = oblivious_rate_plan(p_s)
        assert 0.0 < plan.alpha_bar < 1e-11
        assert plan_value(plan, p_s) >= 31.239574697139403 + 0.4

    def test_two_miso_layers_match_the_grid_search(self):
        # fig4's settings (0..25 dB x P_r/P_s 0.5, 1, 2) and fig5's (P_s 40 dB,
        # P_r 0..40 dB in 4 dB steps), against the values of their coarse-24
        # miso-equal search, captured before it became this plan
        settings = [(ps, ratio) for ps in np.arange(0.0, 25.1, 5.0) for ratio in (0.5, 1.0, 2.0)]
        settings += [(40.0, 10.0 ** ((pr - 40.0) / 10.0)) for pr in np.arange(0.0, 40.1, 4.0)]
        searched = (
            0.41933363752039443, 0.527009746983816, 0.6753790224301539, 0.892574993616679,
            1.0688865366980804, 1.2913764234975902, 1.5968251529142816, 1.832428184010569,
            2.1114837579178736, 2.4797843779148123, 2.755308074979712, 3.069146697033051,
            3.4749325558407262, 3.7737618464593687, 4.1066238163330135, 4.532937815011349,
            4.8446341040620275, 5.187470690352123, 6.782822790708249, 6.783848534136816,
            6.78642645404323, 6.792910546109885, 6.809252621283067, 6.850491983231482,
            6.944797366872503, 7.116052088454348, 7.389959795706788, 7.75595051882124,
            8.18229657251915,
        )
        for (ps_db, ratio), grid_value in zip(settings, searched, strict=True):
            value, _, _ = layered_plan(ps_db, ratio, n=2)
            assert value >= grid_value * (1.0 - 1e-12), (ps_db, ratio)

    def test_two_layer_plans_agree_with_the_oracle(self):
        z_max = family_z(2)
        for strategy, ratio in (("direct", 0.0), ("miso-equal", 1.0)):
            value, (thresholds, fractions), _ = layered_plan(10.0, ratio, n=2)
            alloc = TwoLayerAllocation(alpha=fractions[0], eta1=thresholds[0],
                                       eta2=thresholds[1])
            est = simulate_strategy(SimConfig(blocks=400_000, seed=31, strategy=strategy,
                                              params=alloc), PowerConfig(10.0, 10.0 * ratio, 1.0))
            assert abs(value - est.mean) <= z_max * est.stderr, (strategy, value, est)

    @pytest.mark.parametrize("ps_db,ratio,floor", [(60.0, 1.0, 12.938844),
                                                   (80.0, 0.0, 16.160077)])
    def test_high_power_plans_reach_the_optimum(self, ps_db, ratio, floor):
        # the coordinate polish stopped at 12.902013 and 16.084331 here
        value, _, bound = layered_plan(ps_db, ratio)
        assert floor <= value <= bound

    def test_shifted_newton_step(self):
        # negative definite: the Newton step itself, no shift; indefinite: a
        # shift that leaves an uphill step; a NaN entry: a NaN step, at once;
        # a full matrix, as the unequal search's difference Hessian is
        grad, off = [1.0, 2.0, -0.5], [0.1, 0.3]

        def tridiagonal(diag):
            return (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)).tolist()

        hessian = tridiagonal([-2.0, -1.0, -3.0])
        step, shifts = optimize._shifted_newton_step(grad, hessian)
        np.testing.assert_allclose(step, np.linalg.solve(hessian, -np.array(grad)),
                                   rtol=1e-14)
        assert shifts == 0
        step, shifts = optimize._shifted_newton_step(grad, tridiagonal([1.0, -1.0, -3.0]))
        assert shifts > 0 and np.dot(grad, step) > 0.0
        step, _ = optimize._shifted_newton_step(grad, tridiagonal([-1.0, math.nan, -3.0]))
        assert all(map(math.isnan, step))
        full = [[-4.0, 1.0, 0.5], [1.0, -3.0, 0.8], [0.5, 0.8, -2.0]]
        step, shifts = optimize._shifted_newton_step(grad, full)
        np.testing.assert_allclose(step, np.linalg.solve(full, -np.array(grad)), rtol=1e-14)
        assert shifts == 0
