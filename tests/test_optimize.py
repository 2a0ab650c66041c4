import logging
import math
import re

import numpy as np
import pytest

from relaycast import (PowerConfig, TwoLayerAllocation, optimize, twolayer,
                       direct_multilayer_throughput, maximize_throughput,
                       oblivious_rate_plan, optimal_single_user_rate,
                       single_user_throughput, y_sum_tail)
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


# the plans of PINNED_PLANS, keyed by P_s dB, as each of them moved, oldest
# first: when every line search after a coordinate's first began to span a
# bracket around the coordinate's last move, and when the line searches
# became Brent's to a 1e-7 bracket.  The last capture is the current plan,
# and its direct objective may not fall below the PINNED_PLANS plan's or an
# earlier capture's by more than 1e-6 relative
RECAPTURED_PLANS = {
    -20.0: [("0x1.01793ae1e291cp-1", "0x1.fc39cc0b84fdap-1", "0x1.febc59a725a74p-1"),
            ("0x1.01781bae9f33bp-1", "0x1.fc39c9f52212cp-1", "0x1.febc574a4c9a2p-1")],
    -19.5: [("0x1.01a582778ca32p-1", "0x1.fbc624891deb4p-1", "0x1.fe95637fd5e14p-1"),
            ("0x1.01a562b8dc38fp-1", "0x1.fbc62438d479bp-1", "0x1.fe9563a8480c5p-1")],
    -19.25: [("0x1.01be6b4a5e2dcp-1", "0x1.fb875622fbcefp-1", "0x1.fe8037f9ed655p-1"),
             ("0x1.01bd536bfd65fp-1", "0x1.fb8752abfcc43p-1", "0x1.fe80363f94e7fp-1")],
    -18.75: [("0x1.01f311e71d30ep-1", "0x1.fafeceed2e97ap-1", "0x1.fe52241777ce1p-1"),
             ("0x1.01f357dbe1c87p-1", "0x1.fafecf6870f35p-1", "0x1.fe5223f033f6cp-1")],
    -18.0: [("0x1.024f569096b1ap-1", "0x1.fa13bcf641370p-1", "0x1.fe02aa73eec85p-1"),
            ("0x1.024f1d2b5b61ap-1", "0x1.fa13bbd3cfc03p-1", "0x1.fe02aa0811361p-1")],
    -17.5: [("0x1.02959876ae64fp-1", "0x1.f9603a2e80bc2p-1", "0x1.fdc5d80d7e4fep-1"),
            ("0x1.029543039495cp-1", "0x1.f96038d6d0f69p-1", "0x1.fdc5d76241a63p-1")],
    -17.0: [("0x1.02e3b5a5e4c42p-1", "0x1.f8982c10d582bp-1", "0x1.fd81efe8044fdp-1"),
            ("0x1.02e3b483a6807p-1", "0x1.f8982c642f4a3p-1", "0x1.fd81ef4430708p-1")],
    -15.0: [("0x1.04804c5771fb1p-1", "0x1.f47c2e05d384ap-1", "0x1.fc1a8b5f4e3e7p-1"),
            ("0x1.04806d979839ap-1", "0x1.f47c2e7c46903p-1", "0x1.fc1a8da2fb328p-1")],
    -12.5: [("0x1.07bbf0290a428p-1", "0x1.ec4c58be10de9p-1", "0x1.f9431f20cfe55p-1"),
            ("0x1.07bbf31e9c6fcp-1", "0x1.ec4c5969b6314p-1", "0x1.f9431ec8a4dbdp-1")],
    -10.0: [("0x1.0cfd3c32c1b92p-1", "0x1.df1f60eeb9821p-1", "0x1.f48fd707398f5p-1"),
            ("0x1.0cfd42d624437p-1", "0x1.df1f612ce8ccdp-1", "0x1.f48fd76b7d0abp-1")],
    -5.0: [("0x1.20d137ec25f63p-1", "0x1.aefded7fda529p-1", "0x1.e1ff5d731e0dbp-1"),
           ("0x1.20d13e20ac3f3p-1", "0x1.aefded1d5e90cp-1", "0x1.e1ff5e1f07e86p-1")],
    0.0: [("0x1.43700160ad65ep-1", "0x1.610f3bb072f6cp-1", "0x1.bed7b5c1991d0p-1"),
          ("0x1.437001c39234ap-1", "0x1.610f3bf6af98fp-1", "0x1.bed7b545da2cap-1")],
    5.0: [("0x1.6fa707bfd0d18p-1", "0x1.08bddd2626c63p-1", "0x1.8e0bbd7d774c0p-1"),
          ("0x1.6fa704ef9c091p-1", "0x1.08bddd92856acp-1", "0x1.8e0bbf6e0be90p-1")],
    10.0: [("0x1.9bc07f0dee3d2p-1", "0x1.785f9f64e9e47p-2", "0x1.59f598ffc955bp-1"),
           ("0x1.9bc084785d69ep-1", "0x1.785f9ceae0a34p-2", "0x1.59f59d7b4bc5ep-1")],
    15.0: [("0x1.c07f011f98027p-1", "0x1.06e35f6e81127p-2", "0x1.2b2ee5a1451a2p-1"),
           ("0x1.c07f00565a2fdp-1", "0x1.06e361688d04ep-2", "0x1.2b2ee4fd57d9cp-1")],
    20.0: [("0x1.db17a4c1d7a2dp-1", "0x1.71fbab9b1531cp-3", "0x1.04fc3bd53bbe8p-1"),
           ("0x1.db17a30c859ddp-1", "0x1.71fba49635383p-3", "0x1.04fc383c5587cp-1")],
    25.0: [("0x1.ec2fda4ea150cp-1", "0x1.0a22150761681p-3", "0x1.ce49e308dc98dp-2"),
           ("0x1.ec2fea4c73262p-1", "0x1.0a224e5928d9ap-3", "0x1.ce4a322b26374p-2")],
    30.0: [("0x1.f61950179b402p-1", "0x1.8a206e71a7cafp-4", "0x1.a05dafb3627d6p-2"),
           ("0x1.f61948d99229ap-1", "0x1.8a202562bc735p-4", "0x1.a05d67181478ap-2")],
    40.0: [("0x1.fdef1c6158a74p-1", "0x1.d9ba68c5b2eb6p-5", "0x1.616f57d94082dp-2"),
           ("0x1.fdef1d41c2036p-1", "0x1.d9baaf4c8eb13p-5", "0x1.616f7a782b1d2p-2")],
    50.0: [("0x1.ffa3f968f9dcbp-1", "0x1.3cf10ab03cab3p-5", "0x1.3a204bb01ec63p-2"),
           ("0x1.ffa3fb89d4cccp-1", "0x1.3cf39f82b935ep-5", "0x1.3a21cfe9c42edp-2")],
    60.0: [("0x1.fff1daa24d9bcp-1", "0x1.cba334b1699bfp-6", "0x1.1fc96c2ccceb2p-2"),
           ("0x1.fff1db99d55c6p-1", "0x1.cbaf144bd12d9p-6", "0x1.1fcd5af04aa9cp-2")],
    70.0: [("0x1.fffe04186af4cp-1", "0x1.621b7ace51b78p-6", "0x1.0d52be683278ep-2"),
           ("0x1.fffe0106abfccp-1", "0x1.614748a53a0e7p-6", "0x1.0d02d5b7f85bbp-2")],
    71.5: [("0x1.fffe8712d429bp-1", "0x1.5599588a37ff0p-6", "0x1.0ae53017cac97p-2"),
           ("0x1.fffe84df9552dp-1", "0x1.54d27fd13be7cp-6", "0x1.0a990ddd401e2p-2")],
    71.75: [("0x1.fffe940b345a4p-1", "0x1.519fa6ff3e86ep-6", "0x1.09bef89d3763fp-2"),
            ("0x1.fffe976641c10p-1", "0x1.52d99fb7d76f7p-6", "0x1.0a3798fec057ap-2")],
    72.5: [("0x1.fffec9afecdedp-1", "0x1.4d025d9f5eee2p-6", "0x1.0913217a41ceap-2"),
           ("0x1.fffec98d520abp-1", "0x1.4cf3f124105fcp-6", "0x1.090d7bb24dcbbp-2")],
    74.5: [("0x1.ffff309fa921cp-1", "0x1.3e63e1d80a3d0p-6", "0x1.06310930d2033p-2"),
           ("0x1.ffff309fd8263p-1", "0x1.3e64068cf7a1dp-6", "0x1.06311516faab2p-2")],
    77.5: [("0x1.ffff8bb8827a7p-1", "0x1.26f247e158913p-6", "0x1.00b3870d817b6p-2"),
           ("0x1.ffff8eaa5a31bp-1", "0x1.29f8a42d306adp-6", "0x1.01f09f4355328p-2")],
    80.0: [("0x1.ffffb62c96066p-1", "0x1.11e6a1bae47bdp-6", "0x1.f5eee857a4480p-3"),
           ("0x1.ffffbba9792d0p-1", "0x1.1a83a301e8e14p-6", "0x1.fd2f779f5465cp-3")],
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
        # (value, beta) captured before the line searches became Brent's to a
        # 1e-7 bracket, then after; the current value may not fall below the
        # old by more than 1e-6 relative
        old = (1.0410386128522764, 0.7000002609033692)
        current = (1.0410386151708304, 0.7000000365909307)
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
# first began to span a bracket around the coordinate's last move; and every
# row when the line searches became Brent's to a 1e-7 bracket.  The last
# capture is the current result, and it may not fall below the PINNED value or
# an earlier capture by more than 1e-6 relative
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
    ],
    (25.0, 2.0, ("alpha", "eta1", "eta2")): [
        (5.187470690352275,
         {"alpha": 0.9845432179997308, "eta1": 0.46147421427140967,
          "eta2": 1.321859625952951}, 10754),
        (5.187470690352123,
         {"alpha": 0.9845431930668596, "eta1": 0.4614739646496458,
          "eta2": 1.3218592841722079}, 8879),
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
    ],
    (80.0, 0.001, ("eta1", "eta2")): [
        (14.772221721346606,
         {"alpha": 0.6, "eta1": 0.0002651354165459188, "eta2": 0.06752580546314912}, 663),
        (14.772221721346655,
         {"alpha": 0.6, "eta1": 0.00026513194812401847, "eta2": 0.0675258189200752}, 477),
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


def test_miso_equal_search_computes_each_tail_once(monkeypatch, caplog, capsys):
    # a line search moves at most one threshold and the alpha lines none, so
    # the search keeps every tail it has computed, the coarse grid's included
    row = next(row for row in PINNED if row[:3] == (25.0, 2.0, "miso-equal"))
    ps_db, ratio, scheme, free, fixed, coarse = row[:6]
    value, params, n_evals = expected(row)
    seen, thresholds = [], []

    def recording(u, p_s, p_r):
        seen.append(u)
        return y_sum_tail(u, p_s, p_r)

    # two thresholds an ulp apart can share u = eta*P_s, so the tail's own
    # thresholds are recorded too
    form = twolayer.CLOSED_FORMS[scheme]

    def recording_tail(eta, p_s, p_r):
        thresholds.append(eta)
        return form.tail(eta, p_s, p_r)

    monkeypatch.setattr(twolayer, "y_sum_tail", recording)
    monkeypatch.setitem(twolayer.CLOSED_FORMS, scheme, form._replace(tail=recording_tail))
    caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
    p_s = 10 ** (ps_db / 10)
    res = maximize_throughput(scheme, free, fixed, PowerConfig(p_s, ratio * p_s, 1.0),
                              coarse_points=coarse)
    assert (res.value, res.params, res.n_evals) == (value, params, n_evals)
    assert seen and len(seen) == len(thresholds) == len(set(thresholds))
    # one DEBUG line per search, counting the tails computed; nothing on stdout
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith(
        f"maximize_throughput miso-equal free=alpha,eta1,eta2 evals={n_evals} "
        f"tails={len(seen)} ")
    assert capsys.readouterr().out == ""


def test_direct_search_logs_no_tail_count(monkeypatch, caplog):
    # direct scores math.exp at every evaluation and caches no tail; lines=
    # counts the line searches of all three ascents
    searches = []

    def counted(*args, **kwargs):
        searches.append(args[1:3])
        return golden_section_max(*args, **kwargs)

    monkeypatch.setattr(optimize, "golden_section_max", counted)
    caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
    res = maximize_throughput("direct", ("alpha", "eta1", "eta2"), {},
                              PowerConfig(10.0, 0.0, 1.0))
    [record] = caplog.records
    assert re.fullmatch(rf"maximize_throughput direct free=alpha,eta1,eta2 "
                        rf"evals={res.n_evals} passes=\d+,\d+,\d+ lines={len(searches)} "
                        rf"widened=\d+ capped=0 value={res.value:.6g}", record.getMessage())


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
