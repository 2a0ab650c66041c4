import functools
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from relaycast import PowerConfig, TwoLayerAllocation, layer_rates
from relaycast.bounds import BoundContext
from relaycast.broadcast import (continuous_layering, relay_or_miso_broadcast_bound,
                                  siso_broadcast_rate)
from relaycast.cli import main
from relaycast.model import decoding_times
from relaycast.montecarlo import (CHUNK_BLOCKS, RNG_ID, STRATEGIES, SimConfig, SimEstimate,
                                  _chunk_stats, _continuous_table, _count_stats,
                                  _fading_chunk, _line_decisions, _miso_lines,
                                  _sdf_decisions, _threshold_decisions, _two_layer_credit,
                                  _two_layer_decisions, _uniform_thresholds, _Workspace,
                                  conditional_layer_probability, simulate_strategy)
from relaycast.twolayer import direct_multilayer_throughput

ALLOC = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.4)
CFG = PowerConfig(p_s=10.0, p_r=8.0, q=30.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(blocks=0, seed=1, strategy="direct", params=ALLOC)
    with pytest.raises(ValueError):
        SimConfig(blocks=10, seed=1, strategy="warp-drive", params=ALLOC)


@pytest.mark.parametrize("strategy, params", [
    ("single-layer-SDF", -1.0),  # returned mean -1.0
    ("single-layer-SDF", float("nan")),  # returned NaN
    ("single-layer-SDF", float("inf")),  # raised a RuntimeWarning
    ("single-layer-SDF", "1.0"),
    ("single-layer-SDF", True),
    ("single-layer-SDF", ALLOC),
    ("direct", 1.0),  # raised AttributeError
    ("simplex-equal", (0.6, 0.3, 1.4)),
    ("full-duplex", None),
    ("layered-continuous", "duplex"),
    ("layered-continuous", ALLOC),
])
def test_config_checks_params_per_strategy(strategy, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=strategy):
            SimConfig(blocks=10, seed=1, strategy=strategy, params=params)


def test_sdf_rate_is_a_float_and_rate_zero_always_decodes():
    config = SimConfig(blocks=10, seed=1, strategy="single-layer-SDF", params=np.int64(0))
    assert type(config.params) is float
    assert simulate_strategy(config, CFG) == SimEstimate(mean=0.0, stderr=0.0, blocks=10, seed=1)


def test_bitwise_determinism():
    config = SimConfig(blocks=150_000, seed=123, strategy="simplex-equal", params=ALLOC)
    a = simulate_strategy(config, CFG)
    b = simulate_strategy(config, CFG)
    assert a == b
    c = simulate_strategy(SimConfig(blocks=150_000, seed=124,
                                    strategy="simplex-equal", params=ALLOC), CFG)
    assert c.mean != a.mean


def test_worker_split_preserves_samples():
    # every pinned case, at a block count whose six chunks split unevenly over
    # 4 workers: the chunks' statistics merge in chunk order at any worker count
    assert {strategy for strategy, _, _ in PIN_CASES.values()} == set(STRATEGIES)
    for case, (strategy, params, cfg) in PIN_CASES.items():
        config = SimConfig(blocks=5 * CHUNK_BLOCKS + 17, seed=9, strategy=strategy,
                           params=params)
        single = simulate_strategy(config, cfg, workers=1)
        for workers in (2, 3, 4):
            assert simulate_strategy(config, cfg, workers=workers) == single, (case, workers)


def test_direct_strategy_against_closed_form():
    res = direct_multilayer_throughput((ALLOC.eta1, ALLOC.eta2),
                                       (ALLOC.alpha, ALLOC.alpha_bar), CFG.p_s)
    est = simulate_strategy(SimConfig(blocks=1_000_000, seed=77,
                                      strategy="direct", params=ALLOC), CFG)
    assert abs(res.r_av - est.mean) < 3 * est.stderr


def _chunk_decisions(cfg, eps1, eps2, seed=4):
    # one chunk's decisions in its decision domain, as simulate_strategy makes them
    ws = _Workspace(CHUNK_BLOCKS)
    r1, r2 = layer_rates(ALLOC, cfg.p_s)
    draw = functools.partial(_fading_chunk, seed, 0, ws, CHUNK_BLOCKS)
    return tuple(d.copy() for d in _two_layer_decisions(draw, ALLOC, cfg, eps1, eps2,
                                                        r1, r2, ws))


def test_full_duplex_dominates_simplex_per_block():
    # the middle phase only adds relay power on layer 1, so with common
    # randomness full-duplex decodes every layer that simplex decodes
    cfg = PowerConfig(p_s=1.0, p_r=1.0, q=1.0)  # low gain: eps1 < eps2
    times = decoding_times(ALLOC, cfg)
    assert times.eps1 < times.eps2
    simplex = _chunk_decisions(cfg, times.eps2, times.eps2)
    duplex = _chunk_decisions(cfg, times.eps1, times.eps2)
    for sx, fd in zip(simplex, duplex):
        assert np.all(fd[sx])
    assert np.count_nonzero(duplex[0]) > np.count_nonzero(simplex[0])


def test_full_duplex_equals_simplex_when_layer1_slower():
    # when the layer-1 decoding time already dominates, eps1 == eps2 and the
    # two modes coincide sample by sample
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
    sx = simulate_strategy(SimConfig(blocks=100_000, seed=6,
                                     strategy="simplex-equal", params=ALLOC), cfg)
    fd = simulate_strategy(SimConfig(blocks=100_000, seed=6,
                                     strategy="full-duplex", params=ALLOC), cfg)
    assert sx == fd


def test_layered_continuous_modes_run():
    cfg = PowerConfig(p_s=10.0, p_r=5.0, q=1.0)
    for mode in ("relay", "miso", "siso"):
        est = simulate_strategy(SimConfig(blocks=50_000, seed=3,
                                          strategy="layered-continuous", params=mode), cfg)
        assert est.mean > 0.0 and est.stderr > 0.0


def test_continuous_table_of_a_vanishing_relay_is_the_siso_table():
    # P_r/P_s below 1e-12 falls back to SISO, as the closed-form bound does
    siso = _continuous_table("siso", PowerConfig(p_s=10.0, p_r=0.0, q=1.0))
    assert siso[2] == 0.0
    for mode in ("relay", "miso"):
        grid, cum, a = _continuous_table(mode, PowerConfig(p_s=10.0, p_r=1e-12, q=1.0))
        assert a == 0.0
        assert np.array_equal(grid, siso[0]) and np.array_equal(cum, siso[1])


@pytest.mark.parametrize("mode, cfg", [
    ("siso", PowerConfig(p_s=0.01, p_r=0.0, q=1.0)),
    ("siso", PowerConfig(p_s=10**2.5, p_r=0.0, q=1.0)),
    ("relay", PowerConfig(p_s=10.0, p_r=15.0, q=1.0)),
    ("miso", PowerConfig(p_s=1.0, p_r=1e5, q=1.0)),
])
def test_interpolated_continuous_table_averages_to_the_bound(mode, cfg):
    # the oracle credits a block np.interp(s, u, R); its mean over the fading
    # s, by adaptive quadrature on each panel, is the closed-form bound to
    # 1e-5 relative (3.1e-6 at worst, 25 dB SISO; a 4097-point trapezoid
    # table read 2.4e-4 to 8.1e-3 low here)
    grid, cum, _ = _continuous_table(mode, cfg)
    _, dist, _ = continuous_layering(cfg, mode)
    mean = cum[-1] * (1.0 - float(dist.cdf(grid[-1])))
    for lo, hi in zip(grid[:-1], grid[1:]):
        mean += quad(lambda u: np.interp(u, grid, cum) * dist.pdf(u), lo, hi,
                     epsabs=0.0, epsrel=1e-13)[0]
    bound = siso_broadcast_rate(cfg.p_s) if mode == "siso" else \
        relay_or_miso_broadcast_bound(cfg, mode)
    assert mean == pytest.approx(bound, rel=1e-5, abs=0.0)


def test_estimate_metadata():
    est = simulate_strategy(SimConfig(blocks=1000, seed=11, strategy="direct",
                                      params=ALLOC), CFG)
    assert isinstance(est, SimEstimate)
    assert est.blocks == 1000 and est.seed == 11
    assert est.rng == RNG_ID == "pcg64dxsm/seedseq-chunk65536/inv-cdf/v2"


@pytest.mark.parametrize("seed, key", [(20_240_001, 20_240_001), (-1, 2**64 - 1)])
def test_each_chunk_draws_its_own_keyed_stream(seed, key):
    # chunk i at seed s draws PCG64DXSM(SeedSequence([s mod 2**64, i]))'s
    # uniforms, block-major in two columns.  read=0 returns the first column
    # as drawn; read=1 and read=2 map the first or both through log1p(-u),
    # which is -nu for the inverse-CDF exponential nu = -log1p(-u)
    assert RNG_ID.endswith("/v2")
    ws = _Workspace(CHUNK_BLOCKS)
    for chunk in (0, 1, 7):
        u = np.random.Generator(np.random.PCG64DXSM(
            np.random.SeedSequence([key, chunk]))).random((CHUNK_BLOCKS, 2))
        (u_s,) = _fading_chunk(seed, chunk, ws, CHUNK_BLOCKS, read=0)
        assert np.array_equal(u_s, u[:, 0])
        (m_s,) = _fading_chunk(seed, chunk, ws, CHUNK_BLOCKS, read=1)
        assert np.array_equal(m_s, np.log1p(-u[:, 0]))
        m_s, m_r = _fading_chunk(seed, chunk, ws, CHUNK_BLOCKS)
        assert np.array_equal(m_s, np.log1p(-u[:, 0]))
        assert np.array_equal(m_r, np.log1p(-u[:, 1]))
        # the sign fold is exact: (-nu) * (-P) is nu * P, bit for bit
        for p in (1e-2, 10.0, 1e8):
            assert np.array_equal(m_s * -p, -np.log1p(-u[:, 0]) * p)


# Bit pins: (mean, stderr) as float.hex at seed 20240001 for 1, 17 and
# CHUNK_BLOCKS + 17 blocks, one case per strategy and phase structure.
# eps1/eps2 are the relay's decoding times (model.decoding_times).
_ALLOC_UNEQUAL = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.4, beta=0.8)
_LOW_Q = PowerConfig(p_s=10.0, p_r=8.0, q=0.05)  # the relay never decodes
_SILENT = PowerConfig(p_s=10.0, p_r=0.0, q=30.0)
_CONTINUOUS = PowerConfig(p_s=10.0, p_r=5.0, q=1.0)
PIN_CASES = {
    "direct": ("direct", ALLOC, CFG),
    "miso-equal": ("miso-equal", ALLOC, CFG),
    "miso-unequal": ("miso-unequal", _ALLOC_UNEQUAL, CFG),
    "simplex-eps2-below-1": ("simplex-equal", ALLOC, CFG),  # eps2 = 0.656
    "simplex-eps2-1": ("simplex-equal", ALLOC, _LOW_Q),
    # eps1 = 0.431 < eps2 = 0.646 < 1
    "full-duplex-three-phases": ("full-duplex", ALLOC, PowerConfig(p_s=3.0, p_r=3.0, q=3.0)),
    # eps1 = 0.418 < eps2 = 1
    "full-duplex-eps2-1": ("full-duplex", ALLOC, PowerConfig(p_s=1.0, p_r=1.0, q=1.0)),
    "sdf-eps-below-1": ("single-layer-SDF", 1.0, CFG),  # eps = 0.175
    "sdf-eps-1": ("single-layer-SDF", 1.0, _LOW_Q),
    "continuous-relay": ("layered-continuous", "relay", _CONTINUOUS),
    "continuous-miso": ("layered-continuous", "miso", _CONTINUOUS),
    "continuous-siso": ("layered-continuous", "siso", _CONTINUOUS),
    "simplex-unequal-silent-relay": ("simplex-unequal", _ALLOC_UNEQUAL, _SILENT),
    "miso-unequal-silent-relay": ("miso-unequal", _ALLOC_UNEQUAL, _SILENT),
}
PINNED = {
    "direct": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.d245f33e228b3p-1", "0x1.deda284634dc7p-9"),
    ),
    "miso-equal": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.dc0ba04720d7cp+0", "0x1.f6a530a2faae6p-3"),
        ("0x1.9568352b1b445p+0", "0x1.f4a38575a00bbp-9"),
    ),
    "miso-unequal": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.736143cf8bed4p+0", "0x1.f81c957ee640cp-3"),
        ("0x1.5355386d24462p+0", "0x1.dea23ebd7b5a6p-9"),
    ),
    "simplex-eps2-below-1": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.318b0a010ea0ap+0", "0x1.f1777f49bd961p-3"),
        ("0x1.11dddb506307bp+0", "0x1.f2608183123b2p-9"),
    ),
    "simplex-eps2-1": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.d245f33e228b3p-1", "0x1.deda284634dc7p-9"),
    ),
    "full-duplex-three-phases": (
        ("0x1.51f7b55cce4f7p+0", "0x0.0p+0"),
        ("0x1.4932f79e41bf8p-1", "0x1.058828b0fcec9p-3"),
        ("0x1.4bbccbd6ca81ep-1", "0x1.ed989a394de8cp-10"),
    ),
    "full-duplex-eps2-1": (
        ("0x1.2ffc405b7ebbap-1", "0x0.0p+0"),
        ("0x1.0c964164f60c2p-2", "0x1.c071ca82a2374p-5"),
        ("0x1.03cc6d8c5cef6p-2", "0x1.9314a9e8e54c8p-11"),
    ),
    "sdf-eps-below-1": (
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.c3c3c3c3c3c3cp-1", "0x1.49ec1b6ca053bp-4"),
        ("0x1.f512b9c1aa23bp-1", "0x1.27f0e3b634a77p-11"),
    ),
    "sdf-eps-1": (
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.c3c3c3c3c3c3cp-1", "0x1.49ec1b6ca053bp-4"),
        ("0x1.afe751a394233p-1", "0x1.73f1864a0cef0p-10"),
    ),
    "continuous-relay": (
        ("0x1.e33e153fc7e1ap+0", "0x0.0p+0"),
        ("0x1.986d1db1b24f8p+0", "0x1.3f5943e2aac12p-3"),
        ("0x1.900af3a64792bp+0", "0x1.2180dc917eb5cp-9"),
    ),
    # re-captured when the miso profile came from outage._layer_tail_terms:
    # its R(u) table moved at rounding level (the means by 1-2 ulps)
    "continuous-miso": (
        ("0x1.1398b3978560bp+1", "0x0.0p+0"),
        ("0x1.bbaccb1fddf83p+0", "0x1.840a39114b030p-3"),
        ("0x1.9cc848cb4e829p+0", "0x1.89988ad67eb70p-9"),
    ),
    "continuous-siso": (
        ("0x1.e33e153fc7e1ap+0", "0x0.0p+0"),
        ("0x1.48185b6a8ca38p+0", "0x1.9514d2685f28bp-3"),
        ("0x1.2322e0193c954p+0", "0x1.9489bcd75f98bp-9"),
    ),
    "simplex-unequal-silent-relay": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.d245f33e228b3p-1", "0x1.deda284634dc7p-9"),
    ),
    "miso-unequal-silent-relay": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.d245f33e228b3p-1", "0x1.deda284634dc7p-9"),
    ),
}
PIN_BLOCKS = (1, 17, CHUNK_BLOCKS + 17)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("blocks", PIN_BLOCKS)
@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_estimates_are_pinned_bit_for_bit(case, blocks, workers):
    strategy, params, cfg = PIN_CASES[case]
    est = simulate_strategy(SimConfig(blocks=blocks, seed=20_240_001, strategy=strategy,
                                      params=params), cfg, workers=workers)
    assert (est.mean.hex(), est.stderr.hex()) == PINNED[case][PIN_BLOCKS.index(blocks)]
    assert est.blocks == blocks


_MERGE_PINNED = {
    "full-duplex-three-phases": ("0x1.4afffec94f01fp-1", "0x1.ecdfcfcc30380p-11"),
    "continuous-relay": ("0x1.90360e12825a4p+0", "0x1.20ca2264b8679p-10"),
}


@pytest.mark.parametrize("case, workers, pinned", [
    (case, workers, pinned) for case, pinned in _MERGE_PINNED.items() for workers in (1, 2)])
def test_two_thread_merge_is_pinned(case, workers, pinned):
    # five chunks: two threads run (0-1) and (2-4), one thread runs all five,
    # and both merge the five chunks' statistics in chunk order
    strategy, params, cfg = PIN_CASES[case]
    est = simulate_strategy(SimConfig(blocks=4 * CHUNK_BLOCKS + 17, seed=20_240_001,
                                      strategy=strategy, params=params), cfg, workers=workers)
    assert (est.mean.hex(), est.stderr.hex()) == pinned


def _reference_information(nu_s, nu_r, alloc, cfg, eps1, eps2):
    """Layer-1 and layer-2 information with every phase evaluated on fresh
    temporaries."""
    s = nu_s * cfg.p_s
    el = nu_r * cfg.p_r
    a, ab = alloc.alpha, alloc.alpha_bar
    b, bb = alloc.beta, alloc.beta_bar
    i1 = (1.0 - eps2) * np.log1p((a * s + b * el) / (1.0 + ab * s + bb * el))
    if eps2 > eps1:
        i1 += (eps2 - eps1) * np.log1p((a * s + el) / (1.0 + ab * s))
    if eps1 > 0.0:
        i1 += eps1 * (np.log1p(s) - np.log1p(ab * s))
    i2 = eps2 * np.log1p(ab * s) + (1.0 - eps2) * np.log1p(ab * s + bb * el)
    return i1, i2


_unit = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
_plans = dict(alpha=_unit, beta=_unit, eta1=st.floats(0.0, 5.0),
              eta_gap=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
              ps_db=st.floats(-20.0, 80.0),
              pr_db=st.one_of(st.none(), st.floats(-20.0, 80.0)),
              size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))


def _plan(alpha, beta, eta1, eta_gap, ps_db, pr_db):
    alloc = TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta1 + eta_gap, beta=beta)
    cfg = PowerConfig(p_s=10.0 ** (ps_db / 10.0),
                      p_r=0.0 if pr_db is None else 10.0 ** (pr_db / 10.0), q=1.0)
    return alloc, cfg


def _uniforms(seed, size):
    u = np.random.default_rng(seed).random((size, 2))
    u[0] = 0.0  # zero fading on both links
    return u


def _at(values, rates):
    """The rates of the kernel tests: the plan's own ("layer"), or exactly
    on (or one ulp above) the last block's value in the kernel's own
    variables, so that an ulp of difference in the kernel flips a decision."""
    if rates == "tie":
        return [float(v[-1]) for v in values]
    return [float(np.nextafter(v[-1], np.inf)) for v in values]


@settings(max_examples=300, deadline=None)
@given(**_plans, eps=st.lists(_unit, min_size=2, max_size=2),
       rates=st.sampled_from(("layer", "tie", "ulp-above")))
def test_credit_kernel_matches_the_reference_formula(alpha, beta, eta1, eta_gap, ps_db,
                                                    pr_db, size, seed, eps, rates):
    # the phase-mixed domain (eps1 < 1, eps2 > 0), in information
    eps1, eps2 = sorted(eps)
    assume(eps1 < 1.0 and eps2 > 0.0)
    alloc, cfg = _plan(alpha, beta, eta1, eta_gap, ps_db, pr_db)
    m = np.log1p(-_uniforms(seed, size))
    i1, i2 = _reference_information(-m[:, 0], -m[:, 1], alloc, cfg, eps1, eps2)
    r1, r2 = layer_rates(alloc, cfg.p_s) if rates == "layer" else _at((i1, i2), rates)
    dec1, dec2 = _two_layer_credit(m[:, 0], m[:, 1], alloc, cfg, eps1, eps2, r1, r2,
                                   _Workspace(size))
    assert np.array_equal(dec1, i1 >= r1)
    assert np.array_equal(dec2, (i1 >= r1) & (i2 >= r2))


@settings(max_examples=200, deadline=None)
@given(**_plans, rates=st.sampled_from(("layer", "tie", "ulp-above")))
def test_line_kernel_matches_the_reference_formula(alpha, beta, eta1, eta_gap, ps_db, pr_db,
                                                   size, seed, rates):
    # the MISO domain, in line values k_s m_s + k_r m_r
    alloc, cfg = _plan(alpha, beta, eta1, eta_gap, ps_db, pr_db)
    m = np.log1p(-_uniforms(seed, size))
    lines = _miso_lines(alloc, cfg, *layer_rates(alloc, cfg.p_s))
    values = [m[:, 0] * k_s + m[:, 1] * k_r for k_s, k_r, _ in lines]
    if rates != "layer":
        lines = [(k_s, k_r, c) for (k_s, k_r, _), c in zip(lines, _at(values, rates))]
    dec1, dec2 = _line_decisions(m[:, 0], m[:, 1], lines, _Workspace(size))
    assert np.array_equal(dec1, values[0] >= lines[0][2])
    assert np.array_equal(dec2, (values[0] >= lines[0][2]) & (values[1] >= lines[1][2]))


@settings(max_examples=200, deadline=None)
@given(**_plans, rates=st.sampled_from(("layer", "tie", "ulp-above")))
def test_threshold_kernel_matches_the_reference_formula(alpha, beta, eta1, eta_gap, ps_db,
                                                        pr_db, size, seed, rates):
    # the relay-free domain, in uniforms; the tie thresholds are the last
    # two blocks' u_s, in either order
    alloc, cfg = _plan(alpha, beta, eta1, eta_gap, ps_db, pr_db)
    u_s = _uniforms(seed, size)[:, 0]
    if rates == "layer":
        t1, t2 = _uniform_thresholds((alloc.eta1, alloc.eta2), layer_rates(alloc, cfg.p_s))
    else:
        t1, t2 = _at((u_s, u_s[:-1] if size > 1 else u_s), rates)
    dec1, dec2 = _threshold_decisions(u_s, (t1, t2), _Workspace(size))
    assert np.array_equal(dec1, u_s >= t1)
    assert np.array_equal(dec2, (u_s >= t1) & (u_s >= t2))


def _few_ulps(scale, p_s):
    """8 ulps of ``scale``, plus 8 subnormal steps times P_s: a product such as
    layer_rates' eta1 * alpha_bar that underflows before it is scaled by P_s."""
    return 8.0 * (np.spacing(scale) + max(p_s, 1.0) * np.spacing(0.0))


def _draw_from(u):
    """A chunk's draw(read) for the uniforms ``u`` (blocks x 2)."""
    return lambda read: (u[:, 0],) if read == 0 else tuple(np.log1p(-u).T.copy())


def _near_boundaries(nu, alloc, cfg, domain, sdf_rate):
    """Fadings 2^-44 and 2^-40 (relative) to either side of the domain's
    decision boundaries and the SDF's, the MISO lines' met at each block's
    nu_s or nu_r: an error in a domain's thresholds or lines of that size
    flips some of them."""
    rows = []

    def around(nu_s, nu_r, col):
        for step in (-2.0**-40, -2.0**-44, 2.0**-44, 2.0**-40):
            point = np.column_stack(np.broadcast_arrays(nu_s, nu_r)).astype(float)
            point[:, col] *= 1.0 + step
            rows.append(point)

    around(math.expm1(min(sdf_rate, 700.0)) / cfg.p_s, 1.0, 0)
    if domain == "uniform":
        around(np.array([alloc.eta1, alloc.eta2]), 1.0, 0)
    else:
        for k_s, k_r, c in _miso_lines(alloc, cfg, *layer_rates(alloc, cfg.p_s)):
            with np.errstate(over="ignore"):  # points past 30 are dropped below
                if k_r < 0.0:  # the line in nu is -k_s nu_s - k_r nu_r = c
                    around(nu[:, 0], (c + k_s * nu[:, 0]) / -k_r, 1)
                if k_s < 0.0:
                    around((c + k_r * nu[:, 1]) / -k_s, nu[:, 1], 0)
    points = np.concatenate(rows)
    return points[np.all((points > 0.0) & (points < 30.0), axis=1)]  # u < 1 after the map


@settings(max_examples=300, deadline=None)
@given(**_plans, domain=st.sampled_from(("uniform", "line")),
       sdf_rate=st.one_of(st.sampled_from((0.0, 800.0)), st.floats(0.0, 12.0)))
def test_decision_domains_agree_with_the_log_domain(alpha, beta, eta1, eta_gap, ps_db, pr_db,
                                                    size, seed, domain, sdf_rate):
    # over the documented domain, a uniform or line decision equals the
    # log-domain reference wherever the block's information lies more than
    # a few ulps of its terms from its rate, on random blocks and on blocks
    # placed next to each boundary; a rate-0 layer always decodes, and no
    # RuntimeWarning is raised (expm1 of the 800-nat SDF rate overflows)
    alloc, cfg = _plan(alpha, beta, eta1, eta_gap, ps_db, pr_db)
    u = _uniforms(seed, size)
    u = np.concatenate([u, -np.expm1(-_near_boundaries(-np.log1p(-u), alloc, cfg, domain,
                                                       sdf_rate))])
    size = len(u)
    nu = -np.log1p(-u)
    r1, r2 = layer_rates(alloc, cfg.p_s)
    eps = 1.0 if domain == "uniform" else 0.0
    i1, i2 = _reference_information(nu[:, 0], nu[:, 1], alloc, cfg, eps, eps)
    s = nu[:, 0] * cfg.p_s
    # the log-domain sums' rounding scales: the early phase (and r1) differ
    # two log1p terms; a line-domain decision compares with the same r1
    scale1 = np.log1p(s) + np.log1p(alloc.alpha_bar * s) if domain == "uniform" else i1
    scale_r1 = math.log1p(alloc.eta1 * cfg.p_s) + math.log1p(alloc.eta1 * alloc.alpha_bar
                                                            * cfg.p_s) \
        if domain == "uniform" else r1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ws = _Workspace(size)
        dec1, dec2 = (d.copy() for d in _two_layer_decisions(
            _draw_from(u), alloc, cfg, eps, eps, r1, r2, ws))
        (sdf,) = _sdf_decisions(_draw_from(u), cfg, sdf_rate, 1.0, ws)
        i_sdf = np.log1p(s)
    far1 = np.abs(i1 - r1) > _few_ulps(scale1 + scale_r1, cfg.p_s)
    far2 = np.abs(i2 - r2) > _few_ulps(i2 + r2, cfg.p_s)
    assert np.array_equal(dec1[far1], (i1 >= r1)[far1])
    assert np.array_equal(dec2[far2], (dec1 & (i2 >= r2))[far2])
    far = np.abs(i_sdf - sdf_rate) > _few_ulps(i_sdf + sdf_rate, cfg.p_s)
    assert np.array_equal(sdf[far], (i_sdf >= sdf_rate)[far])
    assert dec1.all() or r1 != 0.0
    assert np.array_equal(dec2, dec1) or r2 != 0.0
    assert sdf.all() or sdf_rate != 0.0
    if sdf_rate == 800.0:
        assert not sdf.any()


@pytest.mark.parametrize("size", [1, 2, 17, 5000, CHUNK_BLOCKS])
@pytest.mark.parametrize("decoded", ["random", "none", "layer-1", "both"])
def test_count_stats_match_the_credit_array(size, decoded):
    # (n, mean, M2) from the counts of nested decisions, against the same
    # statistics of the explicit per-block credit r1 dec1 + r2 dec2
    rng = np.random.default_rng(size)
    for r1, r2 in [(0.8367, 1.1273), (1e-3, 7.5), (2.0, 0.0), (0.0, 0.3)]:
        u = rng.random((2, size))
        dec1 = u[0] < 0.7 if decoded == "random" else np.full(size, decoded != "none")
        dec2 = dec1 & (u[1] < 0.5 if decoded == "random" else decoded == "both")
        n, mean, m2 = _count_stats((r1, r2), (dec1, dec2))
        want_n, want_mean, want_m2 = _chunk_stats(r1 * dec1 + r2 * dec2)
        assert n == want_n == size
        assert mean == pytest.approx(want_mean, rel=1e-15, abs=0.0)
        assert m2 == pytest.approx(want_m2, rel=1e-13, abs=1e-13 * size * mean ** 2)
        if decoded != "random":  # one credit level: its value, and no spread
            assert (mean, m2) == ({"none": 0.0, "layer-1": r1, "both": r1 + r2}[decoded], 0.0)


def test_conditional_probability_rejects_empty_runs():
    ctx = BoundContext.from_config(ALLOC, CFG)
    for blocks in (0, -5):
        with pytest.raises(ValueError, match="blocks"):
            conditional_layer_probability(0.5, 1, ctx, blocks=blocks, seed=1)


@pytest.mark.parametrize("v_s", [float("nan"), -0.01, -1.0, float("inf"), -float("inf")])
def test_conditional_probability_rejects_a_fading_outside_its_domain(v_s):
    # NaN and -0.01 returned 0.0; -1 and inf raised RuntimeWarnings
    ctx = BoundContext.from_config(ALLOC, CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for layer in (1, 2):
            with pytest.raises(ValueError, match="v_s"):
                conditional_layer_probability(v_s, layer, ctx, blocks=10, seed=1)


def test_conditional_probability_at_x_0_decides_on_the_lines():
    # a relay that listens for no time (x = 0) puts the conditional oracle on
    # the MISO decode lines; it counts the blocks whose log-domain
    # information meets each rate at nu_s = v_s
    alloc = TwoLayerAllocation(alpha=0.55, eta1=0.5, eta2=1.6, beta=0.7)
    cfg = PowerConfig(p_s=6.0, p_r=4.0, q=25.0)
    ctx = BoundContext(alloc, cfg, 0.0, *layer_rates(alloc, cfg.p_s))
    nu_r = -np.log1p(-np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence([5, 0]))).random((1000, 2))[:, 0])
    for v in (0.1, 0.4, 0.9, 1.5):
        i1, i2 = _reference_information(np.full(1000, v), nu_r, alloc, cfg, 0.0, 0.0)
        for layer, want in ((1, i1 >= ctx.r1), (2, i2 >= ctx.r2)):
            est = conditional_layer_probability(v, layer, ctx, blocks=1000, seed=5)
            assert est.mean == np.count_nonzero(want) / 1000


def test_simulation_logs_its_throughput_without_touching_outputs(tmp_path, caplog):
    argv = ["figure", "fig9", "--ps-db", "0", "--q-db", "0,10", "--blocks", "3000"]
    assert main(argv + ["--out", str(tmp_path / "quiet")]) == 0
    caplog.set_level(logging.DEBUG, logger="relaycast.montecarlo")
    assert main(argv + ["--out", str(tmp_path / "logged")]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "relaycast.montecarlo"]
    assert len(lines) == 4  # two Q points x two strategies
    for line in lines:
        match = re.search(r" domain=(uniform|line|log) blocks=3000 .* rng_s=(\S+) "
                          r"decision_s=(\S+) wall=(\S+)s blocks/s=(\S+)$", line)
        assert match, line
        rng_s, decision_s, wall, rate = map(float, match.groups()[1:])
        assert rng_s > 0.0 and decision_s > 0.0 and rate > 0.0
        assert rng_s + decision_s <= wall  # one worker: the chunks run inside the call
    for name in ("fig9.csv", "fig9.csv.manifest.json"):
        assert (tmp_path / "quiet" / name).read_bytes() == \
            (tmp_path / "logged" / name).read_bytes()


@pytest.mark.parametrize("case, domain", [
    ("direct", "uniform"), ("simplex-eps2-1", "uniform"), ("sdf-eps-1", "uniform"),
    ("miso-equal", "line"), ("miso-unequal", "line"), ("miso-unequal-silent-relay", "line"),
    ("simplex-eps2-below-1", "log"), ("full-duplex-three-phases", "log"),
    ("full-duplex-eps2-1", "log"), ("sdf-eps-below-1", "log"),
    ("continuous-relay", "table"),
])
def test_simulation_logs_its_decision_domain(case, domain, caplog):
    # the relay never helps: uniforms; MISO: decode lines; phase-mixed: logs
    strategy, params, cfg = PIN_CASES[case]
    caplog.set_level(logging.DEBUG, logger="relaycast.montecarlo")
    simulate_strategy(SimConfig(blocks=100, seed=1, strategy=strategy, params=params), cfg)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "relaycast.montecarlo"]
    assert line.startswith(f"simulate_strategy {strategy} domain={domain} "), line


@pytest.mark.parametrize("strategy", ["miso-equal", "simplex-equal"])
def test_equal_strategies_reject_a_split_beta(strategy):
    split = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.4, beta=0.4)
    with pytest.raises(ValueError, match="requires beta == alpha"):
        SimConfig(blocks=10, seed=1, strategy=strategy, params=split)


def test_workers_below_one_raise():
    config = SimConfig(blocks=10, seed=1, strategy="direct", params=ALLOC)
    with pytest.raises(ValueError, match="workers"):
        simulate_strategy(config, CFG, workers=0)


@pytest.mark.parametrize("strategy, params", [("single-layer-SDF", 1.0), ("direct", ALLOC),
                                              ("miso-unequal", _ALLOC_UNEQUAL)])
def test_a_silent_source_credits_nothing(strategy, params):
    # P_s = 0: the SDF's uniform threshold is +inf (no division by zero), and
    # both layer rates are 0, so every block decodes a rate of 0
    est = simulate_strategy(SimConfig(blocks=1000, seed=1, strategy=strategy, params=params),
                            PowerConfig(p_s=0.0, p_r=8.0, q=30.0))
    assert (est.mean, est.stderr) == (0.0, 0.0)
