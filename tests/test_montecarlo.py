import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaycast import PowerConfig, TwoLayerAllocation, layer_rates
from relaycast.bounds import BoundContext
from relaycast.cli import main
from relaycast.montecarlo import (CHUNK_BLOCKS, ContinuousLayering, SimConfig,
                                  SimEstimate, _chunk_rate, _continuous_table,
                                  _two_layer_credit, conditional_layer_probability,
                                  simulate_strategy)
from relaycast.twolayer import direct_multilayer_throughput

ALLOC = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.4)
CFG = PowerConfig(p_s=10.0, p_r=8.0, q=30.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(blocks=0, seed=1, strategy="direct", params=ALLOC)
    with pytest.raises(ValueError):
        SimConfig(blocks=10, seed=1, strategy="warp-drive", params=ALLOC)


def test_bitwise_determinism():
    config = SimConfig(blocks=150_000, seed=123, strategy="simplex-equal", params=ALLOC)
    a = simulate_strategy(config, CFG)
    b = simulate_strategy(config, CFG)
    assert a == b
    c = simulate_strategy(SimConfig(blocks=150_000, seed=124,
                                    strategy="simplex-equal", params=ALLOC), CFG)
    assert c.mean != a.mean


def test_worker_split_preserves_samples():
    config = SimConfig(blocks=5 * CHUNK_BLOCKS + 17, seed=9,
                       strategy="miso-equal", params=ALLOC)
    single = simulate_strategy(config, CFG, workers=1)
    for workers in (2, 3, 4):
        split = simulate_strategy(config, CFG, workers=workers)
        assert split.blocks == single.blocks
        assert abs(split.mean - single.mean) <= 1e-12 * abs(single.mean)


def test_credited_rates_are_quantized():
    r1, r2 = layer_rates(ALLOC, CFG.p_s)
    config = SimConfig(blocks=5000, seed=2, strategy="simplex-equal", params=ALLOC)
    rates = _chunk_rate(config, CFG, 0, 5000, None)
    levels = {0.0, r1, r1 + r2}
    assert set(np.round(np.unique(rates), 12)) <= set(np.round(sorted(levels), 12))


def test_direct_strategy_against_closed_form():
    res = direct_multilayer_throughput((ALLOC.eta1, ALLOC.eta2),
                                       (ALLOC.alpha, ALLOC.alpha_bar), CFG.p_s)
    est = simulate_strategy(SimConfig(blocks=1_000_000, seed=77,
                                      strategy="direct", params=ALLOC), CFG)
    assert abs(res.r_av - est.mean) < 3 * est.stderr


def test_full_duplex_dominates_simplex_per_block():
    # the middle phase only adds relay power on layer 1, so with common
    # randomness the credited rate can never drop
    cfg = PowerConfig(p_s=1.0, p_r=1.0, q=1.0)  # low gain: eps1 < eps2
    base = SimConfig(blocks=CHUNK_BLOCKS, seed=4, strategy="simplex-equal", params=ALLOC)
    fd = SimConfig(blocks=CHUNK_BLOCKS, seed=4, strategy="full-duplex", params=ALLOC)
    rates_sx = _chunk_rate(base, cfg, 0, CHUNK_BLOCKS, None)
    rates_fd = _chunk_rate(fd, cfg, 0, CHUNK_BLOCKS, None)
    assert np.all(rates_fd >= rates_sx)
    assert rates_fd.mean() > rates_sx.mean()


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
                                          strategy="layered-continuous",
                                          params=ContinuousLayering(mode=mode)), cfg)
        assert est.mean > 0.0 and est.stderr > 0.0


def test_continuous_table_of_a_vanishing_relay_is_the_siso_table():
    # P_r/P_s below 1e-12 falls back to SISO, as the closed-form bound does
    siso = _continuous_table(ContinuousLayering(mode="siso"),
                             PowerConfig(p_s=10.0, p_r=0.0, q=1.0))
    assert siso[2] == 0.0
    for mode in ("relay", "miso"):
        grid, cum, a = _continuous_table(ContinuousLayering(mode=mode),
                                         PowerConfig(p_s=10.0, p_r=1e-12, q=1.0))
        assert a == 0.0
        assert np.array_equal(grid, siso[0]) and np.array_equal(cum, siso[1])


def test_estimate_metadata():
    est = simulate_strategy(SimConfig(blocks=1000, seed=11, strategy="direct",
                                      params=ALLOC), CFG)
    assert isinstance(est, SimEstimate)
    assert est.blocks == 1000 and est.seed == 11
    assert "philox" in est.rng


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
    "continuous-relay": ("layered-continuous", ContinuousLayering("relay"), _CONTINUOUS),
    "continuous-miso": ("layered-continuous", ContinuousLayering("miso"), _CONTINUOUS),
    "continuous-siso": ("layered-continuous", ContinuousLayering("siso"), _CONTINUOUS),
    "simplex-unequal-silent-relay": ("simplex-unequal", _ALLOC_UNEQUAL, _SILENT),
    "miso-unequal-silent-relay": ("miso-unequal", _ALLOC_UNEQUAL, _SILENT),
}
PINNED = {
    "direct": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.cfc2dde543830p-1", "0x1.df7d56bc2c5d0p-9"),
    ),
    "miso-equal": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.053be460892abp+1", "0x1.99d6254cc779fp-3"),
        ("0x1.959cf5800f30bp+0", "0x1.f4d89cf3b33d9p-9"),
    ),
    "miso-unequal": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.7c61f631587cdp+0", "0x1.e240d8f2429b9p-3"),
        ("0x1.5220160191d73p+0", "0x1.de7f8d4ec3469p-9"),
    ),
    "simplex-eps2-below-1": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.318b0a010ea0bp+0", "0x1.f1777f49bd961p-3"),
        ("0x1.101d1feb2e33fp+0", "0x1.f2480b6680481p-9"),
    ),
    "simplex-eps2-1": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.cfc2dde543830p-1", "0x1.df7d56bc2c5d0p-9"),
    ),
    "full-duplex-three-phases": (
        ("0x1.51f7b55cce4f7p+0", "0x0.0p+0"),
        ("0x1.5344fe36c8c48p-1", "0x1.f78d59059b9a5p-4"),
        ("0x1.4a6e74715cb40p-1", "0x1.ecf7b07321943p-10"),
    ),
    "full-duplex-eps2-1": (
        ("0x1.2ffc405b7ebbap-1", "0x0.0p+0"),
        ("0x1.1e8a95352a6afp-2", "0x1.9ef6aa76137cdp-5"),
        ("0x1.034e928000ff2p-2", "0x1.92e7f1a47d2b7p-11"),
    ),
    "sdf-eps-below-1": (
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.f4e0bd1371b57p-1", "0x1.2a83eaf73c410p-11"),
    ),
    "sdf-eps-1": (
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.c3c3c3c3c3c3cp-1", "0x1.49ec1b6ca053bp-4"),
        ("0x1.ae4f6cb9c7a9cp-1", "0x1.76ee64c1d9d81p-10"),
    ),
    "continuous-relay": (
        ("0x1.e312dcc740d60p+0", "0x0.0p+0"),
        ("0x1.a782eaacc5de0p+0", "0x1.ff418b512c176p-4"),
        ("0x1.8fbb7e27286a7p+0", "0x1.21ef1b9e782e9p-9"),
    ),
    "continuous-miso": (
        ("0x1.1381be7b8d263p+1", "0x0.0p+0"),
        ("0x1.c32bd18733e09p+0", "0x1.5d16a2ba0341cp-3"),
        ("0x1.9c7535f26558bp+0", "0x1.89d9179f76397p-9"),
    ),
    "continuous-siso": (
        ("0x1.e312dcc740d60p+0", "0x0.0p+0"),
        ("0x1.2bd76d0e45694p+0", "0x1.894670152372ep-3"),
        ("0x1.2111570a75f3dp+0", "0x1.95e427b8db88bp-9"),
    ),
    "simplex-unequal-silent-relay": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.cfc2dde543830p-1", "0x1.df7d56bc2c5d0p-9"),
    ),
    "miso-unequal-silent-relay": (
        ("0x1.3e116bcd39e7cp+1", "0x0.0p+0"),
        ("0x1.031ee1871d230p+0", "0x1.f5986f901c79cp-3"),
        ("0x1.cfc2dde543830p-1", "0x1.df7d56bc2c5d0p-9"),
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


@pytest.mark.parametrize("case, workers, pinned", [
    ("full-duplex-three-phases", 1, ("0x1.4b4faa513187cp-1", "0x1.eccefcd1af843p-11")),
    ("full-duplex-three-phases", 2, ("0x1.4b4faa513187bp-1", "0x1.eccefcd1af843p-11")),
    ("continuous-relay", 1, ("0x1.9029cebae0b8fp+0", "0x1.20cc9436d7969p-10")),
    ("continuous-relay", 2, ("0x1.9029cebae0b8fp+0", "0x1.20cc9436d796ap-10")),
])
def test_two_thread_merge_is_pinned(case, workers, pinned):
    # five chunks: two threads merge (0-1) with (2-4), one thread merges in
    # sequence, so the last bits differ and both orders are pinned
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


def _reference_credit(i1, i2, r1, r2):
    dec1 = i1 >= r1
    dec2 = dec1 & (i2 >= r2)
    return r1 * dec1 + r2 * dec2


_unit = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(alpha=_unit, beta=_unit, eta1=st.floats(0.0, 5.0),
       eta_gap=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       ps_db=st.floats(-20.0, 80.0),
       pr_db=st.one_of(st.none(), st.floats(-20.0, 80.0)),
       eps=st.lists(_unit, min_size=2, max_size=2),
       size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       rates=st.sampled_from(("layer", "tie", "ulp-above")))
def test_credit_kernel_matches_the_reference_formula(alpha, beta, eta1, eta_gap, ps_db,
                                                    pr_db, eps, size, seed, rates):
    alloc = TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta1 + eta_gap, beta=beta)
    cfg = PowerConfig(p_s=10.0 ** (ps_db / 10.0),
                      p_r=0.0 if pr_db is None else 10.0 ** (pr_db / 10.0), q=1.0)
    eps1, eps2 = sorted(eps)
    u = np.random.default_rng(seed).random((size, 2))
    u[0] = 0.0  # zero fading on both links
    nu = -np.log1p(-u)
    i1, i2 = _reference_information(nu[:, 0], nu[:, 1], alloc, cfg, eps1, eps2)
    if rates == "layer":
        r1, r2 = layer_rates(alloc, cfg.p_s)
    else:
        # thresholds on (or one ulp above) the last block's information, so
        # that an ulp of difference in either kernel flips a decision
        r1, r2 = float(i1[-1]), float(i2[-1])
        if rates == "ulp-above":
            r1, r2 = np.nextafter(r1, np.inf), np.nextafter(r2, np.inf)
    want = _reference_credit(i1, i2, r1, r2)
    got = _two_layer_credit(nu[:, 0], nu[:, 1] if eps1 < 1.0 else None,
                            alloc, cfg, eps1, eps2, r1, r2)
    assert np.array_equal(got, want)


def test_chunk_rate_without_a_workspace_returns_fresh_arrays():
    config = SimConfig(blocks=5000, seed=2, strategy="full-duplex", params=ALLOC)
    a = _chunk_rate(config, CFG, 0, 5000, None)
    b = _chunk_rate(config, CFG, 0, 5000, None)
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, b)


def test_conditional_probability_rejects_empty_runs():
    ctx = BoundContext.from_config(ALLOC, CFG)
    for blocks in (0, -5):
        with pytest.raises(ValueError, match="blocks"):
            conditional_layer_probability(0.5, 1, ctx, blocks=blocks, seed=1)


def test_simulation_logs_its_throughput_without_touching_outputs(tmp_path, caplog):
    argv = ["figure", "fig9", "--ps-db", "0", "--q-db", "0,10", "--blocks", "3000"]
    assert main(argv + ["--out", str(tmp_path / "quiet")]) == 0
    caplog.set_level(logging.DEBUG, logger="relaycast.montecarlo")
    assert main(argv + ["--out", str(tmp_path / "logged")]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "relaycast.montecarlo"]
    assert len(lines) == 4  # two Q points x two strategies
    for line in lines:
        match = re.search(r"blocks=3000 .* wall=(\S+)s blocks/s=(\S+)$", line)
        assert match, line
        assert float(match[1]) > 0.0 and float(match[2]) > 0.0
    for name in ("fig9.csv", "fig9.csv.manifest.json"):
        assert (tmp_path / "quiet" / name).read_bytes() == \
            (tmp_path / "logged" / name).read_bytes()


@pytest.mark.parametrize("strategy", ["miso-equal", "simplex-equal"])
def test_equal_strategies_reject_a_split_beta(strategy):
    split = TwoLayerAllocation(alpha=0.6, eta1=0.3, eta2=1.4, beta=0.4)
    config = SimConfig(blocks=10, seed=1, strategy=strategy, params=split)
    with pytest.raises(ValueError, match="requires beta == alpha"):
        simulate_strategy(config, CFG)


def test_workers_below_one_raise():
    config = SimConfig(blocks=10, seed=1, strategy="direct", params=ALLOC)
    with pytest.raises(ValueError, match="workers"):
        simulate_strategy(config, CFG, workers=0)
