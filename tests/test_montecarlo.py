import numpy as np
import pytest

from relaycast import PowerConfig, TwoLayerAllocation, layer_rates
from relaycast.montecarlo import (CHUNK_BLOCKS, ContinuousLayering, SimConfig,
                                  SimEstimate, _chunk_rate, _continuous_table,
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
