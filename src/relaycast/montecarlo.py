"""Ground-truth Monte-Carlo simulation of the layered relay strategies.

Per fading block the mutual-information decoding conditions are applied
directly (no closed forms), so estimates from this module arbitrate every
analytic expression in the package.  It is also the only evaluator of the
full-duplex relay, whose layer-1 condition has no closed form.

Reproducibility: fading is drawn from the counter-based Philox4x64 generator,
keyed per 65536-block chunk as (seed, chunk_index), with exponentials via the
inverse CDF -log(1 - u).  The stream therefore depends only on (seed, block
index), never on how many workers process the chunks, and runs with the same
seed share fading across strategies (common random numbers).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import broadcast
from .model import PowerConfig, TwoLayerAllocation, decoding_times, layer_rates

__all__ = [
    "CHUNK_BLOCKS",
    "RNG_ID",
    "SimConfig",
    "SimEstimate",
    "ContinuousLayering",
    "simulate_strategy",
    "conditional_layer_probability",
]

log = logging.getLogger(__name__)

CHUNK_BLOCKS = 1 << 16
RNG_ID = "philox4x64/chunk65536/inv-cdf/v1"
_MASK64 = (1 << 64) - 1
_CONTINUOUS_TABLE_POINTS = 4097  # the layered-continuous strategy's rate table

STRATEGIES = ("single-layer-SDF", "direct", "miso-equal", "miso-unequal",
              "simplex-equal", "simplex-unequal", "full-duplex",
              "layered-continuous")


@dataclass(frozen=True)
class ContinuousLayering:
    """Parameters of the layered-continuous strategy (see relaycast.broadcast)."""

    mode: str = "relay"  # relay | miso | siso


@dataclass(frozen=True)
class SimConfig:
    blocks: int
    seed: int
    strategy: str
    params: object

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    blocks: int
    seed: int
    rng: str = RNG_ID


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fading_chunk(seed: int, chunk_index: int, size: int, columns: int = 2) -> np.ndarray:
    u = _chunk_generator(seed, chunk_index).random((size, columns))
    return -np.log1p(-u)


def _two_layer_credit(nu_s, nu_r, alloc: TwoLayerAllocation, cfg: PowerConfig,
                      eps1: float, eps2: float, r1: float, r2: float):
    """Credited rate per block under successive decoding of two layers.

    Phase structure of the destination's mutual information: the relay is
    silent until eps1, sends layer 1 at full power on [eps1, eps2), and uses
    its split beta afterwards.  Simplex strategies pass eps1 == eps2.
    """
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
    dec1 = i1 >= r1
    dec2 = dec1 & (i2 >= r2)
    return r1 * dec1 + r2 * dec2


def _chunk_rate(config: SimConfig, cfg: PowerConfig, chunk_index: int,
                size: int, table) -> np.ndarray:
    strategy = config.strategy
    if strategy == "single-layer-SDF":
        rate = float(config.params)
        nu = _fading_chunk(config.seed, chunk_index, size)
        cap = math.log1p(cfg.p_s * cfg.q)
        eps = min(1.0, rate / cap) if cap > 0.0 and rate > 0.0 else 1.0
        info = np.log1p(nu[:, 0] * cfg.p_s)
        if eps < 1.0:
            info = eps * info + (1.0 - eps) * np.log1p(nu[:, 0] * cfg.p_s + nu[:, 1] * cfg.p_r)
        return rate * (info >= rate)

    if strategy == "layered-continuous":
        nu = _fading_chunk(config.seed, chunk_index, size)
        grid, cum, a = table
        s = nu[:, 0] + a * nu[:, 1]
        return np.interp(s, grid, cum)

    alloc: TwoLayerAllocation = config.params
    if strategy.endswith("-equal") and alloc.beta != alloc.alpha:
        raise ValueError(f"{strategy} requires beta == alpha")
    r1, r2 = layer_rates(alloc, cfg.p_s)
    if strategy == "direct":
        eps1 = eps2 = 1.0
    elif strategy in ("miso-equal", "miso-unequal"):
        eps1 = eps2 = 0.0
    else:
        times = decoding_times(alloc, cfg)
        if strategy == "full-duplex":
            eps1, eps2 = times.eps1, times.eps2
        else:  # simplex: the relay stays silent until it has both layers
            eps1 = eps2 = times.eps2
    nu = _fading_chunk(config.seed, chunk_index, size)
    return _two_layer_credit(nu[:, 0], nu[:, 1], alloc, cfg, eps1, eps2, r1, r2)


def _continuous_table(params: ContinuousLayering, cfg: PowerConfig):
    """Cumulative assigned rate versus combined fading level, for interpolation."""
    density, _, a = broadcast.continuous_layering(cfg, params.mode)
    return (*broadcast.cumulative_rate(density, _CONTINUOUS_TABLE_POINTS), a)


def _merge(stats_a, stats_b):
    """Chan et al. pairwise merge of (n, mean, M2) accumulators."""
    n_a, mean_a, m2_a = stats_a
    n_b, mean_b, m2_b = stats_b
    if n_b == 0:
        return stats_a
    if n_a == 0:
        return stats_b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * n_b / n
    m2 = m2_a + m2_b + delta * delta * n_a * n_b / n
    return n, mean, m2


def _chunk_stats(values: np.ndarray):
    n = values.size
    mean = float(values.mean())
    m2 = float(((values - mean) ** 2).sum())
    return n, mean, m2


def simulate_strategy(config: SimConfig, cfg: PowerConfig, workers: int = 1) -> SimEstimate:
    """Estimate the average throughput of a strategy by direct simulation.

    The block stream is split into fixed chunks processed by ``workers``
    accumulators whose partial statistics are merged in worker order, so the
    estimate is a pure function of (config, cfg) up to the float-associativity
    of that merge.
    """
    table = _continuous_table(config.params, cfg) \
        if config.strategy == "layered-continuous" else None
    n_chunks = (config.blocks + CHUNK_BLOCKS - 1) // CHUNK_BLOCKS
    sizes = [min(CHUNK_BLOCKS, config.blocks - i * CHUNK_BLOCKS) for i in range(n_chunks)]

    def run_range(lo: int, hi: int):
        acc = (0, 0.0, 0.0)
        for i in range(lo, hi):
            acc = _merge(acc, _chunk_stats(_chunk_rate(config, cfg, i, sizes[i], table)))
        return acc

    workers = max(1, min(workers, n_chunks))
    if workers == 1:
        total = run_range(0, n_chunks)
    else:
        bounds = [round(w * n_chunks / workers) for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_range, bounds[:-1], bounds[1:]))
        total = (0, 0.0, 0.0)
        for part in parts:
            total = _merge(total, part)

    n, mean, m2 = total
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    log.debug("simulate_strategy %s blocks=%d seed=%d rng=%s mean=%.6g stderr=%.3g",
              config.strategy, n, config.seed, RNG_ID, mean, stderr)
    return SimEstimate(mean=mean, stderr=stderr, blocks=n, seed=config.seed)


def conditional_layer_probability(v_s: float, layer: int, ctx, blocks: int,
                                  seed: int) -> SimEstimate:
    """Empirical P(layer decodable | nu_s = v_s) under the simplex conditions.

    Samples nu_r only; layer 1 checks the two-phase layer-1 information
    against r1, layer 2 checks the post-cancellation information against r2.
    The comparand for the analytic bounds is exp(-threshold(v_s)).
    """
    if layer not in (1, 2):
        raise ValueError("layer must be 1 or 2")
    alloc, cfg, x = ctx.alloc, ctx.cfg, ctx.x
    s = v_s * cfg.p_s
    a, ab = alloc.alpha, alloc.alpha_bar
    b, bb = alloc.beta, alloc.beta_bar
    n_chunks = (blocks + CHUNK_BLOCKS - 1) // CHUNK_BLOCKS
    acc = (0, 0.0, 0.0)
    done = 0
    for i in range(n_chunks):
        size = min(CHUNK_BLOCKS, blocks - done)
        done += size
        el = _fading_chunk(seed, i, size, columns=1)[:, 0] * cfg.p_r
        if layer == 1:
            info = x * (math.log1p(s) - math.log1p(ab * s)) \
                + (1.0 - x) * np.log1p((a * s + b * el) / (1.0 + ab * s + bb * el))
            hit = info >= ctx.r1
        else:
            info = x * math.log1p(ab * s) + (1.0 - x) * np.log1p(ab * s + bb * el)
            hit = info >= ctx.r2
        acc = _merge(acc, _chunk_stats(hit.astype(float)))
    n, mean, m2 = acc
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return SimEstimate(mean=mean, stderr=stderr, blocks=n, seed=seed)
