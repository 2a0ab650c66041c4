"""Ground-truth Monte-Carlo simulation of the layered relay strategies.

Per fading block the mutual-information decoding conditions are applied
directly (no closed forms), so estimates from this module arbitrate every
analytic expression in the package.  It is also the only evaluator of the
full-duplex relay, whose layer-1 condition has no closed form.  A
SimConfig's ``params`` is the rate of ``single-layer-SDF``, the
TwoLayerAllocation of a two-layer strategy, or the mode ("siso", "relay"
or "miso") of broadcast.continuous_layering for ``layered-continuous``, which
credits a block R(s) of broadcast.cumulative_rate's table at its fading s.

Reproducibility: fading is drawn from PCG64DXSM, seeded per 65536-block
chunk by SeedSequence([seed mod 2^64, chunk_index]) (``RNG_ID``), in one
layout for every simulation, blocks x 2 uniforms, with exponentials via
the inverse CDF -log(1 - u).  Each chunk is keyed on its
own, so the stream depends only on (seed, block index), never on how many
workers process the chunks, and runs with the same seed share fading across
strategies (common random numbers).

Cost: each worker thread writes every step of its chunks into one reused
workspace, maps only the fading columns its strategy reads and evaluates
only the decoding phases of nonzero length; a two-layer or SDF chunk then
reduces to two decision counts.  On a 2-core Xeon (numpy 2.4) a 65536-block
chunk takes about 0.50 ms of PCG64DXSM draws and inverse-CDF mapping, the
floor, plus 0.27 ms (direct) to 1.5 ms (full-duplex with three phases) of
decisions and counts: 12 to 30 ns per block.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import broadcast
from .model import (PowerConfig, TwoLayerAllocation, _time_fraction, decoding_times,
                    layer_rates)

__all__ = [
    "CHUNK_BLOCKS",
    "RNG_ID",
    "SimConfig",
    "SimEstimate",
    "simulate_strategy",
    "conditional_layer_probability",
]

log = logging.getLogger(__name__)

CHUNK_BLOCKS = 1 << 16
RNG_ID = "pcg64dxsm/seedseq-chunk65536/inv-cdf/v2"
_MASK64 = (1 << 64) - 1

STRATEGIES = ("single-layer-SDF", "direct", "miso-equal", "miso-unequal",
              "simplex-equal", "simplex-unequal", "full-duplex",
              "layered-continuous")


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


class _Workspace:
    """Scratch arrays for the chunks of one thread, sized for
    min(CHUNK_BLOCKS, blocks) blocks.

    Every step of a chunk writes into these with ``out=``, so a simulation
    allocates its temporaries once instead of once per chunk.
    """

    def __init__(self, blocks: int):
        n = min(CHUNK_BLOCKS, blocks)
        self.draws = np.empty(2 * n)  # the chunk's uniforms, blocks x 2
        self.nu = np.empty(n)  # the first fading column when only it is read
        self.rows = np.empty((9, n))
        self.flags = np.empty((2, n), dtype=bool)


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    entropy = np.random.SeedSequence([seed & _MASK64, chunk_index & _MASK64])
    return np.random.Generator(np.random.PCG64DXSM(entropy))


def _fading_chunk(seed: int, chunk_index: int, ws: _Workspace, size: int,
                  read: int = 2) -> tuple[np.ndarray, ...]:
    """Exponential fading of one chunk, as a tuple of ``read`` 1-D columns.

    Draws the chunk's ``size`` x 2 uniforms into ``ws`` and maps the first
    ``read`` columns (both, or the first alone) through -log(1 - u).  The
    second column is drawn even when it is not read, so every block keeps
    its place in the stream.
    """
    u = ws.draws[:size * 2].reshape(size, 2)
    _chunk_generator(seed, chunk_index).random(out=u)
    if read == 2:
        src = out = ws.draws[:size * 2]
    else:  # the first column alone, mapped into a contiguous buffer
        src, out = u[:, 0], ws.nu[:size]
    np.negative(src, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    return (out,) if read == 1 else (u[:, 0], u[:, 1])


def _scaled(x: np.ndarray, weight: float) -> np.ndarray:
    """weight * x in place; a weight of 1 is not multiplied (exact)."""
    if weight != 1.0:
        np.multiply(x, weight, out=x)
    return x


def _sum(terms: list[np.ndarray]) -> np.ndarray:
    """terms[0] + terms[1] + ... from the left, into terms[0]."""
    total = terms[0]
    for term in terms[1:]:
        np.add(total, term, out=total)
    return total


def _relay_phase(out, den, s, a, el, c, ab_s, bb_el, weight: float) -> np.ndarray:
    """weight * log1p((a s + c el) / (1 + ab s + bb el)) into ``out``, with
    ``den`` as scratch; bb_el = None drops that term."""
    np.multiply(s, a, out=out)
    np.add(out, np.multiply(el, c, out=den), out=out)
    np.add(ab_s, 1.0, out=den)
    if bb_el is not None:
        np.add(den, bb_el, out=den)
    np.divide(out, den, out=out)
    return _scaled(np.log1p(out, out=out), weight)


def _two_layer_credit(nu_s, nu_r, alloc: TwoLayerAllocation, cfg: PowerConfig,
                      eps1: float, eps2: float, r1: float, r2: float,
                      ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per-block decisions (dec1, dec2) under successive decoding of two
    layers: dec1 decodes layer 1, dec2 both layers (so dec2 implies dec1).

    Phase structure of the destination's mutual information: the relay is
    silent until eps1, sends layer 1 at full power on [eps1, eps2), and uses
    its split beta afterwards (eps1 <= eps2).  Simplex strategies pass
    eps1 == eps2.

    Only phases of nonzero weight (1 - eps2, eps2 - eps1 and eps1 for layer
    1; eps2 and 1 - eps2 for layer 2) are computed, and a weight of 1 is not
    multiplied.  Every term is finite and nonnegative, so 0 * x = +0 and
    x + 0 = x make both skips exact.  ``nu_r`` is read only when eps1 < 1.
    Writes into ``ws``; the decisions are views of ``ws.flags``.
    """
    size = nu_s.size
    s, ab_s, el, bb_el, late, mid, early, log_ab_s, tmp = (row[:size] for row in ws.rows)
    a, ab = alloc.alpha, alloc.alpha_bar
    b, bb = alloc.beta, alloc.beta_bar
    np.multiply(nu_s, cfg.p_s, out=s)
    np.multiply(s, ab, out=ab_s)
    if eps1 < 1.0:
        np.multiply(nu_r, cfg.p_r, out=el)
        np.multiply(el, bb, out=bb_el)
    if eps2 > 0.0:
        np.log1p(ab_s, out=log_ab_s)  # shared by layer 1 before eps1 and by layer 2

    # layer 1: the phases after eps2, on [eps1, eps2) and before eps1, summed
    # in that order
    terms = []
    if eps2 < 1.0:
        terms.append(_relay_phase(late, tmp, s, a, el, b, ab_s, bb_el, 1.0 - eps2))
    if eps2 > eps1:
        terms.append(_relay_phase(mid, tmp, s, a, el, 1.0, ab_s, None, eps2 - eps1))
    if eps1 > 0.0:
        np.subtract(np.log1p(s, out=early), log_ab_s, out=early)
        terms.append(_scaled(early, eps1))
    i1 = _sum(terms)

    # layer 2: eps2 log1p(ab s) + (1 - eps2) log1p(ab s + bb el)
    terms = [_scaled(log_ab_s, eps2)] if eps2 > 0.0 else []
    if eps2 < 1.0:
        np.log1p(np.add(ab_s, bb_el, out=tmp), out=tmp)
        terms.append(_scaled(tmp, 1.0 - eps2))
    i2 = _sum(terms)

    dec1, dec2 = ws.flags[0][:size], ws.flags[1][:size]
    np.greater_equal(i1, r1, out=dec1)
    np.logical_and(dec1, np.greater_equal(i2, r2, out=dec2), out=dec2)
    return dec1, dec2


def _sdf_credit(nu, cfg: PowerConfig, rate: float, eps: float, ws: _Workspace) -> np.ndarray:
    """Single-layer SDF decisions eps log1p(s) + (1 - eps) log1p(s + nu_r P_r)
    >= rate, the relay joining after eps; nu[1] is read only when eps < 1."""
    size = nu[0].size
    s, direct, relayed = (row[:size] for row in ws.rows[:3])
    np.multiply(nu[0], cfg.p_s, out=s)
    terms = [_scaled(np.log1p(s, out=direct), eps)]
    if eps < 1.0:
        np.add(s, np.multiply(nu[1], cfg.p_r, out=relayed), out=relayed)
        terms.append(_scaled(np.log1p(relayed, out=relayed), 1.0 - eps))
    return np.greater_equal(_sum(terms), rate, out=ws.flags[0][:size])


def _count_stats(rates, decisions):
    """(n, mean, M2) of blocks credited 0, r1, r1 + r2, ...: decisions[k]
    marks those that decode layer k + 1, of rate rates[k], and every layer
    below it.  Each credit level is weighted by its share of the blocks, so
    blocks that all earn one level give it as the mean and M2 = 0."""
    n = decisions[0].size
    decoded = [n, *map(np.count_nonzero, decisions), 0]
    levels = [(level, (hi - lo) / n) for level, hi, lo in
              zip(itertools.accumulate(rates, initial=0.0), decoded, decoded[1:])]
    mean = math.fsum(level * share for level, share in levels)
    return n, mean, n * math.fsum(share * (level - mean) ** 2 for level, share in levels)


def _chunk_stats(values: np.ndarray):
    """(n, mean, M2) of ``values``, which it overwrites."""
    mean = float(values.mean())
    dev = np.subtract(values, mean, out=values)
    return values.size, mean, float(np.square(dev, out=dev).sum())


def _chunk_rate(config: SimConfig, cfg: PowerConfig, chunk_index: int,
                size: int, table, ws: _Workspace):
    """(n, mean, M2) of one chunk's credited rates, computed in ``ws``."""
    strategy = config.strategy
    if strategy == "single-layer-SDF":
        rate = float(config.params)
        eps = _time_fraction(rate, math.log1p(cfg.p_s * cfg.q))  # rate 0 credits 0 anyway
        nu = _fading_chunk(config.seed, chunk_index, ws, size, read=1 if eps == 1.0 else 2)
        return _count_stats((rate,), (_sdf_credit(nu, cfg, rate, eps, ws),))

    if strategy == "layered-continuous":
        grid, cum, a = table
        nu = _fading_chunk(config.seed, chunk_index, ws, size, read=1 if a == 0.0 else 2)
        s = nu[0]  # a = 0 makes s = nu_s + 0 * nu_r = nu_s exactly
        if a != 0.0:
            s = ws.rows[0][:size]
            np.add(nu[0], np.multiply(nu[1], a, out=s), out=s)
        return _chunk_stats(np.interp(s, grid, cum))

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
    nu = _fading_chunk(config.seed, chunk_index, ws, size, read=1 if eps1 == 1.0 else 2)
    nu_r = nu[1] if eps1 < 1.0 else None
    return _count_stats((r1, r2), _two_layer_credit(nu[0], nu_r, alloc, cfg,
                                                    eps1, eps2, r1, r2, ws))


def _continuous_table(mode: str, cfg: PowerConfig):
    """(u, R(u), a): broadcast.cumulative_rate of the mode's profile, s = nu_s + a nu_r."""
    density, _, a = broadcast.continuous_layering(cfg, mode)
    return (*broadcast.cumulative_rate(density), a)


def _merge(stats_a, stats_b):
    """Chan et al. pairwise merge of (n, mean, M2) accumulators."""
    n_a, mean_a, m2_a = stats_a
    n_b, mean_b, m2_b = stats_b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _run_chunks(blocks: int, chunk_stats, workers: int = 1):
    """(n, mean, M2) of the per-block values of every chunk of ``blocks``.

    ``chunk_stats(i, size, ws)`` returns the (n, mean, M2) of chunk ``i``,
    computed in the workspace ``ws``.  The chunks are split into ``workers``
    contiguous ranges, each run on its own thread with its own workspace
    (one worker runs on the calling thread), and the chunks' statistics are
    then merged in chunk order, so the result is the same bits at every
    worker count.
    """
    n_chunks = (blocks + CHUNK_BLOCKS - 1) // CHUNK_BLOCKS

    def run_range(lo: int, hi: int):
        ws = _Workspace(blocks)
        return [chunk_stats(i, min(CHUNK_BLOCKS, blocks - i * CHUNK_BLOCKS), ws)
                for i in range(lo, hi)]

    workers = min(workers, n_chunks)
    bounds = [round(w * n_chunks / workers) for w in range(workers + 1)]
    if workers == 1:
        parts = map(run_range, bounds[:-1], bounds[1:])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_range, bounds[:-1], bounds[1:]))
    return functools.reduce(_merge, itertools.chain.from_iterable(parts))


def _stderr(n: int, m2: float) -> float:
    return math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0


def simulate_strategy(config: SimConfig, cfg: PowerConfig, workers: int = 1) -> SimEstimate:
    """Estimate the average throughput of a strategy by direct simulation.

    The block stream is split into fixed chunks processed by ``workers``
    threads (at least 1), and the chunks' statistics are merged in chunk
    order, so the estimate is a pure function of (config, cfg): the worker
    count changes no bit of it.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.perf_counter()
    table = _continuous_table(config.params, cfg) \
        if config.strategy == "layered-continuous" else None
    n, mean, m2 = _run_chunks(
        config.blocks,
        lambda i, size, ws: _chunk_rate(config, cfg, i, size, table, ws),
        workers)
    stderr = _stderr(n, m2)
    wall = time.perf_counter() - start
    log.debug("simulate_strategy %s blocks=%d seed=%d rng=%s mean=%.6g stderr=%.3g "
              "wall=%.3gs blocks/s=%.3g", config.strategy, n, config.seed, RNG_ID,
              mean, stderr, wall, n / wall if wall > 0.0 else math.inf)
    return SimEstimate(mean=mean, stderr=stderr, blocks=n, seed=config.seed)


def conditional_layer_probability(v_s: float, layer: int, ctx, blocks: int,
                                  seed: int) -> SimEstimate:
    """Empirical P(layer decodable | nu_s = v_s) under the simplex conditions.

    Runs the strategies' decision kernel (_two_layer_credit, with the relay
    joining after ctx.x) at nu_s = v_s on every block, with nu_r read from
    the first fading column.  Layer 2 is checked against r1 = 0, which every
    block's nonnegative layer-1 information meets, so its decision is the
    post-cancellation condition alone.  The comparand for the analytic
    bounds is exp(-threshold(v_s)).
    """
    if layer not in (1, 2):
        raise ValueError("layer must be 1 or 2")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    r1 = ctx.r1 if layer == 1 else 0.0

    def chunk_stats(i: int, size: int, ws: _Workspace):
        nu_r = _fading_chunk(seed, i, ws, size, read=1)[0]
        decisions = _two_layer_credit(np.full(size, v_s), nu_r, ctx.alloc, ctx.cfg,
                                      ctx.x, ctx.x, r1, ctx.r2, ws)
        return _count_stats((1.0,), (decisions[layer - 1],))

    n, mean, m2 = _run_chunks(blocks, chunk_stats)
    return SimEstimate(mean=mean, stderr=_stderr(n, m2), blocks=n, seed=seed)
