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

Decision domains: a chunk decides in the cheapest domain whose decisions
equal the log-domain ones up to a rounding tie (docs/conformance.md):
``uniform`` when the relay never helps (eps1 = 1: direct, SDF at eps = 1,
a simplex or full-duplex relay that never decodes), where layer i decodes
iff u_s reaches the least uniform whose fading reaches eta_i (about
1 - e^-eta_i), with no inverse-CDF map; ``line`` for MISO
(eps2 = 0), whose layers decode above straight lines in (nu_s, nu_r); and
``log``, the phases' summed mutual information, for the phase-mixed rest.
The map returns log1p(-u) = -nu, and every consumer scales it by -P, which
is exact: IEEE multiplication is sign-symmetric.

Cost: each worker thread writes every step of its chunks into one reused
workspace, maps only the fading columns its domain reads and evaluates
only the decoding phases of nonzero length; a two-layer or SDF chunk then
reduces to two decision counts.  On a 2-core Xeon (numpy 2.4) a 65536-block
chunk takes about 0.32 ms of PCG64DXSM draws, the floor, plus 0.25 ms to
map both columns where its domain reads nu, plus 0.06 ms (uniform), 0.26 ms
(line) or 1.1 to 1.7 ms (log) of decisions and counts: 6, 13 and 26 to
35 ns per block.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import numbers
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
        params = self.params
        if self.strategy == "single-layer-SDF":
            if isinstance(params, bool) or not isinstance(params, numbers.Real) \
                    or not (math.isfinite(params) and params >= 0.0):
                raise ValueError(f"single-layer-SDF needs a finite rate >= 0, got {params!r}")
            object.__setattr__(self, "params", float(params))
        elif self.strategy == "layered-continuous":
            if not (isinstance(params, str) and params in ("siso", "relay", "miso")):
                raise ValueError("layered-continuous needs the mode 'siso', 'relay' or "
                                 f"'miso', got {params!r}")
        elif not isinstance(params, TwoLayerAllocation):
            raise ValueError(f"{self.strategy} needs a TwoLayerAllocation, "
                             f"got {type(params).__name__}")
        elif self.strategy.endswith("-equal") and params.beta != params.alpha:
            raise ValueError(f"{self.strategy} requires beta == alpha")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    blocks: int
    seed: int
    rng: str = RNG_ID


class _Workspace:
    """Scratch arrays for the chunks of one thread, sized for
    min(CHUNK_BLOCKS, blocks) blocks, and the thread's seconds in
    _fading_chunk (``rng_s``).

    Every step of a chunk writes into these with ``out=``, so a simulation
    allocates its temporaries once instead of once per chunk.  The last two
    rows first hold the chunk's fading columns (``fading``); every kernel
    reads those before it writes these rows.
    """

    def __init__(self, blocks: int):
        n = min(CHUNK_BLOCKS, blocks)
        self.draws = np.empty(2 * n)  # the chunk's uniforms, blocks x 2
        self.rows = np.empty((9, n))
        self.fading = self.rows[7:]
        self.flags = np.empty((2, n), dtype=bool)
        self.rng_s = 0.0


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    entropy = np.random.SeedSequence([seed & _MASK64, chunk_index & _MASK64])
    return np.random.Generator(np.random.PCG64DXSM(entropy))


def _fading_chunk(seed: int, chunk_index: int, ws: _Workspace, size: int,
                  read: int = 2) -> tuple[np.ndarray, ...]:
    """Fading of one chunk, as a tuple of contiguous columns in ``ws.fading``.

    Draws the chunk's ``size`` x 2 uniforms into ``ws``.  ``read`` = 0
    returns the first column's uniforms u_s as drawn; 1 returns that column
    mapped through log1p(-u) = -nu; 2 returns both columns mapped.  The
    second column is drawn even when it is not read, so every block keeps
    its place in the stream.
    """
    start = time.perf_counter()
    u = ws.draws[:size * 2].reshape(size, 2)
    _chunk_generator(seed, chunk_index).random(out=u)
    out = tuple(col[:size] for col in ws.fading[:max(read, 1)])
    if read == 0:
        np.copyto(out[0], u[:, 0])
    else:
        for k, col in enumerate(out):
            np.log1p(np.negative(u[:, k], out=col), out=col)
    ws.rng_s += time.perf_counter() - start
    return out


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


def _threshold_decisions(x, thresholds, ws: _Workspace) -> tuple[np.ndarray, ...]:
    """Nested decisions x >= max(t_1, ..., t_k) for k = 1, 2, ...: layer k
    decodes with every layer below it.  Written into ``ws.flags``."""
    return tuple(np.greater_equal(x, t, out=flag[:x.size]) for t, flag in
                 zip(itertools.accumulate(thresholds, max), ws.flags))


def _uniform_thresholds(etas, rates) -> list[float]:
    """Per layer that decodes iff nu_s >= eta, the least uniform u_s whose
    fading -log1p(-u_s) reaches eta: -expm1(-eta), one ulp up where its own
    fading falls short (above u = 1/2 one ulp of u is many of nu).  A layer
    of rate 0 always decodes (threshold 0)."""
    thresholds = []
    for eta, rate in zip(etas, rates):
        t = 0.0 if rate == 0.0 else -math.expm1(-eta)
        if 0.0 < t < 1.0 and -math.log1p(-t) < eta:
            t = math.nextafter(t, 1.0)
        thresholds.append(t)
    return thresholds


def _line_decisions(m_s, m_r, lines, ws: _Workspace) -> tuple[np.ndarray, ...]:
    """Nested decisions k_s m_s + k_r m_r >= c, one line (k_s, k_r, c) per
    layer, each and-ed with the layers below.  Writes into ``ws``."""
    size = m_s.size
    value, tmp = (row[:size] for row in ws.rows[:2])
    decisions = []
    for (k_s, k_r, c), flag in zip(lines, ws.flags):
        np.add(np.multiply(m_s, k_s, out=value), np.multiply(m_r, k_r, out=tmp), out=value)
        dec = np.greater_equal(value, c, out=flag[:size])
        if decisions:
            np.logical_and(dec, decisions[-1], out=dec)
        decisions.append(dec)
    return tuple(decisions)


def _miso_lines(alloc: TwoLayerAllocation, cfg: PowerConfig, r1: float, r2: float):
    """The MISO decode lines in (m_s, m_r) = (-nu_s, -nu_r), as
    (k_s, k_r, c) per layer.  With c_i = expm1(r_i), layer 1 decodes iff
    (a - c1 ab) P_s nu_s + (b - c1 bb) P_r nu_r >= c1, and layer 2 iff
    ab P_s nu_s + bb P_r nu_r >= c2; a line of rate 0 has c = 0, which every
    block meets."""
    a, ab, b, bb = alloc.alpha, alloc.alpha_bar, alloc.beta, alloc.beta_bar
    c1, c2 = math.expm1(r1), math.expm1(r2)  # r_i <= log1p(eta_i P_s): no overflow
    return ((-(a - c1 * ab) * cfg.p_s, -(b - c1 * bb) * cfg.p_r, c1),
            (-ab * cfg.p_s, -bb * cfg.p_r, c2))


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


def _two_layer_credit(m_s, m_r, alloc: TwoLayerAllocation, cfg: PowerConfig,
                      eps1: float, eps2: float, r1: float, r2: float,
                      ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per-block decisions (dec1, dec2) under successive decoding of two
    layers, in the log domain: dec1 decodes layer 1, dec2 both layers (so
    dec2 implies dec1).  ``m_s``, ``m_r`` are the fading columns -nu_s,
    -nu_r.

    Phase structure of the destination's mutual information: the relay is
    silent until eps1, sends layer 1 at full power on [eps1, eps2), and uses
    its split beta afterwards (eps1 <= eps2).  Simplex strategies pass
    eps1 == eps2.  The phases mix here: eps1 < 1 and eps2 > 0 (eps1 = 1
    decides on thresholds, eps2 = 0 on lines).

    Only phases of nonzero weight (1 - eps2, eps2 - eps1 and eps1 for layer
    1; eps2 and 1 - eps2 for layer 2) are computed, and a weight of 1 is not
    multiplied.  Every term is finite and nonnegative, so 0 * x = +0 and
    x + 0 = x make both skips exact.  Writes into ``ws``; the decisions are
    views of ``ws.flags``.
    """
    size = m_s.size
    s, ab_s, el, bb_el, late, mid, early, log_ab_s, tmp = (row[:size] for row in ws.rows)
    a, ab = alloc.alpha, alloc.alpha_bar
    b, bb = alloc.beta, alloc.beta_bar
    # m_s and m_r may be the rows of log_ab_s and tmp: read them first
    np.multiply(m_s, -cfg.p_s, out=s)
    np.multiply(m_r, -cfg.p_r, out=el)
    np.multiply(s, ab, out=ab_s)
    np.multiply(el, bb, out=bb_el)
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
    terms = [_scaled(log_ab_s, eps2)]
    if eps2 < 1.0:
        np.log1p(np.add(ab_s, bb_el, out=tmp), out=tmp)
        terms.append(_scaled(tmp, 1.0 - eps2))
    i2 = _sum(terms)

    dec1, dec2 = ws.flags[0][:size], ws.flags[1][:size]
    np.greater_equal(i1, r1, out=dec1)
    np.logical_and(dec1, np.greater_equal(i2, r2, out=dec2), out=dec2)
    return dec1, dec2


def _two_layer_decisions(draw, alloc: TwoLayerAllocation, cfg: PowerConfig,
                         eps1: float, eps2: float, r1: float, r2: float, ws: _Workspace):
    """(dec1, dec2) of one chunk in its decision domain: on the uniform
    thresholds when the relay never helps (eps1 = 1), on the decode lines
    for MISO (eps2 = 0), in the log domain otherwise.  ``draw(read)``
    returns the chunk's fading columns as _fading_chunk(..., read) does."""
    if eps1 == 1.0:
        thresholds = _uniform_thresholds((alloc.eta1, alloc.eta2), (r1, r2))
        return _threshold_decisions(draw(0)[0], thresholds, ws)
    m_s, m_r = draw(2)
    if eps2 == 0.0:
        return _line_decisions(m_s, m_r, _miso_lines(alloc, cfg, r1, r2), ws)
    return _two_layer_credit(m_s, m_r, alloc, cfg, eps1, eps2, r1, r2, ws)


def _sdf_credit(m, cfg: PowerConfig, rate: float, eps: float, ws: _Workspace) -> np.ndarray:
    """Single-layer SDF decisions eps log1p(s) + (1 - eps) log1p(s + nu_r P_r)
    >= rate in the log domain, the relay joining after eps < 1; ``m`` holds
    the fading columns -nu_s, -nu_r."""
    size = m[0].size
    s, direct, relayed = (row[:size] for row in ws.rows[:3])
    np.multiply(m[0], -cfg.p_s, out=s)
    terms = [_scaled(np.log1p(s, out=direct), eps)]
    np.add(s, np.multiply(m[1], -cfg.p_r, out=relayed), out=relayed)
    terms.append(_scaled(np.log1p(relayed, out=relayed), 1.0 - eps))
    return np.greater_equal(_sum(terms), rate, out=ws.flags[0][:size])


def _sdf_decisions(draw, cfg: PowerConfig, rate: float, eps: float, ws: _Workspace):
    """(dec,) of one single-layer SDF chunk: at eps = 1 on the uniform
    threshold of nu_s >= expm1(rate)/P_s (+inf where expm1 overflows or
    P_s = 0), otherwise in the log domain."""
    if eps == 1.0:
        try:
            eta = math.expm1(rate) / cfg.p_s
        except (OverflowError, ZeroDivisionError):
            eta = math.inf
        return _threshold_decisions(draw(0)[0], _uniform_thresholds((eta,), (rate,)), ws)
    return (_sdf_credit(draw(2), cfg, rate, eps, ws),)


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


def _simulation(config: SimConfig, cfg: PowerConfig):
    """(domain, chunk_stats) of a simulation: the decision domain of its
    chunks, and chunk_stats(i, size, ws), the (n, mean, M2) of chunk i's
    credited rates, computed in ``ws``."""
    strategy, seed = config.strategy, config.seed

    def draw(i: int, size: int, ws: _Workspace):
        return functools.partial(_fading_chunk, seed, i, ws, size)

    if strategy == "layered-continuous":
        grid, cum, a = _continuous_table(config.params, cfg)

        def continuous(i: int, size: int, ws: _Workspace):
            s = ws.rows[0][:size]
            if a == 0.0:  # s = nu_s + 0 * nu_r = nu_s exactly
                np.negative(_fading_chunk(seed, i, ws, size, read=1)[0], out=s)
            else:  # nu_s + a nu_r as (-a)(-nu_r) - (-nu_s): the same bits
                m_s, m_r = _fading_chunk(seed, i, ws, size)
                np.subtract(np.multiply(m_r, -a, out=s), m_s, out=s)
            return _chunk_stats(np.interp(s, grid, cum))
        return "table", continuous

    if strategy == "single-layer-SDF":
        rate = config.params
        eps = _time_fraction(rate, math.log1p(cfg.p_s * cfg.q))  # rate 0 credits 0 anyway
        return "uniform" if eps == 1.0 else "log", lambda i, size, ws: _count_stats(
            (rate,), _sdf_decisions(draw(i, size, ws), cfg, rate, eps, ws))

    alloc: TwoLayerAllocation = config.params
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
    domain = "uniform" if eps1 == 1.0 else "line" if eps2 == 0.0 else "log"
    return domain, lambda i, size, ws: _count_stats(
        (r1, r2), _two_layer_decisions(draw(i, size, ws), alloc, cfg, eps1, eps2, r1, r2, ws))


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
    """((n, mean, M2), rng_s, busy_s) of the per-block values of every chunk
    of ``blocks``: the statistics, and the seconds in _fading_chunk and in
    the chunks in all, summed over the threads.

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
        start = time.perf_counter()
        stats = [chunk_stats(i, min(CHUNK_BLOCKS, blocks - i * CHUNK_BLOCKS), ws)
                 for i in range(lo, hi)]
        return stats, ws.rng_s, time.perf_counter() - start

    workers = min(workers, n_chunks)
    bounds = [round(w * n_chunks / workers) for w in range(workers + 1)]
    if workers == 1:
        parts = [run_range(0, n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_range, bounds[:-1], bounds[1:]))
    stats, rng_s, busy_s = zip(*parts)
    return functools.reduce(_merge, itertools.chain.from_iterable(stats)), sum(rng_s), sum(busy_s)


def _stderr(n: int, m2: float) -> float:
    return math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0


def simulate_strategy(config: SimConfig, cfg: PowerConfig, workers: int = 1) -> SimEstimate:
    """Estimate the average throughput of a strategy by direct simulation.

    The block stream is split into fixed chunks processed by ``workers``
    threads (at least 1), and the chunks' statistics are merged in chunk
    order, so the estimate is a pure function of (config, cfg): the worker
    count changes no bit of it.  The DEBUG line names the chunks' decision
    domain and splits the chunks' thread-seconds into RNG (draws and map)
    and decision (decisions and counts) time.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    start = time.perf_counter()
    domain, chunk_stats = _simulation(config, cfg)
    (n, mean, m2), rng_s, busy_s = _run_chunks(config.blocks, chunk_stats, workers)
    stderr = _stderr(n, m2)
    wall = time.perf_counter() - start
    log.debug("simulate_strategy %s domain=%s blocks=%d seed=%d rng=%s mean=%.6g "
              "stderr=%.3g rng_s=%.3g decision_s=%.3g wall=%.3gs blocks/s=%.3g",
              config.strategy, domain, n, config.seed, RNG_ID, mean, stderr, rng_s,
              busy_s - rng_s, wall, n / wall if wall > 0.0 else math.inf)
    return SimEstimate(mean=mean, stderr=stderr, blocks=n, seed=config.seed)


def conditional_layer_probability(v_s: float, layer: int, ctx, blocks: int,
                                  seed: int) -> SimEstimate:
    """Empirical P(layer decodable | nu_s = v_s) under the simplex conditions.

    Runs the strategies' decision kernels (the relay joining after
    ctx.x < 1: on the decode lines at x = 0, in the log domain otherwise) at
    nu_s = v_s on every block, with nu_r read from the first fading column.
    Layer 2 is checked against r1 = 0, which every block's
    nonnegative layer-1 information meets, so its decision is the
    post-cancellation condition alone.  The comparand for the analytic
    bounds is exp(-threshold(v_s)).
    """
    if layer not in (1, 2):
        raise ValueError("layer must be 1 or 2")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if not (math.isfinite(v_s) and v_s >= 0.0):
        raise ValueError(f"v_s must be finite and >= 0, got {v_s!r}")
    r1 = ctx.r1 if layer == 1 else 0.0

    def chunk_stats(i: int, size: int, ws: _Workspace):
        def draw(read: int):  # ctx.x < 1, so both columns are read
            return np.full(size, -v_s), _fading_chunk(seed, i, ws, size, read=1)[0]
        decisions = _two_layer_decisions(draw, ctx.alloc, ctx.cfg, ctx.x, ctx.x, r1, ctx.r2, ws)
        return _count_stats((1.0,), (decisions[layer - 1],))

    (n, mean, m2), _, _ = _run_chunks(blocks, chunk_stats)
    return SimEstimate(mean=mean, stderr=_stderr(n, m2), blocks=n, seed=seed)
