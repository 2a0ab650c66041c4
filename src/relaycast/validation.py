"""Analytic-versus-simulation validation corpus.

Draws a pinned random corpus of channel/allocation parameters per scheme,
evaluates every closed form against the Monte-Carlo oracle, and reports the
deviations in standard errors.  Used by the ``validate`` CLI subcommand and
by the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import outage, twolayer
from .model import PowerConfig, TwoLayerAllocation, layer_rates
from .montecarlo import SimConfig, simulate_strategy

__all__ = ["ValidationRow", "validation_corpus", "closed_form_value",
           "run_validation", "convention_arbitration"]

SCHEMES = ("single-layer-SDF", "direct", "miso-equal", "miso-unequal",
           "simplex-equal", "simplex-unequal")


@dataclass(frozen=True)
class ValidationCase:
    scheme: str
    cfg: PowerConfig
    alloc: TwoLayerAllocation | None = None
    rate: float | None = None

    @property
    def params(self):
        return self.rate if self.scheme == "single-layer-SDF" else self.alloc

    @property
    def min_credit(self) -> float:
        """Smallest nonzero rate one simulated block can be credited with."""
        if self.scheme == "single-layer-SDF":
            return self.rate
        r1, r2 = layer_rates(self.alloc, self.cfg.p_s)
        return r1 if r1 > 0.0 else r2


@dataclass(frozen=True)
class ValidationRow:
    scheme: str
    index: int
    analytic: float
    mc_mean: float
    mc_stderr: float
    blocks: int
    min_credit: float  # ValidationCase.min_credit

    @property
    def z(self) -> float:
        # when nearly every block decodes, or none does, the sample deviation
        # collapses to zero; floor the scale at the estimate's resolution,
        # one block's smallest credit over the block count
        denom = max(self.mc_stderr, self.min_credit / self.blocks)
        if denom == 0.0:
            return 0.0 if self.analytic == self.mc_mean else math.inf
        return (self.analytic - self.mc_mean) / denom

    def ok(self, z_max: float = 3.0) -> bool:
        return abs(self.z) <= z_max


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def validation_corpus(seed: int, draws: int) -> list[ValidationCase]:
    """Pinned parameter corpus: ``draws`` cases per scheme.

    Ranges keep the draws in the numerically ordinary regime (rates a few
    nats, powers 0.5 to 100 linear, collocation gains up to 30 dB) while
    exercising all closed-form branches, including beta < alpha for the
    MISO and degenerate relay decoding times for the simplex forms.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC0DE], dtype=np.uint64)))
    cases: list[ValidationCase] = []
    for scheme in SCHEMES:
        for _ in range(draws):
            p_s = _loguniform(rng, 0.5, 100.0)
            p_r = _loguniform(rng, 0.5, 100.0)
            q = _loguniform(rng, 0.5, 1000.0)
            if scheme == "single-layer-SDF":
                cases.append(ValidationCase(scheme=scheme,
                                            cfg=PowerConfig(p_s=p_s, p_r=p_r, q=q),
                                            rate=float(rng.uniform(0.1, 2.5))))
                continue
            alpha = float(rng.uniform(0.05, 0.95))
            if scheme == "miso-unequal":
                beta = float(rng.uniform(0.02, 0.98))
            elif scheme == "simplex-unequal":
                beta = float(rng.uniform(alpha, 1.0))
            else:
                beta = alpha
            eta1 = float(rng.uniform(0.05, 1.2))
            eta2 = eta1 + float(rng.uniform(0.05, 1.5))
            cases.append(ValidationCase(
                scheme=scheme, cfg=PowerConfig(p_s=p_s, p_r=p_r, q=q),
                alloc=TwoLayerAllocation(alpha=alpha, eta1=eta1, eta2=eta2, beta=beta)))
    return cases


def closed_form_value(case: ValidationCase) -> float:
    if case.scheme == "single-layer-SDF":
        return outage.sdf_single_layer_throughput(case.rate, case.cfg).r_av
    alloc, cfg = case.alloc, case.cfg
    if case.scheme == "direct":
        return twolayer.direct_multilayer_throughput(
            (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar), cfg.p_s).r_av
    if case.scheme == "miso-equal":
        return twolayer.miso_equal_throughput(
            (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar),
            cfg.p_s, cfg.p_r).r_av
    if case.scheme == "miso-unequal":
        return twolayer.miso_unequal_throughput(alloc, cfg.p_s, cfg.p_r).r_av
    if case.scheme == "simplex-equal":
        return twolayer.simplex_equal_throughput(alloc, cfg).r_av
    if case.scheme == "simplex-unequal":
        return twolayer.simplex_unequal_throughput(alloc, cfg).r_av
    raise ValueError(f"unknown scheme {case.scheme!r}")


def run_validation(draws: int, blocks: int, seed: int,
                   schemes=SCHEMES, workers: int = 1) -> list[ValidationRow]:
    rows = []
    for case_index, case in enumerate(validation_corpus(seed, draws)):
        if case.scheme not in schemes:
            continue
        analytic = closed_form_value(case)
        est = simulate_strategy(
            SimConfig(blocks=blocks, seed=seed + case_index, strategy=case.scheme,
                      params=case.params), case.cfg, workers=workers)
        rows.append(ValidationRow(scheme=case.scheme, index=case_index,
                                  analytic=analytic, mc_mean=est.mean,
                                  mc_stderr=est.stderr, blocks=est.blocks,
                                  min_credit=case.min_credit))
    return rows


def convention_arbitration(blocks: int = 1_000_000, seed: int = 20_240_001):
    """Arbitrate the no-relay-decode branch of the single-layer form.

    At (r=1, P_s=10, Q=0.01) the relay cannot decode, so the throughput is
    r * P(log(1 + nu_s P_s) > r).  The adopted threshold reading
    exp(-(e^r - 1)/P_s) must agree with simulation; the literal shorthand
    exp(-r/P_s) must be rejected decisively.  Returns (adopted_z, literal_z,
    estimate).
    """
    r, cfg = 1.0, PowerConfig(p_s=10.0, p_r=10.0, q=0.01)
    est = simulate_strategy(
        SimConfig(blocks=blocks, seed=seed, strategy="single-layer-SDF", params=r), cfg)
    adopted = r * math.exp(-math.expm1(r) / cfg.p_s)
    literal = r * math.exp(-r / cfg.p_s)
    return ((adopted - est.mean) / est.stderr, (literal - est.mean) / est.stderr, est)
