"""Channel/power parameter types and two-layer rate bookkeeping.

Conventions used throughout the package: all powers and gains are linear,
all rates are in nats per channel use (natural logarithms), and the squared
fading magnitudes nu_s, nu_r are unit-mean exponentials.  dB and bit
conversions happen only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "PowerConfig",
    "TwoLayerAllocation",
    "DecodingTimes",
    "ThroughputResult",
    "layer_rates",
    "decoding_times",
]


def _check_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


@dataclass(frozen=True)
class PowerConfig:
    """Source power, relay power and source-relay collocation gain (linear units).

    The relay phase is fixed at zero, so no complex arithmetic appears anywhere.
    """

    p_s: float
    p_r: float
    q: float

    def __post_init__(self):
        _check_nonneg("p_s", self.p_s)
        _check_nonneg("p_r", self.p_r)
        _check_nonneg("q", self.q)


@dataclass(frozen=True)
class TwoLayerAllocation:
    """Two-layer superposition plan.

    ``alpha`` is the source power fraction on layer 1, ``beta`` the relay's
    (defaults to ``alpha``, the equal allocation).  ``eta1 <= eta2`` are the
    fading levels at which the destination alone decodes layers 1 and 2; the
    layer rates follow from them via :func:`layer_rates`.  alpha = 0 and
    alpha = 1 are legal degenerate plans that collapse to a single layer.
    """

    alpha: float
    eta1: float
    eta2: float
    beta: float = field(default=math.nan)

    def __post_init__(self):
        if math.isnan(self.beta):
            object.__setattr__(self, "beta", float(self.alpha))
        for name in ("alpha", "beta"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
            object.__setattr__(self, name, v)
        e1 = _check_nonneg("eta1", self.eta1)
        e2 = _check_nonneg("eta2", self.eta2)
        if e1 > e2:
            raise ValueError(f"eta1 <= eta2 required, got {e1!r} > {e2!r}")
        object.__setattr__(self, "eta1", e1)
        object.__setattr__(self, "eta2", e2)

    @property
    def alpha_bar(self) -> float:
        return 1.0 - self.alpha

    @property
    def beta_bar(self) -> float:
        return 1.0 - self.beta

    def with_beta(self, beta: float) -> "TwoLayerAllocation":
        return replace(self, beta=beta)


@dataclass(frozen=True)
class DecodingTimes:
    """Block fractions after which the relay has decoded layers 1 and 2."""

    eps1: float
    eps2: float

    def __post_init__(self):
        if not 0.0 <= self.eps1 <= self.eps2 <= 1.0:
            raise ValueError(f"need 0 <= eps1 <= eps2 <= 1, got {self}")


@dataclass(frozen=True)
class ThroughputResult:
    """Attempted rates, decode probabilities and the resulting average throughput.

    ``p_layer1`` is the probability that at least layer 1 is decoded and
    ``p_both`` that both are, so ``r_av = r1 * p_layer1 + r2 * p_both``.
    Single-layer results use r2 = 0 with p_both = p_layer1.  For more than
    two layers, r2 aggregates the upper-layer rates and p_both is their
    rate-weighted decode probability, which keeps the same identity exact.
    """

    r1: float
    r2: float
    p_layer1: float
    p_both: float
    r_av: float

    def __post_init__(self):
        tol = 1e-9
        if not (-tol <= self.p_both <= self.p_layer1 + tol <= 1.0 + 2 * tol):
            raise ValueError(f"inconsistent decode probabilities in {self}")
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError(f"negative rate in {self}")

    @classmethod
    def build(cls, r1: float, r2: float, p_layer1: float, p_both: float) -> "ThroughputResult":
        # Clip floating dust so the dataclass invariants hold exactly.
        p_layer1 = min(max(float(p_layer1), 0.0), 1.0)
        p_both = min(max(float(p_both), 0.0), p_layer1)
        r1 = float(r1)
        r2 = float(r2)
        if r2 == 0.0:
            p_both = p_layer1
        return cls(r1=r1, r2=r2, p_layer1=p_layer1, p_both=p_both,
                   r_av=r1 * p_layer1 + r2 * p_both)


def layer_rates(alloc: TwoLayerAllocation, p_s: float) -> tuple[float, float]:
    """Per-layer rates of the two-layer plan at source power p_s.

    r1 = log((1 + eta1*P_s) / (1 + eta1*alpha_bar*P_s)), the rate layer 1
    supports at fading eta1 with layer 2 as interference, and
    r2 = log(1 + eta2*alpha_bar*P_s), the clean layer-2 rate at eta2.
    """
    p_s = _check_nonneg("p_s", p_s)
    ab = alloc.alpha_bar
    r1 = math.log1p(alloc.eta1 * p_s) - math.log1p(alloc.eta1 * ab * p_s)
    r2 = math.log1p(alloc.eta2 * ab * p_s)
    return r1, r2


def _time_fraction(rate: float, log_capacity: float) -> float:
    """min(1, rate / log_capacity), treating a dead source-relay pipe as 1."""
    if rate <= 0.0:
        return 0.0
    if log_capacity <= 0.0:
        return 1.0  # relay cannot decode this layer at all
    return min(1.0, rate / log_capacity)


def decoding_times(alloc: TwoLayerAllocation, cfg: PowerConfig) -> DecodingTimes:
    """Relay decoding times for both layers over the gain-Q AWGN source-relay link.

    eps1 = min(1, r1 / log(1 + Q*alpha*P_s / (1 + Q*alpha_bar*P_s))) and
    eps2 = min(1, max(eps1, r2 / log(1 + Q*alpha_bar*P_s))); the max encodes
    that layer 2 is decoded only after layer 1 has been cancelled.
    Degenerate denominators (alpha = 0 or Q = 0 with a positive rate) mean
    the relay can never decode, i.e. eps = 1.
    """
    r1, r2 = layer_rates(alloc, cfg.p_s)
    qp = cfg.q * cfg.p_s
    cap1 = math.log1p(qp * alloc.alpha / (1.0 + qp * alloc.alpha_bar)) if qp > 0.0 else 0.0
    cap2 = math.log1p(qp * alloc.alpha_bar)
    eps1 = _time_fraction(r1, cap1)
    eps2 = min(1.0, max(eps1, _time_fraction(r2, cap2)))
    return DecodingTimes(eps1=eps1, eps2=eps2)
