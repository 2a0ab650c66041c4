import math

import numpy as np
import pytest


@pytest.fixture
def param_rng():
    """Pinned generator for drawing test parameter corpora."""
    return np.random.default_rng(20_240_801)


def draw_alloc(rng, beta_mode="equal"):
    """One random two-layer allocation in the numerically ordinary regime."""
    from relaycast import TwoLayerAllocation

    alpha = float(rng.uniform(0.05, 0.95))
    if beta_mode == "equal":
        beta = alpha
    elif beta_mode == "ge":
        beta = float(rng.uniform(alpha, 1.0))
    else:
        beta = float(rng.uniform(0.02, 0.98))
    eta1 = float(rng.uniform(0.05, 1.2))
    return TwoLayerAllocation(alpha=alpha, eta1=eta1,
                              eta2=eta1 + float(rng.uniform(0.05, 1.5)), beta=beta)


def draw_powers(rng, q_hi=1000.0):
    from relaycast import PowerConfig

    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return PowerConfig(p_s=lu(0.5, 100.0), p_r=lu(0.5, 100.0), q=lu(0.5, q_hi))


def dense_decode_prob(r, eps, p_s, p_r, depth=60, sub=100):
    """The single-layer SDF's decode probability at listen time eps < 1 by
    brute force: 20-point Gauss-Legendre on `sub` equal parts of each panel
    of a ladder halving toward 0 and eta down to 2^-depth eta
    (2 * depth * sub * 20 = 240,000 nodes)."""
    eta = math.expm1(r) / p_s
    steps = eta * 0.5 ** np.arange(depth, 0, -1)
    ladder = np.concatenate(([0.0], steps, eta - steps[-2::-1], [eta]))
    edges = np.concatenate([np.linspace(lo, hi, sub + 1)[:-1]
                            for lo, hi in zip(ladder[:-1], ladder[1:])] + [[eta]])
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)[:, None]
    v = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
    a = (r - eps * np.log1p(v * p_s)) / (1.0 - eps)
    need = np.expm1(np.minimum(a, 700.0)) - v * p_s
    f = np.where(a > 700.0, 0.0, np.exp(-np.maximum(need, 0.0) / p_r - v))
    return min(math.exp(-eta) + float(np.sum(half * w * f)), 1.0)


def scalar_grid_best(scheme, cfg, n, beta_free=False):
    """The best value of the n-point grid over alpha (and beta with
    ``beta_free``) in [0, 1] and eta1 <= eta2 in [0, 4], scored point by
    point on the scheme's scalar kernel (CLOSED_FORMS[scheme].rate)."""
    from relaycast import twolayer

    rate = twolayer.CLOSED_FORMS[scheme].rate
    unit, eta = np.linspace(0.0, 1.0, n).tolist(), np.linspace(0.0, 4.0, n).tolist()
    return max(rate(a, b, e1, e2, cfg.p_s, cfg.p_r) for a in unit
               for b in (unit if beta_free else [a]) for e1 in eta for e2 in eta if e1 <= e2)
