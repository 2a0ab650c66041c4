import math

import numpy as np
import pytest
from scipy import integrate, special

from relaycast import (PowerConfig, broadcast, optimal_power_density, rayleigh_distribution,
                       relay_or_miso_broadcast_bound, siso_broadcast_rate,
                       single_user_throughput, optimal_single_user_rate,
                       sum_fading_distribution, broadcast_rate, PowerDensity)
from relaycast.montecarlo import SimConfig, simulate_strategy

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rayleigh_rate_closed_form(p_s: float) -> float:
    # with I = (1-u)/u^2 the integrand reduces to e^{-u} (2/u - 1) on [u0, 1]
    u0 = (-1.0 + math.sqrt(1.0 + 4.0 * p_s)) / (2.0 * p_s)
    return 2.0 * (special.exp1(u0) - special.exp1(1.0)) - (math.exp(-u0) - math.exp(-1.0))


class TestSumFadingDistribution:
    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            sum_fading_distribution(0.0)

    def test_equal_ratio_density_value(self):
        d = sum_fading_distribution(1.0)
        assert float(d.pdf(1.0)) == pytest.approx(math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 7.5])
    def test_normalization_and_cdf_limits(self, a):
        d = sum_fading_distribution(a)
        total, _ = integrate.quad(lambda s: float(d.pdf(s)), 0.0, math.inf)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert float(d.cdf(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(d.cdf(500.0)) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_is_cdf_derivative(self):
        d = sum_fading_distribution(2.0)
        for s in (0.2, 1.0, 3.0):
            num = (float(d.cdf(s + 1e-6)) - float(d.cdf(s - 1e-6))) / 2e-6
            assert num == pytest.approx(float(d.pdf(s)), rel=1e-5)

    def test_branch_agreement_near_unity(self):
        exact = sum_fading_distribution(1.0)          # a = 1 branch
        near = sum_fading_distribution(1.0 + 2e-6)    # generic branch
        for s in (0.3, 1.0, 2.5):
            assert float(near.pdf(s)) == pytest.approx(float(exact.pdf(s)), abs=1e-6)
            assert float(near.cdf(s)) == pytest.approx(float(exact.cdf(s)), abs=1e-6)

    def test_empirical_cdf_agreement(self):
        a = 2.0
        d = sum_fading_distribution(a)
        nu = -np.log1p(-np.random.default_rng(2024).random((1_000_000, 2)))
        s = np.sort(nu[:, 0] + a * nu[:, 1])
        emp = np.arange(1, s.size + 1) / s.size
        gap = np.max(np.abs(np.asarray(d.cdf(s)) - emp))
        assert gap < 0.003


class TestOptimalPowerDensity:
    def test_rayleigh_boundaries(self):
        d = optimal_power_density(1.0, rayleigh_distribution())
        assert abs(d.u1 - 1.0) < 1e-12
        assert abs(d.u0 - GOLDEN) < 1e-12
        # residuals of the defining equations
        assert abs(float(d.i_of_u(d.u0 + 1e-13)) - 1.0) < 1e-10
        assert abs(float(d.i_of_u(d.u1 - 1e-13))) < 1e-10

    @pytest.mark.parametrize("a,power", [(0.5, 3.0), (1.0, 10.0), (2.0, 1.0)])
    def test_boundary_residuals_for_sum_fading(self, a, power):
        dist = sum_fading_distribution(a)
        d = optimal_power_density(power, dist)
        raw = lambda u: (1.0 - float(dist.cdf(u)) - u * float(dist.pdf(u))) / (u * u * float(dist.pdf(u)))
        assert abs(raw(d.u0) - power) < 1e-10
        assert abs(raw(d.u1)) < 1e-10

    def test_unbracketed_layering_range_raises_a_clear_error(self):
        # P_s = -70 dB, P_r = 50 dB: the upper boundary is clamped at 1e9,
        # where I(u), about (P_r/P_s)/u^2 = 1e-6, is still above the total power
        dist = sum_fading_distribution(1e12)
        with pytest.warns(UserWarning, match="clamped"), \
                pytest.raises(ValueError, match=r"no layering range for sum-fading"
                                                r"\(a=1e\+12\).*u1 = 1e\+09"):
            optimal_power_density(1e-7, dist)

    @pytest.mark.parametrize("ps_db", [-20.0, 10.0, 50.0])
    @pytest.mark.parametrize("mode,ratio", [("siso", 0.0), ("relay", 2.0), ("miso", 0.5),
                                            ("miso", 1.0), ("miso", 2.0)])
    def test_rho_is_the_central_difference_of_i(self, mode, ratio, ps_db):
        p_s = 10.0 ** (ps_db / 10.0)
        d, _, _ = broadcast.continuous_layering(
            PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0), mode)
        u = np.linspace(d.u0, d.u1, 41)[1:-1]
        h = 1e-6 * (d.u1 - d.u0)
        numeric = (d.i_of_u(u - h) - d.i_of_u(u + h)) / (2.0 * h)
        np.testing.assert_allclose(d.rho_of_u(u), numeric, rtol=1e-6)

    def test_monotone_profile_and_nonnegative_density(self):
        d = optimal_power_density(10.0, sum_fading_distribution(1.5))
        us = np.linspace(d.u0, d.u1, 10_000)
        i_vals = np.asarray(d.i_of_u(us))
        assert np.all(np.diff(i_vals) <= 1e-12)
        rho = np.asarray(d.rho_of_u(us[1:-1]))
        assert np.all(rho >= -1e-12)


class TestBroadcastRate:
    def test_zero_density_gives_zero(self):
        d = PowerDensity(i_of_u=lambda u: 2.0, u0=0.2, u1=1.0, total_power=2.0,
                         rho_of_u=lambda u: 0.0)
        assert broadcast_rate(d, rayleigh_distribution()) == 0.0

    @pytest.mark.parametrize("p_s", [1.0, 10.0])
    def test_rayleigh_closed_form(self, p_s):
        assert siso_broadcast_rate(p_s) == pytest.approx(
            rayleigh_rate_closed_form(p_s), abs=1e-9)

    def test_riemann_oracle(self):
        # independent dense midpoint sum over the analytic integrand
        p_s = 10.0
        d = optimal_power_density(p_s, rayleigh_distribution())
        u = np.linspace(d.u0, d.u1, 1_000_001)
        mid = 0.5 * (u[:-1] + u[1:])
        integrand = np.exp(-mid) * (2.0 / mid - 1.0)
        riemann = float(integrand.sum() * (d.u1 - d.u0) / 1_000_000)
        assert siso_broadcast_rate(p_s) == pytest.approx(riemann, abs=1e-6)

    @pytest.mark.parametrize("p_s", [1.0, 10.0, 100.0])
    def test_dominates_best_single_layer(self, p_s):
        best = single_user_throughput(optimal_single_user_rate(p_s), p_s).r_av
        assert siso_broadcast_rate(p_s) >= best

    def test_reparameterization_invariance(self):
        # stretching the fading axis by c leaves the rate unchanged
        c = 3.0
        dist = rayleigh_distribution()
        d = optimal_power_density(4.0, dist)
        scaled_dist = type(dist)(cdf=lambda s: dist.cdf(np.asarray(s) / c),
                                 pdf=lambda s: dist.pdf(np.asarray(s) / c) / c,
                                 pdf_prime=lambda s: dist.pdf_prime(np.asarray(s) / c) / c ** 2,
                                 label="scaled")
        scaled_density = PowerDensity(
            i_of_u=lambda u: np.asarray(d.i_of_u(np.asarray(u) / c)) / c,
            u0=d.u0 * c, u1=d.u1 * c, total_power=d.total_power / c,
            rho_of_u=lambda u: np.asarray(d.rho_of_u(np.asarray(u) / c)) / c ** 2)
        assert broadcast_rate(scaled_density, scaled_dist) == pytest.approx(
            broadcast_rate(d, dist), abs=1e-9)


DB_GRID = np.arange(-20.0, 80.1, 5.0)


def quad_rate(density, dist):
    """broadcast_rate's integral by adaptive quadrature, point by point."""
    rho = density.rho_of_u

    def integrand(u):
        return ((1.0 - float(dist.cdf(u))) * u * float(rho(u))
                / (1.0 + u * float(density.i_of_u(u))))

    return integrate.quad(integrand, density.u0, density.u1,
                          epsabs=1e-10, epsrel=1e-10, limit=400)[0]


class TestFixedRule:
    def test_nodes_and_weights_match_numpy(self):
        x, w = broadcast._gauss_legendre(64)
        ref_x, ref_w = np.polynomial.legendre.leggauss(64)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("ps_db", DB_GRID)
    def test_siso_matches_the_closed_form(self, ps_db):
        # 2 E1(s0) - 2 E1(1) - (e^{-s0} - e^{-1}), s0 = 2 / (1 + sqrt(1 + 4 P_s))
        p_s = 10.0 ** (ps_db / 10.0)
        s0 = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * p_s))
        exact = (2.0 * (special.exp1(s0) - special.exp1(1.0))
                 - (math.exp(-s0) - math.exp(-1.0)))
        assert siso_broadcast_rate(p_s) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("mode", ["relay", "miso"])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 1000.0, 1e7])
    def test_relay_and_miso_match_adaptive_quadrature(self, mode, ratio):
        for ps_db in DB_GRID:
            p_s = 10.0 ** (ps_db / 10.0)
            density, dist, _ = broadcast.continuous_layering(
                PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0), mode)
            assert broadcast_rate(density, dist) == pytest.approx(
                quad_rate(density, dist), rel=1e-12), ps_db


@pytest.mark.parametrize("mode, ps_db, ratio", [
    ("siso", 0.0, 1.0), ("siso", 25.0, 1.0), ("miso", 0.0, 1.0), ("miso", 25.0, 1.0),
    ("miso", 0.0, 1e5),
])
def test_cumulative_rate_is_monotone_and_totals_the_profile(mode, ps_db, ratio):
    # R(u) starts at 0, never falls, and ends at int_{u0}^{u1} u rho / (1 + u I)
    p_s = 10.0 ** (ps_db / 10.0)
    density, _, _ = broadcast.continuous_layering(
        PowerConfig(p_s=p_s, p_r=ratio * p_s, q=1.0), mode)
    u, cum = broadcast.cumulative_rate(density)
    assert u[0] == density.u0 and u[-1] == density.u1
    assert cum[0] == 0.0 and np.all(np.diff(cum) >= 0.0)
    total = integrate.quad(
        lambda v: v * float(density.rho_of_u(v)) / (1.0 + v * float(density.i_of_u(v))),
        density.u0, density.u1, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    assert cum[-1] == pytest.approx(total, rel=1e-12, abs=0.0)


class TestRelayBounds:
    def test_vanishing_relay_collapses_to_siso(self):
        base = siso_broadcast_rate(10.0)
        for mode in ("relay", "miso"):
            v = relay_or_miso_broadcast_bound(PowerConfig(p_s=10.0, p_r=1e-13, q=1.0), mode)
            assert v == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matched_dominates_oblivious(self, ratio):
        cfg = PowerConfig(p_s=10.0, p_r=ratio * 10.0, q=1.0)
        assert relay_or_miso_broadcast_bound(cfg, "miso") >= \
            relay_or_miso_broadcast_bound(cfg, "relay")

    def test_monotone_in_relay_power(self):
        for mode in ("relay", "miso"):
            vals = [relay_or_miso_broadcast_bound(PowerConfig(p_s=10.0, p_r=r * 10.0, q=1.0), mode)
                    for r in (0.25, 0.5, 1.0, 2.0, 4.0)]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mode", ["relay", "miso"])
    def test_layered_simulator_arbitration(self, mode):
        cfg = PowerConfig(p_s=10.0, p_r=15.0, q=1.0)
        analytic = relay_or_miso_broadcast_bound(cfg, mode)
        est = simulate_strategy(SimConfig(blocks=400_000, seed=314,
                                          strategy="layered-continuous", params=mode), cfg)
        assert abs(analytic - est.mean) < 3 * est.stderr

    def test_layered_simulator_at_a_strong_relay(self):
        # P_r/P_s = 1e5 puts the upper layering boundary near 1e5, where an
        # even-node rate table reads low (9.219 +- 0.004 from a 4097-point
        # trapezoid); the bound reads 9.3003 nats and agrees with adaptive
        # quadrature
        cfg = PowerConfig(p_s=1.0, p_r=1e5, q=1.0)
        analytic = relay_or_miso_broadcast_bound(cfg, "miso")
        est = simulate_strategy(SimConfig(blocks=200_000, seed=314,
                                          strategy="layered-continuous", params="miso"), cfg)
        assert abs(analytic - est.mean) < 3 * est.stderr

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            relay_or_miso_broadcast_bound(PowerConfig(p_s=1.0, p_r=1.0, q=1.0), "bogus")
