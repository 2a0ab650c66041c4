import numpy as np
import pytest
from scipy import special

from relaycast import DmtConfig, dmt_average_rate, dmt_outage_exponents
from relaycast.dmt import _lambda_cdf


def test_config_validation():
    with pytest.raises(ValueError):
        DmtConfig(r1=1.0, r2=0.2, alpha_exp=0.5, beta_exp=0.5)
    with pytest.raises(ValueError):
        DmtConfig(r1=0.1, r2=0.2, alpha_exp=0.0, beta_exp=0.5)
    with pytest.raises(ValueError):
        DmtConfig(r1=0.1, r2=0.2, alpha_exp=0.5, beta_exp=0.5,
                  snr_grid_db=(40.0, 50.0))


def test_gamma2_cdf_matches_scipy():
    # the closed form above x = 0.5 and the series below it, against scipy's
    # regularized incomplete gamma P(2, x)
    for x in np.geomspace(1e-12, 50.0, 2001):
        assert _lambda_cdf(float(x)) == pytest.approx(special.gammainc(2.0, x), rel=1e-14)
    assert _lambda_cdf(0.0) == _lambda_cdf(-1.0) == 0.0


class TestOutageExponents:
    def test_layer_one_full_diversity(self):
        e = dmt_outage_exponents(DmtConfig(r1=0.0, r2=0.3, alpha_exp=0.9, beta_exp=0.9))
        assert not e.degenerate1
        assert e.d1_hat == pytest.approx(2.0, abs=0.1)

    def test_layer_one_rate_tradeoff(self):
        # r1 + alpha well below 1 keeps the 40 dB end of the grid asymptotic
        e = dmt_outage_exponents(DmtConfig(r1=0.4, r2=0.2, alpha_exp=0.3, beta_exp=0.3))
        assert e.d1_hat == pytest.approx(2.0 * (1.0 - 0.4), abs=0.1)

    def test_layer_two_exponent(self):
        e = dmt_outage_exponents(DmtConfig(r1=0.1, r2=0.3, alpha_exp=0.8, beta_exp=0.8))
        assert not e.degenerate2
        assert e.d2_hat == pytest.approx(2.0 * (0.8 - 0.3), abs=0.1)

    def test_starved_layer_two_flags_degenerate(self):
        e = dmt_outage_exponents(DmtConfig(r1=0.1, r2=0.5, alpha_exp=0.2, beta_exp=0.2))
        assert e.degenerate2 and e.d2_hat == 0.0
        assert min(e.p_out2) > 0.99

    def test_tradeoff_lines(self):
        # d1 + 2 r1 = 2 for r1 < 1 - alpha; d2 + 2 r2 = 2 alpha for r2 < alpha
        for r1, r2, a in [(0.1, 0.2, 0.6), (0.3, 0.1, 0.5), (0.2, 0.4, 0.7)]:
            e = dmt_outage_exponents(DmtConfig(r1=r1, r2=r2, alpha_exp=a, beta_exp=a))
            assert e.d1_hat + 2.0 * r1 == pytest.approx(2.0, abs=0.1)
            assert e.d2_hat + 2.0 * r2 == pytest.approx(2.0 * a, abs=0.1)


class TestAverageRate:
    def test_overloaded_layer_one_gives_zero(self):
        cfg = DmtConfig(r1=0.5, r2=0.1, alpha_exp=0.7, beta_exp=0.7)
        assert dmt_average_rate(cfg, 1e6) == 0.0

    def test_both_layers_approach_sum(self):
        cfg = DmtConfig(r1=0.1, r2=0.3, alpha_exp=0.6, beta_exp=0.6)
        assert dmt_average_rate(cfg, 1e8) == pytest.approx(0.4, abs=1e-4)

    def test_layer_two_starved_keeps_layer_one(self):
        cfg = DmtConfig(r1=0.1, r2=0.5, alpha_exp=0.3, beta_exp=0.3)
        val = dmt_average_rate(cfg, 1e6)
        assert val == pytest.approx(0.1, abs=1e-3)

    def test_equal_split_dominates(self):
        r1, r2, c, p_s = 0.15, 0.25, 1.0, 1e6
        m = 0.6
        equal = dmt_average_rate(DmtConfig(r1=r1, r2=r2, alpha_exp=m, beta_exp=m, c=c), p_s)
        a_gt = dmt_average_rate(DmtConfig(r1=r1, r2=r2, alpha_exp=m, beta_exp=m / 2, c=c), p_s)
        b_gt = dmt_average_rate(DmtConfig(r1=r1, r2=r2, alpha_exp=m / 2, beta_exp=m, c=c), p_s)
        assert equal >= a_gt and equal >= b_gt
