import pytest

from relaycast import PowerConfig, TwoLayerAllocation, layer_rates
from relaycast.validation import (ValidationCase, ValidationRow, closed_form_value,
                                  validation_corpus)


def test_z_floor_when_no_block_decodes():
    # `relaycast validate --draws 10 --blocks 1000000 --seed 20240009`: no
    # block of this single-layer SDF case decodes, so the estimate and its
    # stderr are 0; one decoded block would have moved the mean by rate/blocks
    case = validation_corpus(20_240_009, 10)[9]
    assert case.scheme == "single-layer-SDF"
    analytic = closed_form_value(case)
    assert analytic == pytest.approx(8.72672e-09, rel=1e-5)
    row = ValidationRow(scheme=case.scheme, index=9, analytic=analytic, mc_mean=0.0,
                        mc_stderr=0.0, blocks=1_000_000, min_credit=case.min_credit)
    assert row.z == pytest.approx(analytic / (case.rate / 1_000_000))
    assert row.ok(3.0)
    assert not ValidationRow(scheme=case.scheme, index=9, analytic=10 * case.rate / 1e6,
                             mc_mean=0.0, mc_stderr=0.0, blocks=1_000_000,
                             min_credit=case.min_credit).ok(3.0)


def test_min_credit_of_layered_plans():
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
    alloc = TwoLayerAllocation(alpha=0.4, eta1=0.3, eta2=1.0)
    case = ValidationCase(scheme="direct", cfg=cfg, alloc=alloc)
    assert case.min_credit == layer_rates(alloc, cfg.p_s)[0]
    # no power on layer 1: a block is credited with r2 or nothing
    alloc = TwoLayerAllocation(alpha=0.0, eta1=0.3, eta2=1.0)
    case = ValidationCase(scheme="direct", cfg=cfg, alloc=alloc)
    assert case.min_credit == layer_rates(alloc, cfg.p_s)[1] > 0.0


def test_closed_form_value_rejects_an_unknown_scheme():
    case = ValidationCase(scheme="full-duplex", cfg=PowerConfig(p_s=10.0, p_r=10.0, q=100.0),
                          alloc=TwoLayerAllocation(alpha=0.7, eta1=0.3, eta2=1.8))
    with pytest.raises(ValueError, match="unknown scheme 'full-duplex'"):
        closed_form_value(case)


def test_the_corpus_takes_any_integer_seed():
    # the Philox key is the seed modulo 2**64, as in the Monte-Carlo oracle
    assert validation_corpus(-1, 1) == validation_corpus(2**64 - 1, 1)
