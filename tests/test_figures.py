"""The figure presets at one-point grids: the orderings their curves show,
and the 8-layer rate of fig3/fig4 pinned bit for bit."""

import logging
import math

import pytest

from relaycast import figures


def rates(name, **grid):
    _, rows, _ = figures.run_preset(name, **grid)
    assert rows and all(math.isfinite(r["throughput_nats"]) for r in rows)
    return {r["scheme"]: r["throughput_nats"] for r in rows}


# float.hex of fig3/fig4's 8-layer rate, captured before the coordinate
# polish that made it moved onto optimize._coordinate_ascent (the keys), and
# the values each moved to, oldest first: when every line search after a
# coordinate's first began to span a bracket around the coordinate's last
# move, when the line searches became Brent's to a 1e-7 bracket, when the
# polish started from the residuals I(eta_i)/P themselves, not from
# 1 - cumsum of per-layer fractions, when the plan was quantized on the
# Gauss-Legendre R(u) table of broadcast.cumulative_rate, not on a
# (1 - F)-weighted trapezoid, when the polish gave way to the exact
# stationary point of optimize._layered_plan, and when the continuous
# profile came from the tail terms of outage._layer_tail_terms (the plans'
# start moved at rounding level, and two plans by one ulp)
RECAPTURED = {
    "0x1.222d12cb571d1p+0": ["0x1.222d12cf9349cp+0", "0x1.222d12cf6ca1ap+0",
                             "0x1.222d12cf218d7p+0", "0x1.22403c7fc1e0cp+0",
                             "0x1.224a95d5331e8p+0", "0x1.224a95d5331e9p+0"],
    "0x1.ddfd9824046f0p+1": ["0x1.ddfd981d59c86p+1", "0x1.ddfd98458db3ep+1",
                             "0x1.ddfd9844e1168p+1", "0x1.de7983759d0eap+1",
                             "0x1.ded8cff0ed30ep+1"],
    "0x1.d9d0f98ce4e99p+0": ["0x1.d9d0f9827863fp+0", "0x1.d9d0f983837e6p+0",
                             "0x1.d9d0f983dcf7cp+0", "0x1.d9e9d45f31deap+0",
                             "0x1.da0208633ca8cp+0", "0x1.da0208633ca8bp+0"],
    "0x1.51ed7fa7888bap+2": ["0x1.51ed805ac6d0bp+2", "0x1.51ed80259f7b6p+2",
                             "0x1.51ed8022ad914p+2", "0x1.52218082b1aa1p+2",
                             "0x1.527c259d077eap+2"],
}


def pinned_rate(pinned):
    """The current 8-layer rate of a pin, the last capture, which may not
    fall below the pin or an earlier capture by more than 1e-6 relative."""
    *earlier, current = map(float.fromhex, [pinned, *RECAPTURED[pinned]])
    assert all(current >= old * (1.0 - 1e-6) for old in earlier)
    return current


@pytest.mark.parametrize("ps_db,pinned", [
    (10.0, "0x1.222d12cb571d1p+0"),
    (25.0, "0x1.ddfd9824046f0p+1"),
])
def test_fig3_layerings_are_ordered(ps_db, pinned):
    r = rates("fig3", ps_db=[ps_db])
    assert r["direct-8-layer"] == pinned_rate(pinned)
    assert (r["continuous-siso"] >= r["direct-8-layer"] >= r["direct-2-layer"]
            >= r["direct-1-layer"])


@pytest.mark.parametrize("ps_db,ratio,pinned", [
    (10.0, 1.0, "0x1.d9d0f98ce4e99p+0"),
    (25.0, 2.0, "0x1.51ed7fa7888bap+2"),
])
def test_fig4_layerings_are_ordered(ps_db, ratio, pinned):
    r = rates("fig4", ps_db=[ps_db], ratios=(ratio,))
    assert r["miso-8-equal"] == pinned_rate(pinned)
    # equal against unequal is D6 (tests/test_optimize.py), so neither is assumed
    two = (r["miso-2-equal"], r["miso-2-unequal"])
    assert r["continuous-miso"] >= r["miso-8-equal"] >= max(two)
    assert min(two) >= r["miso-1-layer"]
    assert r["ergodic-miso"] == max(r.values())


def test_fig4_logs_one_line_per_eight_layer_plan(caplog):
    # one line per plan, with the Newton steps, the threshold root steps and
    # the shifts the plan took, and its value; the cell is the closed form at
    # the plan, which reads the same value to rounding.  The two-layer search
    # logs a plan of its own, of 2 layers
    caplog.set_level(logging.DEBUG, logger="relaycast.optimize")
    r = rates("fig4", ps_db=[10.0], ratios=(1.0,))
    [line] = [rec.getMessage() for rec in caplog.records
              if rec.getMessage().startswith("_layered_plan layers=8 ")]
    fields = dict(f.split("=") for f in line.split()[1:])
    assert set(fields) == {"layers", "iterations", "root_steps", "shifts", "value"}
    assert fields["layers"] == "8"
    assert 0 < int(fields["iterations"]) < 50
    # each step solves 8 thresholds at least once, and so does the start
    assert int(fields["root_steps"]) >= 8 * (int(fields["iterations"]) + 1)
    assert int(fields["shifts"]) >= 0
    assert float(fields["value"]) == pytest.approx(r["miso-8-equal"], rel=1e-14)


def test_fig2_broadcasting_beats_one_layer():
    _, rows, _ = figures.run_preset("fig2", ps_db=[10.0], ratios=(0.5, 2.0))
    for ratio in (0.5, 2.0):
        r = {row["scheme"]: row["throughput_nats"] for row in rows
             if row["pr_over_ps"] == ratio}
        assert r["continuous-miso"] >= r["continuous-relay"] >= r["continuous-siso"]
        assert r["continuous-miso"] >= r["single-layer-miso"] >= r["single-layer-siso"]
        assert r["continuous-siso"] >= r["single-layer-siso"]


def test_fig5_and_fig7_run_at_one_point():
    assert set(rates("fig5", pr_db=[20.0])) == {"miso-2-equal", "miso-2-unequal"}
    assert set(rates("fig7", ps_db=(10.0,), q_db=(10.0,), ratios=(1.0,))) == {
        "direct-2", "simplex-equal"}


def test_fig8_optimized_beta_is_no_worse_than_the_equal_split():
    r = rates("fig8", ps_db=[10.0])
    assert r["simplex-unequal-opt"] >= r["simplex-equal"]
