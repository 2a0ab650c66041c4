"""Tests of the benchmark's tracer, run on the real workloads.

    python3 -m pytest -q perfbench/tests

Each workload runs two traced passes once per test run (about a minute on two
cores); the tests share them.
"""

import sys

import pytest
from scipy import integrate

import run
import tracer as tracing
import workloads

# the root spans (one per command) cover the pass except for the loop around
# them: output capture and the per-command bookkeeping
SELF_TIME_RTOL = 0.01
SELF_TIME_ATOL_S = 0.005


def _bindings():
    out = {("scipy.integrate", "quad"): integrate.quad}
    for name, mod in list(sys.modules.items()):
        if name == "relaycast" or name.startswith("relaycast."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    return out


@pytest.fixture(scope="module")
def cli():
    return run._import_program()


@pytest.fixture(scope="module")
def traced(cli, tmp_path_factory):
    """Two traced passes of every workload: {workload: [(wall, tracer), ...]},
    plus the function bindings from before and after them."""
    out = {"bindings": [_bindings()]}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        workload = workloads.build(name, workloads.DEFAULT_SEED, str(work))
        passes = []
        for _ in range(2):
            tr = tracing.Tracer()
            wall, outcomes = run.run_pass(cli, workload, tr)
            assert all(o["error"] is None for o in outcomes), outcomes
            passes.append((wall, tr))
        out[name] = passes
    out["bindings"].append(_bindings())
    return out


def test_untraced_pass_runs_the_original_functions(cli, tmp_path):
    before = _bindings()
    tr = tracing.Tracer()
    with tr:
        assert integrate.quad is not before[("scipy.integrate", "quad")]
        patched = {key for key, value in _bindings().items() if value is not before[key]}
    assert ("relaycast.cli", "main") in patched
    assert ("relaycast.figures", "maximize_throughput") in patched
    assert ("relaycast.twolayer", "find_intersections") in patched
    assert _bindings() == before
    workload = workloads.build("mc-oracle", workloads.DEFAULT_SEED, str(tmp_path))
    run.run_pass(cli, workload)
    assert not tr.spans()["name"].size
    assert sum(tr.calls) == 0 and tr.integrand_evals == 0


def test_no_wrappers_left_after_traced_passes(traced):
    before, after = traced["bindings"]
    assert after == before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_sum_to_traced_wall(traced, name):
    for wall, tr in traced[name]:
        assert tr.total_self_seconds() == pytest.approx(
            wall, rel=SELF_TIME_RTOL, abs=SELF_TIME_ATOL_S)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(traced, name):
    first, second = (tr.metrics() for _, tr in traced[name])
    for key in ("optimize.evals", "quad.integrand_evals", "montecarlo.blocks"):
        assert first[key] == second[key], key
    for key in first:
        if key.endswith(".calls"):
            assert first[key] == second[key], key
    if name == "mc-oracle":
        assert first["montecarlo.blocks"] == workloads.build(name, 0, "").mc_blocks
    else:
        assert first["optimize.evals"] > 0 and first["quad.integrand_evals"] > 0
