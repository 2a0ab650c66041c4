"""The benchmark's workloads: fixed lists of relaycast CLI invocations.

Each workload is a closed loop with one client: the commands run one after
another in one process through ``relaycast.cli.main(argv)``, every one with
``--workers 1``.  The workload seed drives the validation corpus, every
Monte-Carlo ``--seed`` and a sub-step offset of the P_s grids; the number of
grid points and their span stay the same at every seed.

The known-defect probes are single public calls that raise today (defects
D1 and D2 in ROADMAP.md).  They run once per run, untimed, and are reported
apart from the commands, so that fixing a defect changes no timed figure.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
# the CLI's own default --seed; the benchmark's default seed maps onto it so
# that seed 0 reproduces the preset figures exactly
CLI_SEED = 20_240_001
PS_STEP_DB = 2.5
VALIDATE_DRAWS = 10
VALIDATE_BLOCKS = 1_000_000
VALIDATE_SCHEMES = 6
FIG9_BLOCKS = 100_000  # the fig9 preset's default
FIG9_SIMULATIONS = 5 * 4 * 2  # P_s points x Q points x two strategies
# family-wise false-alarm probability of every Monte-Carlo comparison
FAMILY_ALPHA = 1e-6


def family_z(n_compared: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided Bonferroni |z| bound for ``n_compared`` comparisons."""
    return statistics.NormalDist().inv_cdf(1.0 - alpha / (2.0 * n_compared))


# validate compares every corpus case plus the convention check
VALIDATE_Z_MAX = family_z(VALIDATE_SCHEMES * VALIDATE_DRAWS + 1)


def mc_seed(seed: int) -> int:
    return CLI_SEED + seed


def grid_offset_db(seed: int) -> float:
    """Sub-step shift of every P_s grid: none at the default seed."""
    if seed == DEFAULT_SEED:
        return 0.0
    u = np.random.Generator(np.random.Philox(key=seed)).random()
    return round(float(u) * PS_STEP_DB, 4)


def _grid(offset: float, start: float, stop: float, step: float) -> list[float]:
    n = int(round((stop - start) / step))
    return [offset + start + i * step for i in range(n + 1)]


def _db_list(values) -> str:
    return ",".join(repr(v) for v in values)


# Value-cell classes checked against the pinned reference at the default seed:
#   closed - closed form (quadrature, root finding): within 1e-9 relative
#   opt    - depends on an optimizer's result: at most 1e-6 relative below
#   mc     - Monte-Carlo mean, compared with its stderr column by a z bound
#   z      - validate's own z column, only required to be finite
# Columns named stderr* are only required to be finite and nonnegative.
# Every other column is a key, compared exactly; ``ps_db`` is compared after
# removing the seed's grid offset.
@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    csv: str  # file name in the work directory
    value_column: str
    classes: dict = field(default_factory=dict)  # scheme -> class
    default_class: str = "opt"
    extra: dict = field(default_factory=dict)  # column -> class, on every row


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    mc_blocks: int  # fading blocks simulated per pass, from the arguments
    # seconds one pass took on the machine the benchmark was tuned on (2-core
    # Xeon, Python 3.11): fixes how many passes fit in ``--seconds``, so two
    # versions of the program are always timed over the same work
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, math.floor(seconds / self.pass_s))


def _figure(name: str, out: str, *args: str, **kw) -> Command:
    argv = ("figure", name, *args, "--out", out, "--workers", "1")
    return Command(name=name, argv=argv, csv=f"{name}.csv",
                   value_column="throughput_nats", **kw)


def build(workload: str, seed: int, out: str) -> Workload:
    """The command list of ``workload`` at ``seed``, writing CSVs under ``out``."""
    d = grid_offset_db(seed)
    ps_fine = _db_list(_grid(d, 0.0, 25.0, PS_STEP_DB))
    if workload == "oblivious-relay":
        commands = (
            _figure("fig6", out, "--ps-db", ps_fine),
            _figure("fig7", out, "--ps-db", _db_list([d + 10.0, d + 20.0])),
            _figure("fig8", out, "--ps-db", ps_fine),
            Command(name="sweep", csv="sweep.csv", value_column="throughput_nats",
                    argv=("sweep", "--scheme", "simplex-equal", "--q-db", "15,20",
                          "--ps-db-start", repr(d), "--ps-db-stop", repr(d + 25.0),
                          "--ps-db-step", repr(PS_STEP_DB),
                          "--out", f"{out}/sweep.csv", "--workers", "1")),
        )
        return Workload(workload, commands, mc_blocks=0, pass_s=8.0)
    if workload == "miso-layering":
        commands = (
            _figure("fig2", out, "--ps-db", ps_fine,
                    classes={"single-layer-miso": "opt"}, default_class="closed"),
            _figure("fig3", out, "--ps-db", ps_fine,
                    classes={"direct-1-layer": "closed", "continuous-siso": "closed"}),
            _figure("fig4", out, "--ps-db", _db_list(_grid(d, 0.0, 25.0, 5.0)),
                    classes={"continuous-miso": "closed", "ergodic-miso": "closed"}),
        )
        return Workload(workload, commands, mc_blocks=0, pass_s=9.0)
    if workload == "mc-oracle":
        s = str(mc_seed(seed))
        commands = (
            Command(name="validate", csv="validate.csv", value_column="mc_nats",
                    default_class="mc",
                    extra={"analytic_nats": "closed", "z": "z"},
                    argv=("validate", "--blocks", str(VALIDATE_BLOCKS),
                          "--draws", str(VALIDATE_DRAWS), "--seed", s,
                          # the oracle and convention checks are the
                          # benchmark's own (checks.check_oracle)
                          "--z-max", "inf",
                          "--out", f"{out}/validate.csv", "--workers", "1")),
            _figure("fig9", out, "--seed", s,
                    "--ps-db", _db_list(_grid(d, 0.0, 20.0, 5.0)), default_class="mc"),
        )
        blocks = ((VALIDATE_SCHEMES * VALIDATE_DRAWS + 1) * VALIDATE_BLOCKS
                  + FIG9_SIMULATIONS * FIG9_BLOCKS)
        return Workload(workload, commands, mc_blocks=blocks, pass_s=4.5)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("oblivious-relay", "miso-layering", "mc-oracle")


# -- known-defect probes ---------------------------------------------------

@dataclass(frozen=True)
class Probe:
    name: str
    defect: str
    strategy: str  # the closed form, named as its Monte-Carlo strategy
    alloc: object
    cfg: object

    def call(self):
        from relaycast import twolayer

        if self.strategy == "miso-unequal":
            return twolayer.miso_unequal_throughput(self.alloc, self.cfg.p_s, self.cfg.p_r)
        return twolayer.simplex_equal_throughput(self.alloc, self.cfg)


def probes(workload: str) -> list[Probe]:
    """Single public calls that fail today; each passes once it returns a
    finite value that agrees with the pinned Monte-Carlo oracle value."""
    from relaycast.model import PowerConfig, TwoLayerAllocation

    if workload == "miso-layering":
        return [Probe("miso-unequal-v1-outside", "D1", "miso-unequal",
                      TwoLayerAllocation(alpha=3 / 11, eta1=8 / 11, eta2=8 / 11),
                      PowerConfig(p_s=1e4, p_r=10 ** 0.4, q=1.0))]
    if workload == "oblivious-relay":
        cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
        return [Probe("simplex-alpha-0", "D2", "simplex-equal",
                      TwoLayerAllocation(alpha=0.0, eta1=0.5, eta2=1.0), cfg),
                Probe("simplex-eta1-eq-eta2", "D2", "simplex-equal",
                      TwoLayerAllocation(alpha=0.5, eta1=1.0, eta2=1.0), cfg),
                Probe("simplex-pr-0", "D2", "simplex-equal",
                      TwoLayerAllocation(alpha=0.5, eta1=0.5, eta2=1.0),
                      PowerConfig(p_s=10.0, p_r=0.0, q=100.0))]
    return []


def run_probe(probe: Probe, oracle: dict) -> tuple[bool, str]:
    """(passed, detail).  Any exception is a failed probe, never an abort."""
    try:
        value = probe.call().r_av
    except Exception as exc:  # the probe exists to record this
        return False, f"{type(exc).__name__}: {exc}"
    z = (value - oracle["mean"]) / oracle["stderr"]
    ok = math.isfinite(value) and abs(z) <= family_z(1)
    return ok, f"value {value!r}, oracle z {z:+.2f}"
