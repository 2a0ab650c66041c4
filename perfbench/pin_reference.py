"""Write perfbench/reference.json: the pinned outputs the benchmark checks.

    python3 perfbench/pin_reference.py

Runs every workload's commands once at the default seed and stores each
CSV's header and cells, and estimates each known-defect probe's value with
the Monte-Carlo oracle.  Re-pin only when a change is meant to move the
numbers, and say by how much in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

PROBE_BLOCKS = 4_000_000


def probe_oracle() -> dict:
    from relaycast.montecarlo import SimConfig, simulate_strategy

    out = {}
    for probe in (p for name in workloads.WORKLOADS for p in workloads.probes(name)):
        est = simulate_strategy(SimConfig(blocks=PROBE_BLOCKS, seed=workloads.CLI_SEED,
                                          strategy=probe.strategy, params=probe.alloc),
                                probe.cfg)
        out[probe.name] = {"mean": est.mean, "stderr": est.stderr, "blocks": est.blocks,
                           "seed": est.seed}
    return out


def main() -> int:
    cli = run._import_program()
    seed = workloads.DEFAULT_SEED
    commands = {}
    run.OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=run.OUT)
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, seed, work)
            _, outcomes = run.run_pass(cli, workload)
            for command, outcome in zip(workload.commands, outcomes):
                if outcome["error"]:
                    print(f"{command.name}: {outcome['error']}", file=sys.stderr)
                    return 1
                header, rows = checks.read_csv(Path(work) / command.csv)
                commands[command.name] = {"seed": seed, "header": header, "rows": rows}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"commands": commands, "probes": probe_oracle()}
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
