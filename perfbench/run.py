"""Benchmark of the relaycast CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oblivious-relay --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, as a table

One run imports the checkout's ``src/relaycast``, measures set-up in fresh
interpreters, then repeats the workload's command list (see workloads.py)
as many times as fit in ``--seconds`` at the workload's nominal pass time,
checking every CSV after each pass.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
tracer.py.  The known-defect probes run once per run, after the passes.
The untraced passes and the set-up imports run under the speed probe of
speedprobe.py, and the end-to-end times are main-thread CPU time rescaled to
its reference speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``# record``, carries the environment stamp, per-pass times,
probe outcomes, CSV hashes and any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import speedprobe
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9
# prints the CPU time, the CPU time at the probe's reference speed and the
# wall time of importing relaycast.cli and building its parser
SETUP_CODE = ("import time\n"
              "import speedprobe\n"
              "t0 = time.perf_counter()\n"
              "with speedprobe.SpeedProbe() as probe:\n"
              "    start = probe.mark()\n"
              "    import relaycast.cli\n"
              "    relaycast.cli.build_parser()\n"
              "    cpu, ref = probe.rescaled(start)\n"
              "print(cpu, ref, time.perf_counter() - t0)\n")
END_TO_END_UNITS = {"setup_s": "s", "ref_cpu_s": "s", "peak_rss_mb": "MiB"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import relaycast from this checkout's src/, never from elsewhere."""
    if not (SRC / "relaycast" / "cli.py").is_file():
        _fail(f"no relaycast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relaycast.cli

    if Path(relaycast.__file__).resolve().parent != SRC / "relaycast":
        _fail(f"imported relaycast from {relaycast.__file__}, not {SRC}")
    return relaycast.cli


# -- environment stamp -------------------------------------------------------

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    from relaycast import montecarlo

    return {"git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "rng_id": montecarlo.RNG_ID}


# -- measurement -------------------------------------------------------------

def measure_setup(samples: int) -> list[tuple[float, float, float]]:
    """Import relaycast.cli and build its parser in fresh interpreters;
    (CPU, reference-speed CPU, wall) seconds of each."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(HERE), str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(tuple(map(float, done.stdout.strip().splitlines()[-1].split())))
    return times


def run_pass(cli, workload, tracer=None, first_op=0, probe=None):
    """Run every command once; returns (wall seconds, per-command outcomes).

    Each outcome has the command's wall seconds ``s``; under a speed probe
    also its CPU seconds ``cpu_s`` and CPU seconds at the probe's reference
    speed ``ref_cpu_s``, both without the probe's own time."""
    outcomes = []
    sink = io.StringIO()
    with (tracer if tracer is not None else contextlib.nullcontext()), \
            (probe if probe is not None else contextlib.nullcontext()):
        t0 = time.perf_counter()
        for k, command in enumerate(workload.commands):
            if tracer is not None:
                tracer.run_id = first_op + k
            start = probe.mark() if probe is not None else None
            ts = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(list(command.argv))  # looked up per call: may be traced
                if code != 0:
                    error = f"exit code {code}"
            except (Exception, SystemExit) as exc:  # one failed operation; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            outcome = {"command": command.name, "s": time.perf_counter() - ts,
                       "error": error}
            if probe is not None:
                outcome["cpu_s"], outcome["ref_cpu_s"] = probe.rescaled(start)
            outcomes.append(outcome)
        wall = time.perf_counter() - t0
    return wall, outcomes


def check_pass(workload, outcomes, work: Path, reference: dict, seed: int):
    """Attach output-check problems and CSV hashes to this pass's outcomes."""
    for command, outcome in zip(workload.commands, outcomes):
        path = work / command.csv
        outcome["problems"] = checks.check_csv(command, path, reference["commands"][command.name],
                                               seed)
        outcome["sha256"] = checks.sha256(path) if path.is_file() else None
        if path.is_file():
            path.unlink()  # the next pass must write its own


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _import_program()
    reference = checks.load_reference()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.build(name, seed, str(work))
        n_cmd = len(workload.commands)
        passes, traced = [], []
        n_passes = workload.passes(seconds)
        if trace:  # untraced and traced passes alternate in the same time
            n_passes = max(1, n_passes // 2)
        else:
            # set-up samples go before, between and after the passes, so that
            # they see the same machine as the passes
            slots = [SETUP_RUNS // (n_passes + 1) + (j < SETUP_RUNS % (n_passes + 1))
                     for j in range(n_passes + 1)]
            record["setup_s"] = measure_setup(slots[0])
        probe = None if trace else speedprobe.SpeedProbe()
        for k in range(n_passes):
            wall, outcomes = run_pass(cli, workload, probe=probe)
            check_pass(workload, outcomes, work, reference, seed)
            passes.append({"wall_s": wall, "commands": outcomes})
            if trace:
                tr = tracing.Tracer()
                wall, outcomes = run_pass(cli, workload, tr, first_op=len(traced) * n_cmd)
                check_pass(workload, outcomes, work, reference, seed)
                traced.append({"wall_s": wall, "commands": outcomes, "tracer": tr})
            else:
                record["setup_s"] += measure_setup(slots[k + 1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    oracle = reference["probes"]
    record["probes"] = []
    for probe in workloads.probes(name):
        ok, detail = workloads.run_probe(probe, oracle[probe.name])
        record["probes"].append({"probe": probe.name, "defect": probe.defect,
                                 "passed": ok, "detail": detail})

    runs = passes + traced
    outcomes = [o for p in runs for o in p["commands"]]
    failed = sum(o["error"] is not None or bool(o["problems"]) for o in outcomes)
    problems = [f"{o['command']}: {o['error']}" for o in outcomes if o["error"]]
    problems += [msg for o in outcomes for msg in o["problems"]]
    wall = _median_pass(passes, "s")
    if trace:
        per_pass = [t["tracer"].metrics() for t in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = _median_pass(traced, "s") - wall
        units = {**tracing.metric_units(), "trace.overhead_s": "s"}
        record["self_s_total"] = [t["tracer"].total_self_seconds() for t in traced]
        record["traced_wall_s"] = [t["wall_s"] for t in traced]
        _write_spans(name, seed, traced)
    else:
        metrics = {"setup_s": statistics.median(ref for _, ref, _ in record["setup_s"]),
                   "ref_cpu_s": _median_pass(passes, "ref_cpu_s"),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        record["wall_s"] = wall
        record["cpu_s"] = _median_pass(passes, "cpu_s")
        record["setup_cpu_s"] = statistics.median(cpu for cpu, _, _ in record["setup_s"])
        record["setup_wall_s"] = statistics.median(w for _, _, w in record["setup_s"])
        if workload.mc_blocks:
            record["mc_blocks_per_s"] = workload.mc_blocks / wall
    record["passes"] = [{"wall_s": p["wall_s"],
                         "commands": {o["command"]: {"s": o["s"], "cpu_s": o.get("cpu_s"),
                                                     "ref_cpu_s": o.get("ref_cpu_s"),
                                                     "sha256": o["sha256"]}
                                      for o in p["commands"]}}
                        for p in runs]
    record["problems"] = problems
    result = {"correct": not problems, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return record, result


def _median_pass(passes, key: str) -> float:
    """Sum over the commands of each command's median time (``key``: ``s``,
    ``cpu_s`` or ``ref_cpu_s``) across passes.

    Bursts of slow CPU on a shared machine last seconds, so they usually hit
    one command of one pass; a per-command median drops them where a median
    of whole passes would keep a pass that one burst touched."""
    per_command = zip(*([o[key] for o in p["commands"]] for p in passes))
    return sum(statistics.median(times) for times in per_command)


def _write_spans(name: str, seed: int, traced) -> None:
    arrays = {}
    for n, t in enumerate(traced):
        for key, values in t["tracer"].spans().items():
            arrays[f"pass{n}_{key}"] = values
    np.savez(OUT / f"spans-{name}-seed{seed}.npz", **arrays)


# -- reporting ---------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    ok, env = True, None
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].split(" ", 2)[2])
        ok &= result["correct"]
        env = record["environment"]
        print(f"== {name} (seed {seed}, {len(record['passes'])} passes)")
        for key, m in result["metrics"].items():
            print(f"  {key:50s} {m['value']:14.6g} {m['unit']}")
        for key in ("wall_s", "cpu_s", "setup_cpu_s", "setup_wall_s"):
            if key in record:
                print(f"  {key:50s} {record[key]:14.6g} s")
        if "mc_blocks_per_s" in record:
            print(f"  {'mc_blocks_per_s':50s} {record['mc_blocks_per_s']:14.6g} blocks/s")
        probes = record["probes"]
        n_failed = sum(not p["passed"] for p in probes)
        print(f"  operations: {result['attempted'] + len(probes)} attempted, "
              f"{result['failed'] + n_failed} failed "
              f"(commands {result['attempted']}/{result['failed']}, "
              f"probes {len(probes)}/{n_failed})")
        for p in probes:
            print(f"  probe {p['probe']} ({p['defect']}): "
                  f"{'passed' if p['passed'] else 'FAILED'} - {p['detail']}")
        print(f"  output checks: {'passed' if result['correct'] else 'FAILED'}")
        for msg in record["problems"][:20]:
            print(f"    {msg}")
    if env:
        print(f"environment: {json.dumps(env)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="oblivious-relay, miso-layering, mc-oracle or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in record["problems"]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print("# record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
