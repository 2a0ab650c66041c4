"""Batch command-line front end.

Subcommands: ``rate`` (single evaluation), ``sweep`` (parameter sweep),
``figure`` (preset CSV sweeps), ``validate`` (closed forms vs the
Monte-Carlo oracle) and ``optimize`` (allocation search).  Powers and gains
are given in dB, outputs are nats/channel use unless --bits is passed.
Every CSV is written with 12 significant digits, POSIX newlines and UTF-8,
and is accompanied by a one-line JSON manifest recording the seed, grid and
artifact version, so identical invocations reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__, broadcast, figures, twolayer, validation
from .model import PowerConfig, TwoLayerAllocation
from .montecarlo import RNG_ID
from .optimize import maximize_throughput, oblivious_rate_plan
from .outage import (ergodic_miso_capacity, miso_single_layer_throughput,
                     optimal_single_user_rate, sdf_single_layer_throughput,
                     single_user_throughput)

DEFAULT_SEED = 20_240_001
SEED_ENV = "RELAYCAST_SEED"
LN2 = math.log(2.0)

_RATE_SCHEMES = ("single-user", "single-sdf", "miso-single", "ergodic-miso",
                 "direct", "miso-equal", "miso-unequal", "simplex-equal",
                 "simplex-unequal", "continuous-siso", "continuous-relay",
                 "continuous-miso")
_SWEEP_SCHEMES = ("single-user", "single-sdf", "miso-single", "direct-2",
                  "simplex-equal", "simplex-unequal-opt", "miso-equal",
                  "continuous-siso", "continuous-relay", "continuous-miso")
_OPT_SCHEMES = ("direct", "miso-equal", "miso-unequal", "simplex-equal",
                "simplex-unequal")


def _db2lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _bits_view(fieldnames, rows):
    renamed = [f.replace("_nats", "_bits") if f.endswith("_nats") else f
               for f in fieldnames]
    out_rows = []
    for row in rows:
        out = {}
        for key, val in row.items():
            if key.endswith("_nats"):
                out[key.replace("_nats", "_bits")] = (
                    val / LN2 if isinstance(val, float) else val)
            else:
                out[key] = val
        out_rows.append(out)
    return renamed, out_rows


def _write_csv(path: str | None, fieldnames, rows, bits=False):
    if bits:
        fieldnames, rows = _bits_view(fieldnames, rows)
    handle = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(f)) for f in fieldnames])
    finally:
        if path is not None:
            handle.close()


def _write_manifest(path: str | None, command: str, seed, grid, extra=None):
    if path is None:
        return
    info = {"artifact": f"relaycast {__version__}", "command": command,
            "seed": seed, "grid": grid, "rng": RNG_ID}
    if extra:
        info.update(extra)
    Path(path + ".manifest.json").write_text(
        json.dumps(info, sort_keys=True) + "\n", encoding="utf-8")


def _parse_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _alloc_from_args(args) -> TwoLayerAllocation:
    if args.alpha is None or args.eta1 is None or args.eta2 is None:
        raise SystemExit("this scheme needs --alpha, --eta1 and --eta2")
    beta = args.alpha if args.beta is None else args.beta
    return TwoLayerAllocation(alpha=args.alpha, eta1=args.eta1, eta2=args.eta2, beta=beta)


def _cmd_rate(args) -> int:
    cfg = PowerConfig(p_s=_db2lin(args.ps_db), p_r=_db2lin(args.pr_db),
                      q=_db2lin(args.q_db))
    scheme = args.scheme
    row = {"scheme": scheme, "ps_db": args.ps_db, "pr_db": args.pr_db,
           "q_db": args.q_db, "alpha": args.alpha, "beta": args.beta,
           "eta1": args.eta1, "eta2": args.eta2, "rate_nats": args.rate,
           "r1_nats": None, "r2_nats": None, "p_layer1": None, "p_both": None}

    if scheme in ("single-user", "single-sdf", "miso-single"):
        rate = args.rate if args.rate is not None else optimal_single_user_rate(cfg.p_s)
        row["rate_nats"] = rate
        res = {"single-user": lambda: single_user_throughput(rate, cfg.p_s),
               "single-sdf": lambda: sdf_single_layer_throughput(rate, cfg),
               "miso-single": lambda: miso_single_layer_throughput(rate, cfg.p_s, cfg.p_r),
               }[scheme]()
    elif scheme == "ergodic-miso":
        row["throughput_nats"] = ergodic_miso_capacity(cfg.p_s, cfg.p_r)
        res = None
    elif scheme.startswith("continuous"):
        if scheme == "continuous-siso":
            row["throughput_nats"] = broadcast.siso_broadcast_rate(cfg.p_s)
        else:
            row["throughput_nats"] = broadcast.relay_or_miso_broadcast_bound(
                cfg, scheme.split("-")[1])
        res = None
    else:
        alloc = _alloc_from_args(args)
        row.update({"alpha": alloc.alpha, "beta": alloc.beta,
                    "eta1": alloc.eta1, "eta2": alloc.eta2})
        res = {"direct": lambda: twolayer.direct_multilayer_throughput(
                   (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar), cfg.p_s),
               "miso-equal": lambda: twolayer.miso_equal_throughput(
                   (alloc.eta1, alloc.eta2), (alloc.alpha, alloc.alpha_bar),
                   cfg.p_s, cfg.p_r),
               "miso-unequal": lambda: twolayer.miso_unequal_throughput(
                   alloc, cfg.p_s, cfg.p_r),
               "simplex-equal": lambda: twolayer.simplex_equal_throughput(alloc, cfg),
               "simplex-unequal": lambda: twolayer.simplex_unequal_throughput(alloc, cfg),
               }[scheme]()
    if res is not None:
        row.update({"r1_nats": res.r1, "r2_nats": res.r2, "p_layer1": res.p_layer1,
                    "p_both": res.p_both, "throughput_nats": res.r_av})

    fields = ["scheme", "ps_db", "pr_db", "q_db", "alpha", "beta", "eta1", "eta2",
              "rate_nats", "r1_nats", "r2_nats", "p_layer1", "p_both",
              "throughput_nats"]
    _write_csv(args.out, fields, [row], bits=args.bits)
    _write_manifest(args.out, "rate", args.seed,
                    {"ps_db": args.ps_db, "pr_db": args.pr_db, "q_db": args.q_db})
    return 0


_PLAN_SCHEMES = ("direct-2", "miso-equal", "simplex-equal", "simplex-unequal-opt")


def _sweep_point(scheme: str, ps_db: float, q_db: float, ratio: float,
                 plan: TwoLayerAllocation | None):
    """One sweep value; ``plan`` is the oblivious plan at ``ps_db`` for the
    schemes in _PLAN_SCHEMES and None for the others."""
    p_s = _db2lin(ps_db)
    cfg = PowerConfig(p_s=p_s, p_r=ratio * p_s, q=_db2lin(q_db))
    if scheme == "single-user":
        return single_user_throughput(optimal_single_user_rate(p_s), p_s).r_av
    if scheme == "single-sdf":
        return sdf_single_layer_throughput(optimal_single_user_rate(p_s), cfg).r_av
    if scheme == "miso-single":
        return figures.optimal_single_layer_miso_rate(p_s, cfg.p_r)
    if scheme == "continuous-siso":
        return broadcast.siso_broadcast_rate(p_s)
    if scheme in ("continuous-relay", "continuous-miso"):
        return broadcast.relay_or_miso_broadcast_bound(cfg, scheme.split("-")[1])
    if scheme == "direct-2":
        return twolayer.direct_multilayer_throughput(
            (plan.eta1, plan.eta2), (plan.alpha, plan.alpha_bar), p_s).r_av
    if scheme == "miso-equal":
        return twolayer.miso_equal_throughput(
            (plan.eta1, plan.eta2), (plan.alpha, plan.alpha_bar), p_s, cfg.p_r).r_av
    if scheme == "simplex-equal":
        return twolayer.simplex_equal_throughput(plan, cfg).r_av
    if scheme == "simplex-unequal-opt":
        return maximize_throughput(
            "simplex-unequal", ("beta",),
            {"alpha": plan.alpha, "eta1": plan.eta1, "eta2": plan.eta2},
            cfg, coarse_points=12).value
    raise SystemExit(f"unknown sweep scheme {scheme!r}")


def _cmd_sweep(args) -> int:
    if args.ps_db_step <= 0.0 or args.ps_db_stop < args.ps_db_start:
        raise SystemExit("invalid --ps-db grid")
    n = int(round((args.ps_db_stop - args.ps_db_start) / args.ps_db_step))
    ps_grid = [args.ps_db_start + i * args.ps_db_step for i in range(n + 1)]
    points = [(ps, q, r) for ps in ps_grid for q in args.q_db for r in args.ratio]

    def plan_at(ps):
        return oblivious_rate_plan(_db2lin(ps), 2)

    def evaluate(point):
        ps, q, r = point
        return {"ps_db": ps, "q_db": q, "pr_over_ps": r, "scheme": args.scheme,
                "throughput_nats": _sweep_point(args.scheme, ps, q, r, plans.get(ps))}

    with (ThreadPoolExecutor(max_workers=args.workers) if args.workers > 1
          else contextlib.nullcontext()) as pool:
        mapper = map if pool is None else pool.map  # both keep grid order
        # the source plan depends on P_s alone: one per grid point, this run only
        plans = (dict(zip(ps_grid, mapper(plan_at, ps_grid)))
                 if args.scheme in _PLAN_SCHEMES else {})
        rows = list(mapper(evaluate, points))
    fields = ["ps_db", "q_db", "pr_over_ps", "scheme", "throughput_nats"]
    _write_csv(args.out, fields, rows, bits=args.bits)
    _write_manifest(args.out, "sweep", args.seed,
                    {"ps_db": ps_grid, "q_db": args.q_db, "ratios": args.ratio,
                     "scheme": args.scheme})
    return 0


_PLOT_STUB = """\
#!/usr/bin/env python3
# generic viewer for relaycast figure CSVs: throughput vs the first column,
# one line per scheme (and per remaining grid columns)
import sys
import pandas as pd
import matplotlib.pyplot as plt

df = pd.read_csv(sys.argv[1])
x = df.columns[0]
y = [c for c in df.columns if c.startswith("throughput")][0]
keys = [c for c in df.columns if c not in (x, y) and not c.startswith("stderr")]
for label, group in df.groupby(keys) if keys else [("all", df)]:
    plt.plot(group[x], group[y], marker="o", label=str(label))
plt.xlabel(x)
plt.ylabel(y)
plt.legend(fontsize=7)
plt.grid(alpha=0.3)
plt.show()
"""


def _cmd_figure(args) -> int:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    overrides = {"ps_db": args.ps_db, "q_db": args.q_db, "ratios": args.ratio,
                 "pr_db": args.pr_db, "blocks": args.blocks, "seed": args.seed,
                 "workers": args.workers}
    fields, rows, grid = figures.run_preset(args.name, **overrides)
    path = str(out_dir / f"{args.name}.csv")
    _write_csv(path, fields, rows, bits=args.bits)
    _write_manifest(path, f"figure {args.name}", args.seed, grid)
    if args.plot_stub:
        (out_dir / "plot_csv.py").write_text(_PLOT_STUB, encoding="utf-8")
    print(path)
    return 0


def _cmd_validate(args) -> int:
    rows = validation.run_validation(args.draws, args.blocks, args.seed,
                                     workers=args.workers)
    failures = [r for r in rows if not r.ok(args.z_max)]
    adopted_z, literal_z, _ = validation.convention_arbitration(args.blocks, args.seed)
    convention_ok = abs(adopted_z) <= args.z_max and abs(literal_z) > 10.0

    out_rows = [{"scheme": r.scheme, "index": r.index, "analytic_nats": r.analytic,
                 "mc_nats": r.mc_mean, "stderr_nats": r.mc_stderr, "z": r.z}
                for r in rows]
    fields = ["scheme", "index", "analytic_nats", "mc_nats", "stderr_nats", "z"]
    if args.out:
        _write_csv(args.out, fields, out_rows)
        _write_manifest(args.out, "validate", args.seed,
                        {"draws": args.draws, "blocks": args.blocks})

    per_scheme: dict[str, float] = {}
    for r in rows:
        per_scheme[r.scheme] = max(per_scheme.get(r.scheme, 0.0), abs(r.z))
    for scheme, worst in sorted(per_scheme.items()):
        print(f"{scheme:18s} worst |z| = {worst:5.2f}  "
              f"({'ok' if worst <= args.z_max else 'VIOLATION'})")
    print(f"convention-check   adopted z = {adopted_z:+.2f}, literal z = {literal_z:+.1f}  "
          f"({'ok' if convention_ok else 'VIOLATION'})")
    if failures or not convention_ok:
        for r in failures:
            print(f"violation: {r.scheme}[{r.index}] analytic={r.analytic:.6g} "
                  f"mc={r.mc_mean:.6g} z={r.z:+.2f}", file=sys.stderr)
        return 1
    return 0


def _cmd_optimize(args) -> int:
    cfg = PowerConfig(p_s=_db2lin(args.ps_db), p_r=_db2lin(args.pr_db),
                      q=_db2lin(args.q_db))
    free = [tok.strip() for tok in args.free.split(",") if tok.strip()]
    fixed = {}
    for name in ("alpha", "beta", "eta1", "eta2"):
        val = getattr(args, name)
        if name not in free and val is not None:
            fixed[name] = val
    needed = {"alpha", "eta1", "eta2"} - set(free) - set(fixed)
    if needed:
        raise SystemExit(f"missing fixed parameters: {sorted(needed)} "
                         f"(pass flags or add them to --free)")
    result = maximize_throughput(args.scheme, free, fixed, cfg,
                                 coarse_points=args.coarse)
    row = {"scheme": args.scheme, "free": "+".join(free), "ps_db": args.ps_db,
           "pr_db": args.pr_db, "q_db": args.q_db, **result.params,
           "throughput_nats": result.value, "n_evals": result.n_evals}
    fields = ["scheme", "free", "ps_db", "pr_db", "q_db", "alpha", "beta",
              "eta1", "eta2", "throughput_nats", "n_evals"]
    _write_csv(args.out, fields, [row], bits=args.bits)
    _write_manifest(args.out, "optimize", args.seed,
                    {"scheme": args.scheme, "free": free, "fixed": fixed})
    return 0


def _add_power_flags(p):
    p.add_argument("--ps-db", type=float, default=10.0, help="source power [dB]")
    p.add_argument("--pr-db", type=float, default=10.0, help="relay power [dB]")
    p.add_argument("--q-db", type=float, default=20.0, help="collocation gain [dB]")


def _add_alloc_flags(p):
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--eta2", type=float, default=None)


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycast",
        description="Layered broadcast-approach throughput for the collocated "
                    "relay channel (powers in dB, rates in nats unless --bits)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (keys are option "
                             "names with underscores); explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add_parser(*a, **kw):
        p = sub.add_parser(*a, **kw)
        subparsers.append(p)
        return p

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output CSV path")
    common.add_argument("--bits", action="store_true",
                        help="report rates in bits instead of nats")
    common.add_argument("--seed", type=int,
                        default=int(os.environ.get(SEED_ENV, DEFAULT_SEED)))
    common.add_argument("--workers", type=int, default=1)

    p = add_parser("rate", parents=[common], help="single evaluation")
    p.add_argument("--scheme", choices=_RATE_SCHEMES, required=True)
    p.add_argument("--rate", type=float, default=None,
                   help="attempted rate [nats] for the single-layer schemes "
                        "(default: the optimal single-user rate)")
    _add_power_flags(p)
    _add_alloc_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = add_parser("sweep", parents=[common], help="grid sweep to CSV")
    p.add_argument("--scheme", choices=_SWEEP_SCHEMES, required=True)
    p.add_argument("--ps-db-start", type=float, default=0.0)
    p.add_argument("--ps-db-stop", type=float, default=25.0)
    p.add_argument("--ps-db-step", type=float, default=2.5)
    p.add_argument("--q-db", type=_parse_list, default=[20.0])
    p.add_argument("--ratio", type=_parse_list, default=[1.0],
                   help="comma list of P_r/P_s ratios")
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("figure", parents=[common],
                       help="preset CSV sweeps (fig2..fig9)")
    p.add_argument("name", choices=sorted(figures.PRESETS))
    p.add_argument("--ps-db", type=_parse_list, default=None)
    p.add_argument("--pr-db", type=_parse_list, default=None)
    p.add_argument("--q-db", type=_parse_list, default=None)
    p.add_argument("--ratio", type=_parse_list, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--plot-stub", action="store_true",
                   help="also emit a generic matplotlib viewer script")
    p.set_defaults(func=_cmd_figure)

    p = add_parser("validate", parents=[common],
                       help="closed forms vs the Monte-Carlo oracle")
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--blocks", type=int, default=1_000_000)
    p.add_argument("--z-max", type=float, default=3.0)
    p.set_defaults(func=_cmd_validate)

    p = add_parser("optimize", parents=[common], help="allocation search")
    p.add_argument("--scheme", choices=_OPT_SCHEMES, required=True)
    p.add_argument("--free", type=str, default="alpha,eta1,eta2",
                   help="comma list among alpha,beta,eta1,eta2")
    p.add_argument("--coarse", type=int, default=None,
                   help="coarse grid points per free dimension")
    _add_power_flags(p)
    _add_alloc_flags(p)
    p.set_defaults(func=_cmd_optimize)

    if config_defaults:
        for sp in subparsers:
            sp.set_defaults(**config_defaults)
    return parser


def _extract_config_path(argv) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    config_defaults = None
    config_path = _extract_config_path(argv)
    if config_path:
        try:
            config_defaults = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"relaycast: cannot read config: {exc}", file=sys.stderr)
            return 1
    args = build_parser(config_defaults).parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"relaycast: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
