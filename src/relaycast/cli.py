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
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, broadcast, figures, twolayer, validation
from .model import PowerConfig, TwoLayerAllocation
from .montecarlo import RNG_ID
from .optimize import maximize_throughput, miso_single_layer_rate
from .outage import (ergodic_miso_capacity, miso_single_layer_throughput,
                     optimal_single_user_rate, sdf_single_layer_throughput,
                     single_user_throughput)

DEFAULT_SEED = 20_240_001
SEED_ENV = "RELAYCAST_SEED"
LN2 = math.log(2.0)

# single-layer schemes: (the source's default rate, throughput at a rate)
_SINGLE_LAYER = {
    "single-user": (lambda cfg: optimal_single_user_rate(cfg.p_s),
                    lambda r, cfg: single_user_throughput(r, cfg.p_s)),
    "single-sdf": (lambda cfg: optimal_single_user_rate(cfg.p_s),
                   lambda r, cfg: sdf_single_layer_throughput(r, cfg)),
    "miso-single": (lambda cfg: miso_single_layer_rate(cfg.p_s, cfg.p_r),
                    lambda r, cfg: miso_single_layer_throughput(r, cfg.p_s, cfg.p_r)),
}
# schemes with a throughput and no rate plan
_BOUNDS = {
    "ergodic-miso": lambda cfg: ergodic_miso_capacity(cfg.p_s, cfg.p_r),
    "continuous-siso": lambda cfg: broadcast.siso_broadcast_rate(cfg.p_s),
    "continuous-relay": lambda cfg: broadcast.relay_or_miso_broadcast_bound(cfg, "relay"),
    "continuous-miso": lambda cfg: broadcast.relay_or_miso_broadcast_bound(cfg, "miso"),
}
# sweep schemes that follow the source's oblivious plan (figures._oblivious_rows)
_PLAN_SCHEMES = ("direct-2", "simplex-equal", "simplex-unequal-opt", "miso-equal")


def _throughput(scheme: str, cfg: PowerConfig) -> float:
    """A _SINGLE_LAYER scheme at its default rate, or a _BOUNDS scheme."""
    if scheme in _BOUNDS:
        return _BOUNDS[scheme](cfg)
    default_rate, throughput = _SINGLE_LAYER[scheme]
    return throughput(default_rate(cfg), cfg).r_av


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
    cfg = PowerConfig(p_s=figures._db2lin(args.ps_db),
                      p_r=figures._db2lin(args.pr_db), q=figures._db2lin(args.q_db))
    scheme = args.scheme
    row = {"scheme": scheme, "ps_db": args.ps_db, "pr_db": args.pr_db,
           "q_db": args.q_db, "alpha": args.alpha, "beta": args.beta,
           "eta1": args.eta1, "eta2": args.eta2, "rate_nats": args.rate,
           "r1_nats": None, "r2_nats": None, "p_layer1": None, "p_both": None}

    if scheme in _BOUNDS:
        row["throughput_nats"] = _BOUNDS[scheme](cfg)
    else:
        if scheme in _SINGLE_LAYER:
            default_rate, throughput = _SINGLE_LAYER[scheme]
            if args.rate is None:
                row["rate_nats"] = default_rate(cfg)
            res = throughput(row["rate_nats"], cfg)
        else:
            alloc = _alloc_from_args(args)
            row.update({"alpha": alloc.alpha, "beta": alloc.beta,
                        "eta1": alloc.eta1, "eta2": alloc.eta2})
            res = twolayer.CLOSED_FORMS[scheme](alloc, cfg)
        row.update({"r1_nats": res.r1, "r2_nats": res.r2, "p_layer1": res.p_layer1,
                    "p_both": res.p_both, "throughput_nats": res.r_av})

    fields = ["scheme", "ps_db", "pr_db", "q_db", "alpha", "beta", "eta1", "eta2",
              "rate_nats", "r1_nats", "r2_nats", "p_layer1", "p_both",
              "throughput_nats"]
    _write_csv(args.out, fields, [row], bits=args.bits)
    _write_manifest(args.out, "rate", args.seed,
                    {"ps_db": args.ps_db, "pr_db": args.pr_db, "q_db": args.q_db})
    return 0


def _cmd_sweep(args) -> int:
    if args.ps_db_step <= 0.0 or args.ps_db_stop < args.ps_db_start:
        raise SystemExit("invalid --ps-db grid")
    ps_grid = figures._ps_grid(args.ps_db_start, args.ps_db_stop, args.ps_db_step)
    if args.scheme in _PLAN_SCHEMES:
        rows = figures._oblivious_rows(ps_grid, args.q_db, args.ratio, (args.scheme,))
    else:
        rows = []
        for ps in ps_grid:
            p_s = figures._db2lin(ps)
            for q in args.q_db:
                for r in args.ratio:
                    cfg = PowerConfig(p_s=p_s, p_r=r * p_s, q=figures._db2lin(q))
                    rows.append({"ps_db": ps, "q_db": q, "pr_over_ps": r,
                                 "scheme": args.scheme,
                                 "throughput_nats": _throughput(args.scheme, cfg)})
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
    cfg = PowerConfig(p_s=figures._db2lin(args.ps_db),
                      p_r=figures._db2lin(args.pr_db), q=figures._db2lin(args.q_db))
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_workers_flag(p, help_text):
    p.add_argument("--workers", type=_positive_int, default=1, help=help_text)


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

    p = add_parser("rate", parents=[common], help="single evaluation")
    p.add_argument("--scheme", choices=(*_SINGLE_LAYER, *_BOUNDS, *twolayer.CLOSED_FORMS),
                   required=True)
    p.add_argument("--rate", type=float, default=None,
                   help="attempted rate [nats] for the single-layer schemes "
                        "(default: the optimal single-user rate; miso-single: "
                        "its own optimal rate)")
    _add_power_flags(p)
    _add_alloc_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = add_parser("sweep", parents=[common], help="grid sweep to CSV")
    p.add_argument("--scheme", choices=(*_SINGLE_LAYER, *_BOUNDS, *_PLAN_SCHEMES),
                   required=True)
    p.add_argument("--ps-db-start", type=float, default=0.0)
    p.add_argument("--ps-db-stop", type=float, default=25.0)
    p.add_argument("--ps-db-step", type=float, default=2.5)
    p.add_argument("--q-db", type=_parse_list, default=[20.0])
    p.add_argument("--ratio", type=_parse_list, default=[1.0],
                   help="comma list of P_r/P_s ratios")
    _add_workers_flag(p, "accepted for scripts shared with figure and validate; "
                         "sweep runs on one thread")
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
    _add_workers_flag(p, "threads for the Monte-Carlo simulations of fig9")
    p.set_defaults(func=_cmd_figure)

    p = add_parser("validate", parents=[common],
                       help="closed forms vs the Monte-Carlo oracle")
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("--blocks", type=int, default=1_000_000)
    p.add_argument("--z-max", type=float, default=3.0)
    _add_workers_flag(p, "threads for the Monte-Carlo simulations")
    p.set_defaults(func=_cmd_validate)

    p = add_parser("optimize", parents=[common], help="allocation search")
    p.add_argument("--scheme", choices=tuple(twolayer.CLOSED_FORMS), required=True)
    p.add_argument("--free", type=str, default="alpha,eta1,eta2",
                   help="comma list among alpha,beta,eta1,eta2")
    p.add_argument("--coarse", type=_positive_int, default=None,
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
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"relaycast: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
