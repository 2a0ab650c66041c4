"""Batch command-line front end.

Subcommands: ``rate`` (single evaluation), ``sweep`` (parameter sweep),
``figure`` (preset CSV sweeps), ``validate`` (closed forms vs the
Monte-Carlo oracle) and ``optimize`` (allocation search).  Powers and gains
are given in dB, outputs are nats/channel use unless --bits is passed.
Every CSV is written with 12 significant digits, POSIX newlines and UTF-8,
and is accompanied by a one-line JSON manifest recording the seed, grid and
artifact version, so identical invocations reproduce identical bytes.
Errors and Python warnings reach stderr as one ``relaycast: ...`` line each.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import warnings
from pathlib import Path

from . import __version__, figures, twolayer, validation
from .model import PowerConfig, TwoLayerAllocation
from .montecarlo import RNG_ID
from .optimize import maximize_throughput

DEFAULT_SEED = 20_240_001
SEED_ENV = "RELAYCAST_SEED"
LN2 = math.log(2.0)

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _write_csv(path: str | None, fieldnames, rows, bits=False):
    """Write ``rows`` as CSV; with ``bits`` every *_nats column is renamed
    *_bits and its float cells are divided by ln 2."""
    to_bits = [bits and f.endswith("_nats") for f in fieldnames]
    handle = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f.removesuffix("_nats") + "_bits" if b else f
                         for f, b in zip(fieldnames, to_bits)])
        for row in rows:
            cells = (row.get(f) for f in fieldnames)
            writer.writerow([_fmt(v / LN2 if b and isinstance(v, float) else v)
                             for v, b in zip(cells, to_bits)])
    finally:
        if path is not None:
            handle.close()


def _write_manifest(path: str | None, command: str, seed, grid):
    if path is None:
        return
    info = {"artifact": f"relaycast {__version__}", "command": command,
            "seed": seed, "grid": grid, "rng": RNG_ID}
    Path(path + ".manifest.json").write_text(
        json.dumps(info, sort_keys=True) + "\n", encoding="utf-8")


def _parse_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _power_config(args) -> PowerConfig:
    return PowerConfig(p_s=figures._db2lin(args.ps_db),
                       p_r=figures._db2lin(args.pr_db), q=figures._db2lin(args.q_db))


def _alloc_from_args(args) -> TwoLayerAllocation:
    if args.alpha is None or args.eta1 is None or args.eta2 is None:
        raise SystemExit("this scheme needs --alpha, --eta1 and --eta2")
    beta = args.alpha if args.beta is None else args.beta
    return TwoLayerAllocation(alpha=args.alpha, eta1=args.eta1, eta2=args.eta2, beta=beta)


def _cmd_rate(args) -> int:
    cfg = _power_config(args)
    scheme = args.scheme
    row = {"scheme": scheme, "ps_db": args.ps_db, "pr_db": args.pr_db,
           "q_db": args.q_db, "alpha": args.alpha, "beta": args.beta,
           "eta1": args.eta1, "eta2": args.eta2, "rate_nats": args.rate,
           "r1_nats": None, "r2_nats": None, "p_layer1": None, "p_both": None,
           "throughput_nats": None}

    if scheme in figures._BOUNDS:
        row["throughput_nats"] = figures._BOUNDS[scheme](cfg)
    else:
        if scheme in figures._SINGLE_LAYER:
            default_rate, throughput = figures._SINGLE_LAYER[scheme]
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

    _write_csv(args.out, list(row), [row], bits=args.bits)
    _write_manifest(args.out, "rate", args.seed,
                    {"ps_db": args.ps_db, "pr_db": args.pr_db, "q_db": args.q_db})
    return 0


def _cmd_sweep(args) -> int:
    start, stop, step = args.ps_db_start, args.ps_db_stop, args.ps_db_step
    # NaN fails every test here, and an infinite bound or count the last one,
    # as does a grid of more than 10^6 points (each one an oblivious plan)
    if not (start <= stop and 0.0 < step < math.inf and (stop - start) / step < 1e6 - 1):
        raise SystemExit("invalid --ps-db grid")
    ps_grid = figures._ps_grid(start, stop, step)
    rows = figures._oblivious_rows(ps_grid, args.q_db, args.ratio, (args.scheme,))
    _write_csv(args.out, figures._ROW_FIELDS, rows, bits=args.bits)
    _write_manifest(args.out, "sweep", args.seed,
                    {"ps_db": ps_grid, "q_db": args.q_db, "ratios": args.ratio,
                     "scheme": args.scheme})
    return 0


def _cmd_figure(args) -> int:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    # seed and workers are set by flags of their own name
    overrides = {param: getattr(args, _GRID_FLAGS.get(param, (param,))[0])
                 for param in inspect.signature(figures.PRESETS[args.name]).parameters}
    fields, rows, grid = figures.run_preset(args.name, **overrides)
    path = str(out_dir / f"{args.name}.csv")
    _write_csv(path, fields, rows, bits=args.bits)
    _write_manifest(path, f"figure {args.name}", args.seed, grid)
    print(path)
    return 0


def _cmd_validate(args) -> int:
    rows = validation.run_validation(args.draws, args.blocks, args.seed,
                                     workers=args.workers)
    # every corpus case plus the convention check
    z_max = validation.family_z(len(rows) + 1) if args.z_max is None else args.z_max
    failures = [r for r in rows if not r.ok(z_max)]
    adopted_z, literal_z, _ = validation.convention_arbitration(args.blocks, args.seed)
    # the readings' gap grows like sqrt(blocks); up to 10 it decides nothing
    convention = ("inconclusive" if abs(literal_z - adopted_z) <= 10.0 else
                  "ok" if abs(adopted_z) <= z_max and abs(literal_z) > 10.0 else
                  "VIOLATION")

    out_rows = [{"scheme": r.scheme, "index": r.index, "analytic_nats": r.analytic,
                 "mc_nats": r.mc_mean, "stderr_nats": r.mc_stderr, "z": r.z}
                for r in rows]
    fields = ["scheme", "index", "analytic_nats", "mc_nats", "stderr_nats", "z"]
    if args.out:
        _write_csv(args.out, fields, out_rows, bits=args.bits)
        _write_manifest(args.out, "validate", args.seed,
                        {"draws": args.draws, "blocks": args.blocks})

    per_scheme: dict[str, float] = {}
    for r in rows:
        per_scheme[r.scheme] = max(per_scheme.get(r.scheme, 0.0), abs(r.z))
    for scheme, worst in sorted(per_scheme.items()):
        print(f"{scheme:18s} worst |z| = {worst:5.2f}  "
              f"({'ok' if worst <= z_max else 'VIOLATION'})")
    print(f"convention-check   adopted z = {adopted_z:+.2f}, literal z = {literal_z:+.1f}  "
          f"({convention})")
    if failures or convention == "VIOLATION":
        for r in failures:
            print(f"violation: {r.scheme}[{r.index}] analytic={r.analytic:.6g} "
                  f"mc={r.mc_mean:.6g} z={r.z:+.2f}", file=sys.stderr)
        return 1
    return 0


def _cmd_optimize(args) -> int:
    cfg = _power_config(args)
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


def _at_least(kind, low):
    """An argparse type: ``kind`` of the flag's text, at least ``low`` (NaN is not)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _at_least(int, 1)


# a figure preset's grid parameter -> (its flag's dest, the flag's type)
_GRID_FLAGS = {"ps_db": ("ps_db", _parse_list), "pr_db": ("pr_db", _parse_list),
               "q_db": ("q_db", _parse_list), "ratios": ("ratio", _parse_list),
               "blocks": ("blocks", _positive_int)}


def _add_workers_flag(p, help_text):
    p.add_argument("--workers", type=_positive_int, default=1, help=help_text)


def _flag_text(value):
    """A config value as command-line text, so that argparse converts and
    checks it through the option's type=, as it does a flag: lists are
    comma-joined, numbers written by repr; strings, booleans and null stay."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    return value


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycast", allow_abbrev=False,
        description="Layered broadcast-approach throughput for the collocated "
                    "relay channel (powers in dB, rates in nats unless --bits)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (keys are option "
                             "names with underscores); explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output CSV path")
    common.add_argument("--bits", action="store_true",
                        help="report rates in bits instead of nats")
    common.add_argument("--seed", type=int,
                        default=os.environ.get(SEED_ENV, str(DEFAULT_SEED)))

    p = sub.add_parser("rate", parents=[common], help="single evaluation")
    p.add_argument("--scheme", required=True,
                   choices=(*figures._SINGLE_LAYER, *figures._BOUNDS, *twolayer.CLOSED_FORMS))
    p.add_argument("--rate", type=float, default=None,
                   help="attempted rate [nats] for the single-layer schemes "
                        "(default: the optimal single-user rate; miso-single: "
                        "its own optimal rate)")
    _add_power_flags(p)
    _add_alloc_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("sweep", parents=[common], help="grid sweep to CSV")
    p.add_argument("--scheme", required=True,
                   choices=(*figures._SINGLE_LAYER, *figures._BOUNDS, *figures._PLAN_SCHEMES))
    p.add_argument("--ps-db-start", type=float, default=0.0)
    p.add_argument("--ps-db-stop", type=float, default=25.0)
    p.add_argument("--ps-db-step", type=float, default=2.5)
    p.add_argument("--q-db", type=_parse_list, default=[20.0])
    p.add_argument("--ratio", type=_parse_list, default=[1.0],
                   help="comma list of P_r/P_s ratios")
    _add_workers_flag(p, "accepted for scripts shared with figure and validate; "
                         "sweep runs on one thread")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="preset CSV sweeps (fig2..fig9)")
    presets = p.add_subparsers(dest="name", required=True)
    for name, preset in sorted(figures.PRESETS.items()):
        p = presets.add_parser(name, parents=[common], help=preset.__doc__.splitlines()[0])
        for param in inspect.signature(preset).parameters.values():
            if param.name in _GRID_FLAGS:
                dest, kind = _GRID_FLAGS[param.name]
                p.add_argument("--" + dest.replace("_", "-"), type=kind, default=param.default)
        _add_workers_flag(p, "threads for the Monte-Carlo simulations of fig9")
        p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("validate", parents=[common],
                       help="closed forms vs the Monte-Carlo oracle")
    p.add_argument("--draws", type=_positive_int, default=50)
    p.add_argument("--blocks", type=_positive_int, default=1_000_000)
    p.add_argument("--z-max", type=_at_least(float, 0), default=None,
                   help="largest |z| accepted per comparison, from 0 to inf "
                        "(default: the two-sided Bonferroni bound for the run's "
                        "comparisons at a family false-alarm rate of 1e-3)")
    _add_workers_flag(p, "threads for the Monte-Carlo simulations")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("optimize", parents=[common], help="allocation search")
    p.add_argument("--scheme", choices=tuple(twolayer.CLOSED_FORMS), required=True)
    p.add_argument("--free", type=str, default="alpha,eta1,eta2",
                   help="comma list among alpha,beta,eta1,eta2")
    p.add_argument("--coarse", type=_positive_int, default=None,
                   help="coarse grid points per free dimension")
    _add_power_flags(p)
    _add_alloc_flags(p)
    p.set_defaults(func=_cmd_optimize)

    if config_defaults:
        subparsers = (*sub.choices.values(), *presets.choices.values())
        options = {a.dest for sp in (parser, *subparsers) for a in sp._actions
                   if a.option_strings}
        unknown = sorted(set(config_defaults) - options)
        if unknown:
            raise ValueError(f"config keys that name no option: {', '.join(unknown)}")
        defaults = {key: _flag_text(val) for key, val in config_defaults.items()}
        for sp in subparsers:
            sp.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="relaycast", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    config_defaults = None
    if config_path:
        try:
            config_defaults = json.loads(Path(config_path).read_text(encoding="utf-8"))
            if not isinstance(config_defaults, dict):
                raise ValueError("the top level must be a JSON object")
        except (OSError, ValueError) as exc:
            print(f"relaycast: cannot read config: {exc}", file=sys.stderr)
            return 1
    try:
        parser = build_parser(config_defaults)
    except ValueError as exc:  # a config key that names no option
        print(f"relaycast: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    # only the format: warnings.showwarning stays whatever the caller installed
    formatwarning, warnings.formatwarning = warnings.formatwarning, (
        lambda message, *_: "relaycast: warning: " + " ".join(str(message).split()) + "\n")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"relaycast: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
