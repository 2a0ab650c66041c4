#!/usr/bin/env python3
"""Print one sha256 per CSV and manifest that the relaycast CLI writes.

Runs, in-process and into a temporary directory:

* ``figure fig2`` .. ``fig9`` at their default grids, ``fig2`` again at
  50, 65 and 80 dB, where the continuous bounds' integrands are steepest
  near the lower layering boundary, and ``fig3`` and ``fig4`` (at P_r/P_s
  1 and 10) again at 70, 75 and 80 dB, where the 8-layer polish is
  nearest its stopping rule;
* ``sweep`` for every scheme it offers, at ``--q-db 15,20 --ratio 0.5,1``
  over 0..20 dB in 5 dB steps, and ``simplex-equal`` again at ``--q-db 20
  --ratio 1`` over 50..80 dB in 10 dB steps, and ``direct-2`` over -20..-15
  dB and 70..80 dB in 0.25 dB steps, where the oblivious plan's coarse grid
  holds exact ties;
* ``rate`` for every scheme at the default powers (the two-layer schemes at
  alpha 0.7, eta 0.3/1.8), ``simplex-equal`` at alpha 0, eta 0.5/1 and
  at alpha 0.5, eta 1/1, and ``miso-unequal`` at beta 0.70000003, whose
  layer-2 threshold slope lies 1e-7 from 1;
* ``rate`` for ``simplex-equal`` at alpha 0.3375, eta 3.9919/3.994 and
  66.4/77.9/19.7 dB, where rounding flipped the layer-1 threshold's
  difference form between about 1e6 and +inf above an infinite layer-2
  threshold;
* ``rate`` for ``simplex-equal`` at alpha 0.0085, eta 2.8516/3.3905 and
  78.7/74.7/35.3 dB, where the relay decodes after all but 4.75e-9 of the
  block and the layer-1 threshold's difference form cancels;
* ``rate`` for ``simplex-equal`` at alpha 1, eta1 = eta2 = expm1(5.9)/P_s
  and for ``single-sdf`` at rate 5.9, both at 17/-5/12 dB: the one-layer
  simplex plan is the SDF one, with a narrow peak of the layer-1 integrand
  just below eta1;
* ``rate`` for ``single-sdf`` at rate 9.2 and for ``simplex-equal`` at
  alpha 1, eta 1/1, both at 40/40/0.4 dB, where the layer-1 integrand's t
  overflows near 0;
* ``rate`` for ``simplex-unequal`` at beta 1 and eta 0.3/1.8 with alpha 1
  (a one-layer plan with an unused eta2) and alpha 0 (beta_bar = 0, where
  the layer-2 threshold is +-inf), and for ``single-user`` at ``--rate
  inf`` (a usage error);
* ``optimize`` with a coarse grid of 10: at 10 dB for ``direct``,
  ``miso-equal`` and ``miso-unequal`` (default free set), ``miso-unequal``
  over all four parameters and ``simplex-unequal`` over beta alone; at
  -20 dB and 80 dB for ``miso-equal`` (default free set) and
  ``miso-unequal`` over all four parameters; at 10 dB for ``simplex-equal``
  (default free set) and for ``miso-unequal`` with ``--beta 0.3`` (default
  free set); and ``miso-equal`` at 80 dB, P_r 80 dB, Q 0 dB with a coarse
  grid of 12, where alpha lies within 1e-6 of 1;
* ``validate --draws 2 --blocks 200000 --z-max inf`` at ``--workers 1`` and
  ``--workers 2``, so the Monte-Carlo oracle's bytes beyond fig9 (every
  strategy the corpus draws, and the merge of two threads' partial sums)
  are covered;
* ``--bits`` runs of ``rate`` (``simplex-equal`` at alpha 0.7, eta
  0.3/1.8, and ``ergodic-miso``), ``sweep --scheme miso-single``,
  ``optimize --scheme direct --coarse 6`` and ``validate --draws 1
  --blocks 20000 --z-max inf``;
* ``figure fig5 --ps-db 30 --pr-db 0,20``, and ``figure fig7`` with a
  ``--config`` file holding a list value (``ps_db``) and a number value
  (``q_db``);
* ``figure fig3 --ps-db 10 --q-db 5`` (a grid flag fig3 does not take) and
  ``figure fig3 --ps-db 10`` with a ``--config`` file holding ``q_db`` and
  ``blocks``, which fig3 does not take either;
* ``validate --draws 1 --blocks 2000 --z-max inf``, where the convention
  check cannot separate the two readings, the same at ``--seed -1``, and
  ``sweep --scheme single-user --q-db ,`` (an empty list).

A command that exits nonzero, or exits through argparse, prints ``exit
<code>`` in place of digests; one that raises prints ``raised <type>``.
Run it on two checkouts and diff the outputs to see which bytes moved:

    python3 tools/output_digests.py > new.txt
    python3 tools/output_digests.py path/to/other/src > old.txt
    diff old.txt new.txt

The one argument is the ``src`` directory to import relaycast from
(default: this checkout's).  Takes about 15 s on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ALLOC = ("--alpha", "0.7", "--eta1", "0.3", "--eta2", "1.8")
ALL_FREE = ("--free", "alpha,beta,eta1,eta2")
# (P_s dB, scheme, extra flags)
OPTIMIZE = (
    ("10", "direct"), ("10", "miso-equal"), ("10", "miso-unequal"),
    ("10", "miso-unequal", *ALL_FREE),
    ("10", "simplex-unequal", "--free", "beta", *ALLOC),
    ("-20", "miso-equal"), ("-20", "miso-unequal", *ALL_FREE),
    ("80", "miso-equal"), ("80", "miso-unequal", *ALL_FREE),
    ("10", "simplex-equal"), ("10", "miso-unequal", "--beta", "0.3"),
)
# (CSV name suffix, alpha, eta1, eta2) of the extra simplex-equal rate runs
SIMPLEX_EDGES = (("alpha-0", "0", "0.5", "1"), ("eta1-eq-eta2", "0.5", "1", "1"))
# a simplex plan whose layer-1 threshold, formed as a difference, was rounding
# noise where the integrand is 0
NOISE = ("--scheme", "simplex-equal", "--ps-db", "66.4", "--pr-db", "77.9", "--q-db",
         "19.7", "--alpha", "0.3375", "--eta1", "3.9919", "--eta2", "3.994")
# a simplex plan whose relay decodes after all but 4.75e-9 of the block
LATE_RELAY = ("--scheme", "simplex-equal", "--ps-db", "78.7", "--pr-db", "74.74902991970525",
              "--q-db", "35.32500397935409", "--alpha", "0.0085",
              "--eta1", "2.8515610502662736", "--eta2", "3.3904975210181356")
# a one-layer simplex plan and the single-layer SDF rate it sends
ONE_LAYER_POWERS = ("--ps-db", "17", "--pr-db", "-5", "--q-db", "12")
ONE_LAYER = (
    ("rate-simplex-equal-one-layer.csv",
     ("--scheme", "simplex-equal", "--alpha", "1", "--eta1", "7.263502408683853",
      "--eta2", "7.263502408683853")),
    ("rate-single-sdf-one-layer.csv", ("--scheme", "single-sdf", "--rate", "5.9")),
)
# simplex-unequal plans with a zero-rate layer: (CSV name suffix, alpha)
ZERO_RATE = (("alpha-1", "1"), ("alpha-0", "0"))
# one-layer plans (beta_bar = 0) whose layer-1 t overflows near 0
T_OVERFLOW_POWERS = ("--ps-db", "40", "--pr-db", "40", "--q-db", "0.4")
T_OVERFLOW = (
    ("rate-single-sdf-t-overflow.csv", ("--scheme", "single-sdf", "--rate", "9.2")),
    ("rate-simplex-equal-t-overflow.csv",
     ("--scheme", "simplex-equal", "--alpha", "1", "--eta1", "1", "--eta2", "1")),
)


def _scheme_choices(parser, command: str) -> list[str]:
    sub = next(a for a in parser._actions if a.dest == "command")
    return list(next(a for a in sub.choices[command]._actions
                     if a.dest == "scheme").choices)


def commands(cli, out: Path):
    """(CSV written, argv) for every run, in a fixed order."""
    parser = cli.build_parser()
    for name in sorted(cli.figures.PRESETS):
        yield f"{name}.csv", ("figure", name, "--out", str(out))
    for name, extra in (("fig3", ()), ("fig4", ("--ratio", "1,10"))):
        yield f"high-power/{name}.csv", ("figure", name, "--ps-db", "70,75,80", *extra,
                                         "--out", str(out / "high-power"))
    yield "high-power/fig2.csv", ("figure", "fig2", "--ps-db", "50,65,80",
                                  "--out", str(out / "high-power"))
    for scheme in sorted(_scheme_choices(parser, "sweep")):
        csv = f"sweep-{scheme}.csv"
        yield csv, ("sweep", "--scheme", scheme, "--q-db", "15,20", "--ratio", "0.5,1",
                    "--ps-db-start", "0", "--ps-db-stop", "20", "--ps-db-step", "5",
                    "--out", str(out / csv))
    csv = "sweep-simplex-equal-50-80db.csv"
    yield csv, ("sweep", "--scheme", "simplex-equal", "--q-db", "20", "--ratio", "1",
                "--ps-db-start", "50", "--ps-db-stop", "80", "--ps-db-step", "10",
                "--out", str(out / csv))
    for start, stop in (("-20", "-15"), ("70", "80")):
        csv = f"sweep-direct-2-from{start}db.csv"
        yield csv, ("sweep", "--scheme", "direct-2", "--ps-db-start", start,
                    "--ps-db-stop", stop, "--ps-db-step", "0.25", "--out", str(out / csv))
    for scheme in sorted(_scheme_choices(parser, "rate")):
        csv = f"rate-{scheme}.csv"
        alloc = ALLOC if scheme in cli.twolayer.CLOSED_FORMS else ()
        yield csv, ("rate", "--scheme", scheme, *alloc, "--out", str(out / csv))
    for name, alpha, eta1, eta2 in SIMPLEX_EDGES:
        csv = f"rate-simplex-equal-{name}.csv"
        yield csv, ("rate", "--scheme", "simplex-equal", "--alpha", alpha, "--eta1", eta1,
                    "--eta2", eta2, "--out", str(out / csv))
    csv = "rate-simplex-equal-noise.csv"
    yield csv, ("rate", *NOISE, "--out", str(out / csv))
    csv = "rate-simplex-equal-late-relay.csv"
    yield csv, ("rate", *LATE_RELAY, "--out", str(out / csv))
    for csv, argv in ONE_LAYER:
        yield csv, ("rate", *argv, *ONE_LAYER_POWERS, "--out", str(out / csv))
    for csv, argv in T_OVERFLOW:
        yield csv, ("rate", *argv, *T_OVERFLOW_POWERS, "--out", str(out / csv))
    for name, alpha in ZERO_RATE:
        csv = f"rate-simplex-unequal-{name}.csv"
        yield csv, ("rate", "--scheme", "simplex-unequal", "--alpha", alpha, "--beta", "1",
                    "--eta1", "0.3", "--eta2", "1.8", "--out", str(out / csv))
    csv = "rate-single-user-inf.csv"
    yield csv, ("rate", "--scheme", "single-user", "--rate", "inf", "--out", str(out / csv))
    csv = "rate-miso-unequal-near-unit-slope.csv"
    yield csv, ("rate", "--scheme", "miso-unequal", *ALLOC, "--beta", "0.70000003",
                "--out", str(out / csv))
    for i, (ps_db, scheme, *extra) in enumerate(OPTIMIZE):
        csv = f"optimize-{i}-{scheme}.csv"
        yield csv, ("optimize", "--scheme", scheme, "--ps-db", ps_db, "--coarse", "10",
                    *extra, "--out", str(out / csv))
    csv = "optimize-miso-equal-80db-coarse-12.csv"
    yield csv, ("optimize", "--scheme", "miso-equal", "--ps-db", "80", "--pr-db", "80",
                "--q-db", "0", "--coarse", "12", "--out", str(out / csv))
    for workers in ("1", "2"):
        csv = f"validate-workers{workers}.csv"
        yield csv, ("validate", "--draws", "2", "--blocks", "200000", "--z-max", "inf",
                    "--workers", workers, "--out", str(out / csv))
    for name, argv in (
        ("rate-simplex-equal", ("rate", "--scheme", "simplex-equal", *ALLOC)),
        ("rate-ergodic-miso", ("rate", "--scheme", "ergodic-miso")),
        ("sweep-miso-single", ("sweep", "--scheme", "miso-single")),
        ("optimize-direct", ("optimize", "--scheme", "direct", "--coarse", "6")),
        ("validate", ("validate", "--draws", "1", "--blocks", "20000", "--z-max", "inf")),
    ):
        csv = f"bits-{name}.csv"
        yield csv, (*argv, "--bits", "--out", str(out / csv))
    yield "fig5-ps-30/fig5.csv", ("figure", "fig5", "--ps-db", "30", "--pr-db", "0,20",
                                  "--out", str(out / "fig5-ps-30"))
    config = out / "config.json"
    config.write_text('{"ps_db": [10.0, 20.0], "q_db": 20}', encoding="utf-8")
    yield "config/fig7.csv", ("--config", str(config), "figure", "fig7",
                              "--out", str(out / "config"))
    yield "fig3-ps-10-q-5/fig3.csv", ("figure", "fig3", "--ps-db", "10", "--q-db", "5",
                                      "--out", str(out / "fig3-ps-10-q-5"))
    config = out / "config-fig3.json"
    config.write_text('{"q_db": [15.0], "blocks": 7}', encoding="utf-8")
    yield "config-fig3/fig3.csv", ("--config", str(config), "figure", "fig3",
                                   "--ps-db", "10", "--out", str(out / "config-fig3"))
    csv = "validate-2000-blocks.csv"
    yield csv, ("validate", "--draws", "1", "--blocks", "2000", "--z-max", "inf",
                "--out", str(out / csv))
    csv = "validate-2000-blocks-seed-minus-1.csv"
    yield csv, ("validate", "--draws", "1", "--blocks", "2000", "--seed", "-1",
                "--z-max", "inf", "--out", str(out / csv))
    csv = "sweep-empty-q-db.csv"
    yield csv, ("sweep", "--scheme", "single-user", "--q-db", ",", "--out", str(out / csv))


def main() -> int:
    default_src = Path(__file__).resolve().parent.parent / "src"
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", default=str(default_src),
                    help="directory holding the relaycast package")
    src = Path(ap.parse_args().src).resolve()
    sys.path.insert(0, str(src))
    import relaycast.cli as cli

    if Path(cli.__file__).resolve().parent != src / "relaycast":
        raise SystemExit(f"imported relaycast from {cli.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for csv, argv in commands(cli, out):
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # report it and go on, so two checkouts diff
                print(f"raised {type(exc).__name__}  {csv}")
                continue
            if code:
                print(f"exit {code}  {csv}")
                continue
            for path in (out / csv, out / f"{csv}.manifest.json"):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                      f"{path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
