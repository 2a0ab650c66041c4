#!/usr/bin/env python3
"""Print one sha256 per CSV and manifest that the relaycast CLI writes.

Runs, in-process and into a temporary directory:

* ``figure fig2`` .. ``fig9`` at their default grids, and ``fig3`` and
  ``fig4`` (at P_r/P_s 1 and 10) again at 70, 75 and 80 dB, where the
  8-layer polish is nearest its stopping rule;
* ``sweep`` for every scheme it offers, at ``--q-db 15,20 --ratio 0.5,1``
  over 0..20 dB in 5 dB steps;
* ``rate`` for every scheme at the default powers (the two-layer schemes at
  alpha 0.7, eta 0.3/1.8);
* ``optimize`` with a coarse grid of 10: at 10 dB for ``direct``,
  ``miso-equal`` and ``miso-unequal`` (default free set), ``miso-unequal``
  over all four parameters and ``simplex-unequal`` over beta alone; at
  -20 dB and 80 dB for ``miso-equal`` (default free set) and
  ``miso-unequal`` over all four parameters;
* ``validate --draws 2 --blocks 200000 --z-max inf`` at ``--workers 1`` and
  ``--workers 2``, so the Monte-Carlo oracle's bytes beyond fig9 (every
  strategy the corpus draws, and the merge of two threads' partial sums)
  are covered.

A command that exits nonzero prints ``exit <code>`` in place of digests.
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
    for scheme in sorted(_scheme_choices(parser, "sweep")):
        csv = f"sweep-{scheme}.csv"
        yield csv, ("sweep", "--scheme", scheme, "--q-db", "15,20", "--ratio", "0.5,1",
                    "--ps-db-start", "0", "--ps-db-stop", "20", "--ps-db-step", "5",
                    "--out", str(out / csv))
    for scheme in sorted(_scheme_choices(parser, "rate")):
        csv = f"rate-{scheme}.csv"
        alloc = ALLOC if scheme in cli.twolayer.CLOSED_FORMS else ()
        yield csv, ("rate", "--scheme", scheme, *alloc, "--out", str(out / csv))
    for i, (ps_db, scheme, *extra) in enumerate(OPTIMIZE):
        csv = f"optimize-{i}-{scheme}.csv"
        yield csv, ("optimize", "--scheme", scheme, "--ps-db", ps_db, "--coarse", "10",
                    *extra, "--out", str(out / csv))
    for workers in ("1", "2"):
        csv = f"validate-workers{workers}.csv"
        yield csv, ("validate", "--draws", "2", "--blocks", "200000", "--z-max", "inf",
                    "--workers", workers, "--out", str(out / csv))


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
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            if code:
                print(f"exit {code}  {csv}")
                continue
            for path in (out / csv, out / f"{csv}.manifest.json"):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                      f"{path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
