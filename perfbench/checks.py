"""Output checks of the benchmark's CSVs.

At every seed: the header and row count match the pinned reference, key
columns match it exactly (``ps_db`` after removing the seed's grid offset),
every value cell is finite and nonnegative, and every validation case and
the convention check agree with the oracle within the family-wise bound.
At the default seed the value cells are also compared with the reference:
closed forms within 1e-9 relative, optimizer results no more than 1e-6
relative below it, Monte-Carlo means by a family-wise z bound on the
difference of two independent estimates.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CLOSED_RTOL = 1e-9
OPT_RTOL = 1e-6
GRID_ATOL = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cell_class(command: workloads.Command, column: str, scheme: str | None) -> str:
    if column in command.extra:
        return command.extra[column]
    if column.startswith("stderr"):
        return "stderr"
    if column == command.value_column:
        return command.classes.get(scheme, command.default_class)
    return "key"


def check_csv(command: workloads.Command, path: Path, ref: dict, seed: int) -> list[str]:
    """Problems found in one command's CSV; empty when it passes."""
    if not path.is_file():
        return [f"{command.name}: no output {path.name}"]
    header, rows = read_csv(path)
    if header != ref["header"]:
        return [f"{command.name}: header {header} != reference {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{command.name}: {len(rows)} rows, reference has {len(ref['rows'])}"]
    offset = workloads.grid_offset_db(seed)
    at_reference_seed = seed == ref["seed"]
    scheme_col = header.index("scheme") if "scheme" in header else None
    problems = []
    mc_pairs = []  # (where, value, stderr, ref value, ref stderr)
    for r, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
        scheme = row[scheme_col] if scheme_col is not None else None
        cells = dict(zip(header, row))
        ref_cells = dict(zip(header, ref_row))
        for column, text in cells.items():
            where = f"{command.name} row {r} {column}"
            kind = cell_class(command, column, scheme)
            if kind == "key":
                if column == "ps_db":
                    if abs(float(text) - float(ref_cells[column]) - offset) > GRID_ATOL:
                        problems.append(f"{where}: {text} is off the shifted grid")
                elif text != ref_cells[column]:
                    problems.append(f"{where}: {text!r} != reference {ref_cells[column]!r}")
                continue
            value = float(text)
            if not math.isfinite(value):
                problems.append(f"{where}: not finite ({text})")
                continue
            if kind == "z":  # signed, and judged by check_oracle
                continue
            if value < 0.0:
                problems.append(f"{where}: negative ({text})")
                continue
            if not at_reference_seed:
                continue
            expect = float(ref_cells[column])
            if kind == "closed" and abs(value - expect) > CLOSED_RTOL * abs(expect):
                problems.append(f"{where}: {text} differs from reference {expect!r} "
                                f"by more than {CLOSED_RTOL:g} relative")
            elif kind == "opt" and value < expect * (1.0 - OPT_RTOL):
                problems.append(f"{where}: {text} is below reference {expect!r} "
                                f"by more than {OPT_RTOL:g} relative")
            elif kind == "mc":
                err_col = next(c for c in header if c.startswith("stderr"))
                mc_pairs.append((where, value, float(cells[err_col]), expect,
                                 float(ref_cells[err_col])))
    if command.name == "validate":
        problems += check_oracle(header, rows, seed)
    if mc_pairs:
        bound = workloads.family_z(len(mc_pairs))
        for where, value, err, expect, ref_err in mc_pairs:
            scale = math.hypot(err, ref_err)
            z = 0.0 if value == expect else (value - expect) / scale if scale else math.inf
            if abs(z) > bound:
                problems.append(f"{where}: {value!r} vs reference {expect!r}, "
                                f"|z| {abs(z):.2f} > {bound:.2f}")
    return problems


def _smallest_credit(case) -> float:
    """Smallest nonzero rate one simulated block can be credited with."""
    from relaycast.model import layer_rates

    if case.scheme == "single-layer-SDF":
        return case.rate
    r1, r2 = layer_rates(case.alloc, case.cfg.p_s)
    return r1 if r1 > 0.0 else r2


def check_oracle(header: list[str], rows: list[list[str]], seed: int) -> list[str]:
    """Closed form vs Monte-Carlo oracle for every validation case, and the
    single-layer convention check, at the family-wise |z| bound.

    The scale of each z is floored at one block's smallest credit over the
    block count, the one-count resolution of the estimate.  The CSV's own z
    floors it at the estimate itself over the block count instead, which
    reads |z| = 10^6 for a correct case whose estimate is 0 because no block
    decoded (defect D4 in NOTES.md), so that column is not used here.
    """
    from relaycast import validation

    bound = workloads.VALIDATE_Z_MAX
    corpus = validation.validation_corpus(workloads.mc_seed(seed), workloads.VALIDATE_DRAWS)
    col = {name: header.index(name) for name in header}
    problems = []
    for row in rows:
        case = corpus[int(row[col["index"]])]
        analytic, mean = float(row[col["analytic_nats"]]), float(row[col["mc_nats"]])
        scale = max(float(row[col["stderr_nats"]]),
                    _smallest_credit(case) / workloads.VALIDATE_BLOCKS)
        z = (analytic - mean) / scale
        if not abs(z) <= bound:
            problems.append(f"validate case {row[col['index']]} ({case.scheme}): "
                            f"analytic {analytic!r} vs oracle {mean!r}, |z| {abs(z):.2f} "
                            f"> {bound:.2f}")
    adopted, literal, _ = validation.convention_arbitration(workloads.VALIDATE_BLOCKS,
                                                            workloads.mc_seed(seed))
    if not (abs(adopted) <= bound and abs(literal) > 10.0):
        problems.append(f"validate convention check: adopted z {adopted:+.2f}, "
                        f"literal z {literal:+.1f}")
    return problems
