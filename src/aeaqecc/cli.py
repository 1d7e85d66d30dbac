"""Command line front end.

Subcommands: reproduce the code tables against the committed golden
files, evaluate the finite existence bound, construct codes straight
from coset labels, analyze a pair of code files, and run the
code-enlargement demonstration.

Each handler returns a JSON document and the lines of its human (or, for
the tables, csv) form; main refuses csv outside the tables, renders one
of the two, and reports the tables' golden mismatches on stderr.
"""

import argparse
import json
import os
import sys

from .bch import bch_asym_code, cyclotomic_cosets
from .codes import read_code_file
from .eaqecc import asym_params, enlargement_demo
from .enumeration import DEFAULT_BUDGET, check_budget
from .errors import (
    BudgetExceededError,
    CodeFormatError,
    DegeneratePairError,
    FieldMismatchError,
)
from .fields import check_order, field_create, prime_power_decomposition
from .gv import GvQuery, gv_finite_holds, gv_finite_sum, gv_threshold
from .tables import (
    _flag,
    diff_against_golden,
    label_asym_code,
    reproduce_table1,
    reproduce_table2,
    table1_csv,
    table2_csv,
)

MIN_BUDGET = 1 << 10
BUDGET_ENV = "AEAQECC_BUDGET"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _resolve_budget(value) -> int:
    if value is None:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value = int(raw)
        except ValueError:
            raise _CliError(
                EXIT_USAGE, f"{BUDGET_ENV} must be an integer, got {raw!r}"
            )
    if value < MIN_BUDGET:
        raise _CliError(EXIT_USAGE, f"budget must be at least {MIN_BUDGET}")
    return value


def _table1_line(r) -> str:
    t = r.threshold
    verdict = "exceeds GV" if r.gv_exceeded else "within GV"
    return (
        f"table 1 row {r.index}: {r.params.display()}  "
        f"thresholds ({t.dz_threshold},{t.dx_threshold})  {verdict}"
    )


def _table2_line(r) -> str:
    return (
        f"table 2 row {r.index}: {r.params.display()}  "
        f"root bounds {r.built.dz_bound}/{r.built.dx_bound}  "
        f"symmetric distance {r.row.d_sym}"
    )


def _table1_dict(r) -> dict:
    d = r.params.as_dict()
    d.update(
        index=r.index,
        dz_threshold=r.threshold.dz_threshold,
        dx_threshold=r.threshold.dx_threshold,
        gv_exceeded=r.gv_exceeded,
        c1_labels=list(r.row.c1_labels),
        c2_labels=list(r.row.c2_labels),
        note=r.row.note,
    )
    return d


def _table2_dict(r) -> dict:
    d = r.params.as_dict()
    d.update(
        index=r.index,
        root_bound_dz=r.built.dz_bound,
        root_bound_dx=r.built.dx_bound,
        symmetric_distance=r.row.d_sym,
        c1_labels=list(r.row.c1_labels),
        c2_labels=list(r.row.c2_labels),
        note=r.row.note,
    )
    return d


def _cmd_tables(args):
    budget = _resolve_budget(args.budget)
    picks = [1, 2] if args.which == "all" else [int(args.which)]
    doc, lines, problems = {}, [], []
    for which in picks:
        # names looked up per call, so that a wrapper on them sees it
        reproduce, csv, as_dict, as_line = (
            (reproduce_table1, table1_csv, _table1_dict, _table1_line) if which == 1
            else (reproduce_table2, table2_csv, _table2_dict, _table2_line)
        )
        results = reproduce(budget)
        csv_lines = csv(results)
        problems += [f"table {which}: {p}" for p in diff_against_golden(which, csv_lines)]
        doc[f"table{which}"] = [as_dict(r) for r in results]
        lines += csv_lines if args.format == "csv" else [as_line(r) for r in results]
    doc["mismatches"] = problems
    return doc, lines


def _gv_query(args, dz: int, dx: int) -> GvQuery:
    try:
        return GvQuery(args.q, args.n, args.k1, args.k2, args.c, dz, dx)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))


def _cmd_gv_check(args):
    query = _gv_query(args, args.dz, args.dx)
    total = gv_finite_sum(query)
    holds = gv_finite_holds(query)
    fraction = f"{total.numerator}/{total.denominator}"
    return {"sum": fraction, "holds": holds}, [
        f"sum = {fraction}", f"holds = {_flag(holds)}",
    ]


def _cmd_gv_threshold(args):
    try:
        pair = gv_threshold(args.q, args.n, args.k1, args.k2, args.c)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))
    doc = {"dz_threshold": pair.dz_threshold, "dx_threshold": pair.dx_threshold}
    return doc, [f"({pair.dz_threshold},{pair.dx_threshold})"]


def _parse_labels(text: str):
    parts = text.replace(",", " ").split()
    if not parts:
        raise _CliError(EXIT_USAGE, "empty label list")
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"labels must be integers: {text!r}")


def _cmd_bch_construct(args):
    budget = _resolve_budget(args.budget)
    by_index = args.s is not None or args.t is not None
    by_labels = args.labels1 is not None or args.labels2 is not None
    if by_index == by_labels:
        raise _CliError(
            EXIT_USAGE, "give either --s and --t, or --labels1 and --labels2"
        )
    try:  # _CliError is no ValueError, so the pairing checks pass through
        structure = cyclotomic_cosets(args.n, args.q)
        if by_index:
            if args.s is None or args.t is None:
                raise _CliError(EXIT_USAGE, "--s and --t go together")
            built = bch_asym_code(structure, args.s, args.t, budget)
        else:
            if args.labels1 is None or args.labels2 is None:
                raise _CliError(EXIT_USAGE, "--labels1 and --labels2 go together")
            labels1 = _parse_labels(args.labels1)
            labels2 = _parse_labels(args.labels2)
            built = label_asym_code(structure, labels1, labels2, budget)
    except ValueError as e:  # bad coset data or a DegeneratePairError
        raise _CliError(EXIT_USAGE, str(e))
    doc = built.params.as_dict()
    doc.update(
        delta1=list(built.delta1),
        delta2=list(built.delta2),
        dz_bound=built.dz_bound,
        dx_bound=built.dx_bound,
    )
    return doc, [
        built.params.display(),
        "delta1 = " + " ".join(str(x) for x in built.delta1),
        "delta2 = " + " ".join(str(x) for x in built.delta2),
        f"dz bound = {built.dz_bound}",
        f"dx bound = {built.dx_bound}",
    ]


def _cmd_analyze(args):
    budget = _resolve_budget(args.budget)
    try:
        c1 = read_code_file(args.first)
        c2 = read_code_file(args.second)
    except (CodeFormatError, OSError) as e:
        raise _CliError(EXIT_PARSE, str(e))
    try:
        params = asym_params(c1, c2, budget, dz_floor=1, dx_floor=1)
    except DegeneratePairError as e:
        raise _CliError(EXIT_USAGE, str(e))
    except (FieldMismatchError, ValueError) as e:
        raise _CliError(EXIT_PARSE, str(e))
    css = params.c == 0
    both_exact = params.dz.exact and params.dx.exact
    exceeds = None
    if both_exact:
        query = GvQuery(
            params.q, params.n, params.k1, params.k2, params.c,
            params.dz.value, params.dx.value,
        )
        exceeds = not gv_finite_holds(query)
    doc = params.as_dict()
    doc["css_compatible"] = css
    doc["exceeds_finite_gv"] = exceeds
    lines = [params.display(), f"k1 = {params.k1}, k2 = {params.k2}, c = {params.c}"]
    if css:
        lines.append("CSS-compatible pair")
    if exceeds is None:
        lines.append("finite GV = not evaluated (bound-only distances)")
    else:
        lines.append(f"exceeds finite GV = {_flag(exceeds)}")
    return doc, lines


def _cmd_enlarge_demo(args):
    budget = _resolve_budget(args.budget)
    try:
        p, r = prime_power_decomposition(args.q)
        check_order(args.q)
        # enlargement_demo's first check, before the field's tables are built
        check_budget(args.q, args.q - 2, budget)
        before, after = enlargement_demo(field_create(p, r), budget)
    except BudgetExceededError as e:
        # the comparison is only meaningful with exact distances
        raise _CliError(EXIT_USAGE, f"budget too small for this field: {e}")
    except (DegeneratePairError, ValueError) as e:
        raise _CliError(EXIT_USAGE, str(e))
    return {"before": before.as_dict(), "after": after.as_dict()}, [
        f"before = {before.display()}", f"after  = {after.display()}",
    ]


_HANDLERS = {
    "tables": _cmd_tables,
    "gv-check": _cmd_gv_check,
    "gv-threshold": _cmd_gv_threshold,
    "bch-construct": _cmd_bch_construct,
    "analyze": _cmd_analyze,
    "enlarge-demo": _cmd_enlarge_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "csv", "json"), default="human"
    )
    common.add_argument("--budget", type=int, default=None)

    # --help shows the docstring without its last paragraph, on the design
    parser = argparse.ArgumentParser(prog="aeaqecc", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", parents=[common],
                       help="reproduce the code tables and diff against golden")
    p.add_argument("--which", choices=("1", "2", "all"), default="all")

    p = sub.add_parser("gv-check", parents=[common],
                       help="evaluate the finite existence-bound sum")
    for name in ("--q", "--n", "--k1", "--k2", "--c", "--dz", "--dx"):
        p.add_argument(name, type=int, required=True)

    p = sub.add_parser("gv-threshold", parents=[common],
                       help="largest distance pair the finite bound still grants")
    for name in ("--q", "--n", "--k1", "--k2", "--c"):
        p.add_argument(name, type=int, required=True)

    p = sub.add_parser("bch-construct", parents=[common],
                       help="construct a code pair from coset data")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--labels1", default=None)
    p.add_argument("--labels2", default=None)

    p = sub.add_parser("analyze", parents=[common],
                       help="analyze a pair of classical code files")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("enlarge-demo", parents=[common],
                       help="show the distance gain from enlarging the first code")
    p.add_argument("--q", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if args.format == "csv" and args.command != "tables":
            raise _CliError(EXIT_USAGE, "csv output is only defined for tables")
        doc, lines = _HANDLERS[args.command](args)
    except _CliError as e:
        print(e.message, file=sys.stderr)
        return e.code
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print("\n".join(lines))
    problems = doc.get("mismatches", [])  # the tables' golden diff
    for p in problems:
        print(p, file=sys.stderr)
    return EXIT_MISMATCH if problems else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
