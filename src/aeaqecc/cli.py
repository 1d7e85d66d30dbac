"""Command line front end.

Subcommands: reproduce the code tables against the committed golden
files, evaluate the finite existence bound, construct codes straight
from coset labels, analyze a pair of code files, and run the
code-enlargement demonstration.
"""

import argparse
import json
import os
import sys

from .bch import bch_asym_code, coset_code, cyclotomic_cosets, hartmann_tzeng_bound
from .codes import read_code_file
from .eaqecc import asym_params, enlargement_demo
from .enumeration import DEFAULT_BUDGET
from .errors import (
    BudgetExceededError,
    CodeFormatError,
    DegeneratePairError,
    FieldMismatchError,
)
from .fields import field_create, prime_power_decomposition
from .gv import GvQuery, gv_finite_holds, gv_finite_sum, gv_threshold
from .tables import (
    _flag,
    diff_against_golden,
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


def _require_not_csv(args):
    if args.format == "csv":
        raise _CliError(EXIT_USAGE, "csv output is only defined for tables")


def _emit_json(doc):
    print(json.dumps(doc, sort_keys=True))


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
        f"root bounds {r.ht_dz}/{r.ht_dx}  symmetric distance {r.row.d_sym}"
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
        root_bound_dz=r.ht_dz,
        root_bound_dx=r.ht_dx,
        symmetric_distance=r.row.d_sym,
        c1_labels=list(r.row.c1_labels),
        c2_labels=list(r.row.c2_labels),
        note=r.row.note,
    )
    return d


def _cmd_tables(args) -> int:
    budget = _resolve_budget(args.budget)
    picks = [1, 2] if args.which == "all" else [int(args.which)]
    problems = []
    doc = {}
    for which in picks:
        if which == 1:
            results = reproduce_table1(budget)
            lines = table1_csv(results)
            rows = [_table1_dict(r) for r in results]
            human = [_table1_line(r) for r in results]
        else:
            results = reproduce_table2(budget)
            lines = table2_csv(results)
            rows = [_table2_dict(r) for r in results]
            human = [_table2_line(r) for r in results]
        problems += [f"table {which}: {p}" for p in diff_against_golden(which, lines)]
        if args.format == "csv":
            for line in lines:
                print(line)
        elif args.format == "human":
            for line in human:
                print(line)
        else:
            doc[f"table{which}"] = rows
    if args.format == "json":
        doc["mismatches"] = problems
        _emit_json(doc)
    for p in problems:
        print(p, file=sys.stderr)
    return EXIT_MISMATCH if problems else EXIT_OK


def _gv_query(args, dz: int, dx: int) -> GvQuery:
    try:
        return GvQuery(args.q, args.n, args.k1, args.k2, args.c, dz, dx)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))


def _cmd_gv_check(args) -> int:
    _require_not_csv(args)
    query = _gv_query(args, args.dz, args.dx)
    total = gv_finite_sum(query)
    holds = gv_finite_holds(query)
    if args.format == "json":
        _emit_json(
            {"sum": f"{total.numerator}/{total.denominator}", "holds": holds}
        )
    else:
        print(f"sum = {total.numerator}/{total.denominator}")
        print(f"holds = {_flag(holds)}")
    return EXIT_OK


def _cmd_gv_threshold(args) -> int:
    _require_not_csv(args)
    try:
        pair = gv_threshold(args.q, args.n, args.k1, args.k2, args.c)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))
    if args.format == "json":
        _emit_json(
            {
                "dz_threshold": pair.dz_threshold,
                "dx_threshold": pair.dx_threshold,
            }
        )
    else:
        print(f"({pair.dz_threshold},{pair.dx_threshold})")
    return EXIT_OK


def _parse_labels(text: str):
    parts = text.replace(",", " ").split()
    if not parts:
        raise _CliError(EXIT_USAGE, "empty label list")
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"labels must be integers: {text!r}")


def _print_construction(args, params, delta1, delta2, dz_bound, dx_bound):
    if args.format == "json":
        doc = params.as_dict()
        doc.update(
            delta1=list(delta1),
            delta2=list(delta2),
            dz_bound=dz_bound,
            dx_bound=dx_bound,
        )
        _emit_json(doc)
        return
    print(params.display())
    print("delta1 =", " ".join(str(x) for x in delta1))
    print("delta2 =", " ".join(str(x) for x in delta2))
    print(f"dz bound = {dz_bound}")
    print(f"dx bound = {dx_bound}")


def _cmd_bch_construct(args) -> int:
    _require_not_csv(args)
    budget = _resolve_budget(args.budget)
    by_index = args.s is not None or args.t is not None
    by_labels = args.labels1 is not None or args.labels2 is not None
    if by_index == by_labels:
        raise _CliError(
            EXIT_USAGE, "give either --s and --t, or --labels1 and --labels2"
        )
    try:
        structure = cyclotomic_cosets(args.n, args.q)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))
    if by_index:
        if args.s is None or args.t is None:
            raise _CliError(EXIT_USAGE, "--s and --t go together")
        try:
            built = bch_asym_code(structure, args.s, args.t, budget)
        except ValueError as e:
            raise _CliError(EXIT_USAGE, str(e))
        _print_construction(
            args, built.params, built.delta1, built.delta2,
            built.dz_bound, built.dx_bound,
        )
        return EXIT_OK
    if args.labels1 is None or args.labels2 is None:
        raise _CliError(EXIT_USAGE, "--labels1 and --labels2 go together")
    labels1 = _parse_labels(args.labels1)
    labels2 = _parse_labels(args.labels2)
    try:
        delta1 = structure.closure(labels1)
        delta2 = structure.closure(labels2)
        c1 = coset_code(args.n, args.q, labels1)
        c2 = coset_code(args.n, args.q, labels2)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))
    dz_bound = hartmann_tzeng_bound(args.n, delta1)
    dx_bound = hartmann_tzeng_bound(args.n, delta2)
    try:
        params = asym_params(c1, c2, budget, dz_floor=dz_bound, dx_floor=dx_bound)
    except DegeneratePairError as e:
        raise _CliError(EXIT_USAGE, str(e))
    _print_construction(args, params, delta1, delta2, dz_bound, dx_bound)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _require_not_csv(args)
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
    if args.format == "json":
        doc = params.as_dict()
        doc["css_compatible"] = css
        doc["exceeds_finite_gv"] = exceeds
        _emit_json(doc)
        return EXIT_OK
    print(params.display())
    print(f"k1 = {params.k1}, k2 = {params.k2}, c = {params.c}")
    if css:
        print("CSS-compatible pair")
    if exceeds is None:
        print("finite GV = not evaluated (bound-only distances)")
    else:
        print(f"exceeds finite GV = {_flag(exceeds)}")
    return EXIT_OK


def _cmd_enlarge_demo(args) -> int:
    _require_not_csv(args)
    budget = _resolve_budget(args.budget)
    try:
        p, r = prime_power_decomposition(args.q)
        field = field_create(p, r)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))
    try:
        before, after = enlargement_demo(field, budget)
    except BudgetExceededError as e:
        # the comparison is only meaningful with exact distances
        raise _CliError(EXIT_USAGE, f"budget too small for this field: {e}")
    except (DegeneratePairError, ValueError) as e:
        raise _CliError(EXIT_USAGE, str(e))
    if args.format == "json":
        _emit_json({"before": before.as_dict(), "after": after.as_dict()})
    else:
        print(f"before = {before.display()}")
        print(f"after  = {after.display()}")
    return EXIT_OK


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

    parser = argparse.ArgumentParser(prog="aeaqecc", description=__doc__)
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
        return _HANDLERS[args.command](args)
    except _CliError as e:
        print(e.message, file=sys.stderr)
        return e.code


if __name__ == "__main__":
    raise SystemExit(main())
