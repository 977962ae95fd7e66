"""Command-line front end with JSON/TSV/pretty output.

Subcommands: analyze, minrepl, verdict, oracle, kunz, paper-examples.
All reports carry the schema tag "sgfl/1" and are byte-deterministic for
a fixed argv; list-valued output is always canonically sorted.
Exit codes: 0 success, 1 a requested verdict failed under --assert-holds
(or an example row mismatched), 2 usage or input errors.
"""

import argparse
import enum
import functools
import json
import os
import re
import sys

from .budget import DEFAULT_BUDGET
from .errors import SgflError

SCHEMA = "sgfl/1"


# -- input grammar ----------------------------------------------------------

def _ints(text):
    """The comma-separated integers of text; SgflError unless every field,
    the last one included, is an integer."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise SgflError(f"expected integers, got {text!r}") from None


def _int(text):
    values = _ints(text)
    if len(values) != 1:
        raise SgflError(f"expected one integer, got {text!r}")
    return values[0]


def parse_generators(text, dim=None):
    """Parse `10,12,21,38` or `(2,0),(3,1),(0,5)` into a generator list.

    Tuples must make up the whole text: comma-separated groups, with
    whitespace allowed around them."""
    text = text.strip()
    if "(" in text:
        if not re.fullmatch(r"\([^()]*\)(\s*,\s*\([^()]*\))*", text):
            raise SgflError(f"could not parse generators from {text!r}")
        gens = [tuple(_ints(t)) for t in re.findall(r"\(([^()]*)\)", text)]
        inferred = len(gens[0])
    else:
        gens = _ints(text)
        inferred = 1
    if dim is not None and dim != inferred:
        raise SgflError(f"generators look {inferred}-dimensional, --dim says {dim}")
    return gens, inferred


def _semigroup(text, dim, budget):
    from .semigroups import new_semigroup

    gens, inferred = parse_generators(text, dim)
    return new_semigroup(gens, dim=dim or inferred, budget=budget)


def parse_element(text, dim):
    text = text.strip()
    if "(" in text:
        group = re.fullmatch(r"\(([^()]*)\)", text)
        if group is None:
            raise SgflError(f"expected one (...) element, got {text!r}")
        return tuple(_ints(group[1]))
    if dim == 1:
        return _int(text)
    return tuple(_ints(text))


def parse_semigroup_line(line, budget=None):
    """One semigroup per line: `dim=<d>; gens=(a,b),(c,d)` or `gens=...`."""
    dim = None
    gens_text = None
    for part in line.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key == "dim":
            dim = _int(value)
        elif key == "gens":
            gens_text = value.strip()
        else:
            raise SgflError(f"unknown field {key!r} in input line {line!r}")
    if gens_text is None:
        raise SgflError(f"input line {line!r} has no gens= field")
    return _semigroup(gens_text, dim, budget)


# -- serialization ----------------------------------------------------------

def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (list, set, frozenset)):
        return [_jsonable(v) for v in sorted(value)]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, enum.Enum):
        return value.value
    return value


def verdict_json(v):
    return {
        "formula": v.formula.value,
        "m": _jsonable(v.m),
        "holds": v.holds,
        "method": v.method,
        "exact": v.exact,
        "bound": v.bound,
        "checked": [_check_json(c) for c in v.checked],
        "counterexamples": [_check_json(c) for c in v.counterexamples],
    }


def _check_json(c):
    return {"element": _jsonable(c.element), "value": c.value, "shifted": c.shifted}


def length_summary_json(summary):
    return {
        "element": _jsonable(summary.element),
        "longest": summary.longest,
        "shortest": summary.shortest,
        "lengths": list(summary.lengths),
        "witness_longest": list(summary.witness_longest),
        "witness_shortest": list(summary.witness_shortest),
    }


def minrepl_json(report):
    vectors = list(report.minimal_vectors)
    return {
        "m": _jsonable(report.m),
        "atom_index": _jsonable(report.atom_index),
        "min_repl": [_jsonable(v) for v in vectors],
        "evaluations": [_jsonable(report.evaluations[v]) for v in vectors],
        "M1": _jsonable(report.m1),
        "M2": _jsonable(report.m2),
        "N1": _jsonable(report.n1),
        "N2": _jsonable(report.n2),
    }


def kunz_verdict_json(v):
    return {
        "formula": v.formula.value,
        "m": v.m,
        "holds": v.holds,
        "method": v.method,
        "inequalities": [
            {
                "c": _jsonable(c.c),
                "beta": c.beta,
                "coeffs": _jsonable(c.coeffs),
                "relation": c.relation,
                "rhs": c.rhs,
                "lhs_value": c.lhs_value,
                "ok": c.ok,
            }
            for c in v.checks
        ],
    }


def _emit(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _envelope(command, args, result):
    return {
        "schema": SCHEMA,
        "command": command,
        "config": {"budget": args.budget},
        "result": result,
    }


def _verdict_rows_tsv(verdicts):
    lines = ["formula\tm\tholds\tmethod\texact\tcounterexamples"]
    for v in verdicts:
        cex = ";".join(str(_jsonable(c.element)) for c in v.counterexamples)
        lines.append(
            f"{v.formula.value}\t{_jsonable(v.m)}\t{str(v.holds).lower()}"
            f"\t{v.method}\t{str(v.exact).lower()}\t{cex}"
        )
    return "\n".join(lines) + "\n"


def _verdict_rows_pretty(verdicts):
    lines = []
    for v in verdicts:
        status = "holds" if v.holds else "FAILS"
        extra = ""
        if v.counterexamples:
            first = v.counterexamples[0]
            extra = (
                f" (first counterexample {_jsonable(first.element)}: "
                f"{first.value} != {first.shifted})"
            )
        if not v.exact:
            extra += " [evidence only: bounded scan]"
        lines.append(
            f"{v.formula.value} formula at m={_jsonable(v.m)}: {status}{extra}"
        )
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------

def _cmd_analyze(args):
    from .lengths import length_summary
    from .minrepl import min_repl
    from .verdicts import Formula, candidate_atoms, check_formula

    semigroups = []
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as handle:
                lines = list(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise SgflError(f"cannot read --file {args.file!r}: {exc}") from None
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                semigroups.append(parse_semigroup_line(line, args.budget))
    if args.gens:
        semigroups.append(_semigroup(args.gens, args.dim, args.budget))
    if not semigroups:
        raise SgflError("analyze needs --gens or --file")

    def verdicts_for(S):
        # One min_repl report per atom serves every formula for which the
        # atom is a candidate.
        candidates = {
            formula: candidate_atoms(S, formula)
            for formula in (Formula.LONGEST, Formula.SHORTEST)
        }
        verdicts = []
        for m in S.atoms:
            if not any(m in ms for ms in candidates.values()):
                continue
            report = min_repl(S, m, budget=args.budget)
            verdicts.extend(
                check_formula(S, m, formula, budget=args.budget, report=report)
                for formula, ms in candidates.items()
                if m in ms
            )
        verdicts.sort(key=lambda v: (v.formula.value, str(_jsonable(v.m))))
        return verdicts

    result = []
    all_verdicts = []
    for S in semigroups:
        vs = verdicts_for(S)
        all_verdicts.extend(vs)
        entry = {
            "generators": _jsonable(S.atoms),
            "dim": S.dim,
            "verdicts": [verdict_json(v) for v in vs],
        }
        if args.element:
            entry["elements"] = [
                length_summary_json(
                    length_summary(
                        S, parse_element(text, S.dim), budget=args.budget
                    )
                )
                for text in args.element
            ]
        result.append(entry)
    all_hold = all(v.holds for v in all_verdicts)
    exit_code = 0 if (all_hold or not args.assert_holds) else 1
    if args.output == "tsv":
        return _verdict_rows_tsv(all_verdicts), exit_code
    if args.output == "pretty":
        return _verdict_rows_pretty(all_verdicts), exit_code
    return _emit(_envelope("analyze", args, result)), exit_code


def _cmd_minrepl(args):
    from .minrepl import candidate_sets, min_repl

    if args.output == "tsv":
        raise SgflError("minrepl reports are not flat; use json or pretty")
    S = _semigroup(args.gens, args.dim, args.budget)
    m = parse_element(args.m, S.dim)
    report = candidate_sets(S, m, min_repl(S, m, budget=args.budget))
    if args.output == "pretty":
        lines = [f"minimal replaceable vectors over {_jsonable(report.atom_index)}:"]
        for v in report.minimal_vectors:
            lines.append(f"  {_jsonable(v)} -> {_jsonable(report.evaluations[v])}")
        lines.append(f"M1={_jsonable(report.m1)} M2={_jsonable(report.m2)}")
        lines.append(f"N1={_jsonable(report.n1)} N2={_jsonable(report.n2)}")
        return "\n".join(lines) + "\n", 0
    return _emit(_envelope("minrepl", args, minrepl_json(report))), 0


def _cmd_verdict(args):
    from .verdicts import check_formula, embdim3_check, oracle_scan

    S = _semigroup(args.gens, args.dim, args.budget)
    m = parse_element(args.m, S.dim)
    if args.method == "embdim3":
        verdict = embdim3_check(S, args.formula, budget=args.budget)
        if verdict.m != m:
            raise SgflError(f"embdim3 decides at m = {verdict.m}, not {m!r}")
    elif args.method == "oracle":
        verdict = oracle_scan(
            S,
            m,
            args.formula,
            bound=args.bound,
            allow_default=args.allow_default,
            all_counterexamples=args.all,
            budget=args.budget,
        )
    else:
        verdict = check_formula(S, m, args.formula, budget=args.budget)
    exit_code = 0 if (verdict.holds or not args.assert_holds) else 1
    if args.output == "tsv":
        return _verdict_rows_tsv([verdict]), exit_code
    if args.output == "pretty":
        return _verdict_rows_pretty([verdict]), exit_code
    return _emit(_envelope("verdict", args, verdict_json(verdict))), exit_code


def _cmd_kunz(args):
    from .kunz import (
        kunz_point,
        main_verdict,
        pseudomin,
        require_same_face,
        semigroup_of_point,
    )

    if args.output != "json":
        raise SgflError("kunz reports are not flat; use json output")
    point = kunz_point(args.m, _ints(args.x), budget=args.budget)
    S = semigroup_of_point(args.m, point)
    mine = pseudomin(point)
    result = {
        "m": args.m,
        "x": list(point.x),
        "semigroup": _jsonable(S.atoms),
        "atoms": _jsonable(point.atoms),
        "nontrivial_relations": _jsonable(
            sorted((a, b) for (a, b) in point.relations if a != b)
        ),
        "min_inf": [_jsonable(f.c) for f in point.min_inf],
        "pseudomin": [_jsonable(f.c) for f in mine],
    }
    exit_code = 0
    if args.verdict:
        v = main_verdict(point, args.verdict)
        result["verdict"] = kunz_verdict_json(v)
        if args.assert_holds and not v.holds:
            exit_code = 1
    if args.cominimal:
        other = kunz_point(args.m, _ints(args.cominimal), budget=args.budget)
        require_same_face(point, other)  # kunz.cominimal, reusing mine
        theirs = pseudomin(other)
        result["cominimal"] = {f.c for f in mine} == {f.c for f in theirs}
    return _emit(_envelope("kunz", args, result)), exit_code


def _cmd_paper_examples(args):
    from .examples_suite import run_rows

    if args.output == "tsv":
        raise SgflError("example reports are not flat; use json or pretty")
    rows = run_rows(budget=args.budget)
    result = [
        {
            "id": r.id,
            "status": r.status,
            "expected": _jsonable(r.expected),
            "got": _jsonable(r.got),
        }
        for r in rows
    ]
    if any(r.status == "error" for r in rows):
        exit_code = 2
    elif any(r.status == "fail" for r in rows):
        exit_code = 1
    else:
        exit_code = 0
    if args.output == "pretty":
        lines = [f"{r.id}: {r.status.upper()}" for r in rows]
        counts = (
            f"{sum(r.status == 'pass' for r in rows)} passed, "
            f"{sum(r.status == 'fail' for r in rows)} failed, "
            f"{sum(r.status == 'error' for r in rows)} errored"
        )
        return "\n".join(lines + [counts]) + "\n", exit_code
    return _emit(_envelope("paper-examples", args, result)), exit_code


def _add_run_options(parser, suppress=False):
    parser.add_argument("--budget", type=int,
                        default=argparse.SUPPRESS if suppress else None,
                        help="node budget for searches (env SGFL_BUDGET)")
    parser.add_argument("--output", choices=("json", "tsv", "pretty"),
                        default=argparse.SUPPRESS if suppress else "json")


@functools.cache
def build_parser():
    """The sgfl argument parser, built on first use and reused after."""
    parser = argparse.ArgumentParser(
        prog="sgfl",
        description=(
            "Decide whether adding a fixed atom always increments the "
            "longest (or shortest) factorization length of a semigroup."
        ),
    )
    _add_run_options(parser)
    # The same options are accepted after the subcommand name.
    common = argparse.ArgumentParser(add_help=False)
    _add_run_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gens(p):
        p.add_argument("--gens", help="10,12,21,38 or (2,0),(3,1),(0,5)")
        p.add_argument("--dim", type=int, default=None)

    def add_check(p):
        add_gens(p)
        p.add_argument("--m", required=True)
        p.add_argument("--formula", required=True, choices=("longest", "shortest"))
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--all", action="store_true",
                       help="report every counterexample in range, not the first")
        p.add_argument("--allow-default", action="store_true",
                       help="permit the default bound for evidence-only scans")
        p.add_argument("--assert-holds", action="store_true")

    p = sub.add_parser("analyze", parents=[common],
                       help="verdicts for every candidate atom")
    add_gens(p)
    p.add_argument("--file", help="one semigroup per line: dim=..; gens=..")
    p.add_argument("--element", action="append",
                   help="also report the length summary of this element")
    p.add_argument("--assert-holds", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("minrepl", parents=[common],
                       help="minimal replaceable factorizations")
    add_gens(p)
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_minrepl)

    p = sub.add_parser("verdict", parents=[common],
                       help="decide one formula at one atom")
    add_check(p)
    p.add_argument("--method", choices=("minrepl", "embdim3", "oracle"),
                   default="minrepl")
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force scan of one formula")
    add_check(p)
    p.set_defaults(func=_cmd_verdict, method="oracle")

    p = sub.add_parser("kunz", parents=[common], help="polytope-point reports")
    kunz_sub = p.add_subparsers(dest="kunz_command", required=True)
    kp = kunz_sub.add_parser("point", parents=[common],
                                  help="analyze one integer point")
    kp.add_argument("--m", type=int, required=True)
    kp.add_argument("--x", required=True, help="0,1,2,1,2")
    kp.add_argument("--verdict", choices=("longest", "shortest"))
    kp.add_argument("--cominimal", help="second point to compare against")
    kp.add_argument("--assert-holds", action="store_true")
    kp.set_defaults(func=_cmd_kunz)

    p = sub.add_parser("paper-examples", parents=[common],
                       help="re-run the bundled worked-example suite")
    p.set_defaults(func=_cmd_paper_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.budget is None:
            args.budget = _int(os.environ.get("SGFL_BUDGET", str(DEFAULT_BUDGET)))
        if args.budget <= 0:
            raise SgflError("budget must be positive")
        text, exit_code = args.func(args)
    except SgflError as exc:
        sys.stderr.write(
            json.dumps(
                {"schema": SCHEMA, "error": type(exc).__name__, "detail": str(exc)},
                sort_keys=True,
            )
            + "\n"
        )
        return 2
    sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
