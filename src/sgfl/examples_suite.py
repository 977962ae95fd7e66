"""Worked examples bundled as a regression suite.

Each row recomputes one documented fact about the bundled example
semigroups and compares it with the frozen expected value.  The CLI's
paper-examples subcommand runs every row and reports pass/fail per id;
a row that raises (for instance under a tiny node budget) is reported as
an error rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SgflError
from .kunz import (
    cominimal,
    kunz_point,
    main_verdict,
    point_of_semigroup,
    semigroup_of_point,
    structure_constants,
)
from .lengths import length_summary
from .minrepl import candidate_sets, min_repl
from .semigroups import new_semigroup
from .verdicts import check_formula, embdim3_check, oracle_scan


@dataclass(frozen=True)
class RowResult:
    id: str
    status: str  # pass | fail | error
    expected: object
    got: object


def _gens_10_12_21_38():
    return new_semigroup([10, 12, 21, 38])


def _gens_plane():
    return new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)


def _gens_plane_wide():
    return new_semigroup([(3, 0), (7, 0), (11, 0), (6, 1), (0, 3)], dim=2)


def _rows(budget):
    S = _gens_10_12_21_38()
    A = _gens_plane()
    B = _gens_plane_wide()
    S69 = new_semigroup([6, 9, 20])
    S568 = new_semigroup([5, 6, 8])

    def r10():
        return candidate_sets(S, 10, min_repl(S, 10, budget=budget))

    def r38():
        return candidate_sets(S, 38, min_repl(S, 38, budget=budget))

    yield (
        "minrepl_10-12-21-38_m10_vectors",
        ((0, 0, 2), (0, 2, 0), (1, 0, 1), (4, 0, 0)),
        lambda: r10().minimal_vectors,
    )
    yield (
        "minrepl_10-12-21-38_m10_values",
        {(0, 0, 2): 76, (0, 2, 0): 42, (1, 0, 1): 50, (4, 0, 0): 48},
        lambda: r10().evaluations,
    )
    yield (
        "minrepl_10-12-21-38_m10_candidate_sets",
        {"M1": (48,), "N1": (48,)},
        lambda: {"M1": r10().m1, "N1": r10().n1},
    )
    yield (
        "minrepl_10-12-21-38_m38_vectors",
        (
            (0, 0, 4),
            (0, 3, 2),
            (0, 4, 0),
            (1, 2, 2),
            (2, 0, 2),
            (4, 3, 0),
            (5, 0, 0),
        ),
        lambda: r38().minimal_vectors,
    )
    yield (
        "minrepl_10-12-21-38_m38_values",
        {
            (0, 0, 4): 84,
            (0, 3, 2): 78,
            (0, 4, 0): 48,
            (1, 2, 2): 76,
            (2, 0, 2): 62,
            (4, 3, 0): 76,
            (5, 0, 0): 50,
        },
        lambda: r38().evaluations,
    )
    yield (
        "minrepl_10-12-21-38_m38_candidate_sets",
        {"M2": (48, 50, 76), "N2": (48,)},
        lambda: {"M2": r38().m2, "N2": r38().n2},
    )
    yield (
        "lengths_10-12-21-38_48",
        {"longest": 4, "shortest": 2},
        lambda: {
            "longest": length_summary(S, 48, budget=budget).longest,
            "shortest": length_summary(S, 48, budget=budget).shortest,
        },
    )
    yield (
        "verdict_10-12-21-38_longest_at_10",
        {"holds": False, "counterexamples": ((48, 4, 2),)},
        lambda: _verdict_digest(check_formula(S, 10, "longest", budget=budget)),
    )
    # The shortest formula fails here: l(84) = 4 (four 21s) while
    # l(46) + 1 = 5, and 84 is the value of the minimal replaceable
    # vector (0, 0, 4).  At 48 itself the equation does hold (2 = 2).
    yield (
        "verdict_10-12-21-38_shortest_at_38",
        {"holds": False, "counterexamples": ((84, 4, 5),)},
        lambda: _verdict_digest(check_formula(S, 38, "shortest", budget=budget)),
    )
    yield (
        "lengths_10-12-21-38_48_shift_equation",
        {"l(48)": 2, "l(10)+1": 2},
        lambda: {
            "l(48)": length_summary(S, 48, budget=budget).shortest,
            "l(10)+1": length_summary(S, 10, budget=budget).shortest + 1,
        },
    )
    yield (
        "membership_10-12-21-38",
        {"48": True, "11": False, "divides_48_84": True, "divides_48_42": False},
        lambda: {
            "48": S.contains(48),
            "11": S.contains(11),
            "divides_48_84": S.divides(48, 84),
            "divides_48_42": S.divides(48, 42),
        },
    )

    yield (
        "minrepl_plane_all_atoms",
        {
            (2, 0): ((10, 0),),
            (3, 1): ((15, 2),),
            (0, 5): ((0, 10),),
        },
        lambda: {
            m: min_repl(A, m, budget=budget).minimal_vectors
            for m in A.atoms
        },
    )
    yield (
        "lengths_plane_30-10_and_27-9",
        {"L(30,10)": 17, "l(30,10)": 10, "L(27,9)": 9},
        lambda: {
            "L(30,10)": length_summary(A, (30, 10), budget=budget).longest,
            "l(30,10)": length_summary(A, (30, 10), budget=budget).shortest,
            "L(27,9)": length_summary(A, (27, 9), budget=budget).longest,
        },
    )
    yield (
        "verdicts_plane_longest",
        {(2, 0): True, (3, 1): False, (0, 5): True},
        lambda: {
            m: check_formula(A, m, "longest", budget=budget).holds
            for m in A.atoms
        },
    )
    yield (
        "verdicts_plane_shortest",
        {(2, 0): False, (3, 1): True, (0, 5): False},
        lambda: {
            m: check_formula(A, m, "shortest", budget=budget).holds
            for m in A.atoms
        },
    )

    yield (
        "minrepl_plane-wide_m3-0",
        ((0, 0, 3, 0), (0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)),
        lambda: min_repl(B, (3, 0), budget=budget).minimal_vectors,
    )
    yield (
        "candidates_plane-wide_m3-0_empty",
        {"M1": (), "holds": True},
        lambda: {
            "M1": candidate_sets(
                B, (3, 0), min_repl(B, (3, 0), budget=budget)
            ).m1,
            "holds": check_formula(B, (3, 0), "longest", budget=budget).holds,
        },
    )

    yield (
        "three_methods_6-9-20",
        {
            "longest": {"minrepl": True, "embdim3": True, "oracle": True},
            "shortest": {"minrepl": True, "embdim3": True, "oracle": True},
        },
        lambda: {
            "longest": {
                "minrepl": check_formula(S69, 6, "longest", budget=budget).holds,
                "embdim3": embdim3_check(S69, "longest", budget=budget).holds,
                "oracle": oracle_scan(S69, 6, "longest", budget=budget).holds,
            },
            "shortest": {
                "minrepl": check_formula(S69, 20, "shortest", budget=budget).holds,
                "embdim3": embdim3_check(S69, "shortest", budget=budget).holds,
                "oracle": oracle_scan(S69, 20, "shortest", budget=budget).holds,
            },
        },
    )

    yield (
        "apery_and_frobenius_5-6-8",
        {"apery": [0, 6, 12, 8, 14], "frobenius": 9},
        lambda: {"apery": S568.apery_set(5), "frobenius": S568.frobenius()},
    )
    yield (
        "embdim3_5-6-8_longest",
        True,
        lambda: embdim3_check(S568, "longest", budget=budget).holds,
    )

    yield (
        "kunz_point_of_5-6-8",
        (0, 1, 2, 1, 2),
        lambda: point_of_semigroup(5, S568, budget=budget).x,
    )
    yield (
        "kunz_nontrivial_relations_5-6-8",
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (3, 4)),
        lambda: tuple(
            sorted(
                (a, b)
                for (a, b) in point_of_semigroup(5, S568, budget=budget).relations
                if a != b
            )
        ),
    )
    yield (
        "kunz_min_inf_5-6-8",
        ((0, 2), (2, 1), (3, 0)),
        lambda: tuple(
            f.c for f in point_of_semigroup(5, S568, budget=budget).min_inf
        ),
    )
    yield (
        "kunz_thresholds_5-6-8",
        {"b((3,0),(0,2))": 0, "b((0,2),(3,0))": 1},
        lambda: {
            "b((3,0),(0,2))": structure_constants(
                5, (3, 0), (0, 2), (1, 3)
            )[1],
            "b((0,2),(3,0))": structure_constants(
                5, (0, 2), (3, 0), (1, 3)
            )[1],
        },
    )
    yield (
        "kunz_longest_verdicts_m5_family",
        {
            (0, 1, 2, 1, 2): True,
            (0, 11, 22, 32, 43): False,
            (0, 3, 6, 2, 5): True,
            (0, 3, 6, 8, 11): False,
        },
        lambda: {
            coords: main_verdict(
                kunz_point(5, list(coords), budget=budget), "longest"
            ).holds
            for coords in [
                (0, 1, 2, 1, 2),
                (0, 11, 22, 32, 43),
                (0, 3, 6, 2, 5),
                (0, 3, 6, 8, 11),
            ]
        },
    )
    yield (
        "kunz_semigroups_of_m5_family",
        {
            (0, 1, 2, 1, 2): (5, 6, 8),
            (0, 11, 22, 32, 43): (5, 56, 163),
            (0, 3, 6, 2, 5): (5, 13, 16),
            (0, 3, 6, 8, 11): (5, 16, 43),
        },
        lambda: {
            coords: semigroup_of_point(5, list(coords), budget=budget).atoms
            for coords in [
                (0, 1, 2, 1, 2),
                (0, 11, 22, 32, 43),
                (0, 3, 6, 2, 5),
                (0, 3, 6, 8, 11),
            ]
        },
    )
    yield (
        "kunz_cominimal_m5_family",
        {comp: True for comp in [(0, 11, 22, 32, 43), (0, 3, 6, 2, 5), (0, 3, 6, 8, 11)]},
        lambda: {
            comp: cominimal(
                kunz_point(5, [0, 1, 2, 1, 2], budget=budget),
                kunz_point(5, list(comp), budget=budget),
            )
            for comp in [(0, 11, 22, 32, 43), (0, 3, 6, 2, 5), (0, 3, 6, 8, 11)]
        },
    )


def _verdict_digest(verdict):
    return {
        "holds": verdict.holds,
        "counterexamples": tuple(
            (c.element, c.value, c.shifted) for c in verdict.counterexamples
        ),
    }


def run_rows(budget=None):
    """Run every example row; returns a list of RowResult."""
    results = []
    try:
        rows = list(_rows(budget))
    except SgflError as exc:
        return [RowResult("suite-setup", "error", None, repr(exc))]
    for rid, expected, compute in rows:
        try:
            got = compute()
        except SgflError as exc:
            results.append(RowResult(rid, "error", expected, repr(exc)))
            continue
        status = "pass" if got == expected else "fail"
        results.append(RowResult(rid, status, expected, got))
    return results
