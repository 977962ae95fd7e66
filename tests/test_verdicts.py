import dataclasses
import itertools
import tracemalloc

import pytest

from sgfl.errors import (
    BudgetExceededError,
    MissingBoundError,
    MNotAtomError,
    NotEmbDim3Error,
    NotInSemigroupError,
    SgflError,
)
from sgfl.lengths import length_summary, length_table
from sgfl.minrepl import MinReplReport, min_repl
from sgfl.semigroups import new_semigroup
from sgfl.verdicts import (
    Check,
    Formula,
    candidate_atoms,
    check_formula,
    default_scan_bound,
    embdim3_check,
    oracle_scan,
)

from conftest import (
    affine_span,
    enumerate_factorizations_box,
    length_dp,
    sample_affine_atom_sets,
)


@pytest.fixture(scope="module")
def chicken():
    return new_semigroup([10, 12, 21, 38])


@pytest.fixture(scope="module")
def plane():
    return new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)


def test_candidate_atoms(chicken, plane):
    assert candidate_atoms(chicken, "longest") == [10]
    assert candidate_atoms(chicken, "shortest") == [38]
    assert candidate_atoms(plane, Formula.LONGEST) == [(2, 0), (3, 1), (0, 5)]


def test_check_formula_longest_fails_at_48(chicken):
    verdict = check_formula(chicken, 10, "longest")
    assert not verdict.holds
    assert verdict.method == "minrepl"
    (cex,) = verdict.counterexamples
    assert (cex.element, cex.value, cex.shifted) == (48, 4, 2)


def test_check_formula_shortest_fails_at_84(chicken):
    # The equation does hold at 48 (2 = 2), but 84 = 4*21 is a minimal
    # replaceable value with l(84) = 4 while l(46) + 1 = 5.
    verdict = check_formula(chicken, 38, "shortest")
    assert not verdict.holds
    by_element = {c.element: c for c in verdict.checked}
    assert by_element[48].ok
    assert (by_element[84].value, by_element[84].shifted) == (4, 5)
    assert [c.element for c in verdict.counterexamples] == [84]


def test_check_is_an_immutable_hashable_record(chicken):
    check = Check(48, 4, 2)
    assert check == Check(element=48, value=4, shifted=2) == (48, 4, 2)
    assert (check.element, check.value, check.shifted) == (48, 4, 2)
    with pytest.raises(AttributeError):
        check.value = 3
    assert len({check, Check(48, 4, 2), Check(48, 2, 2)}) == 2
    for value, shifted in itertools.product(range(4), repeat=2):
        assert Check(0, value, shifted).ok == (value == shifted)
    # The criterion and the scan report the same Check at a shared element.
    for m, formula in ((10, "longest"), (38, "shortest")):
        scan = oracle_scan(chicken, m, formula, all_counterexamples=True)
        assert all(type(c) is Check for c in scan.checked)
        assert scan.counterexamples == tuple(c for c in scan.checked if not c.ok)
        scanned = {c.element: c for c in scan.checked}
        for c in check_formula(chicken, m, formula).checked:
            assert scanned[c.element] == c


def test_check_formula_plane(plane):
    longest = {m: check_formula(plane, m, "longest").holds for m in plane.atoms}
    shortest = {m: check_formula(plane, m, "shortest").holds for m in plane.atoms}
    assert longest == {(2, 0): True, (3, 1): False, (0, 5): True}
    assert shortest == {(2, 0): False, (3, 1): True, (0, 5): False}
    cex = check_formula(plane, (3, 1), "longest").counterexamples[0]
    assert (cex.element, cex.value, cex.shifted) == ((30, 10), 17, 10)


def test_check_formula_requires_atom(chicken):
    with pytest.raises(MNotAtomError):
        check_formula(chicken, 11, "longest")


def test_check_formula_budget_covers_the_length_table(chicken):
    # One node per table entry 0..largest target: 48 (longest), 84
    # (shortest).  The report is solved beforehand, so only the table spends.
    for m, formula, largest in ((10, "longest", 48), (38, "shortest", 84)):
        report = min_repl(chicken, m)
        verdict = check_formula(chicken, m, formula, budget=largest + 1,
                                report=report)
        assert max(c.element for c in verdict.checked) == largest
        with pytest.raises(BudgetExceededError):
            check_formula(chicken, m, formula, budget=largest, report=report)
        with pytest.raises(BudgetExceededError):
            check_formula(chicken, m, formula, budget=3)
    S = new_semigroup([6, 9, 20])  # longest: checked at 18, so 19 entries
    assert embdim3_check(S, "longest", budget=19).holds
    with pytest.raises(BudgetExceededError):
        embdim3_check(S, "longest", budget=18)


def test_length_table_is_sized_by_the_targets():
    # Targets 12 and 8 (embdim3) and no targets at all (check_formula,
    # longest, m = 4): an atom far above them must not size the table.
    S = new_semigroup([4, 6, 10**6 + 1])
    assert len(length_table(S, 12, True)) == 13
    tracemalloc.start()
    try:
        verdict = embdim3_check(S, "longest")
        empty = check_formula(S, 4, "longest")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.element for c in verdict.checked] == [12]
    assert empty.checked == ()
    assert peak < 100_000  # a table padded by the atom takes 8 MB


def test_check_formula_rejects_shift_below_zero(chicken):
    # A target below m would read s - m at a negative index of the table.
    report = MinReplReport(
        m=38,
        atom_index=(10, 12, 21),
        minimal_vectors=((0, 1, 0),),
        evaluations={(0, 1, 0): 12},
    )
    with pytest.raises(NotInSemigroupError):
        check_formula(chicken, 38, "shortest", report=report)


def test_embdim3():
    S = new_semigroup([6, 9, 20])
    assert embdim3_check(S, "longest").holds
    assert embdim3_check(S, "shortest").holds
    assert embdim3_check(S, "longest").method == "embdim3"
    assert embdim3_check(new_semigroup([5, 6, 8]), "longest").holds
    assert not embdim3_check(new_semigroup([4, 10, 17]), "shortest").holds


def test_embdim3_checks_single_element():
    S = new_semigroup([6, 9, 20])
    verdict = embdim3_check(S, "longest")
    # alpha = min{c : 9c - 6 in S} = 2, so the one element checked is 18.
    assert [c.element for c in verdict.checked] == [18]
    verdict = embdim3_check(S, "shortest")
    # beta = min{c : 9c - 20 in S} = 8, checked element 72.
    assert [c.element for c in verdict.checked] == [72]


def test_embdim3_requires_three_generators(chicken):
    with pytest.raises(NotEmbDim3Error):
        embdim3_check(chicken, "longest")


def test_default_scan_bounds(chicken):
    assert default_scan_bound(chicken, "longest") == 9 * 38
    assert default_scan_bound(chicken, "shortest") == 37 * 21


def test_oracle_scan_numerical(chicken):
    S = new_semigroup([6, 9, 20])
    assert oracle_scan(S, 6, "longest").holds
    assert oracle_scan(S, 20, "shortest").holds
    verdict = oracle_scan(chicken, 10, "longest")
    assert not verdict.holds
    assert verdict.exact
    assert verdict.counterexamples[0].element == 48


def test_oracle_scan_all_flag(chicken):
    first_only = oracle_scan(chicken, 38, "shortest")
    everything = oracle_scan(chicken, 38, "shortest", all_counterexamples=True)
    assert len(first_only.counterexamples) == 1
    assert len(everything.counterexamples) > 1
    assert everything.counterexamples[0].element == 84


def test_oracle_scan_bound_zero(chicken):
    verdict = oracle_scan(chicken, 10, "longest", bound=0)
    assert verdict.holds
    assert not verdict.exact
    assert [c.element for c in verdict.checked] == [10]
    assert oracle_scan(chicken, 10, "longest").exact
    with pytest.raises(SgflError) as info:
        oracle_scan(chicken, 10, "longest", bound=-5)
    assert type(info.value) is SgflError


def test_oracle_scan_budget_covers_its_range(chicken, plane):
    # Numerical: one node per value 0..bound+m, charged up front, so a
    # scan that stops at its first counterexample (48) still needs all.
    entries = default_scan_bound(chicken, "longest") + 10 + 1
    assert oracle_scan(chicken, 10, "longest", budget=entries).counterexamples
    with pytest.raises(BudgetExceededError):
        oracle_scan(chicken, 10, "longest", budget=entries - 1)
    with pytest.raises(BudgetExceededError):
        oracle_scan(chicken, 10, "longest", budget=5)
    # Affine: one node per element of grading value at most bound + w(m).
    m, bound = (3, 1), 30
    wbound = bound + plane.grading_value(m)
    elements = len(affine_span(plane.generators, plane.grading, wbound))
    full = oracle_scan(plane, m, "longest", bound=bound)
    assert oracle_scan(plane, m, "longest", bound=bound, budget=elements) == full
    with pytest.raises(BudgetExceededError):
        oracle_scan(plane, m, "longest", bound=bound, budget=elements - 1)


def test_affine_oracle_scan_huge_bound_trips_budget_small(plane):
    # The affine table keeps only the grading layers that have elements,
    # so a huge bound costs nothing until the walk adds elements; a list
    # of layers sized by the bound would take gigabytes before the budget
    # could stop it.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            oracle_scan(plane, (3, 1), "longest", bound=10**9, budget=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _expected_scan(S, m, formula, bound, all_counterexamples):
    """(checked, counterexamples) of a numerical scan, from a full table."""
    table = length_dp(S.atoms, bound + m, formula == "longest")
    checked = []
    for s in range(bound + 1):
        if table[s] is None:
            continue
        checked.append((s + m, table[s + m], table[s] + 1))
        if checked[-1][1] != checked[-1][2] and not all_counterexamples:
            break
    return tuple(checked), tuple(c for c in checked if c[1] != c[2])


def _triples(checks):
    return tuple((c.element, c.value, c.shifted) for c in checks)


def test_oracle_scan_matches_a_full_length_table(corpus):
    # The scan fills its lengths as it checks and stops at the first
    # failure; a full table from an independent DP gives the same checks
    # at every atom, bound and stopping rule.
    failed = 0
    for S, formula in itertools.product(corpus, ("longest", "shortest")):
        default = default_scan_bound(S, formula)
        for m, bound, everything in itertools.product(
            (S.atoms[0], S.atoms[-1]), (None, 0, default // 2), (False, True)
        ):
            verdict = oracle_scan(S, m, formula, bound=bound,
                                  all_counterexamples=everything)
            scanned = default if bound is None else bound
            checked, cexs = _expected_scan(S, m, formula, scanned, everything)
            assert _triples(verdict.checked) == checked, (S.atoms, m, formula)
            assert _triples(verdict.counterexamples) == cexs
            assert verdict.holds == (not cexs)
            assert (verdict.m, verdict.bound, verdict.exact, verdict.method) == (
                m, scanned, scanned >= default, "oracle"
            )
            failed += not verdict.holds
    assert failed > 0  # early exits are exercised


def test_numerical_scan_checks_read_like_a_tuple(chicken):
    verdict = oracle_scan(chicken, 10, "longest", bound=200,
                          all_counterexamples=True)
    expected, cexs = _expected_scan(chicken, 10, "longest", 200, True)
    checked = verdict.checked
    assert len(checked) == len(expected) > 10
    assert type(checked[0]) is Check and checked[0] == expected[0]
    assert checked[-1] == expected[-1]
    assert checked[-len(checked)] == expected[0]
    with pytest.raises(IndexError):
        checked[len(checked)]
    assert type(checked[2:7]) is tuple and checked[2:7] == expected[2:7]
    assert checked[::-3] == expected[::-3]
    assert all(type(c) is Check for c in checked)
    assert all(type(c) is Check for c in checked[1:4])
    # Equal to, and hashed like, the tuple of its checks, either way round.
    assert checked == expected and expected == checked
    assert checked != expected[:-1]
    assert hash(checked) == hash(expected)
    assert _triples(verdict.counterexamples) == cexs
    assert type(verdict.counterexamples) is tuple
    as_tuple = dataclasses.replace(verdict, checked=tuple(checked))
    again = oracle_scan(chicken, 10, "longest", bound=200,
                        all_counterexamples=True)
    assert verdict == as_tuple == again and as_tuple == verdict
    assert hash(verdict) == hash(as_tuple) == hash(again)
    assert verdict != oracle_scan(chicken, 10, "longest", bound=199,
                                  all_counterexamples=True)


def test_numerical_scan_keeps_24_bytes_per_check():
    # Nearly every value here is checked and every length is at most 256,
    # a cached small int, so the scan keeps little beyond one list slot
    # per value and one array slot per check (see budget.py).  One Check
    # record per value took about 130 bytes.
    S = new_semigroup([100, 101, 9899])
    tracemalloc.start()
    try:
        verdict = oracle_scan(S, 9899, "shortest", bound=120_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and len(verdict.checked) > 10**5
    assert peak <= 24 * len(verdict.checked)


def test_numerical_scan_memory_ignores_atoms_above_its_range():
    # Values up to bound + m = 12 never read an atom of 10**9 + 1, so the
    # scan pads its list by the largest atom in range only; a pad by the
    # largest atom would take 8 GB although the budget allows 100 nodes.
    S = new_semigroup([2, 10**9 + 1])
    tracemalloc.start()
    try:
        verdict = oracle_scan(S, 2, "longest", bound=10, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert _triples(verdict.checked) == tuple(
        (s, s // 2, s // 2) for s in range(2, 13, 2)
    )
    assert peak < 100_000


AFFINE_SCAN_BOUND = 8


def test_affine_oracle_scan_matches_box_enumeration():
    # Every check of the affine scan, at every atom of the sampled sets,
    # against lengths read off the exhaustive factorization enumeration:
    # the scan covers each s of grading value up to the bound, in
    # coordinate order, as the check at s + m.
    for atoms in sample_affine_atom_sets():
        S = new_semigroup(atoms, dim=2)
        lengths = {}

        def extreme(v, pick):
            if v not in lengths:
                lengths[v] = [sum(c) for c in enumerate_factorizations_box(S, v)]
            return pick(lengths[v])

        span = affine_span(S.generators, S.grading, AFFINE_SCAN_BOUND)
        for m, formula in itertools.product(S.atoms, ("longest", "shortest")):
            pick = max if formula == "longest" else min
            verdict = oracle_scan(
                S, m, formula, bound=AFFINE_SCAN_BOUND, all_counterexamples=True
            )
            expected = []
            for s in sorted(span):
                shifted = tuple(a + b for a, b in zip(s, m))
                expected.append(
                    (shifted, extreme(shifted, pick), extreme(s, pick) + 1)
                )
            assert verdict.checked == tuple(expected), (atoms, m, formula)
            assert verdict.counterexamples == tuple(
                c for c in expected if c[1] != c[2]
            )
            assert verdict.holds == (not verdict.counterexamples)


def test_oracle_scan_affine_needs_bound(plane):
    with pytest.raises(MissingBoundError):
        oracle_scan(plane, (3, 1), "longest")
    verdict = oracle_scan(plane, (3, 1), "longest", allow_default=True)
    assert not verdict.holds
    assert not verdict.exact
    assert verdict.counterexamples[0].element == (30, 10)


def test_counterexample_validity(chicken, plane):
    for S, m, formula in (
        (chicken, 10, "longest"),
        (chicken, 38, "shortest"),
        (plane, (3, 1), "longest"),
    ):
        verdict = check_formula(S, m, formula)
        for cex in verdict.counterexamples:
            s = cex.element
            prev = (
                s - m if S.dim == 1 else tuple(a - b for a, b in zip(s, m))
            )
            assert S.contains(s) and S.contains(prev)
            full = length_summary(S, s)
            full_prev = length_summary(S, prev)
            if formula == "longest":
                assert cex.value == full.longest
                assert cex.shifted == full_prev.longest + 1
            else:
                assert cex.value == full.shortest
                assert cex.shifted == full_prev.shortest + 1
            assert cex.value != cex.shifted


def test_methods_agree_on_three_generator_corpus(corpus):
    three = [S for S in corpus if len(S.atoms) == 3]
    assert len(three) >= 10
    for S in three:
        for formula, m in (("longest", S.atoms[0]), ("shortest", S.atoms[-1])):
            a = check_formula(S, m, formula).holds
            b = embdim3_check(S, formula).holds
            c = oracle_scan(S, m, formula).holds
            assert a == b == c, (S.atoms, formula)
