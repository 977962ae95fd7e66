import tracemalloc

import pytest

from sgfl.errors import (
    BudgetExceededError,
    MissingBoundError,
    MNotAtomError,
    NotEmbDim3Error,
    NotInSemigroupError,
)
from sgfl.lengths import length_summary, length_table
from sgfl.minrepl import MinReplReport, min_repl
from sgfl.semigroups import new_semigroup
from sgfl.verdicts import (
    Formula,
    candidate_atoms,
    check_formula,
    default_scan_bound,
    embdim3_check,
    oracle_scan,
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
    assert [c.element for c in verdict.checked] == [10]


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
