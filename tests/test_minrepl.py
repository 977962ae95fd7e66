import itertools
import random

import pytest

from sgfl.errors import (
    BudgetExceededError,
    MNotAtomError,
    ReportMismatchError,
    SgflError,
)
from sgfl.lengths import (
    factorizations,
    length_summary,
    longest_length,
    shortest_length,
)
from sgfl.minrepl import (
    candidate_sets,
    evaluate,
    is_left_zero,
    is_right_zero,
    min_repl,
    repl_contains,
)
from sgfl.semigroups import new_semigroup
from sgfl.verdicts import check_formula, oracle_scan

from conftest import (
    affine_repl_box,
    membership_table,
    minimal_of,
    sample_affine_atom_sets,
)


@pytest.fixture(scope="module")
def chicken():
    return new_semigroup([10, 12, 21, 38])


@pytest.fixture(scope="module")
def plane_wide():
    return new_semigroup([(3, 0), (7, 0), (11, 0), (6, 1), (0, 3)], dim=2)


def test_repl_contains(chicken):
    assert repl_contains(chicken, 10, (4, 0, 0))
    assert not repl_contains(chicken, 10, (3, 0, 0))
    assert not repl_contains(chicken, 10, (0, 0, 0))
    with pytest.raises(MNotAtomError):
        repl_contains(chicken, 11, (0, 0, 0))


def test_min_repl_m10(chicken):
    report = min_repl(chicken, 10)
    assert report.atom_index == (12, 21, 38)
    assert report.minimal_vectors == ((0, 0, 2), (0, 2, 0), (1, 0, 1), (4, 0, 0))
    assert report.evaluations == {
        (0, 0, 2): 76,
        (0, 2, 0): 42,
        (1, 0, 1): 50,
        (4, 0, 0): 48,
    }


def test_min_repl_m38(chicken):
    report = min_repl(chicken, 38)
    assert report.minimal_vectors == (
        (0, 0, 4),
        (0, 3, 2),
        (0, 4, 0),
        (1, 2, 2),
        (2, 0, 2),
        (4, 3, 0),
        (5, 0, 0),
    )
    assert [report.evaluations[v] for v in report.minimal_vectors] == [
        84, 78, 48, 76, 62, 76, 50,
    ]


def test_min_repl_affine_plane():
    S = new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)
    assert min_repl(S, (2, 0)).minimal_vectors == ((10, 0),)
    assert min_repl(S, (3, 1)).minimal_vectors == ((15, 2),)
    assert min_repl(S, (0, 5)).minimal_vectors == ((0, 10),)
    assert min_repl(S, (2, 0)).evaluations[(10, 0)] == (30, 10)


def test_min_repl_plane_wide(plane_wide):
    report = min_repl(plane_wide, (3, 0))
    assert report.minimal_vectors == (
        (0, 0, 3, 0),
        (0, 2, 0, 0),
        (1, 1, 0, 0),
        (2, 0, 0, 0),
    )
    assert [report.evaluations[v] for v in report.minimal_vectors] == [
        (18, 3), (22, 0), (18, 0), (14, 0),
    ]
    # Cross-check via the definition, coordinate by coordinate.
    for vec in report.minimal_vectors:
        assert repl_contains(plane_wide, (3, 0), vec)
        for i in range(len(vec)):
            if vec[i]:
                lower = vec[:i] + (vec[i] - 1,) + vec[i + 1 :]
                assert not repl_contains(plane_wide, (3, 0), lower)


def test_min_repl_empty_when_no_slack():
    # Only atoms of the other coordinate direction: nothing replaces m.
    S = new_semigroup([(1, 0), (0, 1)], dim=2)
    assert min_repl(S, (1, 0)).minimal_vectors == ()


def test_candidate_sets_m10(chicken):
    report = candidate_sets(chicken, 10, min_repl(chicken, 10))
    assert report.m2 == (42, 48, 50)
    assert report.m1 == (48,)
    assert report.n1 == (48,)
    assert report.n2 is None


def test_candidate_sets_m38(chicken):
    report = candidate_sets(chicken, 38, min_repl(chicken, 38))
    assert report.m2 == (48, 50, 76)
    assert report.n2 == (48,)
    assert report.n1 is None


def test_candidate_sets_plane_wide(plane_wide):
    report = candidate_sets(plane_wide, (3, 0), min_repl(plane_wide, (3, 0)))
    assert report.m1 == ()
    assert report.m2 == ((14, 0), (18, 0), (22, 0))
    assert report.n1 is None and report.n2 is None


def test_report_mismatch(chicken):
    report = min_repl(chicken, 10)
    with pytest.raises(ReportMismatchError):
        candidate_sets(chicken, 38, report)


def test_non_positive_budget_raises_sgfl_error():
    S = new_semigroup([3, 5])
    for budget in (0, -1):
        with pytest.raises(SgflError, match="budget must be positive"):
            min_repl(S, 3, budget=budget)
        with pytest.raises(SgflError, match="budget must be positive"):
            longest_length(S, 10, budget=budget)


# Exact search nodes, in budget units, of min_repl at every atom and of
# the factorization walks at a few elements.  A change to the searches
# that keeps their results but adds or drops work shows up here.
SEARCH_NODES = {
    "chicken": [
        (min_repl, 10, 25),
        (min_repl, 12, 30),
        (min_repl, 21, 64),
        (min_repl, 38, 87),
        (factorizations, 84, 128),
        (longest_length, 84, 36),
        (shortest_length, 84, 38),
        (factorizations, 131, 333),
        (longest_length, 131, 177),
        (shortest_length, 131, 105),
        (factorizations, 200, 930),
        (longest_length, 200, 213),
        (shortest_length, 200, 109),
    ],
    "plane_wide": [
        (min_repl, (3, 0), 885),
        (min_repl, (7, 0), 727),
        (min_repl, (11, 0), 577),
        (min_repl, (6, 1), 17136),
        (min_repl, (0, 3), 9374),
        (factorizations, (21, 0), 88),
        (longest_length, (21, 0), 87),
        (shortest_length, (21, 0), 32),
        (factorizations, (18, 3), 88),
        (longest_length, (18, 3), 81),
        (shortest_length, (18, 3), 19),
        (factorizations, (30, 6), 290),
        (longest_length, (30, 6), 276),
        (shortest_length, (30, 6), 206),
    ],
}


@pytest.mark.parametrize("name", sorted(SEARCH_NODES))
def test_search_node_counts_are_pinned(request, name):
    S = request.getfixturevalue(name)
    for search, arg, nodes in SEARCH_NODES[name]:
        search(S, arg, budget=nodes)
        with pytest.raises(BudgetExceededError):
            search(S, arg, budget=nodes - 1)


def test_left_right_zero_predicates():
    assert not is_left_zero((4, 0, 0))
    assert is_left_zero((0, 0, 2))
    assert is_left_zero((0, 2, 2))
    assert is_left_zero((1, 1, 1))
    assert is_right_zero((5, 0, 0))
    assert is_right_zero((4, 3, 0))
    assert is_right_zero((1, 2, 2))
    assert not is_right_zero((0, 4, 0))
    assert not is_right_zero((2, 0, 2))


def test_upward_closure_property(chicken):
    rng = random.Random(5)
    for m in (10, 38):
        report = min_repl(chicken, m)
        for vec in report.minimal_vectors:
            for _ in range(4):
                above = tuple(c + rng.randint(0, 2) for c in vec)
                assert repl_contains(chicken, m, above)


def test_minimality_property(chicken):
    for m in chicken.atoms:
        report = min_repl(chicken, m)
        for vec in report.minimal_vectors:
            for i in range(len(vec)):
                if vec[i]:
                    lower = vec[:i] + (vec[i] - 1,) + vec[i + 1 :]
                    assert not repl_contains(chicken, m, lower)


def test_completeness_against_box_oracle(minrepl_box_results):
    for S, m, frontier, boxed in minrepl_box_results:
        assert frontier == boxed, (S.atoms, m)


def test_min_repl_gcd_above_one_against_box():
    # A gcd > 1 list spans no numerical semigroup, so no Frobenius number
    # bounds the search; m*e_i is always replaceable, so the box [0, m]
    # holds every minimal vector.
    assert min_repl(new_semigroup([4, 6]), 4).minimal_vectors == ((2,),)
    assert min_repl(new_semigroup([4, 6]), 6).minimal_vectors == ((3,),)
    for gens in ([4, 6], [6, 10, 14], [9, 15, 21]):
        S = new_semigroup(gens)
        for m in S.atoms:
            others = [a for a in S.atoms if a != m]
            table = membership_table(S.atoms, m * sum(others))
            hits = [
                vec
                for vec in itertools.product(range(m + 1), repeat=len(others))
                if sum(c * a for c, a in zip(vec, others)) >= m
                and table[sum(c * a for c, a in zip(vec, others)) - m]
            ]
            assert list(min_repl(S, m).minimal_vectors) == minimal_of(hits), (
                gens, m,
            )


def _assert_matches_affine_box(S, m):
    report = min_repl(S, m)
    computed = report.minimal_vectors
    bound = max((max(vec) for vec in computed), default=0) + 1
    replaceable = affine_repl_box(report.atom_index, m, bound)
    for vec in computed:
        assert vec in replaceable, (S.atoms, m, vec)
        for i in range(len(vec)):
            if vec[i]:
                lower = vec[:i] + (vec[i] - 1,) + vec[i + 1 :]
                assert lower not in replaceable, (S.atoms, m, lower)
    for vec in replaceable:
        assert any(
            all(c <= v for c, v in zip(low, vec)) for low in computed
        ), (S.atoms, m, vec)


def test_min_repl_affine_against_box_oracle(plane_wide):
    for m in plane_wide.atoms:
        _assert_matches_affine_box(plane_wide, m)
    for atoms in sample_affine_atom_sets():
        S = new_semigroup(list(atoms), dim=2)
        for m in S.atoms:
            _assert_matches_affine_box(S, m)


def _strip_coordinate(vec, index):
    return vec[:index] + vec[index + 1 :]


def test_minimalize_invariant_on_failing_instances(corpus):
    """An extremal failure propagates to every minimal vector below it."""
    longest_seen = shortest_seen = 0
    for S in corpus:
        if longest_seen >= 3 and shortest_seen >= 3:
            break
        for formula, m in (("longest", S.atoms[0]), ("shortest", S.atoms[-1])):
            verdict = check_formula(S, m, formula)
            if verdict.holds:
                continue
            if formula == "longest":
                if longest_seen >= 3:
                    continue
                longest_seen += 1
            else:
                if shortest_seen >= 3:
                    continue
                shortest_seen += 1
            mi = S.generator_index(m)
            report = min_repl(S, m)
            fn = longest_length if formula == "longest" else shortest_length
            for check in verdict.counterexamples:
                s = check.element
                summary = length_summary(S, s, m=m)
                witness = (
                    summary.witness_longest
                    if formula == "longest"
                    else summary.witness_shortest
                )
                if witness[mi] != 0:
                    continue
                stripped = _strip_coordinate(witness, mi)
                for vec in report.minimal_vectors:
                    if all(a <= b for a, b in zip(vec, stripped)):
                        value = report.evaluations[vec]
                        assert fn(S, value)[0] != fn(S, value - m)[0] + 1
    assert longest_seen and shortest_seen


def test_evaluate_helper(chicken):
    others = tuple(g for g in chicken.generators if g != (10,))
    assert evaluate(chicken, others, (4, 0, 0)) == (48,)


def test_oracle_scan_consistency_spot(chicken):
    # The same failing element surfaces on both routes.
    v1 = check_formula(chicken, 10, "longest")
    v2 = oracle_scan(chicken, 10, "longest")
    assert not v1.holds and not v2.holds
    assert v1.counterexamples[0].element == v2.counterexamples[0].element == 48
