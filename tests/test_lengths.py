import itertools
import random
import tracemalloc

import pytest

from conftest import (
    affine_span,
    build_corpus,
    enumerate_factorizations_box,
    enumerate_kunz_points,
    length_dp,
    sample_affine_atom_sets,
)
from sgfl.errors import (
    BudgetExceededError,
    MNotAtomError,
    NotInSemigroupError,
    NotNumericalError,
)
from sgfl.kunz import numerical_context, semigroup_of_point
from sgfl.lengths import (
    _extremal,
    factorizations,
    length_summary,
    length_table,
    longest_length,
    shortest_length,
)
from sgfl.semigroups import new_semigroup


@pytest.fixture(scope="module")
def chicken():
    return new_semigroup([10, 12, 21, 38])


@pytest.fixture(scope="module")
def plane():
    return new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)


def test_factorizations_golden(chicken):
    assert factorizations(chicken, 48) == ((0, 4, 0, 0), (1, 0, 0, 1))
    assert factorizations(chicken, 11) == ()
    assert factorizations(chicken, 0) == ((0, 0, 0, 0),)


def test_factorizations_affine(plane):
    facs = factorizations(plane, (27, 9))
    assert (0, 9, 0) in facs
    for c in facs:
        total = tuple(
            sum(ci * g[j] for ci, g in zip(c, plane.generators))
            for j in range(2)
        )
        assert total == (27, 9)


def test_length_summary_golden(plane):
    summary = length_summary(plane, (30, 10))
    assert summary.longest == 17
    assert summary.shortest == 10
    assert summary.witness_longest == (15, 0, 2)
    assert summary.witness_shortest == (0, 10, 0)
    assert length_summary(plane, (27, 9)).longest == 9


def test_length_summary_zero(chicken):
    summary = length_summary(chicken, 0)
    assert (summary.longest, summary.shortest) == (0, 0)
    assert summary.lengths == (0,)


def test_length_summary_outside(chicken):
    with pytest.raises(NotInSemigroupError):
        length_summary(chicken, 11)


def test_summary_m_flags(plane):
    summary = length_summary(plane, (30, 10), m=(2, 0))
    assert summary.has_m_in_longest is True  # 15(2,0) + 2(0,5)
    assert summary.has_m_in_shortest is False  # 10(3,1)
    with pytest.raises(MNotAtomError):
        length_summary(plane, (30, 10), m=(1, 1))


def test_agrees_with_box_enumeration(chicken):
    small = new_semigroup([5, 6, 8])
    for S in (chicken, small):
        for v in range(61):
            assert factorizations(S, v) == tuple(
                tuple(c) for c in enumerate_factorizations_box(S, v)
            )


def test_agrees_with_box_enumeration_affine(plane):
    for x in range(0, 61, 3):
        for y in range(0, 61 - x, 4):
            got = factorizations(plane, (x, y))
            assert got == tuple(
                tuple(c) for c in enumerate_factorizations_box(plane, (x, y))
            )


def test_branch_and_bound_matches_full_enumeration(chicken, plane):
    for S, elements in (
        (chicken, range(61)),
        (plane, [(x, y) for x in range(0, 41, 2) for y in range(0, 30, 3)]),
    ):
        for v in elements:
            facs = factorizations(S, v)
            if not facs:
                assert longest_length(S, v) is None
                assert shortest_length(S, v) is None
                continue
            lengths = [sum(c) for c in facs]
            top, top_witness = longest_length(S, v)
            low, low_witness = shortest_length(S, v)
            assert top == max(lengths)
            assert low == min(lengths)
            # Tie-break: lexicographically smallest extremal witness.
            assert top_witness == min(c for c in facs if sum(c) == top)
            assert low_witness == min(c for c in facs if sum(c) == low)


AFFINE_WBOUND = 20


def test_walks_match_box_enumeration_on_sampled_affine_sets():
    # The full walk and both branch and bounds, on every element of each
    # sampled set up to a grading bound, and on the lattice points near
    # the origin that lie outside the set.
    for atoms in sample_affine_atom_sets():
        S = new_semigroup(atoms, dim=2)
        span = affine_span(S.generators, S.grading, AFFINE_WBOUND)
        box = set(itertools.product(range(-1, 7), repeat=2))
        for v in sorted(span | box):
            facs = tuple(tuple(c) for c in enumerate_factorizations_box(S, v))
            assert factorizations(S, v) == facs, (atoms, v)
            if S.grading_value(v) <= AFFINE_WBOUND:
                assert bool(facs) == (v in span), (atoms, v)
            if not facs:
                assert longest_length(S, v) is None
                assert shortest_length(S, v) is None
                continue
            top = max(map(sum, facs))
            low = min(map(sum, facs))
            assert longest_length(S, v) == (
                top, min(c for c in facs if sum(c) == top)
            ), (atoms, v)
            assert shortest_length(S, v) == (
                low, min(c for c in facs if sum(c) == low)
            ), (atoms, v)


def test_noms_shift_equivalence_both_directions(chicken, plane):
    rng = random.Random(23)
    for S in (chicken, plane):
        checked = 0
        while checked < 25:
            counts = [rng.randint(0, 3) for _ in S.generators]
            m = S.atoms[rng.randrange(len(S.atoms))]
            vec = tuple(
                sum(c * g[j] for c, g in zip(counts, S.generators))
                for j in range(S.dim)
            )
            v = S.element(vec if S.dim > 1 else vec[0])
            prev = (
                v - m
                if S.dim == 1
                else tuple(a - b for a, b in zip(v, m))
            )
            if not S.contains(prev):
                continue
            checked += 1
            summary = length_summary(S, v, m=m)
            assert summary.has_m_in_longest == (
                summary.longest == length_summary(S, prev).longest + 1
            )
            assert summary.has_m_in_shortest == (
                summary.shortest == length_summary(S, prev).shortest + 1
            )


def test_superadditivity(chicken):
    rng = random.Random(31)
    members = [v for v in range(120) if chicken.contains(v)]
    for _ in range(30):
        a, b = rng.choice(members), rng.choice(members)
        sa = length_summary(chicken, a)
        sb = length_summary(chicken, b)
        sab = length_summary(chicken, a + b)
        assert sab.longest >= sa.longest + sb.longest
        assert sab.shortest <= sa.shortest + sb.shortest


def test_budget_exceeded(chicken):
    with pytest.raises(BudgetExceededError):
        factorizations(chicken, 500, budget=5)


def _seeded_point_semigroups(seed=41, per_modulus=6):
    """Semigroups of seeded Kunz points at m = 6..8, coordinates <= 4."""
    rng = random.Random(seed)
    out = []
    for m in (6, 7, 8):
        ctx = numerical_context(m)
        for coords in rng.sample(enumerate_kunz_points(m, cap=4), per_modulus):
            out.append(semigroup_of_point(ctx, coords))
    return out


def test_length_table_matches_branch_and_bound():
    """The length table is the dimension-1 length engine of the verdicts;
    this ties it back to the branch-and-bound search, value by value."""
    semigroups = build_corpus()[::10] + _seeded_point_semigroups()
    for S in semigroups:
        upto = 3 * S.atoms[-1]
        for maximize in (True, False):
            table = length_table(S, upto, maximize)
            assert len(table) == upto + 1
            for v in range(upto + 1):
                found = _extremal(S, v, maximize)
                assert table[v] == (None if found is None else found[0]), (
                    S, v, maximize,
                )


def test_length_table_budget_and_dimension(chicken, plane):
    with pytest.raises(BudgetExceededError):
        length_table(chicken, 100, True, budget=100)
    assert length_table(chicken, 99, True, budget=100)[48] == 4
    with pytest.raises(NotNumericalError):
        length_table(plane, 10, True)


def test_length_table_keeps_one_list_at_peak():
    # Lengths up to 250 are cached small ints, so the table's memory is its
    # array of pointers; a padded table, its slice and a None-mapped copy
    # held at once would be three such arrays.
    S = new_semigroup([200, 201, 203])
    upto = 50_000
    tracemalloc.start()
    try:
        table = length_table(S, upto, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == upto + 1
    assert (table[0], table[199], table[400], table[403]) == (0, None, 2, 2)
    assert peak < 2 * 8 * (upto + 1)


@pytest.mark.parametrize(
    "gens", [[1], [2, 3], [2, 7], [3, 5, 7], [3, 10, 11], [5, 6, 13, 14]]
)
def test_length_table_matches_the_coin_change_dp(gens):
    # n1 = 1, 2 and 3 give one, two and three values per atom step; the
    # small bounds leave every atom, or all but the smallest, above upto.
    S = new_semigroup(gens)
    for maximize in (True, False):
        for upto in [*range(4 * gens[-1]), 1000]:
            assert length_table(S, upto, maximize) == length_dp(
                S.atoms, upto, maximize
            ), (gens, upto, maximize)
