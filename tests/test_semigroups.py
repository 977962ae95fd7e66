import gc
import itertools
import random
import time
import tracemalloc

import pytest

from sgfl.errors import (
    DimensionMismatchError,
    MNotInSError,
    NotMinimalError,
    NotNumericalError,
    NotPointedError,
    SgflError,
)
from sgfl import semigroups
from sgfl.kunz import kunz_point, numerical_context, semigroup_of_point
from sgfl.semigroups import minimal_generating_subset, new_semigroup

from conftest import affine_span, membership_table, sample_affine_atom_sets


@pytest.fixture(scope="module")
def chicken():
    # McNugget-flavored running example with four generators.
    return new_semigroup([10, 12, 21, 38])


@pytest.fixture(scope="module")
def plane():
    return new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)


def test_numerical_construction(chicken):
    assert chicken.atoms == (10, 12, 21, 38)
    assert chicken.grading == (1,)
    assert chicken.gcd == 1
    assert chicken.is_numerical


def test_affine_construction(plane):
    assert plane.dim == 2
    assert plane.grading == (1, 1)
    assert not plane.is_numerical


def test_generators_sorted_for_dim1():
    assert new_semigroup([21, 10, 38, 12]).atoms == (10, 12, 21, 38)


def test_affine_generators_keep_user_order():
    S = new_semigroup([(3, 1), (2, 0), (0, 5)], dim=2)
    assert S.atoms == ((3, 1), (2, 0), (0, 5))


def test_not_minimal_rejected():
    with pytest.raises(NotMinimalError) as info:
        new_semigroup([6, 9, 18])
    assert info.value.generator == 18


def test_duplicate_generator_rejected():
    with pytest.raises(NotMinimalError):
        new_semigroup([4, 4, 9])


def test_one_generates_everything():
    S = new_semigroup([1])
    assert S.frobenius() == -1
    with pytest.raises(NotMinimalError):
        new_semigroup([1, 2])


def test_nonpositive_dim1_rejected():
    with pytest.raises(NotPointedError):
        new_semigroup([-2, 3])
    with pytest.raises(NotPointedError):
        new_semigroup([(0,)], dim=1)


def test_grading_search_box():
    S = new_semigroup([(1, -1), (0, 1)], dim=2)
    assert all(sum(w * c for w, c in zip(S.grading, g)) >= 1 for g in S.generators)


def test_not_pointed_affine():
    with pytest.raises(NotPointedError):
        new_semigroup([(1, 0), (-1, 0)], dim=2)


def test_dimension_mismatch():
    S = new_semigroup([(2, 0), (3, 1)], dim=2)
    with pytest.raises(DimensionMismatchError):
        S.contains(5)
    with pytest.raises(DimensionMismatchError):
        S.divides(1, 2)
    with pytest.raises(DimensionMismatchError):
        S.contains((1, 2, 3))


def test_membership(chicken):
    assert chicken.contains(48)
    assert not chicken.contains(11)
    assert chicken.contains(0)
    assert not chicken.contains(-6)


def test_divides(chicken):
    assert chicken.divides(48, 84)
    assert not chicken.divides(48, 42)
    assert chicken.divides(48, 48)


def test_membership_closure_property(chicken, plane):
    rng = random.Random(7)
    for S in (chicken, plane):
        elements = []
        while len(elements) < 12:
            counts = [rng.randint(0, 4) for _ in S.generators]
            total = tuple(
                sum(c * g[j] for c, g in zip(counts, S.generators))
                for j in range(S.dim)
            )
            elements.append(S.element(total if S.dim > 1 else total[0]))
        for a, b in itertools.combinations(elements, 2):
            if S.dim == 1:
                assert S.contains(a + b)
            else:
                assert S.contains(tuple(x + y for x, y in zip(a, b)))


def test_divides_is_partial_order(chicken):
    rng = random.Random(11)
    elements = sorted({10 * rng.randint(0, 4) + 12 * rng.randint(0, 4)
                       + 21 * rng.randint(0, 3) for _ in range(40)})
    for a in elements:
        assert chicken.divides(a, a)
    for a, b, c in itertools.combinations(elements, 3):
        if chicken.divides(a, b) and chicken.divides(b, c):
            assert chicken.divides(a, c)
        if chicken.divides(a, b) and chicken.divides(b, a):
            assert a == b


def test_apery_set_examples():
    assert new_semigroup([5, 6, 8]).apery_set(5) == [0, 6, 12, 8, 14]
    assert new_semigroup([2, 3]).apery_set(2) == [0, 3]


def test_apery_definition_property(chicken):
    for m in chicken.atoms:
        apery = chicken.apery_set(m)
        for residue, least in enumerate(apery):
            assert least % m == residue
            assert chicken.contains(least)
            assert not chicken.contains(least - m)


def test_apery_requires_member():
    S = new_semigroup([5, 6, 8])
    with pytest.raises(MNotInSError):
        S.apery_set(7)
    with pytest.raises(MNotInSError):
        S.apery_set(0)


def test_numerical_only_operations(plane):
    with pytest.raises(NotNumericalError):
        plane.apery_set((2, 0))
    with pytest.raises(NotNumericalError):
        new_semigroup([4, 6]).frobenius()  # gcd 2


def test_frobenius_examples():
    assert new_semigroup([5, 6, 8]).frobenius() == 9
    assert new_semigroup([2, 3]).frobenius() == 1
    assert new_semigroup([6, 9, 20]).frobenius() == 43


def test_minimality_reverified_post_hoc(chicken, plane):
    # No generator is a combination of the others, by exhaustive search
    # over the box bounded by its grading value.
    for S in (chicken, plane):
        for i, g in enumerate(S.generators):
            others = [h for j, h in enumerate(S.generators) if j != i]
            wg = S.grading_value(g)
            bounds = [wg // S.grading_value(h) for h in others]
            for counts in itertools.product(*(range(b + 1) for b in bounds)):
                total = tuple(
                    sum(c * h[j] for c, h in zip(counts, others))
                    for j in range(S.dim)
                )
                assert total != g


def test_minimal_generating_subset():
    kept = minimal_generating_subset([(5,), (6, ), (12,), (8,), (14,)], 1)
    assert sorted(v[0] for v in kept) == [5, 6, 8]
    with pytest.raises(NotPointedError):
        minimal_generating_subset([(0, 0)], 2)


def test_empty_or_zero_generator_lists_raise_library_errors():
    # A caller that catches SgflError must see these too.
    with pytest.raises(SgflError):
        new_semigroup([])
    with pytest.raises(SgflError):
        minimal_generating_subset([(0,)], 1)


def test_gcd_recorded():
    assert new_semigroup([4, 6]).gcd == 2
    assert new_semigroup([4, 6]).contains(10)
    assert not new_semigroup([4, 6]).contains(9)


def test_combination_witness(chicken):
    counts = chicken.combination_of(48)
    assert sum(c * g for c, g in zip(counts, chicken.atoms)) == 48
    assert chicken.combination_of(11) is None


AFFINE_WBOUND = 9


def _affine_cases():
    """The sampled atom sets of [0,4]^2, and one whose grading is not (1, 1)."""
    return [new_semigroup(atoms, dim=2) for atoms in sample_affine_atom_sets()] + [
        new_semigroup([(1, -1), (0, 1)], dim=2)
    ]


def _graded_box(S, reach, wbound):
    """The points of [-reach, reach]^d whose grading value is within wbound."""
    return [
        v
        for v in itertools.product(range(-reach, reach + 1), repeat=S.dim)
        if abs(S.grading_value(v)) <= wbound
    ]


def test_affine_membership_matches_the_graded_span():
    cases = _affine_cases()
    assert cases[-1].grading != (1, 1)
    for S in cases:
        span = affine_span(S.generators, S.grading, AFFINE_WBOUND)
        box = _graded_box(S, AFFINE_WBOUND, AFFINE_WBOUND)
        assert span <= set(box)
        for v in box:
            assert S.contains(v) == (v in span), (S, v)
        # Differences of these stay within the span's grading bound.
        near = _graded_box(S, 3, AFFINE_WBOUND // 2)
        for a in near:
            for b in near:
                diff = tuple(y - x for x, y in zip(a, b))
                assert S.divides(a, b) == (diff in span), (S, a, b)


def test_affine_combination_sums_back_to_its_value():
    for S in _affine_cases():
        span = affine_span(S.generators, S.grading, AFFINE_WBOUND)
        for v in _graded_box(S, AFFINE_WBOUND, AFFINE_WBOUND):
            counts = S.combination_of(v)
            if v not in span:
                assert counts is None, (S, v)
                continue
            assert min(counts) >= 0
            total = tuple(
                sum(c * g[j] for c, g in zip(counts, S.generators))
                for j in range(S.dim)
            )
            assert total == v, (S, v, counts)


def _greedy_witness(v, gens, span):
    """Counts that take, at each step, the first generator in presentation
    order whose removal stays in span; span must hold v's residuals."""
    counts = [0] * len(gens)
    while any(v):
        for i, g in enumerate(gens):
            child = tuple(a - b for a, b in zip(v, g))
            if child in span:
                counts[i] += 1
                v = child
                break
    return tuple(counts)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_affine_combination_takes_the_first_generator_that_stays_in_s(warm):
    # Warm: the memo first answers contains over the box in shuffled order.
    rng = random.Random(25)
    for S in _affine_cases():
        span = affine_span(S.generators, S.grading, AFFINE_WBOUND)
        box = _graded_box(S, AFFINE_WBOUND, AFFINE_WBOUND)
        rng.shuffle(box)
        if warm:
            for v in box:
                S.contains(v)
        for v in box:
            T = S if warm else new_semigroup(S.generators, dim=S.dim)
            expected = _greedy_witness(v, S.generators, span) if v in span else None
            assert T.combination_of(v) == expected, (S, v)


def test_affine_non_atom_names_its_witness():
    with pytest.raises(NotMinimalError) as info:
        new_semigroup([(2, 0), (3, 1), (5, 1)], dim=2)
    assert info.value.generator == (5, 1)
    assert str(info.value) == (
        "generator (5, 1) factors over the others as 1*(2, 0) + 1*(3, 1)"
    )


def _seeded_numerical_lists(seed, count):
    """Minimal dimension-1 generator lists in shuffled order, gcd > 1 too."""
    rng = random.Random(seed)
    lists = [[4, 6], [6, 10, 14], [14, 6, 10], [21, 10, 38, 12], [9, 7, 5]]
    while len(lists) < count:
        scale = rng.choice((1, 1, 1, 2, 3))
        gens = [scale * g for g in rng.sample(range(2, 30), rng.randint(2, 5))]
        try:
            new_semigroup(gens)
        except NotMinimalError:
            continue
        lists.append(gens)
    return lists


def test_contains_matches_independent_table():
    for gens in _seeded_numerical_lists(20261018, 60):
        S = new_semigroup(gens)
        n1, nk = min(gens), max(gens)
        table = membership_table(gens, 3 * nk)
        for n in range(-n1, 3 * nk + 1):
            assert S.contains(n) == (n >= 0 and table[n]), (gens, n)


def test_int_divides_matches_tuple_form_and_independent_table():
    # Ints take the direct residue-table test; tuples the vector path.
    for gens in _seeded_numerical_lists(20261018, 60):
        S = new_semigroup(gens)
        nk = max(gens)
        table = membership_table(gens, 3 * nk)
        for a in range(0, 3 * nk + 1, 7):
            for b in range(3 * nk + 1):
                expected = b >= a and table[b - a]
                assert S.divides(a, b) == expected, (gens, a, b)
                assert S.divides((a,), (b,)) == expected, (gens, a, b)


def test_apery_and_frobenius_match_independent_table():
    # Every Apery element of <n1, ..., nk> modulo n1 is below n1 * nk.
    for gens in _seeded_numerical_lists(20261019, 60):
        S = new_semigroup(gens)
        if not S.is_numerical:
            continue
        n1, nk = min(gens), max(gens)
        table = membership_table(gens, n1 * nk)
        least = [None] * n1
        for n in range(n1 * nk, -1, -1):
            if table[n]:
                least[n % n1] = n
        assert S.apery_set(n1) == least, gens
        gaps = [n for n in range(n1 * nk + 1) if not table[n]]
        assert S.frobenius() == max(gaps, default=-1), gens


def test_non_atom_witness_takes_n1_in_one_step():
    # The witness takes n1 = 2 half a million times; the residue table
    # gives that count at once, where one step per copy took over a second.
    start = time.perf_counter()
    with pytest.raises(NotMinimalError) as info:
        new_semigroup([2, 10**6])
    assert time.perf_counter() - start < 0.1
    assert info.value.combination == "500000*2"


def _stepwise_witness(gens, v):
    """Counts over gens (ascending) taking, one copy per step, the first
    generator whose removal stays in their span."""
    member = membership_table(gens, v)
    counts = [0] * len(gens)
    while v:
        i = next(i for i, g in enumerate(gens) if v >= g and member[v - g])
        counts[i] += 1
        v -= gens[i]
    return counts


def test_non_atom_witness_matches_a_stepwise_reference():
    rng = random.Random(20261021)
    seen = 0
    while seen < 60:
        gens = rng.sample(range(2, 30), rng.randint(2, 5))
        gens.append(rng.randint(60, 3000))
        rng.shuffle(gens)
        ordered = sorted(gens)
        non_atoms = [
            v
            for v in ordered
            if membership_table([g for g in ordered if g != v], v)[v]
        ]
        if not non_atoms:
            continue
        seen += 1
        v = non_atoms[0]
        others = [g for g in ordered if g != v]
        counts = _stepwise_witness(others, v)
        with pytest.raises(NotMinimalError) as info:
            new_semigroup(gens)
        assert info.value.generator == v, gens
        assert info.value.combination == " + ".join(
            f"{c}*{g}" for c, g in zip(counts, others) if c
        ), gens


def test_minimal_generating_subset_matches_independent_table():
    # Shuffled lists, redundant members included: the kept atoms are the
    # members outside the span of the rest, in the order given.
    rng = random.Random(20261020)
    for _ in range(60):
        gens = rng.sample(range(2, 40), rng.randint(2, 6))
        kept = [v[0] for v in minimal_generating_subset([(g,) for g in gens], 1)]
        expected = [
            g
            for g in gens
            if not membership_table([h for h in gens if h != g], g)[g]
        ]
        assert kept == expected, gens


def test_contains_large_values(chicken):
    # Membership needs no structure that grows with the queried value.
    assert chicken.contains(10**15)
    assert chicken.contains(10**15 + 1)
    S = new_semigroup([4, 6])
    assert S.contains(10**15)
    assert not S.contains(10**15 + 1)
    assert not S.contains(-(10**15))


def test_residue_tables_sized_by_queried_span(monkeypatch):
    # Checking that 2 is an atom of <2, 10**9 + 1> asks whether 2 lies in
    # <10**9 + 1>; that answer needs no table modulo 10**9 + 1.  The same
    # holds for the Kunz point below, whose atoms 3e8 + 1 and 3e8 + 2 are
    # checked against spans of 3.  Any table over 1000 entries fails here
    # before it is allocated.
    moduli = []
    real = semigroups._least_per_residue

    def recording(gens, modulus):
        assert modulus <= 1000, f"table modulo {modulus}"
        moduli.append(modulus)
        return real(gens, modulus)

    monkeypatch.setattr(semigroups, "_least_per_residue", recording)
    S = new_semigroup([2, 10**9 + 1])
    assert S.contains(10**9 + 3)
    assert not S.contains(10**9 - 1)
    assert S.frobenius() == 10**9 - 1
    built = len(moduli)
    assert S.apery_set(2) == [0, 10**9 + 1]
    assert len(moduli) == built  # apery_set(n1) reads the oracle's table

    ctx = numerical_context(3)
    point = kunz_point(ctx, [0, 10**8, 10**8])
    assert semigroup_of_point(ctx, point).atoms == (3, 3 * 10**8 + 1, 3 * 10**8 + 2)


def test_apery_sets_modulo_other_atoms_are_not_kept():
    # Only the table modulo n1, which membership reads, stays with the
    # presentation.  Keeping each Apery set would hold about 34 MB here.
    S = new_semigroup([2, 3])
    assert S.contains(5)  # builds the table modulo n1 before tracing
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in range(2, 1500):
            apery = S.apery_set(m)
            assert len(apery) == m and apery[1] == m + 1  # 1 + m is in S
        del apery
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 10**6
