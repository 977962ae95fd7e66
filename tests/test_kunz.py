import itertools
import random
import time

import pytest

from sgfl.budget import DEFAULT_BUDGET
from sgfl.errors import (
    BadModulusError,
    BudgetExceededError,
    DifferentFaceError,
    InequalityViolatedError,
    MNotAtomAtPointError,
    MNotInSError,
    NoFactorizationError,
    NotIntegerPointError,
)
from sgfl.kunz import (
    INFINITY,
    cominimal,
    is_m_atom_point,
    is_reduced_point,
    kunz_point,
    main_verdict,
    min_inf_factorizations,
    numerical_context,
    oplus,
    pinfty_atoms,
    pinfty_length_extremes,
    point_of_semigroup,
    poset_of_point,
    pseudomin,
    semigroup_of_point,
    sq_leq,
    structure_constants,
)
from sgfl.minrepl import _minimal_elements, min_repl
from sgfl.semigroups import new_semigroup
from sgfl.verdicts import check_formula

from conftest import definitional_carry, enumerate_kunz_points

FAMILY = [(0, 1, 2, 1, 2), (0, 11, 22, 32, 43), (0, 3, 6, 2, 5), (0, 3, 6, 8, 11)]


@pytest.fixture(scope="module")
def ctx5():
    return numerical_context(5)


@pytest.fixture(scope="module")
def base_point(ctx5):
    return kunz_point(ctx5, [0, 1, 2, 1, 2])


def test_context_carries(ctx5):
    # The pair carry d_{a,b} is the carry of the vector with one a and one b.
    assert structure_constants(ctx5, (1, 1), (0, 0), (1, 4))[0] == 1
    assert structure_constants(ctx5, (1, 1), (0, 0), (1, 2))[0] == 0
    assert structure_constants(numerical_context(2), (2,), (0,), (1,))[0] == 1
    with pytest.raises(BadModulusError):
        numerical_context(1)


def test_point_of_semigroup(ctx5):
    assert point_of_semigroup(ctx5, new_semigroup([5, 6, 8])).x == (0, 1, 2, 1, 2)
    assert point_of_semigroup(ctx5, new_semigroup([5, 13, 16])).x == (0, 3, 6, 2, 5)
    ctx2 = numerical_context(2)
    assert point_of_semigroup(ctx2, new_semigroup([2, 3])).x == (0, 1)
    with pytest.raises(MNotInSError):
        point_of_semigroup(numerical_context(7), new_semigroup([10, 12, 21, 38]))


def test_semigroup_of_point(ctx5):
    expected = {
        (0, 1, 2, 1, 2): (5, 6, 8),
        (0, 11, 22, 32, 43): (5, 56, 163),
        (0, 3, 6, 2, 5): (5, 13, 16),
        (0, 3, 6, 8, 11): (5, 16, 43),
    }
    for coords, atoms in expected.items():
        assert semigroup_of_point(ctx5, kunz_point(ctx5, list(coords))).atoms == atoms
    assert semigroup_of_point(ctx5, kunz_point(ctx5, [0, 0, 0, 0, 0])).atoms == (1,)


def test_point_validation(ctx5):
    with pytest.raises(NotIntegerPointError):
        kunz_point(ctx5, [0, 1, 2, 1])
    with pytest.raises(NotIntegerPointError):
        kunz_point(ctx5, [0, 1.5, 2, 1, 2])
    with pytest.raises(InequalityViolatedError) as info:
        kunz_point(ctx5, [0, 0, 5, 0, 0])  # x_1 + x_1 + 0 < x_2
    assert info.value.pair == (1, 1)
    with pytest.raises(InequalityViolatedError):
        kunz_point(ctx5, [1, 2, 3, 2, 3])  # x_0 must stay 0


def test_roundtrip(ctx5):
    for coords in FAMILY:
        S = semigroup_of_point(ctx5, kunz_point(ctx5, list(coords)))
        assert point_of_semigroup(ctx5, S).x == coords


def test_poset_relations(ctx5, base_point):
    nontrivial = sorted((a, b) for (a, b) in base_point.relations if a != b)
    assert nontrivial == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (3, 4),
    ]
    assert poset_of_point(ctx5, base_point) == base_point.relations
    for a in range(5):
        assert (a, a) in base_point.relations
    ctx2 = numerical_context(2)
    p2 = kunz_point(ctx2, [0, 1])
    assert sorted((a, b) for (a, b) in p2.relations if a != b) == [(0, 1)]


def test_same_face_interior(ctx5, base_point):
    for coords in FAMILY:
        other = kunz_point(ctx5, list(coords))
        assert other.equality_set == base_point.equality_set
        assert other.relations == base_point.relations


def test_oplus(base_point):
    assert oplus(base_point, 1, 1) == 2
    assert oplus(base_point, 1, 2) is INFINITY
    assert oplus(base_point, 1, INFINITY) is INFINITY
    assert oplus(base_point, INFINITY, INFINITY) is INFINITY
    assert oplus(base_point, 0, 3) == 3


def test_oplus_associative_commutative_exhaustive(ctx5, base_point):
    ctx7 = numerical_context(7)
    points = [base_point, kunz_point(ctx7, [0, 1, 2, 3, 1, 2, 3])]
    for p in points:
        domain = list(range(p.m)) + [INFINITY]
        for a, b in itertools.product(domain, repeat=2):
            assert oplus(p, a, b) == oplus(p, b, a)
        for a, b, c in itertools.product(domain, repeat=3):
            assert oplus(p, oplus(p, a, b), c) == oplus(p, a, oplus(p, b, c))


def test_divisibility_under_oplus_is_poset(base_point):
    m = base_point.m
    for a in range(m):
        for b in range(m):
            divides = any(
                oplus(base_point, a, g) == b for g in range(m)
            )
            assert divides == base_point.leq(a, b)


def test_atoms_and_their_image(base_point):
    assert pinfty_atoms(base_point) == (1, 3)
    image = sorted(base_point.x[a] * 5 + a for a in base_point.atoms)
    assert image == [6, 8]
    ctx2 = numerical_context(2)
    assert pinfty_atoms(kunz_point(ctx2, [0, 1])) == (1,)


def test_min_inf_factorizations(base_point):
    assert [f.c for f in min_inf_factorizations(base_point)] == [
        (0, 2), (2, 1), (3, 0),
    ]
    ctx2 = numerical_context(2)
    p2 = kunz_point(ctx2, [0, 1])
    assert [f.c for f in p2.min_inf] == [(2,)]
    # g-image agrees with the minimal replaceable vectors of <2,3>.
    assert min_repl(new_semigroup([2, 3]), 2).minimal_vectors == ((2,),)


def test_min_inf_vectors_are_minimal(ctx5, base_point):
    def product(p, counts):
        acc = 0
        for a, count in zip(p.atoms, counts):
            for _ in range(count):
                if acc is INFINITY:
                    return INFINITY
                acc = p.oplus_table[acc][a]
        return acc

    for coords in FAMILY:
        p = kunz_point(ctx5, list(coords))
        for f in p.min_inf:
            assert product(p, f.c) is INFINITY
            assert f.beta == sum(c * a for c, a in zip(f.c, p.atoms)) % 5
            for i in range(len(f.c)):
                if f.c[i]:
                    lower = f.c[:i] + (f.c[i] - 1,) + f.c[i + 1 :]
                    assert product(p, lower) is not INFINITY


def test_min_inf_matches_pairwise_minimal_filter():
    """The walk's local minimality test against the pairwise antichain
    filter, on every INFINITY hit of an independent product enumeration."""

    def hits(p):
        out = []
        counts = [0] * len(p.atoms)

        def rec(i, acc):
            if acc is INFINITY:
                out.append(tuple(counts))
                return
            if i == len(p.atoms):
                return
            for count in range(p.power_bounds[i] + 1):
                counts[i] = count
                rec(i + 1, acc)
                if acc is INFINITY:
                    break
                acc = oplus(p, acc, p.atoms[i])
            counts[i] = 0

        rec(0, 0)
        return out

    rng = random.Random(20261018)
    checked = 0
    for m in range(2, 11):
        ctx = numerical_context(m)
        cap = 3 if m <= 8 else 2
        points = enumerate_kunz_points(m, cap=cap)
        for coords in rng.sample(points, min(len(points), 15)):
            p = kunz_point(ctx, coords)
            expected = _minimal_elements(hits(p))
            assert tuple(f.c for f in p.min_inf) == expected, coords
            checked += len(expected)
    assert checked > 500


def test_large_points_build_within_budget():
    m = 100
    started = time.perf_counter()
    p = kunz_point(numerical_context(m), [0] + [1] * (m - 1))
    assert time.perf_counter() - started < 1.0
    # Every product of two atoms is INFINITY: min_inf is all a + b.
    assert len(p.min_inf) == (m - 1) * m // 2
    with pytest.raises(BudgetExceededError):
        kunz_point(numerical_context(m), [0] + [1] * (m - 1), budget=10_000)


def test_point_builders_pass_their_budget_through():
    # kunz_point charges m * m nodes for its order tables before it builds
    # them, so under the default budget it refuses every point with
    # m * m > DEFAULT_BUDGET at once; a caller raises the cap with budget=.
    for m, budget, ok in ((3163, None, False), (40, 40 * 40, False),
                          (40, None, True)):
        assert (m * m > DEFAULT_BUDGET) == (m == 3163)
        ctx = numerical_context(m)
        coords = list(range(m))  # the point of <m, m + 1>
        builders = (
            lambda: kunz_point(ctx, coords, budget=budget),
            lambda: point_of_semigroup(ctx, new_semigroup([m, m + 1]),
                                       budget=budget),
            lambda: semigroup_of_point(ctx, coords, budget=budget),
            lambda: poset_of_point(ctx, coords, budget=budget),
        )
        for build in builders:
            if ok:
                build()
            else:
                with pytest.raises(BudgetExceededError):
                    build()


def test_atom_searches_are_not_recursive():
    # <m, m+1> at m = 1100: the m-atom search walks 1099 residues deep,
    # past the interpreter's default recursion limit.
    m = 1100
    p = point_of_semigroup(numerical_context(m), new_semigroup([m, m + 1]))
    assert p.atoms == (1,)
    assert [f.c for f in p.min_inf] == [(m,)]
    assert is_m_atom_point(p)
    with pytest.raises(BudgetExceededError):
        is_m_atom_point(p, budget=m)


def test_pinfty_length_extremes(base_point):
    assert pinfty_length_extremes(base_point, 3) == (1, 1)
    assert pinfty_length_extremes(base_point, 0) == (0, 0)
    assert pinfty_length_extremes(base_point, 2) == (2, 2)
    assert pinfty_length_extremes(base_point, 4) == (2, 2)  # 4 = 1 + 3


def test_pinfty_length_extremes_against_brute_force(ctx5):
    """Every residue's (longest, shortest) pair against a plain product
    enumeration over the atom vectors below the power bounds."""

    def brute(p):
        lengths = {}
        ranges = [range(t) for t in p.power_bounds]
        for c in itertools.product(*ranges):
            acc = 0
            for a, count in zip(p.atoms, c):
                for _ in range(count):
                    acc = oplus(p, acc, a)
            if acc is not INFINITY:
                lengths.setdefault(acc, []).append(sum(c))
        return lengths

    # Points where some residue has factorizations of different lengths.
    spread = [
        (0, 1, 2, 3, 1),
        (0, 1, 1, 2, 1, 0),
        (0, 1, 2, 3, 1, 1),
        (0, 2, 4, 3, 2, 1, 0),
        (0, 1, 2, 1, 0, 1, 2),
    ]
    rng = random.Random(20261018)
    points = [kunz_point(ctx5, list(coords)) for coords in FAMILY]
    points += [
        kunz_point(numerical_context(len(coords)), coords) for coords in spread
    ]
    for m in (6, 7):
        ctx = numerical_context(m)
        points += [
            kunz_point(ctx, coords)
            for coords in rng.sample(enumerate_kunz_points(m, cap=4), 12)
        ]
    for p in points:
        if p.x in spread:
            assert any(len(set(ls)) > 1 for ls in brute(p).values())
        lengths = brute(p)
        for beta in range(p.m):
            if beta in lengths:
                expected = (max(lengths[beta]), min(lengths[beta]))
                assert pinfty_length_extremes(p, beta) == expected, (p.x, beta)
            else:
                with pytest.raises(NoFactorizationError):
                    pinfty_length_extremes(p, beta)


def test_structure_constants(ctx5, base_point):
    atoms = base_point.atoms
    d, b = structure_constants(ctx5, (3, 0), (0, 2), atoms)
    assert (d, b) == (0, 0)
    d, b = structure_constants(ctx5, (0, 2), (3, 0), atoms)
    assert (d, b) == (1, 1)


def test_sq_leq(base_point):
    assert sq_leq(base_point, (3, 0), (3, 0))
    assert not sq_leq(base_point, (3, 0), (0, 2))
    assert not sq_leq(base_point, (0, 2), (3, 0))


def test_sq_leq_matches_divisibility(ctx5):
    for coords in FAMILY:
        p = kunz_point(ctx5, list(coords))
        S = semigroup_of_point(ctx5, p)
        values = {
            f.c: sum(ci * (p.x[a] * 5 + a) for ci, a in zip(f.c, p.atoms))
            for f in p.min_inf
        }
        for f, g in itertools.product(p.min_inf, repeat=2):
            assert sq_leq(p, f.c, g.c) == S.divides(values[f.c], values[g.c])


def test_pseudomin(ctx5, base_point):
    assert [f.c for f in pseudomin(base_point)] == [(0, 2), (2, 1), (3, 0)]
    ctx2 = numerical_context(2)
    p2 = kunz_point(ctx2, [0, 1])
    assert [f.c for f in pseudomin(p2)] == [(2,)]
    other = kunz_point(ctx5, [0, 3, 6, 2, 5])
    assert {f.c for f in pseudomin(other)} == {(0, 2), (2, 1), (3, 0)}


def test_cominimal(ctx5, base_point):
    for coords in FAMILY[1:]:
        assert cominimal(base_point, kunz_point(ctx5, list(coords)))
    assert cominimal(base_point, base_point)
    with pytest.raises(DifferentFaceError):
        cominimal(base_point, kunz_point(ctx5, [0, 0, 0, 0, 0]))


def test_cominimal_inequality_form(ctx5, base_point):
    """The two-implication inequality system is equivalent to comparing
    pseudominimal sets directly."""

    def lemma_form(p, q):
        vectors = [f.c for f in p.min_inf]
        pmin_p = {f.c for f in pseudomin(p)}
        for c in vectors:
            others = [c2 for c2 in vectors if c2 != c]
            if c in pmin_p:
                if not all(
                    sq_leq(q, c, c2) for c2 in others if sq_leq(q, c2, c)
                ):
                    return False
            else:
                if not any(
                    sq_leq(q, c2, c) and not sq_leq(q, c, c2) for c2 in others
                ):
                    return False
        return True

    for coords in FAMILY:
        q = kunz_point(ctx5, list(coords))
        assert lemma_form(base_point, q) == cominimal(base_point, q)


def test_reduced_and_atom_predicates(ctx5, base_point):
    assert is_reduced_point(base_point)
    assert is_m_atom_point(base_point)
    zero = kunz_point(ctx5, [0, 0, 0, 0, 0])
    assert is_reduced_point(zero)
    assert not is_m_atom_point(zero)


def test_main_verdict_longest_family(ctx5):
    expected = {
        (0, 1, 2, 1, 2): True,
        (0, 11, 22, 32, 43): False,
        (0, 3, 6, 2, 5): True,
        (0, 3, 6, 8, 11): False,
    }
    for coords, holds in expected.items():
        verdict = main_verdict(kunz_point(ctx5, list(coords)), "longest")
        assert verdict.holds == holds, coords
        assert verdict.method == "kunz"


def test_main_verdict_inequality_templates(ctx5, base_point):
    verdict = main_verdict(base_point, "longest")
    by_vector = {check.c: check for check in verdict.checks}
    # -x_3 + 3 x_1 >= 3 - 0 - 1 and -x_0 + 2 x_1 + x_3 >= 3 - 1 - 0.
    three_ones = by_vector[(3, 0)]
    assert three_ones.coeffs == (0, 3, 0, -1, 0)
    assert three_ones.rhs == 2
    assert three_ones.lhs_value == 2
    mixed = by_vector[(2, 1)]
    assert mixed.coeffs == (-1, 2, 0, 1, 0)
    assert mixed.rhs == 2
    # Same templates on every point of the face interior.
    for coords in FAMILY[1:]:
        other = main_verdict(kunz_point(ctx5, list(coords)), "longest")
        assert [(c.c, c.coeffs, c.relation, c.rhs) for c in other.checks] == [
            (c.c, c.coeffs, c.relation, c.rhs) for c in verdict.checks
        ]


def test_main_verdict_agrees_with_direct_route(ctx5):
    for coords in FAMILY:
        p = kunz_point(ctx5, list(coords))
        S = semigroup_of_point(ctx5, p)
        for formula in ("longest", "shortest"):
            assert (
                main_verdict(p, formula).holds
                == check_formula(S, 5, formula).holds
            ), (coords, formula)


def test_main_verdict_requires_atom(ctx5):
    with pytest.raises(MNotAtomAtPointError):
        main_verdict(kunz_point(ctx5, [0, 0, 0, 0, 0]), "longest")


def test_iterated_inequality_unit(ctx5, base_point):
    # d_(c) + sum c_a x_a >= x_beta for a few handpicked vectors.
    for c in [(0, 1, 0, 2, 0), (3, 0, 0, 0, 1), (1, 1, 1, 1, 1)]:
        beta = sum(i * ci for i, ci in enumerate(c)) % 5
        lhs = definitional_carry(5, c) + sum(
            ci * xi for ci, xi in zip(c, base_point.x)
        )
        assert lhs >= base_point.x[beta]
