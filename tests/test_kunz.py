import gc
import itertools
import random
import time
import tracemalloc

import pytest

import sgfl.budget
from sgfl import kunz
from sgfl.budget import (
    DEFAULT_BUDGET,
    FACE_BYTES_PER_WEIGHT,
    FACE_CACHE_WEIGHT,
    BudgetMeter,
)
from sgfl.errors import (
    BadModulusError,
    BudgetExceededError,
    DifferentFaceError,
    DimensionMismatchError,
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
    numerical_context,
    pinfty_length_extremes,
    point_of_semigroup,
    pseudomin,
    semigroup_of_point,
    sq_leq,
    structure_constants,
)
from sgfl.minrepl import min_repl
from sgfl.semigroups import new_semigroup
from sgfl.verdicts import check_formula

from conftest import (
    POINT_FIELDS,
    cache_off,
    definitional_carry,
    enumerate_kunz_points,
    membership_table,
    minimal_of,
)

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


def test_semigroup_of_point_is_closed_form_fast():
    # The point of <400, 401> has 399 coordinate elements but one atom; the
    # semigroup is read off the atoms, not reduced from every element.
    m = 400
    ctx = numerical_context(m)
    point = kunz_point(ctx, list(range(m)))
    started = time.perf_counter()
    S = semigroup_of_point(ctx, point)
    assert time.perf_counter() - started < 1.0
    assert S == new_semigroup([400, 401])


def test_point_over_another_modulus_is_refused(ctx5, base_point):
    # The m = 5 point under m = 4 once gave <4, 5, 7>, under m = 6 an
    # IndexError.
    for m in (4, 6):
        with pytest.raises(BadModulusError):
            semigroup_of_point(numerical_context(m), base_point)
    assert semigroup_of_point(numerical_context(5), base_point).atoms == (5, 6, 8)


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
    assert base_point.oplus(1, 1) == 2
    assert base_point.oplus(1, 2) is INFINITY
    assert base_point.oplus(1, INFINITY) is INFINITY
    assert base_point.oplus(INFINITY, INFINITY) is INFINITY
    assert base_point.oplus(0, 3) == 3


def test_oplus_associative_commutative_exhaustive(ctx5, base_point):
    ctx7 = numerical_context(7)
    points = [base_point, kunz_point(ctx7, [0, 1, 2, 3, 1, 2, 3])]
    for p in points:
        domain = list(range(p.m)) + [INFINITY]
        for a, b in itertools.product(domain, repeat=2):
            assert p.oplus(a, b) == p.oplus(b, a)
        for a, b, c in itertools.product(domain, repeat=3):
            assert p.oplus(p.oplus(a, b), c) == p.oplus(a, p.oplus(b, c))


def test_divisibility_under_oplus_is_poset(base_point):
    m = base_point.m
    for a in range(m):
        for b in range(m):
            divides = any(
                base_point.oplus(a, g) == b for g in range(m)
            )
            assert divides == base_point.leq(a, b)


def test_atoms_and_their_image(base_point):
    assert base_point.atoms == (1, 3)
    image = sorted(base_point.x[a] * 5 + a for a in base_point.atoms)
    assert image == [6, 8]
    ctx2 = numerical_context(2)
    assert kunz_point(ctx2, [0, 1]).atoms == (1,)


def test_min_inf_factorizations(base_point):
    assert [f.c for f in base_point.min_inf] == [
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
                acc = p.oplus(acc, p.atoms[i])
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
            expected = tuple(minimal_of(hits(p)))
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
        )
        for build in builders:
            if ok:
                build()
            else:
                with pytest.raises(BudgetExceededError):
                    build()


def test_semigroup_of_point_charges_its_residue_tables_to_the_budget(
    monkeypatch,
):
    # The presentation of <60, 61, ..., 119> builds a table of 60 residues,
    # over the default allowance here but within the caller's budget.
    monkeypatch.setattr(sgfl.budget, "DEFAULT_BUDGET", 50)
    point = kunz_point(60, [0] + [1] * 59, budget=10**7)
    S = semigroup_of_point(60, point, budget=10**7)
    assert S.atoms == tuple(range(60, 120))
    assert S.contains(121) and not S.contains(59)
    with pytest.raises(BudgetExceededError):
        semigroup_of_point(60, point).contains(121)


def test_point_of_semigroup_charges_before_the_apery_table():
    # The Apery set of 10**6 has 10**6 entries; the 10**12 nodes that
    # kunz_point would charge for the point are refused before it is built.
    S = new_semigroup([2, 3])
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(BudgetExceededError):
            point_of_semigroup(10**6, S, budget=10)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 10**6


@pytest.fixture
def faces(monkeypatch):
    """An empty face cache of the library's bound, for this test alone."""
    cache = kunz._FaceCache(FACE_CACHE_WEIGHT)
    monkeypatch.setattr(kunz, "_FACES", cache)
    return cache


def test_a_face_cache_hit_charges_what_a_miss_charges(faces, monkeypatch):
    # m = 30 at (0, 1, ..., 1): every product of two atoms is INFINITY, so
    # the atom walk records all 435 sums a + b; the face fits the cache.
    m = 30
    coords = [0] + [1] * (m - 1)
    charges = []

    class CountingMeter(BudgetMeter):
        def __init__(self, budget=None):
            super().__init__(budget)
            charges.append(self)

    monkeypatch.setattr(kunz, "BudgetMeter", CountingMeter)

    def spent():
        meter = charges[-1]
        return meter.allowance - meter.remaining

    kunz_point(m, coords)
    charge = spent()
    assert faces.misses == 1 and len(faces.faces) == 1
    kunz_point(m, coords)
    assert faces.hits == 1 and spent() == charge

    # Exactly the charge: the cold build and the hit both succeed.
    cache = kunz._FaceCache(FACE_CACHE_WEIGHT)
    monkeypatch.setattr(kunz, "_FACES", cache)
    kunz_point(m, coords, budget=charge)
    assert kunz_point(m, coords, budget=charge).x == tuple(coords)
    assert (cache.misses, cache.hits) == (1, 1)

    # One node less: the cold build and the hit both raise.
    cache = kunz._FaceCache(FACE_CACHE_WEIGHT)
    monkeypatch.setattr(kunz, "_FACES", cache)
    with pytest.raises(BudgetExceededError):
        kunz_point(m, coords, budget=charge - 1)
    assert not cache.faces
    kunz_point(m, coords)
    with pytest.raises(BudgetExceededError):
        kunz_point(m, coords, budget=charge - 1)
    assert (cache.misses, cache.hits) == (2, 1)


def test_the_round_trip_of_a_point_reads_its_face_from_the_cache(faces):
    p = kunz_point(7, [0, 1, 1, 2, 2, 3, 3])
    assert (faces.hits, faces.misses) == (0, 1)
    S = semigroup_of_point(7, p)
    back = point_of_semigroup(7, S)
    assert back == p and back._face is p._face
    assert (faces.hits, faces.misses) == (1, 1)


def test_face_cache_stays_within_its_weight_and_bytes(faces):
    # One m = 100 face weighs more than the whole bound: it is built and
    # returned, but not stored.
    heavy = kunz_point(100, [0] + [1] * 99)
    assert heavy._face.weight > FACE_CACHE_WEIGHT
    assert faces.misses == 1 and faces.weight == 0 and not faces.faces
    del heavy

    # One point per face of the m = 8 points with coordinates <= 3, with
    # both verdicts, so that the templates add their weight too, until
    # half as many again as the cache holds have gone through it.
    points = {
        (8, kunz._tight_flags(8, x)): x for x in enumerate_kunz_points(8, 3)
    }
    pushed = {}
    gc.collect()  # empties the free lists, whose blocks tracemalloc misses
    tracemalloc.start()
    try:
        for coords in points.values():
            p = kunz_point(8, coords)
            if is_m_atom_point(p):
                main_verdict(p, "longest")
                main_verdict(p, "shortest")
            pushed[p._face.key] = p._face.weight
            assert faces.weight <= FACE_CACHE_WEIGHT
            if sum(pushed.values()) > 1.5 * FACE_CACHE_WEIGHT:
                break
        del p
        assert faces.weight == sum(f.weight for f in faces.faces.values())
        assert len(faces.faces) < len(pushed)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        weight = faces.weight
        faces.faces.clear()
        gc.collect()
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Full up to less than one face: it evicts only to make room.
    assert weight > FACE_CACHE_WEIGHT - max(pushed.values())
    assert held <= FACE_BYTES_PER_WEIGHT * weight <= (
        FACE_BYTES_PER_WEIGHT * FACE_CACHE_WEIGHT
    )


def test_cached_points_match_cache_off_builds(kunz_scan):
    # Every point at m <= 7 with coordinates <= 8 and both of its
    # verdicts, from the face cache, equal a build with the cache off.
    assert all(r.matches_cache_off for r in kunz_scan)


def test_the_cache_off_differential_covers_every_point_field():
    p = kunz_point(5, [0, 1, 2, 1, 2])
    fresh = cache_off(lambda: kunz_point(5, [0, 1, 2, 1, 2]))
    assert fresh._face is not p._face
    assert set(POINT_FIELDS) == {
        name for name in kunz.KunzPoint.__dataclass_fields__
        if name not in ("m", "_face")
    }


def test_atom_searches_are_not_recursive():
    # <m, m+1> at m = 1100: more nonzero residues than the interpreter's
    # default recursion limit; the point builds and both verdicts return.
    m = 1100
    p = point_of_semigroup(numerical_context(m), new_semigroup([m, m + 1]))
    assert p.atoms == (1,)
    assert [f.c for f in p.min_inf] == [(m,)]
    assert is_m_atom_point(p)
    assert main_verdict(p, "longest").holds
    # l(m * m) = m = l(m * (m + 1)), since m * (m + 1) = m copies of m + 1.
    assert not main_verdict(p, "shortest").holds


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
                    acc = p.oplus(acc, a)
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


def test_sq_leq_off_min_inf_matches_evaluation_difference():
    """sq_leq on arbitrary vectors (lists, and pairs whose difference has
    negative entries) against membership of the evaluation difference in
    a table of the point's semigroup."""
    rng = random.Random(11)
    for m in (4, 5, 6):
        ctx = numerical_context(m)
        points = enumerate_kunz_points(m, cap=3)
        for coords in rng.sample(points, 8):
            p = kunz_point(ctx, coords)
            images = [p.x[a] * m + a for a in p.atoms]
            top = 4 * sum(images) + 1
            member = membership_table(semigroup_of_point(ctx, p).atoms, top)
            n = len(p.atoms)
            for _ in range(40):
                c = [rng.randint(0, 3) for _ in range(n)]
                c2 = [rng.randint(0, 3) for _ in range(n)]
                diff = sum((b - a) * w for a, b, w in zip(c, c2, images))
                expected = diff >= 0 and member[diff]
                assert sq_leq(p, c, c2) == expected
                assert sq_leq(p, tuple(c), tuple(c2)) == expected
                # One side on min_inf, the other not.
                f = rng.choice(p.min_inf).c
                ev_f = sum(a * w for a, w in zip(f, images))
                diff = sum(a * w for a, w in zip(c2, images)) - ev_f
                assert sq_leq(p, f, c2) == (diff >= 0 and member[diff])


def test_wrong_length_vectors_are_refused(ctx5):
    # zip once cut these short: sq_leq(p, (1,), (1, 0, 0, 0)) read True.
    p = kunz_point(ctx5, [0, 1, 1, 1, 1])
    assert len(p.atoms) == 4
    for c, c2 in (((1,), (1, 0, 0, 0)), ((1, 0, 0, 0), [1, 0]),
                  ((0, 0, 0, 0, 1), (0, 0, 0, 0))):
        with pytest.raises(DimensionMismatchError):
            sq_leq(p, c, c2)
    for c, c2 in (((1,), (0, 0)), ((1, 1), (0,)), ((1, 1, 1), (0, 0, 0))):
        with pytest.raises(DimensionMismatchError):
            structure_constants(ctx5, c, c2, (1, 4))


def test_non_int_residue_has_no_factorization(base_point):
    # 1.0 in range(5) holds, and the tuple index then raised TypeError.
    for beta in (1.0, "1", None, -1, 5):
        with pytest.raises(NoFactorizationError):
            pinfty_length_extremes(base_point, beta)


def test_pseudomin(ctx5, base_point):
    assert [f.c for f in pseudomin(base_point)] == [(0, 2), (2, 1), (3, 0)]
    ctx2 = numerical_context(2)
    p2 = kunz_point(ctx2, [0, 1])
    assert [f.c for f in pseudomin(p2)] == [(2,)]
    other = kunz_point(ctx5, [0, 3, 6, 2, 5])
    assert {f.c for f in pseudomin(other)} == {(0, 2), (2, 1), (3, 0)}


def test_pseudomin_matches_pairwise_divisibility():
    """pseudomin against its definition, read pairwise on the vectors
    through divisibility in the point's own semigroup."""
    rng = random.Random(7)
    checked = 0
    for m in range(3, 9):
        ctx = numerical_context(m)
        points = enumerate_kunz_points(m, cap=3)
        for coords in rng.sample(points, min(len(points), 12)):
            p = kunz_point(ctx, coords)
            S = semigroup_of_point(ctx, p)
            ev = {
                f.c: sum(ci * (p.x[a] * m + a) for ci, a in zip(f.c, p.atoms))
                for f in p.min_inf
            }

            def leq(f, g):
                return S.divides(ev[f.c], ev[g.c])

            expected = [
                f.c
                for f in p.min_inf
                if all(leq(f, g) for g in p.min_inf if g is not f and leq(g, f))
            ]
            assert [f.c for f in pseudomin(p)] == expected, coords
            checked += len(expected)
    assert checked > 200


def test_pseudomin_on_many_vectors_is_fast():
    m = 100
    p = kunz_point(numerical_context(m), [0] + [1] * (m - 1))
    assert len(p.min_inf) == 4950
    started = time.perf_counter()
    result = pseudomin(p)
    assert time.perf_counter() - started < 1.0
    # The semigroup is {0} and every n >= m, and the evaluations lie in
    # [2m + 2, 4m - 2], so the pseudominimal ones are those below 3m + 2.
    values = {
        f.c: sum(ci * (m + a) for ci, a in zip(f.c, p.atoms))
        for f in p.min_inf
    }
    expected = [f.c for f in p.min_inf if values[f.c] < 3 * m + 2]
    assert [f.c for f in result] == expected
    assert len(expected) == 2549


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
