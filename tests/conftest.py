"""Shared fixtures: the randomized numerical corpus and the exhaustive
Kunz-point scan, computed once per session (the scan in a process pool).

Independent oracles used by the tests live here too, deliberately built
on different machinery than the library paths they check:

* box_min_repl: boxed product scan with a DP membership table, against
  the frontier-search min_repl;
* affine_repl_box: the replaceable vectors of an affine instance in a
  box, with membership from a grading-bounded enumeration of the span,
  against the affine frontier search;
* enumerate_factorizations_box: raw product enumeration over grading
  bounds, against the pruned factorization search;
* definitional_carry and definitional_threshold: the structure constants
  d_(c) and b_{(c),(c')} from their defining sums, against
  structure_constants and in the Kunz inequalities of the scan;
* length_dp: a full L / l table by generator-outer passes, against the
  dimension-1 oracle_scan, which computes its lengths inside the scan loop
  and stops at the first counterexample;
* m_factorization: the lexicographically first factorization of m over
  the coordinate elements of a Kunz point by plain enumeration, against
  the closed-form m-atom test and the witness of MNotAtomAtPointError;
* coordinate_atoms: the atoms of <m, w_1, ..., w_{m-1}> and whether m is
  in the span of w_1..w_{m-1}, from membership_table, against the closed
  forms in semigroup_of_point and is_m_atom_point;
* numerical_semigroups_by_genus: every numerical semigroup up to a
  genus, from the tree of gap sets with plain integer sets, against the
  three routes at every atom;
* oracle_scan against check_formula, which reads dimension-1 lengths
  from lengths.length_table; the table in turn is checked value by value
  against the branch-and-bound search in
  test_lengths.py::test_length_table_matches_branch_and_bound.

The Kunz scan builds the round trip of every point with the face cache
off and compares it, field by field and verdict by verdict, with the
point the cache served.  At every m-atom point with m <= 6, and at a
seeded sample of those with m = 7, it also records the exact oracle_scan
verdicts beside the polytope and criterion verdicts.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd

import pytest

from sgfl import kunz
from sgfl.errors import MNotAtomAtPointError
from sgfl.kunz import (
    is_m_atom_point,
    is_reduced_point,
    kunz_point,
    main_verdict,
    point_of_semigroup,
    semigroup_of_point,
    sq_leq,
    structure_constants,
)
from sgfl.minrepl import candidate_sets, min_repl
from sgfl.semigroups import minimal_generating_subset, new_semigroup
from sgfl.verdicts import check_formula, oracle_scan

CORPUS_SEED = 20260808
CORPUS_SIZE = 200
AFFINE_SAMPLE_SEED = 20261018
AFFINE_SAMPLE_SIZE = 40
KUNZ_MODULI = (2, 3, 4, 5, 6, 7)
KUNZ_COORD_CAP = 8


# -- independent membership + box oracles ----------------------------------

def membership_table(gens, upto):
    """Boolean DP table of N-combinations of gens, computed from scratch."""
    table = [False] * (upto + 1)
    table[0] = True
    for v in range(1, upto + 1):
        table[v] = any(v >= g and table[v - g] for g in gens)
    return table


def length_dp(gens, upto, maximize):
    """L(v) (or l(v)) for v = 0..upto over the atoms gens; None off S.

    One pass per generator, values ascending inside it (the unbounded
    coin-change order): after the pass over g the table holds the extreme
    length over factorizations using only the generators seen so far.
    """
    better = max if maximize else min
    table = [None] * (upto + 1)
    table[0] = 0
    for g in gens:
        for v in range(g, upto + 1):
            if table[v - g] is not None:
                cand = table[v - g] + 1
                table[v] = cand if table[v] is None else better(table[v], cand)
    return table


def minimal_of(vectors):
    ordered = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in ordered:
        if not any(all(k <= c for k, c in zip(keep, v)) for keep in kept):
            kept.append(v)
    return sorted(kept)


def box_min_repl(S, m):
    """Brute-force minimal replaceable vectors via a boxed product scan.

    Coordinates are bounded by A_i = min{c : c*a_i - m in S} (the axis
    vector A_i*e_i is replaceable, so nothing minimal exceeds it); all
    membership goes through the DP table, everything above the Frobenius
    number being a member.
    """
    gens = S.atoms
    others = [g for g in gens if g != m]
    frob = S.frobenius()
    table = membership_table(gens, max(frob, 0) + 1)

    def member(v):
        return v >= 0 and (v > frob or table[v])

    bounds = []
    for a in others:
        c = 1
        while not member(a * c - m):
            c += 1
        bounds.append(c)
    hits = [
        vec
        for vec in itertools.product(*(range(b + 1) for b in bounds))
        if member(sum(c * a for c, a in zip(vec, others)) - m)
    ]
    return [tuple(v) for v in minimal_of(hits)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def positive_grading(gens):
    """A small integer functional taking a value >= 1 on every generator."""
    dim = len(gens[0])
    candidates = sorted(
        itertools.product(range(-6, 7), repeat=dim),
        key=lambda w: (sum(map(abs, w)), w),
    )
    for w in candidates:
        if all(_dot(w, g) >= 1 for g in gens):
            return w
    raise ValueError(f"no small positive grading for {gens}")


def affine_span(gens, grading, wbound):
    """Every sum of gens whose grading value is at most wbound."""
    zero = (0,) * len(gens[0])
    seen = {zero}
    stack = [zero]
    while stack:
        v = stack.pop()
        for g in gens:
            u = tuple(a + b for a, b in zip(v, g))
            if u not in seen and _dot(grading, u) <= wbound:
                seen.add(u)
                stack.append(u)
    return seen


def _generated_by(v, gens):
    grading = positive_grading(gens)
    return v in affine_span(gens, grading, _dot(grading, v))


def affine_repl_box(others, m, bound):
    """Replaceable vectors over `others` (the atoms without m) in [0, bound]^n.

    A vector c is replaceable when sum c_a * a - m lies in the span of
    others + [m]; membership is read off the grading-bounded span, whose
    bound covers every value the box produces.
    """
    gens = list(others) + [m]
    grading = positive_grading(gens)
    values = {}
    for vec in itertools.product(range(bound + 1), repeat=len(others)):
        total = [-x for x in m]
        for c, a in zip(vec, others):
            for j, x in enumerate(a):
                total[j] += c * x
        values[vec] = tuple(total)
    wbound = max(_dot(grading, v) for v in values.values())
    span = affine_span(gens, grading, wbound)
    return {vec for vec, value in values.items() if value in span}


def sample_affine_atom_sets(seed=AFFINE_SAMPLE_SEED, size=AFFINE_SAMPLE_SIZE):
    """Seeded sets of 3 minimal generators among the nonzero points of [0,4]^2."""
    rng = random.Random(seed)
    cells = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    seen = set()
    out = []
    while len(out) < size:
        atoms = tuple(sorted(rng.sample(cells, 3)))
        if atoms in seen:
            continue
        seen.add(atoms)
        if not any(
            _generated_by(g, [h for h in atoms if h != g]) for g in atoms
        ):
            out.append(atoms)
    return out


def enumerate_factorizations_box(S, v):
    """Exhaustive factorization enumeration over per-coordinate bounds."""
    vec = S.vector(v)
    wv = S.grading_value(vec)
    gens = S.generators
    bounds = [wv // S.grading_value(g) for g in gens]
    out = []
    for counts in itertools.product(*(range(b + 1) for b in bounds)):
        total = tuple(
            sum(c * g[j] for c, g in zip(counts, gens)) for j in range(S.dim)
        )
        if total == vec:
            out.append(counts)
    return sorted(out)


# -- every numerical semigroup up to a genus ----------------------------------

# Numerical semigroups of genus 0, 1, 2, ... (OEIS A007323).
SEMIGROUPS_BY_GENUS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)


def _minimal_generators(gaps):
    """The minimal generators of the numerical semigroup N minus gaps.

    They lie in [m, F + m + 1] for the multiplicity m and the Frobenius
    number F (F + m + 1 only for N itself, where F = -1); g there is a
    generator iff it is no sum of two nonzero members."""
    frobenius = max(gaps, default=-1)
    multiplicity = min(v for v in range(1, frobenius + 3) if v not in gaps)
    top = frobenius + multiplicity + 1
    members = [v for v in range(1, top + 1) if v not in gaps]
    member = set(members)
    return [
        g for g in members
        if not any(g - a in member for a in members if a < g)
    ]


def numerical_semigroups_by_genus(max_genus):
    """Minimal generator lists of every numerical semigroup of genus 1 up
    to max_genus, a list per genus.

    The tree of numerical semigroups: the children of S remove one of its
    minimal generators larger than its Frobenius number, and every
    semigroup of genus g + 1 is the child of exactly one of genus g (add
    back its Frobenius number).  See Bras-Amoros, Semigroup Forum 2008,
    and Fromentin & Hivert, Math. Comp. 2016."""
    level = [frozenset()]
    out = []
    for _ in range(max_genus):
        children = []
        for gaps in level:
            frobenius = max(gaps, default=-1)
            for g in _minimal_generators(gaps):
                if g > frobenius:
                    children.append(gaps | {g})
        level = children
        out.append([_minimal_generators(gaps) for gaps in level])
    return out


# -- the randomized numerical corpus ---------------------------------------

def build_corpus(seed=CORPUS_SEED, size=CORPUS_SIZE):
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < size:
        k = rng.randint(2, 5)
        n1 = rng.randint(2, 12)
        rest = rng.sample(range(n1 + 1, 41), k - 1)
        gens = sorted([n1] + rest)
        g = 0
        for n in gens:
            g = gcd(g, n)
        if g != 1:
            continue
        reduced = sorted(
            v[0] for v in minimal_generating_subset([(n,) for n in gens], 1)
        )
        key = tuple(reduced)
        if len(reduced) < 2 or key in seen:
            continue
        seen.add(key)
        out.append(new_semigroup(reduced))
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def minrepl_box_results(corpus):
    """Frontier-search minimal vectors next to the box oracle, per atom."""
    results = []
    for S in corpus:
        for m in S.atoms:
            results.append(
                (
                    S,
                    m,
                    tuple(min_repl(S, m).minimal_vectors),
                    tuple(box_min_repl(S, m)),
                )
            )
    return results


@pytest.fixture(scope="session")
def corpus_verdict_results(corpus):
    """check_formula vs oracle_scan at the candidate atoms, both formulas."""
    results = []
    for S in corpus:
        for formula, m in (("longest", S.atoms[0]), ("shortest", S.atoms[-1])):
            results.append(
                (
                    S,
                    formula,
                    m,
                    check_formula(S, m, formula).holds,
                    oracle_scan(S, m, formula).holds,
                )
            )
    return results


# -- the exhaustive Kunz scan -----------------------------------------------

def definitional_carry(m, c):
    """d_(c) = (sum c_a r_a - r_beta) / m over the residues r_a = a of Z/mZ,
    with beta = sum c_a a (mod m)."""
    total = sum(a * ca for a, ca in enumerate(c))
    return (total - total % m) // m


def definitional_threshold(m, c, c2):
    """b_{(c),(c')} = (r_{beta'-beta} + sum (c_a - c'_a) r_a) / m, or None
    when that quotient is not an integer."""
    beta = sum(a * ca for a, ca in enumerate(c)) % m
    beta2 = sum(a * ca for a, ca in enumerate(c2)) % m
    b, rem = divmod(
        (beta2 - beta) % m
        + sum(a * (ca - ca2) for a, (ca, ca2) in enumerate(zip(c, c2))),
        m,
    )
    return None if rem else b


def m_factorization(m, x):
    """The lexicographically first count vector c over residues 1..m-1
    (residue 1 most significant) with sum c_a * (x_a * m + a) = m, or None
    when m is an atom.  Plain enumeration with c_a <= m // a."""
    for c in itertools.product(*(range(m // a + 1) for a in range(1, m))):
        if sum(ca * (x[a] * m + a) for a, ca in enumerate(c, 1)) == m:
            return c
    return None


def coordinate_atoms(m, x):
    """(atoms, m_in_span): the minimal generators of [m, w_1, ..., w_{m-1}]
    with w_a = x_a * m + a, and whether m lies in the span of w_1..w_{m-1}.

    The generators are distinct and positive, so g is redundant iff
    g = u + (g - u) with both parts nonzero members of the full span."""
    w = [x[a] * m + a for a in range(1, m)]
    gens = [m] + w
    table = membership_table(gens, max(gens))
    atoms = tuple(sorted(
        g for g in gens
        if not any(table[u] and table[g - u] for u in range(1, g))
    ))
    return atoms, membership_table(w, m)[m]


def enumerate_kunz_points(m, cap=KUNZ_COORD_CAP):
    """All integer points with x_0 = 0 and coordinates in [0, cap]."""
    d = [
        [
            definitional_carry(m, [(i == a) + (i == b) for i in range(m)])
            for b in range(m)
        ]
        for a in range(m)
    ]
    out = []
    x = [0] * m

    def prefix_ok(j):
        for a in range(j + 1):
            for b in range(a, j + 1):
                s = (a + b) % m
                if max(a, b, s) != j:
                    continue
                if x[a] + x[b] + d[a][b] < x[s]:
                    return False
        return True

    def rec(j):
        if j == m:
            out.append(tuple(x))
            return
        for v in range(cap + 1):
            x[j] = v
            if prefix_ok(j):
                rec(j + 1)
        x[j] = 0

    rec(1)
    return out


@dataclass
class ScanRecord:
    m: int
    coords: tuple
    reduced: bool
    roundtrip: bool
    m_atom: bool
    m_atom_matches: bool
    face_key: tuple
    atoms_match: bool = False
    m_atom_matches_span: bool = False
    witness_matches: bool | None = None
    f_bijection: bool | None = None
    g_bijection: bool | None = None
    sq_matches_divides: bool | None = None
    agree_longest: bool | None = None
    agree_shortest: bool | None = None
    iterated_inequality: bool = True
    d_identity: bool = True
    matches_cache_off: bool = False
    # formula -> (Kunz, criterion, oracle) holds bits, at the points where
    # the scan runs the exact oracle_scan (see run_oracle).
    routes: dict | None = None


POINT_FIELDS = (
    "x", "equality_set", "relations", "oplus_table", "atoms", "power_bounds",
    "min_inf", "length_extremes", "evaluations",
)


def cache_off(build):
    """build() with a face cache that stores nothing, so every face it
    reads is built afresh."""
    saved = kunz._FACES
    kunz._FACES = kunz._FaceCache(0)
    try:
        return build()
    finally:
        kunz._FACES = saved


def _verdict_or_refusal(point, formula):
    try:
        return main_verdict(point, formula)
    except MNotAtomAtPointError as exc:
        return str(exc)


def scan_one_point(args):
    m, coords = args
    point = kunz_point(m, coords)
    S = semigroup_of_point(m, point)
    # The round trip is built with the face cache off.  No cache holds
    # its face, so its verdicts build their own templates.
    back = cache_off(lambda: point_of_semigroup(m, S))
    verdicts = {
        formula: _verdict_or_refusal(point, formula)
        for formula in ("longest", "shortest")
    }
    matches_cache_off = all(
        getattr(point, name) == getattr(back, name) for name in POINT_FIELDS
    ) and all(
        verdict == _verdict_or_refusal(back, formula)
        for formula, verdict in verdicts.items()
    )
    m_atom = is_m_atom_point(point)
    record = ScanRecord(
        m=m,
        coords=coords,
        reduced=is_reduced_point(point),
        roundtrip=back.x == coords,
        m_atom=m_atom,
        m_atom_matches=m_atom == (m in S.atoms),
        face_key=(m, tuple(sorted(point.equality_set))),
        matches_cache_off=matches_cache_off,
    )
    atoms, m_in_span = coordinate_atoms(m, coords)
    record.atoms_match = S.atoms == atoms
    record.m_atom_matches_span = m_atom != m_in_span

    rng = random.Random(repr((m, coords)))
    for _ in range(3):
        c = [rng.randint(0, 3) for _ in range(m)]
        beta = sum(i * ci for i, ci in enumerate(c)) % m
        lhs = definitional_carry(m, c) + sum(
            ci * xi for ci, xi in zip(c, point.x)
        )
        if lhs < point.x[beta]:
            record.iterated_inequality = False
        c2 = [rng.randint(0, 3) for _ in range(m)]
        if structure_constants(m, c, c2, range(m)) != (
            definitional_carry(m, c),
            definitional_threshold(m, c, c2),
        ):
            record.d_identity = False
    # The exact oracle runs at every point with m <= 6 and at a seeded
    # sample of about 1/11 of the m = 7 points (the oracle at every m = 7
    # point would add about 13 s of CPU).  Drawn after the checks above,
    # so their draws are the same with or without the sample.
    run_oracle = m <= 6 or rng.random() < 1 / 11

    if not record.m_atom_matches:
        return record
    if not record.m_atom:
        record.witness_matches = verdicts["longest"] == (
            "m factors over the coordinate elements with multiplicities "
            f"{m_factorization(m, coords)} on residues 1..{m - 1}"
        )
        return record

    report = candidate_sets(S, m, min_repl(S, m))

    semigroup_atoms = set(S.atoms) - {m}
    image = {a: point.x[a] * m + a for a in point.atoms}
    record.f_bijection = (
        len(set(image.values())) == len(image)
        and set(image.values()) == semigroup_atoms
    )

    if record.f_bijection:
        position = {
            atom: i for i, atom in enumerate(report.atom_index)
        }
        reindexed = set()
        for f in point.min_inf:
            vec = [0] * len(report.atom_index)
            for alpha, count in zip(point.atoms, f.c):
                vec[position[image[alpha]]] = count
            reindexed.add(tuple(vec))
        record.g_bijection = reindexed == set(report.minimal_vectors)
    else:  # pragma: no cover - f is a bijection on every scanned point
        record.g_bijection = False

    ok = True
    evaluated = [
        (f.c, sum(ci * image[a] for ci, a in zip(f.c, point.atoms)))
        for f in point.min_inf
    ]
    for c, ev_f in evaluated:
        for c2, ev_g in evaluated:
            if sq_leq(point, c, c2) != S.divides(ev_f, ev_g):
                ok = False
    record.sq_matches_divides = ok

    criterion = {
        formula: check_formula(S, m, formula, report=report).holds
        for formula in ("longest", "shortest")
    }
    record.agree_longest = verdicts["longest"].holds == criterion["longest"]
    record.agree_shortest = verdicts["shortest"].holds == criterion["shortest"]
    if run_oracle:
        record.routes = {
            formula: (
                verdicts[formula].holds,
                criterion[formula],
                oracle_scan(S, m, formula).holds,
            )
            for formula in ("longest", "shortest")
        }
    return record


@pytest.fixture(scope="session")
def kunz_scan():
    """Every valid point for m in 2..7 with coordinates <= 8, fully checked."""
    jobs = []
    for m in KUNZ_MODULI:
        jobs.extend((m, coords) for coords in enumerate_kunz_points(m))
    workers = min(os.cpu_count() or 1, 4)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(scan_one_point, jobs, chunksize=256))
    else:  # pragma: no cover
        records = [scan_one_point(job) for job in jobs]
    return records
