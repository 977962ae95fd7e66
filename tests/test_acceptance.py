"""Acceptance suite: one test per numbered criterion, exact values only.

Run with -s to see the per-criterion summary lines.  Criteria 1 and 3
each carry one literal sub-claim from the source material that plain
arithmetic refutes: the shortest formula at m=38 on <10,12,21,38>, and a
listed min-repl antichain on the wide plane example.  Each sits in its
own test, which asserts that the claim is false together with the
witnesses that refute it, so the verifiable content of each criterion
stays separate and diagnosable.
"""

import itertools
import random

from sgfl.kunz import (
    kunz_point,
    main_verdict,
    numerical_context,
    point_of_semigroup,
    semigroup_of_point,
    structure_constants,
)
from sgfl.lengths import length_summary
from sgfl.minrepl import candidate_sets, min_repl, repl_contains
from sgfl.semigroups import new_semigroup
from sgfl.verdicts import check_formula, embdim3_check, oracle_scan


def _line(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_reference_numerical_example():
    S = new_semigroup([10, 12, 21, 38])
    r10 = candidate_sets(S, 10, min_repl(S, 10))
    r38 = candidate_sets(S, 38, min_repl(S, 38))
    ok = True
    ok &= r10.minimal_vectors == ((0, 0, 2), (0, 2, 0), (1, 0, 1), (4, 0, 0))
    ok &= r10.evaluations == {
        (0, 0, 2): 76, (0, 2, 0): 42, (1, 0, 1): 50, (4, 0, 0): 48,
    }
    ok &= r38.minimal_vectors == (
        (0, 0, 4), (0, 3, 2), (0, 4, 0), (1, 2, 2), (2, 0, 2), (4, 3, 0),
        (5, 0, 0),
    )
    ok &= [r38.evaluations[v] for v in r38.minimal_vectors] == [
        84, 78, 48, 76, 62, 76, 50,
    ]
    ok &= r10.m1 == (48,) and r10.n1 == (48,)
    ok &= r38.m2 == (48, 50, 76) and r38.n2 == (48,)
    longest = check_formula(S, 10, "longest", report=r10)
    ok &= not longest.holds
    ok &= (longest.counterexamples[0].element, longest.counterexamples[0].value,
           longest.counterexamples[0].shifted) == (48, 4, 2)
    ok &= length_summary(S, 48).longest == 4
    ok &= length_summary(S, 48).shortest == 2
    # The shift equation does hold at 48 itself: l(48) = l(10) + 1 = 2.
    ok &= length_summary(S, 48).shortest == length_summary(S, 10).shortest + 1
    _line("criterion 1 (sets, evaluations, longest verdict, lengths)", ok)
    assert ok


def test_criterion_1_literal_shortest_verdict_claim():
    """The criterion states the shortest formula holds at m=38; it does not.

    l(84) = 4: four 21s give 84, and three atoms cannot (without 38 they
    sum to at most 63; with one 38 the remaining 46 is not a sum of two
    atoms; with two 38s the remaining 8 is not an atom).  l(46) = 4:
    46 = 10 + 3*12, and 46 is not a sum of at most three atoms.  So at
    s = 46, l(46 + 38) = 4 != l(46) + 1 = 5, and the formula fails.

    The literal claim rests on checking only the divisibility-minimal set
    n2 = (48,).  The check at 48 passes (l(48) = l(10) + 1 = 2) and 48
    divides 84 in S, yet the formula fails at 84, the value of the
    minimal replaceable vector (0, 0, 4): a failure need not descend to
    the evaluations dividing it, so that reduction is unsound.  The test
    asserts the false verdict, the oracle's first counterexample and the
    lengths behind it.
    """
    S = new_semigroup([10, 12, 21, 38])
    verdict = check_formula(S, 38, "shortest")
    oracle = oracle_scan(S, 38, "shortest")
    assert verdict.holds == oracle.holds  # both routes agree on the truth
    ok = not verdict.holds
    first = oracle.counterexamples[0]
    ok &= (first.element, first.value, first.shifted) == (84, 4, 5)
    ok &= verdict.counterexamples[0] == first
    ok &= length_summary(S, 84).shortest == 4
    ok &= length_summary(S, 46).shortest == 4
    # The divisibility-minimal step: n2 alone would answer "holds".
    report = candidate_sets(S, 38, min_repl(S, 38))
    ok &= report.n2 == (48,)
    ok &= length_summary(S, 48).shortest == length_summary(S, 10).shortest + 1
    ok &= S.divides(48, 84)
    ok &= report.evaluations[(0, 0, 4)] == 84
    _line("criterion 1 (literal shortest-verdict claim refuted)", ok,
          "fails at s=46, l(84)=4 != l(46)+1=5; n2=(48,) alone is unsound")
    assert ok


def test_criterion_2_plane_example():
    S = new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)
    ok = True
    ok &= min_repl(S, (2, 0)).minimal_vectors == ((10, 0),)
    ok &= min_repl(S, (3, 1)).minimal_vectors == ((15, 2),)
    ok &= min_repl(S, (0, 5)).minimal_vectors == ((0, 10),)
    big = length_summary(S, (30, 10))
    ok &= big.longest == 17 and big.shortest == 10
    ok &= length_summary(S, (27, 9)).longest == 9
    longest = {m: check_formula(S, m, "longest").holds for m in S.atoms}
    shortest = {m: check_formula(S, m, "shortest").holds for m in S.atoms}
    ok &= longest == {(2, 0): True, (3, 1): False, (0, 5): True}
    ok &= shortest == {(2, 0): False, (3, 1): True, (0, 5): False}
    _line("criterion 2 (dimension-2 example)", ok)
    assert ok


def test_criterion_3_wide_plane_example():
    S = new_semigroup([(3, 0), (7, 0), (11, 0), (6, 1), (0, 3)], dim=2)
    report = candidate_sets(S, (3, 0), min_repl(S, (3, 0)))
    ok = True
    # Definition-level cross-checks of the computed antichain.
    for vec in report.minimal_vectors:
        ok &= repl_contains(S, (3, 0), vec)
        for i in range(len(vec)):
            if vec[i]:
                lower = vec[:i] + (vec[i] - 1,) + vec[i + 1 :]
                ok &= not repl_contains(S, (3, 0), lower)
    ok &= (0, 0, 3, 0) in report.minimal_vectors
    ok &= (1, 1, 0, 0) in report.minimal_vectors
    ok &= report.m1 == ()
    ok &= check_formula(S, (3, 0), "longest").holds
    _line("criterion 3 (verified antichain, M1 empty, verdict holds)", ok)
    assert ok


def test_criterion_3_literal_minrepl_set_claim():
    """The criterion's listed antichain is not minimal.

    Coordinates count the atoms (7,0), (11,0), (6,1), (0,3).  The listed
    set is ((0,0,3,0), (0,3,0,0), (1,1,0,0), (3,0,0,0)), but
    2*(7,0) - (3,0) = (11,0) lies in S, so (2,0,0,0) is replaceable and
    (3,0,0,0) is not minimal; and 2*(11,0) - (3,0) = (19,0) =
    (7,0) + 4*(3,0) lies in S, so (0,2,0,0) is replaceable and (0,3,0,0)
    is not minimal.  The minimal antichain is ((0,0,3,0), (0,2,0,0),
    (1,1,0,0), (2,0,0,0)); the listed (1,1,0,0) and (0,0,3,0) stand.
    """
    S = new_semigroup([(3, 0), (7, 0), (11, 0), (6, 1), (0, 3)], dim=2)
    got = min_repl(S, (3, 0)).minimal_vectors
    literal = ((0, 0, 3, 0), (0, 3, 0, 0), (1, 1, 0, 0), (3, 0, 0, 0))
    ok = got == ((0, 0, 3, 0), (0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0))
    # The listed (3,0,0,0) and (0,3,0,0) strictly dominate these.
    ok &= repl_contains(S, (3, 0), (2, 0, 0, 0))
    ok &= repl_contains(S, (3, 0), (0, 2, 0, 0))
    ok &= set(literal) & set(got) == {(1, 1, 0, 0), (0, 0, 3, 0)}
    _line("criterion 3 (literal antichain claim refuted)", ok,
          "(2,0,0,0) and (0,2,0,0) are replaceable")
    assert ok


def test_criterion_4_three_methods_agree():
    S = new_semigroup([6, 9, 20])
    results = {}
    for formula, m in (("longest", 6), ("shortest", 20)):
        results[formula] = {
            "minrepl": check_formula(S, m, formula).holds,
            "embdim3": embdim3_check(S, formula).holds,
            "oracle": oracle_scan(S, m, formula).holds,
        }
    ok = all(all(v.values()) for v in results.values())
    _line("criterion 4 (<6,9,20> three methods)", ok, str(results))
    assert ok


def test_criterion_5_kunz_example():
    ctx = numerical_context(5)
    S = new_semigroup([5, 6, 8])
    point = point_of_semigroup(ctx, S)
    ok = point.x == (0, 1, 2, 1, 2)
    nontrivial = sorted((a, b) for (a, b) in point.relations if a != b)
    ok &= nontrivial == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (3, 4),
    ]
    ok &= structure_constants(ctx, (3, 0), (0, 2), point.atoms)[1] == 0
    ok &= structure_constants(ctx, (0, 2), (3, 0), point.atoms)[1] == 1
    expected = {
        (0, 1, 2, 1, 2): (True, (5, 6, 8)),
        (0, 3, 6, 2, 5): (True, (5, 13, 16)),
        (0, 11, 22, 32, 43): (False, (5, 56, 163)),
        (0, 3, 6, 8, 11): (False, (5, 16, 43)),
    }
    for coords, (holds, atoms) in expected.items():
        p = kunz_point(ctx, list(coords))
        ok &= main_verdict(p, "longest").holds == holds
        ok &= semigroup_of_point(ctx, p).atoms == atoms
    _line("criterion 5 (Kunz machinery example)", ok)
    assert ok


def test_criterion_6_oracle_equivalence(corpus_verdict_results):
    disagreements = [
        (S.atoms, formula)
        for S, formula, m, check, oracle in corpus_verdict_results
        if check != oracle
    ]
    count = len(corpus_verdict_results)
    _line(
        "criterion 6 (criterion vs oracle over randomized corpus)",
        not disagreements,
        f"{count} verdicts compared, {len(disagreements)} disagreements",
    )
    assert count >= 400  # >= 200 semigroups, two formulas each
    assert not disagreements


def test_criterion_6_three_routes_agree_over_the_corpus(
    corpus_verdict_results,
):
    # The Kunz route on the same instances: the point of S over n1 decides
    # the longest formula at n1, and the point over n_k the shortest at n_k.
    disagreements = []
    holding = 0
    for S, formula, m, check, oracle in corpus_verdict_results:
        kunz = main_verdict(point_of_semigroup(m, S), formula).holds
        if not check == oracle == kunz:
            disagreements.append((S.atoms, formula, check, oracle, kunz))
        holding += kunz
    count = len(corpus_verdict_results)
    _line(
        "criterion 6 three-way (criterion vs oracle vs Kunz polytope)",
        not disagreements,
        f"{count} verdicts compared, {count - len(disagreements)} agree "
        f"({holding} hold, {count - holding} fail on the Kunz route), "
        f"{len(disagreements)} disagreements",
    )
    assert count >= 400
    assert not disagreements


def test_criterion_7_kunz_direct_equivalence(kunz_scan):
    relevant = [r for r in kunz_scan if r.m >= 3 and r.m_atom]
    bad = [
        (r.m, r.coords)
        for r in relevant
        if not (r.agree_longest and r.agree_shortest)
    ]
    _line(
        "criterion 7 (polytope verdict vs direct verdict)",
        not bad,
        f"{len(relevant)} points compared across m=3..7",
    )
    assert len(relevant) > 10000
    assert not bad


def test_criterion_8_structural_suites(kunz_scan):
    failures = []

    # Shift equivalence of extremal lengths, both directions, seeded.
    rng = random.Random(97)
    for S in (new_semigroup([10, 12, 21, 38]),
              new_semigroup([(2, 0), (3, 1), (0, 5)], dim=2)):
        checked = 0
        while checked < 20:
            counts = [rng.randint(0, 3) for _ in S.generators]
            m = S.atoms[rng.randrange(len(S.atoms))]
            vec = tuple(
                sum(c * g[j] for c, g in zip(counts, S.generators))
                for j in range(S.dim)
            )
            v = S.element(vec if S.dim > 1 else vec[0])
            prev = v - m if S.dim == 1 else tuple(
                a - b for a, b in zip(v, m)
            )
            if not S.contains(prev):
                continue
            checked += 1
            summary = length_summary(S, v, m=m)
            prev_summary = length_summary(S, prev)
            if summary.has_m_in_longest != (
                summary.longest == prev_summary.longest + 1
            ):
                failures.append(("noms-longest", S.atoms, v))
            if summary.has_m_in_shortest != (
                summary.shortest == prev_summary.shortest + 1
            ):
                failures.append(("noms-shortest", S.atoms, v))

    # Point-level identities and bijections from the exhaustive scan.
    if all(r.m_atom for r in kunz_scan):
        failures.append(("no-point-without-m-atom",))
    for r in kunz_scan:
        if not r.reduced:
            failures.append(("reduced", r.m, r.coords))
        if not r.m_atom_matches:
            failures.append(("m-atom-vs-semigroup-atoms", r.m, r.coords))
        if not r.atoms_match:
            failures.append(("semigroup-atoms-vs-coordinates", r.m, r.coords))
        if not r.m_atom_matches_span:
            failures.append(("m-atom-vs-coordinate-span", r.m, r.coords))
        if not r.m_atom and r.witness_matches is not True:
            failures.append(("m-factorization-witness", r.m, r.coords))
        if not r.roundtrip:
            failures.append(("rho-roundtrip", r.m, r.coords))
        if not r.iterated_inequality:
            failures.append(("iterated-inequality", r.m, r.coords))
        if not r.d_identity:
            failures.append(("carry-identity", r.m, r.coords))
        if r.m_atom:
            if r.f_bijection is not True:
                failures.append(("f-bijection", r.m, r.coords))
            if r.g_bijection is not True:
                failures.append(("g-bijection", r.m, r.coords))
            if r.sq_matches_divides is not True:
                failures.append(("preorder-vs-divides", r.m, r.coords))

    # Operation table laws, exhaustively, once per face.
    representatives = {}
    for r in kunz_scan:
        representatives.setdefault(r.face_key, r)
    for key, r in representatives.items():
        ctx = numerical_context(r.m)
        p = kunz_point(ctx, list(r.coords))
        domain = list(range(p.m)) + [None]
        for a, b in itertools.product(domain, repeat=2):
            if p.oplus(a, b) != p.oplus(b, a):
                failures.append(("oplus-commutative", r.m, r.coords))
        for a, b, c in itertools.product(domain, repeat=3):
            if p.oplus(p.oplus(a, b), c) != p.oplus(a, p.oplus(b, c)):
                failures.append(("oplus-associative", r.m, r.coords))
                break
        for a in range(p.m):
            for b in range(p.m):
                divides = any(p.oplus(a, g) == b for g in range(p.m))
                if divides != p.leq(a, b):
                    failures.append(("oplus-divisibility", r.m, r.coords))

    _line(
        "criterion 8 (structural property suites)",
        not failures,
        f"{len(kunz_scan)} points, {len(representatives)} faces",
    )
    assert not failures


def test_criterion_9_minrepl_solver_completeness(minrepl_box_results):
    bad = [
        (S.atoms, m)
        for S, m, frontier, boxed in minrepl_box_results
        if frontier != boxed
    ]
    _line(
        "criterion 9 (frontier solver vs box oracle)",
        not bad,
        f"{len(minrepl_box_results)} (semigroup, atom) pairs",
    )
    assert not bad


def test_scan_covers_every_valid_point(kunz_scan):
    # The scan is the exhaustive enumeration the criteria lean on.
    per_m = {}
    for r in kunz_scan:
        per_m[r.m] = per_m.get(r.m, 0) + 1
    assert set(per_m) == {2, 3, 4, 5, 6, 7}
    assert all(count > 0 for count in per_m.values())
    assert per_m[2] == 9  # x_1 in 0..8
    assert per_m[3] == 45  # hand-countable: 45 valid points at cap 8
