"""Deciding the shift-by-m length formulas via finite criteria and scans.

Three routes produce a Verdict for "L(s+m) = L(s) + 1 for all s" (and the
shortest-length analogue):

* check_formula: the finite candidate-set criterion built on min_repl,
  reading dimension-1 lengths from one length table up to the largest
  check target and solving affine ones by branch-and-bound search;
* embdim3_check: the single-element fast path for numerical semigroups
  with exactly three generators;
* oracle_scan: an exhaustive scan whose lengths come from an independent
  dynamic program.  For numerical semigroups the scan range makes the
  verdict exact; for affine semigroups it is desk-scale evidence only and
  the Verdict is flagged exact=False.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    MissingBoundError,
    MNotAtomError,
    NotEmbDim3Error,
    NotInSemigroupError,
    NotNumericalError,
)
from .lengths import length_table, longest_length, shortest_length
from .minrepl import _element_sort_key, is_left_zero, is_right_zero, min_repl


class Formula(enum.Enum):
    LONGEST = "longest"
    SHORTEST = "shortest"


def _as_formula(formula):
    if isinstance(formula, Formula):
        return formula
    return Formula(str(formula).lower())


@dataclass(frozen=True)
class Check:
    """One evaluated instance: value = L(s) (or l(s)), shifted = L(s-m)+1."""

    element: object
    value: int
    shifted: int

    @property
    def ok(self):
        return self.value == self.shifted


@dataclass(frozen=True)
class Verdict:
    formula: Formula
    m: object
    holds: bool
    checked: tuple
    counterexamples: tuple
    method: str
    exact: bool = True
    bound: int | None = None


def candidate_atoms(S, formula):
    """Atoms for which the formula can possibly hold for all of S.

    For numerical semigroups only the smallest (longest formula) or largest
    (shortest formula) generator qualifies; no such restriction is known in
    higher dimension, so every atom is returned there.
    """
    formula = _as_formula(formula)
    if S.is_numerical:
        return [S.atoms[0] if formula is Formula.LONGEST else S.atoms[-1]]
    return list(S.atoms)


def _length_reader(S, formula, upto, budget):
    """A function e -> L(e) (or l(e)) for elements e of S.

    Dimension 1 reads one length table over 0..upto.  Affine elements are
    solved one at a time by branch and bound, memoized because targets
    share shifted elements.  An element outside S (or, in dimension 1,
    outside 0..upto) raises NotInSemigroupError.
    """
    maximize = formula is Formula.LONGEST
    if S.dim == 1:
        table = length_table(S, upto, maximize, budget=budget)

        def read(e):
            got = table[e] if 0 <= e <= upto else None
            if got is None:
                raise NotInSemigroupError(f"{e} is not in {S!r} up to {upto}")
            return got

        return read
    fn = longest_length if maximize else shortest_length
    memo = {}

    def read(e):
        got = memo.get(e)
        if got is None:
            found = fn(S, e, budget=budget)
            if found is None:
                raise NotInSemigroupError(f"{e} is not in {S!r}")
            got = memo[e] = found[0]
        return got

    return read


def _check_targets(S, m, formula, report):
    """The sound finite check set: evaluations with a qualifying witness.

    The longest formula can only first fail at an evaluation with a witness
    of length > 2 that is not left-zero (numerical, m smallest); the
    shortest formula at an evaluation with a witness that is not right-zero
    (numerical, m largest).  Every minimal replaceable evaluation stays in
    the set otherwise: restricting further to divisibility-minimal
    evaluations is not sound, because a failure at an evaluation need not
    descend to the evaluations dividing it (the minimal vectors below its
    extremal factorization may all evaluate to the element itself).
    """
    m_elt = S.element(m)
    if formula is Formula.LONGEST:
        if S.is_numerical and m_elt == S.atoms[0]:
            def keep(c):
                return sum(c) > 2 and not is_left_zero(c)
        else:
            def keep(c):
                return sum(c) > 2
    else:
        if S.is_numerical and m_elt == S.atoms[-1]:
            def keep(c):
                return not is_right_zero(c)
        else:
            def keep(c):
                return True
    return [
        s for s, vecs in report.by_value().items() if any(keep(c) for c in vecs)
    ]


def check_formula(S, m, formula, budget=None, report=None):
    """Decide the formula from the finite check set of (S, m).

    A report from min_repl can be passed in to share the solver work
    between the two formulas; only its minimal vectors are consulted.
    In dimension 1 every target and its shift s - m are read from one
    length table up to the largest target.
    """
    formula = _as_formula(formula)
    if report is None:
        report = min_repl(S, m, budget=budget)
    targets = sorted(_check_targets(S, m, formula, report), key=_element_sort_key)
    m_elt = S.element(m)
    upto = targets[-1] if targets and S.dim == 1 else 0
    length_of = _length_reader(S, formula, upto, budget)
    checked = []
    for s in targets:
        if S.dim == 1:
            prev = s - m_elt
        else:
            prev = tuple(a - b for a, b in zip(s, m_elt))
        checked.append(Check(s, length_of(s), length_of(prev) + 1))
    # From a list: tuple(genexpr) resizes, which fills the free lists.
    counterexamples = tuple([c for c in checked if not c.ok])
    return Verdict(
        formula=formula,
        m=m_elt,
        holds=not counterexamples,
        checked=tuple(checked),
        counterexamples=counterexamples,
        method="minrepl",
    )


def embdim3_check(S, formula, budget=None):
    """Single-element criterion for numerical semigroups with 3 generators.

    With generators n1 < n2 < n3, the longest formula (about m = n1) holds
    everywhere iff it holds at a*n2 where a = min{c : c*n2 - n1 in S}; the
    shortest formula (about m = n3) similarly at b*n2 with b = min{c :
    c*n2 - n3 in S}.
    """
    formula = _as_formula(formula)
    if not S.is_numerical:
        raise NotNumericalError("the three-generator fast path is numerical-only")
    if len(S.generators) != 3:
        raise NotEmbDim3Error(f"{S!r} does not have exactly 3 generators")
    n1, n2, n3 = S.atoms
    m = n1 if formula is Formula.LONGEST else n3
    c = 1
    while not S.contains(c * n2 - m):
        c += 1
    element = c * n2
    length_of = _length_reader(S, formula, element, budget)
    check = Check(element, length_of(element), length_of(element - m) + 1)
    return Verdict(
        formula=formula,
        m=m,
        holds=check.ok,
        checked=(check,),
        counterexamples=() if check.ok else (check,),
        method="embdim3",
    )


def _length_tables_numerical(S, upto, formula):
    """DP table of L (or l) over 0..upto; None marks non-members."""
    gens = [g[0] for g in S.generators]
    best = [None] * (upto + 1)
    best[0] = 0
    maximize = formula is Formula.LONGEST
    for v in range(1, upto + 1):
        cur = None
        for g in gens:
            if v >= g and best[v - g] is not None:
                cand = best[v - g] + 1
                if cur is None or (cand > cur if maximize else cand < cur):
                    cur = cand
        best[v] = cur
    return best


def _length_tables_affine(S, wbound, formula):
    """DP over all semigroup elements of grading value at most wbound."""
    maximize = formula is Formula.LONGEST
    best = {(0,) * S.dim: 0}
    layers = {0: [(0,) * S.dim]}
    wg = [S.grading_value(g) for g in S.generators]
    for w in range(wbound + 1):
        for v in layers.get(w, ()):
            lv = best[v]
            for g, wgi in zip(S.generators, wg):
                nw = w + wgi
                if nw > wbound:
                    continue
                nv = tuple(a + b for a, b in zip(v, g))
                cand = lv + 1
                old = best.get(nv)
                if old is None:
                    best[nv] = cand
                    layers.setdefault(nw, []).append(nv)
                elif cand > old if maximize else cand < old:
                    best[nv] = cand
    return best


def default_scan_bound(S, formula):
    """Scan range beyond which the formula is guaranteed (numerical only)."""
    formula = _as_formula(formula)
    gens = S.atoms
    if formula is Formula.LONGEST:
        return (gens[0] - 1) * gens[-1]
    if len(gens) == 1:
        return 0
    return (gens[-1] - 1) * gens[-2]


def oracle_scan(S, m, formula, bound=None, allow_default=False,
                all_counterexamples=False):
    """Check the formula for every s in S up to a bound, by brute force.

    Numerical: the default bound covers every possible exception, so the
    verdict is exact.  Affine: the scan covers grading values up to the
    bound (which must be given explicitly unless allow_default permits the
    default of 120) and the verdict is evidence only (exact=False).
    Lengths come from a dynamic program, independent of the factorization
    search used elsewhere.  Unless all_counterexamples is set, the scan
    stops at the first failure.
    """
    formula = _as_formula(formula)
    if S.generator_index(m) is None:
        raise MNotAtomError(f"{m} is not a generator of {S!r}")
    m_elt = S.element(m)

    if S.is_numerical:
        if bound is None:
            bound = default_scan_bound(S, formula)
        exact = True
        table = _length_tables_numerical(S, bound + m_elt, formula)
        checked = []
        counterexamples = []
        for s in range(bound + 1):
            if table[s] is None:
                continue
            check = Check(s + m_elt, table[s + m_elt], table[s] + 1)
            checked.append(check)
            if not check.ok:
                counterexamples.append(check)
                if not all_counterexamples:
                    break
    else:
        if bound is None:
            if not allow_default:
                raise MissingBoundError(
                    "affine scans need an explicit bound (or allow_default=True)"
                )
            bound = 120
        exact = False
        wm = S.grading_value(m_elt)
        table = _length_tables_affine(S, bound + wm, formula)
        checked = []
        counterexamples = []
        for s in sorted(table, key=_element_sort_key):
            if S.grading_value(s) > bound:
                continue
            shifted = tuple(a + b for a, b in zip(s, S.vector(m_elt)))
            check = Check(shifted, table[shifted], table[s] + 1)
            checked.append(check)
            if not check.ok:
                counterexamples.append(check)
                if not all_counterexamples:
                    break
    counterexamples.sort(key=lambda c: _element_sort_key(c.element))
    return Verdict(
        formula=formula,
        m=m_elt,
        holds=not counterexamples,
        checked=tuple(checked),
        counterexamples=tuple(counterexamples),
        method="oracle",
        exact=exact,
        bound=bound,
    )
