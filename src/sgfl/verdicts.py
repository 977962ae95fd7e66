"""Deciding the shift-by-m length formulas via finite criteria and scans.

Three routes produce a Verdict for "L(s+m) = L(s) + 1 for all s" (and the
shortest-length analogue):

* check_formula: the finite candidate-set criterion built on min_repl;
* embdim3_check: the single-element fast path for numerical semigroups
  with exactly three generators;
* oracle_scan: an exhaustive scan whose lengths come from an independent
  dynamic program.  It is exact only for a numerical S scanned up to
  default_scan_bound; every other scan is evidence only (exact=False).

Every route picks its length engine by dimension.  In dimension 1 the
criteria read one length table up to their largest target, and the scan
fills its lengths in the loop that checks them; in higher dimension the
criteria solve each element by branch and bound, and the scan fills a
table by grading layer.  Each evaluated instance is a Check.  The
dimension-1 scan stores none: its Verdict.checked is a read-only
sequence that builds each Check when it is read.
"""

from __future__ import annotations

import enum
import functools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import add, eq, sub
from typing import NamedTuple

from .budget import BudgetMeter
from .errors import (
    MissingBoundError,
    MNotAtomError,
    NotEmbDim3Error,
    NotInSemigroupError,
    NotNumericalError,
    SgflError,
)
from .lengths import (
    _length_fill,
    length_table,
    longest_length,
    shortest_length,
)
from .minrepl import _element_sort_key, _require_report_for, min_repl
from .minrepl import is_left_zero, is_right_zero


class Formula(enum.Enum):
    LONGEST = "longest"
    SHORTEST = "shortest"


def _as_formula(formula):
    if isinstance(formula, Formula):
        return formula
    try:
        return Formula(str(formula).lower())
    except ValueError:
        raise SgflError(f"formula must be longest or shortest, got {formula!r}")


class Check(NamedTuple):
    """One evaluated instance: value = L(s) (or l(s)), shifted = L(s-m)+1.

    A NamedTuple, not a frozen dataclass: the checks of a dimension-1 scan
    are built as they are read, and a tuple subclass is built in one C
    call, where a frozen dataclass sets each field through
    object.__setattr__.  The record is immutable and hashable, and being a
    tuple it compares equal to the plain triple (element, value, shifted).
    """

    element: object
    value: int
    shifted: int

    @property
    def ok(self):
        return self.value == self.shifted


# Builds Check(v, value, shifted) from a triple in C, without the
# Python-level __new__ of a NamedTuple call.
_new_check = functools.partial(tuple.__new__, Check)


class _ScanChecks(Sequence):
    """The checks of a dimension-1 scan, built from its lengths when read.

    elements holds the checked values in order and best[v] is L(v) (or
    l(v)) of every value up to the last one, so the check at v is
    (v, best[v], best[v - m] + 1).  Slices are tuples, and the sequence
    compares equal to and hashes like the tuple of its checks.
    """

    __slots__ = ("_elements", "_best", "_m")

    def __init__(self, elements, best, m):
        self._elements = elements
        self._best = best
        self._m = m

    def __len__(self):
        return len(self._elements)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._checks(self._elements[index]))
        return next(self._checks((self._elements[index],)))

    def __iter__(self):
        return self._checks(self._elements)

    def _checks(self, elements):
        best, m = self._best, self._m
        return (_new_check((v, best[v], best[v - m] + 1)) for v in elements)

    def __eq__(self, other):
        if not isinstance(other, (tuple, _ScanChecks)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class Verdict:
    formula: Formula
    m: object
    holds: bool
    checked: Sequence  # a tuple, or _ScanChecks for a dimension-1 scan
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
    solved one at a time by branch and bound, each call with its own
    meter.  An element outside S (or, in dimension 1, outside 0..upto)
    raises NotInSemigroupError.
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

    def read(e):
        found = fn(S, e, budget=budget)
        if found is None:
            raise NotInSemigroupError(f"{e} is not in {S!r}")
        return found[0]

    return read


def _check_targets(S, m, formula, report):
    """The sound finite check set: evaluations with a qualifying witness.

    The longest formula can only first fail at an evaluation with a witness
    of length > 2 that is not left-zero (numerical, m the candidate atom
    n1); the shortest formula at an evaluation with a witness that is not
    right-zero (numerical, m the candidate atom n_k; see candidate_atoms).
    Every minimal replaceable evaluation stays in the set otherwise:
    restricting further to divisibility-minimal evaluations is not sound,
    because a failure at an evaluation need not descend to the evaluations
    dividing it (the minimal vectors below its extremal factorization may
    all evaluate to the element itself).
    """
    refined = S.is_numerical and S.element(m) in candidate_atoms(S, formula)
    if formula is Formula.LONGEST:
        def keep(c):
            return sum(c) > 2 and not (refined and is_left_zero(c))
    else:
        def keep(c):
            return not (refined and is_right_zero(c))
    return [
        s for s, vecs in report.by_value().items() if any(keep(c) for c in vecs)
    ]


def _decide(S, m, formula, targets, method, budget):
    """The Verdict of the formula at m from its sorted check targets.

    Each target s is checked as L(s) against L(s - m) + 1 (or l), every
    length read from one reader built up to the largest target.
    """
    upto = targets[-1] if targets and S.dim == 1 else 0
    length_of = _length_reader(S, formula, upto, budget)
    if S.dim == 1:
        def back(s):
            return s - m
    else:
        def back(s):
            return tuple(map(sub, s, m))
    checked = tuple([
        _new_check((s, length_of(s), length_of(back(s)) + 1)) for s in targets
    ])
    # From a list: tuple(genexpr) resizes, which fills the free lists.
    counterexamples = tuple([c for c in checked if not c.ok])
    return Verdict(
        formula=formula,
        m=m,
        holds=not counterexamples,
        checked=checked,
        counterexamples=counterexamples,
        method=method,
    )


def check_formula(S, m, formula, budget=None, report=None):
    """Decide the formula from the finite check set of (S, m).

    A report from min_repl can be passed in to share the solver work
    between the two formulas; only its minimal vectors are consulted, and
    a report made for another semigroup or atom is refused.
    """
    formula = _as_formula(formula)
    if report is None:
        report = min_repl(S, m, budget=budget)
    else:
        _require_report_for(S, m, report)
    targets = sorted(_check_targets(S, m, formula, report), key=_element_sort_key)
    return _decide(S, S.element(m), formula, targets, "minrepl", budget)


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
    [m] = candidate_atoms(S, formula)
    n2 = S.atoms[1]
    c = 1
    while not S.contains(c * n2 - m):
        c += 1
    return _decide(S, m, formula, [c * n2], "embdim3", budget)


def _length_tables_affine(S, wbound, formula, budget):
    """DP over the elements of grading value at most wbound (dimension 2+).

    Returns (best, layers): best maps each element to L (or l), and
    layers maps each grading value that has elements to their list, so a
    huge wbound allocates nothing.  Layers are filled in grading order,
    each element extended by every generator with its grading value read
    once per table.  One budget node per element the table adds, the
    zero element included.
    """
    maximize = formula is Formula.LONGEST
    meter = BudgetMeter(budget)
    meter.spend()
    best = {(0,) * S.dim: 0}
    layers = {0: [(0,) * S.dim]}
    steps = [(g, S.grading_value(g)) for g in S.generators]
    for w in range(wbound + 1):
        for v in layers.get(w, ()):
            cand = best[v] + 1
            for g, wgi in steps:
                nw = w + wgi
                if nw > wbound:
                    continue
                nv = tuple(map(add, v, g))
                old = best.get(nv)
                if old is None:
                    meter.spend()
                    best[nv] = cand
                    layers.setdefault(nw, []).append(nv)
                elif cand > old if maximize else cand < old:
                    best[nv] = cand
    return best, layers


def default_scan_bound(S, formula):
    """Scan range beyond which the formula is guaranteed (numerical only).

    Proved at the candidate atom (Barron, O'Neill & Pelayo, Math. Comp.
    2017).  At any other atom it rests on evidence: a census of genus <= 12
    found no formula holding at a non-candidate atom in 16,526 verdicts.
    """
    formula = _as_formula(formula)
    S._require_numerical()
    gens = S.atoms
    if formula is Formula.LONGEST:
        return (gens[0] - 1) * gens[-1]
    if len(gens) == 1:
        return 0
    return (gens[-1] - 1) * gens[-2]


def oracle_scan(S, m, formula, bound=None, allow_default=False,
                all_counterexamples=False, budget=None):
    """Check the formula for every s in S up to a bound, by brute force.

    The bound defaults to default_scan_bound when S is numerical; else it
    must be given, unless allow_default permits the default of 120.  It
    must be a nonnegative int.  The verdict is exact only when S is
    numerical and the bound reaches the default; any other scan is
    evidence only.  exact=True is proved only at the candidate atom (see
    default_scan_bound).  Lengths come from a dynamic program, independent of
    the factorization search used elsewhere.  Unless all_counterexamples
    is set, the scan stops at the first failure.  In dimension 1 the scan
    checks s + m for each s in S up to the bound, filling L (or l) in the
    loop that checks it.  It charges one node per value 0..bound+m before
    it starts, and its checked is a read-only view of the values and
    lengths (budget.py gives its bytes per node).  In higher dimension it
    scans grading values up to the bound, from a table that charges one
    node per element it adds.
    """
    formula = _as_formula(formula)
    if S.generator_index(m) is None:
        raise MNotAtomError(f"{m} is not a generator of {S!r}")
    m_elt = S.element(m)
    if bound is not None and (
        not isinstance(bound, int) or isinstance(bound, bool) or bound < 0
    ):
        raise SgflError(f"scan bound must be a nonnegative integer, got {bound!r}")
    exact_bound = default_scan_bound(S, formula) if S.is_numerical else None
    if bound is None:
        if exact_bound is not None:
            bound = exact_bound
        elif allow_default:
            bound = 120
        else:
            raise MissingBoundError(
                "scans of a semigroup that is not numerical need an explicit "
                "bound (or allow_default=True)"
            )
    exact = exact_bound is not None and bound >= exact_bound

    if S.dim == 1:
        top = bound + m_elt
        BudgetMeter(budget).spend(top + 1)
        # best[pad + v] = L(v) (or l(v)); shifts yields entry v - m at v.
        maximize = formula is Formula.LONGEST
        best, pad, fill = _length_fill(S.atoms, top, maximize)
        shifts = islice(best, pad + 1 - m_elt, None)
        elements = array("q")
        counterexamples = []
        for v, prev, cur in zip(range(1, top + 1), shifts, fill):
            best.append(cur)
            if not 0 <= prev <= top:
                continue
            elements.append(v)
            if cur != prev + 1:
                counterexamples.append(Check(v, cur, prev + 1))
                if not all_counterexamples:
                    break
        del best[:pad]
        checked = _ScanChecks(elements, best, m_elt)
    else:
        wm = S.grading_value(m_elt)
        table, layers = _length_tables_affine(S, bound + wm, formula, budget)
        in_range = [s for w in range(bound + 1) for s in layers.get(w, ())]
        checked = []
        counterexamples = []
        for s in sorted(in_range):
            shifted = tuple(map(add, s, m_elt))
            check = _new_check((shifted, table[shifted], table[s] + 1))
            checked.append(check)
            if not check.ok:
                counterexamples.append(check)
                if not all_counterexamples:
                    break
        checked = tuple(checked)
    counterexamples.sort(key=lambda c: _element_sort_key(c.element))
    return Verdict(
        formula=formula,
        m=m_elt,
        holds=not counterexamples,
        checked=checked,
        counterexamples=tuple(counterexamples),
        method="oracle",
        exact=exact,
        bound=bound,
    )
