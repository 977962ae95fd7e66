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
criteria read one length table up to their largest target.  The scan
takes whole length classes as bit sets where few classes occur, and
otherwise fills its lengths in the loop that checks them, one value at
a time (see oracle_scan), so on most inputs its lengths come from a
different algorithm than the criteria's.  In higher dimension the
criteria solve each element by branch and bound, and the scan fills a
table by grading layer.  Each evaluated instance is a Check.  The
dimension-1 scan stores none: its Verdict.checked is a read-only
sequence that builds each Check when it is read.
"""

from __future__ import annotations

import enum
import functools
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, islice
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
    l(v)) of every value up to the last one: a fixed-width array from the
    class engine, a list from the per-value engine.  So the check at v
    is (v, best[v], best[v - m] + 1).  Slices are tuples, and the
    sequence compares equal to and hashes like the tuple of its checks.
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


# Cost model of the dimension-1 scan, in units of one value of the
# per-value loop: a pass over one length class costs top / SCAN_PASS_VALUES
# + SCAN_PASS_OVERHEAD, and the per-value loop costs top.  Measured on
# CPython 3.11 (see _by_classes).
SCAN_PASS_VALUES = 1500
SCAN_PASS_OVERHEAD = 4

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# _PLANE_BYTES[b] writes a set bit as the byte 1 << b.
_PLANE_BYTES = [bytes.maketrans(b"01", bytes([0, 1 << b])) for b in range(8)]


def _element_array(top):
    """An empty array wide enough for the values 0..top."""
    return array("I" if top < 1 << 32 else "Q")


def _bits_bytes(bits, n):
    """Byte v is bit v of bits, for v < n; bits must be below 2**n."""
    return format(bits, f"0{n}b").encode().translate(_BIT_BYTES)[::-1]


def _members(gens, top):
    """The members of S in 0..top, as the set bits of an int.

    One atom at a time, the set is closed under adding that atom by
    doubling: after the shifts by g, 2g, 4g, ... it holds every sum with
    up to top // g further copies of g.
    """
    window = (2 << top) - 1
    members = 1
    for g in gens:
        step = g
        while step <= top:
            members |= (members << step) & window
            step <<= 1
    return members


def _by_classes(gens, top, maximize, members):
    """True iff the scan over 0..top should take whole length classes.

    A pass over a class is a few big-int operations over the range, so
    the class scan costs about classes * (top / SCAN_PASS_VALUES +
    SCAN_PASS_OVERHEAD) values of the per-value loop, with classes
    bounded from above:

    L(v) <= v // n1, so the longest lengths form at most top // n1 + 1
    classes.  For the shortest, write a member v as w + q * nk with w the
    least member of its class modulo the largest atom nk: w - nk is a gap
    or negative, so w <= F + nk for the Frobenius number F, and
    l(v) <= l(w) + q <= w // n1 + q.  F is the last gap in range once n1
    members follow it there; otherwise w <= top is all that is known.
    So members (see _members) is read for the shortest formula only.
    """
    n1, nk = gens[0], gens[-1]
    if maximize:
        classes = top // n1 + 1
    else:
        last_gap = (members ^ ((2 << top) - 1)).bit_length() - 1
        reach = top if top - last_gap < n1 else min(top, last_gap + nk)
        classes = reach // n1 + (top - reach) // nk + 2
    return classes * (top + SCAN_PASS_OVERHEAD * SCAN_PASS_VALUES) <= (
        SCAN_PASS_VALUES * top
    )


def _length_classes(gens, members, maximize):
    """The lengths of the members 0..top, as bit planes.

    members is the set of members as an int, and bit v of the returned
    planes[b] is bit b of L(v) (or l(v)).  Each length class is one set
    of values, so a class costs a few big-int operations over the whole
    range.  Both formulas walk the nested sets U_j = {v : L(v) >= j} (or
    l), from U_0 = members until they are empty.

    Longest: U_(j+1) is every sum of a member of U_j and an atom.

    Shortest: the frontier F_j = {v : l(v) = j} starts at {0}, F_(j+1) is
    every sum of a member of F_j and an atom in U_(j+1), and U_(j+1) is
    U_j less F_j.

    The values whose length has bit b set are the symmetric difference of
    the U_j over the multiples j >= 1 of 2**b, so U_j enters planes[0..b]
    for the largest such b: two planes per class on average.
    """
    planes = []
    j = 0
    if maximize:
        level = members
        while level:
            step = 0
            for g in gens:
                step |= level << g
            level = step & members
            j += 1
            _add_level(planes, j, level)
    else:
        # F_j and U_(j+1): the values not reached yet.
        frontier, unreached = 1, members ^ 1
        while unreached:
            j += 1
            _add_level(planes, j, unreached)
            step = 0
            for g in gens:
                step |= frontier << g
            frontier = step & unreached
            unreached ^= frontier
    return planes


def _failures(planes, m, checks):
    """The values v of checks where the length differs from L(v - m) + 1.

    A bit-sliced comparison of the planes against the planes shifted by
    m, plus one: a few big-int operations per plane.  An increment that
    carries out of the planes needs no test of its own: its bits in the
    planes are all 0, and every checked v > 0 has a length of at least 1.
    """
    carry = checks  # the increment's carry into the current plane
    differ = 0
    for plane in planes:
        shifted = plane << m
        differ |= plane ^ shifted ^ carry
        carry &= shifted
    return differ & checks


def _add_level(planes, j, level):
    """Enter U_j = level, for j >= 1, into the bit planes (see
    _length_classes).  Levels come in order, so j = 2**b adds plane b;
    an empty level adds nothing."""
    if not level:
        return
    low = (j & -j).bit_length()
    if low > len(planes):
        planes.append(0)
    for b in range(low):
        planes[b] ^= level


def _length_store(planes, n):
    """An array whose entry v < n is the length with bit planes planes.

    Entries are 1, 2, 4 or 8 bytes wide, as the planes need.  Each group
    of 8 planes is unpacked into one byte per value by C-level calls
    (format, bytes.translate, int.from_bytes) and written into its byte
    of every entry through a strided memoryview.
    """
    window = (1 << n) - 1
    lanes = (len(planes) + 7) >> 3
    code = (
        "B" if lanes <= 1 else "H" if lanes == 2 else "I" if lanes <= 4 else "Q"
    )
    store = array(code, [0]) * n
    size = store.itemsize
    with memoryview(store) as raw, raw.cast("B") as octets:
        for t in range(lanes):
            lane = 0
            for b, plane in enumerate(planes[8 * t : 8 * t + 8]):
                text = format(plane & window, f"0{n}b").encode()
                lane |= int.from_bytes(text.translate(_PLANE_BYTES[b]), "big")
            first = t if sys.byteorder == "little" else size - 1 - t
            octets[first::size] = lane.to_bytes(n, "little")
    return store


def _scan_classes(gens, m, top, maximize, everything, members=None):
    """The dimension-1 scan one length class at a time (see oracle_scan).

    gens are the atoms up to top, ascending.  Returns (elements, best,
    counterexamples): the checked values in order, an array of L (or l)
    over 0 up to the last checked value, and the failing checks.  Unless
    everything is set, a prefix of the range is scanned first, and the
    whole range only if the prefix holds.
    """
    if members is None:
        members = _members(gens, top)
    prefix = top if everything else min(top, max(2 * gens[-1], top // 16))
    while True:
        window = (2 << prefix) - 1
        inside = members & window
        planes = _length_classes(gens, inside, maximize)
        checks = (inside << m) & window
        failures = _failures(planes, m, checks)
        if failures or prefix == top:
            break
        prefix = top
    if not failures:
        last, failing = prefix, ()
    elif everything:
        last = prefix
        failing = compress(range(last + 1), _bits_bytes(failures, last + 1))
    else:
        last = (failures & -failures).bit_length() - 1
        failing = (last,)
    n = last + 1
    best = _length_store(planes, n)
    elements = _element_array(top)
    checks &= (1 << n) - 1
    elements.extend(compress(range(n), _bits_bytes(checks, n)))
    counterexamples = [Check(v, best[v], best[v - m] + 1) for v in failing]
    return elements, best, counterexamples


def _scan_values(gens, m, top, maximize, everything):
    """The dimension-1 scan one value at a time (see oracle_scan).

    Takes and returns what _scan_classes does; best is a list here, with
    an out-of-range sentinel at each value outside S.  The lengths are
    filled in the loop that checks them, and the loop stops at the first
    failure unless everything is set.
    """
    # best[pad + v] = L(v) (or l(v)); shifts yields entry v - m at v.
    best, pad, fill = _length_fill(gens, top, maximize)
    shifts = islice(best, pad + 1 - m, None)
    elements = _element_array(top)
    counterexamples = []
    for v, prev, cur in zip(range(1, top + 1), shifts, fill):
        best.append(cur)
        if not 0 <= prev <= top:
            continue
        elements.append(v)
        if cur != prev + 1:
            counterexamples.append(Check(v, cur, prev + 1))
            if not everything:
                break
    del best[:pad]
    return elements, best, counterexamples


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
    is set, the scan stops at the first failure.

    In dimension 1 the scan checks s + m for each s in S up to the bound.
    It charges one node per value 0..top = bound+m before it starts, and
    its checked is a read-only view of the values and lengths (budget.py
    gives its bytes per node).  It has two engines, chosen by
    _by_classes from an upper bound on the number of length classes in
    0..top, the range top and the cost constants SCAN_PASS_VALUES and
    SCAN_PASS_OVERHEAD:

    * _scan_classes holds sets of values as the bits of ints and takes
      one length class at a time (see _length_classes); the failures are
      one bit-sliced comparison of the lengths against those at v - m,
      and the first is the lowest set bit.  Unless all_counterexamples is
      set, it scans the prefix 0..max(2 * nk, top // 16) first, and the
      whole range only if the prefix holds.
    * _scan_values fills L (or l) one value at a time in the loop that
      checks it, and stops at the first failure.  It serves inputs with
      many classes over a short range, such as <2, 60001>.

    In higher dimension it scans grading values up to the bound, from a
    table that charges one node per element it adds.
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
        maximize = formula is Formula.LONGEST
        gens = [g for g in S.atoms if g <= top]
        # Only the shortest formula's class bound reads the members.
        members = None if maximize else _members(gens, top)
        if _by_classes(gens, top, maximize, members):
            elements, best, counterexamples = _scan_classes(
                gens, m_elt, top, maximize, all_counterexamples, members
            )
        else:
            elements, best, counterexamples = _scan_values(
                gens, m_elt, top, maximize, all_counterexamples
            )
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
