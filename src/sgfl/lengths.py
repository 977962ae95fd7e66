"""Factorization sets and extremal factorization lengths.

A factorization of v is a vector of atom multiplicities (in presentation
order) summing to v.  `factorizations` materializes the whole set;
`longest_length` / `shortest_length` find one extreme, with a witness, by
branch and bound without materializing anything.  `length_table` gives
L (or l) of every value 0..N of a dimension-1 semigroup at once, by the
dynamic recurrence of Barron, O'Neill and Pelayo; the verdicts read their
dimension-1 lengths from it and solve affine elements by branch and bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import BudgetMeter
from .errors import MNotAtomError, NotInSemigroupError, NotNumericalError


@dataclass(frozen=True)
class LengthSummary:
    """Achieved factorization lengths of one element, with witnesses.

    The witnesses are the lexicographically smallest factorization vectors
    among those of extremal length.  The has_m flags are present only when a
    distinguished atom m was supplied: has_m_in_longest is true iff some
    maximal-length factorization uses m at least once (equivalently, iff
    L(v) = L(v-m) + 1 whenever v-m lies in the semigroup), and symmetrically
    for the shortest length.
    """

    element: object
    lengths: tuple
    longest: int
    shortest: int
    witness_longest: tuple
    witness_shortest: tuple
    has_m_in_longest: bool | None = None
    has_m_in_shortest: bool | None = None


def factorizations(S, v, budget=None):
    """All atom-multiplicity vectors summing to v, sorted lexicographically.

    Empty iff v is outside the semigroup.  Atoms are processed in
    presentation order with a residual-grading prune; the final atom is
    resolved by exact division, so each visited node is cheap.
    """
    vec = S.vector(v)
    meter = BudgetMeter(budget)
    gens = S.generators
    grading = S.grading
    k = len(gens)
    dim = S.dim
    zero = (0,) * dim
    wg = [sum(w * c for w, c in zip(grading, g)) for g in gens]
    out = []

    def rec(i, res, wres, prefix):
        meter.spend()
        if i == k - 1:
            g = gens[i]
            q, r = divmod(wres, wg[i])
            if r == 0 and all(rc == q * gc for rc, gc in zip(res, g)):
                out.append(prefix + (q,))
            return
        g = gens[i]
        child = res
        for count in range(wres // wg[i] + 1):
            rec(i + 1, child, wres - count * wg[i], prefix + (count,))
            child = tuple(rc - gc for rc, gc in zip(child, g))

    wv = sum(w * c for w, c in zip(grading, vec))
    if wv < 0 or (wv == 0 and vec != zero):
        return ()
    if k == 0:
        return ((),) if vec == zero else ()
    rec(0, vec, wv, ())
    return tuple(sorted(out))


def _extremal(S, v, maximize, budget=None):
    """Best factorization length and its lex-smallest witness, or None.

    Branch and bound: a partial assignment is cut when even the best
    completion over the remaining atoms (residual grading divided by the
    cheapest / dearest remaining atom grading) cannot beat the incumbent.
    Candidate counts are enumerated ascending, so the first factorization
    achieving the final optimum is the lexicographically smallest one.
    """
    vec = S.vector(v)
    meter = BudgetMeter(budget)
    gens = S.generators
    grading = S.grading
    k = len(gens)
    dim = S.dim
    zero = (0,) * dim
    wg = [sum(w * c for w, c in zip(grading, g)) for g in gens]
    wv = sum(w * c for w, c in zip(grading, vec))
    if wv < 0 or (wv == 0 and vec != zero) or k == 0:
        return ((0, ()) if vec == zero and k == 0 else None)
    # Extremal grading value among atoms i..k-1, for the completion bound.
    suffix = [0] * k
    acc = wg[k - 1]
    for i in range(k - 1, -1, -1):
        acc = (min if maximize else max)(acc, wg[i])
        suffix[i] = acc
    best = None
    best_witness = None
    prefix = []

    def rec(i, res, wres, count):
        nonlocal best, best_witness
        meter.spend()
        if best is not None:
            if maximize:
                if count + wres // suffix[i] <= best:
                    return
            elif count + -(-wres // suffix[i]) >= best:
                return
        if i == k - 1:
            q, r = divmod(wres, wg[i])
            if r == 0 and all(rc == q * gc for rc, gc in zip(res, gens[i])):
                total = count + q
                if best is None or (total > best if maximize else total < best):
                    best = total
                    best_witness = tuple(prefix) + (q,)
            return
        child = res
        g = gens[i]
        wgi = wg[i]
        for c in range(wres // wgi + 1):
            prefix.append(c)
            rec(i + 1, child, wres - c * wgi, count + c)
            prefix.pop()
            child = tuple(rc - gc for rc, gc in zip(child, g))

    rec(0, vec, wv, 0)
    if best is None:
        return None
    return best, best_witness


def longest_length(S, v, budget=None):
    """(L(v), witness) for v in S, else None."""
    return _extremal(S, v, maximize=True, budget=budget)


def shortest_length(S, v, budget=None):
    """(l(v), witness) for v in S, else None."""
    return _extremal(S, v, maximize=False, budget=budget)


def length_table(S, upto, maximize, budget=None):
    """L(v) (or l(v) unless maximize) for v = 0..upto; None outside S.

    Dimension 1 only.  Every factorization of v > 0 ends in some atom g,
    so L(v) = max_g L(v - g) + 1 and l(v) = min_g l(v - g) + 1 over the
    atoms g <= v with v - g in S.  Atoms above upto never occur, so the
    table holds at most 2 * upto + 1 entries whatever the largest atom.
    One budget node per entry of 0..upto, charged before the table is
    allocated.
    """
    if S.dim != 1:
        raise NotNumericalError("length tables are dimension-1 only")
    BudgetMeter(budget).spend(upto + 1)
    gens = [g for g in S.atoms if g <= upto]
    pick = max if maximize else min
    missing = -1 if maximize else upto + 1  # worse than any length in range
    pad = max(gens, default=0)  # leading non-members: v - g stays in the list
    table = [missing] * pad + [0]
    for i in range(pad + 1, pad + upto + 1):
        best = pick([table[i - g] for g in gens], default=missing)
        table.append(missing if best == missing else best + 1)
    return [None if x == missing else x for x in table[pad:]]


def length_summary(S, v, m=None, budget=None):
    """Full length data of v, raising NotInSemigroup when v is not in S."""
    element = S.element(v)
    facs = factorizations(S, v, budget=budget)
    if not facs:
        raise NotInSemigroupError(f"{element} is not in {S!r}")
    lengths = sorted({sum(c) for c in facs})
    longest = lengths[-1]
    shortest = lengths[0]
    witness_longest = min(c for c in facs if sum(c) == longest)
    witness_shortest = min(c for c in facs if sum(c) == shortest)
    has_long = has_short = None
    if m is not None:
        mi = S.generator_index(m)
        if mi is None:
            raise MNotAtomError(f"{m} is not a generator of {S!r}")
        has_long = any(c[mi] > 0 for c in facs if sum(c) == longest)
        has_short = any(c[mi] > 0 for c in facs if sum(c) == shortest)
    return LengthSummary(
        element=element,
        lengths=tuple(lengths),
        longest=longest,
        shortest=shortest,
        witness_longest=witness_longest,
        witness_shortest=witness_shortest,
        has_m_in_longest=has_long,
        has_m_in_shortest=has_short,
    )
