"""Presentations of numerical and pointed affine semigroups in Z^d.

A presentation stores a minimal generating set together with a positive
integer grading functional w (w(g) >= 1 for every generator g), which
guarantees the semigroup is reduced and that every element has finitely
many factorizations.  Elements of dimension-1 semigroups are plain ints;
higher-dimensional elements are tuples of ints.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable
from math import gcd

from .budget import BudgetMeter
from .errors import (
    DimensionMismatchError,
    MNotInSError,
    NotMinimalError,
    NotNumericalError,
    NotPointedError,
    SgflError,
)

GRADING_SEARCH_BOX = 50


def _as_vector(value, dim):
    """Coerce an element (int for dim 1, sequence otherwise) to a tuple.

    A bool is refused as an element and as a coordinate, as kunz_point
    refuses it: True is an int to Python but not a lattice point.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if dim != 1:
            raise DimensionMismatchError(
                f"scalar element given for a dimension-{dim} semigroup"
            )
        return (value,)
    try:
        vec = tuple(value)
    except TypeError:
        raise DimensionMismatchError(f"element {value!r} is not an int or a vector")
    if len(vec) != dim:
        raise DimensionMismatchError(
            f"element {vec} has length {len(vec)}, expected {dim}"
        )
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in vec):
        raise DimensionMismatchError(f"element {vec} has non-integer coordinates")
    return vec


def _as_element(vec, dim):
    return vec[0] if dim == 1 else vec


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _least_per_residue(gens, modulus):
    """Least N-combination of gens in each residue class modulo modulus.

    Single-source shortest paths on the residue graph whose edges add one
    generator at a time.  Residues no combination reaches stay None, which
    happens exactly when gcd(gens, modulus) > 1.
    """
    least = [None] * modulus
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if least[r] != d:
            continue
        for g in gens:
            nd = d + g
            nr = (r + g) % modulus
            if least[nr] is None or nd < least[nr]:
                least[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return least


def _find_grading(generators, dim):
    ones = (1,) * dim
    if all(_dot(ones, g) > 0 for g in generators):
        return ones
    if dim == 1:
        raise NotPointedError("dimension-1 generators must be positive integers")
    for radius in range(1, GRADING_SEARCH_BOX + 1):
        for w in itertools.product(range(-radius, radius + 1), repeat=dim):
            if max(abs(c) for c in w) != radius:
                continue
            if all(_dot(w, g) > 0 for g in generators):
                return w
    raise NotPointedError(
        f"no positive grading with coordinates in [-{GRADING_SEARCH_BOX}, "
        f"{GRADING_SEARCH_BOX}] exists for {generators}"
    )


class SemigroupPresentation:
    """A presentation of a pointed semigroup in Z^d, and its membership test.

    new_semigroup returns validated minimal presentations.  While it and
    minimal_generating_subset test each generator, they also build one over
    the other generators (unvalidated, gcd None), and use only its private
    membership methods.

    Dimension-1 membership keeps the least element of S per residue class
    modulo the smallest generator n1: n is in S iff n is at least the entry
    for n mod n1 (Rosales & Garcia-Sanchez, Numerical Semigroups, ch. 1).
    That table is built on the first query n >= n1; below n1 only 0 is in
    S, so a query smaller than n1 never pays for n1 entries.  It is kept,
    and apery_set(n1) and frobenius read it too; an Apery set modulo any
    other m is built per call and not kept.
    Higher dimensions use an iterative depth-first search on residual
    vectors in presentation order, memoized on the residual across
    queries.  A residual with a negative grading value is rejected
    immediately, which bounds the search because w(g) >= 1 for every
    generator.  On a fresh memo the search's path to 0 is the witness
    that combination_of takes, so it answers its steps from the memo.

    Instances are not changed after construction, apart from the table
    modulo n1 and the affine memo, which are deterministic functions of
    the presentation.
    """

    def __init__(self, generators, dim, grading, generator_gcd, budget=None):
        self.dim = dim
        self.generators = generators  # tuple of coordinate tuples
        self.grading = grading
        self.gcd = generator_gcd  # None unless dim == 1
        self._budget = budget  # for each residue table; None: DEFAULT_BUDGET
        self._zero = (0,) * dim
        # self.atoms: the generators as elements (ints when dim == 1).
        if dim == 1:
            self.atoms = tuple([g for (g,) in generators])
            self._n1 = min(self.atoms)
            self._least = None  # least element per residue mod n1, once built
        else:
            self.atoms = generators
            self._memo = {}

    # -- basic views ----------------------------------------------------

    @property
    def is_numerical(self):
        return self.dim == 1 and self.gcd == 1

    def element(self, value):
        """Validate and normalize an element of the ambient lattice."""
        return _as_element(_as_vector(value, self.dim), self.dim)

    def vector(self, value):
        return _as_vector(value, self.dim)

    def grading_value(self, value):
        return _dot(self.grading, _as_vector(value, self.dim))

    def generator_index(self, value):
        vec = _as_vector(value, self.dim)
        try:
            return self.generators.index(vec)
        except ValueError:
            return None

    def __repr__(self):
        gens = ", ".join(str(a) for a in self.atoms)
        return f"SemigroupPresentation<{gens}>"

    def __eq__(self, other):
        return (
            isinstance(other, SemigroupPresentation)
            and self.dim == other.dim
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dim, self.generators))

    # -- membership and divisibility ------------------------------------

    def contains(self, value):
        """True iff value is an N-combination of the generators."""
        if type(value) is int and self.dim == 1:
            return self._has_int(value)
        return self._has(_as_vector(value, self.dim))

    def divides(self, a, b):
        """True iff b - a lies in the semigroup."""
        if type(a) is int and type(b) is int and self.dim == 1:
            return self._has_int(b - a)
        return self._has(_sub(_as_vector(b, self.dim), _as_vector(a, self.dim)))

    def combination_of(self, value):
        """Counts over the generators summing to value, or None.

        Each step takes the first generator whose removal stays in S.  In
        dimension 1, with the generators ascending, that first generator
        is n1, and subtracting it keeps the residue mod n1.  So n1 applies
        exactly while the value exceeds the least element of its class,
        and those (value - least) // n1 steps are taken at once.
        """
        current = _as_vector(value, self.dim)
        if not self._has(current):
            return None
        counts = [0] * len(self.generators)
        bulk = self.dim == 1 and self.generators[0] == (self._n1,)
        while current != self._zero:
            for i, g in enumerate(self.generators):
                child = _sub(current, g)
                if _dot(self.grading, child) >= 0 and self._has(child):
                    if i == 0 and bulk:
                        n1 = self._n1
                        (n,) = current
                        steps = (n - self._table(n1)[n % n1]) // n1
                        counts[0] += steps
                        current = (n - steps * n1,)
                    else:
                        counts[i] += 1
                        current = child
                    break
            else:  # pragma: no cover - impossible when membership holds
                raise AssertionError("witness reconstruction failed")
        return tuple(counts)

    def _table(self, modulus):
        """Least element of S in each residue class modulo modulus; only
        the table modulo n1 is kept.  Building one charges modulus nodes
        to a fresh meter with the presentation's budget, so an oversized
        table fails at once."""
        if modulus == self._n1 and self._least is not None:
            return self._least
        BudgetMeter(self._budget).spend(modulus)
        table = _least_per_residue(self.atoms, modulus)
        if modulus == self._n1:
            self._least = table
        return table

    def _has_int(self, n):
        """Dimension-1 membership of the int n."""
        n1 = self._n1
        if n < n1:
            return n == 0
        table = self._least
        if table is None:
            table = self._table(n1)
        least = table[n % n1]
        return least is not None and n >= least

    def _has(self, vec):
        """Membership of a validated coordinate tuple."""
        if self.dim == 1:
            return self._has_int(vec[0])
        if vec == self._zero:
            return True
        memo = self._memo
        known = memo.get(vec)
        if known is not None:
            return known
        grading = self.grading
        gens = self.generators
        zero = self._zero
        # Frame: (residual, iterator over its untried generators).
        stack = [(vec, iter(gens))]
        while stack:
            v, untried = stack[-1]
            for g in untried:
                child = _sub(v, g)
                if _dot(grading, child) < 0:
                    continue
                known = memo.get(child)
                if known or child == zero:
                    for u, _ in stack:
                        memo[u] = True
                    return True
                if known is None:
                    stack.append((child, iter(gens)))
                    break
            else:
                memo[v] = False
                stack.pop()
        return False

    # -- numerical-only primitives ---------------------------------------

    def _require_numerical(self):
        if not self.is_numerical:
            raise NotNumericalError(
                "operation requires dimension 1 and generator gcd 1"
            )

    def apery_set(self, m):
        """Least element of S in each residue class modulo m, indexed 0..m-1."""
        self._require_numerical()
        m = self.element(m)
        if m <= 0 or not self.contains(m):
            raise MNotInSError(f"{m} is not a nonzero element of {self!r}")
        return list(self._table(m))

    def frobenius(self):
        """Largest integer outside S (-1 when S is all of N)."""
        self._require_numerical()
        return max(self._table(self._n1)) - self._n1


def _non_atoms(vecs, dim, grading, budget=None):
    """Yield (v, span of the others) for each v in vecs that lies in it."""
    for i, v in enumerate(vecs):
        others = tuple(vecs[:i] + vecs[i + 1 :])
        if others:
            span = SemigroupPresentation(others, dim, grading, None, budget)
            if span._has(v):
                yield v, span


def minimal_generating_subset(vectors, dim):
    """Reduce a generating list to the atoms of the semigroup it spans.

    Duplicates and zero vectors are dropped; a vector is kept iff it is not
    an N-combination of the remaining ones.  For pointed graded semigroups
    the surviving set is exactly the atom set, independent of removal order.
    """
    seen = []
    zero = (0,) * dim
    for v in vectors:
        vec = _as_vector(v, dim)
        if vec != zero and vec not in seen:
            seen.append(vec)
    if not seen:
        raise NotPointedError("no nonzero generators supplied")
    dropped = {v for v, _ in _non_atoms(seen, dim, _find_grading(seen, dim))}
    return [v for v in seen if v not in dropped]


def new_semigroup(generators, dim=None, budget=None):
    """Validate a generator list and return a presentation.

    The grading functional is found automatically: w = (1, ..., 1) when that
    is positive on every generator, otherwise the smallest integer box
    containing a positive functional is searched.  Each generator is
    confirmed to be an atom; otherwise NotMinimal reports a witness
    combination over the other generators.  Each dimension-1 residue
    table, those of that check included, charges its modulus to a fresh
    meter of budget nodes (None: DEFAULT_BUDGET).
    """
    try:
        generators = list(generators)
    except TypeError:
        raise SgflError(f"generators must be a list of elements, got {generators!r}")
    if not generators:
        raise SgflError("generator list must be nonempty")
    if dim is None:
        first = generators[0]
        # A non-int scalar counts as dimension 1, where _as_vector refuses it.
        dim = len(tuple(first)) if isinstance(first, Iterable) else 1
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DimensionMismatchError(f"dimension must be an integer >= 1, got {dim!r}")
    vecs = [_as_vector(g, dim) for g in generators]
    zero = (0,) * dim
    if any(v == zero for v in vecs):
        raise NotPointedError("generators must be nonzero")

    if dim == 1:
        if any(v[0] <= 0 for v in vecs):
            raise NotPointedError("dimension-1 generators must be positive integers")
        vecs.sort()
    for i, v in enumerate(vecs):
        if v in vecs[:i]:
            raise NotMinimalError(_as_element(v, dim), "a duplicate generator")

    BudgetMeter(budget)  # refuses a budget that is not a positive int
    grading = _find_grading(vecs, dim)
    for v, others in _non_atoms(vecs, dim, grading, budget):
        witness = others.combination_of(v)
        parts = [f"{c}*{a}" for c, a in zip(witness, others.atoms) if c]
        raise NotMinimalError(_as_element(v, dim), " + ".join(parts))

    generator_gcd = None
    if dim == 1:
        generator_gcd = 0
        for v in vecs:
            generator_gcd = gcd(generator_gcd, v[0])
    return SemigroupPresentation(tuple(vecs), dim, grading, generator_gcd, budget)

