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
from math import gcd

from .errors import (
    DimensionMismatchError,
    MNotInSError,
    NotMinimalError,
    NotNumericalError,
    NotPointedError,
)

GRADING_SEARCH_BOX = 50


def _as_vector(value, dim):
    """Coerce an element (int for dim 1, sequence otherwise) to a tuple."""
    if isinstance(value, int):
        if dim != 1:
            raise DimensionMismatchError(
                f"scalar element given for a dimension-{dim} semigroup"
            )
        return (value,)
    vec = tuple(value)
    if len(vec) != dim:
        raise DimensionMismatchError(
            f"element {vec} has length {len(vec)}, expected {dim}"
        )
    if not all(isinstance(c, int) for c in vec):
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


class _MemberOracle:
    """Decides membership of lattice vectors in the span of a generator list.

    Dimension 1 keeps one table, the least element per residue class modulo
    the smallest generator n1: n is in the span iff n is at least the entry
    for n mod n1 (Rosales & Garcia-Sanchez, Numerical Semigroups, ch. 1).
    The table is built on the first query n >= n1; below n1 only 0 is in the
    span, so a query smaller than n1 never pays for n1 entries.
    Higher dimensions use an iterative depth-first search on residual
    vectors, ordered by decreasing grading value, memoized on the residual.
    A residual with a negative grading value is rejected immediately, which
    bounds the search because w(g) >= 1 for every generator.
    """

    def __init__(self, generators, grading, dim):
        self.dim = dim
        self.grading = grading
        self.generators = tuple(generators)
        self._zero = (0,) * dim
        if dim == 1:
            self.modulus = min(g[0] for g in self.generators)
            self._least = None
        else:
            self._memo = {}
            self._gens_dec = sorted(
                self.generators, key=lambda g: (-_dot(grading, g), g)
            )

    def contains(self, vec):
        if self.dim == 1:
            n = vec[0]
            if n < self.modulus:
                return n == 0
            least = self.least_per_residue()[n % self.modulus]
            return least is not None and n >= least
        return self._contains_affine(vec)

    def least_per_residue(self):
        """The dimension-1 table modulo n1, built on first use."""
        if self._least is None:
            gens = [g[0] for g in self.generators]
            self._least = _least_per_residue(gens, self.modulus)
        return self._least

    def _contains_affine(self, vec):
        if vec == self._zero:
            return True
        memo = self._memo
        known = memo.get(vec)
        if known is not None:
            return known
        grading = self.grading
        gens = self._gens_dec
        zero = self._zero
        # Frame: [vector, next generator index, child awaiting a result].
        stack = [[vec, 0, None]]
        while stack:
            frame = stack[-1]
            v, idx, pending = frame
            if pending is not None:
                if memo[pending]:
                    memo[v] = True
                    stack.pop()
                    continue
                frame[2] = None
            resolved = False
            while idx < len(gens):
                child = _sub(v, gens[idx])
                idx += 1
                if _dot(grading, child) < 0:
                    continue
                if child == zero:
                    resolved = True
                    break
                hit = memo.get(child)
                if hit is True:
                    resolved = True
                    break
                if hit is False:
                    continue
                frame[1] = idx
                frame[2] = child
                stack.append([child, 0, None])
                break
            else:
                memo[v] = False
                stack.pop()
                continue
            if resolved:
                memo[v] = True
                stack.pop()
        return memo[vec]


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


def _combination_witness(target, generators, oracle):
    """Express target as counts over generators, assuming membership holds."""
    counts = [0] * len(generators)
    zero = (0,) * len(target)
    current = target
    grading = oracle.grading
    while current != zero:
        for i, g in enumerate(generators):
            child = _sub(current, g)
            if _dot(grading, child) >= 0 and oracle.contains(child):
                counts[i] += 1
                current = child
                break
        else:  # pragma: no cover - impossible when membership holds
            raise AssertionError("witness reconstruction failed")
    return tuple(counts)


class SemigroupPresentation:
    """A validated minimal presentation of a pointed semigroup in Z^d.

    Instances are not changed after construction, apart from the affine
    membership memo, the dimension-1 residue table (built on first use) and
    the Apery cache, which only gain entries that are deterministic
    functions of the presentation.
    """

    def __init__(self, generators, dim, grading, generator_gcd):
        self.dim = dim
        self.generators = generators  # tuple of coordinate tuples
        self.grading = grading
        self.gcd = generator_gcd  # None unless dim == 1
        self._oracle = _MemberOracle(generators, grading, dim)
        self._apery_cache = {}

    # -- basic views ----------------------------------------------------

    @property
    def atoms(self):
        """The generators, as elements (ints when dim == 1)."""
        # From a list: tuple(genexpr) grows by resizing, and each resized
        # tuple lands on a CPython free list it was not taken from, so the
        # free lists fill (up to 2000 tuples per size) and RSS drifts up.
        return tuple([_as_element(g, self.dim) for g in self.generators])

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
        return self._oracle.contains(_as_vector(value, self.dim))

    def divides(self, a, b):
        """True iff b - a lies in the semigroup."""
        return self._oracle.contains(
            _sub(_as_vector(b, self.dim), _as_vector(a, self.dim))
        )

    def combination_of(self, value):
        """Counts over the generators summing to value, or None."""
        vec = _as_vector(value, self.dim)
        if not self._oracle.contains(vec):
            return None
        return _combination_witness(vec, self.generators, self._oracle)

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
        if m == self._oracle.modulus:
            return list(self._oracle.least_per_residue())
        cached = self._apery_cache.get(m)
        if cached is None:
            gens = [g[0] for g in self.generators]
            cached = self._apery_cache[m] = tuple(_least_per_residue(gens, m))
        return list(cached)

    def frobenius(self):
        """Largest integer outside S (-1 when S is all of N)."""
        self._require_numerical()
        return max(self._oracle.least_per_residue()) - self._oracle.modulus


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
        raise ValueError("no nonzero generators supplied")
    grading = _find_grading(seen, dim)
    kept = []
    for i, v in enumerate(seen):
        others = seen[:i] + seen[i + 1 :]
        if not others:
            kept.append(v)
            continue
        oracle = _MemberOracle(tuple(others), grading, dim)
        if not oracle.contains(v):
            kept.append(v)
    return kept


def new_semigroup(generators, dim=None):
    """Validate a generator list and return a presentation.

    The grading functional is found automatically: w = (1, ..., 1) when that
    is positive on every generator, otherwise the smallest integer box
    containing a positive functional is searched.  Each generator is
    confirmed to be an atom; otherwise NotMinimal reports a witness
    combination over the other generators.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("generator list must be nonempty")
    if dim is None:
        first = generators[0]
        dim = 1 if isinstance(first, int) else len(tuple(first))
    if dim < 1:
        raise DimensionMismatchError("dimension must be at least 1")
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

    grading = _find_grading(vecs, dim)
    for i, v in enumerate(vecs):
        others = tuple(vecs[:i] + vecs[i + 1 :])
        if not others:
            continue
        oracle = _MemberOracle(others, grading, dim)
        if oracle.contains(v):
            witness = _combination_witness(v, others, oracle)
            parts = [
                f"{c}*{_as_element(g, dim)}"
                for c, g in zip(witness, others)
                if c
            ]
            raise NotMinimalError(_as_element(v, dim), " + ".join(parts))

    generator_gcd = None
    if dim == 1:
        generator_gcd = 0
        for v in vecs:
            generator_gcd = gcd(generator_gcd, v[0])
    return SemigroupPresentation(tuple(vecs), dim, grading, generator_gcd)


# Module-level forms of the presentation methods, for symmetric call sites.

def contains(S, v):
    return S.contains(v)


def divides(S, a, b):
    return S.divides(a, b)


def apery_set(S, m):
    return S.apery_set(m)


def frobenius(S):
    return S.frobenius()
