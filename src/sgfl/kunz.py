"""Kunz polytope machinery for numerical quotients Z/mZ.

An integer point x = (x_0, ..., x_{m-1}) satisfying all inequalities
x_a + x_b + d_{a,b} >= x_{a+b} encodes a numerical semigroup containing m
whose least element in residue class a is x_a*m + a.  The tight
inequalities at x carry a partial order on residues (the divisibility
order of the Apery set), and adjoining an absorbing element INFINITY turns
the residues into a finite commutative semigroup whose factorizations of
INFINITY mirror the minimal replaceable vectors of the semigroup.  The
shift-by-m length formulas are then decided by linear inequalities in the
coordinates alone.

With canonical representatives r_a = a, every structure constant is a
floor division of the residue sum rs(c) = sum c_a * a by m, so every entry
point takes the modulus as the int m, checked by numerical_context.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import mul

from .budget import FACE_CACHE_WEIGHT, BudgetMeter
from .errors import (
    BadModulusError,
    DifferentFaceError,
    DimensionMismatchError,
    InequalityViolatedError,
    MNotAtomAtPointError,
    NoFactorizationError,
    NotIntegerPointError,
    SgflError,
)
from .semigroups import new_semigroup
from .verdicts import Formula, _as_formula

INFINITY = None  # the absorbing element of the extended quotient semigroup


def numerical_context(m):
    """The modulus m of Z/mZ, returned once it is an int >= 2.  It is public
    only because the benchmark's kunz_item calls it (ROADMAP item 10)."""
    if not isinstance(m, int) or m < 2:
        raise BadModulusError(f"modulus must be an integer >= 2, got {m!r}")
    return m


def _require_counts(counts, n):
    """DimensionMismatchError unless counts holds n ints, bools refused."""
    if len(counts) != n or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in counts
    ):
        raise DimensionMismatchError(
            f"expected a vector of {n} integer counts, got {counts!r}"
        )


def _residue_sum(counts, support):
    """rs(c) = sum c_a * r_a over the given residues."""
    return sum(c * a for c, a in zip(counts, support))


def _images(m, x, residues):
    """The least elements w_a = m * x_a + a of the given residue classes."""
    return [m * x[a] + a for a in residues]


def _carry(m, counts, support):
    """(d_(c), beta): the carry rs(c) // m and the residue rs(c) mod m."""
    return divmod(_residue_sum(counts, support), m)


def _threshold(m, counts, counts2, support):
    """b_{(c),(c')} = (r_{beta'-beta} + rs(c) - rs(c')) / m
    = -((rs(c') - rs(c)) // m)."""
    return -(
        (_residue_sum(counts2, support) - _residue_sum(counts, support)) // m
    )


@dataclass(frozen=True, slots=True)
class InfFactorization:
    """A multiplicity vector over the quotient atoms, with its residue sum
    and carry."""

    c: tuple
    beta: int
    d_value: int


@dataclass(frozen=True)
class KunzPoint:
    """A validated integer point with its derived order data.

    The tight inequalities at x fix its face, and the face alone fixes
    every derived field but evaluations: the tight pairs (equality_set),
    the order relations, the extended operation table, the atoms, their
    power bounds, the minimal factorizations of INFINITY and the
    factorization-length extremes of every residue.  Every point of one
    face shares these objects, built once per face and held by the face
    cache; x and evaluations are per point.  length_extremes[beta] is
    the (longest, shortest) pair of beta over the atoms, or None when beta
    has no factorization.  evaluations maps each minimal INFINITY vector c
    to ev(c) = sum c_a * w_a over the atom images w_a = m * x_a + a; it is
    determined by the fields above, so it is kept out of eq, hash and repr.
    _face holds the face with its main_verdict templates; a point that
    kunz_point did not build has none, and the verdict functions refuse it.
    """

    m: int
    x: tuple
    equality_set: frozenset
    relations: frozenset
    oplus_table: tuple
    atoms: tuple
    power_bounds: tuple
    min_inf: tuple
    length_extremes: tuple
    evaluations: dict = field(compare=False, repr=False)
    _face: object = field(default=None, compare=False, repr=False)

    def oplus(self, a, b):
        if a is INFINITY or b is INFINITY:
            return INFINITY
        return self.oplus_table[a][b]

    def leq(self, a, b):
        return (a, b) in self.relations


def kunz_point(m, coords, budget=None):
    """Validate m and the coordinates and build the point with its data.

    Raises BadModulusError for a bad m, NotIntegerPoint for malformed
    coordinates and InequalityViolated with the offending residue pair
    otherwise.  The coordinate indexed by 0 is kept and must be 0: with
    canonical representatives, 0 is always the least semigroup element in
    residue class 0, so no numerical semigroup corresponds to a point with
    x_0 > 0.  The budget is charged one node per residue pair of the order
    tables and then the nodes of the face's atom walk, whether the face
    is built here or read from the face cache.
    """
    m = numerical_context(m)
    try:
        x = tuple(coords)
    except TypeError:
        x = None
    if x is None or len(x) != m or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in x
    ):
        raise NotIntegerPointError(
            f"expected {m} integer coordinates, got {coords!r}"
        )
    if x[0] != 0:
        raise InequalityViolatedError(
            (0, 0), "x_0 must be 0: residue 0 is represented by the element 0"
        )
    meter = BudgetMeter(budget)
    meter.spend(m * m)
    key = (m, _tight_flags(m, x))
    face = _FACES.get(key)
    if face is None:
        face = _build_face(key, meter)
        _FACES.put(face)
    else:
        meter.spend(face.nodes)
    images = _images(m, x, face.atoms)
    evaluations = {f.c: sum(map(mul, f.c, images)) for f in face.min_inf}
    return KunzPoint(
        m=m,
        x=x,
        equality_set=face.equality_set,
        relations=face.relations,
        oplus_table=face.oplus_table,
        atoms=face.atoms,
        power_bounds=face.power_bounds,
        min_inf=face.min_inf,
        length_extremes=face.length_extremes,
        evaluations=evaluations,
        _face=face,
    )


def _tight_flags(m, x):
    """The face of x: for each residue pair a <= b in row order, whether
    its inequality x_a + x_b + d_{a,b} >= x_{a+b} is tight, as bytes.

    Raises InequalityViolatedError at the first violated pair.
    """
    flags = []
    for a in range(m):
        xa = x[a]
        for b in range(a, m):
            gap = xa + x[b] + (a + b) // m - x[(a + b) % m]
            if gap < 0:
                raise InequalityViolatedError((a, b))
            flags.append(gap == 0)
    return bytes(flags)


# -- the face cache --------------------------------------------------------

class _Face:
    """The order data of one face, shared by every point on it.

    _build_face builds it whole: templates maps each formula to its
    main_verdict inequalities without their left sides, and weight is
    what the face cache charges for the face (see _FaceCache).
    """

    __slots__ = (
        "key", "equality_set", "relations", "oplus_table", "atoms",
        "power_bounds", "min_inf", "length_extremes", "nodes", "templates",
        "weight",
    )


def _build_face(key, meter):
    """The face with the given key, built with the budget."""
    m, flags = key
    # (a, b) is tight iff a <= a + b in the poset, and then a (+) b is the
    # residue a + b; every other entry of the operation table is INFINITY.
    # A nonzero residue is composite iff it is a (+) b for nonzero a, b.
    tight = set()
    relations = set()
    table = [[INFINITY] * m for _ in range(m)]
    composite = set()
    pairs = ((a, b) for a in range(m) for b in range(a, m))
    for (a, b), flag in zip(pairs, flags):
        if flag:
            s = (a + b) % m
            tight.update(((a, b), (b, a)))
            relations.update(((a, s), (b, s)))
            table[a][b] = table[b][a] = s
            if a and s:
                composite.add(s)
    face = _Face()
    face.key = key
    face.equality_set = frozenset(tight)
    face.relations = frozenset(relations)
    # From lists: tuple(genexpr) resizes, which fills the free lists.
    face.oplus_table = oplus_table = tuple([tuple(row) for row in table])
    face.atoms = atoms = tuple([a for a in range(1, m) if a not in composite])

    # t_a = least k with the k-fold product of a equal to INFINITY; the
    # power chain is strictly increasing in a finite poset, so k <= m + 1.
    bounds = []
    for a in atoms:
        power = a
        k = 1
        while power is not INFINITY and k <= m + 1:
            power = oplus_table[power][a]
            k += 1
        bounds.append(k)
    face.power_bounds = tuple(bounds)

    before = meter.remaining
    face.min_inf, face.length_extremes = _atom_walk(
        m, oplus_table, atoms, face.power_bounds, meter
    )
    face.nodes = before - meter.remaining
    face.templates = {f: _templates(face, f) for f in Formula}
    face.weight = (m + 2) ** 2 + len(face.min_inf) * (len(atoms) + 1) + sum(
        map(len, face.templates.values())
    ) * (m + 1)
    return face


class _FaceCache:
    """Faces by key, least recently used first, within a total weight.

    A face weighs (m + 2)**2 for its order tables, len(atoms) + 1 for
    each minimal INFINITY vector and m + 1 for each main_verdict
    template: the entries it holds, so that the weight tracks its memory
    (budget.py gives the bytes per unit).  A face heavier than the whole
    bound is returned to its caller but never stored.  The hit and miss
    counts are kept for the observability counters.
    """

    __slots__ = ("bound", "faces", "weight", "hits", "misses")

    def __init__(self, bound):
        self.bound = bound
        self.faces = OrderedDict()
        self.weight = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        face = self.faces.get(key)
        if face is None:
            self.misses += 1
        else:
            self.hits += 1
            self.faces.move_to_end(key)
        return face

    def put(self, face):
        if face.weight <= self.bound:
            self.faces[face.key] = face
            self.weight += face.weight
            self._trim()

    def _trim(self):
        while self.weight > self.bound:
            _, face = self.faces.popitem(last=False)
            self.weight -= face.weight


_FACES = _FaceCache(FACE_CACHE_WEIGHT)


def _atom_walk(m, oplus_table, atoms, power_bounds, meter):
    """Minimal INFINITY factorizations and per-residue length extremes.

    One depth-first walk over the atom coordinates, in lexicographic order,
    with the prefix products kept on an explicit stack: prods[i] is the
    product of the counts of atoms 0..i-1.  Once the product reaches
    INFINITY it stays there, so the vector is a hit and its subtree (all
    dominated) is cut.  A complete vector whose product is a residue is a
    factorization of that residue, and its length updates the residue's
    (longest, shortest) pair.  Coordinates are bounded by the power bounds
    t_a (t_a copies of a alone reach INFINITY).

    The INFINITY factorizations form an up-set, so a hit c is minimal iff
    c - e_j is not one for every j with c_j > 0.  The last coordinate
    raised never needs the test: the walk reached c from c - e_j.  Every
    walk node costs one budget node, every product in the minimality test
    one node per oplus step and every recorded factorization one node per
    coordinate.  Hits come in lexicographic order, so min_inf does too.
    """
    n = len(atoms)
    counts = [0] * n
    prods = [0] * (n + 1)
    min_inf = []
    longest = [-1] * m
    shortest = [0] * m

    def product_without(j, last):
        """The product of counts - e_j over coordinates 0..last.

        Charges the sum of the counts it multiplies, which bounds its oplus
        steps, to the budget.
        """
        meter.spend(sum(counts[j:last + 1]))
        prod = prods[j]
        for i in range(j, last + 1):
            a = atoms[i]
            for _ in range(counts[i] - (i == j)):
                prod = oplus_table[prod][a]
                if prod is INFINITY:
                    return prod
        return prod

    depth = 0  # counts[depth:] are zero; prods[depth] is the current product
    length = 0
    while True:
        meter.spend()
        prod = prods[depth]
        if prod is not INFINITY and depth < n:
            prods[depth + 1] = prod
            depth += 1
            continue
        if prod is INFINITY:
            last = depth - 1
            if all(
                product_without(j, last) is not INFINITY
                for j in range(last) if counts[j]
            ):
                meter.spend(n)
                c = tuple(counts)
                d_value, beta = _carry(m, c, atoms)
                min_inf.append(InfFactorization(c=c, beta=beta, d_value=d_value))
        elif longest[prod] < 0:
            longest[prod] = shortest[prod] = length
        elif length > longest[prod]:
            longest[prod] = length
        elif length < shortest[prod]:
            shortest[prod] = length
        # Advance to the next sibling of the deepest coordinate that can
        # still grow: past a hit, or past t_a copies, the coordinate resets.
        while depth:
            i = depth - 1
            if prod is not INFINITY and counts[i] < power_bounds[i]:
                counts[i] += 1
                length += 1
                prods[depth] = oplus_table[prod][atoms[i]]
                break
            length -= counts[i]
            counts[i] = 0
            depth = i
            prod = prods[depth]
        else:
            break
    # From a list: tuple(genexpr) resizes, which fills the free lists.
    extremes = tuple([
        (hi, lo) if hi >= 0 else None for hi, lo in zip(longest, shortest)
    ])
    return tuple(min_inf), extremes


# -- the point <-> semigroup correspondence -------------------------------

def point_of_semigroup(m, S, budget=None):
    """The Kunz coordinates of a numerical semigroup containing m.

    The m * m nodes that kunz_point charges first are charged here before
    the Apery set of m is built, so a budget too small for the point fails
    before that table's m entries are paid for.
    """
    m = numerical_context(m)
    BudgetMeter(budget).spend(m * m)
    apery = S.apery_set(m)  # raises for non-numerical S or m outside S
    return kunz_point(
        m, [(least - a) // m for a, least in enumerate(apery)], budget=budget
    )


def semigroup_of_point(m, point, budget=None):
    """The numerical semigroup generated by m and the coordinate elements.

    Its atoms are the images w_a = m * x_a + a of the point's atoms a, and
    m when m is an atom (see _m_atom_violation).  Proof: an atom s != m
    has s - m outside S, so it is the least element w_a of its residue,
    and w_a = w_b + w_c for nonzero b, c exactly when a = b (+) c is
    composite at the point.  new_semigroup still confirms every atom.
    Raw coordinates are built with the budget, and the presentation's
    residue tables are charged to it; a KunzPoint must live over m.
    """
    if not isinstance(point, KunzPoint):
        point = kunz_point(m, point, budget=budget)
    elif point.m != numerical_context(m):
        raise BadModulusError(f"the point lives over m = {point.m}, not over m = {m}")
    gens = _images(point.m, point.x, point.atoms)
    if _m_atom_violation(point) is None:
        gens.append(point.m)
    return new_semigroup(gens, budget=budget)


def pinfty_length_extremes(point, beta):
    """(longest, shortest) factorization lengths of beta over the atoms.

    Read from the extremes recorded by the atom walk at construction.
    """
    in_range = (
        isinstance(beta, int) and not isinstance(beta, bool)
        and 0 <= beta < point.m
    )
    extremes = point.length_extremes[beta] if in_range else None
    if extremes is None:
        raise NoFactorizationError(
            f"residue {beta} has no factorization over the atoms {point.atoms}"
        )
    return extremes


def structure_constants(m, counts, counts2, support):
    """(d_{(c)}, b_{(c),(c')}) for vectors over a residue support of Z/mZ.

    Each vector needs one int count per residue of the support, and the
    support's residues are ints.
    """
    m = numerical_context(m)
    _require_counts(support, len(support))
    _require_counts(counts, len(support))
    _require_counts(counts2, len(support))
    return _carry(m, counts, support)[0], _threshold(m, counts, counts2, support)


def _evaluation(point, counts):
    """ev(c) = m * sum c_a x_a + rs(c): the element of the point's semigroup
    that c multiplies out to over the atom images w_a = x_a * m + a."""
    _require_counts(counts, len(point.atoms))
    return sum(map(mul, counts, _images(point.m, point.x, point.atoms)))


def _point_contains(x, m, n):
    """n lies in the semigroup of the point: with (q, r) = divmod(n, m),
    q >= x_r, since x_r * m + r is the least element of residue r."""
    q, r = divmod(n, m)
    return q >= x[r]


def sq_leq(point, c, c2):
    """The evaluation-divisibility preorder on minimal INFINITY vectors.

    c <= c' holds iff ev(c') - ev(c) = ev(c' - c) lies in the semigroup of
    the point, which is the inequality
    -x_{b'-b} + sum (c'_a - c_a) x_a >= b_{(c),(c')}.  The evaluations of
    minimal INFINITY vectors are read from the point; any other vector,
    lists included, is evaluated here and needs one count per atom.
    """
    evaluations = point.evaluations
    try:
        diff = evaluations[c2] - evaluations[c]
    except (KeyError, TypeError):  # not in min_inf, or a list
        diff = _evaluation(point, c2) - _evaluation(point, c)
    q, r = divmod(diff, point.m)  # _point_contains, inlined: hot path
    return q >= point.x[r]


def pseudomin(point):
    """Pseudominimal minimal INFINITY factorizations under the preorder.

    An element is pseudominimal when everything below it is also above it.
    The preorder compares evaluations only, so the test runs over the
    distinct evaluations, of which there are often far fewer than vectors.
    """
    ev = point.evaluations
    values = set(ev.values())

    def leq(e, f):
        return _point_contains(point.x, point.m, f - e)

    kept = {
        e for e in values
        if all(leq(e, f) for f in values if f != e and leq(f, e))
    }
    return tuple(f for f in point.min_inf if ev[f.c] in kept)


def _require_point(point):
    """SgflError unless point is a KunzPoint that kunz_point built, which
    carries its face."""
    if not isinstance(point, KunzPoint) or point._face is None:
        raise SgflError(f"expected a KunzPoint from kunz_point, got {point!r}")


def require_same_face(point, other):
    """DifferentFaceError unless both points lie on one face interior."""
    _require_point(point)
    _require_point(other)
    if point.m != other.m:
        raise DifferentFaceError("points live over different moduli")
    if point.equality_set != other.equality_set:
        raise DifferentFaceError(
            "points do not lie on the interior of the same face"
        )


def cominimal(point, other):
    """True iff two points of one face interior share pseudominimal sets."""
    require_same_face(point, other)
    mine = {f.c for f in pseudomin(point)}
    theirs = {f.c for f in pseudomin(other)}
    return mine == theirs


# -- hypotheses of the main criterion --------------------------------------

def is_reduced_point(point):
    """True iff the semigroup of the point has no nonzero units.

    Every nonzero residue is invertible in Z/mZ, so the criterion is
    x_a + x_{-a} + d_{a,-a} > x_0 for every nonzero a, where the carry
    d_{a,-a} = (a + (m - a)) // m is 1.  It holds at every valid point,
    since every coordinate is nonnegative: chaining the inequalities
    along a, 2a, ... gives x_{ka} <= k * x_a + ka // m, and at k = ord(a)
    the left side is x_0 = 0, so x_a >= -a/m > -1; hence x_a >= 0.
    It is public only because the benchmark's kunz_item calls it (ROADMAP
    item 10).
    """
    m = point.m
    x = point.x
    return all(x[a] + x[m - a] + 1 > x[0] for a in range(1, m))


def _m_atom_violation(point):
    """The lexicographically first factorization of m, or None.

    It counts the least elements w_a = x_a * m + a of the residues
    1..m-1 (most significant first) with sum c_a * w_a = m.  Coordinates
    are nonnegative (see is_reduced_point).  A factorization splits m as
    s_1 + s_2 with s_1 in a nonzero residue a, so w_a + w_{m-a} <= m; the
    sum is a positive multiple of m, so it is m and x_a = x_{m-a} = 0.
    One with three or more summands can merge two into one residue with
    a zero coordinate (zero coordinates are closed under sums below m),
    which is lexicographically smaller.  So the first factorization is
    the pair at the largest a <= m/2 with x_a = x_{m-a} = 0: one count at
    a and one at m - a, or two at a when a = m/2.
    """
    m = point.m
    x = point.x
    for a in range(m // 2, 0, -1):
        if x[a] == x[m - a] == 0:
            counts = [0] * (m - 1)
            counts[a - 1] += 1
            counts[m - a - 1] += 1
            return tuple(counts)
    return None


def is_m_atom_point(point):
    """True iff m is an atom of the semigroup of the point: no residue
    1 <= a <= m/2 has x_a = x_{m-a} = 0 (see _m_atom_violation)."""
    return _m_atom_violation(point) is None


# -- the polytope-level verdict --------------------------------------------

@dataclass(frozen=True)
class KunzInequality:
    """One linear test  sum coeffs[a] * x_a  (>=|<=)  rhs, evaluated at x."""

    c: tuple
    beta: int
    coeffs: tuple
    relation: str
    rhs: int
    lhs_value: int

    @property
    def ok(self):
        if self.relation == ">=":
            return self.lhs_value >= self.rhs
        return self.lhs_value <= self.rhs


@dataclass(frozen=True)
class KunzVerdict:
    formula: Formula
    m: int
    holds: bool
    checks: tuple
    counterexamples: tuple
    method: str = "kunz"


def main_verdict(point, formula):
    """Decide a shift-by-m length formula from the coordinates alone.

    Longest: for every minimal INFINITY-factorization c of length > 2,
    require -x_beta + sum c_a x_a >= |c| - d_(c) - L(beta) over the
    extended quotient semigroup; the left side computes the length of the
    best m-using factorization at c's evaluation, so a violated inequality
    exhibits a genuine exception, and the grading-minimal exception always
    violates one.  Shortest: for every minimal c, require
    -x_beta + sum c_a x_a <= |c| - d_(c) - l(beta).  Restricting to
    pseudominimal vectors is not sound (failures need not descend along
    evaluation divisibility), so all minimal vectors are checked.  Points
    on one face interior therefore share the same inequality templates
    (c, beta, coeffs, rhs): they are built with the face, for both
    formulas, so a call computes only the left sides.  Every valid point
    is reduced (see is_reduced_point); when m is not an atom,
    MNotAtomAtPointError carries the first factorization of m.
    """
    formula = _as_formula(formula)
    _require_point(point)
    witness = _m_atom_violation(point)
    if witness is not None:
        raise MNotAtomAtPointError(
            f"m factors over the coordinate elements with multiplicities "
            f"{witness} on residues 1..{point.m - 1}"
        )
    longest = formula is Formula.LONGEST
    relation = ">=" if longest else "<="
    x = point.x
    # coeffs . x, read as sum c_a x_a over the atoms minus x_beta.
    atom_x = [x[a] for a in point.atoms]
    checks = []
    counterexamples = []
    for c, beta, coeffs, rhs in point._face.templates[formula]:
        lhs = sum(map(mul, c, atom_x)) - x[beta]
        check = KunzInequality(c, beta, coeffs, relation, rhs, lhs)
        checks.append(check)
        if (lhs < rhs) if longest else (lhs > rhs):
            counterexamples.append(check)
    return KunzVerdict(
        formula=formula,
        m=point.m,
        holds=not counterexamples,
        checks=tuple(checks),
        counterexamples=tuple(counterexamples),
    )


def _templates(face, formula):
    """The inequality templates (c, beta, coeffs, rhs) of main_verdict on
    the face.  Every residue factors over the atoms, so every beta has
    length extremes."""
    longest = formula is Formula.LONGEST
    m = face.key[0]
    templates = []
    for f in face.min_inf:
        if longest and sum(f.c) <= 2:
            continue
        extremes = face.length_extremes[f.beta]
        rhs = sum(f.c) - f.d_value - extremes[0 if longest else 1]
        coeffs = [0] * m
        for a, count in zip(face.atoms, f.c):
            coeffs[a] += count
        coeffs[f.beta] -= 1
        templates.append((f.c, f.beta, tuple(coeffs), rhs))
    return tuple(templates)
