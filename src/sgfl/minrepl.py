"""Minimal replaceable factorizations and the exception-candidate sets.

For an atom m of S, a replaceable factorization is a multiplicity vector c
over the atoms other than m whose value stays in S after subtracting m;
the coordinatewise-minimal ones form a finite antichain that controls
whether the shift-by-m length formulas can fail anywhere in S.  The
replaceable vectors form an up-set, so in dimension 1, where membership
is O(1), a member is minimal iff each unit step down from it leaves the
set (see _min_repl_numerical).

Affine instances lack a priori coordinate bounds.  There the minimal set
is computed as the projected minimal nonnegative solutions of the linear
system  sum c_a * a  -  sum b_a * a  =  m  (unknowns c over the atoms
without m, slack b over all atoms), by a Contejean-Devie frontier search
on the homogeneous embedding: starting from unit vectors, a node x is
extended by +e_i only when <defect(x), column_i> < 0, solutions are
collected as they appear, and nodes dominating a collected solution are
pruned.  Homogeneous solutions (those not using the inhomogeneity slot)
contribute nothing to the projection but are essential dominators: every
atom yields a cancelling +a/-a column pair, and without them the frontier
can oscillate forever, so the search terminates without bounds.

This dominance pruning is indexed.  A frontier state is tested against a
collected solution or projection only where the two can meet: a child
x + e_i against those whose i-th coordinate equals the child's, and an
open state against the projections collected at its own level (see
_min_repl_affine for the invariant that makes these tests complete).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add, le, mul

from .budget import BudgetMeter
from .errors import DimensionMismatchError, MNotAtomError, ReportMismatchError
from .semigroups import _as_element, _sub


@dataclass(frozen=True)
class MinReplReport:
    """Minimal replaceable factorizations of (S, m) plus filtered candidates.

    minimal_vectors is a lex-sorted antichain over atom_index (the atoms of
    S with m removed, in presentation order); evaluations maps each vector
    to its value in S.  m1/m2 are the divisibility-minimal candidate sets,
    n1/n2 their numerical refinements (populated only when S is numerical
    and m is the smallest resp. largest generator); all four are None until
    candidate_sets fills them.
    """

    m: object
    atom_index: tuple
    minimal_vectors: tuple
    evaluations: dict
    m1: tuple | None = None
    m2: tuple | None = None
    n1: tuple | None = None
    n2: tuple | None = None

    def by_value(self):
        """Evaluation -> the minimal vectors taking it, in vector order."""
        groups = {}
        for vec in self.minimal_vectors:
            groups.setdefault(self.evaluations[vec], []).append(vec)
        return groups


def is_left_zero(vec):
    """Zeros form a prefix: after the first positive entry, all are positive."""
    seen_positive = False
    for c in vec:
        if c > 0:
            seen_positive = True
        elif seen_positive:
            return False
    return True


def is_right_zero(vec):
    """Zeros form a suffix: all positive entries precede all zero entries."""
    seen_zero = False
    for c in vec:
        if c == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def _atom_data(S, m):
    mi = S.generator_index(m)
    if mi is None:
        raise MNotAtomError(f"{m} is not a generator of {S!r}")
    # From a list: tuple(genexpr) resizes, which fills the free lists.
    c_atoms = tuple([g for i, g in enumerate(S.generators) if i != mi])
    return mi, c_atoms


def _require_report_for(S, m, report):
    """ReportMismatchError unless report was made by min_repl(S, m)."""
    if not isinstance(report, MinReplReport):
        raise ReportMismatchError(f"expected a MinReplReport, got {report!r}")
    mi, c_atoms = _atom_data(S, m)
    # From a list: tuple(genexpr) resizes, which fills the free lists.
    expected_index = tuple([_as_element(a, S.dim) for a in c_atoms])
    if report.m != S.element(m) or report.atom_index != expected_index:
        raise ReportMismatchError(
            "report was produced for a different semigroup or atom"
        )


def evaluate(S, c_atoms, vec):
    """Value of a multiplicity vector over the given atom list."""
    total = [0] * S.dim
    for count, g in zip(vec, c_atoms):
        for j, coord in enumerate(g):
            total[j] += count * coord
    return tuple(total)


def repl_contains(S, m, c):
    """True iff the value of c (over the atoms without m) minus m is in S."""
    mi, c_atoms = _atom_data(S, m)
    vec = tuple(c)
    if len(vec) != len(c_atoms):
        raise DimensionMismatchError(
            f"vector has {len(vec)} coordinates, expected {len(c_atoms)}"
        )
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in vec):
        raise DimensionMismatchError(f"vector {vec} has non-integer counts")
    m_vec = S.vector(m)
    return S.contains(_sub(evaluate(S, c_atoms, vec), m_vec))


def _dominates_any(vectors, vec):
    """True iff some vector of the list is coordinatewise <= vec."""
    return any(all(map(le, d, vec)) for d in vectors)


def _minimal_elements(vectors):
    """Coordinatewise-minimal elements of a finite set, lex-sorted."""
    ordered = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in ordered:
        if not _dominates_any(kept, v):
            kept.append(v)
    return tuple(sorted(kept))


def _min_repl_numerical(S, m_vec, c_atoms, meter):
    """Frontier search over the multiplicity vectors themselves.

    In dimension 1 every slack move of the general search is admissible
    whenever the defect is positive, so the reachable projections are
    exactly the staircase under the minimal set and the slack walk only
    re-derives what the membership oracle already decides in O(1).  The
    frontier grows by unit increments from 0 and only non-members expand.
    Repl is an up-set, so a member is minimal iff every unit step down
    from it leaves Repl, which is one membership query per coordinate.
    The frontier stays finite: a non-member has c_i < A_i on every axis,
    where A_i * e_i is the least replaceable multiple of atom i.
    """
    m_val = m_vec[0]
    atom_vals = [a[0] for a in c_atoms]
    nc = len(atom_vals)
    solutions = []
    frontier = {(0,) * nc: 0}  # vector -> its value
    while frontier:
        meter.spend(len(frontier))
        next_frontier = {}
        for vec, value in frontier.items():
            if S.contains(value - m_val):
                if not any(
                    vec[i] and S.contains(value - atom_vals[i] - m_val)
                    for i in range(nc)
                ):
                    solutions.append(vec)
                continue
            for i in range(nc):
                child = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
                if child not in next_frontier:
                    next_frontier[child] = value + atom_vals[i]
        frontier = next_frontier
    return tuple(sorted(solutions))


def _min_repl_affine(S, m_vec, c_atoms, meter):
    """Frontier search on the homogeneous system, slack columns included.

    Affine instances lack a priori coordinate bounds, so the full column
    set is used: +a for each atom a without m, -a for every atom (slack),
    and -m (the inhomogeneity, capped at one use).  Solutions that never
    use the -m column are syzygies; they contribute no projection but
    dominate away the oscillations the cancelling +a/-a pairs would
    otherwise sustain.

    A state extends along the columns i with <defect, column_i> < 0, its
    descent set.  Every column is plus or minus an atom, so the set is
    read off one dot product per atom: a c-column descends when the dot
    with its atom is negative, a b-column when the dot with its atom is
    positive, and the t-column when the dot with m is positive.  The set
    is kept per defect as (index, column) pairs in column order.

    Pruning is indexed by one invariant: every state on the frontier of
    level L has coordinate sum L and was, when it was created, dominated
    by no solution and its c-part by no projection of a lower level.  A
    solution found at level L has the same sum as an open state of that
    level, so it cannot dominate the state without equalling it; only the
    projections new at level L (whose c-parts may be shorter) need a
    re-check.  A surviving state is then dominated by nothing, so a
    solution d can dominate its child state + e_i only if d[i] equals the
    child's i-th coordinate, and likewise a projection when i < nc; for
    i >= nc the child keeps the parent's undominated c-part.  Solutions
    and projections are therefore bucketed by (coordinate, value), and a
    child is tested only against its (i, child[i]) bucket.  The pruning
    decisions, hence the frontiers and node counts, are exactly those of
    the linear scan over every known solution.
    """
    dim = S.dim
    gens = S.generators
    mi = gens.index(m_vec)
    nc = len(c_atoms)
    t_index = nc + len(gens)
    nvars = t_index + 1
    cols = (
        list(c_atoms)
        + [tuple(-x for x in g) for g in gens]
        + [tuple(-x for x in m_vec)]
    )
    c_pairs = list(enumerate(cols[:nc]))
    b_pairs = list(enumerate(cols[nc:t_index], nc))
    t_pair = (t_index, cols[t_index])
    zero_defect = (0,) * dim

    projections = []  # known members of Repl; minimal ones survive at the end
    # (coordinate, positive value) -> the full solutions (syzygies
    # included) resp. the projections carrying that value there.
    solutions_at = {}
    projections_at = {}
    descents = {}  # defect -> its descent set as (index, column) pairs

    def index(buckets, vec):
        for i, v in enumerate(vec):
            if v:
                buckets.setdefault((i, v), []).append(vec)

    start = (0,) * nvars
    frontier = {
        start[:i] + (1,) + start[i + 1 :]: cols[i] for i in range(nvars)
    }
    while frontier:
        meter.spend(len(frontier))
        # Collect this level's solutions before pruning against them.
        level_projections = []
        open_states = {}
        for state, defect in frontier.items():
            if defect == zero_defect:
                index(solutions_at, state)
                if state[t_index] == 1:
                    cp = state[:nc]
                    projections.append(cp)
                    level_projections.append(cp)
                    index(projections_at, cp)
            else:
                open_states[state] = defect
        next_frontier = {}
        for state, defect in open_states.items():
            if level_projections and _dominates_any(
                level_projections, state[:nc]
            ):
                continue
            down = descents.get(defect)
            if down is None:
                dots = [sum(map(mul, defect, g)) for g in gens]
                c_dots = dots[:mi] + dots[mi + 1 :]  # the atoms without m
                rest = [p for p, d in zip(c_pairs, c_dots) if d < 0]
                rest += [p for p, d in zip(b_pairs, dots) if d > 0]
                # Indexed by the state's t-coordinate: t is used at most once.
                down = (rest + [t_pair] if dots[mi] > 0 else rest, rest)
                descents[defect] = down
            for i, col in down[state[t_index]]:
                value = state[i] + 1
                child = list(state)
                child[i] = value
                child = tuple(child)
                if child in next_frontier:
                    continue
                # A child whose c-part dominates a known member can only
                # produce dominated projections.
                if i < nc:
                    bucket = projections_at.get((i, value))
                    if bucket and _dominates_any(bucket, child[:nc]):
                        continue
                bucket = solutions_at.get((i, value))
                if bucket and _dominates_any(bucket, child):
                    continue
                next_frontier[child] = tuple(map(add, defect, col))
        frontier = next_frontier
    # Pairwise, not the up-set test: that test through affine membership
    # made 360 calls 20-30% slower, and all but one of 2,939 projections
    # over 3,008 seeded affine_analyze calls were minimal already.
    return _minimal_elements(projections)


def min_repl(S, m, budget=None):
    """The complete antichain of minimal replaceable vectors for (S, m)."""
    mi, c_atoms = _atom_data(S, m)
    m_vec = S.vector(m)
    dim = S.dim
    meter = BudgetMeter(budget)
    if dim == 1:
        minimal = _min_repl_numerical(S, m_vec, c_atoms, meter)
    else:
        minimal = _min_repl_affine(S, m_vec, c_atoms, meter)
    evaluations = {
        vec: _as_element(evaluate(S, c_atoms, vec), dim) for vec in minimal
    }
    return MinReplReport(
        m=S.element(m),
        # From a list: tuple(genexpr) resizes, which fills the free lists.
        atom_index=tuple([_as_element(a, dim) for a in c_atoms]),
        minimal_vectors=minimal,
        evaluations=evaluations,
    )


def _element_sort_key(e):
    return (e,) if isinstance(e, int) else tuple(e)


def candidate_sets(S, m, report):
    """Populate the divisibility-minimal candidate sets on a report.

    m2 is the divisibility-minimal subset of the evaluation set (evaluations
    deduplicated by equality; the setting is reduced).  m1 keeps those
    members that admit a witness vector of length greater than 2.  For
    numerical S: with m the smallest generator, n1 keeps m1-elements with a
    witness that is not left-zero; with m the largest, n2 keeps m2-elements
    with a witness that is not right-zero.

    These are reported sets only.  The verdicts deliberately do not restrict
    to divisibility-minimal evaluations: a failure of a length formula need
    not descend to the evaluations dividing it, so the sound check sets
    (see the verdict module) keep every evaluation with a qualifying
    witness.
    """
    _require_report_for(S, m, report)
    m = S.element(m)
    by_value = report.by_value()
    values = sorted(by_value, key=_element_sort_key)
    minimal_values = [
        v
        for v in values
        if not any(w != v and S.divides(w, v) for w in values)
    ]
    m2 = tuple(minimal_values)
    m1 = tuple(
        v for v in minimal_values if any(sum(c) > 2 for c in by_value[v])
    )
    n1 = n2 = None
    if S.is_numerical:
        if m == S.atoms[0]:
            n1 = tuple(
                v
                for v in m1
                if any(not is_left_zero(c) for c in by_value[v])
            )
        if m == S.atoms[-1]:
            n2 = tuple(
                v
                for v in m2
                if any(not is_right_zero(c) for c in by_value[v])
            )
    return replace(report, m1=m1, m2=m2, n1=n1, n2=n2)
