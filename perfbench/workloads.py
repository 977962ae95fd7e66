"""Seeded inputs and cross-validated items for the three benchmark workloads.

Every generator here is the benchmark's own code: it draws from a
``random.Random`` seeded by the workload seed and decides minimality and
Kunz-point validity with its own small routines, so neither the test
suite nor a change to the library can change the inputs.

An item is one decision plus its cross-check.  It returns a record of
every verdict it produced (library objects are serialized only when the
record is digested, outside the timed region).  A disagreement between
two routes raises :class:`RouteDisagreement`, which the runner treats as
a correctness error, never as a failed item.
"""

from __future__ import annotations

import contextlib
import enum
import io
import json
import random
from math import gcd

from sgfl import cli, kunz, minrepl, semigroups, verdicts

# Items per block: each block is one seeded permutation of the
# workload's fixed mix of its cost-driving parameter.
BLOCK_ITEMS = {"numerical_corpus": 38, "kunz_scan": 30, "affine_analyze": 40}
# Blocks whose verdicts feed the digest and the deterministic counters.
# A time-bounded run always completes at least these.
PREFIX_BLOCKS = {"numerical_corpus": 4, "kunz_scan": 10, "affine_analyze": 3}

# Grading bound of the affine oracle evidence scan.
AFFINE_SCAN_BOUND = 16

WHY = {
    "numerical_corpus": (
        "CLI analyze plus exact oracle_scan on seeded numerical semigroups: "
        "the oracle DP, cli overhead, numerical min_repl and longest_length "
        "all weigh; never touches kunz"
    ),
    "kunz_scan": (
        "tier-1 scan_one_point checks on seeded Kunz points, m=6..8: loads "
        "shortest_length, divides and the kunz layer; bypasses cli and "
        "oracle_scan"
    ),
    "affine_analyze": (
        "CLI analyze on seeded 3-atom semigroups in [0,4]^2 plus a bounded "
        "oracle check: affine min_repl dominates; near-collinear atoms make "
        "a heavy tail"
    ),
}


class RouteDisagreement(Exception):
    """Two routes that must agree gave different answers."""


class ItemFailed(Exception):
    """The item raised SgflError or the CLI exited with code 2."""


# -- generators --------------------------------------------------------------

def numerical_atoms(gens):
    """Minimal generators of the numerical semigroup spanned by gens."""
    gens = set(gens)
    top = max(gens)
    member = [True] + [False] * top
    atoms = []
    for v in range(1, top + 1):
        member[v] = any(member[v - a] for a in atoms)
        if v in gens and not member[v]:
            atoms.append(v)
            member[v] = True
    return atoms


def _blocks(rng, values):
    """Endless seeded permutations of values, one block after another.

    Drawing a cost-driving parameter block by block gives every run the
    same mix of it, so runs on different seeds differ only within it.
    """
    while True:
        yield from rng.sample(values, len(values))


def numerical_inputs(rng):
    """Generator lists with 3-6 drawn generators, n1 in [3, 40], all below
    4*n1, gcd 1, reduced to at least 3 atoms; n1 runs through [3, 40] in
    seeded blocks.
    """
    for n1 in _blocks(rng, list(range(3, 41))):
        while True:
            k = rng.randint(3, 6)
            gens = [n1] + rng.sample(range(n1 + 1, 4 * n1), k - 1)
            g = 0
            for n in gens:
                g = gcd(g, n)
            atoms = numerical_atoms(gens) if g == 1 else ()
            if len(atoms) >= 3:
                yield tuple(atoms)
                break


KUNZ_CAPS = {6: 8, 7: 8, 8: 6}


def _kunz_interval(x, j, m, cap):
    """The values x_j may take given x_0..x_{j-1}: the inequalities whose
    largest index is j.  Returns (lo, hi), or None when the range is empty.
    """
    lo, hi = 0, cap
    for a in range(1, j):
        hi = min(hi, x[a] + x[j - a])  # x_a + x_{j-a} >= x_j
    for b in range(m - j, j + 1):
        s = j + b - m  # j + b wraps: x_j + x_b + 1 >= x_s
        if b == j:
            lo = max(lo, -(-(x[s] - 1) // 2))
        else:
            lo = max(lo, x[s] - x[b] - 1)
    return (lo, hi) if lo <= hi else None


def kunz_points(m, cap):
    """Every valid point with coordinates <= cap, packed m bytes apiece."""
    out = bytearray()
    x = [0] * m

    def rec(j):
        if j == m:
            out.extend(x)
            return
        span = _kunz_interval(x, j, m, cap)
        if span is not None:
            for v in range(span[0], span[1] + 1):
                x[j] = v
                rec(j + 1)
            x[j] = 0

    rec(1)
    return bytes(out)


def kunz_inputs(rng):
    """(m, coords), ten points per modulus m = 6, 7, 8 in each block, with
    coordinates <= 8 (<= 6 at m = 8).

    Each point is drawn uniformly from all valid points of its modulus, the
    set the exhaustive test scan covers for m = 6 and 7.
    """
    packed = {m: kunz_points(m, cap) for m, cap in KUNZ_CAPS.items()}
    for m in _blocks(rng, [m for m in sorted(KUNZ_CAPS) for _ in range(10)]):
        k = rng.randrange(len(packed[m]) // m)
        yield m, tuple(packed[m][k * m:(k + 1) * m])


def _representable(v, atoms):
    """True iff v is an N-combination of the nonnegative 2-D atoms."""
    reach = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        u = stack.pop()
        for a in atoms:
            w = (u[0] + a[0], u[1] + a[1])
            if w == v:
                return True
            if w[0] <= v[0] and w[1] <= v[1] and w not in reach:
                reach.add(w)
                stack.append(w)
    return False


def affine_atoms(vectors):
    """Minimal generators of the span of distinct nonzero vectors in N^2.

    A summand of v has a smaller coordinate sum, so visiting vectors by
    increasing sum and keeping those the kept ones cannot reach gives the
    atoms.
    """
    atoms = []
    for v in sorted(vectors, key=lambda v: (sum(v), v)):
        if not _representable(v, atoms):
            atoms.append(v)
    return sorted(atoms)


def area_class(atoms):
    """Cost class of three 2-D atoms by the doubled area of their triangle.

    Nearly collinear generators make the slowest items, so each block
    takes a fixed number from each class: area 0, 1-2, 3-5 and 6 or more.
    """
    (a0, a1), (b0, b1), (c0, c1) = atoms
    area = abs((b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0))
    return 0 if area == 0 else 1 if area <= 2 else 2 if area <= 5 else 3


# Items per area class in a block of 40, near the classes' shares of the
# 1562 sets of 3 atoms in [0, 4]^2: 7.7%, 35.9%, 32.6% and 23.9%.
AFFINE_CLASS_MIX = (3, 14, 13, 10)


def affine_inputs(rng):
    """3 minimal generators from the nonzero points of [0, 4]^2, each block
    of 40 holding AFFINE_CLASS_MIX items of each area class.
    """
    cells = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    mix = [c for c, count in enumerate(AFFINE_CLASS_MIX) for _ in range(count)]
    for wanted in _blocks(rng, mix):
        while True:
            atoms = affine_atoms(rng.sample(cells, 3))
            if len(atoms) == 3 and area_class(atoms) == wanted:
                yield tuple(atoms)
                break


GENERATORS = {
    "numerical_corpus": numerical_inputs,
    "kunz_scan": kunz_inputs,
    "affine_analyze": affine_inputs,
}


def input_stream(workload, seed):
    """The workload's endless input stream; one seed, one stream."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- items -------------------------------------------------------------------

def _analyze(gens_text):
    """Run `sgfl analyze --gens ...` in-process; the parsed sgfl/1 entry."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--gens", gens_text])
    if code == 2:
        raise ItemFailed(err.getvalue().strip())
    if code != 0:
        raise RouteDisagreement(f"analyze exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue())["result"][0]


def numerical_item(gens):
    """analyze at the candidate atoms, then the exact oracle at each."""
    entry = _analyze(",".join(map(str, gens)))
    S = semigroups.new_semigroup(list(gens))
    record = [gens]
    for row in entry["verdicts"]:
        scan = verdicts.oracle_scan(S, row["m"], row["formula"])
        if scan.holds != row["holds"]:
            raise RouteDisagreement(
                f"<{gens}> {row['formula']} at {row['m']}: "
                f"minrepl {row['holds']} vs oracle {scan.holds}"
            )
        record += [row, scan]
    return record


def affine_item(gens):
    """analyze at every atom, then a bounded oracle scan in both directions.

    A criterion that holds must survive the scan; a criterion failing at
    an element whose shift lies within the scan's grading bound must make
    the scan fail too.
    """
    entry = _analyze(",".join(f"({a},{b})" for a, b in gens))
    S = semigroups.new_semigroup(list(gens), dim=2)
    record = [gens]
    for row in entry["verdicts"]:
        m = tuple(row["m"])
        scan = verdicts.oracle_scan(S, m, row["formula"], bound=AFFINE_SCAN_BOUND)
        if row["holds"] and not scan.holds:
            raise RouteDisagreement(
                f"{gens} {row['formula']} at {m}: criterion holds, "
                f"scan fails at {scan.counterexamples[0].element}"
            )
        in_range = any(
            sum(c["element"]) - sum(m) <= AFFINE_SCAN_BOUND
            for c in row["counterexamples"]
        )
        if in_range and scan.holds:
            raise RouteDisagreement(
                f"{gens} {row['formula']} at {m}: criterion fails within "
                "the scan bound, scan holds"
            )
        record += [row, scan]
    return record


def kunz_item(job):
    """The per-point checks of the exhaustive Kunz scan, on one point."""
    m, coords = job
    ctx = kunz.numerical_context(m)
    point = kunz.kunz_point(ctx, coords)
    S = kunz.semigroup_of_point(ctx, point)
    where = f"m={m} x={coords}"
    if kunz.point_of_semigroup(ctx, S).x != coords:
        raise RouteDisagreement(f"{where}: the round trip moved the point")
    if not kunz.is_reduced_point(point):
        raise RouteDisagreement(f"{where}: a numerical semigroup judged not reduced")
    m_atom = kunz.is_m_atom_point(point)
    if m_atom != (m in S.atoms):
        raise RouteDisagreement(f"{where}: the m-atom test disagrees with S")
    record = [m, coords, S.atoms, m_atom]
    if not m_atom:
        return record

    report = minrepl.candidate_sets(S, m, minrepl.min_repl(S, m))
    image = {a: point.x[a] * m + a for a in point.atoms}
    if sorted(image.values()) != sorted(set(S.atoms) - {m}):
        raise RouteDisagreement(f"{where}: the quotient atoms do not map onto S")
    position = {atom: i for i, atom in enumerate(report.atom_index)}
    reindexed = set()
    for f in point.min_inf:
        vec = [0] * len(report.atom_index)
        for alpha, count in zip(point.atoms, f.c):
            vec[position[image[alpha]]] = count
        reindexed.add(tuple(vec))
    if reindexed != set(report.minimal_vectors):
        raise RouteDisagreement(f"{where}: min_inf and min_repl differ")

    values = [
        sum(c * image[a] for c, a in zip(f.c, point.atoms)) for f in point.min_inf
    ]
    for f, ev_f in zip(point.min_inf, values):
        for g, ev_g in zip(point.min_inf, values):
            if kunz.sq_leq(point, f.c, g.c) != S.divides(ev_f, ev_g):
                raise RouteDisagreement(f"{where}: sq_leq disagrees with divides")

    for formula in ("longest", "shortest"):
        polytope = kunz.main_verdict(point, formula)
        criterion = verdicts.check_formula(S, m, formula, report=report)
        if polytope.holds != criterion.holds:
            raise RouteDisagreement(
                f"{where} {formula}: kunz {polytope.holds} "
                f"vs minrepl {criterion.holds}"
            )
        record += [polytope, criterion]
    return record


ITEMS = {
    "numerical_corpus": numerical_item,
    "kunz_scan": kunz_item,
    "affine_analyze": affine_item,
}


# -- digest ------------------------------------------------------------------

def _encode(obj):
    """JSON form of the library's verdict objects, for the digest."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, verdicts.Verdict):
        return [obj.formula, obj.m, obj.holds, obj.method, obj.bound,
                [(c.element, c.value, c.shifted) for c in obj.checked]]
    if isinstance(obj, kunz.KunzVerdict):
        return [obj.formula, obj.m, obj.holds,
                [(c.c, c.beta, c.rhs, c.lhs_value) for c in obj.checks]]
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest_bytes(record):
    """Canonical bytes of one item's record."""
    return json.dumps(record, default=_encode, separators=(",", ":")).encode()
