"""Property tests over generated numerical and affine semigroups.

Derandomized with a fixed example count, so every run checks the same
semigroups and the suite stays deterministic.
"""

import contextlib
import io
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import length_dp
from sgfl import cli
from sgfl.errors import NotMinimalError, SgflError
from sgfl.lengths import length_table, longest_length
from sgfl.minrepl import min_repl
from sgfl.semigroups import minimal_generating_subset, new_semigroup
from sgfl.verdicts import candidate_atoms, check_formula, oracle_scan

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=300,
)


@st.composite
def numerical_generators(draw):
    """Minimal generator lists with n1 <= 15, 3 or 4 generators, gcd 1."""
    n1 = draw(st.integers(3, 15))
    rest = draw(
        st.lists(st.integers(n1 + 1, 4 * n1), min_size=2, max_size=3, unique=True)
    )
    gens = [n1] + sorted(rest)
    assume(gcd(*gens) == 1)
    try:
        new_semigroup(gens)
    except NotMinimalError:
        assume(False)
    return gens


@PROPERTY_SETTINGS
@given(numerical_generators())
def test_criterion_and_scan_agree(gens):
    S = new_semigroup(gens)
    for formula in ("longest", "shortest"):
        for m in candidate_atoms(S, formula):
            assert (
                check_formula(S, m, formula).holds
                == oracle_scan(S, m, formula).holds
            ), (gens, m, formula)


@PROPERTY_SETTINGS
@given(numerical_generators())
def test_int_and_tuple_membership_agree(gens):
    S = new_semigroup(gens)
    for n in range(3 * max(gens) + 1):
        assert S.contains(n) == S.contains((n,)), (gens, n)


@PROPERTY_SETTINGS
@given(numerical_generators(), st.integers(0, 250), st.booleans())
def test_length_table_matches_the_coin_change_dp(gens, upto, maximize):
    S = new_semigroup(gens)
    assert length_table(S, upto, maximize) == length_dp(gens, upto, maximize)


@st.composite
def affine_generators(draw):
    """Minimal generator lists of 3 or 4 atoms in [0, 4]^2."""
    cells = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)
    vectors = draw(st.lists(cells, min_size=3, max_size=4, unique=True))
    atoms = minimal_generating_subset(vectors, 2)
    assume(len(atoms) >= 3)
    return atoms


def _returns_or_refuses(call):
    """Run call; an SgflError is a refusal, any other exception fails."""
    try:
        call()
    except SgflError:
        pass


@PROPERTY_SETTINGS
@given(affine_generators(), st.integers(1, 50))
def test_affine_entry_points_return_or_refuse_within_a_budget(gens, budget):
    S = new_semigroup(gens, dim=2)
    element = tuple(map(sum, zip(*gens)))  # the sum of the atoms
    _returns_or_refuses(lambda: longest_length(S, element, budget=budget))
    for m in S.atoms:
        _returns_or_refuses(lambda: min_repl(S, m, budget=budget))
        for formula in ("longest", "shortest"):
            _returns_or_refuses(
                lambda: check_formula(S, m, formula, budget=budget)
            )
            _returns_or_refuses(
                lambda: oracle_scan(S, m, formula, bound=8, budget=budget)
            )


@PROPERTY_SETTINGS
@given(affine_generators(), st.integers(1, 50))
def test_affine_analyze_exits_0_or_2_within_a_budget(gens, budget):
    argv = [
        "analyze", "--gens", ",".join(f"({a},{b})" for a, b in gens),
        "--budget", str(budget),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = cli.main(argv)
    assert code in (0, 2), (gens, budget, code)
