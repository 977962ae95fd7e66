"""Property tests over generated numerical semigroups.

Derandomized with a fixed example count, so every run checks the same
semigroups and the suite stays deterministic.
"""

from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import length_dp
from sgfl.errors import NotMinimalError
from sgfl.lengths import length_table
from sgfl.semigroups import new_semigroup
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
