"""Shift-by-an-atom factorization-length formulas for semigroups.

For a finitely generated reduced cancellative commutative semigroup S and
an atom m, this library decides whether L(s+m) = L(s) + 1 for every s in S
and whether l(s+m) = l(s) + 1 for every s in S, where L and l are the
longest and shortest factorization lengths.  Three independent routes are
provided: finite candidate-set criteria built on minimal replaceable
factorizations, Kunz-polytope inequalities deciding the same questions
from coordinates alone, and brute-force scans for cross-validation.
"""

from types import ModuleType as _ModuleType

from .budget import DEFAULT_BUDGET, BudgetMeter
from .errors import (
    BadModulusError,
    BudgetExceededError,
    DifferentFaceError,
    DimensionMismatchError,
    InequalityViolatedError,
    MissingBoundError,
    MNotAtomAtPointError,
    MNotAtomError,
    MNotInSError,
    NoFactorizationError,
    NotEmbDim3Error,
    NotInSemigroupError,
    NotIntegerPointError,
    NotMinimalError,
    NotNumericalError,
    NotPointedError,
    ReportMismatchError,
    SgflError,
)
from .kunz import (
    INFINITY,
    InfFactorization,
    KunzInequality,
    KunzPoint,
    KunzVerdict,
    cominimal,
    is_m_atom_point,
    is_reduced_point,
    kunz_point,
    main_verdict,
    numerical_context,
    pinfty_length_extremes,
    point_of_semigroup,
    pseudomin,
    semigroup_of_point,
    sq_leq,
    structure_constants,
)
from .lengths import (
    LengthSummary,
    factorizations,
    length_summary,
    longest_length,
    shortest_length,
)
from .minrepl import (
    MinReplReport,
    candidate_sets,
    is_left_zero,
    is_right_zero,
    min_repl,
    repl_contains,
)
from .semigroups import (
    SemigroupPresentation,
    minimal_generating_subset,
    new_semigroup,
)
from .verdicts import (
    Check,
    Formula,
    Verdict,
    candidate_atoms,
    check_formula,
    default_scan_bound,
    embdim3_check,
    oracle_scan,
)

# The imported names only; the submodules stay importable but unexported.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
