"""Shift-by-an-atom factorization-length formulas for semigroups.

For a finitely generated reduced cancellative commutative semigroup S and
an atom m, this library decides whether L(s+m) = L(s) + 1 for every s in S
and whether l(s+m) = l(s) + 1 for every s in S, where L and l are the
longest and shortest factorization lengths.  Three independent routes are
provided: finite candidate-set criteria built on minimal replaceable
factorizations, Kunz-polytope inequalities deciding the same questions
from coordinates alone, and brute-force scans for cross-validation.

Names load on first use (PEP 562): `import sgfl` imports no submodule,
and `sgfl.check_formula` or `from sgfl import check_formula` imports
the module that owns the name.  The command line loads only the modules
its subcommand uses; `python -X importtime -c "import sgfl, sgfl.cli"`
shows what a launch imports.
"""

from importlib import import_module as _import_module

# Each submodule and the names it exports.
_EXPORTS = {
    "budget": ("DEFAULT_BUDGET", "BudgetMeter"),
    "errors": (
        "BadModulusError", "BudgetExceededError", "DifferentFaceError",
        "DimensionMismatchError", "InequalityViolatedError",
        "MissingBoundError", "MNotAtomAtPointError", "MNotAtomError",
        "MNotInSError", "NoFactorizationError", "NotEmbDim3Error",
        "NotInSemigroupError", "NotIntegerPointError", "NotMinimalError",
        "NotNumericalError", "NotPointedError", "ReportMismatchError",
        "SgflError",
    ),
    "kunz": (
        "INFINITY", "InfFactorization", "KunzInequality", "KunzPoint",
        "KunzVerdict", "cominimal", "is_m_atom_point", "is_reduced_point",
        "kunz_point", "main_verdict", "numerical_context",
        "pinfty_length_extremes", "point_of_semigroup", "pseudomin",
        "semigroup_of_point", "sq_leq", "structure_constants",
    ),
    "lengths": (
        "LengthSummary", "factorizations", "length_summary",
        "longest_length", "shortest_length",
    ),
    "minrepl": (
        "MinReplReport", "candidate_sets", "is_left_zero", "is_right_zero",
        "min_repl", "repl_contains",
    ),
    "semigroups": (
        "SemigroupPresentation", "minimal_generating_subset", "new_semigroup",
    ),
    "verdicts": (
        "Check", "Formula", "Verdict", "candidate_atoms", "check_formula",
        "default_scan_bound", "embdim3_check", "oracle_scan",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
# sgfl.<submodule> resolves for every submodule, cli and examples_suite too.
_SUBMODULES = {*_EXPORTS, "cli", "examples_suite"}

__all__ = list(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that owns name, and keep the value here."""
    if name in _OWNERS:
        value = getattr(_import_module(f".{_OWNERS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
