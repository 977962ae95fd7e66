"""The public surface: the exported names, and malformed input refused with
an SgflError subclass at every entry point that takes it."""

import pytest

import sgfl
from sgfl import (
    BadModulusError,
    BudgetMeter,
    DimensionMismatchError,
    NotIntegerPointError,
    ReportMismatchError,
    SgflError,
    candidate_atoms,
    check_formula,
    cominimal,
    default_scan_bound,
    embdim3_check,
    kunz_point,
    main_verdict,
    min_repl,
    new_semigroup,
    oracle_scan,
    point_of_semigroup,
    poset_of_point,
    repl_contains,
    semigroup_of_point,
    structure_constants,
)

# A change to this list is a change to the public API; record it in
# CHANGES.md.  KunzContext left it when the Kunz entry points began to
# take the int modulus, and the seven submodules when __all__ stopped
# being built from dir().
PUBLIC_NAMES = [
    "BadModulusError", "BudgetExceededError", "BudgetMeter", "Check",
    "DEFAULT_BUDGET", "DifferentFaceError", "DimensionMismatchError",
    "Formula", "INFINITY", "InequalityViolatedError", "InfFactorization",
    "KunzInequality", "KunzPoint", "KunzVerdict", "LengthSummary",
    "MNotAtomAtPointError", "MNotAtomError", "MNotInSError", "MinReplReport",
    "MissingBoundError", "NoFactorizationError", "NotEmbDim3Error",
    "NotInSemigroupError", "NotIntegerPointError", "NotMinimalError",
    "NotNumericalError", "NotPointedError", "ReportMismatchError",
    "SemigroupPresentation", "SgflError", "Verdict", "apery_set",
    "candidate_atoms", "candidate_sets", "check_formula", "cominimal",
    "contains", "default_scan_bound", "divides", "embdim3_check",
    "factorizations", "frobenius", "is_left_zero", "is_m_atom_point",
    "is_reduced_point", "is_right_zero", "kunz_point",
    "length_summary", "longest_length", "main_verdict",
    "min_inf_factorizations", "min_repl", "minimal_generating_subset",
    "new_semigroup", "numerical_context", "oplus", "oracle_scan",
    "pinfty_atoms", "pinfty_length_extremes", "point_of_semigroup",
    "poset_of_point", "pseudomin", "repl_contains", "semigroup_of_point",
    "shortest_length", "sq_leq", "structure_constants",
]


def test_public_names_are_pinned():
    assert sorted(sgfl.__all__) == PUBLIC_NAMES


CHICKEN = new_semigroup([10, 12, 21, 38])
M5_POINT = [0, 1, 2, 1, 2]

MALFORMED = {
    "check_formula-unknown-formula": (
        SgflError, lambda: check_formula(CHICKEN, 10, "long")),
    "embdim3_check-unknown-formula": (
        SgflError, lambda: embdim3_check(new_semigroup([5, 6, 8]), "long")),
    "oracle_scan-unknown-formula": (
        SgflError, lambda: oracle_scan(CHICKEN, 10, "long")),
    "main_verdict-unknown-formula": (
        SgflError, lambda: main_verdict(kunz_point(5, M5_POINT), "long")),
    "candidate_atoms-unknown-formula": (
        SgflError, lambda: candidate_atoms(CHICKEN, "long")),
    "default_scan_bound-unknown-formula": (
        SgflError, lambda: default_scan_bound(CHICKEN, "long")),
    "new_semigroup-float-first": (
        DimensionMismatchError, lambda: new_semigroup([1.5, 2])),
    "new_semigroup-float-later": (
        DimensionMismatchError, lambda: new_semigroup([2, 1.5])),
    "oracle_scan-float-bound": (
        SgflError, lambda: oracle_scan(CHICKEN, 10, "longest", bound=1.5)),
    # A report for 38 would check 48, 50, 62 and 76 in place of 48 alone.
    "check_formula-report-of-another-atom": (
        ReportMismatchError,
        lambda: check_formula(
            CHICKEN, 10, "longest", report=min_repl(CHICKEN, 38))),
    "check_formula-report-read-as-shortest": (
        ReportMismatchError,
        lambda: check_formula(
            CHICKEN, 38, "shortest", report=min_repl(CHICKEN, 10))),
    "check_formula-report-of-another-semigroup": (
        ReportMismatchError,
        lambda: check_formula(
            CHICKEN, 10, "longest",
            report=min_repl(new_semigroup([10, 12, 21, 39]), 10))),
    "kunz_point-m-0": (BadModulusError, lambda: kunz_point(0, [])),
    "kunz_point-m-1": (BadModulusError, lambda: kunz_point(1, [0])),
    "kunz_point-m-True": (BadModulusError, lambda: kunz_point(True, [0])),
    "kunz_point-m-2.0": (BadModulusError, lambda: kunz_point(2.0, [0, 1])),
    "structure_constants-m-0": (
        BadModulusError, lambda: structure_constants(0, (1,), (0,), (1,))),
    "point_of_semigroup-m-1": (
        BadModulusError, lambda: point_of_semigroup(1, new_semigroup([2, 3]))),
    "semigroup_of_point-m-5.0": (
        BadModulusError,
        lambda: semigroup_of_point(5.0, kunz_point(5, M5_POINT))),
    "poset_of_point-m-0": (
        BadModulusError, lambda: poset_of_point(0, M5_POINT)),
    "BudgetMeter-float": (SgflError, lambda: BudgetMeter(1.5)),
    "BudgetMeter-bool": (SgflError, lambda: BudgetMeter(True)),
    "BudgetMeter-str": (SgflError, lambda: BudgetMeter("x")),
    "check_formula-float-budget": (
        SgflError, lambda: check_formula(CHICKEN, 10, "longest", budget=1.5)),
    "oracle_scan-bool-bound": (
        SgflError, lambda: oracle_scan(CHICKEN, 10, "longest", bound=True)),
    "new_semigroup-str-dim": (
        DimensionMismatchError, lambda: new_semigroup([2, 3], dim="a")),
    "new_semigroup-bool-dim": (
        DimensionMismatchError, lambda: new_semigroup([2, 3], dim=True)),
    "new_semigroup-not-a-list": (SgflError, lambda: new_semigroup(5)),
    "kunz_point-coords-None": (
        NotIntegerPointError, lambda: kunz_point(5, None)),
    "main_verdict-raw-coordinates": (
        SgflError, lambda: main_verdict(M5_POINT, "longest")),
    "cominimal-int-point": (
        SgflError, lambda: cominimal(kunz_point(5, M5_POINT), 5)),
    "repl_contains-short-vector": (
        DimensionMismatchError, lambda: repl_contains(CHICKEN, 10, (1, 2))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_named_sgfl_error(case):
    expected, call = MALFORMED[case]
    with pytest.raises(SgflError) as info:
        call()
    assert type(info.value) is expected
