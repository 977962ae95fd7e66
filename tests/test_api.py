"""The public surface: the exported names, the names the benchmark reads,
and malformed input refused with an SgflError subclass at every entry
point that takes it."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sgfl
from sgfl import (
    BadModulusError,
    BudgetMeter,
    DimensionMismatchError,
    NoFactorizationError,
    NotIntegerPointError,
    NotNumericalError,
    ReportMismatchError,
    SgflError,
    candidate_atoms,
    candidate_sets,
    check_formula,
    cominimal,
    default_scan_bound,
    embdim3_check,
    kunz_point,
    main_verdict,
    min_repl,
    new_semigroup,
    oracle_scan,
    pinfty_length_extremes,
    point_of_semigroup,
    repl_contains,
    semigroup_of_point,
    sq_leq,
    structure_constants,
)

# A change to this list is a change to the public API; record it in
# CHANGES.md.  KunzContext left it when the Kunz entry points began to
# take the int modulus, and the seven submodules when __all__ stopped
# being built from dir().  The module-level forwarders oplus,
# pinfty_atoms, min_inf_factorizations, poset_of_point, contains, divides,
# apery_set and frobenius left it for the KunzPoint and
# SemigroupPresentation members they called.
PUBLIC_NAMES = [
    "BadModulusError", "BudgetExceededError", "BudgetMeter", "Check",
    "DEFAULT_BUDGET", "DifferentFaceError", "DimensionMismatchError",
    "Formula", "INFINITY", "InequalityViolatedError", "InfFactorization",
    "KunzInequality", "KunzPoint", "KunzVerdict", "LengthSummary",
    "MNotAtomAtPointError", "MNotAtomError", "MNotInSError", "MinReplReport",
    "MissingBoundError", "NoFactorizationError", "NotEmbDim3Error",
    "NotInSemigroupError", "NotIntegerPointError", "NotMinimalError",
    "NotNumericalError", "NotPointedError", "ReportMismatchError",
    "SemigroupPresentation", "SgflError", "Verdict",
    "candidate_atoms", "candidate_sets", "check_formula", "cominimal",
    "default_scan_bound", "embdim3_check",
    "factorizations", "is_left_zero", "is_m_atom_point",
    "is_reduced_point", "is_right_zero", "kunz_point",
    "length_summary", "longest_length", "main_verdict",
    "min_repl", "minimal_generating_subset",
    "new_semigroup", "numerical_context", "oracle_scan",
    "pinfty_length_extremes", "point_of_semigroup",
    "pseudomin", "repl_contains", "semigroup_of_point",
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
    "semigroup_of_point-m-0": (
        BadModulusError, lambda: semigroup_of_point(0, M5_POINT)),
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
    "new_semigroup-float-budget": (
        SgflError, lambda: new_semigroup([2, 3], budget=1.5)),
    "kunz_point-coords-None": (
        NotIntegerPointError, lambda: kunz_point(5, None)),
    "kunz_point-bool-coordinate": (
        NotIntegerPointError, lambda: kunz_point(5, [0, True, 2, 1, 2])),
    "pinfty_length_extremes-bool-beta": (
        NoFactorizationError,
        lambda: pinfty_length_extremes(kunz_point(5, M5_POINT), True)),
    "main_verdict-raw-coordinates": (
        SgflError, lambda: main_verdict(M5_POINT, "longest")),
    # A KunzPoint that kunz_point did not build carries no face.
    "main_verdict-point-without-face": (
        SgflError,
        lambda: main_verdict(
            dataclasses.replace(kunz_point(5, M5_POINT), _face=None),
            "longest")),
    "cominimal-int-point": (
        SgflError, lambda: cominimal(kunz_point(5, M5_POINT), 5)),
    "repl_contains-short-vector": (
        DimensionMismatchError, lambda: repl_contains(CHICKEN, 10, (1, 2))),
    # True is an int to Python, not a lattice point.
    "new_semigroup-bool-generator": (
        DimensionMismatchError, lambda: new_semigroup([True, 3])),
    "contains-bool": (
        DimensionMismatchError, lambda: new_semigroup([2, 3]).contains(True)),
    "divides-bool": (
        DimensionMismatchError,
        lambda: new_semigroup([2, 3]).divides(True, 3)),
    "contains-bool-coordinate": (
        DimensionMismatchError,
        lambda: new_semigroup([(1, 0), (0, 1)], dim=2).contains((True, 0))),
    "default_scan_bound-affine": (
        NotNumericalError,
        lambda: default_scan_bound(
            new_semigroup([(1, 0), (0, 1)], dim=2), "longest")),
    "check_formula-report-not-a-report": (
        ReportMismatchError,
        lambda: check_formula(CHICKEN, 10, "longest", report="x")),
    "candidate_sets-report-not-a-report": (
        ReportMismatchError, lambda: candidate_sets(CHICKEN, 10, "x")),
    # Strings of the right length: "c" * 3 is a str to Python, not a count.
    "sq_leq-str-counts": (
        DimensionMismatchError,
        lambda: sq_leq(kunz_point(5, M5_POINT), "ab", "cd")),
    "repl_contains-str-counts": (
        DimensionMismatchError, lambda: repl_contains(CHICKEN, 10, "abc")),
    "structure_constants-str-support": (
        DimensionMismatchError,
        lambda: structure_constants(5, (1,), (1,), ["a"])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_named_sgfl_error(case):
    expected, call = MALFORMED[case]
    with pytest.raises(SgflError) as info:
        call()
    assert type(info.value) is expected


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(tree, name):
    """The value of the module-level literal assignment to name, or ()."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


def _sgfl_reads(path):
    """The (module, attribute) pairs of sgfl that one file reads: its
    sgfl imports, attribute reads on the sgfl modules it imports, and,
    for the tracer, its FUNCTIONS pairs and SemigroupPresentation METHODS.
    """
    tree = ast.parse(path.read_text(), str(path))
    local = {}  # a local name bound to an sgfl module -> the module's name
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sgfl":
                    local[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.split(".")[0] == "sgfl"
        ):
            for alias in node.names:
                reads.add((node.module, alias.name))
                if node.module == "sgfl":
                    local[alias.asname or alias.name] = f"sgfl.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in local:
                reads.add((local[node.value.id], node.attr))
    for module, function in _literal(tree, "FUNCTIONS"):
        reads.add((f"sgfl.{module}", function))
    for method in _literal(tree, "METHODS"):
        reads.add(("sgfl.semigroups:SemigroupPresentation", method))
    return reads


def _exists(owner, attr):
    """attr resolves on owner: a member of the class for "module:Class",
    else an attribute or a submodule of the module."""
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    if cls:
        return attr in vars(getattr(target, cls))
    return hasattr(target, attr) or (
        hasattr(target, "__path__")
        and importlib.util.find_spec(f"{module}.{attr}") is not None
    )


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ checkout")
def test_every_sgfl_name_the_benchmark_reads_exists():
    # The benchmark's files are read, never imported: deleting a name that
    # perfbench/ uses must fail here, not as a failed benchmark run.
    reads = {
        (path.name, owner, attr)
        for path in sorted(PERFBENCH.glob("*.py"))
        for owner, attr in _sgfl_reads(path)
    }
    owners = {owner for _, owner, _ in reads}
    assert {"sgfl.cli", "sgfl.kunz", "sgfl.verdicts", "sgfl.minrepl",
            "sgfl.semigroups",
            "sgfl.semigroups:SemigroupPresentation"} <= owners
    missing = sorted(r for r in reads if not _exists(r[1], r[2]))
    assert missing == []
    # tracing.py reads BudgetMeter.spend through a local variable, which
    # the walk above cannot follow; every node a Kunz point spends, built
    # or read from the face cache, goes through it.
    assert _exists("sgfl.budget:BudgetMeter", "spend")


# The modules that `import sgfl, sgfl.cli` may load beyond those the
# interpreter already holds: the benchmark's setup_s times exactly that
# import, so a new import (fractions, say) must be a decision, made here.
# Submodules count under their top-level name; names starting with "_"
# are C helpers of the modules listed.
LAUNCH_MODULES = {"argparse", "gettext", "json", "sgfl"}
# Standard modules sgfl imports that the site start-up here already holds;
# importing them before the snapshot keeps the check independent of it.
SITE_MODULES = (
    "collections.abc, enum, functools, importlib, itertools, math, operator, "
    "os, re, types, typing"
)


def test_launch_loads_no_module_beyond_todays_set():
    code = (
        f"import sys, {SITE_MODULES}; "
        "sys.path.insert(0, sys.argv[1]); "
        "before = set(sys.modules); "
        "import sgfl, sgfl.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    src = str(Path(sgfl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = ast.literal_eval(proc.stdout)
    assert "sgfl.cli" in loaded
    extra = [
        name
        for name in loaded
        if not name.startswith("_")
        and name not in LAUNCH_MODULES
        and name.partition(".")[0] not in LAUNCH_MODULES
    ]
    assert extra == []


def _run_fresh(code, *args):
    """Run python -c code args with this checkout's sgfl first on the path;
    its stdout read as a Python literal."""
    src = str(Path(sgfl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n"
         + code, src, *args],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return ast.literal_eval(proc.stdout)


SGFL_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'sgfl')"


def test_launch_loads_the_cli_core_and_analyze_no_kunz_module():
    code = f"""
import contextlib, io
import sgfl, sgfl.cli
launch = {SGFL_LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = sgfl.cli.main(["analyze", "--gens", "6,9,20"])
print((launch, exit_code, {SGFL_LOADED}))
"""
    launch, exit_code, after = _run_fresh(code)
    assert launch == ["sgfl", "sgfl.budget", "sgfl.cli", "sgfl.errors"]
    assert exit_code == 0
    assert "sgfl.verdicts" in after
    assert "sgfl.kunz" not in after
    assert "sgfl.examples_suite" not in after


def test_lazy_names_are_the_owning_modules_objects():
    code = f"""
import json, types
import sgfl
names = json.loads(sys.argv[2])
listed = set(dir(sgfl))
try:
    sgfl.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
probed = (hasattr(sgfl, "no_such_name"), {SGFL_LOADED})
from sgfl import *
unbound = [n for n in names if n not in globals()]
owners = [sgfl.budget, sgfl.errors, sgfl.kunz, sgfl.lengths, sgfl.minrepl,
          sgfl.semigroups, sgfl.verdicts]
orphans = [
    n for n in names
    if getattr(sgfl, n) is not globals()[n]
    or not any(vars(m).get(n) is globals()[n] for m in owners)
]
print((
    sorted(set(names) - listed), unknown, probed, unbound, orphans,
    sgfl.check_formula is sgfl.verdicts.check_formula,
    sgfl.INFINITY is sgfl.kunz.INFINITY,
    [(m.__name__, isinstance(m, types.ModuleType))
     for m in (sgfl.kunz, sgfl.cli, sgfl.examples_suite)],
))
"""
    (missing_from_dir, unknown, probed, unbound, orphans, same_check,
     same_infinity, submodules) = _run_fresh(code, json.dumps(PUBLIC_NAMES))
    assert missing_from_dir == []
    assert unknown == "AttributeError"
    # An unknown name neither resolves nor loads a submodule.
    assert probed == (False, ["sgfl"])
    assert unbound == []
    assert orphans == []
    assert same_check and same_infinity
    assert submodules == [("sgfl.kunz", True), ("sgfl.cli", True),
                          ("sgfl.examples_suite", True)]
