import json
import os
import resource
import subprocess
import sys

import jsonschema
import pytest

import sgfl.cli
from sgfl.cli import main

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "sgfl",
    "schema_sgfl1.json",
)


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as handle:
        return json.load(handle)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verdict_json(capsys, schema):
    code, out, _ = run_cli(
        capsys, "verdict", "--gens", "10,12,21,38", "--m", "10",
        "--formula", "longest",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["schema"] == "sgfl/1"
    assert report["result"]["holds"] is False
    assert report["result"]["counterexamples"][0]["element"] == 48


def test_verdict_assert_holds_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "verdict", "--gens", "10,12,21,38", "--m", "10",
        "--formula", "longest", "--assert-holds",
    )
    assert code == 1
    code, _, _ = run_cli(
        capsys, "verdict", "--gens", "6,9,20", "--m", "6",
        "--formula", "longest", "--assert-holds",
    )
    assert code == 0


def test_verdict_methods(capsys, schema):
    for method in ("minrepl", "embdim3", "oracle"):
        code, out, _ = run_cli(
            capsys, "verdict", "--gens", "6,9,20", "--m", "6",
            "--formula", "longest", "--method", method,
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["result"]["holds"] is True
        assert report["result"]["method"] == method


def test_minrepl_json(capsys, schema):
    code, out, _ = run_cli(capsys, "minrepl", "--gens", "5,6,8", "--m", "5")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["result"]["min_repl"] == [[0, 2], [2, 1], [3, 0]]
    assert report["result"]["evaluations"] == [16, 20, 18]
    assert report["result"]["N2"] is None


def test_affine_generator_syntax(capsys, schema):
    code, out, _ = run_cli(
        capsys, "verdict", "--gens", "(2,0),(3,1),(0,5)", "--m", "(3,1)",
        "--formula", "longest",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["result"]["holds"] is False
    assert report["result"]["counterexamples"][0]["element"] == [30, 10]


def test_analyze(capsys, schema):
    code, out, _ = run_cli(capsys, "analyze", "--gens", "6,9,20")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    verdicts = report["result"][0]["verdicts"]
    assert [v["holds"] for v in verdicts] == [True, True]
    assert {v["formula"] for v in verdicts} == {"longest", "shortest"}


def test_analyze_element_summaries(capsys, schema):
    code, out, _ = run_cli(
        capsys, "analyze", "--gens", "10,12,21,38", "--element", "48",
        "--element", "84",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    summaries = report["result"][0]["elements"]
    assert summaries[0] == {
        "element": 48,
        "longest": 4,
        "shortest": 2,
        "lengths": [2, 4],
        "witness_longest": [0, 4, 0, 0],
        "witness_shortest": [1, 0, 0, 1],
    }
    assert summaries[1]["shortest"] == 4


def test_analyze_file_input(capsys, schema, tmp_path):
    listing = tmp_path / "semigroups.txt"
    listing.write_text(
        "# comment line\n"
        "gens=6,9,20\n"
        "dim=2; gens=(2,0),(3,1),(0,5)\n"
    )
    code, out, _ = run_cli(capsys, "analyze", "--file", str(listing))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert len(report["result"]) == 2
    assert report["result"][1]["dim"] == 2
    assert len(report["result"][1]["verdicts"]) == 6


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_analyze_file_that_cannot_be_read_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "semigroups.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"gens=6,9,20\n# \xff\xfe\n")
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["schema"] == "sgfl/1"
    assert error["error"] == "SgflError"


WIDE_PLANE = "(3,0),(7,0),(11,0),(6,1),(0,3)"


def test_analyze_repeat_runs_are_byte_identical(capsys):
    for gens in ("10,12,21,38", WIDE_PLANE):
        _, first, _ = run_cli(capsys, "analyze", "--gens", gens)
        _, second, _ = run_cli(capsys, "analyze", "--gens", gens)
        assert first == second


def test_analyze_solves_each_atom_once(capsys, monkeypatch):
    calls = []
    original = sgfl.cli.min_repl

    def counting_min_repl(S, m, *args, **kwargs):
        calls.append(m)
        return original(S, m, *args, **kwargs)

    monkeypatch.setattr(sgfl.cli, "min_repl", counting_min_repl)
    atoms = [(0, 3), (3, 0), (6, 1), (7, 0), (11, 0)]
    code, out, _ = run_cli(capsys, "analyze", "--gens", WIDE_PLANE)
    assert code == 0
    assert sorted(calls) == atoms
    verdicts = json.loads(out)["result"][0]["verdicts"]
    assert len(verdicts) == 2 * len(atoms)


def test_byte_determinism(capsys):
    args = ("kunz", "point", "--m", "5", "--x", "0,1,2,1,2",
            "--verdict", "longest")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_parser_reuse_leaks_no_state(capsys):
    args = ("analyze", "--gens", "10,12,21,38", "--element", "48")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "elements" in json.loads(first)["result"][0]
    _, third, _ = run_cli(capsys, "analyze", "--gens", "10,12,21,38")
    assert "elements" not in json.loads(third)["result"][0]


def test_removed_run_options_are_usage_errors(capsys):
    for option in (("--seed", "1"), ("--parallelism", "2")):
        for argv in (
            [*option, "analyze", "--gens", "6,9,20"],
            ["analyze", "--gens", "6,9,20", *option],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2


def test_tsv_output(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "--gens", "6,9,20", "--m", "6",
        "--formula", "longest", "--output", "tsv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[:3] == ["formula", "m", "holds"]
    assert lines[1].split("\t")[:3] == ["longest", "6", "true"]


def test_tsv_prints_affine_counterexamples_in_coordinate_order(capsys):
    # JSON and pretty print the element (30, 10) as [30, 10]; TSV once
    # sorted its coordinates to [10, 30].
    code, out, _ = run_cli(
        capsys, "verdict", "--gens", "(2,0),(3,1),(0,5)", "--m", "(3,1)",
        "--formula", "longest", "--output", "tsv",
    )
    assert code == 0
    assert out == (
        "formula\tm\tholds\tmethod\texact\tcounterexamples\n"
        "longest\t[3, 1]\tfalse\tminrepl\ttrue\t[30, 10]\n"
    )


def test_tsv_rejected_for_non_flat_reports(capsys):
    code, _, err = run_cli(
        capsys, "minrepl", "--gens", "5,6,8", "--m", "5", "--output", "tsv",
    )
    assert code == 2
    assert "json" in err


@pytest.mark.parametrize("argv", [
    ("kunz", "point", "--m", "5", "--x", "0,1,2,1,2", "--output", "tsv"),
    ("kunz", "point", "--m", "5", "--x", "0,1,2,1,2", "--output", "pretty"),
    ("minrepl", "--gens", "5,6,8", "--m", "5", "--output", "tsv"),
    ("paper-examples", "--output", "tsv"),
])
def test_unflat_output_refused_before_any_work(capsys, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("work done before the output check")

    for name in ("kunz_point", "min_repl", "run_rows"):
        monkeypatch.setattr(sgfl.cli, name, forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not flat" in err


def test_kunz_subcommand(capsys, schema):
    code, out, _ = run_cli(
        capsys, "kunz", "point", "--m", "5", "--x", "0,1,2,1,2",
        "--verdict", "longest", "--cominimal", "0,11,22,32,43",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    result = report["result"]
    assert result["semigroup"] == [5, 6, 8]
    assert result["atoms"] == [1, 3]
    assert result["verdict"]["holds"] is True
    assert result["cominimal"] is True
    templates = {
        (tuple(c["coeffs"]), c["relation"], c["rhs"])
        for c in result["verdict"]["inequalities"]
    }
    assert ((0, 3, 0, -1, 0), ">=", 2) in templates


def test_kunz_cominimal_computes_each_pseudomin_once(capsys, monkeypatch):
    calls = []
    real = sgfl.cli.pseudomin

    def counting(point):
        calls.append(point.x)
        return real(point)

    monkeypatch.setattr(sgfl.cli, "pseudomin", counting)
    code, out, _ = run_cli(
        capsys, "kunz", "point", "--m", "5", "--x", "0,1,2,1,2",
        "--cominimal", "0,11,22,32,43",
    )
    assert code == 0
    assert json.loads(out)["result"]["cominimal"] is True
    assert calls == [(0, 1, 2, 1, 2), (0, 11, 22, 32, 43)]
    code, _, err = run_cli(
        capsys, "kunz", "point", "--m", "5", "--x", "0,1,2,1,2",
        "--cominimal", "0,0,0,0,0",
    )
    assert code == 2
    assert "same face" in err


def test_paper_examples(capsys, schema):
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert all(row["status"] == "pass" for row in report["result"])


def test_paper_examples_budget_errors(capsys, schema):
    code, out, _ = run_cli(capsys, "paper-examples", "--budget", "1")
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, schema)
    statuses = {row["status"] for row in report["result"]}
    assert "error" in statuses
    assert "pass" in statuses  # cheap rows unaffected by the tiny budget


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SGFL_BUDGET", "12345")
    _, out, _ = run_cli(capsys, "verdict", "--gens", "6,9,20", "--m", "6",
                        "--formula", "longest")
    assert json.loads(out)["config"]["budget"] == 12345


@pytest.mark.parametrize(
    "argv, env",
    [
        (("verdict", "--gens", "10,12,21,38", "--m", "10",
          "--formula", "longest"), "20"),
        (("kunz", "point", "--m", "1100",
          "--x", ",".join(["0"] + ["1"] * 1099)), None),
        # 10,989,002 oracle values 0..bound+m, over the default budget.
        (("oracle", "--gens", "1000,1001,10999", "--m", "1000",
          "--formula", "longest"), None),
    ],
)
def test_budget_exhaustion_exits_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("SGFL_BUDGET", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["schema"] == "sgfl/1"
    assert error["error"] == "BudgetExceededError"


def _capped_python(code, *args, cap):
    """Run python -c code args in a child whose address space is capped at
    cap bytes, so an oversized table fails there with a MemoryError
    instead of taking the machine's memory."""
    src = os.path.dirname(os.path.dirname(SCHEMA_PATH))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )


_CLI = "import sys; from sgfl.cli import main; sys.exit(main(sys.argv[1:]))"


def test_verdict_with_a_huge_atom_answers_at_once():
    # The embdim3 check reads targets 12 and 8, so the length table must
    # not be sized by the atom 10**9 + 1.
    proc = _capped_python(
        _CLI, "verdict", "--gens", "4,6,1000000001", "--m", "4",
        "--formula", "longest", "--method", "embdim3", cap=1 << 30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["holds"] is True


def test_a_huge_residue_table_exits_2_at_once():
    # Whether 10**9 + 1 lies in <10**9> asks for a table of 10**9 residues,
    # about 8 GB; it is charged to the default budget before it is built.
    proc = _capped_python(
        _CLI, "analyze", "--gens", "1000000000,1000000001", cap=600 << 20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "BudgetExceededError"


def test_a_huge_apery_set_raises_budget_exceeded_at_once():
    proc = _capped_python(
        "from sgfl import BudgetExceededError, new_semigroup\n"
        "try:\n"
        "    new_semigroup([2, 3]).apery_set(10**9)\n"
        "except BudgetExceededError:\n"
        "    print('BudgetExceededError')\n",
        cap=600 << 20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "BudgetExceededError\n"


def test_input_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "verdict", "--gens", "6,9,18", "--m", "6",
        "--formula", "longest",
    )
    assert code == 2
    assert "NotMinimal" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (("analyze", "--gens", "a,b"), None),
        (("analyze", "--gens", ","), None),
        (("kunz", "point", "--m", "5", "--x", "0,1,x"), None),
        (("verdict", "--gens", "10,12,21,38", "--m", "q",
          "--formula", "longest"), None),
        (("analyze", "--gens", "3,5"), "abc"),
        (("oracle", "--gens", "10,12,21,38", "--m", "38",
          "--formula", "shortest", "--bound", "-5"), None),
        # embdim3 decides at n1 (longest) or n3 (shortest), not at --m.
        (("verdict", "--gens", "6,9,20", "--m", "99",
          "--formula", "longest", "--method", "embdim3"), None),
        (("verdict", "--gens", "6,9,20", "--m", "20",
          "--formula", "longest", "--method", "embdim3"), None),
        (("verdict", "--gens", "6,9,20", "--m", "6",
          "--formula", "shortest", "--method", "embdim3"), None),
        # Text outside the comma-separated (...) groups is refused.
        (("analyze", "--gens", "(1,2),(3"), None),
        (("analyze", "--gens", "(2,0)x(0,3)junk(3,1)"), None),
        (("verdict", "--gens", "(2,0),(3,1),(0,5)", "--m", "(2,0",
          "--formula", "longest"), None),
        # Every comma-separated field is an integer, the last one too.
        (("kunz", "point", "--m", "5", "--x", "0,1,,2,1,2"), None),
        (("analyze", "--gens", "6,,9,20,"), None),
        (("analyze", "--gens", "6,9,20,"), None),
        (("minrepl", "--gens", "5,6,8", "--m", "5,,"), None),
        (("analyze", "--gens", "(2,0),(3,1,),(0,5)"), None),
    ],
)
def test_malformed_numbers_exit_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("SGFL_BUDGET", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["schema"] == "sgfl/1"
    assert error["error"] == "SgflError"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verdict", "--gens", "6,9,20", "--m", "6"])  # no --formula
    assert info.value.code == 2


def test_oracle_subcommand(capsys, schema):
    code, out, _ = run_cli(
        capsys, "oracle", "--gens", "(2,0),(3,1),(0,5)", "--m", "(3,1)",
        "--formula", "longest", "--allow-default",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["result"]["exact"] is False
    assert report["result"]["bound"] == 120


def test_oracle_on_a_dimension_1_semigroup_with_gcd_above_1(capsys, schema):
    # Dimension-1 elements are ints whatever the gcd, so the checks of
    # <4, 6> print "element": 4, not "element": [4].
    code, out, _ = run_cli(
        capsys, "oracle", "--gens", "4,6", "--m", "4",
        "--formula", "longest", "--bound", "8",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert '"element": 4,' in out
    assert report["result"]["checked"] == [
        {"element": 4, "shifted": 1, "value": 1},
        {"element": 8, "shifted": 2, "value": 2},
        {"element": 10, "shifted": 2, "value": 2},
        {"element": 12, "shifted": 3, "value": 3},
    ]
    assert report["result"]["exact"] is False
