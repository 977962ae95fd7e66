"""The README's examples run as printed.

The library quick tour is executed statement by statement, and each
expression whose line ends in a `# <literal>` comment must equal that
literal (a comment such as `# False: L(48)=4 ...` states the literal
before its explanation).  Each `sgfl ...` line of the command-line block
runs in-process, with its bracketed optional flags dropped, and must
exit 0.  The layout block names every module of the package.
"""

import ast
import io
import os
import re
import shlex
import tokenize

from sgfl.cli import main

README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


def _block(heading, language):
    """The first fenced block of the language under the heading."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text[text.index(f"## {heading}\n"):]
    start = section.index(f"```{language}\n") + len(language) + 4
    return section[start:section.index("```", start)]


def _comment_literal(comment):
    """The literal a comment begins with, or None: the longest prefix,
    cut at a comma, a colon or the end, that parses as a literal."""
    cuts = [len(comment)] + [
        i for i in range(len(comment) - 1, 0, -1) if comment[i] in ",:"
    ]
    for cut in cuts:
        try:
            return (ast.literal_eval(comment[:cut].strip()),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_library_quick_tour_prints_what_it_shows():
    source = _block("Library quick tour", "python")
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    compared = 0
    for statement in ast.parse(source).body:
        literal = _comment_literal(comments.get(statement.end_lineno, ""))
        if isinstance(statement, ast.Expr):
            assert literal is not None, ast.unparse(statement)
            got = eval(compile(ast.Expression(statement.value), README, "eval"),
                       namespace)
            assert got == literal[0], (ast.unparse(statement), got)
            compared += 1
        else:
            exec(compile(ast.Module([statement], []), README, "exec"), namespace)
    assert compared >= 6


def test_command_line_examples_exit_0(capsys):
    lines = [
        line.split("  #")[0]
        for line in _block("Command line", "sh").splitlines()
        if line.startswith("sgfl ")
    ]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (line, captured.err)
        assert captured.out


def test_layout_names_every_module():
    package = os.path.join(os.path.dirname(README), "src", "sgfl")
    layout = _block("Layout", "")
    missing = [
        name
        for name in sorted(os.listdir(package))
        if name.endswith(".py") and name != "__init__.py"
        and f"src/sgfl/{name} " not in layout
    ]
    assert not missing
