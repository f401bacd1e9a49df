"""The README's examples run as written and print what it says they do."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from patlab.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block(heading: str, lang: str) -> str:
    """The first fenced `lang` block under the README's `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


QUICK_START = [
    shlex.split(line)[1:]
    for line in block("## Quick start", "sh").splitlines()
    if line.startswith("patlab ") and line != "patlab verify"  # test_acceptance runs verify
]


@pytest.mark.parametrize("argv", QUICK_START, ids=[argv[0] for argv in QUICK_START])
def test_quick_start_command(capsys, argv):
    assert run(argv) == 0, capsys.readouterr().err


def test_library_use():
    """Each expression's comment, on its line or the next, is its repr, or
    its type's name and a remark."""
    code = block("## Library use", "python")
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    names: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names)
        comment = comments.get(stmt.end_lineno, comments.get(stmt.end_lineno + 1))
        if comment.startswith(f"{type(value).__name__},"):
            continue
        assert repr(value) == comment
        checked.append(comment)
    assert len(checked) == 4, checked
