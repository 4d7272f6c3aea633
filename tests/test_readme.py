"""The Python examples of README.md run as written.

Each ```` ```python ```` block runs statement by statement in a fresh
namespace.  A bare expression with a trailing comment, as in
``clustering.labeled_ungrouped()  # ['d3', 'd4']``, must have that comment
as its ``repr``, so a renamed or removed public name cannot stay
documented.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return [
        pytest.param(match.group(1), id=f"block{k}")
        for k, match in enumerate(re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M), 1)
    ]


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("source", python_blocks())
def test_readme_example_runs_and_shows_its_values(source):
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr) and node.end_lineno in comments:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[node.end_lineno], ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked, "the block shows no value"
