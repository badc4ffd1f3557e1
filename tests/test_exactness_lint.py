"""Static checks of the library's exactness rules, over the ast of ``src/laakso``.

No check may be an ``assert``, which ``python -O`` strips; a broken
invariant raises ``InvariantViolation``.  No float may enter a computation:
outside ``render.py`` (SVG output) the source holds no float literal, no
``float(...)`` call and no function of ``math`` other than its integer ones.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "laakso"
FLOAT_MODULES = {"render.py"}
#: The functions of ``math`` that take and return integers.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def violations(source: str, floats_allowed: bool = False) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        if floats_allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float() call")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where}: math.{alias.name}" for alias in node.names
                         if alias.name not in INTEGER_MATH)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"{where}: math.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_module_keeps_the_exactness_rules(path):
    assert violations(path.read_text(), path.name in FLOAT_MODULES) == []


@pytest.mark.parametrize("snippet", [
    "assert x > 0",
    "y = x * 0.5",
    "y = float(x)",
    "from math import sqrt",
    "import math\ny = math.log(x)",
])
def test_each_kind_of_breach_is_caught(snippet):
    assert violations(snippet)


def test_integer_math_and_render_floats_pass():
    assert violations("from math import gcd, lcm\nimport math\ny = math.isqrt(x)") == []
    assert violations("y = float(x) * 0.5", floats_allowed=True) == []
    assert violations("assert x", floats_allowed=True)
