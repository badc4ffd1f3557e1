"""Every size budget lives in ``laakso.budget``, and the bound its refusals rest on holds.

A static check over the ast of ``src/laakso`` keeps the budgets in one
place: only ``budget.py`` binds a top-level ``MAX_*`` name (by assignment
or by import, so a re-export is caught too), reads Python's int-to-str
digit limit, or forms the bit bound ``k * (n.bit_length() - 1)``.  The
refusals of the scale, tail, listing and printing budgets trust that
bound, ``power_bits(n, k) < (n**k).bit_length() <= D_k.bit_length()``,
which the rest of the file checks.
"""

import ast
import sys
from pathlib import Path

import pytest
from conftest import CLOSED_FORM_SPACES
from hypothesis import given, settings, strategies as st

from laakso.budget import check_exponent, power_bits
from laakso.errors import ResourceLimit

SOURCE = Path(__file__).resolve().parent.parent / "src" / "laakso"


def _is_bits_less_one(node: ast.AST) -> bool:
    """``x.bit_length() - 1``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Attribute)
            and node.left.func.attr == "bit_length")


def violations(source: str) -> list[str]:
    """Budget decisions a module other than ``budget.py`` makes itself."""
    tree = ast.parse(source)
    found = []
    for statement in tree.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        elif isinstance(statement, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in statement.names]
        else:
            continue
        found += [f"line {statement.lineno}: binds {name}" for name in names
                  if name.startswith("MAX_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name == "get_int_max_str_digits":
            found.append(f"line {getattr(node, 'lineno', '?')}: reads the int-to-str limit")
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and (_is_bits_less_one(node.left) or _is_bits_less_one(node.right))):
            found.append(f"line {node.lineno}: bounds the bits of a power")
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_budget_module_decides_a_budget(path):
    assert path.name == "budget.py" or violations(path.read_text()) == []


def test_the_budget_module_holds_every_budget():
    found = violations((SOURCE / "budget.py").read_text())
    assert sorted(line.split(": ", 1)[1] for line in found) == [
        "binds MAX_LISTED_LEVELS", "binds MAX_SCALE_LOG2", "binds MAX_TAIL_BITS", "binds MAX_VERTICES",
        "bounds the bits of a power", "reads the int-to-str limit", "reads the int-to-str limit",
        "reads the int-to-str limit",
    ]


@pytest.mark.parametrize("snippet", [
    "MAX_DEPTH = 9",
    "MAX_DEPTH: int = 9",
    "LIMIT, MAX_ROWS = 1, 2",
    "from .budget import MAX_VERTICES",
    "from . import budget as b\nfrom .budget import MAX_TAIL_BITS as MAX_BITS",
    "import sys\nlimit = sys.get_int_max_str_digits()",
    "from sys import get_int_max_str_digits",
    "def f(n, k):\n    return k * (n.bit_length() - 1)",
    "def f(n, k):\n    return (n.bit_length() - 1) * k",
])
def test_a_budget_outside_the_module_is_caught(snippet):
    assert violations(snippet)


def test_uses_of_the_budget_module_pass():
    assert violations("from . import budget\nbudget.check_tail(3, 5)\nx = budget.MAX_VERTICES") == []
    assert violations("def f(n, limit=5):\n    MAX = 3\n    return (n & -n).bit_length() - 1") == []


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 1 << 70), st.integers(0, 300))
def test_power_bits_is_below_the_bits_of_the_power(n, k):
    assert power_bits(n, k) < (n ** k).bit_length()


@pytest.mark.parametrize("name", CLOSED_FORM_SPACES)
def test_power_bits_is_below_the_bits_of_every_product(request, name):
    ms = request.getfixturevalue(name).mseq
    assert all(power_bits(ms.n, k) < ms.D(k).bit_length() for k in range(201))


def test_power_bits_is_exact_at_powers_of_two():
    assert all(power_bits(1 << j, k) == (1 << j * k).bit_length() - 1
               for j in range(1, 20) for k in range(50))


def test_an_exponent_is_read_from_the_text_before_fraction_builds_its_power():
    # power_bits(10, N) = 3N reaches 4 * limit bits from this N on
    edge = -(-4 * sys.get_int_max_str_digits() // 3)
    for literal in (f"1e{edge - 1}", f"3E-{edge - 1}", f"1e-00{edge - 1}", "7/9", "0.5", "1",
                    "1e", "e", "1e-x", f"{edge}", f"2e{edge}/3", f"1/2e{edge}", f"x1e{edge}", f"e{edge}"):
        check_exponent(literal)  # admitted, or left for Fraction to refuse
    for literal in (f"1e{edge}", f"2E-{edge}", f"1e+0{edge}", f" 1e-{edge} ", f"1.5e-{edge}",
                    f"1e{edge // 1000}_{edge % 1000:03}", "1e" + "9" * 5000):
        with pytest.raises(ResourceLimit):
            check_exponent(literal)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit, so no refusal
    try:
        check_exponent("1e" + "9" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)
