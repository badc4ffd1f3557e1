"""The library imports without ``dataclasses``, and so without the ``inspect`` module it loads.

Both cost a few milliseconds at start-up, more than a one-shot ``laakso
distance`` spends on its answer.  The records are ``__slots__`` classes on
``record.Record``; a static check over the ast of ``src/laakso`` keeps
``dataclasses`` out, and ``typing.NamedTuple`` and ``collections.namedtuple``
too, which generate their methods with ``eval`` at import.  A fresh
interpreter confirms that neither ``dataclasses`` nor ``inspect`` is loaded,
and that ``import laakso`` loads the nine core modules and no others.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "laakso"
GENERATORS = ("typing.NamedTuple", "collections.namedtuple")


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [f"line {node.lineno}: uses {name}" for name in names
                  if name.split(".")[0] == "dataclasses" or name in GENERATORS]
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_module_does_not_import_dataclasses(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "import dataclasses",
    "from dataclasses import dataclass",
    "import os, dataclasses as dc",
    "def later():\n    from dataclasses import field",
    "from typing import Iterator, NamedTuple",
    "import typing\nclass Level(typing.NamedTuple):\n    order: int",
    "from collections import namedtuple as record",
    "import collections\nLevel = collections.namedtuple('Level', 'order numerator')",
])
def test_each_kind_of_import_is_caught(snippet):
    assert violations(snippet)


def test_other_imports_pass():
    assert violations("from operator import attrgetter\nfrom .record import Record") == []
    assert violations("from typing import Iterator, Optional\nfrom collections import deque") == []


def test_a_fresh_interpreter_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys, laakso, laakso.oracle\n"
             "print(*sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_a_fresh_interpreter_loads_the_nine_core_modules_and_no_more():
    # start-up compiles every module import laakso loads; the oracle, the CLI
    # and the renderer load only when asked for
    probe = "import sys, laakso\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'laakso'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "laakso", "laakso.budget", "laakso.errors", "laakso.fractal", "laakso.geodesic",
        "laakso.numeric", "laakso.record", "laakso.space", "laakso.wormhole",
    ]
