"""Every public name and every helper has a caller: nothing exists only for the tests.

A name in ``laakso.__all__`` passes when a module of ``src/laakso`` other
than ``__init__.py`` loads it outside its own top-level definition, or when
``bench/`` names it (as an identifier, an attribute or a string, so that a
function the benchmark wraps by name counts).  A helper, a top-level
function or class that is not exported (private or not), passes on the
same terms, except that a load in its own module or an attribute load
(``oracle.iter_edges``) counts too.  A decorated function is skipped:
its decorator registers it (the CLI commands).  A method or a property
defined in a class body passes when a module of ``src/laakso`` reads its
name as an attribute, or when ``bench/`` names it; dunder methods are
called by Python and skipped.
"""

import ast
from pathlib import Path

import laakso

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "laakso"


def source_uses(sources: dict[str, str]) -> set[str]:
    """Names some module binds at top level and loads outside their own definition.

    A module binds a name by defining or importing it; a load of a name the
    module does not bind is a local variable that happens to share it.
    """
    used = set()
    for source in sources.values():
        body = ast.parse(source).body
        bound = {getattr(statement, "name", None) for statement in body}
        bound |= {alias.asname or alias.name for statement in body
                  if isinstance(statement, ast.ImportFrom) for alias in statement.names}
        for statement in body:
            defined = getattr(statement, "name", None)
            used |= {node.id for node in ast.walk(statement)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     and node.id in bound and node.id != defined}
    return used


def bench_mentions(sources: list[str]) -> set[str]:
    """Identifiers, attributes, imported names and strings anywhere in the sources."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def unused_exports(exports, sources: dict[str, str], bench: list[str]) -> list[str]:
    callers = source_uses({name: text for name, text in sources.items() if name != "__init__.py"})
    callers |= bench_mentions(bench)
    return sorted(name for name in exports if name not in callers)


def unused_helpers(exports, sources: dict[str, str], bench: list[str]) -> list[str]:
    callers = source_uses(sources) | bench_mentions(bench)
    helpers = set()
    for source in sources.values():
        tree = ast.parse(source)
        callers |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        helpers |= {statement.name for statement in tree.body
                    if isinstance(statement, ast.ClassDef) or (isinstance(statement, ast.FunctionDef)
                                                               and not statement.decorator_list)}
    return sorted(name for name in helpers - callers
                  if name not in exports and not name.startswith("__"))


def unused_methods(sources: dict[str, str], bench: list[str]) -> list[str]:
    """``Class.name`` of every non-dunder method or property that nothing reads."""
    callers = bench_mentions(bench)
    methods = []
    for source in sources.values():
        tree = ast.parse(source)
        callers |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        methods += [(cls.name, statement.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for statement in cls.body if isinstance(statement, ast.FunctionDef)
                    and not (statement.name.startswith("__") and statement.name.endswith("__"))]
    return sorted(f"{cls}.{name}" for cls, name in methods if name not in callers)


def test_every_export_has_a_caller():
    sources = {path.name: path.read_text() for path in SOURCE.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert unused_exports(laakso.__all__, sources, bench) == []


def test_an_export_nothing_calls_is_caught():
    sources = {
        "one.py": "def helper(x):\n    return helper(x - 1)\n\ndef used():\n    return 1\n",
        "two.py": "from .one import used\n\ndef f(helper):\n    return used(helper)\n",
        "__init__.py": "from .one import helper, used\nhelper(1)\n",
    }
    assert unused_exports(["helper", "used"], sources, []) == ["helper"]
    assert unused_exports(["helper"], sources, ['TARGETS = (("one", "helper"),)']) == []


def test_every_helper_has_a_caller():
    sources = {path.name: path.read_text() for path in SOURCE.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert unused_helpers(laakso.__all__, sources, bench) == []


def test_a_helper_nothing_calls_is_caught():
    sources = {
        "one.py": "def _left(x):\n    return _left(x - 1)\n\nclass _Kept:\n    pass\n\n"
                  "def loaded():\n    return _Kept()\n\ndef left_over():\n    pass\n\n"
                  "def exported():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "two.py": "from . import one\n\n@one.register\ndef command(_left):\n    return one.loaded(_left)\n",
    }
    assert unused_helpers(["exported"], sources, []) == ["_left", "left_over"]
    assert unused_helpers(["exported"], sources, ['TARGETS = (("one", "_left"),)']) == ["left_over"]


def test_every_method_has_a_caller():
    sources = {path.name: path.read_text() for path in SOURCE.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "bench").glob("*.py")]
    assert unused_methods(sources, bench) == []


def test_a_method_nothing_calls_is_caught():
    sources = {
        "one.py": "class Kept:\n    def __init__(self):\n        self._step()\n\n"
                  "    def _step(self):\n        pass\n\n    @property\n    def size(self):\n"
                  "        return 1\n\n    def left_over(self):\n        pass\n\n"
                  "    def wrapped(self):\n        pass\n",
        "two.py": "from .one import Kept\n\ndef f(size, left_over):\n    return Kept().size\n",
    }
    assert unused_methods(sources, []) == ["Kept.left_over", "Kept.wrapped"]
    assert unused_methods(sources, ['TARGETS = (("one", "Kept"), "wrapped")']) == ["Kept.left_over"]
