"""Static checks that the CLI prints its JSON through one emitter, over the ast of ``src/laakso``.

``json.dumps`` with ``indent`` runs the standard library's pure-Python
encoder, several times slower than ``cli._json``.  No module calls it so,
and in ``cli.py`` only ``_emit`` prints what ``_json`` makes: every other
``click.echo`` prints an f-string line (an error, an edge), and nothing
calls ``print``.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "laakso"
#: The functions of ``cli.py`` that may call ``_json``: itself and the one emitter.
JSON_CALLERS = {"_json", "_emit"}


def _name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _calls(tree: ast.Module):
    """(name of the enclosing top-level definition, call) for every call in the module."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield owner, node


def violations(source: str, is_cli: bool = False) -> list[str]:
    found = []
    for owner, call in _calls(ast.parse(source)):
        where, name = f"line {call.lineno}", _name(call)
        if name in ("dump", "dumps") and any(k.arg == "indent" for k in call.keywords):
            found.append(f"{where}: {name} with indent")
        if not is_cli:
            continue
        if name == "print":
            found.append(f"{where}: print")
        elif name == "_json" and owner not in JSON_CALLERS:
            found.append(f"{where}: _json outside _emit")
        elif (name == "echo" and owner != "_emit"
              and not (call.args and isinstance(call.args[0], ast.JoinedStr))):
            found.append(f"{where}: echo of something other than an f-string outside _emit")
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_module_prints_json_through_one_emitter(path):
    assert violations(path.read_text(), path.name == "cli.py") == []


@pytest.mark.parametrize("snippet", [
    "text = json.dumps(payload, indent=2)",
    "from json import dump\ndump(payload, out, indent=4)",
    "def wormholes():\n    click.echo(json.dumps(levels))",
    "def matrix():\n    click.echo(table)",
    "def distance_cmd():\n    print(_json(payload))",
    "def geodesic_cmd():\n    text = _json(payload)",
])
def test_each_kind_of_breach_is_caught(snippet):
    assert violations(snippet, is_cli=True)


def test_the_emitter_and_line_output_pass():
    assert violations("def _emit(payload):\n    click.echo(_json(payload))", is_cli=True) == []
    assert violations('def main():\n    click.echo(f"error: {exc}", err=True)', is_cli=True) == []
    assert violations("json.dumps(payload)") == []
    assert violations("print(text)") == []
