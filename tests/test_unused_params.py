"""Lint: every function parameter in ``src/splitsim`` is read by its body.

A parameter that no line reads cannot change a run, yet it reads as if it
did (a ``now`` passed to a batching method suggests that batching depends
on the clock).  ``self``, ``cls`` and ``_``-prefixed names are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splitsim"


def unused_parameters(source: str, filename: str) -> list[str]:
    """``file:line name`` for each parameter its function never reads."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{filename}:{node.lineno} {p.arg}" for p in params if p.arg not in read]
    return found


def test_finds_an_unread_parameter():
    source = "def f(a, b, _c, *args):\n    return a\n"
    assert unused_parameters(source, "x.py") == ["x.py:1 b", "x.py:1 args"]


def test_every_parameter_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += unused_parameters(path.read_text(), path.name)
    assert found == []
