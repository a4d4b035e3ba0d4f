"""Lint: every function parameter in ``src/splitsim`` is read by its body,
and every ``_``-prefixed module-level name, and every ``_``-prefixed
attribute that the package stores, is read somewhere in the package.

A parameter that no line reads cannot change a run, yet it reads as if it
did (a ``now`` passed to a batching method suggests that batching depends
on the clock).  ``self``, ``cls`` and ``_``-prefixed parameters are exempt.
A private helper, constant, counter or attribute that nothing reads is left
over from code that was removed.
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


def private_names(source: str, filename: str) -> list[tuple[str, str]]:
    """``(name, "file:line name")`` for each ``_``-prefixed module-level name."""
    found = []
    for node in ast.parse(source, filename).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [(name, f"{filename}:{node.lineno} {name}") for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def read_names(source: str) -> set[str]:
    """Every name that ``source`` loads, bare or as an attribute."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``file:line name`` for each private module-level name no source reads."""
    read = set().union(*map(read_names, sources.values()))
    return [where for filename, source in sources.items()
            for name, where in private_names(source, filename) if name not in read]


def stored_private_attributes(source: str, filename: str) -> list[tuple[str, str]]:
    """``(name, "file:line name")`` for each ``_``-prefixed attribute that a
    ``self._x = ...`` target or a class-level annotation ``_x: T`` stores."""
    stored = []  # (name, line)
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ClassDef):
            stored += [(s.target.id, s.lineno) for s in node.body
                       if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            stored.append((node.attr, node.lineno))
    return [(name, f"{filename}:{line} {name}") for name, line in sorted(stored, key=lambda s: s[1])
            if name.startswith("_") and not name.startswith("__")]


def unread_private_attributes(sources: dict[str, str]) -> list[str]:
    """``file:line name`` for each stored private attribute that no source
    loads; an augmented assignment (``self._n += 1``) is not a read."""
    read = {n.attr for source in sources.values() for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [where for filename, source in sources.items()
            for name, where in stored_private_attributes(source, filename) if name not in read]


def test_finds_an_unread_parameter():
    source = "def f(a, b, _c, *args):\n    return a\n"
    assert unused_parameters(source, "x.py") == ["x.py:1 b", "x.py:1 args"]


def test_every_parameter_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += unused_parameters(path.read_text(), path.name)
    assert found == []


def test_finds_an_unread_private_name():
    sources = {"a.py": "_a = 1\n_b: int = 2\ndef _f():\n    return _a\nclass _C: pass\n",
               "b.py": "import a\n__all__ = []\nprint(a._C)\n"}
    assert unread_private_names(sources) == ["a.py:2 _b", "a.py:3 _f"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_finds_an_unread_private_attribute():
    sources = {"a.py": "class A:\n    _a: int = 0\n    _b: int = 0\n    pub: int = 0\n"
                       "    def f(self, other):\n        self._c = other._c\n"
                       "        self._d, self._e = 1, 2\n        self._f += 1\n"
                       "        return self._a\n",
               "b.py": "def g(x):\n    x._g = 0\n    return x._e\n"}
    assert unread_private_attributes(sources) == ["a.py:3 _b", "a.py:7 _d", "a.py:8 _f"]


def test_every_private_attribute_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_attributes(sources) == []
