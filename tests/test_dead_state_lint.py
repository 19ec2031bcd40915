"""Dead-code lint: ``src/repro`` keeps no unreachable ``yield`` and no
state that nothing reads.

* A ``yield`` directly after a ``return`` or ``raise`` in the same block
  never runs; it only turns a plain function into a generator.  A kernel
  handler is a generator only where it can block (DESIGN.md §5d).
* An attribute stored in ``src/repro`` must be read somewhere: its name
  loaded as an attribute in the package, the examples, the tests or the
  benchmark scripts, or spelled as a string constant (``getattr``,
  ``__slots__``-driven ``as_dict``).  The census is by name, so a store
  whose name some other object's attribute shares passes; it catches a
  counter bumped for no reader, not every one.  A store that stays
  unread goes in ``UNREAD_ALLOWED`` with the reason it stays.
* A name a module or class body in ``src/repro`` assigns (a constant, a
  dataclass field, a method alias) must be read the same way, or
  loaded as a plain name.  An f-string whose text starts with an
  identifier prefix ending in ``_`` (``getattr(self, f"_sys_{name}")``)
  reads every name with that prefix.  One that stays unread goes in
  ``UNREAD_NAMES_ALLOWED``.
"""

import ast
import os

import repro

PACKAGE = os.path.dirname(repro.__file__)
ROOT = os.path.dirname(os.path.dirname(PACKAGE))

#: Trees whose attribute loads and string constants count as reads.
READERS = ("src/repro", "examples", "tests", "bench", "benchmarks")

#: (file below ``src/repro``, attribute) -> why it is stored unread.
UNREAD_ALLOWED: dict = {}

#: (file below ``src/repro``, ``name`` or ``Class.name``) -> why it is
#: assigned unread.
UNREAD_NAMES_ALLOWED = {
    ("experiments/harness.py", "ExperimentResult.paper_reference"):
        "the paper's own values for each experiment, kept as data beside "
        "the reproduced rows; EXPERIMENTS.md quotes them and nothing "
        "computes with them",
}


def unreachable_yields(source: str) -> list:
    """Lines of each ``yield`` statement that directly follows a
    ``return`` or ``raise`` in the same block."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for before, after in zip(block, block[1:]):
                if (isinstance(before, (ast.Return, ast.Raise))
                        and isinstance(after, ast.Expr)
                        and isinstance(after.value,
                                       (ast.Yield, ast.YieldFrom))):
                    found.append(after.lineno)
    return found


def stores_and_reads(source: str):
    """``(stores, reads)``: ``(line, enclosing qualname, attribute)`` for
    each attribute store, and the set of names read."""
    stores, reads = [], set()

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node.ctx, ast.Store):
                stores.append((node.lineno, owner, node.attr))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            reads.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return stores, reads


def definitions_and_loads(source: str):
    """``(defined, loads, prefixes)``: ``(line, enclosing class or "",
    name)`` for each non-dunder name a module or class body assigns, the
    plain names loaded, and the identifier prefixes f-strings start
    with."""
    tree = ast.parse(source)
    defined = []

    def targets(node):
        if isinstance(node, ast.Name):
            yield node
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from targets(element)

    def scan(body, owner):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                scan(stmt.body, f"{owner}.{stmt.name}" if owner
                     else stmt.name)
                continue
            if isinstance(stmt, ast.Assign):
                assigned = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                assigned = [stmt.target]
            else:
                continue
            for target in assigned:
                defined.extend((name.lineno, owner, name.id)
                               for name in targets(target)
                               if not (name.id.startswith("__")
                                       and name.id.endswith("__")))

    scan(tree.body, "")
    loads, prefixes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif (isinstance(node, ast.JoinedStr) and node.values
                and isinstance(node.values[0], ast.Constant)):
            text = node.values[0].value
            if text.isidentifier() and text.endswith("_"):
                prefixes.add(text)
    return defined, loads, prefixes


def sources(tree: str):
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, tree))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield (os.path.relpath(path, PACKAGE).replace(os.sep, "/"),
                           fh.read())


def unread_stores() -> list:
    """``(file, line, qualname, attribute)`` for each store no reader
    reads."""
    stored, reads = [], set()
    for tree in READERS:
        for relpath, source in sources(tree):
            stores, names = stores_and_reads(source)
            reads |= names
            if tree == "src/repro":
                stored += [(relpath, *store) for store in stores]
    return [store for store in stored if store[3] not in reads]


def unread_names() -> list:
    """``(file, line, key)`` for each module- or class-level name no
    reader reads; ``key`` is ``name`` or ``Class.name``."""
    defined, reads, prefixes = [], set(), set()
    for tree in READERS:
        for relpath, source in sources(tree):
            names, loads, spelled = definitions_and_loads(source)
            reads |= loads | stores_and_reads(source)[1]
            prefixes |= spelled
            if tree == "src/repro":
                defined += [(relpath, *name) for name in names]
    prefixes = tuple(sorted(prefixes))
    return [(relpath, line, f"{owner}.{name}" if owner else name)
            for relpath, line, owner, name in defined
            if name not in reads and not name.startswith(prefixes)]


class TestDeadStateLint:
    def test_no_yield_after_return_or_raise(self):
        bad = [f"{relpath}:{line}"
               for relpath, source in sources("src/repro")
               for line in unreachable_yields(source)]
        assert not bad, "unreachable yield at\n" + "\n".join(bad)

    def test_every_stored_attribute_is_read(self):
        bad, allowed = [], set()
        for relpath, line, owner, attr in unread_stores():
            if (relpath, attr) in UNREAD_ALLOWED:
                allowed.add((relpath, attr))
            else:
                bad.append(f"{relpath}:{line}: {owner}: .{attr}")
        assert not bad, "stored, never read:\n" + "\n".join(bad)
        assert allowed == set(UNREAD_ALLOWED), "stale UNREAD_ALLOWED entries"
        assert all(UNREAD_ALLOWED.values()), "every entry needs a reason"

    def test_every_module_and_class_name_is_read(self):
        bad, allowed = [], set()
        for relpath, line, key in unread_names():
            if (relpath, key) in UNREAD_NAMES_ALLOWED:
                allowed.add((relpath, key))
            else:
                bad.append(f"{relpath}:{line}: {key}")
        assert not bad, "assigned, never read:\n" + "\n".join(bad)
        assert allowed == set(UNREAD_NAMES_ALLOWED), (
            "stale UNREAD_NAMES_ALLOWED entries")
        assert all(UNREAD_NAMES_ALLOWED.values()), (
            "every entry needs a reason")

    def test_each_rule_fires(self):
        assert unreachable_yields(
            "def f():\n    return 1\n    yield\n") == [3]
        assert unreachable_yields(
            "def f():\n    if x:\n        raise E\n        yield from g()\n"
        ) == [4]
        assert unreachable_yields(
            "def f():\n    yield\n    return 1\n") == []
        stores, reads = stores_and_reads(
            "class C:\n"
            "    def f(self):\n"
            "        self.kept = self.count = 0\n"
            "        self.count += 1\n"
            "        return getattr(self, 'kept')\n")
        assert stores == [(3, "C.f", "kept"), (3, "C.f", "count"),
                          (4, "C.f", "count")]
        assert "kept" in reads and "count" not in reads
        defined, loads, prefixes = definitions_and_loads(
            "A, B = 1, 2\n"
            "C: int = A\n"
            "__all__ = ['C']\n"
            "class K:\n"
            "    field: int = 0\n"
            "    alias = run\n"
            "    def run(self, x):\n"
            "        local = 1\n"
            "        return getattr(self, f'_do_{x}'), f'v{x}'\n")
        assert defined == [(1, "", "A"), (1, "", "B"), (2, "", "C"),
                           (5, "K", "field"), (6, "K", "alias")]
        assert {"A", "run"} <= loads and not {"B", "C", "field"} & loads
        assert prefixes == {"_do_"}
