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
