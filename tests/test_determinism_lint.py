"""Determinism lint: ``src/repro`` may not read host nondeterminism.

Every run is a pure function of its seed (DESIGN.md §5), so the source
must not consult what differs from one interpreter to the next: the
builtin ``hash()`` (salted per process by ``PYTHONHASHSEED``), wall
clocks, ``os.urandom``, the global ``random`` generator, or ``id()``.
A seeded ``random.Random(seed)`` is fine.  ``import time`` is allowed in
``__main__.py`` only, which prints how long a command took.
"""

import ast
import os

import repro

PACKAGE = os.path.dirname(repro.__file__)

#: ``id()`` used as an identity key, never as an order: (file below
#: ``src/repro``, enclosing function) -> what it keys.
ID_ALLOWED = {
    ("isa/translator.py", "TranslationCache.lookup"):
        "by_segment: blocks translated from one live segment",
    ("isa/translator.py", "TranslationCache._evict_segment"):
        "by_segment: blocks translated from one live segment",
    ("core/ringbuffer.py", "event_seal"):
        "the seal compares the payload by pointer",
}

CLOCK_MODULES = {"time", "datetime"}
CLOCK_ALLOWED = {"__main__.py"}


def findings(source: str, relpath: str) -> list:
    """``(line, message, enclosing qualname)`` for each read of host
    nondeterminism in ``source``, allowed ``id()`` keys included."""
    found = []
    scope = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope.append(node.name)
            for child in ast.iter_child_nodes(node):
                visit(child)
            scope.pop()
            return
        message = check(node)
        if message:
            found.append((node.lineno, message, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child)

    def check(node):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if (alias.name.split(".")[0] in CLOCK_MODULES
                        and relpath not in CLOCK_ALLOWED):
                    return f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in CLOCK_MODULES and relpath not in CLOCK_ALLOWED:
                return f"from {node.module} import"
            if node.module == "os" and "urandom" in names:
                return "os.urandom"
            if node.module == "random" and names - {"Random"}:
                return "global random generator"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("hash", "id"):
                return f"{func.id}()"
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                module, name = func.value.id, func.attr
                if module == "os" and name == "urandom":
                    return "os.urandom"
                if module == "random" and name != "Random":
                    return f"random.{name}()"
                if module == "random" and not (node.args or node.keywords):
                    return "unseeded random.Random()"
        return None

    visit(ast.parse(source))
    return found


def package_sources():
    for folder, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield (os.path.relpath(path, PACKAGE).replace(os.sep, "/"),
                           fh.read())


class TestDeterminismLint:
    def test_package_reads_no_host_nondeterminism(self):
        bad, allowed = [], set()
        for relpath, source in package_sources():
            for line, message, qualname in findings(source, relpath):
                if message == "id()" and (relpath, qualname) in ID_ALLOWED:
                    allowed.add((relpath, qualname))
                else:
                    bad.append(f"{relpath}:{line}: {message}")
        assert not bad, "\n".join(bad)
        assert allowed == set(ID_ALLOWED), "stale ID_ALLOWED entries"

    def test_each_rule_fires(self):
        cases = {
            "x = hash('server')": "hash()",
            "import time": "import time",
            "import datetime as dt": "import datetime",
            "from time import monotonic": "from time import",
            "import os\nos.urandom(8)": "os.urandom",
            "from os import urandom": "os.urandom",
            "import random\nrandom.randrange(9)": "random.randrange()",
            "from random import choice": "global random generator",
            "import random\nrandom.Random()": "unseeded random.Random()",
            "def f(x):\n    return id(x)": "id()",
        }
        for source, message in cases.items():
            assert [m for _, m, _ in findings(source, "x.py")] == [message], \
                source
        assert findings("import time", "__main__.py") == []
        assert findings("import random\nrandom.Random(7)", "x.py") == []
