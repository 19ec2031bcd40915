"""Option lint: every parameter in ``src/repro`` is set by a caller and
read by its function.

An option with one value in use is a constant, and each independent
option doubles the configurations to cover.

* **Set.** A defaulted parameter of a function defined in ``src/repro``
  must be passed by some call in the package, the examples or the
  benchmark scripts: by keyword, by position, through ``*``/``**`` or
  through ``functools.partial``.  Calls match a function by name; for
  ``__init__`` that is a call of the class (or of a subclass that
  inherits it, or ``cls(...)`` in one of their methods), or
  ``super().__init__`` in a subclass.  Tests are not callers: a knob
  only a test turns is a constant of the program.
* **Read.** Every parameter whose name does not start with ``_`` is
  loaded somewhere in its function's body.

A signature that is a protocol is skipped: a function whose name is
referenced as a value in those trees (callbacks, driver ``run``s,
``EXECUTORS``, syscall tables), an override of a method a base class in
``src/repro`` defines (and, for the read rule, a method some subclass
overrides), a ``_sys_*`` handler and a dunder other than ``__init__``.
Matching by name over-counts uses, so the lint never flags a live
parameter; it does not catch every dead one either.  A parameter that
stays goes in ``OPTIONS_ALLOWED`` with the reason no caller in the
program can supply its value.
"""

import ast
import os

import repro

PACKAGE = os.path.dirname(repro.__file__)
ROOT = os.path.dirname(os.path.dirname(PACKAGE))

#: Trees whose calls and value references count.
CALLERS = ("src/repro", "examples", "bench", "benchmarks")

#: (file below ``src/repro``, qualname, parameter) -> why it stays.  A
#: class qualname covers its methods; parameter ``*`` covers them all.
OPTIONS_ALLOWED = {
    ("runtime/context.py", "ProcessContext", "*"):
        "the guest's syscall ABI: its arguments are the simulated "
        "program's input to the kernel, not options of this program",
    ("experiments/runner.py", "run_sweep", "experiments"):
        "the CI workflow's sweep smoke slice picks its five experiments "
        "through it: a caller in workflow YAML, outside the trees read",
}


def _names(node):
    """Name of what a call or a reference names, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class Census:
    """Calls, value references and the class graph of some sources."""

    def __init__(self):
        #: name -> [(positional args, first starred index or None,
        #: keywords, has ``**``)]
        self.calls = {}
        #: class -> the same, for ``super().__init__`` in that class
        self.super_inits = {}
        self.values = set()
        #: class -> base names; class -> method names
        self.bases = {}
        self.methods = {}

    def add(self, source: str) -> None:
        tree = ast.parse(source)
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                skip.update(id(a.annotation) for a in (
                    args.posonlyargs + args.args + args.kwonlyargs)
                    if a.annotation is not None)
                if node.returns is not None:
                    skip.add(id(node.returns))
                skip.update(id(d) for d in node.decorator_list)
            elif isinstance(node, ast.AnnAssign):
                skip.add(id(node.annotation))
        self._visit(tree, None, skip)

    def _record(self, name, args, keywords, table=None):
        star = next((i for i, a in enumerate(args)
                     if isinstance(a, ast.Starred)), None)
        (self.calls if table is None else table).setdefault(name, []).append(
            (len(args), star, {k.arg for k in keywords if k.arg},
             any(k.arg is None for k in keywords)))

    def _visit(self, node, owner, skip):
        if isinstance(node, ast.ClassDef):
            self.bases.setdefault(node.name, set()).update(
                filter(None, map(_names, node.bases)))
            self.methods.setdefault(node.name, set()).update(
                stmt.name for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))
            owner = node.name
        elif isinstance(node, ast.Call):
            func, name = node.func, _names(node.func)
            if (name == "__init__" and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Call)
                    and _names(func.value.func) == "super" and owner):
                self._record(owner, node.args, node.keywords,
                             self.super_inits)
            elif name == "partial" and node.args:
                self._record(_names(node.args[0]), node.args[1:],
                             node.keywords)
                skip.add(id(node.args[0]))
            elif name == "cls" and owner:
                self._record(owner, node.args, node.keywords)
            elif name is not None:
                self._record(name, node.args, node.keywords)
            if isinstance(func, ast.Attribute) and not isinstance(
                    func.value, ast.Name):
                # ``random.Random(7)`` calls into a namespace; it is
                # not a value of ``random``.
                self._visit(func.value, owner, skip)
            skip.add(id(func))
        elif id(node) in skip:
            return
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load):
            self.values.add(_names(node))
        for child in ast.iter_child_nodes(node):
            self._visit(child, owner, skip)

    def ancestors(self, cls):
        seen, todo = set(), list(self.bases.get(cls, ()))
        while todo:
            base = todo.pop()
            if base not in seen:
                seen.add(base)
                todo.extend(self.bases.get(base, ()))
        return seen

    def heirs(self, cls, method):
        """Subclasses that reach ``cls``'s ``method`` without defining
        their own."""
        found = set()
        for sub, bases in self.bases.items():
            if (cls in bases and sub != cls
                    and method not in self.methods.get(sub, ())):
                found |= {sub} | self.heirs(sub, method)
        return found

    def overridden(self, cls, method):
        return any(cls in self.ancestors(sub)
                   and method in self.methods.get(sub, ())
                   for sub in self.bases)

    def call_shapes(self, cls, name):
        """Every call that can reach function ``name`` (of class
        ``cls``, or a plain function when ``cls`` is None)."""
        if name != "__init__":
            return self.calls.get(name, [])
        owners = {cls} | self.heirs(cls, "__init__")
        shapes = []
        for owner in owners:
            shapes += self.calls.get(owner, [])
        for sub, bases in self.bases.items():
            if sub not in owners and bases & owners:
                shapes += self.super_inits.get(sub, [])
        return shapes


def functions(source: str):
    """``(line, class or None, qualname, node)`` for each function."""
    found = []

    def visit(node, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{owner}.{child.name}" if owner else child.name
                visit(child, qual, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{owner}.{child.name}" if owner else child.name
                found.append((child.lineno, cls, qual, child))
                visit(child, qual, None)
            else:
                visit(child, owner, cls)

    visit(ast.parse(source), "", None)
    return found


def _is_method(cls, node):
    return cls is not None and not any(
        _names(d) == "staticmethod" for d in node.decorator_list)


def unset_options(census, cls, node):
    """Defaulted parameters of ``node`` no call passes."""
    args = node.args
    positional = args.posonlyargs + args.args
    if _is_method(cls, node):
        positional = positional[1:]
    shapes = census.call_shapes(cls, node.name)
    unset = []
    defaulted = positional[len(positional) - len(args.defaults):]
    for arg in defaulted:
        slot = positional.index(arg)
        if not any(n > slot or (star is not None and slot >= star)
                   or arg.arg in kws or spread
                   for n, star, kws, spread in shapes):
            unset.append(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not any(
                arg.arg in kws or spread for _, _, kws, spread in shapes):
            unset.append(arg.arg)
    return unset


def unread_parameters(cls, node):
    """Parameters of ``node`` its body never loads."""
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    if _is_method(cls, node):
        params = params[1:]
    loads = {n.id for stmt in node.body for n in ast.walk(stmt)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [a.arg for a in params
            if not a.arg.startswith("_") and a.arg not in loads]


def sources(tree: str):
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, tree))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield (os.path.relpath(path, PACKAGE).replace(os.sep, "/"),
                           fh.read())


def option_findings(package=None, callers=None) -> list:
    """``(file, line, qualname, parameter, rule)`` for each parameter
    no caller sets (``"set"``) or its function never reads
    (``"read"``).  ``package`` and ``callers`` default to the source
    trees: ``{file: source}`` of the package, and more caller sources."""
    if package is None:
        package = dict(sources("src/repro"))
        callers = [source for tree in CALLERS[1:]
                   for _, source in sources(tree)]
    census = Census()
    for source in list(package.values()) + list(callers or ()):
        census.add(source)
    found = []
    for relpath, source in sorted(package.items()):
        for line, cls, qual, node in functions(source):
            name = node.name
            if (name.startswith("_sys_") or name in census.values
                    or (name.startswith("__") and name.endswith("__")
                        and name != "__init__")
                    or (cls is not None and any(
                        name in census.methods.get(base, ())
                        for base in census.ancestors(cls)))):
                continue
            for param in unset_options(census, cls, node):
                found.append((relpath, line, qual, param, "set"))
            if cls is None or not census.overridden(cls, name):
                for param in unread_parameters(cls, node):
                    found.append((relpath, line, qual, param, "read"))
    return found


def problems(findings, allowed) -> list:
    """One line per finding no ``allowed`` entry covers, per stale entry
    and per entry without a reason."""
    bad, used = [], set()
    for relpath, line, qual, param, rule in findings:
        entry = next((key for key in allowed
                      if key[0] == relpath
                      and (qual == key[1] or qual.startswith(key[1] + "."))
                      and key[2] in ("*", param)), None)
        if entry is None:
            bad.append(f"{relpath}:{line}: {qual}({param}) [{rule}]")
        else:
            used.add(entry)
    bad += [f"stale OPTIONS_ALLOWED entry {key}"
            for key in allowed if key not in used]
    bad += [f"OPTIONS_ALLOWED entry {key} needs a reason"
            for key, reason in allowed.items() if not reason]
    return bad


def _lint(package: str, *callers: str) -> list:
    """``(qualname, parameter, rule)`` findings of one synthetic module."""
    return [(qual, param, rule) for _, _, qual, param, rule
            in option_findings({"m.py": package}, callers)]


class TestOptionLint:
    def test_every_parameter_is_set_and_read(self):
        bad = problems(option_findings(), OPTIONS_ALLOWED)
        assert not bad, "options with one value in use:\n" + "\n".join(bad)

    def test_unset_default_and_unread_parameter_are_flagged(self):
        assert _lint(
            "def serve(port, backlog=128, retries=3):\n"
            "    return port, backlog, retries\n"
            "serve(80, 64)\n") == [("serve", "retries", "set")]
        assert _lint(
            "def row(name, scale):\n"
            "    return scale * 2\n"
            "row('a', 1)\n") == [("row", "name", "read")]
        # ``random.Random(7)`` uses a module, not a value of ``random``.
        assert _lint(
            "import random\n"
            "class Plan:\n"
            "    @staticmethod\n"
            "    def random(rng, max_faults=3):\n"
            "        return rng.randint(1, max_faults)\n"
            "Plan.random(random.Random(7))\n") == [
                ("Plan.random", "max_faults", "set")]
        # A test is not a caller: only the trees passed in count.
        assert _lint("def f(x=1):\n    return x\n") == [("f", "x", "set")]

    def test_protocols_and_spread_calls_are_not_flagged(self):
        # Referenced as a value: a callback whose caller is unknown.
        assert _lint("def on_done(proc, verbose=False):\n"
                     "    return proc\n"
                     "HOOKS = [on_done]\n") == []
        # An override keeps its base's signature, read or not.
        assert _lint("class Base:\n"
                     "    def run(self, limit=0):\n"
                     "        return limit\n"
                     "class Child(Base):\n"
                     "    def run(self, limit=5):\n"
                     "        return 1\n"
                     "Base().run(limit=3)\n") == []
        # Passed only through ``**``, by position through ``*`` or by
        # ``functools.partial``.
        assert _lint("def make(port=80, host='h'):\n"
                     "    return port, host\n",
                     "make(**options)\n") == []
        assert _lint("def make(port=80, host='h'):\n"
                     "    return port, host\n",
                     "make(*args)\n") == []
        assert _lint("def point(p, collect=False):\n"
                     "    return p, collect\n"
                     "w = functools.partial(point, collect=True)\n") == []
        # ``__init__`` is set by a call of the class, a subclass or
        # ``super().__init__``.
        assert _lint("class A:\n"
                     "    def __init__(self, size=1):\n"
                     "        self.size = size\n"
                     "class B(A):\n"
                     "    def __init__(self):\n"
                     "        super().__init__(size=2)\n"
                     "B()\n") == []

    def test_stale_or_reasonless_allowlist_entries_fail(self):
        finding = ("m.py", 1, "C.f", "x", "set")
        assert problems([finding], {("m.py", "C", "*"): "ABI"}) == []
        assert problems([finding], {("m.py", "C.f", "x"): "ABI"}) == []
        assert problems([], {("m.py", "C", "*"): "ABI"}) == [
            "stale OPTIONS_ALLOWED entry ('m.py', 'C', '*')"]
        assert problems([finding], {("m.py", "C", "*"): ""}) == [
            "OPTIONS_ALLOWED entry ('m.py', 'C', '*') needs a reason"]
        assert problems([finding], {}) == ["m.py:1: C.f(x) [set]"]
