#!/usr/bin/env python3
"""Call census of ``src/repro``: the named functions that no run enters.

    python benchmarks/census.py            # run every input, print the list
    python benchmarks/census.py --check    # ... exit 1 unless it is ALLOWLIST

Each input in ``inputs()`` runs in a fresh interpreter whose
``PYTHONPATH`` starts with a generated ``sitecustomize.py``.  That hook
sets a ``sys.settrace`` function in every thread, records the code
object of each frame as it starts, and writes the set when the process
ends: at ``atexit``, or in ``os._exit`` for the sweep runner's forked
workers.  Child interpreters (``bench/run.py``'s, the CLI round trips
in the tests) inherit the environment and are counted too.

A function is keyed by its file below ``src/`` and its qualified name
(``#2`` marks a second definition of the same name, such as a property
setter).  Lambdas and comprehensions are not named functions and are
left out.  A function that no input enters is deleted, or tested, or
listed in ALLOWLIST under the category that says why it stays.
``--check`` also fails on a stale entry: one that some input enters or
that no longer exists.

The nightly chaos and fuzz campaigns (four seeds each, 200 plans local
and remote, budget 40) entered nothing these inputs miss, so they are
not inputs.  The whole census takes about 17 minutes on a 2-vCPU host
(the traced sweep is half of it), so it is a nightly step.  Leave the
tree alone while it runs: keys come from the source as it was at the
start.  ``co_qualname`` needs Python 3.11.
"""

from __future__ import annotations

import argparse
import collections
import glob
import inspect
import os
import subprocess
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

SITECUSTOMIZE = '''\
import atexit, os, sys, tempfile, threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")
if _OUT:
    _PACKAGE = os.environ["REPRO_CENSUS_PACKAGE"] + os.sep
    _codes = set()
    _dumped = set()

    def _trace(frame, event, arg):
        # A global trace function is called for "call" events only, and
        # returning None leaves the new frame untraced.
        _codes.add(frame.f_code)

    def _dump():
        if os.getpid() in _dumped:
            return
        _dumped.add(os.getpid())
        fd, _name = tempfile.mkstemp(dir=_OUT, suffix=".census")
        with os.fdopen(fd, "w") as fh:
            for code in list(_codes):
                path = os.path.realpath(code.co_filename)
                if path.startswith(_PACKAGE):
                    fh.write(f"{path}\\t{code.co_firstlineno}\\t"
                             f"{code.co_name}\\n")

    _os_exit = os._exit

    def _dump_and_exit(status):
        _dump()
        _os_exit(status)

    os._exit = _dump_and_exit
    atexit.register(_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)
'''

#: Why a never-entered function stays.
CATEGORIES = {
    "debug": "debug output: pytest failure reports and debuggers call it",
    "declaration": "declaration: an interface stub, or one row of the "
                   "per-inode errno table",
    "fault-only": "reached only when an injected fault lands in a window "
                  "no seeded campaign has hit",
    "mechanism": "kernel handler named by a mechanism table (LOCAL_CALLS, "
                 "EXEC_LOCAL_AFTER_CONSUME, PID_ARG_CALLS, BLOCKING_CALLS, "
                 "LOCAL_REGENERABLE, VDSO_CALLS or the leader table), "
                 "which promises the kernel implements it",
    "support": "called only by a mechanism-table handler",
}

_KERNEL = "repro/kernel/kernel.py:Kernel._sys_"
_TRANSPORT = "repro/core/transport.py:EventTransport."

#: Never-entered functions that stay: key -> category.
ALLOWLIST: dict[str, str] = {key: category for category, keys in {
    "debug": [
        "repro/bpf/insn.py:BpfInsn.__str__",
        "repro/core/events.py:Event.__repr__",
        "repro/faults/plan.py:FaultPlan.__len__",
        "repro/isa/memory.py:Segment.__repr__",
        "repro/kernel/task.py:Task.__repr__",
        "repro/sim/core.py:Block.__repr__",
        "repro/sim/core.py:Compute.__repr__",
        "repro/sim/core.py:Process.__repr__",
        "repro/sim/core.py:Sleep.__repr__",
        "repro/sim/machine.py:Machine.__repr__",
        # Read by Machine.__repr__.
        "repro/sim/machine.py:Machine.busy_cores",
        "repro/sim/sync.py:WaitQueue.__len__",
    ],
    "declaration": [
        *[_TRANSPORT + name for name in (
            "add_consumer", "advance", "extra_metrics", "lag_of", "peek",
            "publish", "remove_consumer", "wait_advanced",
            "wait_published", "wake_all")],
        "repro/kernel/vfs.py:DevURandom.write_at",
        "repro/kernel/vfs.py:DevZero.write_at",
        "repro/kernel/vfs.py:Directory.read_at",
        "repro/kernel/vfs.py:Directory.write_at",
        "repro/kernel/vfs.py:Inode.read_at",
        "repro/kernel/vfs.py:Inode.size",
        "repro/kernel/vfs.py:Inode.write_at",
    ],
    "fault-only": [
        "repro/clients/adversaries.py:_reconnect",
        "repro/clients/loadgen.py:make_open_loop.<locals>.make_actor."
        "<locals>.main.<locals>.on_timeout",
    ],
    "mechanism": [_KERNEL + name for name in (
        "accept4", "arch_prctl", "chdir", "clock_nanosleep", "exit",
        "getcpu", "getcwd", "getdents", "getrlimit", "getrusage", "lstat",
        "madvise", "mprotect", "munmap", "poll", "prctl", "recvmsg",
        "rt_sigprocmask", "sched_getaffinity", "sched_setaffinity",
        "select", "set_robust_list", "set_tid_address", "setrlimit",
        "sigaltstack", "umask", "uname")],
    "support": [
        # Read by _sys_set_tid_address.
        "repro/kernel/task.py:Task.current_tid",
    ],
}.items() for key in keys}


def inputs(out: str) -> list:
    """(argv, exit statuses meaning the input ran as intended)."""
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    repro = [py, "-m", "repro"]
    examples = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    return [
        (pytest + ["-m", "slow or not slow", "tests"], (0,)),
        # pytest-benchmark's timer hides calls from a trace function:
        # with it on, these tests enter a third of what they do without.
        (pytest + ["--benchmark-disable", "benchmarks"], (0,)),
        (pytest + ["bench/tests"], (0,)),
        *[([py, path], (0,)) for path in examples],
        (repro + ["list"], (0,)),
        (repro + ["sweep", "--scale", "0.008", "--metrics",
                  "--check-reference"], (0,)),
        (repro + ["trace", "figure4", "--out",
                  os.path.join(out, "figure4.json"), "--jsonl",
                  os.path.join(out, "figure4.jsonl")], (0,)),
        (repro + ["trace", "distributed", "--placement", "remote", "--out",
                  os.path.join(out, "distributed.json")], (0,)),
        (repro + ["chaos", "--seed", "7", "--plans", "20"], (0,)),
        # Plans 41 and 104 stall (tests/corpus/), so this exits 1.
        (repro + ["chaos", "--seed", "7", "--plans", "120", "--placement",
                  "remote"], (1,)),
        (repro + ["fuzz", "--seed", "1", "--budget", "8"], (0,)),
        (repro + ["load", "--scale", "0.008"], (0,)),
        ([py, "benchmarks/check_encoding.py"], (0,)),
        ([py, "bench/run.py", "--trace", "1", "--seconds", "1", "--out",
          os.path.join(out, "layers.json")], (0,)),
    ]


def defined_functions() -> dict:
    """(real path, first line, name) -> key, for every named function."""
    table = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        path = os.path.realpath(path)
        with open(path) as fh:
            pending = [compile(fh.read(), path, "exec")]
        found = []
        while pending:
            for const in pending.pop().co_consts:
                if isinstance(const, types.CodeType):
                    pending.append(const)
                    if (const.co_flags & inspect.CO_OPTIMIZED
                            and not const.co_name.startswith("<")):
                        found.append(const)
        seen = collections.Counter()
        for code in sorted(found, key=lambda code: code.co_firstlineno):
            name = f"{os.path.relpath(path, SRC)}:{code.co_qualname}"
            seen[name] += 1
            table[(path, code.co_firstlineno, code.co_name)] = (
                name if seen[name] == 1 else f"{name}#{seen[name]}")
    return table


def run_inputs(out: str) -> set:
    """Run every input under the hook; the (path, line, name) it entered."""
    hook = os.path.join(out, "hook")
    os.makedirs(hook)
    with open(os.path.join(hook, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)
    dumps = os.path.join(out, "dumps")
    os.makedirs(dumps)
    env = dict(os.environ, REPRO_CENSUS_OUT=dumps,
               REPRO_CENSUS_PACKAGE=os.path.realpath(PACKAGE),
               PYTHONPATH=os.pathsep.join(
                   [hook, SRC] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
    for argv, expected in inputs(out):
        shown = " ".join(os.path.relpath(a, ROOT) if a.startswith(ROOT)
                         else a for a in argv[1:])
        started = time.monotonic()
        log = os.path.join(out, "input.log")
        with open(log, "w") as fh:
            status = subprocess.call(argv, cwd=ROOT, env=env, stdout=fh,
                                     stderr=subprocess.STDOUT)
        print(f"  {time.monotonic() - started:7.1f} s  exit {status}  "
              f"{shown}", file=sys.stderr)
        if status not in expected:
            with open(log) as fh:
                sys.stderr.write("".join(fh.readlines()[-40:]))
            raise SystemExit(f"census input failed: {shown}")
    entered = set()
    for path in glob.glob(os.path.join(dumps, "*.census")):
        with open(path) as fh:
            for line in fh:
                source, first, name = line.rstrip("\n").split("\t")
                entered.add((source, int(first), name))
    return entered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a never-entered function is not "
                             "in ALLOWLIST or an ALLOWLIST entry is stale")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        raise SystemExit("the census keys functions by co_qualname: "
                         "Python >= 3.11")
    assert set(ALLOWLIST.values()) <= set(CATEGORIES)
    defined = defined_functions()
    with tempfile.TemporaryDirectory() as out:
        entered = {defined[site] for site in run_inputs(out)
                   if site in defined}
    never = sorted(set(defined.values()) - entered)
    unlisted = [key for key in never if key not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - set(never))
    for key in never:
        print(f"{key}  [{ALLOWLIST.get(key, 'UNLISTED')}]")
    for key in stale:
        print(f"{key}  [STALE: "
              f"{'entered' if key in entered else 'no such function'}]")
    print(f"{len(defined)} named functions, {len(entered)} entered, "
          f"{len(never)} never entered: {len(never) - len(unlisted)} "
          f"allowlisted, {len(unlisted)} unlisted; {len(stale)} stale "
          f"allowlist entries")
    return 1 if args.check and (unlisted or stale) else 0


if __name__ == "__main__":
    raise SystemExit(main())
