#!/usr/bin/env python3
"""Call census of ``src/repro``: the named functions no user-facing run
enters.

    python benchmarks/census.py            # run every input, print the list
    python benchmarks/census.py --check    # ... exit 1 unless it is ALLOWLIST

The inputs in ``inputs()`` are what a user runs: every example, the CLI
commands and the bench workloads (``bench/run.py``).  The tests are not
inputs.  A function that no input enters is deleted together with the
tests that exist only for it, or listed in ALLOWLIST under the category
that says why no user-facing run can reach it.  "A test calls it" is
not such a reason.  ``--check`` also fails on a stale entry: one that
some input enters or that no longer exists.

Each input runs in a fresh interpreter whose ``PYTHONPATH`` starts with
a generated ``sitecustomize.py``.  That hook sets a ``sys.settrace``
function in every thread, records the code object of each frame as it
starts, and writes the set when the process ends: at ``atexit``, or in
``os._exit`` for the sweep runner's forked workers.  Child interpreters
(``bench/run.py``'s) inherit the environment and are counted too.

A function is keyed by its file below ``src/`` and its qualified name
(``#2`` marks a second definition of the same name, such as a property
setter).  Lambdas and comprehensions are not named functions and are
left out.

The nightly chaos and fuzz campaigns (four seeds each, 200 plans local
and remote, budget 40) entered nothing these inputs miss, so they are
not inputs.  The whole census takes about 15 minutes on a 2-vCPU host
(the traced sweep is most of it), so it is a nightly step.  Leave the
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

#: Why a never-entered function stays: what no user-facing run supplies.
CATEGORIES = {
    "debug": "debug output: pytest failure reports and debuggers call it",
    "declaration": "declaration: an interface stub, or one file kind's "
                   "version of a method every kind implements (read, "
                   "write, size, poll, close) for a kind no shipped "
                   "program uses that way",
    "error-path": "the error branch of a system call: no shipped program "
                  "makes a checked call fail",
    "fault-only": "reached only by an injected fault no seeded campaign "
                  "draws, or in a window none has hit",
    "int0": "the rewriter's INT 0 fallback, for a syscall site whose "
            "patch window holds a branch target; no shipped image has one",
    "late-code": "code that changes after load: a segment re-protected, "
                 "unmapped or rewritten in place, and the rewriting and "
                 "translation invalidation it sets off; every shipped "
                 "guest maps its code once",
    "mechanism": "kernel handler named by a mechanism table (LOCAL_CALLS, "
                 "EXEC_LOCAL_AFTER_CONSUME, PID_ARG_CALLS, BLOCKING_CALLS, "
                 "LOCAL_REGENERABLE, VDSO_CALLS or the leader table), "
                 "which promises the kernel implements it, or an entry "
                 "of the leader and follower call tables themselves",
    "recovery": "failure recovery: runs only when a follower diverges "
                "from the log or loses a descriptor in a failover, which "
                "no user-facing run provokes",
    "semantics": "instruction semantics: a BPF opcode the assembler "
                 "accepts that no shipped rule uses, or a VX86 opcode's "
                 "per-step executor that no shipped guest runs in a cold "
                 "block",
    "support": "called only by a mechanism-table handler",
}

_KERNEL = "repro/kernel/kernel.py:Kernel._sys_"
_TABLES = "repro/core/tables.py:make_"

#: Never-entered functions that stay: key -> category.
ALLOWLIST: dict[str, str] = {key: category for category, keys in {
    "debug": [
        "repro/bpf/insn.py:BpfInsn.__str__",
        "repro/core/events.py:Event.__repr__",
        "repro/faults/plan.py:FaultPlan.__len__",
        "repro/isa/disassembler.py:Insn.__str__",
        # Read by Insn.__str__.
        "repro/isa/disassembler.py:Insn._format_operands",
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
        "repro/kernel/epoll.py:Epoll.on_last_close",
        "repro/kernel/net.py:ListenerSocket.on_last_close",
        "repro/kernel/net.py:PipeEnd.on_last_close",
        "repro/kernel/vfs.py:DevNull.read_at",
        "repro/kernel/vfs.py:DevURandom.write_at",
        "repro/kernel/vfs.py:DevZero.write_at",
        "repro/kernel/vfs.py:Directory.read_at",
        "repro/kernel/vfs.py:Directory.write_at",
        "repro/kernel/vfs.py:FileDesc.poll_mask",
        "repro/kernel/vfs.py:FileDescription.poll_mask",
        "repro/kernel/vfs.py:Inode.read_at",
        "repro/kernel/vfs.py:Inode.size",
        "repro/kernel/vfs.py:Inode.write_at",
    ],
    "error-path": [
        "repro/kernel/uapi.py:SysResult.errno",
    ],
    "fault-only": [
        "repro/clients/adversaries.py:_reconnect",
        "repro/clients/loadgen.py:make_open_loop.<locals>.make_actor."
        "<locals>.main.<locals>.on_timeout",
        # The BITFLIP fault kind: no chaos or fuzz campaign draws it.
        "repro/faults/injector.py:FaultInjector._bitflip",
        "repro/isa/memory.py:AddressSpace.bitflip",
        # Ring damage in a replay session: no campaign injects there.
        "repro/core/config.py:Session.report_ring_fault",
    ],
    "int0": [
        "repro/rewriter/entrypoint.py:make_int0_handler.<locals>.handler",
        "repro/rewriter/patchset.py:PatchSet.site_for_int_rip",
    ],
    "late-code": [
        "repro/isa/memory.py:AddressSpace.mprotect",
        "repro/isa/memory.py:AddressSpace.unmap",
        "repro/isa/memory.py:Segment._sync_perm_flags",
        "repro/isa/translator.py:TranslationCache._evict_segment",
        "repro/isa/translator.py:TranslationCache.flush",
        "repro/rewriter/rewriter.py:BinaryRewriter._on_executable",
    ],
    "mechanism": [
        *[_KERNEL + name for name in (
            "accept4", "arch_prctl", "brk", "chdir", "exit", "exit_group",
            "futex", "getcpu", "getcwd", "getdents", "getrlimit",
            "getrusage", "kill", "madvise", "mmap", "mprotect", "munmap",
            "poll", "prctl", "rt_sigaction", "rt_sigprocmask",
            "sched_getaffinity", "sched_setaffinity", "sched_yield",
            "set_robust_list", "set_tid_address", "setrlimit",
            "sigaltstack", "umask", "uname")],
        _TABLES + "follower_table.<locals>.follower_exit",
        _TABLES + "leader_table.<locals>.leader_exit",
    ],
    "recovery": [
        "repro/core/monitor.py:ReplicaMonitor._regenerate_fds",
        "repro/core/monitor.py:ReplicaMonitor._rescue_fd",
        "repro/recordreplay/replayer.py:ReplaySession.report_divergence",
    ],
    "semantics": [
        "repro/bpf/interpreter.py:BpfProgram._alu",
        "repro/isa/cpu.py:_callr",
        "repro/isa/cpu.py:_jz",
        "repro/isa/cpu.py:_sub",
    ],
    "support": [
        # Read by _sys_set_tid_address.
        "repro/kernel/task.py:Task.current_tid",
        # Called by _sys_kill.
        "repro/kernel/kernel.py:Kernel.deliver_signal",
        # Raised by the exit handlers.
        "repro/kernel/task.py:StopTask.__init__",
    ],
}.items() for key in keys}


def inputs(out: str) -> list:
    """(argv, exit statuses meaning the input ran as intended)."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    examples = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    return [
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
