"""Source path -> layer table, and the per-layer view of a cProfile run.

Layers are this repository's modules.  A profiled function is charged
to the layer of the file that defines it; a builtin (``heappop``,
``struct.pack``, ``sha256``...) or a generated function (a dataclass
``__init__``) has no file, so its time is charged to the layer of each
*caller*, by the per-caller time cProfile keeps.  Python-level
standard-library code and the benchmark's own glue land in
``host.other``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

#: Every layer a profile can be bucketed into, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "kernel", "kernel.epoll", "kernel.net", "runtime",
    "core.monitor", "core.coordinator", "core.ringbuffer", "core.shm",
    "core.events", "core.tables", "core.netring",
    "isa", "rewriter", "nvx", "bpf", "faults", "fuzz", "recordreplay",
    "sanitizers", "clients", "apps", "costmodel", "obs", "experiments",
    "host.other",
)

#: Path below ``src/repro/`` -> layer.  A directory entry ends in "/";
#: the longest matching entry wins, so a file can be split out of its
#: package (``kernel/epoll.py`` out of ``kernel/``).
PATH_LAYERS: Dict[str, str] = {
    "sim/": "sim",
    "world.py": "sim",
    "kernel/": "kernel",
    "kernel/epoll.py": "kernel.epoll",
    "kernel/net.py": "kernel.net",
    "runtime/": "runtime",
    "core/": "core.coordinator",  # coordinator.py, config.py, __init__.py
    "core/monitor.py": "core.monitor",
    "core/ringbuffer.py": "core.ringbuffer",
    "core/shm.py": "core.shm",
    "core/events.py": "core.events",
    "core/tables.py": "core.tables",
    "core/netring.py": "core.netring",
    "core/transport.py": "core.netring",
    "core/datachannel.py": "core.netring",
    "isa/": "isa",
    "rewriter/": "rewriter",
    "nvx/": "nvx",
    "bpf/": "bpf",
    "faults/": "faults",
    "fuzz/": "fuzz",
    "recordreplay/": "recordreplay",
    "sanitizers/": "sanitizers",
    "clients/": "clients",
    "apps/": "apps",
    "costmodel.py": "costmodel",
    "obs/": "obs",
    "experiments/": "experiments",
    # The package front end (CLI, error types) rides with the drivers.
    "__init__.py": "experiments",
    "__main__.py": "experiments",
    "errors.py": "experiments",
}

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep

#: cProfile's file name for a builtin.
_BUILTIN = "~"


def layer_of_relpath(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro``; None when unmapped."""
    relpath = relpath.replace(os.sep, "/")
    best = None
    for prefix, layer in PATH_LAYERS.items():
        hit = (relpath.startswith(prefix) if prefix.endswith("/")
               else relpath == prefix)
        if hit and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return None if best is None else best[1]


def layer_of(filename: str) -> str:
    """Layer of a profiled function's file name."""
    if filename.startswith("<fused:"):
        return "isa"  # code the ISA fuser compiled at run time
    index = filename.rfind(_PACKAGE_MARK)
    if index < 0:
        return "host.other"
    layer = layer_of_relpath(filename[index + len(_PACKAGE_MARK):])
    if layer is None:
        raise KeyError(f"no layer for {filename}; add it to PATH_LAYERS")
    return layer


Label = Tuple[str, int, str]  # (file, line, function), as pstats names it


class Flat:
    """Raw cProfile entries of one or more profiles, summed by label.

    ``pstats`` keeps a single entry per label and drops the others,
    which loses all but one of the blocks the ISA fuser compiles (every
    variant compiles its own ``<fused:0x...>`` code object), so the raw
    entries are folded here instead.
    """

    def __init__(self, profiles) -> None:
        #: label -> [calls, self seconds]
        self.functions: Dict[Label, List[float]] = {}
        #: (caller label, callee label) -> [calls, callee self seconds]
        self.edges: Dict[Tuple[Label, Label], List[float]] = {}
        for profile in profiles:
            for entry in profile.getstats():
                caller = _label(entry.code)
                _add(self.functions, caller, entry.callcount,
                     entry.inlinetime)
                for sub in entry.calls or ():
                    _add(self.edges, (caller, _label(sub.code)),
                         sub.callcount, sub.inlinetime)


def _fileless(filename: str) -> bool:
    return filename.startswith(("~", "<")) \
        and not filename.startswith("<fused:")


def _label(code) -> Label:
    if isinstance(code, str):
        return (_BUILTIN, 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _add(table: dict, key, calls: int, seconds: float) -> None:
    slot = table.setdefault(key, [0, 0.0])
    slot[0] += calls
    slot[1] += seconds


def bucket(flat: Flat, top: int = 10):
    """Fold a profile into ``{layer: {"self_s", "calls"}}`` plus the
    ``top`` functions by self time of each layer."""
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    functions: Dict[str, Dict[str, List[float]]] = {
        layer: {} for layer in LAYERS}

    def charge(layer: str, label: str, calls: int, self_s: float) -> None:
        table[layer]["self_s"] += self_s
        table[layer]["calls"] += calls
        _add(functions[layer], label, calls, self_s)

    # Builtins and generated code (a dataclass ``__init__`` lives in
    # "<string>") have no file of their own: charge them to callers.
    fileless = {label: list(total) for label, total
                in flat.functions.items() if _fileless(label[0])}
    for (filename, line, name), (calls, self_s) in flat.functions.items():
        if not _fileless(filename):
            charge(layer_of(filename),
                   f"{os.path.basename(filename)}:{line}:{name}",
                   calls, self_s)
    for (caller, callee), (calls, self_s) in flat.edges.items():
        if callee in fileless:
            charge(layer_of(caller[0]), callee[2], calls, self_s)
            fileless[callee][0] -= calls
            fileless[callee][1] -= self_s
    # What is left was called from a frame entered before its profile
    # was switched on (the benchmark's own span code).
    for label, (calls, self_s) in fileless.items():
        charge("host.other", label[2], calls, self_s)
    top_functions = {
        layer: [{"function": label, "self_s": self_s, "calls": calls}
                for label, (calls, self_s) in sorted(
                    rows.items(), key=lambda item: -item[1][1])[:top]]
        for layer, rows in functions.items()}
    return table, top_functions


# -- exact boundary counts ---------------------------------------------------
#
# Each count is the number of calls of one named *plain* function (never
# a generator function: cProfile counts every resume of a generator as
# a call).  An entry is (file below src/repro, function) for the callee
# and, where only one call path is the boundary, the same pair for the
# caller.  ``ANY_CALLEE`` counts every Python function the caller
# invokes (builtins and its own comprehensions aside), which is how the
# engine's event dispatch is counted: the run loop calls each event's
# callback directly.

ANY_CALLEE = ("*", "*")
_COMPREHENSIONS = ("<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>")

CALL_COUNTS: Dict[str, List[Tuple[Tuple[str, str],
                                  Optional[Tuple[str, str]]]]] = {
    "sim.events": [
        (ANY_CALLEE, ("sim/core.py", "run")),
        (ANY_CALLEE, ("sim/shard.py", "run")),
    ],
    "kernel.syscalls": [
        (("costmodel.py", "native"), ("kernel/kernel.py", "native")),
    ],
    "kernel.epoll.scans": [(("kernel/epoll.py", "ready_events"), None)],
    "kernel.epoll.polled_fds": [
        (("*", "poll_mask"), ("kernel/epoll.py", "ready_events")),
    ],
    "rewriter.sites_patched": [(("rewriter/patchset.py", "new_site"), None)],
    "faults.injected": [(("faults/injector.py", "_note"), None)],
    "recordreplay.events_encoded": [
        (("recordreplay/logfile.py", "encode_event"), None),
    ],
    "sessions.started": [
        (("core/coordinator.py", "start"), None),
        (("nvx/lockstep.py", "start"), None),
        (("nvx/scribe.py", "start"), None),
        (("recordreplay/replayer.py", "start"), None),
    ],
}


def _matches(key, spec) -> bool:
    filename, _line, name = key
    path, function = spec
    if spec == ANY_CALLEE:
        return filename != _BUILTIN and name not in _COMPREHENSIONS
    if function != "*" and name != function \
            and not name.endswith("." + function):
        return False
    if path == "*":
        return filename != _BUILTIN
    return filename.replace(os.sep, "/").endswith("/src/repro/" + path)


def call_counts(flat: Flat) -> Dict[str, int]:
    """Evaluate :data:`CALL_COUNTS` against a profile."""
    out = {}
    for metric, specs in CALL_COUNTS.items():
        total = 0
        for callee, caller in specs:
            if caller is None:
                total += sum(calls for label, (calls, _s)
                             in flat.functions.items()
                             if _matches(label, callee))
            else:
                total += sum(calls for (src, dst), (calls, _s)
                             in flat.edges.items()
                             if _matches(dst, callee)
                             and _matches(src, caller))
        out[metric] = total
    return out
