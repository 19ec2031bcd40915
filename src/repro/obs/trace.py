"""Sim-clock-aware tracing (the observability tentpole).

A :class:`Tracer` records typed *spans* and *instants* keyed by
``(sim_time, seq, machine, task)``.  Every timestamp is virtual
picoseconds taken from the simulator clock — never wall clock — so a
trace of a fixed-seed run is byte-identical run to run.

The disabled path is near-zero-cost by construction: components hold a
``tracer`` attribute that defaults to ``None`` and every hot-path
emission site is a single attribute load plus an ``is not None`` check.
No record objects, closures or strings are built unless a tracer is
actually installed.

Sinks are pluggable: :class:`MemorySink` (default) and
:class:`JsonlSink` (one JSON object per line, the determinism-test
format).  :func:`chrome_trace_json` renders records as Chrome
``trace_event`` JSON for ``chrome://tracing`` / Perfetto, grouping
machines as processes and tasks as threads.

A module-level *active tracer* lets the CLI install a tracer that
simulators constructed deep inside experiment drivers pick up
automatically: ``Simulator.__init__`` consults :func:`active`.
"""

from __future__ import annotations

import json
from collections import namedtuple
from contextlib import contextmanager
from typing import List, Optional, Tuple

# Span/instant categories.  Plain strings so emission sites in the sim
# core need no imports; listed here as the canonical vocabulary.
CAT_SYSCALL = "syscall"  # gate dispatch spans
CAT_RING = "ring"  # publish/consume instants, backpressure stalls
CAT_WAIT = "wait"  # block/wake/park instants, await-event spans
CAT_DIVERGENCE = "divergence"  # rule-evaluated and fatal divergences
CAT_FAILOVER = "failover"  # crash, promotion, follower drop
CAT_SESSION = "session"  # session setup spans

#: Chrome trace_event phase codes used by this tracer.
PH_COMPLETE = "X"
PH_INSTANT = "i"

#: One trace record.  ``ts``/``dur`` are virtual picoseconds; ``seq`` is
#: the tracer-global emission sequence (total order even at equal
#: timestamps); ``args`` is a tuple of (key, value) pairs.
TraceRecord = namedtuple(
    "TraceRecord", "ts seq machine task cat name ph dur args")


class MemorySink:
    """Buffers records in a list (``tracer.records`` reads the first one)."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def record(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams one JSON object per record to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w")

    def record(self, rec: TraceRecord) -> None:
        self._fh.write(jsonl_line(rec))
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.close()


class Tracer:
    """Collects deterministic spans/instants from the simulation."""

    __slots__ = ("sinks", "_seq", "_worlds", "_world_tag")

    def __init__(self, sinks=None) -> None:
        self.sinks = list(sinks) if sinks else [MemorySink()]
        self._seq = 0
        self._worlds = 0
        #: Prefix applied to machine names so sequentially-built worlds
        #: (e.g. figure4's native/intercept/nvx testbeds) stay separate
        #: process groups in the exported timeline.
        self._world_tag: Optional[str] = None

    @property
    def records(self) -> List[TraceRecord]:
        """Records of the first in-memory sink (convenience accessor)."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink.records
        return []

    def new_world(self) -> str:
        """Register one more World; subsequent records carry its tag."""
        tag = f"w{self._worlds}"
        self._worlds += 1
        self._world_tag = tag
        return tag

    # -- emission ------------------------------------------------------

    def instant(self, ts: int, machine: str, task: str, cat: str,
                name: str, args: Tuple = ()) -> None:
        self._emit(ts, machine, task, cat, name, PH_INSTANT, 0, args)

    def instant_here(self, sim, cat: str, name: str,
                     args: Tuple = ()) -> None:
        """Instant attributed to the currently-executing process."""
        proc = sim.current_process
        if proc is None:
            self._emit(sim.now, "-", "-", cat, name, PH_INSTANT, 0, args)
        else:
            self._emit(sim.now, proc.machine.name, proc.name, cat, name,
                       PH_INSTANT, 0, args)

    def span_here(self, sim, start_ts: int, cat: str, name: str,
                  args: Tuple = ()) -> None:
        """Span from ``start_ts`` to now, attributed like instant_here."""
        proc = sim.current_process
        if proc is None:
            self._emit(start_ts, "-", "-", cat, name, PH_COMPLETE,
                       sim.now - start_ts, args)
        else:
            self._emit(start_ts, proc.machine.name, proc.name, cat, name,
                       PH_COMPLETE, sim.now - start_ts, args)

    def _emit(self, ts, machine, task, cat, name, ph, dur, args) -> None:
        if self._world_tag is not None:
            machine = f"{self._world_tag}:{machine}"
        self._seq += 1
        rec = TraceRecord(ts, self._seq, machine, task, cat, name, ph,
                          dur, args)
        for sink in self.sinks:
            sink.record(rec)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# -- serialisation ----------------------------------------------------------

def jsonl_line(rec: TraceRecord) -> str:
    """One record as a canonical (sorted-key, compact) JSON line."""
    return json.dumps(
        {"ts": rec.ts, "seq": rec.seq, "machine": rec.machine,
         "task": rec.task, "cat": rec.cat, "name": rec.name,
         "ph": rec.ph, "dur": rec.dur, "args": dict(rec.args)},
        sort_keys=True, separators=(",", ":"))


def chrome_trace_json(records) -> str:
    """Records as a Chrome ``trace_event`` JSON document.

    Machines map to processes and tasks to threads; pid/tid integers are
    assigned in first-seen order (deterministic, since record order is),
    with ``process_name``/``thread_name`` metadata events so the viewer
    shows the simulation's names.  ``ts``/``dur`` are microseconds, the
    unit the format specifies; the ps→µs division is the same float op
    every run, so output bytes stay identical for a fixed seed.
    """
    pids: dict = {}
    tids: dict = {}
    meta: List[dict] = []
    events: List[dict] = []
    for rec in records:
        pid = pids.get(rec.machine)
        if pid is None:
            pid = pids[rec.machine] = len(pids) + 1
            meta.append({"ph": "M", "pid": pid, "tid": 0,
                         "name": "process_name",
                         "args": {"name": rec.machine}})
        key = (rec.machine, rec.task)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            meta.append({"ph": "M", "pid": pid, "tid": tid,
                         "name": "thread_name",
                         "args": {"name": rec.task}})
        args = dict(rec.args)
        args["seq"] = rec.seq
        event = {"name": rec.name, "cat": rec.cat, "ph": rec.ph,
                 "ts": rec.ts / 1e6, "pid": pid, "tid": tid,
                 "args": args}
        if rec.ph == PH_COMPLETE:
            event["dur"] = rec.dur / 1e6
        if rec.ph == PH_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
    return json.dumps({"traceEvents": meta + events,
                       "displayTimeUnit": "ns"},
                      sort_keys=True, separators=(",", ":"))


# -- active-tracer registry --------------------------------------------------

_active: Optional[Tracer] = None


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide active tracer: every
    Simulator constructed while it is active records into it."""
    global _active
    _active = tracer
    return tracer


def deactivate() -> None:
    global _active
    _active = None


def active() -> Optional[Tracer]:
    return _active


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Context manager: activate a tracer for the duration of a run."""
    tracer = tracer or Tracer()
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()
