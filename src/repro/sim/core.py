"""Deterministic discrete-event simulator.

The whole reproduction runs on top of this engine.  Simulated processes
are Python generators that yield *commands* — :class:`Compute`,
:class:`Sleep` or :class:`Block` — and the engine advances a global
virtual clock measured in integer picoseconds.  Runs are fully
deterministic: the event heap is ordered by ``(time, sequence)`` and no
wall-clock source is ever consulted.

CPU cores are modelled explicitly.  A process occupies one core of its
:class:`~repro.sim.machine.Machine` whenever it is runnable; blocking
(``Block(spin=False)``) or sleeping releases the core, while spinning
(``Block(spin=True)``) keeps it busy — which is how busy-waiting followers
consume hardware threads, the reason the paper stops at six followers on
an eight-thread machine.

Hot-path design (this is the substrate every experiment pays for):

* Heap entries are plain ``(time, seq, owner, token, fn, arg)`` tuples.
  ``seq`` is unique, so heap comparisons never fall past the first two
  integers and stay at C speed.
* Cancellation is *lazy*: nothing is ever removed from the heap.  Every
  cancellable entry carries its ``owner`` (a :class:`Process` or
  :class:`EventHandle`) and the owner's wake ``token`` captured at
  schedule time; bumping the owner's token invalidates the entry, and
  the run loop discards stale entries at pop time — before advancing
  the clock, exactly like the old explicit-cancel path did.
* Callbacks are pre-bound methods taking one argument, so scheduling a
  compute/sleep/timeout allocates one tuple and nothing else (no
  closures, no handle objects).
* Commands are read-only values: the engine reads a command's fields
  once and keeps no reference, so a caller whose cost is a session
  constant builds one command and yields it by reference ever after.
* A compute completion — most events — resumes its generator and posts
  the next completion from the run loop's own callback
  (:meth:`Process._after_compute`), calling :meth:`Simulator._post`
  and nothing else in between.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

from repro.errors import DeadlockError, ProcessKilled, SimulationError
from repro.obs import trace as _obs_trace

#: Sentinel delivered to a ``Block`` that timed out.
TIMEOUT = object()


class Compute:
    """Occupy a core for ``ps`` picoseconds of computation.

    A computation gives up the core at completion when other processes
    are queued for it (cooperative round-robin), which approximates
    processor sharing without a preemption quantum.
    """

    __slots__ = ("ps",)

    def __init__(self, ps: int) -> None:
        self.ps = ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compute(ps={self.ps})"


class Sleep:
    """Release the core and resume after ``ps`` picoseconds."""

    __slots__ = ("ps",)

    def __init__(self, ps: int) -> None:
        self.ps = ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sleep(ps={self.ps})"


class Block:
    """Suspend until another process calls :meth:`Process.wake`.

    With ``spin=True`` the process keeps its core while waiting (busy
    waiting); otherwise the core is released.  An optional timeout resumes
    the process with the :data:`TIMEOUT` sentinel.
    """

    __slots__ = ("spin", "timeout_ps")

    def __init__(self, spin: bool = False,
                 timeout_ps: Optional[int] = None) -> None:
        self.spin = spin
        self.timeout_ps = timeout_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block(spin={self.spin}, timeout_ps={self.timeout_ps})"


class EventHandle:
    """Cancellable handle for a callback scheduled via :meth:`Simulator.schedule`.

    Cancellation is lazy: the heap entry stays put and is discarded at
    pop time when its captured token no longer matches ``_wake_token``.
    """

    __slots__ = ("_wake_token",)

    def __init__(self) -> None:
        self._wake_token = 0

    def cancel(self) -> None:
        self._wake_token = 1


def _call0(fn: Callable[[], None]) -> None:
    """Adapter: dispatch a zero-argument public callback."""
    fn()


class Simulator:
    """Global event loop with a picosecond virtual clock."""

    __slots__ = ("_heap", "_seq", "now", "current_process", "processes",
                 "events_processed", "tracer")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        #: Current virtual time in picoseconds.
        self.now = 0
        #: The process whose generator is executing right now.
        self.current_process: Optional["Process"] = None
        self.processes: List["Process"] = []
        #: Non-stale heap entries dispatched so far (bench's sim.events).
        self.events_processed = 0
        #: Observability hook (repro.obs).  Defaults to the process-wide
        #: active tracer (None outside `python -m repro trace` / tests),
        #: so every hot-path emission site is one attribute load plus an
        #: is-None check when tracing is off.
        self.tracer = _obs_trace.active()

    def schedule(self, delay_ps: int, fn: Callable[[], None]) -> EventHandle:
        """Run ``fn`` after ``delay_ps`` picoseconds of virtual time."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        handle = EventHandle()
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay_ps, self._seq, handle, 0,
                         _call0, fn))
        return handle

    def _post(self, delay_ps: int, owner, token: int,
              fn: Callable[[Any], None], arg: Any) -> None:
        """Internal allocation-light schedule: one tuple, no handle.

        ``owner`` is any object with a ``_wake_token`` int (a Process or
        an EventHandle) or None for events that are never cancelled; the
        entry is stale — skipped without advancing the clock — once the
        owner's token moves past the captured ``token``.
        """
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        self._seq += 1
        heapq.heappush(self._heap,
                       (self.now + delay_ps, self._seq, owner, token,
                        fn, arg))

    def run(self, until_ps: Optional[int] = None,
            max_events: int = 500_000_000) -> None:
        """Drain the event heap, optionally stopping at ``until_ps``.

        ``until_ps`` is an absolute horizon; one earlier than ``now``
        would run the clock backwards and raises :class:`SimulationError`.
        Raises :class:`DeadlockError` if events run out while some process
        is still blocked — unless every remaining process is a daemon.
        """
        if until_ps is not None and until_ps < self.now:
            raise SimulationError(
                f"run(until_ps={until_ps}) is earlier than now={self.now}: "
                f"the clock cannot run backwards")
        heap = self._heap
        heappop = heapq.heappop
        events = 0
        while heap:
            entry = heappop(heap)
            owner = entry[2]
            if owner is not None and owner._wake_token != entry[3]:
                continue  # lazily-cancelled: clock must not advance
            when = entry[0]
            if until_ps is not None and when > until_ps:
                self.now = until_ps
                heapq.heappush(heap, entry)
                self.events_processed += events
                return
            self.now = when
            entry[4](entry[5])
            events += 1
            if events >= max_events:
                self.events_processed += events
                raise SimulationError(f"exceeded max_events={max_events}")
        self.events_processed += events
        # blocked(), inlined: the run loop calls nothing but event
        # callbacks (the sim.events boundary of DESIGN.md §5d).
        stuck = [p for p in self.processes
                 if not p.done and not p.daemon and p.state != NEW]
        if stuck:
            names = ", ".join(p.name for p in stuck[:8])
            raise DeadlockError(f"no events left but processes blocked: {names}")

    def blocked(self) -> List["Process"]:
        """Started, unfinished, non-daemon processes, in spawn order."""
        return [p for p in self.processes
                if not p.done and not p.daemon and p.state != NEW]


# Process lifecycle states.
NEW = "new"
READY = "ready"  # waiting for a core
RUNNING = "running"  # holds a core, computing
SPINNING = "spinning"  # holds a core, busy-waiting
BLOCKED = "blocked"  # no core, waiting for wake()
SLEEPING = "sleeping"  # no core, timed sleep
DONE = "done"


class Process:
    """A simulated thread of execution hosted on a machine.

    ``gen`` is a generator yielding :class:`Compute`, :class:`Sleep` or
    :class:`Block` commands.  Values sent into the generator are the wake
    values passed to :meth:`wake` (or :data:`TIMEOUT`).
    """

    __slots__ = ("machine", "sim", "gen", "name", "daemon", "state",
                 "result", "exception", "cpu_ps", "_done_callbacks",
                 "_wake_token", "_resume_value", "_resume_throw",
                 "_cb_after_compute", "_cb_after_sleep", "_cb_on_timeout",
                 "_cb_spin_resume", "_cb_granted_core", "__weakref__")

    def __init__(self, machine, gen: Generator, name: str = "proc",
                 daemon: bool = False) -> None:
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.gen = gen
        self.name = name
        self.daemon = daemon
        self.state = NEW
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.cpu_ps = 0  # accumulated compute time, for utilisation stats
        self._done_callbacks: List[Callable[["Process"], None]] = []
        #: Monotonic staleness token: every wake/timeout/interrupt bumps
        #: it, lazily invalidating all outstanding heap entries.
        self._wake_token = 0
        self._resume_value: Any = None
        self._resume_throw: Optional[BaseException] = None
        # Pre-bound callbacks: binding once here keeps the per-event
        # schedule path free of bound-method allocation.
        self._cb_after_compute = self._after_compute
        self._cb_after_sleep = self._after_sleep
        self._cb_on_timeout = self._on_timeout
        self._cb_spin_resume = self._spin_resume
        self._cb_granted_core = self._granted_core
        self.sim.processes.append(self)

    # -- public API ---------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state == DONE

    def start(self) -> "Process":
        """Queue the process for its first core grant."""
        if self.state != NEW:
            raise SimulationError(f"{self.name}: started twice")
        self.state = READY
        self.machine.request_core(self)
        return self

    def on_done(self, fn: Callable[["Process"], None]) -> None:
        """Register a callback fired (once) when the process finishes."""
        if self.state == DONE:
            fn(self)
        else:
            self._done_callbacks.append(fn)

    def wake(self, value: Any = None) -> bool:
        """Resume a process parked on a :class:`Block`.

        Returns ``False`` when the process was not actually blocked (e.g.
        it already timed out), in which case the caller should pick a
        different waiter.
        """
        state = self.state
        if state == SPINNING:
            self._wake_token += 1  # invalidates the pending timeout
            # Resume on a fresh event: waking synchronously would let the
            # spinner's continuation run inside the waker's stack (and,
            # if it re-parks on the same queue, livelock a notify_all).
            self.state = RUNNING
            self.sim._post(0, self, self._wake_token,
                           self._cb_spin_resume, value)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(self.sim.now, self.machine.name,
                               self.name, "wait", "wake",
                               (("was", "spinning"),))
            return True
        if state == BLOCKED:
            self._wake_token += 1  # invalidates the pending timeout
            self.state = READY
            self._resume_value = value
            self.machine.request_core(self)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(self.sim.now, self.machine.name,
                               self.name, "wait", "wake",
                               (("was", "blocked"),))
            return True
        return False

    def interrupt(self, exc: BaseException) -> bool:
        """Throw ``exc`` into the process at its current yield point.

        Works in every non-terminal state; mid-compute interrupts cancel
        the pending completion and deliver immediately.
        """
        if self.state == DONE:
            return False
        if self.state == NEW:
            self.state = DONE
            self.exception = exc
            self.gen.close()
            self._fire_done()
            return True
        # One bump lazily cancels every outstanding completion/timeout.
        self._wake_token += 1
        if self.state in (RUNNING, SPINNING):
            self.state = RUNNING
            self._step(None, throw=exc)
        else:  # BLOCKED, SLEEPING or READY: need a core to run cleanup
            self._resume_throw = exc
            if self.state != READY:
                self.state = READY
                self.machine.request_core(self)
        return True

    def kill(self) -> None:
        """Forcibly terminate the process (delivers ProcessKilled)."""
        self.interrupt(ProcessKilled(self.name))

    # -- engine internals ----------------------------------------------

    def _granted_core(self, _arg: Any = None) -> None:
        """Called by the machine when this process receives a core."""
        self.state = RUNNING
        throw, self._resume_throw = self._resume_throw, None
        value, self._resume_value = self._resume_value, None
        self._step(value, throw=throw)

    def _step(self, value: Any, throw: Optional[BaseException] = None) -> None:
        sim = self.sim
        prev = sim.current_process
        sim.current_process = self
        try:
            if throw is not None:
                cmd = self.gen.throw(throw)
            else:
                cmd = self.gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via .exception
            self._finish(exception=exc)
            return
        finally:
            # Runs after the except bodies: _finish and its on_done
            # callbacks still see the finishing process as current.
            sim.current_process = prev
        if cmd.__class__ is Compute:
            ps = cmd.ps
            self.cpu_ps += ps
            sim._post(ps, self, self._wake_token,
                      self._cb_after_compute, None)
        else:
            self._dispatch(cmd)

    def _dispatch(self, cmd: Any) -> None:
        """Dispatch a yielded command that is not a :class:`Compute`.

        Commands are matched by exact class — nothing subclasses them —
        and are read-only to the engine: callers may yield one prebuilt
        instance any number of times, from any number of processes.
        """
        cls = cmd.__class__
        if cls is Block:
            if cmd.spin:
                self.state = SPINNING
            else:
                self.state = BLOCKED
                self.machine.release_core()
            if cmd.timeout_ps is not None:
                self.sim._post(cmd.timeout_ps, self, self._wake_token,
                               self._cb_on_timeout, None)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(self.sim.now, self.machine.name,
                               self.name, "wait", "block",
                               (("spin", cmd.spin),))
        elif cls is Sleep:
            self.state = SLEEPING
            self.machine.release_core()
            self.sim._post(cmd.ps, self, self._wake_token,
                           self._cb_after_sleep, None)
        else:
            self._finish(exception=SimulationError(
                f"{self.name} yielded unknown command {cmd!r}"))

    def _spin_resume(self, value: Any) -> None:
        if self.state != RUNNING:
            return
        self._step(value)

    def _after_compute(self, _arg: Any = None) -> None:
        """Compute completion — 85 % of all dispatched events, so the
        resume is :meth:`_step` inlined (same order of effects): the run
        loop's callback reaches ``sim._post`` with no frame in between.
        """
        if self.state != RUNNING:
            return
        machine = self.machine
        if machine._ready:
            # Cooperative round-robin: give the core up and requeue.
            self.state = READY
            machine.release_core()
            machine.request_core(self)
            return
        sim = self.sim
        prev = sim.current_process
        sim.current_process = self
        try:
            cmd = self.gen.send(None)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via .exception
            self._finish(exception=exc)
            return
        finally:
            sim.current_process = prev
        if cmd.__class__ is Compute:
            ps = cmd.ps
            self.cpu_ps += ps
            sim._post(ps, self, self._wake_token,
                      self._cb_after_compute, None)
        else:
            self._dispatch(cmd)

    def _after_sleep(self, _arg: Any = None) -> None:
        if self.state != SLEEPING:
            return
        self.state = READY
        self.machine.request_core(self)

    def _on_timeout(self, _arg: Any = None) -> None:
        state = self.state
        if state == SPINNING:
            self._wake_token += 1
            self.state = RUNNING
            self._step(TIMEOUT)
        elif state == BLOCKED:
            self._wake_token += 1
            self.state = READY
            self._resume_value = TIMEOUT
            self.machine.request_core(self)

    def _finish(self, result: Any = None,
                exception: Optional[BaseException] = None) -> None:
        had_core = self.state in (RUNNING, SPINNING)
        self.state = DONE
        self.result = result
        self.exception = exception
        self._wake_token += 1  # lazily cancel any outstanding timeout
        if had_core:
            self.machine.release_core()
        self._fire_done()

    def _fire_done(self) -> None:
        callbacks, self._done_callbacks = self._done_callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} state={self.state} t={self.sim.now}>"
