"""Tasks (simulated processes), threads, descriptor tables and the
system-call gate every call funnels through."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.costmodel import CostModel, cycles
from repro.errors import KernelError
from repro.kernel.uapi import (
    EBADF,
    EMFILE,
    Segfault,
    Syscall,
    SysError,
    SysResult,
)
from repro.kernel.vfs import FileDescription
from repro.sim.core import Compute, Process
from repro.sim.machine import Machine
from repro.sim.sync import WaitQueue

#: Calls served from the vDSO fast path (§3.2.1).
VDSO_CALLS = frozenset({"time", "gettimeofday", "clock_gettime", "getcpu"})

#: Kind markers used in Gate.patch_kinds (mirrors rewriter.patchset).
PATCH_JMP = "jmp"
PATCH_INT = "int"
PATCH_VDSO = "vdso"


class FdTable:
    """Per-task descriptor table; descriptions are refcounted."""

    MAX_FDS = 65536

    def __init__(self) -> None:
        self._fds: Dict[int, FileDescription] = {}
        self._next = 3  # 0/1/2 reserved for std streams

    def install(self, description: FileDescription,
                at: Optional[int] = None) -> int:
        if at is None:
            fd = self._next
            while fd in self._fds:
                fd += 1
            if fd >= self.MAX_FDS:
                return -EMFILE
            self._next = fd + 1
        else:
            fd = at
            old = self._fds.get(fd)
            if old is not None:
                old.decref()
        self._fds[fd] = description
        return fd

    def get(self, fd: int) -> Optional[FileDescription]:
        return self._fds.get(fd)

    def close(self, fd: int) -> int:
        description = self._fds.pop(fd, None)
        if description is None:
            return -EBADF
        description.decref()
        if fd < self._next:
            self._next = max(3, min(self._next, fd))
        return 0

    def clone(self) -> "FdTable":
        """Fork semantics: child shares descriptions, not the table."""
        table = FdTable()
        table._fds = {fd: d.incref() for fd, d in self._fds.items()}
        table._next = self._next
        return table

    def close_all(self) -> None:
        for description in self._fds.values():
            description.decref()
        self._fds.clear()

class SyscallGate:
    """Models the dispatch path of every system call a task makes.

    Natively the gate goes straight to the kernel.  Under Varan, the
    monitor flips :attr:`intercepting` on and installs a *system call
    table* (name → handler generator); the per-site patch kind decides
    the dispatch cost (JMP-detour fast path, INT0 signal path, or vDSO
    stub).  Under a ptrace baseline, a trap cost and a centralized
    monitor resource are modelled by the installed table instead.
    """

    def __init__(self, task: "Task", costs: CostModel) -> None:
        self.task = task
        self.costs = costs
        self.intercepting = False
        self.table: Optional[Dict[str, Callable]] = None
        self.default_handler: Optional[Callable] = None
        self.patch_kinds: Dict[str, str] = {}
        #: Varan role of the installed table: None (native or a baseline
        #: monitor), "leader" or "follower"; set by ``install_tables``.
        self.role: Optional[str] = None
        #: Extra per-call dispatch charge (used by ptrace-style monitors).
        self.pre_dispatch: Optional[Callable] = None
        # Per-dispatch hot path: the three interception charges are
        # frozen calibration constants, so each is one read-only command
        # built here and yielded by reference.
        self._cmd_vdso = Compute(cycles(costs.intercept.vdso_stub))
        self._cmd_slow = Compute(cycles(costs.intercept.slow_path))
        self._cmd_fast = Compute(cycles(costs.intercept.fast_path))

    def intercept_command(self, call: Syscall) -> Compute:
        """The charge the rewriting-based interception path adds to
        ``call``, by how its site was patched."""
        if call.name in VDSO_CALLS:
            return self._cmd_vdso
        if self.patch_kinds.get(call.site, PATCH_JMP) == PATCH_INT:
            return self._cmd_slow
        return self._cmd_fast

    def charge_no_interception(self) -> None:
        """For monitors that interpose without rewriting (ptrace traps,
        in-kernel recording) and charge their own mechanism inside the
        installed handler.  The zero-length compute is still yielded, so
        the dispatch remains a scheduling point."""
        self._cmd_vdso = self._cmd_slow = self._cmd_fast = Compute(0)

    def dispatch(self, call: Syscall, checked: bool = False):
        """Generator: route one syscall, returning a SysResult.

        With tracing on, the routing is wrapped in a syscall span; off,
        that costs one attribute load and two None checks per dispatch.
        With ``checked``, a failed call raises :class:`SysError` after
        the span instead of returning.
        """
        task = self.task
        tracer = task.kernel.tracer
        if tracer is not None:
            start_ps = task.kernel.sim.now
        if self.pre_dispatch is not None:
            yield from self.pre_dispatch(task, call)
        handler = None
        if self.intercepting:
            yield self.intercept_command(call)
            if self.table is not None:
                handler = self.table.get(call.name, self.default_handler)
        if handler is not None:
            result = yield from handler(task, call)
        else:
            result = yield from task.kernel.native(task, call)
        if tracer is not None:
            role = self.role or ("intercept" if self.intercepting
                                 else "native")
            tracer.span_here(task.kernel.sim, start_ps, "syscall", call.name,
                             (("retval", result.retval), ("role", role)))
        if checked and result.retval < 0:
            raise SysError(result.errno, call.name)
        return result


class Task:
    """A simulated OS process: descriptor table + one or more threads."""

    def __init__(self, kernel, machine: Machine, name: str, pid: int) -> None:
        self.kernel = kernel
        self.machine = machine
        self.name = name
        self.pid = pid
        self.fdtable = FdTable()
        self.gate = SyscallGate(self, kernel.costs)
        self.threads: List[Process] = []
        self.thread_ids: Dict[Process, int] = {}
        self._next_tid = 0
        self.children: List["Task"] = []
        #: Daemon tasks (and all their threads/children) do not count as
        #: deadlocked when the event heap drains — used for servers.
        self.daemon = False
        self.exited = False
        self.exit_status: Optional[int] = None
        self.exit_waiters = WaitQueue(kernel.sim)
        self.uid = self.euid = 1000
        self.gid = self.egid = 1000
        self.cwd = "/"
        self.umask = 0o022
        #: Python-level signal handlers: sig → fn(task, sig). Installed
        #: through rt_sigaction by the monitor (e.g. the SIGSEGV handler
        #: that reports crashes to the coordinator, §5.1).
        self.signal_handlers: Dict[int, Callable] = {}
        #: Monitor hook fired when a thread raises Segfault.
        self.segv_hook: Optional[Callable] = None
        self.heap_brk = 0x0060_0000
        self.mmap_base = 0x7F00_0000_0000
        #: Arbitrary per-task scratch used by monitors (leader/follower
        #: runtime state lives here rather than in globals).
        self.monitor_state = None

    # -- threads ---------------------------------------------------------

    def add_thread(self, gen, name: Optional[str] = None) -> Process:
        tid = self.pid * 100 + self._next_tid
        self._next_tid += 1
        proc = self.machine.spawn(
            self._thread_runner(gen),
            name=name or f"{self.name}.t{tid}",
            daemon=self.daemon,
        )
        self.threads.append(proc)
        self.thread_ids[proc] = tid
        return proc

    def current_tid(self) -> int:
        proc = self.kernel.sim.current_process
        return self.thread_ids.get(proc, self.pid * 100)

    def thread_index(self) -> int:
        """Creation-order index of the running thread within this task.

        Stable across variants (thread spawn order is deterministic), so
        NVX monitors use it to pair leader and follower threads (§3.3.3).
        """
        try:
            return self.threads.index(self.kernel.sim.current_process)
        except ValueError:
            return 0

    def _thread_runner(self, gen):
        try:
            result = yield from gen
        except Segfault as fault:
            self._on_segfault(fault)
            return None
        except StopTask as stop:
            self._exit(stop.status)
            return stop.status
        if not self.exited and all(
                t.done or t is self.kernel.sim.current_process
                for t in self.threads):
            self._exit(0)
        return result

    def _on_segfault(self, fault: Segfault) -> None:
        if self.segv_hook is not None:
            self.segv_hook(self, fault)
        else:
            self._exit(139)  # 128 + SIGSEGV

    def _exit(self, status: int) -> None:
        if self.exited:
            return
        self.exited = True
        self.exit_status = status
        current = self.kernel.sim.current_process
        for thread in self.threads:
            if thread is not current and not thread.done:
                thread.kill()
        self.fdtable.close_all()
        self.exit_waiters.notify_all(status)
        self.kernel.on_task_exit(self)

    def kill_now(self, status: int = 137) -> None:
        """External termination (SIGKILL path)."""
        if self.exited:
            return
        self.exited = True
        self.exit_status = status
        for thread in self.threads:
            if not thread.done:
                thread.kill()
        self.fdtable.close_all()
        self.exit_waiters.notify_all(status)
        self.kernel.on_task_exit(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} pid={self.pid}>"


class StopTask(Exception):
    """Raised by the exit and exit_group handlers to unwind a thread."""

    def __init__(self, status: int) -> None:
        super().__init__(f"exit({status})")
        self.status = status
