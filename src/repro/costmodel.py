"""Calibrated cycle-cost model for the simulated substrate.

Every timing in the reproduction flows through this module.  The constants
below are calibrated once against the numbers reported in the paper
(Figure 4 microbenchmarks, Table 2 prior-system overheads) and then kept
frozen; experiments are expected to reproduce the paper's *shape*, not its
absolute cycle counts.

All durations handed to the simulator are integer picoseconds.  The paper's
test machine is a 3.50 GHz Xeon E3-1280, so one cycle is 285.7 ps; we round
to 286 ps which keeps the arithmetic integral without affecting any ratio
by more than 0.2%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Picoseconds per CPU cycle at the paper's 3.50 GHz clock.
CYCLE_PS = 286

#: Picoseconds per microsecond, handy for latency assertions in tests.
US_PS = 1_000_000

#: Picoseconds per millisecond.
MS_PS = 1_000_000_000

#: Picoseconds per second.
SEC_PS = 1_000_000_000_000


def cycles(n: float) -> int:
    """Convert a cycle count to integer picoseconds."""
    return int(n * CYCLE_PS)


def to_cycles(ps: float) -> float:
    """Convert picoseconds back to (fractional) cycles."""
    return ps / CYCLE_PS


@dataclass(frozen=True)
class MachineSpec:
    """Hardware parameters of a simulated machine.

    The defaults describe the paper's testbed: a four-core/eight-thread
    3.50 GHz Xeon E3-1280 with 16 GB RAM, two of them in one rack joined
    by a 1 Gb Ethernet link.
    """

    name: str = "xeon-e3-1280"
    logical_cores: int = 8
    physical_cores: int = 4
    freq_ghz: float = 3.5


@dataclass(frozen=True)
class NetworkSpec:
    """Link parameters between the client and server machines."""

    #: One-way propagation + switching latency for a same-rack hop.
    latency_ps: int = 12 * US_PS
    #: 1 Gb Ethernet ~ 125 MB/s ~ 8 ns per byte.
    ps_per_byte: int = 8000


@dataclass(frozen=True)
class SyscallCosts:
    """Native execution cost of each syscall class, in cycles.

    Values for the five microbenchmark calls are taken directly from the
    ``native`` bars of Figure 4; the remaining entries are interpolated
    from published Linux syscall latency studies and only influence the
    macro-benchmarks through their (calibrated) aggregate mixes.
    """

    table: Dict[str, int] = field(
        default_factory=lambda: {
            "default": 1300,
            "close": 1261,
            "write": 1430,
            "read": 1486,
            "open": 2583,
            "openat": 2583,
            "time": 49,  # vDSO
            "gettimeofday": 55,  # vDSO
            "clock_gettime": 55,  # vDSO
            "getcpu": 45,  # vDSO
            "socket": 2900,
            "bind": 1500,
            "listen": 1400,
            "accept": 9000,
            "accept4": 9000,
            "connect": 12000,
            "send": 7000,
            "sendto": 7000,
            "recv": 6500,
            "recvfrom": 6500,
            "sendmsg": 2100,
            "recvmsg": 2050,
            "epoll_create": 1800,
            "epoll_ctl": 1250,
            "epoll_wait": 5200,
            "poll": 1700,
            "select": 1750,
            "stat": 1900,
            "fstat": 1300,
            "lstat": 1900,
            "lseek": 1100,
            "mmap": 2400,
            "munmap": 2100,
            "mprotect": 1900,
            "brk": 1200,
            "dup": 1150,
            "dup2": 1200,
            "fcntl": 1100,
            "ioctl": 1300,
            "pipe": 2300,
            "socketpair": 3000,
            "fork": 45000,
            "clone": 38000,
            "execve": 250000,
            "exit": 8000,
            "exit_group": 9000,
            "wait4": 2600,
            "kill": 1900,
            "tgkill": 1900,
            "rt_sigaction": 1350,
            "rt_sigprocmask": 1200,
            "rt_sigreturn": 1600,
            "sigaltstack": 1250,
            "futex": 1800,
            "sched_yield": 1100,
            "nanosleep": 1900,
            "getpid": 1050,
            "gettid": 1050,
            "getuid": 1030,
            "geteuid": 1030,
            "getgid": 1030,
            "getegid": 1030,
            "setsockopt": 1350,
            "getsockopt": 1350,
            "getsockname": 1300,
            "getpeername": 1300,
            "shutdown": 1600,
            "unlink": 2200,
            "rename": 2600,
            "mkdir": 2500,
            "rmdir": 2300,
            "getdents": 2200,
            "readlink": 1900,
            "access": 1700,
            "chmod": 2000,
            "chown": 2000,
            "umask": 1050,
            "getrlimit": 1150,
            "setrlimit": 1250,
            "getrusage": 1400,
            "sysinfo": 1500,
            "uname": 1250,
            "sendfile": 2600,
            "writev": 1700,
            "readv": 1700,
            "pread": 1550,
            "pwrite": 1500,
            "ftruncate": 1800,
            "fsync": 15000,
            "fdatasync": 12000,
            "chdir": 1600,
            "getcwd": 1400,
            "setuid": 1300,
            "setgid": 1300,
            "setsid": 1500,
            "prctl": 1250,
            "arch_prctl": 1100,
            "set_tid_address": 1050,
            "set_robust_list": 1050,
            "eventfd": 1900,
            "timerfd_create": 2000,
            "timerfd_settime": 1500,
            "signalfd": 2000,
            "inotify_init": 2100,
            "madvise": 1500,
            "mlock": 1900,
            "shmget": 2500,
            "shmat": 2400,
            "shmdt": 2200,
            "times": 1200,
            "getpriority": 1150,
            "setpriority": 1250,
            "sched_getaffinity": 1300,
            "sched_setaffinity": 1400,
            "epoll_create1": 1800,
            "pipe2": 2300,
            "getrandom": 1700,
            "issetugid": 1030,
        }
    )

    #: Additional cost per byte moved through read/write style calls, on
    #: top of the base cost (which already covers the first 512 bytes).
    per_byte: float = 0.55
    #: Bytes already covered by the base cost of an I/O syscall.
    base_bytes: int = 512

    def native(self, name: str, nbytes: int = 0) -> int:
        """Native cost (cycles) of one syscall moving ``nbytes`` bytes."""
        base = self.table.get(name, self.table["default"])
        extra = max(0, nbytes - self.base_bytes) * self.per_byte
        return int(base + extra)


@dataclass(frozen=True)
class InterceptCosts:
    """Costs of Varan's binary-rewriting dispatch path, in cycles."""

    #: Patched ``JMP`` + detour trampoline to the entry point and back.
    trampoline: int = 25
    #: ``INT 0x0`` fallback: interrupt, signal delivery, sigreturn.
    int_fallback: int = 1750
    #: System call entry point: save all registers / restore + return.
    save_restore: int = 30
    #: Internal syscall table consultation and handler dispatch.
    table_lookup: int = 15
    #: Extra work to enter a rewritten vDSO function through the generated
    #: stub (stack setup + call into the entry point).
    vdso_stub: int = 73

    @property
    def fast_path(self) -> int:
        """Cycles added by interception at a JMP-patched site."""
        return self.trampoline + self.save_restore + self.table_lookup

    @property
    def slow_path(self) -> int:
        """Cycles added by interception at an INT-patched site."""
        return self.int_fallback + self.save_restore + self.table_lookup


@dataclass(frozen=True)
class StreamCosts:
    """Costs of Varan's event-streaming machinery, in cycles."""

    #: Claim a slot, fill one 64-byte cache-line event, bump the Lamport
    #: clock, publish the producer cursor.
    ring_publish: int = 400
    #: Spot a published event, validate the timestamp, copy the line out,
    #: advance the consumer gating sequence.
    ring_consume: int = 190
    #: Allocate a chunk from the shared pool allocator (bucket free list).
    shm_alloc: int = 150
    #: Return a chunk to its bucket free list.
    shm_free: int = 80
    #: Copy payload bytes to/from shared memory, per byte.
    copy_per_byte: float = 2.4
    #: Send one file descriptor over the data channel (sendmsg with
    #: SCM_RIGHTS), charged to the leader per follower.
    fd_send: int = 5400
    #: Receive + install one duplicated descriptor, charged to a follower.
    fd_recv: int = 6900
    #: Futex-based waitlock: going to sleep on an empty ring.
    waitlock_sleep: int = 1400
    #: Futex wake issued by the leader when a sleeper is present.
    waitlock_wake: int = 1100
    #: One check of the ring cursor while busy-waiting.
    spin_check: int = 12
    #: Leader-side stall charge when the ring is full and it must wait for
    #: the slowest follower's gating sequence (per check).
    ring_full_check: int = 40
    #: Running one BPF rewrite-rule filter over a divergence.
    bpf_per_insn: int = 4
    #: Networked transport: appending one packed 64-byte event line to
    #: the outgoing frame (leader side, per event with remote followers).
    net_pack_event: int = 90
    #: Networked transport: per-byte cost of compressing a frame body
    #: before transmission (LZ4-class, leader side).
    net_compress_per_byte: float = 0.35


@dataclass(frozen=True)
class PtraceCosts:
    """Cost profile of a classical ptrace-based lockstep monitor.

    Two ptrace stops per syscall (entry and exit); at each stop the
    traced thread is descheduled, the monitor wakes, inspects registers,
    and copies any indirect arguments word-by-word with PTRACE_PEEKDATA /
    POKEDATA — each peek being itself a full syscall for the monitor.
    """

    #: Deschedule tracee + schedule monitor (or back): one context
    #: switch *including scheduler wakeup latency* — the dominant cost
    #: of a ptrace stop in practice (~10 us).
    context_switch: int = 35000
    #: Monitor-side PTRACE_GETREGS / SETREGS per stop.
    regs_access: int = 900
    #: Monitor-side bookkeeping per stop (lookup, state machine).
    monitor_logic: int = 350
    #: Moving 8 bytes of indirect arguments (PEEKDATA, amortised with
    #: /proc/pid/mem bulk reads for large buffers, as Mx does).
    peek_poke: int = 180

    def stop_cost(self) -> int:
        """Cycles for one ptrace stop (two context switches + regs)."""
        return 2 * self.context_switch + self.regs_access + self.monitor_logic

    def copy_cost(self, nbytes: int) -> int:
        """Cycles for the monitor to move ``nbytes`` via peek/poke."""
        words = (nbytes + 7) // 8
        return words * self.peek_poke


@dataclass(frozen=True)
class FailoverCosts:
    """Costs on the transparent-failover path (§5.1), in cycles."""

    #: SIGSEGV delivery, the kernel starting crashed-process teardown,
    #: and the monitor's signal handler assembling the crash report.
    detect_signal: int = 70000
    #: Crash notification over the coordinator's UNIX socket plus the
    #: coordinator being scheduled, unsubscribing the dead version and
    #: running its restart strategy.
    coordinator_handling: int = 160000
    #: Per-tuple work to promote a follower: switching the system call
    #: table and waking every parked thread.
    promote_per_tuple: int = 30000
    #: The promoted leader's -ERESTARTSYS handling of the in-flight call.
    restart_syscall: int = 10000


@dataclass(frozen=True)
class ScribeCosts:
    """Cost profile of a Scribe-style in-kernel record-replay system.

    Scribe logs from inside the kernel, so there are no monitor context
    switches, but every syscall pays serialisation into the log plus a
    per-byte copy, and the log is flushed to (virtual-machine) storage.
    """

    per_event: int = 2600
    per_byte: float = 4.2


@dataclass(frozen=True)
class CostModel:
    """Aggregate cost model used by every experiment."""

    machine: MachineSpec = field(default_factory=MachineSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    syscalls: SyscallCosts = field(default_factory=SyscallCosts)
    intercept: InterceptCosts = field(default_factory=InterceptCosts)
    stream: StreamCosts = field(default_factory=StreamCosts)
    ptrace: PtraceCosts = field(default_factory=PtraceCosts)
    failover: FailoverCosts = field(default_factory=FailoverCosts)
    scribe: ScribeCosts = field(default_factory=ScribeCosts)

    #: Disk log append cost for user-space record-replay (per event),
    #: covering the amortised write syscall issued by the recorder client.
    record_log_per_event: int = 520
    record_log_per_byte: float = 0.8


#: The default, calibrated model. Treat as immutable.
DEFAULT_COSTS = CostModel()
