"""Leader and follower system call tables (§3.2, §3.3).

The only difference between a leader and a follower is the installed
table: the leader's handlers execute calls natively and record them into
the ring buffer, the followers' handlers replay recorded results without
touching the outside world.  Swapping the table converts a follower into
a leader — the mechanism behind transparent failover.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.bpf.rules import ACTION_ALLOW, ACTION_SKIP
from repro.core.events import EV_CLONE, EV_EXIT, EV_FORK, EV_SYSCALL
from repro.core.monitor import BLOCKING_CALLS, PROMOTED, ReplicaMonitor
from repro.costmodel import cycles
from repro.errors import DivergenceError
from repro.kernel.task import StopTask
from repro.kernel.uapi import CLONE_THREAD, Syscall, SysResult

#: Process-local calls: never streamed, executed natively by every
#: variant (§3.3 "system calls which are local to the process").
LOCAL_CALLS = frozenset({
    "mmap", "munmap", "mprotect", "madvise", "brk",
    "futex", "sched_yield",
    "rt_sigaction", "rt_sigprocmask", "sigaltstack",
    "prctl", "arch_prctl", "set_tid_address", "set_robust_list",
    "getrlimit", "setrlimit", "getrusage",
    "sched_getaffinity", "sched_setaffinity",
})

#: Streamed calls the follower additionally applies to its *local* state
#: after consuming the event, so its descriptor table and process state
#: mirror the leader's.  Calls acting on *shared* descriptions (lseek,
#: fcntl, epoll_ctl...) are NOT in this set: the leader's execution
#: already mutated the shared object, and replaying it would double-apply.
EXEC_LOCAL_AFTER_CONSUME = frozenset({"close", "chdir", "umask"})

#: Calls whose argument at the given index is a pid the application
#: obtained from a (possibly replayed) fork.  A promoted leader must
#: translate these through its variant's pid map — the app holds the
#: dead leader's pids, not this variant's local ones (§5.1).
PID_ARG_CALLS = {"wait4": 0, "kill": 0}


def install_tables(monitor: ReplicaMonitor) -> None:
    """(Re)install the role-appropriate table into the task's gate."""
    gate = monitor.task.gate
    gate.intercepting = True
    if monitor.is_leader:
        table, default = make_leader_table(monitor)
        gate.role = "leader"
    else:
        table, default = make_follower_table(monitor)
        gate.role = "follower"
    gate.table = table
    gate.default_handler = default


# ===========================================================================
# Leader
# ===========================================================================

def make_leader_table(monitor: ReplicaMonitor):
    """Build (table, default_handler) for a leader replica."""
    kernel = monitor.task.kernel
    session = monitor.session

    def _virtualized(call):
        """Map leader pids in pid-bearing arguments to local pids.

        A no-op for born leaders (empty map) and for pids the map does
        not know (the variant's own native children).
        """
        pid_map = monitor.variant.pid_map
        index = PID_ARG_CALLS.get(call.name)
        if index is None or not pid_map:
            return call
        local_pid = pid_map.get(call.arg(index))
        if local_pid is None:
            return call
        args = call.args[:index] + (local_pid,) + call.args[index + 1:]
        return Syscall(call.name, args, site=call.site, data=call.data,
                       nbytes=call.nbytes)

    def default(task, call):
        result = yield from kernel.native(task, _virtualized(call))
        transfer = []
        for fd in result.new_fds:
            description = task.fdtable.get(fd)
            if description is not None:
                transfer.append((fd, description))
        yield from monitor.publish_result(call, result, tuple(transfer))
        return result

    def leader_listen(task, call):
        # listen() morphs the fd into a listener description; followers
        # must receive the *new* description to mirror the table.
        result = yield from kernel.native(task, call)
        transfer = ()
        if result.ok:
            description = task.fdtable.get(call.arg(0))
            if description is not None:
                transfer = ((call.arg(0), description),)
        yield from monitor.publish_result(call, result, transfer)
        return result

    def leader_fork(task, call):
        child_main = call.arg(0)
        tuple_ = session.new_tuple()
        child_task = kernel._fork_task(task, child_main)
        session.attach_leader_child(monitor.variant, child_task, tuple_)
        yield from monitor.publish_control(EV_FORK, retval=child_task.pid,
                                           aux=(tuple_.id,))
        return SysResult(child_task.pid)

    def leader_clone(task, call):
        flags = call.arg(0)
        if not flags & CLONE_THREAD:
            return (yield from leader_fork(
                task, Syscall("fork", (call.arg(1),), site=call.site)))
        result = yield from kernel.native(task, call)
        yield from monitor.publish_control(EV_CLONE, retval=result.retval)
        return result

    def leader_exit(task, call):
        status = call.arg(0, 0)
        yield from monitor.publish_control(EV_EXIT, retval=status)
        raise StopTask(status)

    table: Dict[str, Callable] = dict.fromkeys(LOCAL_CALLS, kernel.native)
    table["listen"] = leader_listen
    table["fork"] = leader_fork
    table["clone"] = leader_clone
    table["exit"] = leader_exit
    table["exit_group"] = leader_exit
    return table, default


# ===========================================================================
# Follower
# ===========================================================================

def make_follower_table(monitor: ReplicaMonitor):
    """Build (table, default_handler) for a follower replica."""
    kernel = monitor.task.kernel
    session = monitor.session

    def _redispatch_as_leader(task, call):
        """The -ERESTARTSYS path after promotion (§3.2, §5.1)."""
        yield from session.await_promotion_complete(task)
        handler = task.gate.table.get(call.name, task.gate.default_handler)
        return (yield from handler(task, call))

    def _match(task, call, expected_etype):
        """Generator: wait for the event matching this call, applying
        rewrite rules on divergence.  Returns Event or PROMOTED; a
        BPF ALLOW verdict returns the special marker ('local', result).
        """
        blocking = call.name in BLOCKING_CALLS
        while True:
            outcome = yield from monitor.await_event(blocking)
            if outcome is PROMOTED:
                return PROMOTED
            event = outcome
            if event.etype == expected_etype and (
                    expected_etype != EV_SYSCALL or event.name == call.name):
                return event
            if event.etype == EV_EXIT and call.name in ("exit",
                                                        "exit_group"):
                return event
            action, cost = monitor.divergence(call, event)
            yield from monitor_compute(cost)
            if action == ACTION_ALLOW:
                session.stats.divergences_allowed += 1
                result = yield from kernel.native(task, call)
                return ("local", result)
            if action == ACTION_SKIP:
                session.stats.divergences_skipped += 1
                yield from monitor.skip_event(event)
                continue
            session.report_divergence(monitor, call, event)
            raise DivergenceError(
                f"{monitor.variant.name}: follower issued {call.name}, "
                f"leader recorded {event.name}")

    def monitor_compute(ncycles):
        from repro.sim.core import Compute

        if ncycles:
            yield Compute(cycles(ncycles))

    def default(task, call):
        matched = yield from _match(task, call, EV_SYSCALL)
        if matched is PROMOTED:
            return (yield from _redispatch_as_leader(task, call))
        if isinstance(matched, tuple) and matched[0] == "local":
            return matched[1]
        event = matched
        if event.etype == EV_EXIT:
            yield from monitor.consume(event)
            raise StopTask(event.retval)
        data = yield from monitor.consume(event)
        if event.fd_count:
            yield from monitor.receive_fds(event, call=call)
        if call.name in EXEC_LOCAL_AFTER_CONSUME:
            yield from kernel.execute(task, call)
        return SysResult(event.retval, data=data, aux=event.aux,
                         new_fds=event.fd_numbers)

    def follower_fork(task, call):
        matched = yield from _match(task, call, EV_FORK)
        if matched is PROMOTED:
            return (yield from _redispatch_as_leader(task, call))
        if isinstance(matched, tuple) and matched[0] == "local":
            return matched[1]
        event = matched
        yield from monitor.consume(event)
        child_task = kernel._fork_task(task, call.arg(0))
        session.attach_follower_child(monitor.variant, child_task,
                                      event.aux[0])
        # The app receives the *leader's* child pid; remember which
        # local task it denotes so a post-promotion wait4/kill on it
        # reaches the right child.
        monitor.variant.pid_map[event.retval] = child_task.pid
        return SysResult(event.retval)

    def follower_clone(task, call):
        flags = call.arg(0)
        if not flags & CLONE_THREAD:
            return (yield from follower_fork(
                task, Syscall("fork", (call.arg(1),), site=call.site)))
        matched = yield from _match(task, call, EV_CLONE)
        if matched is PROMOTED:
            return (yield from _redispatch_as_leader(task, call))
        if isinstance(matched, tuple) and matched[0] == "local":
            return matched[1]
        event = matched
        yield from monitor.consume(event)
        # Spawn the local counterpart thread; report the leader's tid.
        yield from kernel.execute(task, call)
        return SysResult(event.retval)

    def follower_exit(task, call):
        matched = yield from _match(task, call, EV_EXIT)
        if matched is PROMOTED:
            return (yield from _redispatch_as_leader(task, call))
        if isinstance(matched, tuple) and matched[0] == "local":
            return matched[1]
        yield from monitor.consume(matched)
        raise StopTask(matched.retval)

    table: Dict[str, Callable] = dict.fromkeys(LOCAL_CALLS, kernel.native)
    table["fork"] = follower_fork
    table["clone"] = follower_clone
    table["exit"] = follower_exit
    table["exit_group"] = follower_exit
    return table, default
