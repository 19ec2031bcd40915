"""A minimal but faithful epoll implementation."""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.kernel.uapi import (
    EEXIST,
    EINVAL,
    ENOENT,
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLERR,
    EPOLLHUP,
)
from repro.kernel.vfs import FileDescription
from repro.sim.core import TIMEOUT
from repro.sim.sync import WaitQueue


class Epoll(FileDescription):
    """Interest list + ready list, level-triggered.

    Readiness is event-driven, as in Linux: a registration becomes a
    *candidate* when a poke or a ``ctl`` may have raised it, and stays
    one until a re-poll finds it not ready.  ``ready_events`` looks at
    the candidates only, never at the whole interest list.
    """

    kind = "epoll"

    def __init__(self, sim) -> None:
        super().__init__()
        self.sim = sim
        #: fd number → (description, interest mask, registration sequence)
        self.interest: Dict[int, Tuple[FileDescription, int, int]] = {}
        #: fds whose registration may be ready (the ready list).
        self._candidates: Set[int] = set()
        self._next_seq = 0
        self.waiters = WaitQueue(sim)

    def ctl(self, op: int, fd: int, description: FileDescription,
            events: int) -> int:
        raised: Tuple[int, ...] = (fd,)
        if op == EPOLL_CTL_ADD:
            if fd in self.interest:
                return -EEXIST
            self.interest[fd] = (description, events, self._next_seq)
            self._next_seq += 1
            self._watch(description, fd)
        elif op == EPOLL_CTL_MOD:
            if fd not in self.interest:
                return -ENOENT
            old, _, seq = self.interest[fd]
            if old is not description:  # fd number reused without a DEL
                self._unwatch(old, fd)
                self._watch(description, fd)
            self.interest[fd] = (description, events, seq)
        elif op == EPOLL_CTL_DEL:
            if fd not in self.interest:
                return -ENOENT
            self._forget(fd)
            raised = ()
        else:
            return -EINVAL
        # Polling the ADD/MOD target once here is all the notice a
        # non-Pollable (regular file: always ready) ever gives.
        self.poke(raised)
        return 0

    def _watch(self, description: FileDescription, fd: int) -> None:
        if hasattr(description, "watchers"):
            description.watchers.setdefault(self, []).append(fd)

    def _unwatch(self, description: FileDescription, fd: int) -> None:
        fds = getattr(description, "watchers", {}).get(self)
        if fds is not None:
            fds.remove(fd)
            if not fds:
                del description.watchers[self]

    def _forget(self, fd: int) -> None:
        description = self.interest.pop(fd)[0]
        self._candidates.discard(fd)
        self._unwatch(description, fd)

    def ready_events(self) -> List[Tuple[int, int]]:
        """Re-poll the candidates; report those still ready.

        Hits come back in registration order (sequence assigned at ADD,
        kept across MOD), the order a scan of the interest list yields,
        so truncation to ``max_events`` and wake order do not depend on
        which poke arrived first.  Candidates found not ready leave the
        list.  Descriptions whose last reference was closed are pruned,
        as Linux drops an fd from every epoll set when its description
        dies.
        """
        hits = []
        stale = []
        dead = []
        interest = self.interest
        for fd in self._candidates:
            description, mask, seq = interest[fd]
            if description.refcount <= 0:
                dead.append(fd)
                continue
            hit = description.poll_mask() & (mask | EPOLLHUP | EPOLLERR)
            if hit:
                hits.append((seq, fd, hit))
            else:
                stale.append(fd)
        self._candidates.difference_update(stale)
        for fd in dead:
            self._forget(fd)
        hits.sort()
        return [(fd, hit) for _, fd, hit in hits]

    def wait(self, max_events: int, timeout_ps=None):
        """Generator: block until ≥1 event (or timeout). Returns a list."""
        while True:
            ready = self.ready_events()
            if ready:
                return ready[:max_events]
            value = yield from self.waiters.wait(timeout_ps=timeout_ps)
            if value is TIMEOUT:
                return []

    def poke(self, fds: Iterable[int] = ()) -> None:
        """The registrations under ``fds`` may have become ready.

        Called by a watched pollable when its state changes, with the
        fds that name it here.  Wakes the sleepers iff *anything* in
        this epoll is ready.
        """
        self._candidates.update(fds)
        if self.ready_events():
            self.waiters.notify_all()

    def on_last_close(self) -> None:
        for description, _, _ in self.interest.values():
            if hasattr(description, "watchers"):
                description.watchers.pop(self, None)
        self.interest.clear()
        self._candidates.clear()
