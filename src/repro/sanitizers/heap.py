"""A simulated application heap with sanitizer instrumentation hooks.

Applications that want sanitizer coverage allocate through
:class:`SimHeap`; a sanitized build (see :mod:`repro.sanitizers.build`)
then *really detects* injected bugs — use-after-free, buffer overflow,
double free, uninitialised reads, simple data races — while charging the
documented slowdown.  An unsanitized build runs the same code with no
checking and no extra cost, which is precisely the §5.3 setup: native
leader, sanitized followers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.costmodel import cycles
from repro.errors import ReproError
from repro.sim.core import Compute


class SanitizerAbort(ReproError):
    """Raised when a sanitizer in halt-on-error mode finds a bug."""


@dataclass
class SanitizerReport:
    kind: str
    addr: int
    detail: str


@dataclass
class _Block:
    addr: int
    size: int
    freed: bool = False
    initialized: Set[int] = field(default_factory=set)
    last_writer_thread: Optional[int] = None


class SimHeap:
    """A bump-allocated heap with optional shadow-state checking."""

    REDZONE = 16

    def __init__(self, ctx, base: int = 0x10_0000_0000) -> None:
        self.ctx = ctx
        self._next = base
        self._blocks: Dict[int, _Block] = {}
        self._by_range: List[_Block] = []
        self.sanitizer = getattr(ctx, "sanitizer", None)
        self.reports: List[SanitizerReport] = []
        self.halt_on_error = getattr(ctx, "sanitizer_halt", False)

    # -- allocation --------------------------------------------------------

    def malloc(self, size: int):
        """Generator: allocate ``size`` bytes, returning the address."""
        cost = 90
        if self.sanitizer is not None:
            cost += self.sanitizer.malloc_overhead
        yield Compute(cycles(self._scaled(cost)))
        addr = self._next
        self._next += size + self.REDZONE
        block = _Block(addr=addr, size=size)
        self._blocks[addr] = block
        self._by_range.append(block)
        return addr

    def free(self, addr: int):
        """Generator: release an allocation."""
        yield Compute(cycles(self._scaled(60)))
        block = self._blocks.get(addr)
        if block is None:
            self._report("invalid-free", addr, "free of unknown pointer")
            return
        if block.freed:
            self._report("double-free", addr, "block already freed")
            return
        block.freed = True  # quarantined: kept for UAF detection

    # -- accesses ------------------------------------------------------------

    def store(self, addr: int, nbytes: int = 8):
        """Generator: a write access with shadow checking."""
        yield from self._access(addr, nbytes, write=True)

    def load(self, addr: int, nbytes: int = 8):
        """Generator: a read access with shadow checking."""
        yield from self._access(addr, nbytes, write=False)

    def _access(self, addr: int, nbytes: int, write: bool):
        cost = 2
        if self.sanitizer is not None:
            cost += self.sanitizer.access_overhead
        yield Compute(cycles(self._scaled(cost)))
        if self.sanitizer is None:
            return
        block = self._find(addr)
        checks = self.sanitizer.detects
        if block is None:
            if "wild-access" in checks:
                self._report("wild-access", addr, "access outside any block")
            return
        if block.freed and "heap-use-after-free" in checks:
            self._report("heap-use-after-free", addr,
                         f"{'write' if write else 'read'} after free")
        end = addr + nbytes
        if end > block.addr + block.size and "heap-buffer-overflow" in checks:
            self._report("heap-buffer-overflow", addr,
                         f"access to {end - (block.addr + block.size)} "
                         f"bytes past the end")
        offset = addr - block.addr
        if write:
            block.initialized.update(range(offset, offset + nbytes))
            thread = self._thread()
            if ("data-race" in checks
                    and block.last_writer_thread is not None
                    and block.last_writer_thread != thread):
                self._report("data-race", addr,
                             f"threads {block.last_writer_thread} and "
                             f"{thread} write without synchronisation")
            block.last_writer_thread = thread
        else:
            if "uninitialized-read" in checks and not block.freed:
                missing = [o for o in range(offset, offset + nbytes)
                           if o not in block.initialized]
                if missing:
                    self._report("uninitialized-read", addr,
                                 f"{len(missing)} uninitialised bytes")

    # -- internals ----------------------------------------------------------------

    def _scaled(self, cost: float) -> float:
        if self.sanitizer is None:
            return cost
        return cost  # slowdown applies to compute, not per-op base

    def _thread(self) -> int:
        return self.ctx.task.thread_index()

    def _find(self, addr: int) -> Optional[_Block]:
        for block in self._by_range:
            if block.addr <= addr < block.addr + block.size + self.REDZONE:
                return block
        return None

    def _report(self, kind: str, addr: int, detail: str) -> None:
        report = SanitizerReport(kind, addr, detail)
        self.reports.append(report)
        sink = getattr(self.ctx, "sanitizer_reports", None)
        if sink is not None:
            sink.append(report)
        if self.halt_on_error:
            raise SanitizerAbort(f"{kind} at {addr:#x}: {detail}")
