"""Sanitized builds (§5.3).

Clang/GCC sanitizers statically instrument the code; we model a
"sanitized build" of a simulated application as the same generator
function run under a :class:`SanitizedContext` that (a) multiplies all
application compute by the documented slowdown and (b) arms the shadow
checks of :class:`~repro.sanitizers.heap.SimHeap`.

Because VARAN followers skip I/O entirely, a sanitized follower usually
keeps up with a native leader — the core claim of live sanitization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List

from repro.core.coordinator import VersionSpec
from repro.costmodel import cycles
from repro.runtime.context import ProcessContext
from repro.sim.core import Compute


@dataclass(frozen=True)
class Sanitizer:
    """One sanitizer flavour with its documented overhead."""

    name: str
    #: Compute multiplier (paper: ASan 2×, MSan 3×, TSan 5-15×).
    slowdown: float
    detects: FrozenSet[str]
    malloc_overhead: int = 140  # redzone poisoning etc., cycles
    access_overhead: int = 3  # shadow lookup per access, cycles


ASAN = Sanitizer("asan", 2.0, frozenset(
    {"heap-use-after-free", "heap-buffer-overflow", "double-free",
     "wild-access"}))
MSAN = Sanitizer("msan", 3.0, frozenset({"uninitialized-read"}))
TSAN = Sanitizer("tsan", 8.0, frozenset({"data-race"}), access_overhead=6)

SANITIZERS = {"asan": ASAN, "msan": MSAN, "tsan": TSAN}


class SanitizedContext(ProcessContext):
    """A ProcessContext whose compute runs under instrumentation."""

    def __init__(self, task, sanitizer: Sanitizer, reports: List) -> None:
        super().__init__(task)
        self.sanitizer = sanitizer
        self.sanitizer_reports = reports

    def compute(self, ncycles: float):
        yield Compute(cycles(ncycles * self.sanitizer.slowdown))


def sanitized_spec(name: str, main: Callable, sanitizer: Sanitizer,
                   reports: List) -> VersionSpec:
    """Build a VersionSpec whose task runs under ``sanitizer``.

    ``reports`` collects every SanitizerReport the build produces.
    """

    def sanitized_main(ctx):
        instrumented = SanitizedContext(ctx.task, sanitizer, reports)
        return (yield from main(instrumented))

    return VersionSpec(name=f"{name}+{sanitizer.name}",
                       main=sanitized_main)
