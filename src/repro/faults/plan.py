"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is an ordered collection of :class:`Fault` records,
each firing exactly once at a *sim-time* trigger (``at_ps``) or a
*syscall-index* trigger (``at_syscall``: the N-th system call the target
variant dispatches).  Plans are plain data: building one never touches
the simulator, and :meth:`FaultPlan.random` derives everything from a
caller-supplied :class:`random.Random`, so a seed fully determines the
plan.  ``describe()`` renders a canonical one-line form used by the
chaos journal (byte-identical across runs of the same seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional, Tuple

from repro.errors import NvxError

#: Kill the target variant (SIGSEGV path; leader crashes promote).
CRASH = "crash"
#: Slow every syscall the target variant dispatches for a window.
STALL = "stall"
#: Overwrite a pending ring slot's sequence number (a lost/overwritten
#: publish).  Consumers must surface it as a diagnostic NvxError.
CORRUPT_SLOT = "corrupt_slot"
#: Half-written event: mutate payload-describing fields of a pending
#: slot without updating its integrity seal.
TORN_WRITE = "torn_write"
#: Network partition between two machines for a window (messages are
#: held and delivered when the partition heals — TCP retransmission).
PARTITION = "partition"
#: Per-message loss: each message in the window is delayed by one
#: retransmission timeout.
PACKET_LOSS = "packet_loss"
#: Flip one bit of guest (VX86) memory in the target variant's image.
BITFLIP = "bitflip"
#: Kill every variant hosted on one machine at once (power loss /
#: kernel panic).  The machine is also marked dead so leader
#: re-election never promotes onto it.
MACHINE_CRASH = "machine_crash"

#: Kinds that target a variant.
VARIANT_KINDS = frozenset({CRASH, STALL, BITFLIP})
#: Kinds that target a ring tuple.
RING_KINDS = frozenset({CORRUPT_SLOT, TORN_WRITE})
#: Kinds that target the network.
NETWORK_KINDS = frozenset({PARTITION, PACKET_LOSS})
#: Kinds that target a whole machine.
MACHINE_KINDS = frozenset({MACHINE_CRASH})

ALL_KINDS = VARIANT_KINDS | RING_KINDS | NETWORK_KINDS | MACHINE_KINDS
#: What :meth:`FaultPlan.random` draws from, crash weighted double.
RANDOM_KINDS = (CRASH, CRASH, STALL, CORRUPT_SLOT, TORN_WRITE)


#: Fault's integer fields and their valid ranges (inclusive; None: no
#: upper bound).  ``at_ps``/``at_syscall`` may also be None.
_INT_FIELDS = (("variant", -1, None), ("at_ps", 0, None),
               ("at_syscall", 1, None), ("stall_cycles", 0, None),
               ("duration_ps", 0, None), ("slot_offset", 0, None),
               ("addr", 0, None), ("bit", 0, 7))


@dataclass(frozen=True)
class Fault:
    """One scheduled fault."""

    kind: str
    #: Target variant index (CRASH/STALL/BITFLIP); -1 = whoever is the
    #: leader when the fault fires.
    variant: int = -1
    #: Sim-time trigger, picoseconds.  Exactly one of at_ps/at_syscall.
    at_ps: Optional[int] = None
    #: Syscall-index trigger: fires just before the target variant
    #: dispatches its N-th system call (counted across its tasks).
    at_syscall: Optional[int] = None
    #: STALL: extra cycles charged per dispatch inside the window.
    stall_cycles: int = 0
    #: STALL/PARTITION/PACKET_LOSS window length, picoseconds.
    duration_ps: int = 0
    #: CORRUPT_SLOT/TORN_WRITE: ring tuple id to poison.
    ring: int = 0
    #: CORRUPT_SLOT/TORN_WRITE: offset into the pending window selecting
    #: which in-flight slot to poison (modulo the number pending).
    slot_offset: int = 0
    #: BITFLIP: guest address and bit number to flip.
    addr: int = 0
    bit: int = 0
    #: MACHINE_CRASH: name of the machine to kill.
    machine: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise NvxError(f"unknown fault kind {self.kind!r}")
        if (self.at_ps is None) == (self.at_syscall is None):
            raise NvxError(
                f"fault {self.kind}: exactly one of at_ps/at_syscall "
                f"must be set")
        if self.at_syscall is not None and self.kind not in VARIANT_KINDS:
            raise NvxError(
                f"fault {self.kind}: syscall-index triggers only apply "
                f"to variant-targeted faults")
        if self.kind in MACHINE_KINDS and not self.machine:
            raise NvxError(f"fault {self.kind}: machine name required")
        # Out-of-range values would be journalled as something other
        # than what the injector does (bit 9 flips bit 1, variant -7
        # reads "leader"): refuse them here.
        for name, low, high in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("at_ps", "at_syscall"):
                continue
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < low or (high is not None and value > high)):
                bound = f">= {low}" if high is None else f"in {low}..{high}"
                raise NvxError(f"fault {self.kind}: {name} must be an int "
                               f"{bound}, got {value!r}")

    def describe(self) -> str:
        """Canonical journal form, stable across processes and runs."""
        trigger = (f"t={self.at_ps}" if self.at_ps is not None
                   else f"sys={self.at_syscall}")
        target = ""
        if self.kind in VARIANT_KINDS:
            target = f" v{self.variant}" if self.variant >= 0 else " leader"
        extra = ""
        if self.kind == STALL:
            extra = f" stall={self.stall_cycles}c/{self.duration_ps}ps"
        elif self.kind in RING_KINDS:
            extra = f" ring={self.ring} slot+{self.slot_offset}"
        elif self.kind in NETWORK_KINDS:
            extra = f" window={self.duration_ps}ps"
        elif self.kind == BITFLIP:
            extra = f" addr={self.addr:#x} bit={self.bit}"
        elif self.kind in MACHINE_KINDS:
            extra = f" machine={self.machine}"
        return f"{self.kind}[{trigger}{target}{extra}]"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults for one session run."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple) or not all(
                isinstance(fault, Fault) for fault in self.faults):
            raise NvxError(f"FaultPlan.faults must be a tuple of Fault, "
                           f"got {self.faults!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def describe(self) -> str:
        if not self.faults:
            return "(no faults)"
        return " ".join(f.describe() for f in self.faults)

    @staticmethod
    def random(rng: Random, n_variants: int,
               horizon_ps: int) -> "FaultPlan":
        """Draw a random plan from ``rng`` (fully seed-determined).

        ``horizon_ps`` bounds sim-time triggers (usually the fault-free
        run's duration); syscall-index triggers are drawn small so they
        land inside short workloads.  One to three faults, of
        :data:`RANDOM_KINDS`.  At most one variant is crashed per plan *per
        variant index*, so at least one variant always survives.
        """
        faults = []
        crashed = set()
        for _ in range(rng.randint(1, 3)):
            kind = RANDOM_KINDS[rng.randrange(len(RANDOM_KINDS))]
            if kind == CRASH:
                candidates = [v for v in range(n_variants)
                              if v not in crashed]
                if len(candidates) <= 1:
                    continue  # keep one survivor
                variant = candidates[rng.randrange(len(candidates))]
                crashed.add(variant)
                if rng.random() < 0.5:
                    faults.append(Fault(CRASH, variant=variant,
                                        at_syscall=rng.randint(1, 12)))
                else:
                    faults.append(Fault(
                        CRASH, variant=variant,
                        at_ps=rng.randint(1, max(2, horizon_ps))))
            elif kind == STALL:
                faults.append(Fault(
                    STALL, variant=rng.randrange(n_variants),
                    at_syscall=rng.randint(1, 8),
                    stall_cycles=rng.randint(2_000, 50_000),
                    duration_ps=rng.randint(1, max(2, horizon_ps // 2))))
            elif kind in RING_KINDS:
                faults.append(Fault(
                    kind, at_ps=rng.randint(1, max(2, horizon_ps)),
                    ring=0, slot_offset=rng.randrange(8)))
            elif kind in NETWORK_KINDS:
                faults.append(Fault(
                    kind, at_ps=rng.randint(1, max(2, horizon_ps)),
                    duration_ps=rng.randint(1, max(2, horizon_ps // 4))))
            elif kind == BITFLIP:
                faults.append(Fault(
                    BITFLIP, variant=rng.randrange(n_variants),
                    at_ps=rng.randint(1, max(2, horizon_ps)),
                    addr=rng.randrange(1 << 16), bit=rng.randrange(8)))
        return FaultPlan(tuple(faults))

    @staticmethod
    def random_distributed(rng: Random, n_variants: int, horizon_ps: int,
                           placement: Tuple[str, ...],
                           ) -> "FaultPlan":
        """A distributed-session plan: whole-machine loss plus network
        trouble, drawn deterministically from ``rng``.

        ``placement`` names the machine hosting each variant (index i →
        variant i).  At most one machine is crashed, and never one whose
        loss would leave no surviving variant, so every plan keeps the
        session winnable.  A partition window and a classic
        single-variant fault are mixed in with seed-determined odds.
        """
        if len(placement) != n_variants:
            raise NvxError("placement must name one machine per variant")
        faults = []
        # Machines whose loss leaves at least one variant standing.
        crashable = sorted({m for m in placement
                            if sum(1 for p in placement if p != m) >= 1})
        if crashable and rng.random() < 0.8:
            machine = crashable[rng.randrange(len(crashable))]
            faults.append(Fault(
                MACHINE_CRASH, machine=machine,
                at_ps=rng.randint(1, max(2, horizon_ps))))
            survivors = [v for v in range(n_variants)
                         if placement[v] != machine]
        else:
            survivors = list(range(n_variants))
        if rng.random() < 0.5:
            faults.append(Fault(
                PARTITION, at_ps=rng.randint(1, max(2, horizon_ps)),
                duration_ps=rng.randint(1, max(2, horizon_ps // 4))))
        if len(survivors) > 1 and rng.random() < 0.4:
            # One classic fault against a survivor, keeping one alive.
            victim = survivors[rng.randrange(len(survivors))]
            faults.append(Fault(CRASH, variant=victim,
                                at_syscall=rng.randint(1, 12)))
        if not faults:
            faults.append(Fault(
                PACKET_LOSS, at_ps=rng.randint(1, max(2, horizon_ps)),
                duration_ps=rng.randint(1, max(2, horizon_ps // 4))))
        return FaultPlan(tuple(faults))
