"""Segmented address space for VX86 images.

Mirrors the parts of a Linux process image the paper cares about: text
segments of the application and dynamic linker, the vDSO, Varan's
injected monitor library, stack and heap — each with page permissions,
so the rewriter can honour the W^X discipline of §3.2.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.errors import ExecutionFault, RewriteError
from repro.isa.disassembler import IMAGE_STORE, CodeImage

_MASK64 = 2 ** 64 - 1
_U64 = struct.Struct("<Q")


class Segment:
    """A contiguous mapped region."""

    def __init__(self, start: int, data: bytes, perms: str = "rw",
                 name: str = "seg") -> None:
        self.perms = perms
        if self.w_ok and self.x_ok:
            raise ExecutionFault(f"{name}: W^X violation (mapped {perms!r})")
        self.start = start
        self.data = bytearray(data)
        self.name = name
        #: Bumped whenever the bytes code is read from may have changed:
        #: a rewriter patch, a bit flip, or an mprotect that takes write
        #: permission away (guest stores need no bump: W^X keeps them out
        #: of executable segments).  Translated code blocks record the
        #: version they were decoded from and are evicted when it no
        #: longer matches.
        self.version = 0
        # Segment length is fixed after construction (every mutation is
        # an equal-length splice), so the end is a plain attribute — this
        # sits on the per-access path of every find/read/write.
        self.end = start + len(self.data)
        self._image: Optional[CodeImage] = None
        self._image_version = -1

    def image(self) -> CodeImage:
        """Decoded view of the current bytes — the only way code is read.

        Cached per :attr:`version` and taken from the process-wide
        content-addressed store, so every address space mapping the same
        bytes at the same address shares one decode.  Stores do not move
        the version, so a writable segment's image may lag its bytes;
        it is current again once mprotect takes the write permission
        away, which W^X requires before the segment can execute.
        """
        if self._image_version != self.version:
            self._image = IMAGE_STORE.get(self.start, bytes(self.data))
            self._image_version = self.version
        return self._image

    @property
    def perms(self) -> str:
        return self._perms

    @perms.setter
    def perms(self, perms: str) -> None:
        """The one way permissions change: checks the alphabet and sets
        the booleans the access paths test instead of scanning the
        string per access."""
        if not set(perms) <= set("rwx"):
            raise ExecutionFault(f"bad perms {perms!r}")
        self._perms = perms
        self.r_ok = "r" in perms
        self.w_ok = "w" in perms
        self.x_ok = "x" in perms

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment {self.name} {self.start:#x}-{self.end:#x} "
                f"{self.perms}>")


class AddressSpace:
    """Collection of non-overlapping segments with permission checks."""

    def __init__(self) -> None:
        self.segments: List[Segment] = []
        #: Observers called as fn(segment) when a segment becomes
        #: executable — the hook the rewriter uses to catch code loaded
        #: or re-protected at runtime (§3.2 "whenever code is loaded").
        self.exec_hooks: List = []
        #: Bumped whenever the segment *layout* changes (map/unmap), so
        #: address-keyed caches can drop blocks whose address may now
        #: resolve to a different segment.  Also bumped when mprotect
        #: removes execute permission: directly-chained translated blocks
        #: skip the per-dispatch perms check, so losing "x" must force a
        #: full translation-cache flush to keep de-executed code from
        #: running through a stale chain.
        self.mapping_gen = 0
        #: page (addr >> 12) → segment, fed by :meth:`find` and consumed
        #: by it and the u64 fast paths.  Entries are only trusted after a
        #: full bounds (+ permission) re-check, so the only invalidation
        #: needed is on unmap.
        self._pages: Dict[int, Segment] = {}

    def map(self, segment: Segment) -> Segment:
        for other in self.segments:
            if segment.start < other.end and other.start < segment.end:
                raise ExecutionFault(
                    f"mapping {segment.name} overlaps {other.name}")
        self.segments.append(segment)
        self.mapping_gen += 1
        if "x" in segment.perms:
            self._fire_exec_hooks(segment)
        return segment

    def unmap(self, segment: Segment) -> None:
        self.segments.remove(segment)
        self.mapping_gen += 1
        self._pages.clear()

    def find(self, addr: int) -> Segment:
        # The page cache holds only segments a scan returned; the bounds
        # make a hit exactly the scan's answer (segments never overlap).
        segment = self._pages.get(addr >> 12)
        if segment is not None and segment.start <= addr < segment.end:
            return segment
        for segment in self.segments:
            if segment.contains(addr):
                self._pages[addr >> 12] = segment
                return segment
        raise ExecutionFault(f"unmapped address {addr:#x}")

    def mprotect(self, segment: Segment, perms: str) -> None:
        """Change permissions, enforcing W^X (``RewriteError``) and the
        ``rwx`` alphabet (``ExecutionFault``, like :class:`Segment`)."""
        if "w" in perms and "x" in perms:
            raise RewriteError(
                f"{segment.name}: W^X violation (requested {perms!r})")
        newly_executable = "x" in perms and not segment.x_ok
        lost_execute = "x" not in perms and segment.x_ok
        lost_write = "w" not in perms and segment.w_ok
        segment.perms = perms
        if lost_write:
            # Stores moved the bytes without a version bump; from here on
            # nothing but patch_code and bitflip can, so re-decode once.
            segment.version += 1
        if lost_execute:
            # Chained translated blocks bypass the per-dispatch perms
            # check; treat losing "x" like a layout change so caches
            # flush and the next dispatch faults exactly like per-step
            # decode would.
            self.mapping_gen += 1
        if newly_executable:
            self._fire_exec_hooks(segment)

    # -- typed accessors ------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        segment = self.find(addr)
        if not segment.w_ok:
            raise ExecutionFault(f"write to non-writable {segment.name}")
        if addr + len(data) > segment.end:
            raise ExecutionFault(f"write crosses segment end at {addr:#x}")
        off = addr - segment.start
        segment.data[off:off + len(data)] = data

    def read_u64(self, addr: int) -> int:
        # Page-cache fast path: every condition the slow path enforces is
        # re-checked here (containment, readability, no segment-end
        # crossing), so the two paths are observably identical and the
        # slow path keeps sole ownership of fault messages.
        seg = self._pages.get(addr >> 12)
        if (seg is not None and seg.r_ok and seg.start <= addr
                and addr + 8 <= seg.end):
            return _U64.unpack_from(seg.data, addr - seg.start)[0]
        seg = self.find(addr)
        if not seg.r_ok:
            raise ExecutionFault(f"read from non-readable {seg.name}")
        if addr + 8 > seg.end:
            raise ExecutionFault(f"read crosses segment end at {addr:#x}")
        return _U64.unpack_from(seg.data, addr - seg.start)[0]

    def write_u64(self, addr: int, value: int) -> None:
        seg = self._pages.get(addr >> 12)
        if (seg is not None and seg.w_ok and seg.start <= addr
                and addr + 8 <= seg.end):
            _U64.pack_into(seg.data, addr - seg.start, value & _MASK64)
            return
        self.write(addr, _U64.pack(value & _MASK64))

    def patch_code(self, addr: int, data: bytes) -> None:
        """Rewriter-only mutation of an executable segment.

        Models the rewriter's temporary re-protection cycle: it never
        leaves a segment writable+executable, so the patch is applied
        through a privileged path rather than a plain store.
        """
        segment = self.find(addr)
        if addr + len(data) > segment.end:
            raise RewriteError(f"patch crosses segment end at {addr:#x}")
        off = addr - segment.start
        segment.data[off:off + len(data)] = data
        segment.version += 1

    def bitflip(self, addr: int, bit: int) -> bool:
        """Flip one bit of mapped memory (fault injection).

        Bypasses permission checks — a cosmic ray does not consult the
        page tables — but bumps the segment version so translated code
        caching the old bytes is invalidated, exactly as any other
        mutation would.  Returns False when ``addr`` is unmapped (the
        injector journals the skip instead of faulting).
        """
        for segment in self.segments:
            if segment.contains(addr):
                off = addr - segment.start
                segment.data[off] ^= 1 << (bit & 7)
                segment.version += 1
                return True
        return False

    def _fire_exec_hooks(self, segment: Segment) -> None:
        for hook in list(self.exec_hooks):
            hook(segment)
