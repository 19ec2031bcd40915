"""Selective binary rewriting (§3.2).

Whenever a segment becomes executable, the rewriter linearly disassembles
it and replaces every one-byte ``SYSCALL`` instruction with a five-byte
``JMP`` into a per-site detour trampoline.  Because the jump is longer
than the syscall, the following instructions are relocated into the
trampoline (binary detouring); rel32 branches among them get their
displacements fixed up.  When the patch window contains a branch target
the site cannot be detoured and the syscall is instead replaced in place
with the one-byte ``INT0``, handled later through the signal path.

The trampoline calls a shared *system call entry point* (built by
:mod:`repro.rewriter.entrypoint`) which saves registers, consults the
installed system-call table, and returns — so swapping leader/follower
behaviour is purely a matter of swapping that table, never re-rewriting.
"""

from __future__ import annotations

import struct
from typing import AbstractSet, List, Optional, Sequence, Set

from repro.errors import RewriteError
from repro.isa.assembler import assemble
from repro.isa.disassembler import Insn
from repro.isa.memory import AddressSpace, Segment
from repro.isa.opcodes import BY_MNEMONIC
from repro.rewriter.patchset import (
    KIND_INT,
    KIND_JMP,
    CallSite,
    PatchSet,
)

_JMP_LEN = 5
_INT0_OP = BY_MNEMONIC["int0"].opcode
_JMP_OP = BY_MNEMONIC["jmp"].opcode
_CALL_OP = BY_MNEMONIC["call"].opcode
_NOP_OP = BY_MNEMONIC["nop"].opcode


def _rel32(op: int, src_end: int, target: int) -> bytes:
    return bytes([op]) + struct.pack("<i", target - src_end)


class BinaryRewriter:
    """Rewrites every executable segment mapped into an address space."""

    #: Where the rewriter parks its generated code (entry point,
    #: trampolines, vDSO stubs). High in the address space, away from
    #: application segments.
    SCRATCH_BASE = 0x7000_0000

    def __init__(self, space: AddressSpace, auto: bool = True) -> None:
        self.space = space
        self.patchset = PatchSet()
        self.entry_addr: Optional[int] = None
        self._next_scratch = self.SCRATCH_BASE
        self._installed_entry = False
        if auto:
            # §3.2: rewriting happens whenever a segment is mapped
            # executable or re-protected as executable.
            space.exec_hooks.append(self._on_executable)

    # -- public API -----------------------------------------------------

    def install_entry_point(self) -> int:
        """Map the shared syscall entry point; idempotent."""
        if self._installed_entry:
            return self.entry_addr
        from repro.rewriter.entrypoint import ENTRY_SOURCE

        addr = self._alloc(0x100)
        code = assemble(ENTRY_SOURCE, origin=addr)
        self.space.map(Segment(addr, code, perms="rx", name="varan.entry"))
        self.entry_addr = addr
        self._installed_entry = True
        return addr

    def rewrite_segment(self, segment: Segment) -> List[CallSite]:
        """Scan one executable segment and patch every syscall in it."""
        if segment.name.startswith("varan."):
            return []  # never rewrite our own generated code
        self.install_entry_point()
        stats = self.patchset.stats
        stats.segments_scanned += 1
        stats.bytes_scanned += len(segment.data)

        # The image is of the bytes as scanned: patches below bump the
        # segment version, they never change what this sweep decoded.
        image = segment.image()
        insns = image.sweep()
        targets = image.targets()
        sites: List[CallSite] = []
        consumed: Set[int] = set()  # syscall addrs relocated into trampolines

        for index in image.syscall_sites():
            insn = insns[index]
            if insn.addr in consumed:
                continue
            stats.sites_found += 1
            displaced = self._collect_displaced(insns, index, targets)
            if displaced is None:
                sites.append(self._patch_int(segment, insn))
            else:
                sites.append(
                    self._patch_jmp(segment, insn, displaced, consumed))
        return sites

    # -- patching -------------------------------------------------------

    def _collect_displaced(self, insns: Sequence[Insn], index: int,
                           targets: AbstractSet[int]
                           ) -> Optional[List[Insn]]:
        """Instructions to relocate so a 5-byte JMP fits at the site.

        Returns None when the site must fall back to INT0: a branch
        target lands inside the patch window / displaced region, or the
        window runs off the end of the segment.
        """
        site = insns[index]
        window_end = site.addr + _JMP_LEN
        displaced: List[Insn] = []
        cursor = index + 1
        end = site.end
        while end < window_end:
            if cursor >= len(insns):
                return None  # segment ends mid-window
            nxt = insns[cursor]
            displaced.append(nxt)
            end = nxt.end
            cursor += 1
        # Branch targets strictly inside (site.addr, end) would land on
        # clobbered or relocated bytes.
        if not targets.isdisjoint(range(site.addr + 1, end)):
            return None
        return displaced

    def _patch_jmp(self, segment: Segment, site_insn: Insn,
                   displaced: List[Insn], consumed: Set[int]) -> CallSite:
        continuation = (displaced[-1].end if displaced else site_insn.end)
        trampoline = self._build_trampoline(displaced, continuation, consumed)
        site = self.patchset.new_site(site_insn.addr, KIND_JMP, segment.name)
        # The entry point identifies the site by the return address its
        # CALL pushed: trampoline base + 5.
        self.patchset.by_return_addr[trampoline.start + 5] = site
        # Patch the original code: JMP trampoline, dead bytes → NOP.
        patch = _rel32(_JMP_OP, site_insn.addr + _JMP_LEN, trampoline.start)
        pad = continuation - (site_insn.addr + _JMP_LEN)
        self.space.patch_code(site_insn.addr, patch + bytes([_NOP_OP]) * pad)
        self.patchset.stats.jmp_patched += 1
        self.patchset.stats.relocated_insns += len(displaced)
        return site

    def _patch_int(self, segment: Segment, site_insn: Insn) -> CallSite:
        site = self.patchset.new_site(site_insn.addr, KIND_INT, segment.name)
        self.patchset.by_int_rip[site_insn.end] = site
        self.space.patch_code(site_insn.addr, bytes([_INT0_OP]))
        self.patchset.stats.int_patched += 1
        return site

    def _build_trampoline(self, displaced: List[Insn], continuation: int,
                          consumed: Set[int]) -> Segment:
        """Emit: CALL entry; <relocated instructions>; JMP continuation."""
        if self.entry_addr is None:  # pragma: no cover - guarded by caller
            raise RewriteError("entry point not installed")
        size = 5 + sum(i.length for i in displaced) + 5
        base = self._alloc(size)
        out = bytearray(_rel32(_CALL_OP, base + 5, self.entry_addr))
        for insn in displaced:
            new_addr = base + len(out)
            if insn.mnemonic == "syscall":
                # A second syscall inside the displaced window: it now
                # lives in the trampoline, where we handle it via INT0.
                consumed.add(insn.addr)
                site = self.patchset.new_site(insn.addr, KIND_INT,
                                              "varan.trampoline")
                self.patchset.by_int_rip[new_addr + 1] = site
                self.patchset.stats.int_patched += 1
                out += bytes([_INT0_OP])
            elif insn.branch_target() is not None:
                # rel32 fixup: same absolute target from the new address.
                out += _rel32(insn.raw[0], new_addr + insn.length,
                              insn.branch_target())
            else:
                out += insn.raw
        out += _rel32(_JMP_OP, base + len(out) + _JMP_LEN, continuation)
        segment = Segment(base, bytes(out), perms="rx",
                          name="varan.trampoline")
        self.space.map(segment)
        return segment

    # -- plumbing --------------------------------------------------------

    def _on_executable(self, segment: Segment) -> None:
        self.rewrite_segment(segment)

    def _alloc(self, size: int) -> int:
        addr = self._next_scratch
        self._next_scratch += (size + 0xF) & ~0xF
        return addr
