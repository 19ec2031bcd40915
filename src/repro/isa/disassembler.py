"""Linear-sweep disassembler for VX86.

This is the "simple x86 disassembler" of §3.2: the binary rewriter uses it
to scan executable pages for system-call instructions and to reason about
instruction boundaries and branch targets around each call site.

:func:`decode_one` is the only decoder.  Code mapped into an address
space is decoded through a :class:`CodeImage` (``Segment.image()``),
which remembers what ``decode_one`` said about one immutable snapshot of
bytes so the rewriter, the translation cache and the per-step
interpreter decode each instruction once between them — and, through the
content-addressed :data:`IMAGE_STORE`, once per process rather than once
per variant or session.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import DisassemblyError
from repro.isa.opcodes import (
    BRANCH_MNEMONICS,
    OPCODE_TO_ID,
    OP_SPECS,
    OP_SYSCALL,
    OpSpec,
    REGISTERS,
)


@dataclass(frozen=True)
class Insn:
    """One decoded instruction."""

    addr: int
    spec: OpSpec
    raw: bytes
    #: Decoded operands, shape-dependent (see opcodes.OPERAND SHAPES).
    operands: Tuple
    #: Dense numeric instruction id (see opcodes.OP_ID): interpreter and
    #: translator dispatch on this instead of the mnemonic string.
    op_id: int = -1
    #: Address of the next instruction, ``addr + length``: computed once
    #: here because both executors read it on every step.
    end: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "end", self.addr + self.spec.length)

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def length(self) -> int:
        return self.spec.length

    def branch_target(self) -> Optional[int]:
        """Absolute target for rel32 control transfers, else None."""
        if self.mnemonic in BRANCH_MNEMONICS:
            return self.end + self.operands[0]
        return None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(self._format_operands())
        return f"{self.addr:#08x}: {self.mnemonic} {ops}".rstrip()

    def _format_operands(self) -> List[str]:  # pragma: no cover
        shape = self.spec.operands
        if shape in ("r",):
            return [REGISTERS[self.operands[0]]]
        if shape == "rr":
            return [REGISTERS[self.operands[0]], REGISTERS[self.operands[1]]]
        if shape in ("ri32", "ri64"):
            return [REGISTERS[self.operands[0]], str(self.operands[1])]
        if shape == "i32":
            return [f"{self.branch_target():#x}"]
        if shape == "u8":
            return [str(self.operands[0])]
        if shape == "rm":
            return [REGISTERS[self.operands[0]],
                    f"[{REGISTERS[self.operands[1]]}+{self.operands[2]}]"]
        return []


def decode_one(code: bytes, offset: int, base_addr: int = 0) -> Insn:
    """Decode the instruction starting at ``code[offset]``."""
    if offset < 0:
        raise DisassemblyError(f"decode before start at offset {offset}")
    if offset >= len(code):
        raise DisassemblyError(f"decode past end at offset {offset}")
    opcode = code[offset]
    op_id = OPCODE_TO_ID[opcode]
    if op_id is None:
        raise DisassemblyError(
            f"undecodable byte {opcode:#04x} at offset {offset}")
    spec = OP_SPECS[op_id]
    if offset + spec.length > len(code):
        raise DisassemblyError(
            f"truncated {spec.mnemonic} at offset {offset}")
    raw = bytes(code[offset:offset + spec.length])
    body = raw[1:]
    shape = spec.operands
    operands: Tuple
    if shape == "":
        operands = ()
    elif shape == "u8":
        operands = (body[0],)
    elif shape == "r":
        operands = (body[0] & 0x0F,)
    elif shape == "rr":
        operands = ((body[0] >> 4) & 0x0F, body[0] & 0x0F)
    elif shape == "ri32":
        operands = (body[0] & 0x0F, struct.unpack("<i", body[1:5])[0])
    elif shape == "ri64":
        operands = (body[0] & 0x0F, struct.unpack("<q", body[1:9])[0])
    elif shape == "i32":
        operands = (struct.unpack("<i", body[0:4])[0],)
    elif shape == "rm":
        operands = (body[0] & 0x0F, body[1] & 0x0F,
                    struct.unpack("<i", body[2:6])[0])
    else:  # pragma: no cover - spec table is closed
        raise DisassemblyError(f"unhandled shape {shape!r}")
    return Insn(addr=base_addr + offset, spec=spec, raw=raw,
                operands=operands, op_id=op_id)


def branch_targets(insns: Iterable[Insn]) -> Set[int]:
    """Absolute addresses any decoded instruction may jump to."""
    targets = set()
    for insn in insns:
        tgt = insn.branch_target()
        if tgt is not None:
            targets.add(tgt)
    return targets


class CodeImage:
    """The decoded view of one immutable snapshot of executable bytes.

    Everything that reads instructions — the rewriter's linear sweep,
    the translation cache, the per-step interpreter — reads them from
    here, so a byte sequence is decoded at most once however many
    address spaces map it.  Decoding is lazy and per offset (the
    translator follows control flow, and may land between the linear
    sweep's boundaries); every answer is a pure function of ``(base,
    code)``, which is what makes an image safe to share.  Errors are
    never remembered: a bad offset raises :func:`decode_one`'s error
    afresh on every call.

    :attr:`shapes` holds what superblock formation
    (:func:`repro.isa.translator.form_superblock`) made of these bytes,
    keyed by ``(entry, max_block_insns)`` — as pure a function of the
    image as a decode, so every Cpu mapping the image forms each block
    once.
    """

    __slots__ = ("base", "code", "shapes", "_insns", "_sweep", "_targets",
                 "_syscall_sites")

    def __init__(self, base: int, code: bytes) -> None:
        self.base = base
        self.code = code
        self.shapes: Dict[Tuple[int, int], tuple] = {}
        self._insns: Dict[int, Insn] = {}
        self._sweep: Optional[Tuple[Insn, ...]] = None
        self._targets: Optional[FrozenSet[int]] = None
        self._syscall_sites: Optional[Tuple[int, ...]] = None

    def at(self, offset: int) -> Insn:
        """The instruction starting ``offset`` bytes into the image."""
        insn = self._insns.get(offset)
        if insn is None:
            insn = self._insns[offset] = decode_one(self.code, offset,
                                                    self.base)
        return insn

    def sweep(self) -> Tuple[Insn, ...]:
        """Linear sweep of the whole image (raises on undecodable bytes)."""
        insns = self._sweep
        if insns is None:
            at = self.at
            size = len(self.code)
            out = []
            offset = 0
            while offset < size:
                insn = at(offset)
                out.append(insn)
                offset += insn.spec.length
            insns = self._sweep = tuple(out)
        return insns

    def targets(self) -> FrozenSet[int]:
        """:func:`branch_targets` of the linear sweep."""
        targets = self._targets
        if targets is None:
            targets = self._targets = frozenset(branch_targets(self.sweep()))
        return targets

    def syscall_sites(self) -> Tuple[int, ...]:
        """Indices into :meth:`sweep` of every ``syscall`` instruction."""
        sites = self._syscall_sites
        if sites is None:
            sites = self._syscall_sites = tuple(
                index for index, insn in enumerate(self.sweep())
                if insn.op_id == OP_SYSCALL)
        return sites

    def prefix(self, offset: int, nbytes: int) -> List[Insn]:
        """Whole instructions from ``offset`` covering ≥ ``nbytes``.

        Used by the rewriter to find how many instructions a patch
        window displaces.
        """
        insns: List[Insn] = []
        covered = 0
        while covered < nbytes:
            insn = self.at(offset + covered)
            insns.append(insn)
            covered += insn.spec.length
        return insns


#: Code bytes the process-wide image store may hold.  A benchmark pass
#: keeps 80 KiB live at most (``guest_isa``), so this is generous; it is
#: a constant because nothing observable depends on it — a miss only
#: costs a re-decode.  Fully decoded, an image weighs ~75 B per code
#: byte (``Insn`` objects), so a full store is ~80 MB; translated blocks
#: reference these same objects rather than copying them.
IMAGE_STORE_BYTES = 1 << 20


class ImageStore:
    """Content-addressed LRU of :class:`CodeImage`, bounded by code bytes.

    Keyed by ``(base, code)``: ``Insn.addr`` and branch targets are
    absolute, so equal bytes at another address are another image.  It
    holds only immutable facts about bytes and keeps no counters, so
    nothing a simulation can observe depends on what is in it.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._images: "OrderedDict[Tuple[int, bytes], CodeImage]" = (
            OrderedDict())

    def get(self, base: int, code: bytes) -> CodeImage:
        """The shared image of ``code`` at ``base``, created on a miss.

        An image larger than the whole budget is handed out unshared.
        """
        key = (base, code)
        images = self._images
        image = images.get(key)
        if image is not None:
            images.move_to_end(key)
            return image
        image = CodeImage(base, code)
        if len(code) <= self.budget:
            images[key] = image
            self.nbytes += len(code)
            while self.nbytes > self.budget:
                _key, evicted = images.popitem(last=False)
                self.nbytes -= len(evicted.code)
        return image


#: The one store: images of non-writable segments (see ``Segment.image``).
IMAGE_STORE = ImageStore(IMAGE_STORE_BYTES)
