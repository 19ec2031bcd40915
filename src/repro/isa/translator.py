"""Translation cache for the VX86 interpreter.

This is the interpreter-side analogue of the paper's load-time binary
rewriting (§3.2): pay the decode and block-formation cost *once* per
block instead of once per retired instruction.  Each executable region
is cut into superblocks of decoded instructions, keyed by entry address
and looked up by ``Cpu.run``.  Translation builds nothing executable: a
cold block runs its instructions on the per-step executor
(``repro.isa.cpu.EXECUTORS``), and a block that goes hot is compiled
into one fused function (:mod:`repro.isa.fuser`).

Semantics are preserved per instruction, not per block:

* blocks end at conditional or indirect control transfers and *before*
  any ``syscall`` / ``int0`` / ``vsys`` / ``vmcall`` / ``hlt``, so
  handler invocation order, ``max_insns`` accounting and sim-time
  interleavings are exactly those of per-step decode;
* a fault leaves ``rip`` at the faulting instruction, ``cycles`` at
  the total retired before it (``cum[i - 1]``) and ``insns_retired`` at
  the instructions before it, exactly as the per-step interpreter
  would.

No guest store can change code: :mod:`repro.isa.memory` holds W^X from
map time on, so a store that would reach an executable segment faults
instead, and a block never has to re-check its code mid-run.  What a
block was translated from changes only in ways two counters record:
``Segment.version``, bumped by the rewriter's ``patch_code``, fault
injection's ``bitflip`` and an ``mprotect`` that takes write permission
away, and ``AddressSpace.mapping_gen``, bumped by every map/unmap and
every loss of execute permission.  A cached block is only reused while
both still match what it was translated from.

``translate`` never reads segment bytes: it takes decoded instructions
from ``Segment.image()``, the per-version :class:`~repro.isa.
disassembler.CodeImage` the rewriter and the per-step interpreter read
too.  Decoding and superblock formation (:func:`form_superblock`, a
pure function of the image's bytes) are done once per image and shared
across Cpus, address spaces and sessions — the image memoises each
block's *shape*.  Blocks, chains and fused bodies belong to one Cpu, as
do the counters, which each cache reports through
:mod:`repro.obs.metrics`; a translation that finds its shape already
formed still counts as one.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import DisassemblyError, ExecutionFault
from repro.isa.opcodes import (
    CONTROL_OP_IDS,
    HANDLER_OP_IDS,
    OP_CALL,
    OP_HLT,
    OP_INT0,
    OP_JMP,
    OP_SYSCALL,
    OP_VSYS,
)
from repro.obs import metrics as obs_metrics

# Block terminator kinds.
T_FALL = 0      # block ended at the insn cap or a decode boundary
T_BRANCH = 1    # last instruction transferred control (set cpu.rip)
T_HLT = 2
T_SYSCALL = 3
T_INT0 = 4
T_VSYS = 5
T_VMCALL = 6


#: Superblock length histogram buckets: lengths land in bucket
#: ``bit_length`` (same power-of-two rule as obs.metrics.Histogram), and
#: the insn cap of 128 bounds the exponent at 8.
SB_LEN_BUCKETS = 9


class CacheStats:
    """Hit/miss/invalidation counters for one cache."""

    __slots__ = ("hits", "misses", "invalidations", "blocks_translated",
                 "insns_translated", "chains_linked", "chains_broken",
                 "chain_follows", "dispatch_blocks", "fused_blocks",
                 "sb_len_buckets")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.blocks_translated = 0
        self.insns_translated = 0
        #: Direct-threaded chaining: exit→entry links patched in (linked),
        #: dropped by invalidation (broken), and block entries reached by
        #: following a link (chain_follows) versus through the dispatch
        #: loop's full lookup (dispatch_blocks).
        self.chains_linked = 0
        self.chains_broken = 0
        self.chain_follows = 0
        self.dispatch_blocks = 0
        #: Blocks promoted to a fused (compiled) body after going hot.
        self.fused_blocks = 0
        self.sb_len_buckets = [0] * SB_LEN_BUCKETS

    def as_dict(self) -> Dict[str, int]:
        counters = {
            "tcache.hits": self.hits,
            "tcache.misses": self.misses,
            "tcache.invalidations": self.invalidations,
            "tcache.blocks_translated": self.blocks_translated,
            "tcache.insns_translated": self.insns_translated,
            "tcache.chains_linked": self.chains_linked,
            "tcache.chains_broken": self.chains_broken,
            "tcache.chain_follows": self.chain_follows,
            "tcache.dispatch_blocks": self.dispatch_blocks,
            "tcache.fused_blocks": self.fused_blocks,
        }
        for exp, count in enumerate(self.sb_len_buckets):
            counters[f"tcache.sb_len_p2_{exp}"] = count
        return counters


class CodeBlock:
    """One translated superblock: its decoded instructions and the
    accounting the executors need, indexed alike."""

    __slots__ = ("entry", "insns", "n_insns", "cycles", "cum", "bounds",
                 "terminator", "term_arg", "term_addr", "term_end",
                 "term_cycles", "end_rip", "segment", "version", "chain",
                 "hot", "fn")

    def __init__(self, entry, insns, cycles, cum, bounds, terminator,
                 term_arg, term_addr, term_end, term_cycles, end_rip,
                 segment, version) -> None:
        self.entry = entry
        self.insns = insns            # decoded straight instructions
        self.n_insns = len(insns)
        self.cycles = cycles          # total cycles of the straight insns
        self.cum = cum                # cumulative cycles after insn i
        self.bounds = bounds          # addr of insn i; bounds[n] = end
        self.terminator = terminator
        self.term_arg = term_arg      # vsys index operand
        self.term_addr = term_addr    # address of the terminator insn
        self.term_end = term_end      # rip while its handler runs
        self.term_cycles = term_cycles
        self.end_rip = end_rip        # resume address for T_FALL
        self.segment = segment
        self.version = version
        #: Direct-threaded chain: successor rip → successor CodeBlock,
        #: patched in on first execution of each exit and dropped when
        #: the successor is invalidated.  Validity is re-checked at every
        #: follow (segment version + mapping generation).
        self.chain: Dict[int, "CodeBlock"] = {}
        #: Executions seen; promotion to a fused body happens at the
        #: cache's fuse threshold.
        self.hot = 0
        #: Fused compiled body (see repro.isa.fuser), or None while cold.
        self.fn = None


# -- the cache -----------------------------------------------------------


#: Executions of a block before it is promoted to a fused compiled body.
#: Low enough that any loop fuses almost immediately; high enough that
#: straight-line code executed once never pays the compile.
FUSE_THRESHOLD = 8

#: Superblock formation never crosses a 4 KiB page boundary from its
#: entry — the paper-side invalidation granularity.
_PAGE_MASK = ~0xFFF


class TranslationCache:
    """Entry-address-keyed cache of :class:`CodeBlock` for one Cpu.

    Builds traces that span direct branches and fall-throughs, chains
    block exits directly to successor blocks, and promotes hot blocks to
    fused compiled bodies.  Registers itself with
    :func:`repro.obs.metrics.register`, so a metrics window collects the
    counters of every cache built inside it.
    """

    __slots__ = ("space", "blocks", "by_segment", "stats",
                 "max_block_insns", "fuse_threshold", "_mapping_gen")

    def __init__(self, space) -> None:
        self.space = space
        self.blocks: Dict[int, CodeBlock] = {}
        self.by_segment: Dict[int, Set[int]] = {}
        self.stats = CacheStats()
        self.max_block_insns = 128
        self.fuse_threshold = FUSE_THRESHOLD
        self._mapping_gen = space.mapping_gen
        obs_metrics.register(self)

    def metrics_snapshot(self) -> dict:
        return {"counters": self.stats.as_dict()}

    def lookup(self, cpu) -> CodeBlock:
        """Return a valid block for ``cpu.rip``, translating on miss.

        Raises exactly what per-step decode would raise at this address:
        ``ExecutionFault`` for unmapped/non-executable rips,
        ``DisassemblyError`` for undecodable first bytes.
        """
        space = self.space
        if space.mapping_gen != self._mapping_gen:
            self.flush()
            self._mapping_gen = space.mapping_gen
        rip = cpu.rip
        block = self.blocks.get(rip)
        if block is not None:
            segment = block.segment
            if segment.version == block.version:
                if not segment.x_ok:
                    raise ExecutionFault(
                        f"{cpu.name}: rip {rip:#x} not executable")
                self.stats.hits += 1
                return block
            self._evict_segment(segment)
        self.stats.misses += 1
        block = self.translate(cpu, rip)
        self.blocks[rip] = block
        self.by_segment.setdefault(id(block.segment), set()).add(rip)
        return block

    def flush(self) -> None:
        """Drop every cached block (segment layout changed)."""
        dropped = len(self.blocks)
        broken = 0
        for block in self.blocks.values():
            broken += len(block.chain)
        self.stats.invalidations += dropped
        self.stats.chains_broken += broken
        self.blocks.clear()
        self.by_segment.clear()

    def _evict_segment(self, segment) -> None:
        """Drop all blocks translated from a now-stale segment, and
        eagerly unlink every chain edge into them so no survivor can
        reach an evicted block without a fresh dispatch."""
        entries = self.by_segment.pop(id(segment), None)
        if not entries:
            return
        broken = 0
        for entry in entries:
            evicted = self.blocks.pop(entry, None)
            if evicted is not None:
                broken += len(evicted.chain)
        for block in self.blocks.values():
            chain = block.chain
            if not chain:
                continue
            stale = [rip for rip, succ in chain.items()
                     if succ.segment is segment]
            for rip in stale:
                del chain[rip]
            broken += len(stale)
        self.stats.invalidations += len(entries)
        self.stats.chains_broken += broken

    def translate(self, cpu, rip: int) -> CodeBlock:
        """The block at ``rip``: this Cpu's :class:`CodeBlock` around the
        superblock shape the segment's code image holds for it.

        A shape is formed (:func:`form_superblock`) the first time any
        Cpu asks the image for it, and memoised on the image under
        ``(rip, max_block_insns)``; errors are never memoised.  The
        ``tcache.*`` counters still count every translation.
        """
        segment = self.space.find(rip)
        if not segment.x_ok:
            raise ExecutionFault(
                f"{cpu.name}: rip {rip:#x} not executable")
        image = segment.image()
        key = (rip, self.max_block_insns)
        shape = image.shapes.get(key)
        if shape is None:
            shape = image.shapes[key] = form_superblock(
                image, rip, self.max_block_insns)
        n_insns = len(shape[0])
        stats = self.stats
        stats.blocks_translated += 1
        stats.insns_translated += n_insns
        stats.sb_len_buckets[min(n_insns.bit_length(),
                                 SB_LEN_BUCKETS - 1)] += 1
        return CodeBlock(rip, *shape, segment, segment.version)


def form_superblock(image, rip: int, limit: int) -> tuple:
    """Decode one superblock of ``image`` starting at ``rip``.

    Returns ``CodeBlock``'s shape fields, from ``insns`` to ``end_rip``:
    a pure function of the image's bytes, ``rip`` and ``limit``.

    The trace continues *through* direct ``jmp``/``call`` (decoding
    resumes at the target; executing the spanned instruction moves
    ``rip`` there, and a call pushes its return address) and ends only
    at conditionals and indirect transfers (covered by chaining),
    handler/hlt instructions, the insn cap, a revisited address, or the
    edge of the entry's 4 KiB page.
    """
    insn_at = image.at
    base = image.base
    end = base + len(image.code)

    insns: List = []
    bounds: List[int] = []
    cum: List[int] = []
    total = 0
    terminator = T_FALL
    term_arg = 0
    term_addr = 0
    term_end = 0
    term_cycles = 0
    offset = rip - base
    addr = rip
    page_start = rip & _PAGE_MASK
    page_end = page_start + 0x1000
    visited: Set[int] = set()
    while len(insns) < limit:
        try:
            insn = insn_at(offset)
        except DisassemblyError:
            if not insns:
                # The per-step interpreter would fault right here, with
                # nothing retired; re-raise its exact error.
                raise
            # Otherwise stop the block *before* the bad bytes: the
            # fault fires only if execution actually reaches them.
            break
        op_id = insn.op_id
        if op_id in HANDLER_OP_IDS:
            if op_id == OP_HLT:
                terminator = T_HLT
            elif op_id == OP_SYSCALL:
                terminator = T_SYSCALL
            elif op_id == OP_INT0:
                terminator = T_INT0
            elif op_id == OP_VSYS:
                terminator = T_VSYS
                term_arg = insn.operands[0]
            else:
                terminator = T_VMCALL
            term_addr = insn.addr
            term_end = insn.end
            term_cycles = insn.spec.cycles
            break
        next_addr = insn.end
        spanned = False
        if op_id == OP_JMP or op_id == OP_CALL:
            target = insn.end + insn.operands[0]
            if (base <= target < end
                    and page_start <= target < page_end
                    and target not in visited
                    and len(insns) + 1 < limit):
                # Continue the trace through the direct transfer.
                spanned = True
                next_addr = target
        total += insn.spec.cycles
        insns.append(insn)
        bounds.append(insn.addr)
        cum.append(total)
        visited.add(insn.addr)
        if op_id in CONTROL_OP_IDS and not spanned:
            terminator = T_BRANCH
            addr = insn.end
            break
        addr = next_addr
        offset = addr - base
        if addr in visited or not page_start <= addr < page_end:
            # Loop closed or page edge: stop here and let chaining
            # thread this exit to the successor block.
            break

    return (tuple(insns), total, tuple(cum), tuple(bounds) + (addr,),
            terminator, term_arg, term_addr, term_end, term_cycles, addr)
