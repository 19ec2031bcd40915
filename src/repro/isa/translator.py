"""Translation cache for the VX86 interpreter.

This is the interpreter-side analogue of the paper's load-time binary
rewriting (§3.2): pay the decode cost *once* per block instead of once
per retired instruction.  Each executable region is decoded into
superblocks of pre-bound micro-ops — Python closures with operands,
register indices and memory accessors resolved at translate time,
selected through a numeric opcode table rather than a mnemonic string
chain — keyed by entry address and looked up by ``Cpu.run``.

Semantics are preserved per instruction, not per block:

* blocks end at conditional or indirect control transfers and *before*
  any ``syscall`` / ``int0`` / ``vsys`` / ``vmcall`` / ``hlt``, so
  handler invocation order, ``max_insns`` accounting and sim-time
  interleavings are exactly those of per-step decode;
* every micro-op that can fault records the faulting instruction's
  address and the cycles retired before it, so a fault leaves ``rip``
  and ``cycles`` exactly as the per-step interpreter would;
* micro-ops that write memory re-check their segment's version after
  the store and bail out of the block if the code under it changed
  (self-modifying guest code), resuming at the next instruction.

Invalidation is driven by the write-tracking in
:mod:`repro.isa.memory`: every mutation of a segment bumps
``Segment.version`` (plain stores and the rewriter's ``patch_code``
text patches alike) and every map/unmap bumps
``AddressSpace.mapping_gen``.  A cached block is only reused while both
still match what it was translated from.

``translate`` never reads segment bytes: it takes decoded instructions
from ``Segment.image()``, the per-version :class:`~repro.isa.
disassembler.CodeImage` the rewriter and the per-step interpreter read
too.  Only decoding is shared (across Cpus, address spaces and
sessions); micro-ops, blocks, chains and fused bodies bind one Cpu's
registers and stay private to it, as do all the counters.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import DisassemblyError, ExecutionFault
from repro.isa.opcodes import (
    CONTROL_OP_IDS,
    HANDLER_OP_IDS,
    OPCODE_TO_ID,
    OP_ADD,
    OP_ADDI,
    OP_CALL,
    OP_CALLR,
    OP_CMP,
    OP_CMPI,
    OP_HLT,
    OP_INT0,
    OP_JMP,
    OP_JNZ,
    OP_JZ,
    OP_LOAD,
    OP_MOV,
    OP_MOVI,
    OP_NOP,
    OP_POP,
    OP_POPA,
    OP_PUSH,
    OP_PUSHA,
    OP_RET,
    OP_SPECS,
    OP_STORE,
    OP_SUB,
    OP_SUBI,
    OP_SYSCALL,
    OP_VSYS,
    REG_INDEX,
)

_MASK = 2 ** 64 - 1
_RSP = REG_INDEX["rsp"]
_PUSHA_ORDER = tuple(i for i in range(16) if i != _RSP)
_POPA_ORDER = tuple(i for i in reversed(range(16)) if i != _RSP)

# Block terminator kinds.
T_FALL = 0      # block ended at the insn cap or a decode boundary
T_BRANCH = 1    # last micro-op transferred control (set cpu.rip)
T_HLT = 2
T_SYSCALL = 3
T_INT0 = 4
T_VSYS = 5
T_VMCALL = 6


class BlockExit(Exception):
    """Internal: a micro-op detected self-modified code mid-block.

    Carries exact resume state so the executor retires precisely the
    micro-ops that ran (including the store that did the modifying).
    """

    def __init__(self, next_rip: int, cycles_done: int,
                 n_done: int) -> None:
        super().__init__("block invalidated mid-execution")
        self.next_rip = next_rip
        self.cycles_done = cycles_done
        self.n_done = n_done


#: Superblock length histogram buckets: lengths land in bucket
#: ``bit_length`` (same power-of-two rule as obs.metrics.Histogram), and
#: the insn cap of 128 bounds the exponent at 8.
SB_LEN_BUCKETS = 9


class CacheStats:
    """Hit/miss/invalidation counters for one cache (or the process)."""

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

    def observe_length(self, n_insns: int) -> None:
        bucket = n_insns.bit_length() if n_insns > 0 else 0
        self.sb_len_buckets[min(bucket, SB_LEN_BUCKETS - 1)] += 1

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


#: Process-wide aggregate over every cache; ``repro.obs.metrics`` reads
#: deltas of this so ``sweep --metrics`` surfaces translation activity.
GLOBAL_STATS = CacheStats()


class CodeBlock:
    """One translated superblock."""

    __slots__ = ("entry", "ops", "n_ops", "cycles", "cum", "bounds",
                 "terminator", "term_arg", "term_addr", "term_end",
                 "term_cycles", "end_rip", "segment", "version", "insns",
                 "chain", "hot", "fn")

    def __init__(self, entry, ops, cycles, cum, bounds, terminator,
                 term_arg, term_addr, term_end, term_cycles, end_rip,
                 segment, version, insns=()) -> None:
        self.entry = entry
        self.ops = ops
        self.n_ops = len(ops)
        self.cycles = cycles          # total cycles of the straight ops
        self.cum = cum                # cumulative cycles after op i
        self.bounds = bounds          # addr of op i; bounds[n] = end
        self.terminator = terminator
        self.term_arg = term_arg      # vsys index operand
        self.term_addr = term_addr    # address of the terminator insn
        self.term_end = term_end      # rip while its handler runs
        self.term_cycles = term_cycles
        self.end_rip = end_rip        # resume address for T_FALL
        self.segment = segment
        self.version = version
        #: Decoded instructions behind ``ops`` (same indexing), kept for
        #: the fused-code generator.
        self.insns = insns
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


class _OpCtx:
    """Translate-time context handed to each micro-op compiler."""

    __slots__ = ("cpu", "regs", "read_u64", "write_u64", "segment",
                 "version", "cyc_before", "cyc_after", "n_done",
                 "next_addr")

    def __init__(self, cpu, regs, read_u64, write_u64, segment, version,
                 cyc_before, cyc_after, n_done, next_addr) -> None:
        self.cpu = cpu
        self.regs = regs
        self.read_u64 = read_u64
        self.write_u64 = write_u64
        self.segment = segment
        self.version = version
        self.cyc_before = cyc_before
        self.cyc_after = cyc_after
        self.n_done = n_done
        self.next_addr = next_addr


# -- micro-op compilers --------------------------------------------------
#
# One entry per instruction id; each returns a zero-argument closure with
# everything pre-bound.  Handler/hlt ids stay None: they terminate blocks
# and are interpreted by the executor in Cpu._run_cached.

_COMPILERS: List = [None] * len(OP_SPECS)


def _compiles(op_id: int):
    def register(fn):
        _COMPILERS[op_id] = fn
        return fn
    return register


@_compiles(OP_NOP)
def _c_nop(insn, ctx):
    def op():
        pass
    return op


@_compiles(OP_MOV)
def _c_mov(insn, ctx):
    regs = ctx.regs
    d, s = insn.operands

    def op():
        regs[d] = regs[s]
    return op


@_compiles(OP_MOVI)
def _c_movi(insn, ctx):
    regs = ctx.regs
    d = insn.operands[0]
    value = insn.operands[1] & _MASK

    def op():
        regs[d] = value
    return op


@_compiles(OP_ADD)
def _c_add(insn, ctx):
    regs = ctx.regs
    d, s = insn.operands

    def op():
        regs[d] = (regs[d] + regs[s]) & _MASK
    return op


@_compiles(OP_ADDI)
def _c_addi(insn, ctx):
    regs = ctx.regs
    d, imm = insn.operands

    def op():
        regs[d] = (regs[d] + imm) & _MASK
    return op


@_compiles(OP_SUB)
def _c_sub(insn, ctx):
    cpu, regs = ctx.cpu, ctx.regs
    d, s = insn.operands

    def op():
        result = (regs[d] - regs[s]) & _MASK
        regs[d] = result
        cpu.zf = result == 0
    return op


@_compiles(OP_SUBI)
def _c_subi(insn, ctx):
    cpu, regs = ctx.cpu, ctx.regs
    d, imm = insn.operands

    def op():
        result = (regs[d] - imm) & _MASK
        regs[d] = result
        cpu.zf = result == 0
    return op


@_compiles(OP_CMP)
def _c_cmp(insn, ctx):
    cpu, regs = ctx.cpu, ctx.regs
    d, s = insn.operands

    def op():
        cpu.zf = regs[d] == regs[s]
    return op


@_compiles(OP_CMPI)
def _c_cmpi(insn, ctx):
    cpu, regs = ctx.cpu, ctx.regs
    d = insn.operands[0]
    value = insn.operands[1] & _MASK

    def op():
        cpu.zf = regs[d] == value
    return op


@_compiles(OP_JMP)
def _c_jmp(insn, ctx):
    cpu = ctx.cpu
    target = insn.end + insn.operands[0]

    def op():
        cpu.rip = target
    return op


@_compiles(OP_JZ)
def _c_jz(insn, ctx):
    cpu = ctx.cpu
    taken = insn.end + insn.operands[0]
    fallthrough = insn.end

    def op():
        cpu.rip = taken if cpu.zf else fallthrough
    return op


@_compiles(OP_JNZ)
def _c_jnz(insn, ctx):
    cpu = ctx.cpu
    taken = insn.end + insn.operands[0]
    fallthrough = insn.end

    def op():
        cpu.rip = fallthrough if cpu.zf else taken
    return op


@_compiles(OP_CALL)
def _c_call(insn, ctx):
    cpu, regs, write_u64 = ctx.cpu, ctx.regs, ctx.write_u64
    ret_addr = insn.end
    target = insn.end + insn.operands[0]
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before

    def op():
        rsp = (regs[_RSP] - 8) & _MASK
        regs[_RSP] = rsp
        try:
            write_u64(rsp, ret_addr)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        cpu.rip = target
    return op


@_compiles(OP_CALLR)
def _c_callr(insn, ctx):
    cpu, regs, write_u64 = ctx.cpu, ctx.regs, ctx.write_u64
    ret_addr = insn.end
    r = insn.operands[0]
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before

    def op():
        rsp = (regs[_RSP] - 8) & _MASK
        regs[_RSP] = rsp
        try:
            write_u64(rsp, ret_addr)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        # Read after the push, like the interpreter (matters for r==rsp).
        cpu.rip = regs[r]
    return op


@_compiles(OP_RET)
def _c_ret(insn, ctx):
    cpu, regs, read_u64 = ctx.cpu, ctx.regs, ctx.read_u64
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before

    def op():
        rsp = regs[_RSP]
        try:
            value = read_u64(rsp)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        regs[_RSP] = (rsp + 8) & _MASK
        cpu.rip = value
    return op


@_compiles(OP_PUSH)
def _c_push(insn, ctx):
    cpu, regs, write_u64 = ctx.cpu, ctx.regs, ctx.write_u64
    s = insn.operands[0]
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before
    seg, version = ctx.segment, ctx.version
    bail = BlockExit(ctx.next_addr, ctx.cyc_after, ctx.n_done)

    def op():
        # Read the source before moving rsp, like the interpreter does
        # (matters for `push rsp`, which stores the *old* value).
        value = regs[s]
        rsp = (regs[_RSP] - 8) & _MASK
        regs[_RSP] = rsp
        try:
            write_u64(rsp, value)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        if seg.version != version:
            raise bail
    return op


@_compiles(OP_POP)
def _c_pop(insn, ctx):
    cpu, regs, read_u64 = ctx.cpu, ctx.regs, ctx.read_u64
    d = insn.operands[0]
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before

    def op():
        rsp = regs[_RSP]
        try:
            value = read_u64(rsp)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        regs[_RSP] = (rsp + 8) & _MASK
        regs[d] = value
    return op


@_compiles(OP_LOAD)
def _c_load(insn, ctx):
    cpu, regs, read_u64 = ctx.cpu, ctx.regs, ctx.read_u64
    d, b, disp = insn.operands
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before

    def op():
        try:
            regs[d] = read_u64(regs[b] + disp)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
    return op


@_compiles(OP_STORE)
def _c_store(insn, ctx):
    cpu, regs, write_u64 = ctx.cpu, ctx.regs, ctx.write_u64
    s, b, disp = insn.operands
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before
    seg, version = ctx.segment, ctx.version
    bail = BlockExit(ctx.next_addr, ctx.cyc_after, ctx.n_done)

    def op():
        try:
            write_u64(regs[b] + disp, regs[s])
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        if seg.version != version:
            raise bail
    return op


@_compiles(OP_PUSHA)
def _c_pusha(insn, ctx):
    cpu, regs, write_u64 = ctx.cpu, ctx.regs, ctx.write_u64
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before
    seg, version = ctx.segment, ctx.version
    bail = BlockExit(ctx.next_addr, ctx.cyc_after, ctx.n_done)

    def op():
        try:
            for i in _PUSHA_ORDER:
                rsp = (regs[_RSP] - 8) & _MASK
                regs[_RSP] = rsp
                write_u64(rsp, regs[i])
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        if seg.version != version:
            raise bail
    return op


@_compiles(OP_POPA)
def _c_popa(insn, ctx):
    cpu, regs, read_u64 = ctx.cpu, ctx.regs, ctx.read_u64
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before

    def op():
        try:
            for i in _POPA_ORDER:
                rsp = regs[_RSP]
                value = read_u64(rsp)
                regs[_RSP] = (rsp + 8) & _MASK
                regs[i] = value
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
    return op


# -- spanned direct transfers (superblock formation) ----------------------
#
# When a superblock continues *through* a direct jmp, the jump costs its
# cycle but moves no architectural state the trace doesn't already know:
# the op is an accounting placeholder so ops/bounds/cum stay parallel
# arrays.  A spanned call does real work (pushes the return address) and
# must bail to its *target* if the push modified this block's own code.


def _noop():
    pass


def _c_call_span(insn, ctx):
    """A direct call spanned mid-trace: push the return address and keep
    going at the translate-time target (``ctx.next_addr``)."""
    cpu, regs, write_u64 = ctx.cpu, ctx.regs, ctx.write_u64
    ret_addr = insn.end
    fault_addr = insn.addr
    cyc_before = ctx.cyc_before
    seg, version = ctx.segment, ctx.version
    bail = BlockExit(ctx.next_addr, ctx.cyc_after, ctx.n_done)

    def op():
        rsp = (regs[_RSP] - 8) & _MASK
        regs[_RSP] = rsp
        try:
            write_u64(rsp, ret_addr)
        except BaseException:
            cpu.rip = fault_addr
            cpu._fault_cycles = cyc_before
            raise
        if seg.version != version:
            raise bail
    return op


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
    fused compiled bodies.
    """

    __slots__ = ("space", "blocks", "by_segment", "stats",
                 "max_block_insns", "fuse_threshold", "_mapping_gen")

    def __init__(self, space, max_block_insns: int = 128) -> None:
        self.space = space
        self.blocks: Dict[int, CodeBlock] = {}
        self.by_segment: Dict[int, Set[int]] = {}
        self.stats = CacheStats()
        self.max_block_insns = max_block_insns
        self.fuse_threshold = FUSE_THRESHOLD
        self._mapping_gen = space.mapping_gen

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
                GLOBAL_STATS.hits += 1
                return block
            self._evict_segment(segment)
        self.stats.misses += 1
        GLOBAL_STATS.misses += 1
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
        GLOBAL_STATS.invalidations += dropped
        GLOBAL_STATS.chains_broken += broken
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
        GLOBAL_STATS.invalidations += len(entries)
        GLOBAL_STATS.chains_broken += broken

    def translate(self, cpu, rip: int) -> CodeBlock:
        """Decode one superblock starting at ``rip``.

        The trace continues *through* direct ``jmp``/``call`` (the jump
        becomes an accounting no-op, the call pushes its return address
        and resumes decoding at the callee) and ends only at
        conditionals and indirect transfers (covered by chaining),
        handler/hlt instructions, the insn cap, a revisited address, or
        the edge of the entry's 4 KiB page.
        """
        space = self.space
        segment = space.find(rip)
        if not segment.x_ok:
            raise ExecutionFault(
                f"{cpu.name}: rip {rip:#x} not executable")
        insn_at = segment.image().at
        base = segment.start
        version = segment.version
        regs = cpu.regs
        read_u64 = space.read_u64
        write_u64 = space.write_u64

        ops: List = []
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
        limit = self.max_block_insns
        page_start = rip & _PAGE_MASK
        page_end = page_start + 0x1000
        visited: Set[int] = set()
        while len(ops) < limit:
            try:
                insn = insn_at(offset)
            except DisassemblyError:
                if not ops:
                    # The per-step interpreter would fault right here,
                    # with nothing retired; re-raise its exact error.
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
            cycles = insn.spec.cycles
            next_addr = insn.end
            compiler = _COMPILERS[op_id]
            spanned = False
            if op_id == OP_JMP or op_id == OP_CALL:
                target = insn.end + insn.operands[0]
                if (base <= target < segment.end
                        and page_start <= target < page_end
                        and target not in visited
                        and len(ops) + 1 < limit):
                    # Continue the trace through the direct transfer.
                    spanned = True
                    next_addr = target
                    compiler = None if op_id == OP_JMP else _c_call_span
            ctx = _OpCtx(cpu, regs, read_u64, write_u64, segment,
                         version, total, total + cycles, len(ops) + 1,
                         next_addr)
            total += cycles
            ops.append(_noop if compiler is None else compiler(insn, ctx))
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

        stats = self.stats
        stats.blocks_translated += 1
        stats.insns_translated += len(ops)
        stats.observe_length(len(ops))
        GLOBAL_STATS.blocks_translated += 1
        GLOBAL_STATS.insns_translated += len(ops)
        GLOBAL_STATS.observe_length(len(ops))
        return CodeBlock(rip, tuple(ops), total, tuple(cum),
                         tuple(bounds) + (addr,), terminator, term_arg,
                         term_addr, term_end, term_cycles, addr, segment,
                         version, tuple(insns))
