"""Translation-cache tests: differential equivalence with per-step
decode, invalidation (rewriter patches, self-modifying code, remaps),
and the hit/miss/invalidation counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CYCLE_PS
from repro.errors import DisassemblyError, ExecutionFault
from repro.isa import AddressSpace, Cpu, Segment, assemble
from repro.isa.translator import GLOBAL_STATS, T_SYSCALL
from repro.obs import metrics as obs_metrics
from repro.sim.core import Compute

TEXT = 0x1000
DATA = 0x4000
STACK_TOP = 0x20000


def build_cpu(source, translate=True, text_perms="rx", name="cpu"):
    space = AddressSpace()
    code = assemble(source, origin=TEXT)
    space.map(Segment(TEXT, code, perms=text_perms, name="text"))
    space.map(Segment(DATA, bytes(0x800), perms="rw", name="data"))
    space.map(Segment(STACK_TOP - 0x1000, bytes(0x1000), perms="rw",
                      name="stack"))
    cpu = Cpu(space, TEXT, STACK_TOP, name=name, translate=translate)

    def syscall_handler(inner):
        return (inner.regs[0] * 3 + 11) & (2 ** 64 - 1)
        yield  # pragma: no cover - generator marker

    def int0_handler(inner):
        return (inner.regs[0] ^ 0x5A5A) & (2 ** 64 - 1)
        yield  # pragma: no cover - generator marker

    def vsys_handler(inner, index):
        return 7000 + index
        yield  # pragma: no cover - generator marker

    def vmcall_handler(inner):
        return 0xC0DE
        yield  # pragma: no cover - generator marker

    cpu.syscall_handler = syscall_handler
    cpu.int0_handler = int0_handler
    cpu.vsys_handler = vsys_handler
    cpu.vmcall_handler = vmcall_handler
    return cpu


def drive(cpu, max_insns=100_000, batch_cycles=20_000):
    """Run to completion, returning (retval, exc_repr, compute_ps)."""
    gen = cpu.run(max_insns=max_insns, batch_cycles=batch_cycles)
    total = 0
    try:
        while True:
            cmd = next(gen)
            if isinstance(cmd, Compute):
                total += cmd.ps
    except StopIteration as stop:
        return stop.value, None, total
    except (ExecutionFault, DisassemblyError) as exc:
        return None, f"{type(exc).__name__}: {exc}", total


def assert_equivalent(source, max_insns=100_000, batch_cycles=20_000,
                      text_perms="rx"):
    """Run ``source`` under cached (superblocks + chaining), cached with
    fusion forced from the first execution, and per-step decode; the
    observable outcome must be identical in all three."""
    interp = build_cpu(source, translate=False, text_perms=text_perms)
    i_ret, i_exc, i_ps = drive(interp, max_insns, batch_cycles)
    cached = build_cpu(source, translate=True, text_perms=text_perms)
    fused = build_cpu(source, translate=True, text_perms=text_perms)
    fused.tcache.fuse_threshold = 1  # every block compiles before run 1
    for cpu in (cached, fused):
        c_ret, c_exc, c_ps = drive(cpu, max_insns, batch_cycles)
        assert c_exc == i_exc
        assert c_ret == i_ret
        assert cpu.regs == interp.regs
        assert cpu.zf == interp.zf
        assert cpu.rip == interp.rip
        assert cpu.halted == interp.halted
        assert cpu.cycles == interp.cycles
        if c_exc is None:
            # Every retired cycle was flushed in both modes, so the
            # sim-time Compute totals agree exactly (only the chunking
            # differs).
            assert c_ps == i_ps == cpu.cycles * CYCLE_PS
            assert cpu.insns_retired == interp.insns_retired
    return cached, interp


class TestCounters:
    def test_loop_hits_after_first_miss(self):
        cpu = build_cpu("""
            movi rbx, 50
        loop:
            subi rbx, 1
            jnz loop
            hlt
        """)
        cpu.run_sync()
        stats = cpu.tcache.stats
        # One block per entry point; re-entries now arrive through the
        # direct-threaded chain (the loop backedge links on its second
        # trip), so lookup hits plus chain follows cover the iterations.
        assert stats.misses >= 1
        assert stats.hits + stats.chain_follows >= 48
        assert stats.chains_linked >= 1
        assert stats.chain_follows >= 40
        assert stats.invalidations == 0
        assert stats.blocks_translated == stats.misses
        assert stats.insns_translated >= 2
        # The loop went hot and fused.
        assert stats.fused_blocks >= 1
        # Superblock lengths are histogrammed at translate time.
        assert sum(stats.sb_len_buckets) == stats.blocks_translated

    def test_global_stats_accumulate(self):
        before = GLOBAL_STATS.hits + GLOBAL_STATS.misses
        cpu = build_cpu("movi rax, 9\nhlt")
        cpu.run_sync()
        assert GLOBAL_STATS.hits + GLOBAL_STATS.misses > before

    def test_counters_flow_through_obs_drain(self):
        obs_metrics.start_collection()
        cpu = build_cpu("""
            movi rbx, 10
        loop:
            subi rbx, 1
            jnz loop
            hlt
        """)
        cpu.run_sync()
        snap = obs_metrics.drain()
        assert snap["counters"]["tcache.misses"] >= 1
        assert (snap["counters"]["tcache.hits"]
                + snap["counters"]["tcache.chain_follows"]) >= 8
        assert snap["counters"]["tcache.chains_linked"] >= 1
        assert snap["counters"]["tcache.dispatch_blocks"] >= 1
        # The superblock length histogram rides along as fixed buckets.
        assert sum(snap["counters"][f"tcache.sb_len_p2_{k}"]
                   for k in range(9)) >= 1
        # Deltas, not process totals: a fresh window starts near zero,
        # and every tcache key is always present.
        obs_metrics.start_collection()
        empty = obs_metrics.drain()
        assert empty["counters"]["tcache.hits"] == 0
        assert empty["counters"]["tcache.misses"] == 0
        assert empty["counters"]["tcache.chain_follows"] == 0
        assert empty["counters"]["tcache.chains_broken"] == 0
        assert empty["counters"]["tcache.fused_blocks"] == 0
        for k in range(9):
            assert empty["counters"][f"tcache.sb_len_p2_{k}"] == 0


class TestInvalidation:
    def test_patch_code_evicts_stale_block(self):
        # Translate, then patch the text the way the rewriter does, and
        # re-execute from the same entry: skipping eviction would replay
        # the stale block and return 5.
        cpu = build_cpu("movi rax, 5\nhlt")
        assert cpu.run_sync() == 5
        patched = assemble("movi rax, 7\nhlt", origin=TEXT)
        cpu.space.patch_code(TEXT, patched)
        cpu.rip = TEXT
        cpu.halted = False
        assert cpu.run_sync() == 7
        assert cpu.tcache.stats.invalidations >= 1

    def test_plain_store_evicts_stale_block(self):
        # Same eviction contract for ordinary stores into (rwx) text.
        source = """
            movi rax, 5
            hlt
        """
        cpu = build_cpu(source, text_perms="rwx")
        assert cpu.run_sync() == 5
        # Overwrite the low immediate byte of `movi rax, 5` (opcode +
        # reg byte precede it) through the data path.
        new_first8 = bytearray(cpu.space.read(TEXT, 8))
        new_first8[2] = 9
        cpu.space.write_u64(TEXT, int.from_bytes(new_first8, "little"))
        cpu.rip = TEXT
        cpu.halted = False
        assert cpu.run_sync() == 9
        assert cpu.tcache.stats.invalidations >= 1

    def test_self_modification_inside_block_takes_effect(self):
        # The store and its victim sit in one straight-line run: the
        # block must stop at the store and re-translate the tail.
        prefix = assemble(
            "movi rcx, 0\nmovi rdx, 0\nmovi rbx, 0\nstore [rcx+0], rdx",
            origin=TEXT)
        victim_addr = TEXT + len(prefix)
        source = f"""
            movi rcx, {victim_addr}
            movi rdx, {{patched_words}}
            movi rbx, 0
            store [rcx+0], rdx
            movi rax, 1
            hlt
        """
        # Build the 8 bytes that turn `movi rax, 1` into `movi rax, 42`.
        original = assemble("movi rax, 1", origin=victim_addr)
        patched = bytearray(original[:8])
        patched[2] = 42
        src = source.format(
            patched_words=int.from_bytes(bytes(patched), "little"))
        cached, interp = assert_equivalent(src, text_perms="rwx")
        assert cached.regs[0] == 42

    def test_mapping_change_flushes_cache(self):
        cpu = build_cpu("movi rax, 1\nhlt")
        block = cpu.tcache.lookup(cpu)
        assert block.terminator != T_SYSCALL
        assert cpu.tcache.stats.misses == 1
        cpu.space.map(Segment(0x9000, bytes(16), perms="rw", name="late"))
        cpu.tcache.lookup(cpu)
        assert cpu.tcache.stats.invalidations >= 1
        assert cpu.tcache.stats.misses == 2

    def test_exec_perm_loss_faults_like_interpreter(self):
        cpu = build_cpu("movi rax, 1\nhlt")
        cpu.tcache.lookup(cpu)
        cpu.space.mprotect(cpu.space.find(TEXT), "r")
        with pytest.raises(ExecutionFault, match="not executable"):
            cpu.run_sync()

    LOOP = """
        movi rbx, {count}
    loop:
        subi rbx, 1
        jnz loop
        hlt
    """

    def test_patch_code_unlinks_chains(self):
        # A rewriter patch bumps Segment.version; eviction must strip
        # every chain link into and out of the stale blocks, or the
        # patched code would never be reached from a chained loop.
        cpu = build_cpu(self.LOOP.format(count=30))
        cpu.run_sync()
        stats = cpu.tcache.stats
        assert stats.chains_linked >= 1
        assert stats.chains_broken == 0
        patched = assemble("movi rax, 77\nhlt", origin=TEXT)
        cpu.space.patch_code(TEXT, patched)
        cpu.rip = TEXT
        cpu.halted = False
        assert cpu.run_sync() == 77
        assert stats.chains_broken >= 1

    def test_remap_mid_run_breaks_then_relinks_chains(self):
        # A mapping change between block executions (here: between
        # Compute batches, as a yielding sim process would see) must be
        # caught by the chain-follow generation check, flush the cache,
        # and let the loop re-translate and re-link.
        cpu = build_cpu(self.LOOP.format(count=200))
        gen = cpu.run(max_insns=100_000, batch_cycles=1)
        for _ in range(5):
            next(gen)
        cpu.space.map(Segment(0x9000, bytes(16), perms="rw", name="late"))
        try:
            while True:
                next(gen)
        except StopIteration:
            pass
        stats = cpu.tcache.stats
        assert cpu.halted and cpu.regs[1] == 0
        assert stats.chains_broken >= 1  # flush counted the stale links
        assert stats.chains_linked >= 2  # ...and the loop re-linked


class TestMaxInsnParity:
    # The budget boundary can land anywhere in a block; the fault's
    # rip/cycles/message must match per-step accounting exactly.
    SOURCE = """
        movi rbx, 1000
    loop:
        addi rax, 3
        push rax
        pop rcx
        subi rbx, 1
        jnz loop
        hlt
    """

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 11, 23, 24, 25, 26])
    def test_budget_boundary(self, budget):
        assert_equivalent(self.SOURCE, max_insns=budget)

    def test_exact_completion_budget(self):
        # 1 prologue + 1000 * 5 loop insns + hlt.
        assert_equivalent(self.SOURCE, max_insns=5002)
        assert_equivalent(self.SOURCE, max_insns=5001)


class TestHandlerBoundaries:
    def test_handlers_and_batching_equivalent(self):
        source = """
            movi rax, 4
            syscall
            mov rbx, rax
            int0
            vsys 2
            add rax, rbx
            pusha
            popa
            hlt
        """
        for batch in (1, 7, 20_000):
            assert_equivalent(source, batch_cycles=batch)

    def test_fault_on_unmapped_load(self):
        assert_equivalent("movi rbx, 0x333330\nload rax, [rbx+0]\nhlt")

    def test_fault_on_stack_underflow_mid_popa(self):
        # rsp walks off the top of the stack segment inside POPA.
        assert_equivalent(f"movi rsp, {STACK_TOP - 16}\npopa\nhlt")

    def test_decode_error_reached_only_at_runtime(self):
        # A conditional skips over garbage bytes: translation must not
        # fault on bytes execution never reaches.
        source = """
            movi rax, 1
            cmpi rax, 1
            jz over
            hlt
        over:
            movi rax, 77
            hlt
        """
        cached, _ = assert_equivalent(source)
        assert cached.regs[0] == 77


# -- differential property test ---------------------------------------------

_REG_NAMES = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
              "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")


@st.composite
def _programs(draw):
    """Random VX86 programs, including text-segment stores (the text is
    mapped rwx), wild pointers and unbounded loops."""
    n = draw(st.integers(min_value=4, max_value=24))
    reg = st.sampled_from(_REG_NAMES)
    # rsp excluded from most destinations to keep stack ops interesting
    # without making every program an instant fault.
    dst = st.sampled_from(tuple(r for r in _REG_NAMES if r != "rsp"))
    label = st.integers(min_value=0, max_value=n)  # n == exit label
    small = st.integers(min_value=-64, max_value=64)
    imm = st.one_of(st.integers(min_value=-2 ** 31, max_value=2 ** 31 - 1),
                    st.sampled_from([0, 1, -1, 2 ** 31 - 1, -2 ** 31]))
    imm64 = st.one_of(imm, st.sampled_from(
        [2 ** 63 - 1, -2 ** 63, 2 ** 40, DATA, TEXT, STACK_TOP - 64]))
    base = st.sampled_from(["rbx", "rcx"])

    lines = [f"movi rbx, {DATA}", f"movi rcx, {TEXT}"]
    for i in range(n):
        lines.append(f"L{i}:")
        kind = draw(st.sampled_from(
            ["movi", "mov", "add", "addi", "sub", "subi", "cmp", "cmpi",
             "push", "pop", "load", "store", "jmp", "jz", "jnz", "call",
             "ret", "nop", "syscall", "vsys", "int0"]))
        if kind == "movi":
            lines.append(f"movi {draw(dst)}, {draw(imm64)}")
        elif kind in ("mov", "add", "sub", "cmp"):
            lines.append(f"{kind} {draw(dst)}, {draw(reg)}")
        elif kind in ("addi", "subi", "cmpi"):
            lines.append(f"{kind} {draw(dst)}, {draw(imm)}")
        elif kind == "push":
            lines.append(f"push {draw(reg)}")
        elif kind == "pop":
            lines.append(f"pop {draw(dst)}")
        elif kind == "load":
            lines.append(f"load {draw(dst)}, [{draw(base)}{draw(small):+d}]")
        elif kind == "store":
            lines.append(f"store [{draw(base)}{draw(small):+d}], {draw(reg)}")
        elif kind in ("jmp", "jz", "jnz", "call"):
            lines.append(f"{kind} L{draw(label)}")
        elif kind == "vsys":
            lines.append(f"vsys {draw(st.integers(0, 3))}")
        else:
            lines.append(kind)
    lines.append(f"L{n}:")
    lines.append("hlt")
    return "\n".join(lines)


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(source=_programs(),
           max_insns=st.sampled_from([37, 500, 4000]),
           batch=st.sampled_from([13, 20_000]))
    def test_cached_equals_per_step(self, source, max_insns, batch):
        # Covers superblock formation, chained exits and (via the forced
        # fuse_threshold=1 executor inside assert_equivalent) the fused
        # compiled bodies, against the per-step oracle.
        assert_equivalent(source, max_insns=max_insns, batch_cycles=batch,
                          text_perms="rwx")
