"""Translation-cache tests: differential equivalence with per-step
decode, invalidation (rewriter patches, mprotect round trips, remaps),
W^X faults, and the hit/miss/invalidation counters."""

import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.costmodel import CYCLE_PS
from repro.errors import DisassemblyError, ExecutionFault
from repro.isa import AddressSpace, Cpu, Segment, assemble, fuser, translator
from repro.isa import cpu as isa_cpu
from repro.isa.assembler import assemble_with_symbols
from repro.isa.translator import T_SYSCALL
from repro.obs import metrics as obs_metrics
from repro.sim.core import Compute

TEXT = 0x1000
DATA = 0x4000
STACK_TOP = 0x20000


def build_cpu(source, translate=True, name="cpu", data_perms="rw"):
    space = AddressSpace()
    code = assemble(source, origin=TEXT)
    space.map(Segment(TEXT, code, perms="rx", name="text"))
    space.map(Segment(DATA, bytes(0x800), perms=data_perms, name="data"))
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
                      data_perms="rw", promoted=None):
    """Run ``source`` under cached (superblocks + chaining), cached with
    fusion forced from the first execution, and per-step decode; the
    observable outcome must be identical in all three: registers, zf,
    rip, cycles, instructions retired, the fault, and every segment's
    bytes and version.

    ``promoted``, a list, receives how many fused calls of the
    forced-fusion leg ran a self-loop with its slots in locals (see
    :func:`branch_entries`).
    """
    interp = build_cpu(source, translate=False, data_perms=data_perms)
    i_ret, i_exc, i_ps = drive(interp, max_insns, batch_cycles)
    cached = build_cpu(source, translate=True, data_perms=data_perms)
    fused = build_cpu(source, translate=True, data_perms=data_perms)
    fused.tcache.fuse_threshold = 1  # every block compiles before run 1
    for cpu in (cached, fused):
        if cpu is fused:
            entered, (c_ret, c_exc, c_ps) = branch_entries(
                lambda: drive(cpu, max_insns, batch_cycles), "if _p0")
            if promoted is not None:
                promoted.append(entered)
        else:
            c_ret, c_exc, c_ps = drive(cpu, max_insns, batch_cycles)
        assert c_exc == i_exc
        assert c_ret == i_ret
        assert cpu.regs == interp.regs
        assert cpu.zf == interp.zf
        assert cpu.rip == interp.rip
        assert cpu.halted == interp.halted
        assert cpu.cycles == interp.cycles
        assert cpu.insns_retired == interp.insns_retired
        assert ([(seg.name, bytes(seg.data), seg.version)
                 for seg in cpu.space.segments]
                == [(seg.name, bytes(seg.data), seg.version)
                    for seg in interp.space.segments])
        if c_exc is None:
            # Every retired cycle was flushed in both modes, so the
            # sim-time Compute totals agree exactly (only the chunking
            # differs).
            assert c_ps == i_ps == cpu.cycles * CYCLE_PS
    return cached, interp


def branch_entries(run, prefix):
    """How many times fused code entered the branch under an ``if`` line
    starting with ``prefix``, and ``run()``'s result: moves from such a
    line to the line after it, in every body fused while ``run`` runs."""
    sources = {}
    real_compile = compile

    def recording_compile(source, filename, mode):
        sources[filename] = source.splitlines()
        return real_compile(source, filename, mode)

    taken = [0]
    targets = {}
    last = [None]  # the line the running fused body executed before

    def local(frame, event_, _arg):
        if event_ == "line":
            if (last[0], frame.f_lineno) in targets[
                    frame.f_code.co_filename]:
                taken[0] += 1
            last[0] = frame.f_lineno
        return local

    def tracer(frame, event_, _arg):
        name = frame.f_code.co_filename
        if name not in sources:
            return None
        if name not in targets:
            # Line `number` of the source is code line `number + 1`.
            targets[name] = {
                (number + 1, number + 2)
                for number, line in enumerate(sources[name])
                if line.strip().startswith(prefix)}
        last[0] = None
        return local

    fuser.compile = recording_compile
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        del fuser.compile
    return taken[0], result


class TestCounters:
    LOOP = """
        movi rbx, 10
    loop:
        subi rbx, 1
        jnz loop
        hlt
    """

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

    def test_drain_sums_the_caches_in_its_window_only(self):
        obs_metrics.drain()  # disarm: the next Cpu runs outside
        outside = build_cpu(self.LOOP)
        outside.run_sync()
        obs_metrics.start_collection()
        first = build_cpu(self.LOOP)
        second = build_cpu("movi rax, 9\nhlt")
        first.run_sync()
        second.run_sync()
        outside.rip, outside.halted = TEXT, False
        outside.run_sync()  # built before the window: adds nothing
        counters = obs_metrics.drain()["counters"]
        expected = {name: value + second.tcache.stats.as_dict()[name]
                    for name, value in first.tcache.stats.as_dict().items()}
        assert outside.tcache.stats.hits > 0
        assert expected["tcache.misses"] > 0
        assert {name: counters[name] for name in expected} == expected

    def test_counters_flow_through_obs_drain(self):
        obs_metrics.start_collection()
        cpu = build_cpu(self.LOOP)
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
        # A window no cache was built in reports zero, and every tcache
        # key is always present.
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

    def test_mprotect_round_trip_redecodes_the_stored_bytes(self):
        # rx -> rw -> store -> rx: the store moves no version (W^X keeps
        # stores out of code), so taking write permission away must, or
        # the segment's cached image would replay `movi rax, 5`.
        cpu = build_cpu("movi rax, 5\nhlt")
        assert cpu.run_sync() == 5
        space = cpu.space
        text = space.find(TEXT)
        space.mprotect(text, "rw")
        # Overwrite the low immediate byte of `movi rax, 5` (opcode +
        # reg byte precede it) through the data path.
        new_first8 = bytearray(text.data[:8])
        new_first8[2] = 9
        space.write_u64(TEXT, int.from_bytes(new_first8, "little"))
        assert text.version == 0
        space.mprotect(text, "rx")
        assert text.version == 1
        cpu.rip = TEXT
        cpu.halted = False
        assert cpu.run_sync() == 9
        assert cpu.tcache.stats.invalidations >= 1

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


class TestWritesIntoText:
    # W^X: the text is never writable, so a store, push, spanned call
    # or pusha that reaches it faults, and every tier reports the same
    # rip, cycles and instructions retired.  The writing block runs
    # ``trips`` times, the last one aimed at the text: on trip 1 the
    # cached leg faults in a cold block, on trip 10 in a fused one.
    SOURCE = f"""
        movi rcx, {DATA}
        movi r12, {{trips}}
    loop:
        cmpi r12, 1
        jnz body
        {{aim}}
    body:
        addi r13, 1
    site:
        {{write}}
        subi r12, 1
        jnz loop
        hlt
    """

    @pytest.mark.parametrize("aim, write, per_trip", [
        (f"movi rcx, {TEXT + 8}", "store [rcx+0], rdx", 6),
        (f"movi rsp, {TEXT + 16}", "push rdx", 6),
        (f"movi rsp, {TEXT + 16}", "call f\nf:\npop rsi", 7),
        (f"movi rsp, {TEXT + 16}", "pusha", 6),
    ], ids=["store", "push", "spanned_call", "pusha"])
    @pytest.mark.parametrize("trips", [1, 10])
    def test_write_into_text_faults_alike(self, aim, write, per_trip,
                                          trips):
        source = self.SOURCE.format(trips=trips, aim=aim, write=write)
        cached, interp = assert_equivalent(source)
        _code, labels = assemble_with_symbols(source, origin=TEXT)
        assert cached.rip == interp.rip == labels["site"]
        # Two set-up insns, the full trips, then cmpi, jnz, the aim and
        # the addi of the last one.
        assert interp.insns_retired == 2 + (trips - 1) * per_trip + 4
        with pytest.raises(ExecutionFault, match="non-writable text"):
            build_cpu(source).run_sync()


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

    def test_fault_mid_pusha_in_a_self_loop(self):
        # The loop fuses into an in-place self-loop; pusha walks rsp off
        # the bottom of the stack segment several iterations in, so the
        # fault's cycles must count the completed iterations too.
        assert_equivalent("movi rbx, 100\nloop:\npusha\nsubi rbx, 1\n"
                          "jnz loop\nhlt")

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


class TestInstructionSemantics:
    # Cold blocks and the per-step oracle run on one executor, so only
    # the forced-fusion leg of assert_equivalent, plus the expected value
    # here, can tell when that executor gets an instruction wrong.  Each
    # case is an edge the random differential programs rarely reach.
    @pytest.mark.parametrize("source, expected", [
        # push rsp stores the value rsp had *before* the push.
        ("push rsp\npop rax\nhlt", STACK_TOP),
        # cmpi compares against its immediate taken modulo 2**64.
        ("movi rbx, -1\ncmpi rbx, -1\njz yes\nmovi rax, 1\nhlt\n"
         "yes:\nmovi rax, 2\nhlt", 2),
        # subi sets zf from its result.
        ("movi rbx, 5\nsubi rbx, 5\njz yes\nmovi rax, 1\nhlt\n"
         "yes:\nmovi rax, 2\nhlt", 2),
    ], ids=["push_rsp_pushes_old_rsp", "cmpi_masks_its_immediate",
            "subi_sets_zf"])
    def test_edge_matches_the_fused_leg_and_the_expected_value(
            self, source, expected):
        cached, interp = assert_equivalent(source)
        assert interp.regs[0] == cached.regs[0] == expected


class TestStoreForwarding:
    # A load of the slot a store just wrote, outside any loop.  Each
    # program first stores to the slot's page once, so the store takes
    # the fused page-cache fast path (a first touch takes the slow one),
    # and checks the forced-fusion leg and the cold leg against the
    # per-step oracle and an expected value.
    PRIME = f"movi rbx, {DATA}\nmovi rax, 11\nmovi rdx, 22\n" \
            "store [rbx+64], rax\npush rax\npop rsi\n"

    @pytest.mark.parametrize("body, expected", [
        ("store [rbx+0], rax\nload rcx, [rbx+0]\nmov rax, rcx", 11),
        ("store [rbx+0], rax\nload rax, [rbx+0]", 11),
        # The value register is overwritten in between: the load must
        # see the stored value, not the register's new one.
        ("store [rbx+0], rax\nmovi rax, 99\nload rcx, [rbx+0]\n"
         "mov rax, rcx", 11),
        # ... and the base register: the load reads another slot.
        ("store [rbx+0], rax\naddi rbx, 8\nload rax, [rbx+0]", 0),
        # Two base registers aliasing one slot; the later store wins.
        ("mov rcx, rbx\nstore [rbx+0], rax\nstore [rcx+0], rdx\n"
         "load rax, [rbx+0]", 22),
        ("movi rcx, 8\nadd rcx, rbx\nstore [rbx+8], rax\n"
         "store [rcx+0], rdx\nload rax, [rbx+8]", 22),
        # ... or a load of another slot.
        ("store [rbx+0], rax\nload rax, [rbx+8]", 0),
        # pusha writes the slot (rbx's push) between the store and the
        # load.
        (f"movi rbp, {STACK_TOP - 16}\nmovi rbx, 6\nstore [rbp+8], rax\n"
         "store [rbp+0], rax\npusha\nload rax, [rbp+0]", 6),
        # push rsp pushes the rsp it had before the push.
        ("push rsp\npop rax", STACK_TOP),
        ("push rdx\npop rax", 22),
        # A spanned call's pushed return address, popped by the callee.
        ("call callee\nmovi rax, 33\nhlt\ncallee:\npop rax\nsubi rax, "
         f"{TEXT}", None),
    ], ids=["store_load", "store_load_same_reg", "value_reg_overwritten",
            "base_reg_overwritten", "aliased_bases", "aliased_disp",
            "other_disp", "pusha_between", "push_rsp_pop", "push_pop",
            "call_pop"])
    def test_forwarding_matches_the_oracle(self, body, expected):
        source = self.PRIME + body + "\nhlt"
        _cached, interp = assert_equivalent(source)
        if expected is not None:
            assert interp.regs[0] == expected

    @pytest.mark.parametrize("data_perms", ["rw", "w"])
    def test_first_touch_store_then_load(self, data_perms):
        # The store misses the page cache and takes write_u64; the load
        # must go to memory (and, write-only, fault like per-step).
        source = (f"movi rbx, {DATA}\nmovi rax, 7\nstore [rbx+0], rax\n"
                  "load rcx, [rbx+0]\nhlt")
        cached, interp = assert_equivalent(source, data_perms=data_perms)
        if data_perms == "rw":
            assert interp.regs[2] == 7
        else:
            load_rip = TEXT + len(assemble(source.rsplit("\nload", 1)[0]))
            assert cached.rip == interp.rip == load_rip

    def test_write_only_slot_faults_at_the_load(self):
        # The store took the fast path into a segment the load may not
        # read: the load faults with per-step rip/cycles.
        source = (f"movi rbx, {DATA}\nmovi rax, 7\nstore [rbx+8], rax\n"
                  "store [rbx+0], rax\nload rcx, [rbx+0]\nhlt")
        cached, interp = assert_equivalent(source, data_perms="w")
        load_rip = TEXT + len(assemble(source.rsplit("\nload", 1)[0]))
        assert cached.rip == interp.rip == load_rip
        assert interp.cycles == cached.cycles > 0
        with pytest.raises(ExecutionFault, match="non-readable"):
            build_cpu(source, data_perms="w").run_sync()


def _loop_program(body, trips=5, rounds=1, setup="",
                  prime=f"store [rbx+64], rax\npush rax\npop rsi"):
    """A self-loop running ``body`` ``trips`` times per round.

    ``prime`` runs first, by default a store and a push that put the
    data and stack pages in the page cache; the loop is entered through
    a conditional branch, so every trip runs in the loop's own block.
    """
    return f"""
        movi rbx, {DATA}
        movi rax, 11
        movi rdx, 22
        {prime}
        {setup}
        movi r14, {rounds}
    outer:
        movi r12, {trips}
        cmpi r12, 0
        jnz loop
        hlt
    loop:
        {body}
        subi r12, 1
        jnz loop
        subi r14, 1
        jnz outer
        mov rax, r13
        hlt
    """


class TestLoopSlotPromotion:
    # A fused self-loop whose slots keep their address from trip to trip
    # holds them in locals behind a once-per-call guard (repro.isa.fuser).
    # Each case is checked against the per-step oracle (registers, zf,
    # rip, cycles, insns, fault, every segment's bytes and version) and
    # states how many fused calls ran the promoted loop.

    @pytest.mark.parametrize("body, setup, promoted", [
        ("add rdx, rax\nstore [rbx+0], rdx\nload rsi, [rbx+0]\n"
         "add r13, rsi", "", 1),
        # guest_isa's hot loop: a store/load slot and a push/pop slot.
        ("add rdx, rax\nstore [rbx+0], rdx\nload rsi, [rbx+0]\n"
         "add rsi, rdx\npush rsi\npop rdi\nadd r13, rdi", "", 1),
        # Two stores to one slot per trip: its version moves by 2 a trip.
        ("store [rbx+0], rax\naddi rax, 1\nstore [rbx+0], rax\n"
         "load rsi, [rbx+0]\nadd r13, rsi", "", 1),
        # Read before written: loaded once before the loop.
        ("load rsi, [rbx+8]\naddi rsi, 3\nstore [rbx+8], rsi\n"
         "add r13, rsi", "", 1),
        # rsp-relative load of the slot a push just wrote.
        ("push r12\nload rsi, [rsp+0]\npop rdi\nadd r13, rsi\n"
         "add r13, rdi", "", 1),
        # A base moved and moved back within the trip.
        ("addi rbx, 16\nstore [rbx+0], r12\nload rsi, [rbx+0]\n"
         "subi rbx, 16\nadd r13, rsi", "", 1),
        # push rsp stores the rsp it had before the push.
        ("push rsp\npop rsi\nadd r13, rsi", "", 1),
        # The same address through two bases: the guard falls back.
        ("store [rbx+0], rax\nstore [rcx+0], r12\nload rsi, [rbx+0]\n"
         "add r13, rsi", "mov rcx, rbx", 0),
        # Two slots of one base overlapping by 4 bytes: falls back.
        ("store [rbx+0], rax\nstore [rbx+4], rdx\nload rsi, [rbx+0]\n"
         "add r13, rsi", "", 0),
        # One slot through two address expressions: falls back.
        ("push r12\nload rsi, [rsp-8]\nadd r13, rsi", "", 0),
        # Base registers whose slots move from trip to trip: not
        # eligible.
        ("store [rbx+0], r12\naddi rbx, 8", "", 0),
        ("store [rbx+0], r12\nmov rdx, rbx\naddi rdx, 8\npush rdx\n"
         "pop rbx", "", 0),
        ("store [rbx+0], rdx\nload rbx, [rbx+0]", "mov rdx, rbx\n"
         "addi rdx, 8", 0),
        ("store [rbx+0], r12\nmovi rbx, " + str(DATA + 8), "", 0),
        # rsp down 8 a trip.
        ("push r12\nadd r13, r12", "", 0),
        # A call in the body: not eligible.
        ("call f\nadd r13, rax\njmp back\nf:\nmovi rax, 5\nret\n"
         "back:", "", 0),
        # A cmp whose flag the counter's subi overwrites: no zf write.
        ("cmp rdx, rax\nstore [rbx+0], rdx\nload rsi, [rbx+0]\n"
         "add r13, rsi", "", 1),
        # A sub whose flag is dead but whose result is not.
        ("sub rdx, rax\nstore [rbx+0], rdx\nload rsi, [rbx+0]\n"
         "add r13, rsi", "", 1),
        # push rsp reads rsp while a push has it 8 down: rsp is not a
        # silent base and moves on every push and pop.
        ("push rax\npush rsp\npop rsi\npop rdi\nadd r13, rsi\n"
         "add r13, rdi", "", 1),
        # A mov reads the base while it is moved: not silent.
        ("addi rbx, 16\nstore [rbx+0], r12\nmov rsi, rbx\n"
         "subi rbx, 16\nadd r13, rsi", "", 1),
    ], ids=["store_load", "hot_loop", "two_stores_one_slot", "read_first",
            "push_load_rsp", "balanced_base_steps", "push_rsp",
            "same_address_two_bases", "overlap_by_4", "one_slot_two_exprs",
            "base_net_plus_8", "pop_into_base", "load_into_base",
            "movi_into_base", "rsp_net_minus_8", "call", "dead_cmp",
            "sub_dead_zf_live_result", "push_rsp_read_displaced",
            "mov_reads_moved_base"])
    def test_promotion_matches_the_oracle(self, body, setup, promoted):
        taken = []
        _cached, interp = assert_equivalent(
            _loop_program(body, setup=setup), promoted=taken)
        assert taken == [promoted]
        assert interp.halted

    def test_overlapping_slots_keep_byte_exact_memory(self):
        source = _loop_program("store [rbx+0], rax\nstore [rbx+4], rdx\n"
                               "load r13, [rbx+0]")
        taken = []
        _cached, interp = assert_equivalent(source, promoted=taken)
        assert taken == [0]
        assert interp.regs[0] == 11 | 22 << 32

    def test_load_only_slot_is_not_written_back(self, monkeypatch):
        emitters = []

        class Recording(fuser._Emitter):
            def __init__(self):
                super().__init__()
                emitters.append(self)

        monkeypatch.setattr(fuser, "_Emitter", Recording)
        taken = []
        _cached, interp = assert_equivalent(
            _loop_program("load rsi, [rbx+64]\nadd r13, rsi", trips=7),
            promoted=taken)
        assert taken == [1]
        assert interp.regs[0] == 7 * 11
        loops = [em.lines for em in emitters
                 if any("for _it" in line for line in em.lines)]
        assert loops
        assert not any(line.strip().startswith("pack(")
                       for lines in loops for line in lines)

    @pytest.mark.parametrize("data_perms, prime, body, message", [
        ("w", "store [rbx+64], rax", "load rsi, [rbx+64]", "non-readable"),
        ("w", "store [rbx+64], rax",
         "add r13, rax\nstore [rbx+0], rax\nload rsi, [rbx+0]",
         "non-readable"),
        ("r", "load rsi, [rbx+64]", "store [rbx+64], rax", "non-writable"),
    ], ids=["load_from_write_only", "store_load_write_only",
            "store_to_read_only"])
    def test_guard_refuses_a_slot_the_body_may_not_touch(
            self, data_perms, prime, body, message):
        # The page is cached, so only the guard's permission test keeps
        # the loop on the unpromoted path, which faults like per-step.
        source = _loop_program(body, prime=prime)
        taken = []
        cached, interp = assert_equivalent(source, data_perms=data_perms,
                                           promoted=taken)
        assert taken == [0]
        # The fault is at the body's last access, on the first trip.
        loop = source.split("loop:", 1)[0] + "loop:\n"
        faulting = body.rsplit("\n", 1)[0] if "\n" in body else ""
        assert cached.rip == interp.rip == TEXT + len(
            assemble(loop + faulting, origin=TEXT))
        with pytest.raises(ExecutionFault, match=message):
            build_cpu(source, data_perms=data_perms).run_sync()

    def test_first_call_on_an_uncached_page_falls_back(self):
        # Nothing touched the data page before the loop: the first call
        # runs one plain trip, whose store caches the page, and the next
        # call of each round runs the rest of it promoted.
        source = _loop_program("store [rbx+0], r12\nload rsi, [rbx+0]\n"
                               "add r13, rsi", rounds=2, prime="")
        taken = []
        assert_equivalent(source, promoted=taken)
        assert taken == [2]

    # Self-loops _loop_slots refuses: a spanned call (its callee pops
    # the return address) or pusha/popa in the body.  Each fused call
    # runs one plain trip and returns 1, and the self-chain runs the
    # next, so a fault lands on the trip the per-step interpreter puts
    # it on, with the same instructions retired.
    _CALL = "call f\nhlt\nf:\npop rsi\n"

    @pytest.mark.parametrize("head, body, trips, returned", [
        (_CALL, "add r13, rsi", 5, 5),
        ("pusha\npopa\n", "add r13, r12", 5, 5),
        # The load walks off the data segment on trip 5 of 8.
        (_CALL, "load rsi, [rbx+0]\naddi rbx, 512\nadd r13, rsi", 8, 4),
    ], ids=["call", "pusha", "fault_on_trip_5"])
    def test_unpromotable_loop_runs_one_trip_per_call(
            self, monkeypatch, head, body, trips, returned):
        returns = []
        real = isa_cpu.fuse_block

        def recording(cpu, block):
            fn = real(cpu, block)

            def fused(remaining, budget):
                it = fn(remaining, budget)
                returns.append((block.entry, it))
                return it
            return fused

        monkeypatch.setattr(isa_cpu, "fuse_block", recording)
        source = _loop_program(head + body, trips=trips, prime="")
        loop = TEXT + len(assemble(source.split("loop:")[0] + "loop:",
                                   origin=TEXT))
        taken = []
        cached, interp = assert_equivalent(source, promoted=taken)
        assert taken == [0]
        assert [it for entry, it in returns if entry == loop] == [
            1] * returned
        assert {it for _entry, it in returns} <= {1}
        if "load" in body:
            assert cached.rip == interp.rip == loop + len(
                assemble(self._CALL, origin=loop))
            assert interp.regs[12] == trips - 4
        else:
            assert interp.halted

    @pytest.mark.parametrize("batch", [13, 20_000])
    def test_one_trip_per_call(self, batch):
        # A cycle batch smaller than one trip: every call makes one trip,
        # and every call after the prime runs promoted.
        taken = []
        assert_equivalent(
            _loop_program("store [rbx+0], r12\nload rsi, [rbx+0]\n"
                          "add r13, rsi", trips=6),
            batch_cycles=batch, promoted=taken)
        assert taken == [6 if batch == 13 else 1]

    @pytest.mark.parametrize("max_insns", range(20, 64))
    def test_insn_budget_ends_in_or_after_the_loop(self, max_insns):
        assert_equivalent(
            _loop_program("store [rbx+0], r12\nload rsi, [rbx+0]\n"
                          "push rsi\npop rdi\nadd r13, rdi"),
            max_insns=max_insns)

    # A promoted loop is a counted ``for``: a closing ``subi rC, 1; jnz``
    # with nothing else touching rC runs min(_k, rC) trips and sets rC,
    # zf and rip after the loop; any other exit is tested once a trip.
    # _COUNTED enters its loop through a branch with rC = counter, after
    # an entry block of 7 cycles; a trip is 10 cycles, so a cycle batch
    # of 7 + 10 * K makes the first fused call's trip bound _k exactly K.
    _COUNTED = f"""
        movi rbx, {DATA}
        store [rbx+8], rbx
        movi r12, {{counter}}
        cmpi rbx, 0
        jnz loop
        hlt
    loop:
        addi r13, 3
        store [rbx+0], r13
        load rsi, [rbx+0]
        add r14, rsi
        subi r12, 1
        jnz loop
        movi rax, 1
        hlt
    """

    @pytest.mark.parametrize("counter", [0, 1, 2, 4, 5, 6, 7, 23])
    def test_counted_loop_runs_min_of_bound_and_counter(self, counter):
        # K = 5: counters 0 (2**64 trips, so the insn budget ends it),
        # 1, K - 1, K, K + 1 and more.
        taken = []
        _cached, interp = assert_equivalent(
            self._COUNTED.format(counter=counter), max_insns=400,
            batch_cycles=7 + 10 * 5, promoted=taken)
        assert taken[0] >= 1
        if counter:
            assert interp.regs[0] == 1 and interp.regs[12] == 0
            assert interp.regs[14] == 3 * counter * (counter + 1) // 2
        else:
            assert not interp.halted

    @pytest.mark.parametrize("max_insns", range(5, 60, 3))
    def test_counted_loop_insn_budget(self, max_insns):
        assert_equivalent(self._COUNTED.format(counter=9),
                          max_insns=max_insns, batch_cycles=27)

    # Exits tested once a trip, one per edge polarity.  ``back:`` sits
    # right before ``loop:``, so a body closing with ``jmp back`` spans
    # into a conditional whose fall-through is the loop's entry.
    @pytest.mark.parametrize("tail, trips", [
        # jnz to the entry, leaving on zf (the cmpi reads r12: no
        # counter).
        ("subi r12, 1\ncmpi r12, 0\njnz loop", 6),
        # jz to the entry, leaving on not zf: one trip.
        ("subi r12, 1\ncmpi r12, 0\njz loop", 1),
        # jz whose fall-through is the entry, leaving on zf.
        ("subi r12, 1\njmp back", 6),
        # jnz whose fall-through is the entry, leaving on not zf.
        ("addi r12, 1\ncmpi r12, 0\njmp back", 1),
    ], ids=["jnz_taken_loops", "jz_taken_loops", "jz_falls_into_loop",
            "jnz_falls_into_loop"])
    def test_tested_exit_polarity(self, tail, trips):
        cond = "jnz" if "addi r12" in tail else "jz"
        source = f"""
            movi rbx, {DATA}
            store [rbx+8], rbx
            movi r12, 6
            cmpi rbx, 0
            jnz loop
            hlt
        back:
            {cond} out
        loop:
            store [rbx+0], r12
            load rsi, [rbx+0]
            add r13, rsi
            {tail}
        out:
            mov rax, r13
            hlt
        """
        taken = []
        _cached, interp = assert_equivalent(source, promoted=taken)
        assert taken == [1] and interp.halted
        assert interp.regs[0] == sum(range(6, 6 - trips, -1))

    @pytest.mark.parametrize("body, batch", [
        # Slots, budget-limited: each call runs all _k trips and leaves
        # rip at the entry.
        ("store [rbx+0], r13\nload rsi, [rbx+0]\naddi r13, 1\n"
         "cmp r13, rsi\njmp loop", 20_000),
        ("store [rbx+0], r13\nload rsi, [rbx+0]\naddi r13, 1\n"
         "cmp r13, rsi\njmp loop", 29),
        # No slots: nothing to guard; the last cmp's zf is live-out.
        ("addi r13, 5\ncmpi r13, 10\njmp loop", 20_000),
        ("nop\njmp loop", 20_000),
        # A jz both of whose edges are the entry (the body spans into
        # ``back:``, right before ``loop:``).
        ("addi r13, 5\ncmpi r13, 10\njmp back", 20_000),
    ], ids=["slots", "slots_small_batch", "no_slots", "empty", "both_edges"])
    @pytest.mark.parametrize("max_insns", [97, 500])
    def test_loop_that_never_leaves_ends_at_the_insn_budget(
            self, body, batch, max_insns):
        # zf is set on entry and clear after the body's last compare:
        # the live-out flag is the loop's own.
        source = f"""
            movi rbx, {DATA}
            store [rbx+8], rbx
            cmpi rbx, {DATA}
            jz loop
            hlt
        back:
            jz loop
        loop:
            {body}
        """
        _cached, interp = assert_equivalent(source, max_insns=max_insns,
                                            batch_cycles=batch)
        assert not interp.halted

    @pytest.mark.parametrize("base, body", [
        ("rbx", "addi rbx, 8\nstore [rbx+0], r13\nload rsi, [rbx+0]\n"
         "add r14, rsi\nsubi rbx, 8"),
        ("rsp", "addi rsp, -16\npush r13\npop rsi\nadd r14, rsi\n"
         "subi rsp, -16"),
    ], ids=["rbx", "rsp"])
    @pytest.mark.parametrize("branch", ["jz", "jnz"])
    def test_base_step_whose_zf_is_live_still_moves_the_base(
            self, base, body, branch):
        # The closing subi of a balanced base is the flag the branch
        # reads, so the base is not silent.  zf is set before the loop:
        # a loop that skipped the subi would read the stale flag.
        source = f"""
            movi rbx, {DATA}
            store [rbx+8], rbx
            push rbx
            pop rsi
            movi r13, 0
            cmpi r13, 0
            jz loop
            hlt
        loop:
            addi r13, 7
            {body}
            {branch} loop
            mov rax, r14
            hlt
        """
        taken = []
        _cached, interp = assert_equivalent(source, max_insns=300,
                                            promoted=taken)
        assert taken[0] >= 1
        assert interp.halted == (branch == "jz")


class TestSharedShapes:
    # Superblock shapes are memoised on the segment's code image and
    # shared by every Cpu that maps it; CodeBlocks stay per Cpu.
    SOURCE = "movi rbx, 3\nloop:\nnop\nnop\nsubi rbx, 1\njnz loop\nhlt"

    def test_cpus_mapping_one_image_form_each_shape_once(self, monkeypatch):
        formed = []
        real = translator.form_superblock
        monkeypatch.setattr(translator, "form_superblock",
                            lambda *a: formed.append(a[1:]) or real(*a))
        one, two = build_cpu(self.SOURCE), build_cpu(self.SOURCE)
        assert one.space.find(TEXT).image() is two.space.find(TEXT).image()
        assert one.run_sync() == two.run_sync()
        assert len(formed) == len(set(formed)) > 0
        for cpu in (one, two):
            assert cpu.tcache.stats.blocks_translated == len(formed)
        for rip, block in one.tcache.blocks.items():
            other = two.tcache.blocks[rip]
            assert other is not block and other.insns is block.insns

    def test_the_insn_cap_is_part_of_the_key(self):
        source = "nop\n" * 12 + "hlt"
        wide, narrow = build_cpu(source), build_cpu(source)
        narrow.tcache.max_block_insns = 4
        wide.run_sync()
        narrow.run_sync()
        assert [b.n_insns for b in wide.tcache.blocks.values()] == [12]
        assert [b.n_insns for b in narrow.tcache.blocks.values()] == [
            4, 4, 4, 0]
        assert narrow.insns_retired == wide.insns_retired == 13

    def test_decode_errors_are_raised_afresh_and_never_memoised(self):
        errors = []
        for _ in range(2):
            cpu = build_cpu("nop")
            cpu.space.patch_code(TEXT, b"\x07")
            with pytest.raises(DisassemblyError) as caught:
                cpu.run_sync()
            errors.append(caught.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])
        image = cpu.space.find(TEXT).image()
        assert image.shapes == {}


# -- differential property test ---------------------------------------------

_REG_NAMES = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
              "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")


@st.composite
def _programs(draw):
    """Random VX86 programs, including text-segment stores (the text is
    mapped rx, so they fault), wild pointers and unbounded loops."""
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

    # The store and the push touch the data and stack pages once, so
    # later fused accesses find them in the page cache (a first touch
    # takes the slow path, and a loop's promotion guard fails).
    lines = [f"movi rbx, {DATA}", f"movi rcx, {TEXT}", "store [rbx+0], rcx",
             "push rcx", "pop rcx"]
    for i in range(n):
        lines.append(f"L{i}:")
        kind = draw(st.sampled_from(
            ["movi", "mov", "add", "addi", "sub", "subi", "cmp", "cmpi",
             "push", "pop", "load", "store", "jmp", "jz", "jnz", "call",
             "ret", "nop", "syscall", "vsys", "int0", "reload",
             "push_pop"] + ["loop"] * 4))
        if kind == "loop":
            # A counted self-loop of memory and ALU ops: its slots may
            # be promoted, alias, overlap, move from trip to trip or sit
            # in the (rx) text, and its counter may be clobbered.
            body, tail = [], []
            for _ in range(draw(st.integers(min_value=1, max_value=4))):
                op = draw(st.sampled_from(
                    ["store", "load", "push_pop", "push", "step", "add"]))
                slot_base = draw(st.sampled_from(["rbx", "rbx", "rsp",
                                                  "rcx"]))
                disp = draw(st.sampled_from([0, 4, 8, -8]))
                slot = f"[{slot_base}{disp:+d}]"
                if op == "store":
                    body.append(f"store {slot}, {draw(reg)}")
                elif op == "load":
                    body.append(f"load {draw(dst)}, {slot}")
                elif op == "push_pop":
                    body += [f"push {draw(reg)}", f"pop {draw(dst)}"]
                elif op == "push":
                    body.append(f"push {draw(reg)}")
                elif op == "step":
                    body.append(f"addi {slot_base}, 8")
                    tail.append(f"subi {slot_base}, 8")
                else:
                    body.append(f"add {draw(dst)}, {draw(reg)}")
            lines += [f"movi r15, {draw(st.integers(1, 6))}", f"S{i}:",
                      *body, *tail, "subi r15, 1", f"jnz S{i}"]
        elif kind in ("reload", "push_pop"):
            # A store and a load of one slot side by side, sometimes with
            # a register write in between (which may or may not move the
            # slot).
            between = draw(st.sampled_from(
                ["", f"movi {draw(dst)}, {draw(small)}",
                 f"addi {draw(dst)}, 8"]))
            if kind == "reload":
                slot = f"[{draw(base)}{draw(small):+d}]"
                lines += [f"store {slot}, {draw(reg)}", between,
                          f"load {draw(dst)}, {slot}"]
            else:
                lines += [f"push {draw(reg)}", between, f"pop {draw(dst)}"]
        elif kind == "movi":
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
        # compiled bodies, against the per-step oracle.  How often the
        # fused leg runs a promoted self-loop shows under
        # --hypothesis-show-statistics.
        promoted = []
        assert_equivalent(source, max_insns=max_insns, batch_cycles=batch,
                          promoted=promoted)
        event("fused leg ran a promoted loop" if promoted[0]
              else "fused leg ran no promoted loop")

    # Cold blocks with and without memory writes run one executor loop,
    # with no version check (W^X keeps every store out of code).  Each
    # case lists how many blocks it translates and runs against the
    # per-step oracle, instructions retired included.
    @pytest.mark.parametrize("source, n_blocks", [
        ("movi rax, 3\naddi rax, 4\ncmpi rax, 7\njz done\nhlt\ndone:\n"
         "movi rbx, 1\nhlt", 2),
        (f"movi rsp, {STACK_TOP - 128}\nmovi rbx, {DATA}\n"
         "load rax, [rbx+0]\npop rcx\npopa\nnop\nhlt", 1),
        # A load faults mid-block: rip, cycles and instructions retired
        # are those of the instructions before it.
        ("movi rax, 1\nmovi rbx, 0x333330\nload rax, [rbx+0]\nhlt", 1),
        (f"movi rbx, {DATA}\nstore [rbx+0], rbx\nhlt", 1),
        ("push rax\nhlt", 1),
        ("pusha\nhlt", 1),
        # A spanned call, and a callr that ends its block.
        ("call f\nhlt\nf:\nmovi rax, 2\nhlt", 1),
        ("movi rcx, {}\ncallr rcx\nhlt\nmovi rax, 9\nhlt".format(
            TEXT + len(assemble("movi rcx, 0\ncallr rcx\nhlt"))), 2),
    ], ids=["alu", "loads_pop_popa", "load_faults", "store", "push",
            "pusha", "spanned_call", "callr"])
    def test_blocks_with_and_without_memory_writes(self, source, n_blocks):
        cached, _interp = assert_equivalent(source)
        assert len(cached.tcache.blocks) == n_blocks
