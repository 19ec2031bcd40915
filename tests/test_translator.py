"""Translation-cache tests: differential equivalence with per-step
decode, invalidation (rewriter patches, self-modifying code, remaps),
and the hit/miss/invalidation counters."""

import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.costmodel import CYCLE_PS
from repro.errors import DisassemblyError, ExecutionFault
from repro.isa import AddressSpace, Cpu, Segment, assemble, fuser, translator
from repro.isa.translator import T_SYSCALL
from repro.obs import metrics as obs_metrics
from repro.sim.core import Compute

TEXT = 0x1000
DATA = 0x4000
STACK_TOP = 0x20000


def build_cpu(source, translate=True, text_perms="rx", name="cpu",
              data_perms="rw"):
    space = AddressSpace()
    code = assemble(source, origin=TEXT)
    space.map(Segment(TEXT, code, perms=text_perms, name="text"))
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
                      text_perms="rx", data_perms="rw", forwarded=None,
                      promoted=None):
    """Run ``source`` under cached (superblocks + chaining), cached with
    fusion forced from the first execution, and per-step decode; the
    observable outcome must be identical in all three: registers, zf,
    rip, cycles, the fault, every segment's bytes and version, and on a
    clean exit the instructions retired (the per-step loop does not
    count them on a fault).

    ``forwarded`` and ``promoted``, lists, receive how many loads of the
    forced-fusion leg took a stored value from a local and how many of
    its fused calls ran a self-loop with its slots in locals (see
    :func:`branch_entries`).
    """
    interp = build_cpu(source, translate=False, text_perms=text_perms,
                       data_perms=data_perms)
    i_ret, i_exc, i_ps = drive(interp, max_insns, batch_cycles)
    cached = build_cpu(source, translate=True, text_perms=text_perms,
                       data_perms=data_perms)
    fused = build_cpu(source, translate=True, text_perms=text_perms,
                      data_perms=data_perms)
    fused.tcache.fuse_threshold = 1  # every block compiles before run 1
    for cpu in (cached, fused):
        if cpu is fused:
            (taken, entered), (c_ret, c_exc, c_ps) = branch_entries(
                lambda: drive(cpu, max_insns, batch_cycles),
                "if _fw", "if _p0")
            if forwarded is not None:
                forwarded.append(taken)
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
        assert ([(seg.name, bytes(seg.data), seg.version)
                 for seg in cpu.space.segments]
                == [(seg.name, bytes(seg.data), seg.version)
                    for seg in interp.space.segments])
        if c_exc is None:
            # Every retired cycle was flushed in both modes, so the
            # sim-time Compute totals agree exactly (only the chunking
            # differs).
            assert c_ps == i_ps == cpu.cycles * CYCLE_PS
            assert cpu.insns_retired == interp.insns_retired
    return cached, interp


def branch_entries(run, *prefixes):
    """How many times fused code entered the branch under an ``if`` line
    starting with each of ``prefixes``, and ``run()``'s result: moves
    from such a line to the line after it, in every body fused while
    ``run`` runs."""
    sources = {}
    real_compile = compile

    def recording_compile(source, filename, mode):
        sources[filename] = source.splitlines()
        return real_compile(source, filename, mode)

    taken = dict.fromkeys(prefixes, 0)
    targets = {}
    last = [None]  # the line the running fused body executed before

    def local(frame, event_, _arg):
        if event_ == "line":
            entered = targets[frame.f_code.co_filename].get(
                (last[0], frame.f_lineno))
            if entered is not None:
                taken[entered] += 1
            last[0] = frame.f_lineno
        return local

    def tracer(frame, event_, _arg):
        name = frame.f_code.co_filename
        if name not in sources:
            return None
        if name not in targets:
            # Line `number` of the source is code line `number + 1`.
            targets[name] = {
                (number + 1, number + 2): prefix
                for number, line in enumerate(sources[name])
                for prefix in prefixes if line.strip().startswith(prefix)}
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
    return [taken[prefix] for prefix in prefixes], result


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
        new_first8 = bytearray(cpu.space.find(TEXT).data[:8])
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
    # A fused load of the slot the last store wrote takes the value from
    # a local (repro.isa.fuser).  Each program first stores to the slot's
    # page once, so the forwarded store takes the page-cache fast path
    # (a first touch takes the slow one and never forwards), and checks
    # the forced-fusion leg and the cold leg against the per-step oracle
    # and an expected value.
    PRIME = f"movi rbx, {DATA}\nmovi rax, 11\nmovi rdx, 22\n" \
            "store [rbx+64], rax\npush rax\npop rsi\n"

    @pytest.mark.parametrize("body, expected, taken", [
        ("store [rbx+0], rax\nload rcx, [rbx+0]\nmov rax, rcx", 11, 1),
        ("store [rbx+0], rax\nload rax, [rbx+0]", 11, 1),
        # The value register is overwritten in between: the load must
        # see the stored value, not the register's new one.
        ("store [rbx+0], rax\nmovi rax, 99\nload rcx, [rbx+0]\n"
         "mov rax, rcx", 11, 0),
        # ... and the base register: the load reads another slot.
        ("store [rbx+0], rax\naddi rbx, 8\nload rax, [rbx+0]", 0, 0),
        # Two base registers aliasing one slot; the later store wins.
        ("mov rcx, rbx\nstore [rbx+0], rax\nstore [rcx+0], rdx\n"
         "load rax, [rbx+0]", 22, 0),
        ("movi rcx, 8\nadd rcx, rbx\nstore [rbx+8], rax\n"
         "store [rcx+0], rdx\nload rax, [rbx+8]", 22, 0),
        # ... or a load of another slot.
        ("store [rbx+0], rax\nload rax, [rbx+8]", 0, 0),
        # pusha writes the slot (rbx's push) between the store and the
        # load.
        (f"movi rbp, {STACK_TOP - 16}\nmovi rbx, 6\nstore [rbp+8], rax\n"
         "store [rbp+0], rax\npusha\nload rax, [rbp+0]", 6, 0),
        # push rsp pushes the rsp it had before the push.
        ("push rsp\npop rax", STACK_TOP, 1),
        ("push rdx\npop rax", 22, 1),
        # A spanned call's pushed return address, popped by the callee.
        ("call callee\nmovi rax, 33\nhlt\ncallee:\npop rax\nsubi rax, "
         f"{TEXT}", None, 1),
    ], ids=["store_load", "store_load_same_reg", "value_reg_overwritten",
            "base_reg_overwritten", "aliased_bases", "aliased_disp",
            "other_disp", "pusha_between", "push_rsp_pop", "push_pop",
            "call_pop"])
    def test_forwarding_matches_the_oracle(self, body, expected, taken):
        forwarded = []
        source = self.PRIME + body + "\nhlt"
        _cached, interp = assert_equivalent(source, forwarded=forwarded)
        if expected is not None:
            assert interp.regs[0] == expected
        assert forwarded == [taken]

    @pytest.mark.parametrize("data_perms", ["rw", "w"])
    def test_first_touch_store_then_load(self, data_perms):
        # The store misses the page cache and takes write_u64; the load
        # must go to memory (and, write-only, fault like per-step).
        forwarded = []
        source = (f"movi rbx, {DATA}\nmovi rax, 7\nstore [rbx+0], rax\n"
                  "load rcx, [rbx+0]\nhlt")
        cached, interp = assert_equivalent(source, data_perms=data_perms,
                                           forwarded=forwarded)
        assert forwarded == [0]
        if data_perms == "rw":
            assert interp.regs[2] == 7
        else:
            load_rip = TEXT + len(assemble(source.rsplit("\nload", 1)[0]))
            assert cached.rip == interp.rip == load_rip

    def test_write_only_slot_faults_at_the_load(self):
        # The forwarded store took the fast path into a segment the
        # load may not read: the load faults with per-step rip/cycles.
        source = (f"movi rbx, {DATA}\nmovi rax, 7\nstore [rbx+8], rax\n"
                  "store [rbx+0], rax\nload rcx, [rbx+0]\nhlt")
        forwarded = []
        cached, interp = assert_equivalent(source, data_perms="w",
                                           forwarded=forwarded)
        assert forwarded == [0]
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
    ], ids=["store_load", "hot_loop", "two_stores_one_slot", "read_first",
            "push_load_rsp", "balanced_base_steps", "push_rsp",
            "same_address_two_bases", "overlap_by_4", "one_slot_two_exprs",
            "base_net_plus_8", "pop_into_base", "load_into_base",
            "movi_into_base", "rsp_net_minus_8", "call"])
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

    def test_load_only_slot_is_not_written_back(self):
        taken = []
        cached, interp = assert_equivalent(
            _loop_program("load rsi, [rbx+64]\nadd r13, rsi", trips=7),
            promoted=taken)
        assert taken == [1]
        assert interp.regs[0] == 7 * 11
        # The prime's one store is the data segment's only write.
        assert cached.space.find(DATA).version == 1

    def test_version_moves_by_stores_per_trip(self):
        taken = []
        cached, interp = assert_equivalent(
            _loop_program("store [rbx+0], r12\nstore [rbx+0], rax\n"
                          "push r12\npop rsi", trips=6), promoted=taken)
        assert taken == [1]
        assert cached.space.find(DATA).version == 1 + 2 * 6
        assert cached.space.find(STACK_TOP - 8).version == 1 + 6

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
        # takes the unpromoted path (whose first store caches the page),
        # the second runs promoted.
        source = _loop_program("store [rbx+0], r12\nload rsi, [rbx+0]\n"
                               "add r13, rsi", rounds=2, prime="")
        taken = []
        assert_equivalent(source, promoted=taken)
        assert taken == [1]

    def test_store_into_its_own_code_falls_back(self):
        # The loop rewrites the immediate of its own `movi`: per-step,
        # each trip runs the value the trip before stored.
        body = "movi rax, 1\nadd r13, rax\nstore [rcx+0], r12"
        prefix = _loop_program(body, prime="", setup="movi rcx, 0")
        imm = TEXT + 2 + len(assemble(prefix.split("loop:")[0] + "loop:",
                                      origin=TEXT))
        source = _loop_program(body, prime="", setup=f"movi rcx, {imm}")
        taken = []
        _cached, interp = assert_equivalent(source, text_perms="rwx",
                                            promoted=taken)
        assert taken == [0]
        assert interp.regs[0] == 1 + 5 + 4 + 3 + 2

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

    # The store and the push touch the data and stack pages once, so
    # later fused accesses find them in the page cache (a first touch
    # takes the slow path, where the fuser never forwards).
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
            # in the (rwx) text, and its counter may be clobbered.
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
            # a register write in between (which may or may not end the
            # fuser's store forwarding).
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
        # fused leg forwards a store and runs a promoted self-loop shows
        # under --hypothesis-show-statistics.
        forwarded, promoted = [], []
        assert_equivalent(source, max_insns=max_insns, batch_cycles=batch,
                          text_perms="rwx", forwarded=forwarded,
                          promoted=promoted)
        event("fused leg forwarded a load" if forwarded[0]
              else "fused leg forwarded no load")
        event("fused leg ran a promoted loop" if promoted[0]
              else "fused leg ran no promoted loop")
