"""The intercepted-syscall hot path: session constants are resolved once
and engine commands are yielded by reference (DESIGN.md §5d).

Four groups: (a) commands are read-only values, (b) the inlined compute
resume keeps :meth:`Process._step`'s order of effects, (c) exactly
repeating host-work counts per dispatched event on one fixed cell, per
unit of work on the engine, ring and guest-CPU shapes, per translated
block on cold guest code, per trip of the fused hot loop and per
superblock shared by a session's variants, (d) a monitor's pre-bound
wake predicate reads only its own ring and vid.
"""

import gc
import random
import sys
import types

import pytest

from repro import obs
from repro.apps import LIGHTTPD, ServerStats, httpd_image, make_httpd
from repro.clients import make_wrk
from repro.core import NvxSession, VersionSpec
from repro.core.events import syscall_event
from repro.core.ringbuffer import RingBuffer
from repro.costmodel import DEFAULT_COSTS, SEC_PS
from repro.errors import SimulationError
from repro.experiments.harness import (
    MONITOR_NATIVE,
    MONITOR_VARAN,
    run_server_benchmark,
)
from repro.isa import AddressSpace, Cpu, Segment, assemble, fuser, translator
from repro.isa import memory
from repro.isa.disassembler import IMAGE_STORE_BYTES, ImageStore
from repro.isa.memory import _U64
from repro.kernel.uapi import SYSCALL_NAMES, Segfault, Syscall
from repro.obs import metrics as obs_metrics
from repro.rewriter import BinaryRewriter, make_vmcall_handler
from repro.sim import Block, Compute, Machine, Simulator, Sleep, WaitQueue
from repro.sim.core import BLOCKED, Process
from repro.world import World


def world(cores=8):
    sim = Simulator()
    machine = Machine(sim, name="m0")
    machine.spec = machine.spec.__class__(logical_cores=cores,
                                          physical_cores=max(1, cores // 2))
    machine.free_cores = cores
    return sim, machine


# -- (a) commands are values --------------------------------------------------


def _run_two_workers(command_for):
    """Two processes share one core and a wait queue; every compute they
    yield comes from ``command_for(ps)``."""
    with obs.tracing() as tracer:
        sim, m = world(cores=1)
        queue = WaitQueue(sim, name="q")
        observed = []
        items = []

        def producer():
            for _ in range(4):
                yield command_for(700)
                observed.append(("p", sim.now))
                items.append(sim.now)
                queue.notify()
            yield command_for(300)

        def consumer():
            for _ in range(4):
                while not items:
                    yield from queue.wait()
                items.pop()
                yield command_for(700)
                observed.append(("c", sim.now))
            yield command_for(300)

        procs = [m.spawn(consumer(), name="c"), m.spawn(producer(), name="p")]
        sim.run()
    return (sim.now, sim.events_processed, [p.cpu_ps for p in procs],
            observed, tracer.records)


class TestCommandsAreValues:
    def test_one_instance_yielded_repeatedly_and_concurrently(self):
        shared = {}

        def by_reference(ps):
            if ps not in shared:
                shared[ps] = Compute(ps)
            return shared[ps]

        fresh = _run_two_workers(Compute)
        reused = _run_two_workers(by_reference)
        assert reused == fresh
        assert fresh[2] == [4 * 700 + 300] * 2
        # Two instances served ten yields from two processes, unchanged.
        assert sorted(c.ps for c in shared.values()) == [300, 700]

    def test_block_and_compute_instances_survive_reuse(self):
        sim, m = world()
        spin = Block(spin=True, timeout_ps=50)
        burn = Compute(20)

        def main():
            for _ in range(3):
                yield spin
                yield burn
            return sim.now

        proc = m.spawn(main(), name="p")
        sim.run()
        assert proc.result == 3 * 70 and proc.cpu_ps == 60
        assert (spin.spin, spin.timeout_ps) == (True, 50)
        assert burn.ps == 20


# -- (b) the inlined resume keeps _step's order of effects --------------------


def _finishes_after_compute():
    yield Compute(100)
    return "late"


def _finishes_at_first_grant():
    return "early"
    yield  # pragma: no cover


def _raises_after_compute():
    yield Compute(100)
    raise ValueError("boom")


class _SpyProcess(Process):
    """Records who is current each time something wakes this process."""

    def wake(self, value=None):
        self.woken_by = self.sim.current_process
        return super().wake(value)


class TestInlinedResumeOrdering:
    # One body finishes through _after_compute's inlined resume, one
    # through _step (core grant), one by raising.
    @pytest.mark.parametrize("body", [_finishes_after_compute,
                                      _finishes_at_first_grant,
                                      _raises_after_compute])
    def test_on_done_sees_the_finishing_process_as_current(self, body):
        sim, m = world()
        seen = []
        proc = Process(m, body(), name="p")
        proc.on_done(lambda p: seen.append(sim.current_process))
        proc.start()
        sim.run()
        assert proc.done and seen == [proc]
        assert sim.current_process is None

    @pytest.mark.parametrize("body", [_finishes_after_compute,
                                      _finishes_at_first_grant])
    def test_join_waker_runs_with_the_finishing_process_current(self, body):
        sim, m = world()
        target = Process(m, body(), name="target")

        def joiner():
            waiter = sim.current_process
            target.on_done(lambda _p: waiter.wake(None))
            yield Block()
            return target.result

        waiter = _SpyProcess(m, joiner(), name="waiter").start()
        sim.schedule(10, target.start)
        sim.run()
        assert waiter.woken_by is target
        assert waiter.result == target.result

    def test_interrupted_compute_is_not_resumed_by_its_stale_completion(self):
        sim, m = world()
        resumed = []

        def busy():
            try:
                yield Compute(10_000)
            except RuntimeError:
                resumed.append(("caught", sim.now))
            value = yield Block()
            resumed.append((value, sim.now))

        proc = m.spawn(busy(), name="b")
        sim.schedule(2_000, lambda: proc.interrupt(RuntimeError("sig")))
        sim.schedule(20_000, lambda: proc.wake("woken"))
        sim.run(until_ps=15_000)
        # Past the old completion time (10 000) and still parked.
        assert proc.state == BLOCKED and resumed == [("caught", 2_000)]
        sim.run()
        assert resumed == [("caught", 2_000), ("woken", 20_000)]

    def test_completion_callback_ignores_a_process_that_is_not_running(self):
        # The wake token already discards a cancelled completion at pop
        # time; the state guard is the callback's own second line.
        sim, m = world()
        steps = []

        def parked():
            steps.append("parked")
            yield Block()
            steps.append("resumed")

        proc = m.spawn(parked(), name="p", daemon=True)
        sim.run()
        assert proc.state == BLOCKED
        proc._after_compute(None)
        assert proc.state == BLOCKED and steps == ["parked"]

    def test_preemptible_computes_alternate_on_one_core(self):
        sim, m = world(cores=1)
        order = []

        def main(name):
            for _ in range(3):
                yield Compute(100)
                order.append((name, sim.now))

        m.spawn(main("a"), name="a")
        m.spawn(main("b"), name="b")
        sim.run()
        # Each completion requeues behind the other process before the
        # generator is resumed, so a step is observed one slice late.
        assert order == [("a", 200), ("b", 300), ("a", 400), ("b", 500),
                         ("a", 600), ("b", 600)]

    @pytest.mark.parametrize("warmup", [0, 1], ids=["via_step",
                                                    "via_after_compute"])
    def test_negative_compute_raises_out_of_run(self, warmup):
        sim, m = world()

        def main():
            for _ in range(warmup):
                yield Compute(40)
            yield Compute(-5)

        proc = m.spawn(main(), name="p")
        with pytest.raises(SimulationError, match="negative delay"):
            sim.run()
        # Charged before the post is refused, on both copies of the branch.
        assert proc.cpu_ps == 40 * warmup - 5

    @pytest.mark.parametrize("bad", [None, 17, "compute", object()],
                             ids=["none", "int", "str", "object"])
    @pytest.mark.parametrize("warmup", [0, 1], ids=["via_step",
                                                    "via_after_compute"])
    def test_unknown_command_ends_the_process(self, bad, warmup):
        sim, m = world()

        def main():
            for _ in range(warmup):
                yield Compute(40)
            yield bad
            return "unreachable"  # pragma: no cover

        proc = m.spawn(main(), name="p")
        sim.run()
        assert proc.done and proc.result is None
        assert isinstance(proc.exception, SimulationError)
        assert "unknown command" in str(proc.exception)
        assert m.free_cores == m.spec.logical_cores


# -- (c) host work per dispatched event ---------------------------------------

#: Ceilings sit between the values measured on this cell before and
#: after session constants were resolved once, close to the latter so
#: one site going back to rebuilding its command (or one pair of
#: per-access properties coming back) trips them: Compute constructions
#: per event 0.831 -> 0.285, profiled call + c_call events per event
#: 36.97 -> 30.40 (CPython 3.11, the version CI pins; the full
#: c10k_local pass reads 0.83 -> 0.28 and 35.3 -> 28.7).  Calls per
#: event then went 30.12 -> 29.45 on the Varan cell and 35.96 -> 34.38
#: on the native one when kernel handlers stopped being generators
#: unless they can block and pass-through frames (the ``local`` table
#: entries, ``ProcessContext._checked``'s ``yield from``, the
#: send/recv/stat/select/nanosleep re-dispatches) went away.
MAX_COMPUTES_PER_EVENT = 0.30
MAX_CALLS_PER_EVENT = 29.8
MAX_NATIVE_CALLS_PER_EVENT = 35.0


def _varan_f2_cell():
    return run_server_benchmark(
        lambda: make_httpd(LIGHTTPD, stats=ServerStats()),
        lambda: make_wrk(clients=10, duration_ps=int(0.002 * SEC_PS)),
        monitor=MONITOR_VARAN, followers=2,
        image_factory=lambda: httpd_image(LIGHTTPD),
        server_files={"/var/www/index.html": b"x" * LIGHTTPD.page_size})


def _native_cell():
    return run_server_benchmark(
        lambda: make_httpd(LIGHTTPD, stats=ServerStats()),
        lambda: make_wrk(clients=10, duration_ps=int(0.002 * SEC_PS)),
        monitor=MONITOR_NATIVE,
        server_files={"/var/www/index.html": b"x" * LIGHTTPD.page_size})


def _counted(run):
    """``run()``'s result, with the profiled call + c_call events and
    the ``Compute`` constructions it made."""
    compute_init = Compute.__init__.__code__
    counts = {"calls": 0, "computes": 0}

    def hook(frame, event, _arg):
        if event == "call":
            counts["calls"] += 1
            if frame.f_code is compute_init:
                counts["computes"] += 1
        elif event == "c_call":
            counts["calls"] += 1

    # An earlier run's world is cyclic garbage; were it collected in
    # the counted window, every generator closed would count as a call.
    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return counts, result


def _counted_cell(cell=_varan_f2_cell):
    counts, run = _counted(cell)
    assert run.report.requests > 0 and run.report.errors == 0
    return counts, run.world.sim.events_processed


class TestHostWorkPerEvent:
    def test_counts_repeat_exactly_and_stay_under_their_ceilings(self):
        _varan_f2_cell()  # decode and assemble once (process-wide memos)
        counts, events = _counted_cell()
        assert (counts, events) == _counted_cell()
        assert events > 4000
        assert counts["computes"] / events < MAX_COMPUTES_PER_EVENT
        assert counts["calls"] / events < MAX_CALLS_PER_EVENT

    def test_native_counts_repeat_exactly_and_stay_under_their_ceiling(self):
        _native_cell()
        counts, events = _counted_cell(_native_cell)
        assert (counts, events) == _counted_cell(_native_cell)
        assert events > 900
        assert counts["calls"] / events < MAX_NATIVE_CALLS_PER_EVENT


# Shapes that once had wall-clock gates against other hosts' baselines;
# their call counts repeat exactly (CPython 3.11 reads: churn 8.11 per
# event, pump 23.25, cached guest loop 0.0022 per insn, per-step 8.40).
# The cached loop read 0.80 before fused loads took the value of the
# store before them from a local, and 0.40 before its fused self-loop
# held its two slots in locals.
MAX_CACHED_CALLS_PER_INSN = 0.01

#: Trace ``line`` events in fused code per trip of the cached guest
#: loop: 4.04 (CPython 3.11), the ``for`` line and three statements,
#: since a promoted loop is a counted ``for`` with no per-trip exit
#: test, no dead ``zf`` write, no ``rsp`` steps for its push/pop pair
#: and its slot moves folded into their neighbours; 16.0 before.
MAX_FUSED_LINES_PER_TRIP = 4.5


def _engine_churn():
    sim, machine = world()

    def worker(k):
        for i in range(2000):
            yield Compute(100 + (i + k) % 7)
            if i % 5 == 0:
                yield Sleep(50)
            if i % 11 == 0:
                yield Block(timeout_ps=25)

    for k in range(20):
        machine.spawn(worker(k), name=f"w{k}")
    sim.run()
    return sim.events_processed


def _ring_pump():
    sim, machine = world()
    events = 3000
    ring = RingBuffer(sim, DEFAULT_COSTS, capacity=256)

    def producer():
        for i in range(events):
            yield from ring.publish(syscall_event("close", 0, i + 1, 0))

    def consumer(vid):
        for _ in range(events):
            while ring.peek(vid) is None:
                yield from ring.wait_published(
                    False, lambda: ring.peek(vid) is not None)
            ring.advance(vid)

    machine.spawn(producer(), name="leader")
    for vid in (1, 2, 3):
        ring.add_consumer(vid)
        machine.spawn(consumer(vid), name=f"follower{vid}")
    sim.run()
    return sim.events_processed


#: Arithmetic + memory + stack + branch mix, 10 instructions a trip.
_CPU_LOOP = """
    movi rbx, {iterations}
    movi rcx, 0x20000000
    movi rdx, 7
    movi rsi, 3
loop:
    add rdx, rsi
    store [rcx+0], rdx
    load rax, [rcx+0]
    add rax, rdx
    push rax
    pop rdi
    addi rdx, 13
    cmp rdx, rsi
    subi rbx, 1
    jnz loop
    hlt
"""


def _cpu_loop(iterations, translate):
    def run():
        space = AddressSpace()
        code = assemble(_CPU_LOOP.format(iterations=iterations), origin=0x1000)
        space.map(Segment(0x1000, code, perms="rx", name="text"))
        space.map(Segment(0x2000_0000, bytes(0x1000), perms="rw"))
        space.map(Segment(0x7FF0_0000, bytes(0x4000), perms="rw"))
        cpu = Cpu(space, 0x1000, 0x7FF0_4000, translate=translate)
        cpu.run_sync()
        return cpu
    return run


def _second_count(run):
    """Calls of a run after a warm-up (the first imports), which must
    repeat exactly, and its result."""
    run()
    counts, result = _counted(run)
    assert _counted(run)[0] == counts
    return counts["calls"], result


class TestSubstrateWork:
    @pytest.mark.parametrize("shape, events, ceiling", [
        (_engine_churn, 103_230, 9.0), (_ring_pump, 12_004, 25.0)],
        ids=["engine_churn", "ring_pump"])
    def test_calls_per_event_repeat_and_stay_under_ceiling(
            self, shape, events, ceiling):
        calls, dispatched = _second_count(shape)
        assert dispatched == events and calls / events < ceiling

    def test_cached_cpu_loop_chains_one_fused_block(self):
        calls, cpu = _second_count(_cpu_loop(60_000, True))
        stats = cpu.tcache.stats
        assert (stats.fused_blocks, stats.dispatch_blocks,
                stats.chain_follows) == (1, 4, 59_997)
        assert cpu.insns_retired == 600_005
        assert calls / cpu.insns_retired < MAX_CACHED_CALLS_PER_INSN

    def test_fused_loop_runs_few_lines_per_trip(self):
        def lines(run):
            count = [0]

            def local(_frame, event, _arg):
                if event == "line":
                    count[0] += 1
                return local

            def tracer(frame, _event, _arg):
                if frame.f_code.co_filename.startswith("<fused:"):
                    return local
                return None

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                cpu = run()
            finally:
                sys.settrace(previous)
            assert cpu.insns_retired == 30_005
            return count[0]

        run = _cpu_loop(3_000, True)
        run()
        count = lines(run)
        assert lines(run) == count
        assert count / 3_000 < MAX_FUSED_LINES_PER_TRIP

    def test_fused_loop_iterates_only_in_its_promoted_for(self,
                                                          monkeypatch):
        # A call whose promotion guard fails runs one plain trip, so the
        # loop block's source has no ``while`` and no store forwarding.
        sources = {}
        real = compile

        def recording(source, filename, mode):
            sources[filename] = source
            return real(source, filename, mode)

        monkeypatch.setattr(fuser, "compile", recording, raising=False)
        _cpu_loop(3_000, True)()
        head = _CPU_LOOP.format(iterations=3_000).split("loop:")[0]
        entry = 0x1000 + len(assemble(head, origin=0x1000))
        source = sources[f"<fused:{entry:#x}>"]
        assert "for _it in range(" in source
        assert "while" not in source and "_fw" not in source

    def test_per_step_decode_costs_8x_the_cached_path(self):
        # The deterministic form of the old "cached >= 3x per-step" MIPS
        # ratio, on a shorter loop so the per-step run stays cheap.
        cached_calls, cached = _second_count(_cpu_loop(3_000, True))
        step_calls, step = _second_count(_cpu_loop(3_000, False))
        assert step.regs == cached.regs and step.insns_retired == 30_005
        assert step_calls >= 8 * cached_calls


def _cold_program(rng, blocks, rounds=3):
    """The shape of the ``guest_isa`` benchmark's cold phase: short
    blocks laid out in index order and run in a seeded order, each
    ending in a conditional branch so no two merge into one superblock,
    and each run ``rounds`` times — too few to fuse."""
    order = list(range(blocks))
    rng.shuffle(order)
    consts = [rng.randrange(1, 1 << 16) for _ in range(blocks)]
    successor = {a: f"b{b}" for a, b in zip(order, order[1:])}
    lines = [f"movi rbx, {rounds}", "movi r13, 1", "movi r15, 0",
             "round:", f"jmp b{order[0]}"]
    for index in range(blocks):
        lines += [f"b{index}:", f"addi r13, {consts[index]}",
                  "add r15, r13", "cmpi r13, 0",
                  f"jnz {successor.get(index, 'endround')}", "hlt"]
    lines += ["endround:", "subi rbx, 1", "jnz round", "mov rax, r15",
              "hlt"]
    return "\n".join(lines)


#: GC-tracked objects a translated cold block keeps alive once its shape
#: is on the code image: its CodeBlock and, once linked, its chain dict
#: (2.03 per block on CPython 3.11).  Building the insns/cum/bounds
#: tuples per Cpu kept 5.0, a closure per instruction 26.96.
MAX_OBJECTS_PER_BLOCK = 3

#: Profiled calls per retired instruction of a never-fused cold program
#: (CPython 3.11): 2.513, one executor call per instruction, the rest
#: per block, one of them ``AddressSpace.find`` (2.430 while translation
#: inlined its page-cache probe).  It read 2.596 when translation
#: scanned the segment list for every block's entry and counted its
#: length in a method call.
MAX_COLD_CALLS_PER_INSN = 2.6


def _retained(run):
    """GC-tracked objects and function objects alive after ``run()``
    that were not before it, with its result; no collection runs in
    between."""
    def functions():
        return sum(isinstance(obj, types.FunctionType)
                   for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        objects, funcs = len(gc.get_objects()), functions()
        result = run()
        return (len(gc.get_objects()) - objects, functions() - funcs,
                result)
    finally:
        gc.enable()


def _cold_run(source):
    def run():
        space = AddressSpace()
        space.map(Segment(0x1000, assemble(source, origin=0x1000),
                          perms="rx", name="text"))
        space.map(Segment(0x7FF0_0000, bytes(0x4000), perms="rw"))
        cpu = Cpu(space, 0x1000, 0x7FF0_4000)
        cpu.run_sync()
        return cpu
    return run


class TestColdTranslation:
    def test_cold_blocks_keep_few_objects_and_build_no_functions(self):
        run = _cold_run(_cold_program(random.Random(7), 500))
        run()  # decode, form and assemble once (process-wide memos)
        objects, functions, cpu = _retained(run)
        again = _retained(run)
        assert (objects, functions) == again[:2]
        stats = cpu.tcache.stats
        assert (stats.blocks_translated, stats.fused_blocks) == (504, 0)
        assert functions == 0
        assert objects / stats.blocks_translated < MAX_OBJECTS_PER_BLOCK

    def test_cold_blocks_cost_few_calls_per_insn(self):
        calls, cpu = _second_count(
            _cold_run(_cold_program(random.Random(7), 500)))
        assert cpu.tcache.stats.fused_blocks == 0
        assert cpu.insns_retired == 6_014
        assert calls / cpu.insns_retired <= MAX_COLD_CALLS_PER_INSN


#: The ``guest_isa`` benchmark's hot loop: 12 instructions a trip, one
#: ``store``/``load`` and one ``push``/``pop`` of the same slot, and a
#: getuid per outer trip.
_HOT_LOOP = """
    movi rbx, {outer}
    movi rcx, 0x20000000
    movi rdx, 90211
    movi rsi, 7019
    movi r13, 0
outer:
    movi r12, {inner}
inner:
    add rdx, rsi
    store [rcx+0], rdx
    load rax, [rcx+0]
    add rax, rdx
    push rax
    pop rdi
    addi rdx, 331
    add r13, rdi
    cmp rdx, rsi
    nop
    subi r12, 1
    jnz inner
    movi rax, 102
    syscall
    add r13, rax
    nop
    nop
    nop
    subi rbx, 1
    jnz outer
    mov rax, r13
    hlt
"""


def _page_cache_traffic(inner):
    """u64 reads (``unpack_from``), writes (``pack_into``) and page
    lookups (``_pages.get``) of the hot loop run 2 x ``inner`` trips, and
    how many fused calls ran them."""
    space = AddressSpace()
    space.map(Segment(0x1000, assemble(_HOT_LOOP.format(outer=2, inner=inner),
                                       origin=0x1000), perms="rx"))
    space.map(Segment(0x2000_0000, bytes(0x1000), perms="rw"))
    space.map(Segment(0x7FF0_0000, bytes(0x4000), perms="rw"))
    cpu = Cpu(space, 0x1000, 0x7FF0_4000)

    def getuid(_cpu):
        return 1000
        yield  # pragma: no cover - generator marker

    cpu.syscall_handler = getuid
    counts = {"reads": 0, "writes": 0, "lookups": 0, "calls": 0}

    def hook(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            if owner is _U64 and arg.__name__ == "unpack_from":
                counts["reads"] += 1
            elif owner is _U64 and arg.__name__ == "pack_into":
                counts["writes"] += 1
            elif owner is space._pages and arg.__name__ == "get":
                counts["lookups"] += 1
        elif event == "call" and frame.f_code.co_filename.startswith(
                "<fused:"):
            counts["calls"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        cpu.run_sync()
    finally:
        sys.setprofile(previous)
    assert cpu.tcache.stats.fused_blocks >= 1
    return counts


def _guest_main(code, cpus):
    """A variant's main shaped like ``guest_isa``'s: map, rewrite and run
    ``code``, its syscalls bridged to the task's gate."""
    def main(ctx):
        task = ctx.task
        space = AddressSpace()
        rewriter = BinaryRewriter(space, auto=False)
        rewriter.install_entry_point()
        text = space.map(Segment(0x10000, code, perms="rx", name="text"))
        space.map(Segment(0x2000_0000, bytes(0x1000), perms="rw"))
        space.map(Segment(0x7FF0_0000, bytes(0x4000), perms="rw"))
        rewriter.rewrite_segment(text)
        cpu = Cpu(space, entry=0x10000, stack_top=0x7FF0_4000)
        cpus.append(cpu)

        def dispatch(cpu_, site):
            call = Syscall(SYSCALL_NAMES.get(cpu_.get("rax")),
                           site=f"isa_{site.site_id}")
            result = yield from task.gate.dispatch(call)
            return result.retval

        cpu.vmcall_handler = make_vmcall_handler(rewriter.patchset, dispatch)
        return (yield from cpu.run(max_insns=1 << 40))
    return main


class TestGuestWorkDoneOnce:
    def test_fused_hot_loop_reads_no_slot_it_just_stored(self):
        # The hot loop's two slots (the store/load one and the push/pop
        # one) are promoted: each fused call checks them once (2 page
        # lookups) and writes them back once (2 writes) when it returns,
        # and an extra trip makes no lookup, read or write at all.
        # Before promotion an extra trip cost 2 lookups and 2 writes,
        # and 2 reads before store forwarding.
        short, long = _page_cache_traffic(1000), _page_cache_traffic(3000)
        trips = 2 * (3000 - 1000)
        calls = long["calls"] - short["calls"]
        assert 0 < calls < trips // 100
        assert long["reads"] - short["reads"] == 0 * trips
        assert long["lookups"] - short["lookups"] == 0 * trips + 2 * calls
        assert long["writes"] - short["writes"] == 0 * trips + 2 * calls

    def test_variants_form_each_superblock_once(self, monkeypatch):
        # One guest_isa pass: the hot then the cold phase, each an
        # NvxSession of three variants running the same rewritten text.
        formed = []
        real = translator.form_superblock

        def counting(image, rip, limit):
            formed.append((image.base, image.code, rip))
            return real(image, rip, limit)

        monkeypatch.setattr(translator, "form_superblock", counting)
        monkeypatch.setattr(memory, "IMAGE_STORE",
                            ImageStore(IMAGE_STORE_BYTES))
        obs_metrics.start_collection()
        results = []
        for source in (_HOT_LOOP.format(outer=2, inner=50),
                       _cold_program(random.Random(7), 4000)):
            cpus = []
            main = _guest_main(assemble(source, origin=0x10000), cpus)
            world = World()
            session = NvxSession(world, [VersionSpec(f"v{i}", main)
                                         for i in range(3)]).start()
            world.run()
            results.append([v.root_task.threads[0].result
                            for v in session.variants])
            assert len(cpus) == 3
        counters = obs_metrics.drain()["counters"]
        assert all(len(set(r)) == 1 and r[0] is not None for r in results)
        # The guest_isa pass's counts: 3 x 4,029 translations, but each
        # shape is formed once, by whichever variant reaches it first.
        assert len(formed) == len(set(formed)) == 4_029
        assert counters["tcache.blocks_translated"] == 12_087


# -- (d) monitor state is plain, and each predicate is its own ----------------


def _forking_app(ctx):
    def child(cctx):
        yield from cctx.time()
        yield from cctx.syscall("exit_group", 3)

    pid = yield from ctx.fork(child)
    _, status = yield from ctx.wait4(pid)
    return status


class TestMonitorState:
    def test_published_ready_reads_only_its_own_ring_and_vid(self,
                                                             monkeypatch):
        w = World()
        session = NvxSession(w, [VersionSpec(name, _forking_app)
                                 for name in "abc"]).start()
        # Bounded: a follower parked on somebody else's predicate spins.
        w.run(max_events=100_000)
        assert len(session.tuples) == 2
        monitors = [monitor for tuple_ in session.tuples
                    for monitor in tuple_.replicas.values()]
        assert len(monitors) == 6
        assert len({id(m.ring) for m in monitors}) == 2
        peeks = []
        real_peek = RingBuffer.peek

        def recording_peek(ring, vid):
            peeks.append((ring, vid))
            return real_peek(ring, vid)

        monkeypatch.setattr(RingBuffer, "peek", recording_peek)
        for monitor in monitors:
            assert monitor._published_ready.__self__ is monitor
            assert monitor.ring is monitor.tuple.ring
            assert monitor.vid == monitor.variant.vid
            del peeks[:]
            monitor._published_ready()
            assert len(peeks) == 1
            assert peeks[0][0] is monitor.ring and peeks[0][1] == monitor.vid

    def test_is_leader_stays_live_across_promotion(self):
        def crashing(ctx):
            yield from ctx.time()
            raise Segfault("leader dies")

        born = []

        def healthy(ctx):
            monitor = ctx.task.monitor_state
            born.append((monitor, monitor.ring, monitor.vid,
                         monitor.is_leader))
            for _ in range(6):
                yield from ctx.time()
            return "ok"

        w = World()
        session = NvxSession(w, [VersionSpec("crash", crashing),
                                 VersionSpec("heir", healthy)]).start()
        w.run(max_events=100_000)
        heir = session.variants[1]
        assert session.stats.promotions == 1
        assert heir.root_task.threads[0].result == "ok"
        (monitor, ring, vid, was_leader), = born
        assert not was_leader
        # vid and ring are the objects fixed at construction; the role is
        # read through the variant every time.
        assert monitor.ring is ring is session.tuples[0].ring
        assert monitor.vid == vid == heir.vid
        assert monitor.is_leader
        assert ring.peek(vid) is None and monitor._published_ready()
