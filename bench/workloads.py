"""The five benchmark workloads.

Each workload is shaped like something a user of this repository runs,
and each leans on different layers, so an optimisation to one layer has
a workload that exercises it and one that bypasses it (see README.md).

A workload's ``prepare(seed, scale)`` generates its inputs from the seed
and returns ``run_pass(spans) -> PassResult``.  A pass is a fixed amount
of work: the same seed and scale give the same simulated bytes on every
pass, which is what lets the runner repeat passes for ``--seconds`` and
report the median pass time.  ``scale`` shrinks a pass for the warm-up
and the tests; measurements use ``scale=1.0``.

Only public entry points of ``repro`` are called; nothing is patched.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.apps import LIGHTTPD, ServerStats, httpd_image, make_httpd
from repro.clients import make_wrk
from repro.core import NvxSession, VersionSpec
from repro.costmodel import DEFAULT_COSTS, SEC_PS
from repro.experiments.figure5 import PAPER_FIGURE5
from repro.experiments.harness import (
    MONITOR_NATIVE,
    MONITOR_VARAN,
    overhead,
    run_server_benchmark,
)
from repro.experiments.registry import ExperimentConfig, run_experiment
from repro.experiments.runner import (
    REFERENCE_SCALE,
    compare_reports,
    merge_results,
    reference_path,
    run_point,
    sweep_points,
)
from repro.faults.chaos import run_plan
from repro.faults.invariants import process_violations
from repro.fuzz import run_fuzz
from repro.isa import AddressSpace, Cpu, Segment, assemble
from repro.kernel.uapi import SYSCALL_NAMES, Syscall
from repro.rewriter import (
    BinaryRewriter,
    make_int0_handler,
    make_vmcall_handler,
)
from repro.world import World


@dataclass
class PassResult:
    """What one pass of a workload did."""

    #: Work done, in the workload's own unit (for ops/s).
    ops: int
    #: Operations whose outcome was checked, and how many failed.
    attempted: int
    failed: int
    #: Rendered simulated output; its SHA-256 is the ``sim_digest``.
    text: str
    #: Exact counts only the workload can see (guest instructions,
    #: error against the paper); merged into the per-layer metrics.
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What ``ops`` counts.
    ops_unit: str
    prepare: Callable[[int, float], Callable]
    #: Per-layer counts that must be > 0 on this workload: a zero means
    #: a function named in ``layers.CALL_COUNTS`` moved or was renamed.
    expects: Tuple[str, ...]


# -- c10k_local --------------------------------------------------------------

#: Virtual seconds wrk drives each of the four cells for.
C10K_VIRTUAL_S = 0.01
C10K_CONNECTIONS = 10
C10K_RING_SLOTS = 256
#: (span label, monitor, followers); f0/f2/f6 are scored against Figure 5.
C10K_CELLS = (
    ("native", MONITOR_NATIVE, 0),
    ("varan-f0", MONITOR_VARAN, 0),
    ("varan-f2", MONITOR_VARAN, 2),
    ("varan-f6", MONITOR_VARAN, 6),
)
_PAGE_PATH = "/var/www/index.html"


def _prepare_c10k_local(seed: int, scale: float):
    # The seed picks the bytes of the served page; its size is the
    # profile's, so the simulated ratios stay comparable to Figure 5.
    page = random.Random(seed).randbytes(LIGHTTPD.page_size)
    duration_ps = max(1, int(C10K_VIRTUAL_S * scale * SEC_PS))

    def server():
        return make_httpd(LIGHTTPD, stats=ServerStats())

    def client():
        return make_wrk(clients=C10K_CONNECTIONS, duration_ps=duration_ps)

    def run_pass(spans) -> PassResult:
        violations = process_violations()
        runs = {}
        for label, monitor, followers in C10K_CELLS:
            with spans.span(f"cell:{label}"):
                runs[label] = run_server_benchmark(
                    server, client, monitor=monitor, followers=followers,
                    image_factory=lambda: httpd_image(LIGHTTPD),
                    server_files={_PAGE_PATH: page},
                    ring_capacity=C10K_RING_SLOTS)
        requests = sum(run.report.requests for run in runs.values())
        failed = (sum(run.report.errors for run in runs.values())
                  + process_violations() - violations)
        lines = [f"{label} requests={run.report.requests} "
                 f"errors={run.report.errors} rps={run.throughput:.3f} "
                 f"latency_us={run.latency_us:.3f}"
                 for label, run in runs.items()]
        errs = []
        for label, _monitor, followers in C10K_CELLS[1:]:
            paper = PAPER_FIGURE5["lighttpd"][followers]
            errs.append(abs(overhead(runs["native"], runs[label]) - paper)
                        / paper)
        return PassResult(
            ops=requests, attempted=requests + failed, failed=failed,
            text="\n".join(lines),
            counts={"paper.figure5_err": sum(errs) / len(errs)})

    return run_pass


# -- load_fleet --------------------------------------------------------------

#: `python -m repro load` at half its shipped pool: the same 20 req/s
#: per client over 8 load-generator machines, for 0.1 virtual seconds.
LOAD_CLIENTS = 500
LOAD_MACHINES = 8
LOAD_RPS_PER_CLIENT = 20.0
LOAD_VIRTUAL_S = 0.1
LOAD_CELLS = (("native", 0), ("varan-f2", 2))


def _prepare_load_fleet(seed: int, scale: float):
    clients = max(8, int(round(LOAD_CLIENTS * scale)))
    rate_rps = LOAD_RPS_PER_CLIENT * clients
    offered = int(rate_rps * LOAD_VIRTUAL_S)

    def run_pass(spans) -> PassResult:
        blocks = []
        failed = 0
        for label, followers in LOAD_CELLS:
            options = (
                ("clients", clients), ("curves", ("offered",)),
                ("duration_s", LOAD_VIRTUAL_S), ("followers", followers),
                ("machines", LOAD_MACHINES),
                ("offered_multipliers", (1.0,)), ("rate_rps", rate_rps),
                ("seed", seed))
            with spans.span(f"cell:{label}"):
                result = run_experiment(
                    "loadcurve", ExperimentConfig(options=options))
            row = result.rows[0]
            failed += row["errors"] + row["timeouts"]
            if row["achieved_rps"] < 0.5 * rate_rps:
                failed += offered  # the cell collapsed: nothing completed
            blocks.append(result.render())
        attempted = offered * len(LOAD_CELLS)
        return PassResult(ops=attempted, attempted=attempted,
                          failed=min(failed, attempted),
                          text="\n".join(blocks))

    return run_pass


# -- sweep_rest --------------------------------------------------------------

#: Whole experiments of the reference sweep (a scaled-down pass keeps a
#: prefix).  Left out: figure5 (94 % of sweep wall time, and
#: c10k_local's shape), figure6 and table2 (closed-loop server/client
#: cells again, 3.8 s together), loadcurve (load_fleet) and
#: fuzz-summary (chaos_fuzz).
SWEEP_EXPERIMENTS = (
    "distributed", "failover-5.1", "multirevision-5.2", "figure4",
    "table1", "recordreplay-5.4", "figure7", "figure8",
    "sanitization-5.3", "ablations",
)


def _reference_blocks() -> Dict[str, str]:
    """``benchmarks/reference_sweep.txt`` split into experiment blocks."""
    blocks: Dict[str, list] = {}
    current = None
    with open(reference_path()) as fh:
        for line in fh.read().splitlines():
            if line.startswith("== "):
                current = blocks.setdefault(
                    line[3:].split(":", 1)[0], [])
            if not line.strip():
                current = None
            if current is not None:
                current.append(line)
    return {eid: "\n".join(lines) for eid, lines in blocks.items()}


def _prepare_sweep_rest(seed: int, scale: float):
    keep = max(1, int(round(len(SWEEP_EXPERIMENTS) * scale)))
    experiments = SWEEP_EXPERIMENTS[:keep]
    points = sweep_points(scale=REFERENCE_SCALE, experiments=experiments)
    # Points share nothing, so the seed may pick the order they run in;
    # fragments are merged back in canonical order.
    order = list(range(len(points)))
    random.Random(seed).shuffle(order)
    reference = _reference_blocks()

    def run_pass(spans) -> PassResult:
        fragments = [None] * len(points)
        raised = set()
        for index in order:
            eid, part, _kwargs = points[index]
            with spans.span(f"point:{eid}/{part or 'all'}"):
                try:
                    fragments[index] = run_point(points[index])
                except Exception as exc:  # a failed point is an outcome
                    raised.add(eid)
                    print(f"sweep_rest: {eid}/{part}: {exc!r}",
                          file=sys.stderr)
        done = [(p, f) for p, f in zip(points, fragments) if f is not None]
        results = merge_results([p for p, _f in done],
                                [f for _p, f in done])
        rendered = {result.experiment_id: result.render()
                    for result in results}
        bad = set(raised)
        for eid in experiments:
            if eid in raised:
                continue
            if compare_reports(rendered[eid], reference.get(eid, "")):
                bad.add(eid)
        failed = sum(1 for eid, _part, _kwargs in points if eid in bad)
        return PassResult(
            ops=len(points), attempted=len(points), failed=failed,
            text="\n\n".join(rendered[eid] for eid in experiments
                             if eid in rendered))

    return run_pass


# -- guest_isa ---------------------------------------------------------------

ISA_VARIANTS = 3
#: Hot phase: outer iterations of a 2000-iteration, 12-instruction loop
#: (the fused self-loop path), one getuid per outer iteration.
ISA_HOT_OUTER = 60
ISA_HOT_INNER = 2000
#: Cold phase: distinct short blocks, each run ISA_COLD_ROUNDS times —
#: fewer than the fuse threshold, so the translate/chain path does it.
ISA_COLD_BLOCKS = 4000
ISA_COLD_ROUNDS = 3
_TEXT = 0x10000
_DATA = 0x2000_0000
_STACK_TOP = 0x7FF0_4000
_MASK = (1 << 64) - 1
_GETUID_NR = 102


def _hot_program(rng: random.Random, outer: int):
    """Source and a Python model of the hot loop; the model returns the
    value the guest must leave in rax, given the uid getuid returns."""
    start = rng.randrange(1, 1 << 20)
    step = rng.randrange(1, 1 << 20)
    bump = rng.randrange(1, 1 << 12)
    source = f"""
        movi rbx, {outer}
        movi rcx, {_DATA}
        movi rdx, {start}
        movi rsi, {step}
        movi r13, 0
    outer:
        movi r12, {ISA_HOT_INNER}
    inner:
        add rdx, rsi
        store [rcx+0], rdx
        load rax, [rcx+0]
        add rax, rdx
        push rax
        pop rdi
        addi rdx, {bump}
        add r13, rdi
        cmp rdx, rsi
        nop
        subi r12, 1
        jnz inner
        movi rax, {_GETUID_NR}
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
    rdx, acc = start, 0
    for _ in range(outer * ISA_HOT_INNER):
        rdx = (rdx + step) & _MASK
        acc = (acc + rdx + rdx) & _MASK
        rdx = (rdx + bump) & _MASK
    return source, lambda uid: (acc + outer * uid) & _MASK


def _cold_program(rng: random.Random, blocks: int):
    """Blocks laid out in index order and executed in a seeded order,
    each ending in a conditional branch so no two merge into one
    superblock."""
    order = list(range(blocks))
    rng.shuffle(order)
    consts = [rng.randrange(1, 1 << 16) for _ in range(blocks)]
    successor = {a: f"b{b}" for a, b in zip(order, order[1:])}
    lines = [f"movi rbx, {ISA_COLD_ROUNDS}", "movi r13, 1", "movi r15, 0",
             "round:", f"jmp b{order[0]}"]
    for index in range(blocks):
        lines += [f"b{index}:", f"addi r13, {consts[index]}",
                  "add r15, r13", "cmpi r13, 0",
                  f"jnz {successor.get(index, 'endround')}", "hlt"]
    lines += ["endround:", "subi rbx, 1", "jnz round", "mov rax, r15",
              "hlt"]
    r13, r15 = 1, 0
    for _ in range(ISA_COLD_ROUNDS):
        for index in order:
            r13 = (r13 + consts[index]) & _MASK
            r15 = (r15 + r13) & _MASK
    return "\n".join(lines), lambda uid: r15


def _guest_main(code: bytes, retired: list):
    """A variant's main: map + rewrite ``code`` and run it, with vmcall
    and int0 bridged to the task's syscall gate."""
    def main(ctx):
        task = ctx.task
        space = AddressSpace()
        rewriter = BinaryRewriter(space, auto=False)
        rewriter.install_entry_point()
        text = space.map(Segment(_TEXT, code, perms="rx", name="text"))
        space.map(Segment(_DATA, bytes(0x1000), perms="rw", name="data"))
        space.map(Segment(_STACK_TOP - 0x4000, bytes(0x4000), perms="rw",
                          name="stack"))
        rewriter.rewrite_segment(text)
        cpu = Cpu(space, entry=_TEXT, stack_top=_STACK_TOP)

        def dispatch(cpu_, site):
            call = Syscall(SYSCALL_NAMES.get(cpu_.get("rax")),
                           site=f"isa_{site.site_id}")
            result = yield from task.gate.dispatch(call)
            return result.retval

        cpu.vmcall_handler = make_vmcall_handler(rewriter.patchset,
                                                 dispatch)
        cpu.int0_handler = make_int0_handler(rewriter.patchset, dispatch,
                                             DEFAULT_COSTS)
        value = yield from cpu.run(max_insns=1 << 40)
        retired.append(cpu.insns_retired)
        return value, task.uid
    return main


def _prepare_guest_isa(seed: int, scale: float):
    rng = random.Random(seed)
    outer = max(1, int(round(ISA_HOT_OUTER * scale)))
    blocks = max(50, int(round(ISA_COLD_BLOCKS * scale)))
    phases = []
    for name, (source, model) in (
            ("hot", _hot_program(rng, outer)),
            ("cold", _cold_program(rng, blocks))):
        phases.append((name, assemble(source, origin=_TEXT), model))

    def run_pass(spans) -> PassResult:
        insns = 0
        failed = 0
        lines = []
        for name, code, model in phases:
            retired: list = []
            with spans.span(f"phase:{name}"):
                world = World()
                main = _guest_main(code, retired)
                session = NvxSession(world, [
                    VersionSpec(f"v{i}", main)
                    for i in range(ISA_VARIANTS)]).start()
                world.run()
            insns += sum(retired)
            results = [variant.root_task.threads[0].result
                       for variant in session.variants]
            for index, result in enumerate(results):
                # (value, uid): equal to the leader's, and the value the
                # Python model computes.
                ok = (result is not None and result == results[0]
                      and result[0] == model(result[1]))
                failed += 0 if ok else 1
                lines.append(f"{name} v{index} {result}")
        return PassResult(
            ops=insns, attempted=ISA_VARIANTS * len(phases), failed=failed,
            text="\n".join(lines), counts={"isa.insns_retired": insns})

    return run_pass


# -- chaos_fuzz --------------------------------------------------------------

#: The chaos campaign is fixed and the seed picks only the order its
#: plans run in (they share nothing, like sweep points): plan cost
#: varies +-33 % from plan to plan, so a seed-drawn campaign of this
#: size moves a pass by 5 % from seed to seed — more than `wall_s` is
#: meant to resolve.  The fuzz part is drawn from the seed.
CHAOS_CAMPAIGN = 7
CHAOS_PLANS = 200
#: The fuzzer's four-scenario frontier: one scenario per region of its
#: space (follower-extra, leader-extra, byzantine server, faulted).
#: Past the frontier the stream draws a server scenario with
#: probability 1/4 at 5-10x the cost of a workload scenario, so a
#: longer campaign's wall time swings +-45 % from seed to seed.
FUZZ_BUDGET = 4


def _prepare_chaos_fuzz(seed: int, scale: float):
    plans = max(2, int(round(CHAOS_PLANS * scale)))
    budget = max(1, int(round(FUZZ_BUDGET * min(1.0, scale))))
    order = list(range(plans))
    random.Random(seed).shuffle(order)

    def run_pass(spans) -> PassResult:
        journal = [None] * plans
        with spans.span("phase:chaos"):
            for index in order:
                lines, _mismatches, _violations = run_plan(
                    CHAOS_CAMPAIGN, index, "local")
                journal[index] = "\n".join(lines)
        with spans.span("phase:fuzz"):
            report = run_fuzz(seed, budget=budget, synthesis=True)
        journal = "\n".join(journal) + "\n"
        # A plan the campaign judges FAIL, or a mismatch the fuzzer
        # journals, is the tool's finding about the simulated system
        # (it shows in the digest and in `chaos.plans_failing`), not a
        # failed operation of the campaign.  What must never happen is
        # a fault-free baseline that already disagrees with itself.
        failed = (journal.count("baseline MISMATCH")
                  + journal.count("baseline DEADLOCK"))
        counts = report.journal.counts()
        scenarios = plans + budget
        return PassResult(
            ops=scenarios, attempted=scenarios,
            failed=min(failed, scenarios),
            text=journal + report.render(),
            counts={"chaos.plans_failing":
                    journal.count("  result: FAIL"),
                    "fuzz.findings_unabsorbed":
                    counts["mismatch"] + counts["violation"]
                    + counts["deadlock"]})

    return run_pass


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "c10k_local",
        "closed loop, few long sessions: lighttpd + wrk native and under "
        "Varan with 0/2/6 local followers; sim, kernel syscall path, "
        "monitor and ring do the work, epoll list is 10 fds, ISA ~ 0",
        "HTTP requests", _prepare_c10k_local,
        ("sim.events", "kernel.syscalls", "kernel.epoll.scans",
         "kernel.epoll.polled_fds", "core.ringbuffer.published",
         "core.ringbuffer.consumed", "faults.invariant_checks",
         "rewriter.sites_patched", "sessions.started")),
    Workload(
        "load_fleet",
        "open loop, `python -m repro load` shape: redis, 500 Poisson "
        "clients on 8 machines, native and Varan f2; kernel.epoll/net and "
        "the engine at 500+ processes dominate, monitor/ring are minor",
        "requests offered", _prepare_load_fleet,
        ("sim.events", "kernel.syscalls", "kernel.epoll.scans",
         "kernel.epoll.polled_fds", "core.ringbuffer.published",
         "sessions.started")),
    Workload(
        "sweep_rest",
        "many short heterogeneous sessions: 32 reference-sweep points "
        "checked against reference_sweep.txt; only workload reaching nvx, "
        "sanitizers, bpf, recordreplay, netring; session set-up cost shows",
        "sweep points", _prepare_sweep_rest,
        ("sim.events", "kernel.syscalls", "core.ringbuffer.published",
         "core.netring.frames", "core.netring.bytes", "core.netring.acks",
         "recordreplay.events_encoded", "sessions.started")),
    Workload(
        "guest_isa",
        "rewritten VX86 machine code under NvxSession (leader + 2): a hot "
        "fused loop and a cold phase of 4000 distinct blocks; the only "
        "workload where isa and rewriter are the cost",
        "guest instructions", _prepare_guest_isa,
        ("sim.events", "kernel.syscalls", "isa.insns_retired",
         "isa.tcache.hits", "isa.tcache.misses",
         "isa.tcache.blocks_translated", "isa.tcache.fused_blocks",
         "isa.tcache.chain_follows", "rewriter.sites_patched",
         "sessions.started")),
    Workload(
        "chaos_fuzz",
        "campaigns of tiny baseline+faulted session pairs: 200 chaos "
        "plans + the fuzzer's 4-scenario frontier with rule synthesis; "
        "faults, fuzz, bpf, host random and session construction dominate",
        "scenarios", _prepare_chaos_fuzz,
        ("sim.events", "kernel.syscalls", "faults.invariant_checks",
         "faults.injected", "fuzz.rules_synthesized", "sessions.started")),
)}
