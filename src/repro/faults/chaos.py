"""Randomized chaos runs: seeded workloads under seeded fault plans.

``python -m repro chaos --seed N --plans K`` draws K (workload, fault
plan) pairs from one seed and runs each twice:

1. a **baseline** run with no faults, which yields the workload's
   expected outputs and the sim-time horizon faults are drawn from;
2. a **faulted** run of the *same* workload under the plan, with the
   always-on :class:`~repro.faults.invariants.InvariantChecker`
   attached.

The conformance statement checked per plan:

* every surviving variant produced exactly the baseline outputs
  (survivor-output equality — fault tolerance did not change results);
* the invariant checker observed **zero** violations, even in the
  faulted run — injected ring damage must be caught by the ring's own
  integrity machinery (and surface as a diagnostic drop/failover)
  *before* it ever reaches a consumer as data.

Everything — the data file, the workload parameters, the plan, the
journal text — derives from ``random.Random(seed)`` and sim state, so
two runs of the same seed emit byte-identical journals.  Workload
outputs are digests over syscall *data and deterministic return
values*; wall-clock-like values (``time()``, pids) are exercised but
never digested, because a failover legitimately shifts them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.errors import DeadlockError, NvxError, StallError
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.world import World

#: Path and size of the deterministic data file every workload reads.
DATA_PATH = "/chaos/data"
DATA_SIZE = 4096

#: Ring capacity for chaos sessions: small enough that backpressure and
#: pending-slot windows actually occur.
RING_CAPACITY = 16

#: Machines hosting remote followers under ``placement="remote"``; the
#: leader stays on the server and followers round-robin across these.
REMOTE_MACHINES = ("replica1", "replica2")


def _remote_placement(n_variants: int) -> Dict[int, str]:
    """Variant index → machine name for a remote chaos session."""
    return {index: REMOTE_MACHINES[(index - 1) % len(REMOTE_MACHINES)]
            for index in range(1, n_variants)}


def _placement_names(n_variants: int) -> Tuple[str, ...]:
    """The machine hosting each remote-session variant, in order."""
    mapping = _remote_placement(n_variants)
    return tuple(mapping.get(index, "server")
                 for index in range(n_variants))


def _digest(parts) -> str:
    """Order-stable digest of a list of bytes/ints/strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(str(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


#: Byte 1 of a sampled word -> accepted?  Its bit 0 is bit 8 of the
#: 9-bit sample, and ``randrange(256)`` rejects samples >= 256.
_ACCEPTED = bytes(1 - (b & 1) for b in range(256))


def draw_bytes(rng: random.Random, n: int) -> bytes:
    """Exactly ``bytes(rng.randrange(256) for _ in range(n))`` — same
    bytes, same generator state after — without a call per byte.

    ``randrange(256)`` redraws the top 9 bits of one 32-bit generator
    word while they read >= 256; ``getrandbits(32 * need) >> 23``, laid
    out little-endian, holds word *i*'s sample in byte ``4i`` (the
    value) and bit 0 of byte ``4i + 1`` (set = rejected).  A word
    yields at most one byte, so drawing as many words as bytes are
    missing never overshoots.  Not ``Random.randbytes`` (a different
    stream); tests/test_bulk_draw.py is the contract (DESIGN.md §6).
    """
    data = b""
    while len(data) < n:
        need = n - len(data)
        raw = (rng.getrandbits(32 * need) >> 23).to_bytes(4 * need,
                                                          "little")
        data += bytes(compress(raw[0::4], raw[1::4].translate(_ACCEPTED)))
    return data


def _reads(rng: random.Random, n_lo: int = 3, n_hi: int = 8
           ) -> List[Tuple[int, int]]:
    return [(rng.randrange(0, DATA_SIZE - 64), rng.randint(1, 64))
            for _ in range(rng.randint(n_lo, n_hi))]


# -- the workload family ------------------------------------------------------
#
# Each builder draws its parameters from ``rng`` ONCE (so baseline and
# faulted runs execute the identical program) and returns a factory
# producing a fresh ``main`` bound to a per-run ``outputs`` dict keyed
# by ``(vid, tag)``.  ``WORKLOADS`` names them; fuzz scenarios index it.

def _wl_pread_mix(rng: random.Random):
    reads = _reads(rng)

    def build(outputs: Dict):
        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid
            parts = []
            fd = yield from ctx.open(DATA_PATH)
            for off, size in reads:
                parts.append((yield from ctx.pread(fd, size, off)))
            yield from ctx.close(fd)
            outputs[(vid, "main")] = _digest(parts)
            return outputs[(vid, "main")]
        return main
    return build


def _wl_rw_cycle(rng: random.Random):
    from repro.kernel.uapi import O_CREAT, O_WRONLY

    chunks = [bytes([rng.randrange(256)]) * rng.randint(1, 96)
              for _ in range(rng.randint(3, 8))]
    reads = _reads(rng, 2, 4)

    def build(outputs: Dict):
        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid
            parts = []
            out_fd = yield from ctx.open("/chaos/scratch",
                                         O_WRONLY | O_CREAT)
            for chunk in chunks:
                # write retvals are deterministic (len); the file is
                # never read back — a leader crash between execute and
                # publish may legitimately double-write it.
                parts.append((yield from ctx.write(out_fd, chunk)))
            yield from ctx.close(out_fd)
            in_fd = yield from ctx.open(DATA_PATH)
            for off, size in reads:
                parts.append((yield from ctx.pread(in_fd, size, off)))
            yield from ctx.close(in_fd)
            outputs[(vid, "main")] = _digest(parts)
            return outputs[(vid, "main")]
        return main
    return build


def _wl_spin_sleep(rng: random.Random):
    steps = [(rng.randint(500, 5000), rng.randint(1_000, 100_000))
             for _ in range(rng.randint(2, 5))]

    def build(outputs: Dict):
        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid
            parts = []
            for ncycles, sleep_ps in steps:
                yield from ctx.compute(ncycles)
                parts.append((yield from ctx.nanosleep(sleep_ps)))
                # Exercise the time path but exclude the value: a
                # failover shifts wall-clock reads without being wrong.
                yield from ctx.time()
                parts.append((yield from ctx.getuid()))
            outputs[(vid, "main")] = _digest(parts)
            return outputs[(vid, "main")]
        return main
    return build


def _wl_threads(rng: random.Random):
    thread_reads = [_reads(rng, 2, 5) for _ in range(2)]
    main_reads = _reads(rng, 2, 5)

    def build(outputs: Dict):
        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid

            def worker(tix, offs):
                def tmain(tctx):
                    parts = []
                    fd = yield from tctx.open(DATA_PATH)
                    for off, size in offs:
                        parts.append((yield from tctx.pread(fd, size,
                                                            off)))
                    yield from tctx.close(fd)
                    outputs[(vid, f"t{tix}")] = _digest(parts)
                return tmain

            for tix, offs in enumerate(thread_reads):
                yield from ctx.spawn_thread(worker(tix, offs))
            parts = []
            fd = yield from ctx.open(DATA_PATH)
            for off, size in main_reads:
                parts.append((yield from ctx.pread(fd, size, off)))
            yield from ctx.close(fd)
            outputs[(vid, "main")] = _digest(parts)
            return outputs[(vid, "main")]
        return main
    return build


def _wl_fork_child(rng: random.Random):
    child_reads = _reads(rng, 2, 5)
    parent_reads = _reads(rng, 2, 5)

    def build(outputs: Dict):
        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid

            def child(cctx):
                cvid = cctx.task.monitor_state.variant.vid
                parts = []
                fd = yield from cctx.open(DATA_PATH)
                for off, size in child_reads:
                    parts.append((yield from cctx.pread(fd, size, off)))
                yield from cctx.close(fd)
                outputs[(cvid, "child")] = _digest(parts)

            pid = yield from ctx.fork(child)
            parts = []
            fd = yield from ctx.open(DATA_PATH)
            for off, size in parent_reads:
                parts.append((yield from ctx.pread(fd, size, off)))
            yield from ctx.close(fd)
            yield from ctx.wait4(pid)
            outputs[(vid, "main")] = _digest(parts)
            return outputs[(vid, "main")]
        return main
    return build


WORKLOADS: Tuple[Tuple[str, Callable], ...] = (
    ("pread-mix", _wl_pread_mix), ("rw-cycle", _wl_rw_cycle),
    ("spin-sleep", _wl_spin_sleep), ("threads", _wl_threads),
    ("fork-child", _wl_fork_child),
)


# -- one case = baseline run + faulted run ------------------------------------

#: A faulted run is bounded at this many baseline horizons of virtual
#: time; a run still going there has stalled (DESIGN.md §6).  Every
#: faulted run that ends by itself ends before 4 horizons.
HORIZON_FACTOR = 64


def run_workload(build, data: bytes, n_variants: int, plan,
                 checker: InvariantChecker, placement: str = "local",
                 rules=None, horizon=None):
    """One workload run as an NVX session; returns (session, world,
    outputs, failure).

    ``failure`` is None, the run's :class:`DeadlockError`, or — when a
    baseline ``horizon`` bounds the run at ``HORIZON_FACTOR`` of it — a
    :class:`StallError` for started non-daemon processes still live
    there."""
    if placement == "remote":
        world = World(machine_names=("server", "client") + REMOTE_MACHINES)
        placement_map = _remote_placement(n_variants)
        # Each machine hosting a variant needs its own copy of the data
        # file: a promoted remote leader re-executes reads natively
        # against its local filesystem.
        for name in {"server", *placement_map.values()}:
            world.kernel.fs(world.machine(name)).create(DATA_PATH, data)
    else:
        world = World()
        placement_map = None
        world.kernel.fs(world.server).create(DATA_PATH, data)
    outputs: Dict = {}
    main = build(outputs)
    specs = [VersionSpec(f"v{i}", main) for i in range(n_variants)]
    config = SessionConfig(fault_plan=plan, invariants=checker,
                           ring_capacity=RING_CAPACITY,
                           placement=placement_map, rules=rules)
    session = NvxSession(world, specs, config=config).start()
    failure = None
    until_ps = None if horizon is None else HORIZON_FACTOR * max(2, horizon)
    try:
        world.run(until_ps=until_ps)
        live = world.sim.blocked()
        if live:
            names = ", ".join(p.name for p in live[:8])
            raise StallError(
                f"still live at now={world.sim.now}ps, bound {until_ps}ps "
                f"= {HORIZON_FACTOR} x baseline horizon "
                f"{max(2, horizon)}ps: {names}")
    except (DeadlockError, StallError) as exc:
        failure = exc
    checker.final_check()
    return session, world, outputs, failure


def _with_divergence(build, divergence: str):
    """Fold a divergence profile into a workload build: the chosen
    side issues one extra benign ``getuid`` before the real program.
    The retval is never digested, so outputs stay baseline-comparable
    whether the call is killed, allowed or skipped."""
    if divergence == "none":
        return build

    def build_wrapped(outputs: Dict):
        inner = build(outputs)

        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid
            if divergence == "follower-extra" and vid != 0:
                yield from ctx.getuid()
            elif divergence == "leader-extra" and vid == 0:
                yield from ctx.getuid()
            return (yield from inner(ctx))
        return main
    return build_wrapped


@dataclass
class CaseResult:
    """Both runs of one case, for the chaos journal and fuzz records.

    Mismatches are ``(vid, tag, got, expected)`` against ``reference``,
    the baseline leader's digest per output tag."""

    base_checker: InvariantChecker
    base_failure: Optional[Exception]
    #: Virtual time the baseline ended at (the faulted run's yardstick).
    horizon: int
    base_outputs: Dict
    reference: Dict[str, str]
    #: Clean variants must already agree with the leader (NVX correctness).
    base_mismatches: List[Tuple[int, str, Optional[str], str]]
    plan: Optional[FaultPlan]
    session: NvxSession
    failure: Optional[Exception]
    checker: InvariantChecker
    survivors: List
    mismatches: List[Tuple[int, str, Optional[str], str]]

    @property
    def violations(self) -> List[str]:
        return self.base_checker.violations + self.checker.violations


def _diff(outputs: Dict, vids, reference: Dict[str, str]):
    return [(vid, tag, outputs.get((vid, tag)), expected)
            for vid in vids for tag, expected in reference.items()
            if outputs.get((vid, tag)) != expected]


def run_case(rng: random.Random, data: bytes, build, n_variants: int, *,
             fault: bool, divergence: str = "none",
             placement: str = "local", rules=None) -> CaseResult:
    """The baseline → faulted → diff loop of chaos plans and fuzz
    workload scenarios: run ``build`` clean, then under a plan drawn
    from ``rng`` (when ``fault``), ``divergence`` and ``rules``, and
    diff the survivors against the clean leader.  Callers draw
    ``data`` and the parameters in their own journal-pinned order."""
    if placement not in ("local", "remote"):
        raise NvxError(f"placement must be 'local' or 'remote', "
                       f"not {placement!r}")
    base_checker = InvariantChecker(roundtrip_every=1)
    _session, base_world, base_outputs, base_failure = run_workload(
        build, data, n_variants, None, base_checker, placement)
    horizon = base_world.sim.now
    reference = {tag: digest
                 for (vid, tag), digest in sorted(base_outputs.items())
                 if vid == 0}

    plan = None
    if fault and placement == "remote":
        # Whole-machine crashes and partitions need the machine names.
        plan = FaultPlan.random_distributed(
            rng, n_variants, max(2, horizon), _placement_names(n_variants))
    elif fault:
        plan = FaultPlan.random(rng, n_variants, max(2, horizon))
    checker = InvariantChecker(roundtrip_every=1)
    session, _world, outputs, failure = run_workload(
        _with_divergence(build, divergence), data, n_variants, plan,
        checker, placement, rules, horizon)
    survivors = [v for v in session.variants if v.alive]
    return CaseResult(
        base_checker, base_failure, horizon, base_outputs, reference,
        _diff(base_outputs, range(n_variants), reference), plan, session,
        failure, checker, survivors,
        _diff(outputs, [v.vid for v in survivors], reference))


def run_plan(seed: int, index: int, placement: str = "local"
             ) -> Tuple[List[str], int, int]:
    """Run chaos plan ``index`` of ``seed``.

    Returns ``(journal_lines, output_mismatches, invariant_violations)``.
    """
    # int-arithmetic derivation: identical across processes and runs.
    rng = random.Random(seed * 1000003 + index)
    n_variants = rng.randint(2, 3)
    data = draw_bytes(rng, DATA_SIZE)
    name, draw = WORKLOADS[rng.randrange(len(WORKLOADS))]
    case = run_case(rng, data, draw(rng), n_variants, fault=True,
                    placement=placement)

    where = "" if placement == "local" else f" placement={placement}"
    lines = [f"plan {index}: workload={name} variants={n_variants} "
             f"data={_digest([data])}{where}",
             f"  baseline: horizon={case.horizon}ps "
             f"outputs={len(case.base_outputs)} "
             f"({case.base_checker.summary()})"]
    if case.base_failure is not None:
        lines.append(f"  baseline DEADLOCK: {case.base_failure}")
    for vid, tag, got, expected in case.base_mismatches:
        lines.append(f"  baseline MISMATCH: v{vid}/{tag}: {got} != "
                     f"{expected}")
    lines.append(f"  plan: {case.plan.describe()}")
    for entry in case.session.injector.log:
        lines.append(f"  inject: {entry}")
    if case.failure is not None:
        kind = "STALL" if isinstance(case.failure, StallError) else "DEADLOCK"
        lines.append(f"  fault-run {kind}: {case.failure}")

    if not case.survivors:
        lines.append("  survivors: none (cascading faults)")
    else:
        tags = ["{}v{}".format("*" if v.is_leader else "", v.vid)
                for v in case.survivors]
        lines.append(f"  survivors: {' '.join(tags)}")
        for vid, tag, got, expected in case.mismatches:
            lines.append(f"  output MISMATCH: v{vid}/{tag}: "
                         f"{got} != {expected}")
        checked = len(case.survivors) * len(case.reference)
        lines.append(f"  outputs: {checked} survivor outputs checked "
                     f"against baseline")
    lines.append(f"  fault-run {case.checker.summary()}")
    for message in case.violations:
        lines.append(f"  VIOLATION: {message}")
    mismatches = ((case.base_failure is not None) + len(case.base_mismatches)
                  + (case.failure is not None) + len(case.mismatches))
    violations = len(case.violations)
    status = "OK" if not mismatches and not violations else "FAIL"
    lines.append(f"  result: {status}")
    return lines, mismatches, violations


def run_chaos(seed: int, plans: int, placement: str = "local"
              ) -> Tuple[str, int]:
    """Run ``plans`` chaos plans; returns ``(journal_text, failures)``.

    The journal is byte-identical across runs of the same arguments;
    ``failures`` counts output mismatches plus invariant violations.
    ``placement="remote"`` runs every session with followers on remote
    machines over the networked transport, under distributed plans.
    """
    where = "" if placement == "local" else f" placement={placement}"
    lines = [f"# chaos seed={seed} plans={plans}{where}"]
    total_mismatches = 0
    total_violations = 0
    for index in range(plans):
        plan_lines, mismatches, violations = run_plan(seed, index,
                                                      placement)
        lines.extend(plan_lines)
        total_mismatches += mismatches
        total_violations += violations
    lines.append(f"total: {plans} plans, {total_mismatches} output "
                 f"mismatches, {total_violations} invariant violations")
    return "\n".join(lines) + "\n", total_mismatches + total_violations
