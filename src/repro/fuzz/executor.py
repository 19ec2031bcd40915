"""Scenario execution under the always-on invariant checker.

Both scenario kinds follow the chaos plane's baseline-diff discipline
(:mod:`repro.faults.chaos`): every scenario first runs a clean baseline
that defines the expected observable outputs, then the scenario proper
— divergence profiles, fault plans, byzantine clients — and everything
the run *changed* relative to that baseline becomes a ``(kind, detail)``
record for the journal.

Records derive only from sim state and seeds (variant names, syscall
names, digests), never from wall clock or object identity, so a
scenario replays to the identical record list — which is both what
makes the journal byte-identical per seed and what lets rule synthesis
re-run a scenario to prove a divergence was absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.apps import ServerStats, make_redis
from repro.apps.redis import REVISIONS
from repro.clients.adversaries import make_adversaries
from repro.clients.base import connect_with_retry, recv_until
from repro.clients.loadgen import spawn_pool
from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.costmodel import SEC_PS
from repro.errors import DeadlockError, StallError
from repro.faults.chaos import (
    DATA_SIZE,
    HORIZON_FACTOR,
    WORKLOADS,
    draw_bytes,
    run_workload,
)
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.fuzz.generator import WORKLOAD_NAMES, Scenario
from repro.kernel.uapi import SysError
from repro.world import World

__all__ = ["ScenarioResult", "run_scenario"]

#: Sim-time horizon of a server scenario (adversaries run this long).
SERVER_HORIZON_PS = SEC_PS

#: The benign probe a server scenario measures: a deterministic request
#: script whose response bytes must match a clean native server's.
PROBE_SCRIPT = (b"SET fz:key v1\r\n", b"GET fz:key\r\n", b"PING\r\n",
                b"HSET fz:h f1 x\r\n", b"HMGET fz:h f1\r\n",
                b"GET fz:key\r\n")


@dataclass
class ScenarioResult:
    """Everything a scenario run observed, reduced for the journal."""

    scenario: Scenario
    #: Journal fodder: ordered (kind, detail) pairs.
    records: List[Tuple[str, str]] = field(default_factory=list)
    #: Raw fatal divergences, for rule synthesis:
    #: (variant_name, follower_call, leader_event).
    fatal_divergences: List[Tuple[str, str, str]] = field(
        default_factory=list)
    mismatches: int = 0
    violations: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing fatal, wrong or contract-breaking happened
        — the criterion rule synthesis uses for "absorbed"."""
        return (not self.fatal_divergences and not self.mismatches
                and not self.violations)


def run_scenario(scenario: Scenario, rules=None) -> ScenarioResult:
    """Run one scenario (baseline + scenario proper); deterministic in
    ``(scenario, rules)``.  ``rules`` installs a
    :class:`repro.bpf.RewriteRules` for the scenario run — the
    rule-synthesis re-run path."""
    if scenario.kind == "workload":
        return _run_workload_scenario(scenario, rules)
    return _run_server_scenario(scenario, rules)


# -- workload scenarios -------------------------------------------------------

def _wrap_divergence(build, profile: str):
    """Fold the divergence profile into a workload build: the chosen
    side issues one extra benign ``getuid`` before the real program.
    The retval is never digested, so outputs stay baseline-comparable
    whether the call is killed, allowed or skipped."""
    if profile == "none":
        return build

    def build_wrapped(outputs: Dict):
        inner = build(outputs)

        def main(ctx):
            vid = ctx.task.monitor_state.variant.vid
            if profile == "follower-extra" and vid != 0:
                yield from ctx.getuid()
            elif profile == "leader-extra" and vid == 0:
                yield from ctx.getuid()
            return (yield from inner(ctx))
        return main
    return build_wrapped


def _run_workload_scenario(scenario: Scenario, rules) -> ScenarioResult:
    result = ScenarioResult(scenario)
    name = WORKLOAD_NAMES[scenario.workload]
    rng = random.Random(scenario.sub_seed)
    data = draw_bytes(rng, DATA_SIZE)
    # Parameters are drawn ONCE so baseline and scenario run the
    # identical program (the chaos discipline).
    _wl_name, build = WORKLOADS[scenario.workload](rng)

    base_checker = InvariantChecker(roundtrip_every=1)
    _session, base_world, base_outputs, base_dead = run_workload(
        build, data, scenario.n_variants, None, base_checker)
    horizon = max(2, base_world.sim.now)
    reference = {tag: digest
                 for (vid, tag), digest in sorted(base_outputs.items())
                 if vid == 0}
    if base_dead is not None:
        result.records.append(("deadlock", f"{name}: baseline: "
                               f"{base_dead}"))
        result.mismatches += 1

    plan = (FaultPlan.random(rng, scenario.n_variants, horizon)
            if scenario.fault else None)
    run_build = _wrap_divergence(build, scenario.divergence)
    checker = InvariantChecker(roundtrip_every=1)
    session, _world, outputs, failure = run_workload(
        run_build, data, scenario.n_variants, plan, checker, rules=rules,
        until_ps=HORIZON_FACTOR * horizon)

    for variant_name, call_name, event_name in \
            session.stats.fatal_divergences:
        result.fatal_divergences.append((variant_name, call_name,
                                         event_name))
        result.records.append(
            ("divergence", f"{name}: follower call {call_name} vs "
             f"leader event {event_name}"))
    for _variant, reason, _ps in session.stats.crashes:
        result.records.append(("crash", f"{name}: {reason}"))
    for _variant, message, _ps in session.stats.ring_faults:
        result.records.append(("ring-fault", f"{name}: {message}"))
    if failure is not None:
        # A stall keeps the deadlock kind, so the journal footer's
        # fixed set of classes does not grow.
        stall = "stall: " if isinstance(failure, StallError) else ""
        result.records.append(("deadlock", f"{stall}{name}: {failure}"))
        result.mismatches += 1

    survivors = [v for v in session.variants if v.alive]
    for variant in survivors:
        for tag, expected in reference.items():
            got = outputs.get((variant.vid, tag))
            if got != expected:
                result.mismatches += 1
                result.records.append(
                    ("mismatch", f"{name}/v{variant.vid}/{tag}: "
                     f"{got} != {expected}"))
    for message in base_checker.violations + checker.violations:
        result.violations += 1
        result.records.append(("violation", f"{name}: {message}"))
    return result


# -- server scenarios ---------------------------------------------------------

def _probe_main(responses: List[bytes], port: int):
    """The benign probe: run the fixed script, retrying each request
    until a response arrives (a failover closes the connection; the
    re-sent request must still produce the native answer)."""

    def main(ctx):
        try:
            fd = yield from connect_with_retry(ctx, ("server", port))
        except SysError:
            return 0
        for line in PROBE_SCRIPT:
            got = b""
            for _attempt in range(8):
                try:
                    yield from ctx.send(fd, line)
                    got = yield from recv_until(ctx, fd, b"\r\n")
                except SysError:
                    got = b""
                if got:
                    break
                yield from ctx.close(fd)
                try:
                    fd = yield from connect_with_retry(
                        ctx, ("server", port), attempts=50)
                except SysError:
                    return len(responses)
            responses.append(got)
        yield from ctx.close(fd)
        return len(responses)
    return main


def _run_server(revisions: Tuple[str, ...], adversary_mix,
                sub_seed: int, checker: InvariantChecker, rules,
                port: int = 6379):
    world = World()
    specs = [VersionSpec(f"redis-{rev}-{i}",
                         make_redis(port=port, stats=ServerStats(),
                                    revision=rev,
                                    background_thread=False))
             for i, rev in enumerate(revisions)]
    config = SessionConfig(daemon=True, invariants=checker, rules=rules)
    session = NvxSession(world, specs, config=config).start()
    responses: List[bytes] = []
    world.kernel.spawn_task(world.client, _probe_main(responses, port),
                            name="probe")
    stats = None
    try:
        if adversary_mix:
            placements, stats = make_adversaries(
                mix=adversary_mix, seed=sub_seed, port=port,
                duration_ps=SERVER_HORIZON_PS)
            spawn_pool(world, placements)
            world.run(until_ps=SERVER_HORIZON_PS + SEC_PS // 2)
        else:
            world.run()
    except DeadlockError:
        # An adversary parked on a recv the server will never answer
        # (e.g. flood sent garbage and is waiting to drain) is the
        # *point* of byzantine traffic, not a finding; the probe's
        # response check is the health signal for server scenarios.
        pass
    checker.final_check()
    return session, responses, stats


def _run_server_scenario(scenario: Scenario, rules) -> ScenarioResult:
    result = ScenarioResult(scenario)
    mix = ",".join(scenario.adversaries)
    label = f"redis@{scenario.revision} mix={mix}"

    # Baseline: a clean single-variant group (effectively native), no
    # adversaries — the probe's native response bytes.
    base_checker = InvariantChecker(roundtrip_every=1)
    _s, base_responses, _none = _run_server(
        (REVISIONS[0],), (), scenario.sub_seed, base_checker, None)

    # Scenario: the chosen leader revision with good-revision followers,
    # under the byzantine mix.  The probe must still see native bytes.
    revisions = (scenario.revision,) + (REVISIONS[0],) * scenario.followers
    checker = InvariantChecker(roundtrip_every=1)
    session, responses, _stats = _run_server(
        revisions, scenario.adversaries, scenario.sub_seed, checker,
        rules)

    for _variant, reason, _ps in session.stats.crashes:
        result.records.append(("crash", f"{label}: {reason}"))
    if session.stats.promotions:
        result.records.append(
            ("promotion", f"{label}: leader failover kept the service "
             f"answering the benign probe"))
    for variant_name, call_name, event_name in \
            session.stats.fatal_divergences:
        result.fatal_divergences.append((variant_name, call_name,
                                         event_name))
        result.records.append(
            ("divergence", f"{label}: follower call {call_name} vs "
             f"leader event {event_name}"))
    for _variant, message, _ps in session.stats.ring_faults:
        result.records.append(("ring-fault", f"{label}: {message}"))
    if responses != base_responses:
        result.mismatches += 1
        result.records.append(
            ("mismatch", f"{label}: probe answers diverged from the "
             f"native baseline ({len(responses)}/{len(base_responses)} "
             f"responses)"))
    for message in base_checker.violations + checker.violations:
        result.violations += 1
        result.records.append(("violation", f"{label}: {message}"))
    return result
