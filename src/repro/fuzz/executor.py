"""Scenario execution under the always-on invariant checker.

Both scenario kinds follow the chaos plane's baseline-diff discipline:
every scenario first runs a clean baseline that defines the expected
observable outputs, then the scenario proper — divergence profiles,
fault plans, byzantine clients — and everything the run *changed*
relative to that baseline becomes a ``(kind, detail)`` record for the
journal.  Workload scenarios run through the chaos plans' own loop,
:func:`repro.faults.chaos.run_case`; server scenarios run a Redis group
against a native baseline here.

Records derive only from sim state and seeds (variant names, syscall
names, digests), never from wall clock or object identity, so a
scenario replays to the identical record list — which is both what
makes the journal byte-identical per seed and what lets rule synthesis
re-run a scenario to prove a divergence was absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.apps import ServerStats, make_redis
from repro.apps.redis import REVISIONS
from repro.clients.adversaries import make_adversaries
from repro.clients.base import connect_with_retry, recv_until
from repro.clients.loadgen import spawn_pool
from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.costmodel import SEC_PS
from repro.errors import DeadlockError, StallError
from repro.faults.chaos import DATA_SIZE, WORKLOADS, draw_bytes, run_case
from repro.faults.invariants import InvariantChecker
from repro.fuzz.generator import Scenario
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
    if scenario.kind == "server":
        return _run_server_scenario(scenario, rules)
    result = ScenarioResult(scenario)
    name, draw = WORKLOADS[scenario.workload]
    rng = random.Random(scenario.sub_seed)
    data = draw_bytes(rng, DATA_SIZE)
    case = run_case(rng, data, draw(rng), scenario.n_variants,
                    fault=scenario.fault, divergence=scenario.divergence,
                    rules=rules)
    if case.base_failure is not None:
        result.records.append(("deadlock", f"{name}: baseline: "
                               f"{case.base_failure}"))
        result.mismatches += 1
    findings = []
    if case.failure is not None:
        # A stall keeps the deadlock kind, so the journal footer's
        # fixed set of classes does not grow.
        stall = "stall: " if isinstance(case.failure, StallError) else ""
        findings.append(("deadlock", f"{stall}{name}: {case.failure}"))
    findings.extend(("mismatch", f"{name}/v{vid}/{tag}: {got} != "
                     f"{expected}")
                    for vid, tag, got, expected in case.mismatches)
    _record_run(result, name, case.session,
                ("divergence", "crash", "ring-fault"), findings,
                case.violations)
    return result


def _record_run(result: ScenarioResult, label: str, session,
                order: Tuple[str, ...], findings: List[Tuple[str, str]],
                violations: List[str]) -> None:
    """Append a scenario run's records: what the session's stats saw,
    by kind in ``order``; then ``findings``, each one mismatch; then
    the invariant ``violations``.  The journal keeps discovery order,
    so each scenario kind passes the ``order`` its journals pin."""
    stats = session.stats
    seen = {
        "divergence": [f"{label}: follower call {call_name} vs leader "
                       f"event {event_name}"
                       for _v, call_name, event_name
                       in stats.fatal_divergences],
        "crash": [f"{label}: {reason}"
                  for _v, reason, _ps in stats.crashes],
        "promotion": [f"{label}: leader failover kept the service "
                      f"answering the benign probe"]
        if stats.promotions else [],
        "ring-fault": [f"{label}: {message}"
                       for _v, message, _ps in stats.ring_faults],
    }
    result.fatal_divergences.extend(stats.fatal_divergences)
    for kind in order:
        result.records.extend((kind, detail) for detail in seen[kind])
    result.records.extend(findings)
    result.mismatches += len(findings)
    result.records.extend(("violation", f"{label}: {message}")
                          for message in violations)
    result.violations += len(violations)


# -- server scenarios ---------------------------------------------------------

def _probe_main(responses: List[bytes]):
    """The benign probe: run the fixed script, retrying each request
    until a response arrives (a failover closes the connection; the
    re-sent request must still produce the native answer)."""

    def main(ctx):
        try:
            fd = yield from connect_with_retry(ctx, ("server", 6379))
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
                        ctx, ("server", 6379), attempts=50)
                except SysError:
                    return len(responses)
            responses.append(got)
        yield from ctx.close(fd)
        return len(responses)
    return main


def _run_server(revisions: Tuple[str, ...], adversary_mix,
                sub_seed: int, checker: InvariantChecker, rules):
    world = World()
    specs = [VersionSpec(f"redis-{rev}-{i}",
                         make_redis(stats=ServerStats(),
                                    revision=rev,
                                    background_thread=False))
             for i, rev in enumerate(revisions)]
    config = SessionConfig(daemon=True, invariants=checker, rules=rules)
    session = NvxSession(world, specs, config=config).start()
    responses: List[bytes] = []
    world.kernel.spawn_task(world.client, _probe_main(responses),
                            name="probe")
    try:
        if adversary_mix:
            placements = make_adversaries(
                mix=adversary_mix, seed=sub_seed,
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
    return session, responses


def _run_server_scenario(scenario: Scenario, rules) -> ScenarioResult:
    result = ScenarioResult(scenario)
    mix = ",".join(scenario.adversaries)
    label = f"redis@{scenario.revision} mix={mix}"

    # Baseline: a clean single-variant group (effectively native), no
    # adversaries — the probe's native response bytes.
    base_checker = InvariantChecker(roundtrip_every=1)
    _session, base_responses = _run_server(
        (REVISIONS[0],), (), scenario.sub_seed, base_checker, None)

    # Scenario: the chosen leader revision with good-revision followers,
    # under the byzantine mix.  The probe must still see native bytes.
    revisions = (scenario.revision,) + (REVISIONS[0],) * scenario.followers
    checker = InvariantChecker(roundtrip_every=1)
    session, responses = _run_server(
        revisions, scenario.adversaries, scenario.sub_seed, checker,
        rules)

    findings = []
    if responses != base_responses:
        findings.append(
            ("mismatch", f"{label}: probe answers diverged from the "
             f"native baseline ({len(responses)}/{len(base_responses)} "
             f"responses)"))
    _record_run(result, label, session,
                ("crash", "promotion", "divergence", "ring-fault"),
                findings, base_checker.violations + checker.violations)
    return result
