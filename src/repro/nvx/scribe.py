"""Scribe-style in-kernel record-replay baseline (§5.4, [27]).

Scribe records application execution from inside the kernel: there are
no monitor context switches, but every syscall pays serialisation into
the kernel log plus a per-byte copy, and the log is flushed to storage.
Used as the comparison point for Varan's record-replay clients.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import (
    SessionConfig,
    resolve_placement,
    resolve_session_config,
)
from repro.costmodel import CostModel, cycles
from repro.errors import NvxError
from repro.kernel.uapi import Syscall
from repro.obs import metrics as obs_metrics
from repro.sim.core import Compute


class ScribeSession:
    """Run versions with Scribe-style kernel recording enabled."""

    def __init__(self, world, specs: List,
                 config: Optional[SessionConfig] = None) -> None:
        if not specs:
            raise NvxError("scribe session needs at least one version")
        cfg = resolve_session_config("ScribeSession", config)
        self.world = world
        self.costs: CostModel = world.costs
        self.machine = cfg.machine or world.server
        self.daemon = cfg.daemon
        self.specs = specs
        #: Per-version machine (``placement=``): Scribe records inside
        #: each machine's kernel, so distribution adds no stop cost.
        self.placement = resolve_placement(cfg.placement, specs, world,
                                           self.machine)
        self.tasks: List = []
        self.events_recorded = 0
        self.bytes_recorded = 0
        self.ready = False
        obs_metrics.register(self)

    def start(self) -> "ScribeSession":
        for index, spec in enumerate(self.specs):
            task = self.world.kernel.spawn_task(
                self.placement[index], spec.main,
                name=f"scribe{index}:{spec.name}", daemon=self.daemon)
            self.tasks.append(task)
            self._install(task)
        self.ready = True
        return self

    def _install(self, task) -> None:
        session = self

        def recording_dispatch(inner_task, call: Syscall):
            result = yield from inner_task.kernel.native(inner_task, call)
            nbytes = max(call.nbytes, len(call.data), len(result.data))
            session.events_recorded += 1
            session.bytes_recorded += nbytes
            yield Compute(cycles(
                session.costs.scribe.per_event
                + session.costs.scribe.per_byte * nbytes))
            return result

        task.gate.intercepting = True
        task.gate.table = {}
        task.gate.default_handler = recording_dispatch
        # Scribe logs inside the kernel: no rewritten call sites.
        task.gate.charge_no_interception()

    # -- observability ------------------------------------------------------

    def metrics_snapshot(self) -> Dict:
        reg = obs_metrics.MetricsRegistry()
        reg.inc("scribe.events_recorded", self.events_recorded)
        reg.inc("scribe.bytes_recorded", self.bytes_recorded)
        return reg.snapshot()
