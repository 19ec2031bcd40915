"""Shared experiment harness: run a (server, client) pair under a chosen
monitor and report client-side throughput, as the paper does."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.clients.base import ClientReport
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.costmodel import SEC_PS
from repro.nvx.lockstep import MonitorProfile
from repro.world import World

#: Monitor selector values accepted by :func:`run_server_benchmark`.
MONITOR_NATIVE = "native"
MONITOR_VARAN = "varan"
MONITOR_SCRIBE = "scribe"


@dataclass
class BenchmarkRun:
    """Outcome of one server/client configuration."""

    monitor: str
    versions: int
    report: ClientReport
    session: object = None
    world: object = None

    @property
    def throughput(self) -> float:
        return self.report.throughput_rps

    @property
    def latency_us(self) -> float:
        return self.report.latency_avg_us()


def run_server_benchmark(server_factory: Callable[[], Callable],
                         client_factory: Callable[[], tuple],
                         monitor: str = MONITOR_NATIVE,
                         followers: int = 0,
                         image_factory: Optional[Callable] = None,
                         lockstep_profile: Optional[MonitorProfile] = None,
                         server_files: Optional[Dict[str, bytes]] = None,
                         ring_capacity: int = 256) -> BenchmarkRun:
    """Run one configuration to completion and return the measurements.

    ``server_factory()`` must return a fresh server main per call (one
    per version); ``client_factory()`` returns ``(mains, report)``.
    """
    world = World()
    if server_files:
        fs = world.kernel.fs(world.server)
        for path, data in server_files.items():
            fs.create(path, data)

    versions = followers + 1
    session = None
    if monitor == MONITOR_NATIVE:
        world.spawn(server_factory(), name="server", daemon=True)
    elif monitor == MONITOR_VARAN:
        specs = [
            VersionSpec(f"v{i}", server_factory(),
                        image=image_factory() if image_factory else None)
            for i in range(versions)
        ]
        session = world.nvx(specs, config=SessionConfig(
            daemon=True, ring_capacity=ring_capacity)).start()
    elif monitor == MONITOR_SCRIBE:
        specs = [VersionSpec(f"v{i}", server_factory())
                 for i in range(versions)]
        session = world.scribe(
            specs, config=SessionConfig(daemon=True)).start()
    elif lockstep_profile is not None:
        specs = [VersionSpec(f"v{i}", server_factory())
                 for i in range(versions)]
        session = world.lockstep(
            specs, config=SessionConfig(daemon=True),
            profile=lockstep_profile).start()
    else:
        raise ValueError(f"unknown monitor {monitor!r}")

    mains, report = client_factory()
    for index, main in enumerate(mains):
        world.kernel.spawn_task(world.client, main,
                                name=f"client{index}")
    world.run(until_ps=30 * SEC_PS)
    return BenchmarkRun(monitor=monitor, versions=versions, report=report,
                        session=session, world=world)


def overhead(native: BenchmarkRun, monitored: BenchmarkRun) -> float:
    """Normalized runtime overhead, as plotted in Figures 5-8:
    native throughput divided by monitored throughput."""
    if monitored.throughput == 0:
        return float("inf")
    return native.throughput / monitored.throughput


@dataclass
class ExperimentResult:
    """Uniform result record for every table/figure reproduction."""

    experiment_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    #: Values the paper reports, keyed like rows, for EXPERIMENTS.md.
    paper_reference: Dict = field(default_factory=dict)
    notes: str = ""
    #: Merged ``repro.obs`` metrics snapshot, populated when a sweep ran
    #: with metrics collection on (``--metrics``); {} otherwise.
    metrics: Dict = field(default_factory=dict)

    def render(self) -> str:
        """Format rows as the kind of table the paper prints."""
        if not self.rows:
            return f"[{self.experiment_id}] {self.title}: no data"
        columns = []
        for row in self.rows:  # union, preserving first-seen order
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in
                                        self.rows)) for c in columns}
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
        for row in self.rows:
            lines.append("  ".join(
                _fmt(row.get(c)).ljust(widths[c]) for c in columns))
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
