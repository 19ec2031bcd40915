"""Names, units and bounds of every metric the benchmark emits.

``BENCHMARK.json`` at the repository root lists exactly these
(``bench/tests`` checks it).  Host time is what the simulator takes to
run; every ``*_s`` metric here is host time.  Virtual-time results show
up only in ``sim_digest`` and ``paper.figure5_err``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.layers import CALL_COUNTS, LAYERS
from bench.probes import PROBES

#: (name, unit, better, bound): the share of the parent's median a
#: metric may worsen by before a change counts as a regression.  The
#: time bounds are as wide as this sandbox's neighbours make them: over
#: ten seeds `wall_s` spreads (IQR / median) 3-5 % in ordinary minutes
#: and 15 % when a burst of host interference covers half the runs.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    # Host seconds for one pass of the workload at its stated size,
    # imports and input generation excluded; a run's fastest pass.
    ("wall_s", "s", "lower", 0.25),
    # Child start -> first timed pass: import repro, generate inputs,
    # one scaled-down warm-up pass; the fastest of a run's
    # SETUP_REPEATS fresh children.
    ("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the measuring child; on sweep_rest it moves 4 % with
    # the seeded order of the points.
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: Rules compare.py applies to the two checks BENCHMARK.json cannot
#: carry: they are exact (or absolute), and zero is their good value.
FAILED_SHARE_BOUND = 0.0
PAPER_ERR_ABS_BOUND = 0.02

#: ``repro.obs`` counter(s), summed -> per-layer count.
OBS_COUNTS: Dict[str, Tuple[str, ...]] = {
    "core.ringbuffer.published": ("ring.published",),
    "core.ringbuffer.consumed": ("ring.consumed",),
    "core.ringbuffer.producer_stalls": ("ring.producer_stalls",),
    "core.ringbuffer.waits": ("ring.waitlock_sleeps", "ring.spin_waits"),
    "core.netring.frames": ("net.frames",),
    "core.netring.bytes": ("net.bytes",),
    "core.netring.acks": ("net.acks",),
    "isa.tcache.hits": ("tcache.hits",),
    "isa.tcache.misses": ("tcache.misses",),
    "isa.tcache.blocks_translated": ("tcache.blocks_translated",),
    "isa.tcache.fused_blocks": ("tcache.fused_blocks",),
    "isa.tcache.chain_follows": ("tcache.chain_follows",),
    "faults.invariant_checks": ("invariant.checks",),
    "fuzz.rules_synthesized": ("fuzz.rules_synthesized",),
}

#: Counts a workload reports about its own pass (PassResult.counts).
WORKLOAD_COUNTS: Dict[str, Tuple[str, str]] = {
    "isa.insns_retired": ("count", "lower"),
    "paper.figure5_err": ("ratio", "lower"),
    "chaos.plans_failing": ("count", "lower"),
    "fuzz.findings_unabsorbed": ("count", "lower"),
}

_DERIVED: Dict[str, Tuple[str, str]] = {
    "sim.host_us_per_event": ("us", "lower"),
    "kernel.epoll.polled_per_scan": ("fds/scan", "lower"),
    "isa.guest_mips": ("Minsn/s", "higher"),
    "host.trace_overhead_x": ("x", "lower"),
    "host.cpu_s": ("s", "lower"),
}

_HIGHER_COUNTS = ("isa.tcache.hits", "isa.tcache.chain_follows",
                  "isa.tcache.fused_blocks")


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    for name in list(CALL_COUNTS) + list(OBS_COUNTS):
        out.append((name, "count",
                    "higher" if name in _HIGHER_COUNTS else "lower"))
    out.extend((name, unit, better)
               for name, (unit, better) in WORKLOAD_COUNTS.items())
    out.extend((name, unit, better)
               for name, (unit, better) in _DERIVED.items())
    out.extend((name, "Minsn/s" if name.endswith("mips") else "1/s",
                "higher") for name in PROBES)
    return out
