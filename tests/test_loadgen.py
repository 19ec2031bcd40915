"""Open-loop load-generation plane: determinism, digests, topology.

The plane's contract is byte-stable measurement: the same topology,
config and seed must produce identical reports run to run, because ``python -m repro load`` output is compared with ``cmp`` in CI
and the loadcurve experiment feeds the reference sweep.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.apps.redis import make_redis
from repro.clients.base import DIGEST_LIMIT, LatencyDigest
from repro.clients.loadgen import (
    DEFAULT_CLASSES,
    OpenLoopConfig,
    _class_of,
    make_open_loop,
    spawn_pool,
)
from repro.clients.topology import LoadTopology
from repro.costmodel import SEC_PS, US_PS
from repro.errors import NvxError
from repro.world import World


# -- LatencyDigest -----------------------------------------------------------

class TestLatencyDigest:
    @given(st.lists(st.integers(min_value=1, max_value=10 ** 9),
                    min_size=1, max_size=200),
           st.sampled_from([0.0, 50.0, 90.0, 99.0, 99.9, 100.0]))
    @settings(max_examples=60, deadline=None)
    def test_exact_while_within_limit(self, values, pct):
        """Below the reservoir limit every sample is retained, so the
        percentile matches the old sort-the-list implementation."""
        digest = LatencyDigest()
        for value in values:
            digest.observe(value)
        ordered = sorted(values)
        index = min(len(values) - 1, int(pct / 100.0 * len(values)))
        assert digest.percentile_ps(pct) == float(ordered[index])
        assert digest.avg_ps() == pytest.approx(sum(values) / len(values))

    @given(st.lists(st.integers(min_value=1, max_value=10 ** 6),
                    min_size=50, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_bounded_beyond_limit(self, values):
        """Past the limit the reservoir stays bounded and percentiles
        stay inside the observed range and monotone in pct."""
        values = values * (DIGEST_LIMIT // len(values) + 2)
        digest = LatencyDigest()
        for value in values:
            digest.observe(value)
        assert len(digest.reservoir) == DIGEST_LIMIT
        assert digest.hist.count == len(values)
        p50 = digest.percentile_ps(50)
        p99 = digest.percentile_ps(99)
        assert 0 <= p50 <= p99
        # Interpolation cannot leave the power-of-two bucket range, so
        # it is bounded by [min/2, 2*max] of the true samples.
        assert p99 <= 2 * max(values)

    def test_deterministic_reservoir(self):
        """The digest-local seeded RNG makes replacement deterministic:
        two identical observation sequences yield identical digests."""
        a, b = LatencyDigest(), LatencyDigest()
        for i in range(DIGEST_LIMIT + 1000):
            value = (i * 2654435761) % 100_000 + 1
            a.observe(value)
            b.observe(value)
        assert a.reservoir == b.reservoir
        assert a.hist.snapshot() == b.hist.snapshot()
        assert a.percentile_ps(99) == b.percentile_ps(99)

    def test_empty(self):
        digest = LatencyDigest()
        assert digest.avg_ps() == 0.0
        assert digest.percentile_ps(99) == 0.0


# -- topology ----------------------------------------------------------------

class TestTopology:
    def test_machine_names_server_first(self):
        topology = LoadTopology(clients=10, machines=3,
                                extra_machines=("replica1",))
        assert topology.machine_names() == (
            "server", "replica1", "lg0", "lg1", "lg2")

    def test_round_robin_placement(self):
        topology = LoadTopology(clients=7, machines=3)
        assert [m for _, m in topology.placements()] == [
            "lg0", "lg1", "lg2", "lg0", "lg1", "lg2", "lg0"]

    def test_validation(self):
        with pytest.raises(NvxError):
            LoadTopology(clients=0)
        with pytest.raises(NvxError):
            LoadTopology(machines=0)


# -- config ------------------------------------------------------------------

class TestConfig:
    def test_validation(self):
        with pytest.raises(NvxError):
            OpenLoopConfig(rate_rps=0)
        with pytest.raises(NvxError):
            OpenLoopConfig(arrivals="bursty")
        with pytest.raises(NvxError):
            OpenLoopConfig(classes=())

    def test_weighted_class_assignment_is_deterministic(self):
        config = OpenLoopConfig()
        expanded = [_class_of(config, i).name
                    for i in range(2 * sum(max(1, c.weight)
                                           for c in DEFAULT_CLASSES))]
        assert expanded == ["ping", "ping", "get", "get", "set"] * 2

    def test_rate_too_high_for_pool(self):
        topology = LoadTopology(clients=1, machines=1)
        config = OpenLoopConfig(rate_rps=2 * SEC_PS)
        with pytest.raises(NvxError):
            make_open_loop(topology, config)



# -- open-loop determinism ---------------------------------------------------

def _drive(seed: int, arrivals: str = "poisson"):
    """One tiny open-loop run against the simulated redis; returns a
    comparable snapshot of everything the plane measured."""
    topology = LoadTopology(clients=8, machines=2)
    world = World(machine_names=topology.machine_names())
    world.spawn(make_redis(), name="redis", daemon=True)
    duration_ps = SEC_PS // 4
    config = OpenLoopConfig(rate_rps=400.0, duration_ps=duration_ps,
                            arrivals=arrivals, seed=seed, churn_every=8)
    placements, report, stats = make_open_loop(topology, config)
    spawn_pool(world, placements)
    world.run(until_ps=2 * duration_ps)
    return {
        "requests": report.requests,
        "errors": report.errors,
        "started": report.started_ps,
        "finished": report.finished_ps,
        "hist": report.latency.hist.snapshot(),
        "reservoir": list(report.latency.reservoir),
        "per_command": {name: digest.hist.snapshot()
                        for name, digest in report.per_command.items()},
        "timeouts": stats.timeouts,
        "reconnects": stats.reconnects,
        "late": stats.late_arrivals,
        "now": world.now,
    }


class TestOpenLoopDeterminism:
    def test_same_seed_same_journal(self):
        assert _drive(3) == _drive(3)

    def test_uniform_arrivals_deterministic(self):
        assert _drive(5, "uniform") == _drive(5, "uniform")

    def test_different_seed_different_arrivals(self):
        a = _drive(1)
        b = _drive(2)
        assert a["requests"] > 0 and b["requests"] > 0
        assert a != b

    def test_pool_actually_measures(self):
        snap = _drive(3)
        assert snap["requests"] > 10
        assert snap["errors"] == 0
        assert set(snap["per_command"]) == {"ping", "get", "set"}
        assert snap["reconnects"] >= 8  # churn_every=8 forces churn


# -- loadcurve experiment ----------------------------------------------------

def test_loadcurve_smoke_deterministic():
    """The registry-level experiment renders byte-identically run to
    run at sweep scale (the CI cmp gate in miniature)."""
    from repro.experiments import loadcurve

    def render():
        return loadcurve.run(scale=0.008, followers=1, duration_s=0.25,
                             offered_multipliers=(0.5,)).render()

    first = render()
    assert render() == first
    assert "native" in first
    assert "varan local f1" in first
    assert "varan remote f1" in first
