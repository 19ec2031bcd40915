"""Observability stack (repro.obs): trace determinism, Chrome export,
metrics merging across sweep fragments, SessionConfig validation and the
World session facade."""

import json

import pytest

from repro import obs
from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.errors import NvxError
from repro.experiments import figure4, runner
from repro.obs import metrics as obs_metrics
from repro.world import World


def _traced_figure4_lines():
    """One tiny figure4 run under a fresh tracer, as JSONL lines."""
    with obs.tracing(obs.Tracer()) as tracer:
        figure4.run(iterations=20, warmup=2)
        return [obs.jsonl_line(rec) for rec in tracer.records], \
            obs.chrome_trace_json(tracer.records)


def _micro_session(tracer=None, config=None):
    """Two-version session issuing a handful of syscalls."""

    def app(ctx):
        fd = yield from ctx.open("/tmp/f")
        yield from ctx.read(fd, 8)
        yield from ctx.close(fd)
        return True

    world = World(tracer=tracer)
    world.kernel.fs(world.server).create("/tmp/f", b"payload!")
    specs = [VersionSpec("a", app), VersionSpec("b", app)]
    session = world.nvx(specs, config=config).start()
    world.run()
    return session


class TestTraceDeterminism:
    def test_two_runs_same_seed_identical_bytes(self):
        lines_a, chrome_a = _traced_figure4_lines()
        lines_b, chrome_b = _traced_figure4_lines()
        assert lines_a == lines_b
        assert chrome_a == chrome_b
        assert len(lines_a) > 100  # actually traced something

    def test_trace_covers_all_categories(self):
        with obs.tracing() as tracer:
            _micro_session()
        cats = {rec.cat for rec in tracer.records}
        assert {"syscall", "ring", "session"} <= cats

    def test_no_tracer_no_records(self):
        session = _micro_session()
        assert session.tracer is None
        assert session.world.sim.tracer is None


class TestChromeExport:
    def test_valid_trace_event_document(self):
        with obs.tracing() as tracer:
            _micro_session()
        doc = json.loads(obs.chrome_trace_json(tracer.records))
        events = doc["traceEvents"]
        assert events, "no events exported"
        phases = {e["ph"] for e in events}
        assert "M" in phases  # process/thread name metadata
        assert phases & {"X", "i"}
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        # Instants are thread-scoped; complete events carry a duration.
        for event in events:
            if event["ph"] == "i":
                assert event["s"] == "t"
            if event["ph"] == "X":
                assert "dur" in event

    def test_world_tags_separate_processes(self):
        with obs.tracing() as tracer:
            _micro_session()
        machines = {rec.machine for rec in tracer.records}
        assert any(m.startswith("w0:") for m in machines)

    def test_jsonl_roundtrip(self):
        with obs.tracing() as tracer:
            _micro_session()
        for rec in tracer.records[:50]:
            parsed = json.loads(obs.jsonl_line(rec))
            assert parsed["ts"] == rec.ts
            assert parsed["seq"] == rec.seq


class TestMetrics:
    def test_session_snapshot_counts_ring_traffic(self):
        session = _micro_session()
        snap = session.metrics_snapshot()
        assert snap["counters"]["ring.published"] > 0
        assert (snap["counters"]["ring.consumed"]
                == snap["counters"]["ring.published"])

    def test_merge_snapshots_sums_counters_and_buckets(self):
        a = obs_metrics.MetricsRegistry()
        a.inc("x", 3)
        a.gauge_max("g", 5)
        a.observe("h", 10)
        b = obs_metrics.MetricsRegistry()
        b.inc("x", 4)
        b.gauge_max("g", 2)
        b.observe("h", 100)
        merged = obs_metrics.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["x"] == 7
        assert merged["gauges"]["g"] == 5
        hist = merged["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["min"] == 10 and hist["max"] == 100

    def test_sweep_metrics_parallel_matches_serial(self):
        points = [("figure6", part,
                   (("follower_counts", (0, 1)), ("scale", 0.002)))
                  for part in ("apache-ab", "thttpd-ab")]
        serial = runner.merge_results(
            points, runner.run_points(points, 1, collect_metrics=True))
        parallel = runner.merge_results(
            points, runner.run_points(points, 2, collect_metrics=True))
        assert serial[0].metrics == parallel[0].metrics
        assert serial[0].metrics["counters"]["ring.published"] > 0

    def test_collection_off_registers_nothing(self):
        _micro_session()
        snap = obs_metrics.drain()
        # No session counters leak in; only the always-present
        # translation-cache, network-transport and fuzz keys appear
        # (and this point ran no guest code after start_collection, so
        # they are deltas over nothing).
        assert all(name.startswith(("tcache.", "net.", "fuzz."))
                   for name in snap["counters"])
        from repro.core.netring import NetStats
        from repro.fuzz.journal import FuzzStats
        from repro.isa.translator import CacheStats
        assert set(snap["counters"]) == (set(CacheStats().as_dict())
                                         | set(NetStats().as_dict())
                                         | set(FuzzStats().as_dict()))
        # The chaining/fusion counters and the superblock length
        # histogram ride along as always-present keys.
        assert "tcache.chain_follows" in snap["counters"]
        assert "tcache.chains_linked" in snap["counters"]
        assert "tcache.chains_broken" in snap["counters"]
        assert "tcache.dispatch_blocks" in snap["counters"]
        assert "tcache.fused_blocks" in snap["counters"]
        assert "tcache.sb_len_p2_0" in snap["counters"]
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}


class TestSessionConfigShim:
    def test_config_fields_applied(self):
        session = _micro_session(config=SessionConfig(ring_capacity=32))
        assert session.ring_capacity == 32
        assert session.root_tuple.ring.capacity == 32

    @pytest.mark.parametrize("capacity", [0, -4, "8", 8.0, True, None])
    def test_bad_ring_capacity_is_refused_at_construction(self, capacity):
        # It used to construct, and the variants then silently never ran.
        with pytest.raises(NvxError, match="ring_capacity"):
            SessionConfig(ring_capacity=capacity)

    def test_unknown_kwarg_raises_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            World().nvx([VersionSpec("a", lambda ctx: iter(()))], bogus=1)

    def test_config_must_be_session_config(self):
        world = World()
        with pytest.raises(NvxError, match="SessionConfig"):
            NvxSession(world, [VersionSpec("a", lambda ctx: iter(()))],
                       config={"daemon": True})


class TestWorldFacade:
    def test_missing_machine_raises_named_error(self):
        world = World(machine_names=("primary", "backup"))
        with pytest.raises(NvxError) as excinfo:
            world.machine("server")
        message = str(excinfo.value)
        assert "'server'" in message
        assert "backup" in message and "primary" in message
        with pytest.raises(NvxError):
            _ = world.server

    def test_factories_build_matching_sessions(self):
        from repro.nvx.lockstep import LockstepSession
        from repro.nvx.scribe import ScribeSession

        def app(ctx):
            yield from ctx.time()
            return True

        world = World()
        specs = [VersionSpec("a", app), VersionSpec("b", app)]
        assert isinstance(world.nvx(specs), NvxSession)
        assert isinstance(world.lockstep(specs), LockstepSession)
        assert isinstance(world.scribe(specs), ScribeSession)
