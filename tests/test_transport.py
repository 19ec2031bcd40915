"""Unit tests for the networked NetRing and the session options that
choose it: ring selection by placement, the dMVX policy options,
placement resolution, frames/acks/flow control, selective replication,
compression, failover re-anchoring and the ``net.*`` metrics."""

import pytest

from repro.core import NetRing, RingBuffer, VersionSpec, syscall_event
from repro.core.config import SessionConfig, resolve_placement
from repro.core.netring import (
    ACK_BYTES,
    FRAME_HEADER_BYTES,
    NetStats,
    REPLICATE_SELECTIVE,
)
from repro.core.events import EVENT_SIZE
from repro.costmodel import DEFAULT_COSTS, NetworkSpec, US_PS
from repro.errors import NvxError
from repro.sim import Machine, Simulator
from repro.sim.network import Network
from repro.world import World


def rig(capacity=8, **kwargs):
    """A sim, two machines, a network and a NetRing with one remote
    consumer (vid 1 on machine b) and one local (vid 2 on machine a).
    A frame is cut at ``capacity // 2`` events."""
    sim = Simulator()
    a = Machine(sim, name="a")
    b = Machine(sim, name="b")
    network = Network(sim, NetworkSpec())
    ring = NetRing(sim, DEFAULT_COSTS, network, a, {1: b, 2: a},
                   capacity=capacity, **kwargs)
    ring.add_consumer(1)
    ring.add_consumer(2)
    return sim, a, b, network, ring


def publish_n(sim, machine, ring, n, name="close", payload=None):
    def producer():
        for i in range(n):
            event = syscall_event(name, 0, i + 1, 0)
            if payload is not None:
                event.payload = payload
            yield from ring.publish(event)
    machine.spawn(producer(), name="producer")
    sim.run()


class FakePayload:
    """Duck-types SharedChunk for byte accounting (.data)."""

    def __init__(self, length):
        self.data = b"p" * length


def tiny_main(ctx):
    yield from ctx.getuid()
    return True


class TestTransportAPI:
    def test_session_ring_follows_placement(self):
        specs = [VersionSpec("a", tiny_main), VersionSpec("b", tiny_main)]
        for placement, kind in ((None, RingBuffer),
                                ({1: "server"}, RingBuffer),
                                ({1: "replica1"}, NetRing)):
            world = World(machine_names=("server", "client", "replica1"))
            session = world.nvx(specs, config=SessionConfig(
                placement=placement)).start()
            world.run()
            assert type(session.root_tuple.ring) is kind

    def test_batching_derives_from_capacity_and_latency(self):
        sim, a, b, network, ring = rig(capacity=8)
        assert (ring.max_batch, ring.ack_batch) == (4, 2)
        assert ring.coalesce_ps == 8 * US_PS
        sim, a, b, network, ring = rig(capacity=256)
        assert (ring.max_batch, ring.ack_batch) == (16, 8)

    @pytest.mark.parametrize("options, message", [
        ({"replicate": "sometimes"}, "replicate must be"),
        ({"replicate": None}, "replicate must be"),
        ({"compress": 1}, "compress must be a bool"),
        ({"compress": "yes"}, "compress must be a bool"),
    ])
    def test_config_rejects_bad_policy(self, options, message):
        with pytest.raises(NvxError, match=message):
            SessionConfig(**options)

    @pytest.mark.parametrize("options", [
        {"replicate": REPLICATE_SELECTIVE},
        {"compress": True},
        {"replicate": REPLICATE_SELECTIVE, "placement": {1: "server"}},
    ])
    def test_policy_without_a_remote_follower_is_refused(self, options):
        world = World(machine_names=("server", "client", "replica1"))
        with pytest.raises(NvxError, match="another machine"):
            world.nvx([VersionSpec("a", tiny_main),
                       VersionSpec("b", tiny_main)],
                      config=SessionConfig(**options))

    def test_netring_requires_network(self):
        sim = Simulator()
        a = Machine(sim, name="a")
        with pytest.raises(NvxError):
            NetRing(sim, DEFAULT_COSTS, None, a, {})

    def test_netring_rejects_unknown_policy(self):
        sim = Simulator()
        a = Machine(sim, name="a")
        with pytest.raises(NvxError):
            NetRing(sim, DEFAULT_COSTS, Network(sim), a, {},
                    replicate="sometimes")


class TestPlacementResolution:
    def make_world(self):
        return World(machine_names=("server", "client", "replica1"))

    def specs(self, n=3):
        def main(ctx):
            yield
        return [VersionSpec(f"v{i}", main) for i in range(n)]

    def test_default_everyone_on_default_machine(self):
        world = self.make_world()
        machines = resolve_placement(None, self.specs(), world,
                                     world.server)
        assert all(m is world.server for m in machines)

    def test_by_index_and_name(self):
        world = self.make_world()
        machines = resolve_placement(
            {1: "replica1", "v2": "replica1"}, self.specs(), world,
            world.server)
        assert machines[0] is world.server
        assert machines[1] is world.machine("replica1")
        assert machines[2] is world.machine("replica1")

    def test_machine_objects_accepted(self):
        world = self.make_world()
        machines = resolve_placement({0: world.machine("replica1")},
                                     self.specs(), world, world.server)
        assert machines[0] is world.machine("replica1")

    def test_unknown_key_raises(self):
        world = self.make_world()
        with pytest.raises(NvxError):
            resolve_placement({"nope": "replica1"}, self.specs(), world,
                              world.server)

    def test_unknown_machine_raises(self):
        world = self.make_world()
        with pytest.raises(NvxError):
            resolve_placement({0: "mars"}, self.specs(), world,
                              world.server)

    @pytest.mark.parametrize("placement, message", [
        ({0: 42}, "is not a machine of this world"),
        ({1: None}, "is not a machine of this world"),
        ({True: "server"}, "neither a variant index nor a version name"),
        ({1.0: "server"}, "neither a variant index nor a version name"),
        ([("v1", "replica1")], "expected a mapping, got list"),
    ])
    def test_malformed_placement_raises(self, placement, message):
        world = self.make_world()
        with pytest.raises(NvxError, match=message):
            resolve_placement(placement, self.specs(), world, world.server)

    def test_machine_of_another_world_raises(self):
        world = self.make_world()
        with pytest.raises(NvxError, match="not a machine of this world"):
            resolve_placement({0: self.make_world().server}, self.specs(),
                              world, world.server)

    @pytest.mark.parametrize("build", ["nvx", "lockstep", "scribe"])
    def test_session_with_a_non_machine_is_not_built(self, build):
        # It used to build a session whose variants never started, and
        # world.run() returned normally.
        world = self.make_world()
        with pytest.raises(NvxError, match="not a machine of this world"):
            getattr(world, build)(self.specs(),
                                  config=SessionConfig(placement={0: 42}))


class TestNetRingFrames:
    def test_remote_peek_gated_on_frame_arrival(self):
        sim, a, b, network, ring = rig()
        seen = {}

        def producer():
            yield from ring.publish(syscall_event("close", 0, 1, 0))
            # Local consumer sees it immediately; remote does not.
            seen["local"] = ring.peek(2) is not None
            seen["remote_before"] = ring.peek(1) is not None
        a.spawn(producer(), name="producer")
        sim.run()
        assert seen["local"] and not seen["remote_before"]
        # The coalesce timer fired during run(); the frame arrived.
        assert ring.peek(1) is not None
        assert ring.net.frames == 1

    def test_full_batch_flushes_immediately(self):
        sim, a, b, network, ring = rig()
        frames = {}

        def producer():
            for i in range(4):
                yield from ring.publish(syscall_event("close", 0, i + 1, 0))
            frames["at_batch"] = ring.net.frames
        a.spawn(producer(), name="producer")
        sim.run()
        assert frames["at_batch"] == 1

    def test_control_event_flushes_immediately(self):
        from repro.core.events import EV_EXIT, Event
        sim, a, b, network, ring = rig(capacity=16)

        def producer():
            yield from ring.publish(syscall_event("close", 0, 1, 0))
            yield from ring.publish(Event(EV_EXIT, -1, EV_EXIT, 0, 2))
        a.spawn(producer(), name="producer")
        sim.run()
        assert ring.net.frames >= 1
        assert ring.peek(1) is not None

    def test_frame_bytes_cover_header_and_lines(self):
        sim, a, b, network, ring = rig()
        publish_n(sim, a, ring, 4)
        assert ring.net.bytes == FRAME_HEADER_BYTES + 4 * EVENT_SIZE

    def test_acks_flow_back_and_unblock_producer(self):
        sim, a, b, network, ring = rig(capacity=4)
        done = {}

        def producer():
            for i in range(12):
                yield from ring.publish(syscall_event("close", 0, i + 1, 0))
            done["produced"] = True

        def consumer(vid):
            def run():
                consumed = 0
                while consumed < 12:
                    if ring.peek(vid) is None:
                        yield from ring.wait_published(
                            False, lambda: ring.peek(vid) is not None)
                        continue
                    ring.advance(vid)
                    consumed += 1
                done[vid] = consumed
            return run
        a.spawn(producer(), name="producer")
        b.spawn(consumer(1)(), name="c1")
        a.spawn(consumer(2)(), name="c2")
        sim.run()
        assert done.get("produced") and done[1] == 12 and done[2] == 12
        assert ring.net.acks > 0
        assert network.bytes_sent >= ring.net.bytes + ACK_BYTES

    def test_min_cursor_gates_on_acked_not_live(self):
        sim, a, b, network, ring = rig(capacity=8)
        publish_n(sim, a, ring, 2)
        # Remote consumer advances but its ack is in flight: pretend by
        # advancing the live cursor directly.
        ring.advance(1)
        ring.cursors[1] = 2
        assert ring.min_cursor() <= ring._acked[1]

    def test_remove_consumer_clears_remote_state(self):
        sim, a, b, network, ring = rig()
        ring.remove_consumer(1)
        assert 1 not in ring._remote and 1 not in ring._acked
        assert 1 not in ring._visible and 1 not in ring._ack_sent


class TestReplicationPolicies:
    def test_selective_elides_local_regenerable_payload(self):
        sim, a, b, network, ring = rig(capacity=4,
                                       replicate=REPLICATE_SELECTIVE)
        publish_n(sim, a, ring, 2, name="pread", payload=FakePayload(300))
        assert ring.net.payload_elided == 600
        assert ring.net.bytes == FRAME_HEADER_BYTES + 2 * EVENT_SIZE

    def test_full_ships_payload_bytes(self):
        sim, a, b, network, ring = rig(capacity=4)
        publish_n(sim, a, ring, 2, name="pread", payload=FakePayload(300))
        assert ring.net.payload_elided == 0
        assert ring.net.bytes == FRAME_HEADER_BYTES + 2 * (EVENT_SIZE + 300)

    def test_selective_still_ships_external_payloads(self):
        sim, a, b, network, ring = rig(capacity=4,
                                       replicate=REPLICATE_SELECTIVE)
        publish_n(sim, a, ring, 2, name="recv", payload=FakePayload(100))
        assert ring.net.payload_elided == 0
        assert ring.net.bytes == FRAME_HEADER_BYTES + 2 * (EVENT_SIZE + 100)

    def test_compression_saves_bytes(self):
        sim, a, b, network, ring = rig(compress=True)
        publish_n(sim, a, ring, 4)
        assert ring.net.bytes_saved > 0
        assert ring.net.bytes < FRAME_HEADER_BYTES + 4 * EVENT_SIZE


class TestFailover:
    def test_on_promote_reveals_backlog_and_reanchors(self):
        sim, a, b, network, ring = rig()
        seen = {}

        def producer():
            for i in range(3):
                yield from ring.publish(syscall_event("close", 0, i + 1, 0))
            # Below a batch and inside the coalescing window: no frame
            # has left, so the remote follower is blind.
            seen["remote_blind"] = ring.peek(1) is None
            ring.on_promote(1, b)
            # vid 1 now produces from machine b; backlog fully visible.
            seen["remote_after"] = ring.peek(1) is not None
        a.spawn(producer(), name="producer")
        sim.run()
        assert seen == {"remote_blind": True, "remote_after": True}
        assert ring.producer_machine is b
        assert ring.net.frames == 0
        # vid 2 (machine a) became remote relative to the new leader.
        assert 2 in ring._remote and 1 not in ring._remote
        assert ring._visible[2] == ring.head

    def test_promote_resets_flow_control_to_live_cursors(self):
        sim, a, b, network, ring = rig(capacity=3)
        publish_n(sim, a, ring, 3)
        ring.advance(1)
        ring.on_promote(1, b)
        assert ring._acked[2] == ring.cursors[2]
        assert ring.min_cursor() == min(ring.cursors.values())


class TestMetrics:
    def test_netstats_as_dict_keys(self):
        stats = NetStats()
        assert set(stats.as_dict()) == {
            "net.frames", "net.bytes", "net.acks", "net.remote_lag",
            "net.payload_elided", "net.bytes_saved"}
        assert all(value == 0 for value in stats.as_dict().values())

    def test_drain_sums_the_sessions_rings_only(self):
        # Two remote-placed sessions share one World; a bare NetRing
        # built outside any session ships frames too but registers
        # nothing, so drain() must not see it.
        from repro.obs import metrics as obs_metrics

        obs_metrics.start_collection()
        world = World(machine_names=("server", "client", "replica1"))
        sessions = [
            world.nvx([VersionSpec("a", tiny_main),
                       VersionSpec("b", tiny_main)],
                      config=SessionConfig(placement={1: "replica1"},
                                           replicate=replicate)).start()
            for replicate in ("full", REPLICATE_SELECTIVE)]
        world.run()
        sim, a, b, network, bare = rig(capacity=4)
        publish_n(sim, a, bare, 2)
        assert bare.net.frames > 0
        counters = obs_metrics.drain()["counters"]
        expected = NetStats().as_dict()
        for session in sessions:
            for tuple_ in session.tuples:
                for name, value in tuple_.ring.net.as_dict().items():
                    expected[name] += value
        assert {name: counters[name] for name in expected} == expected
        assert expected["net.frames"] > 0 and expected["net.acks"] > 0

    def test_drain_net_keys_always_present(self):
        from repro.obs import metrics as obs_metrics
        obs_metrics.start_collection()
        counters = obs_metrics.drain()["counters"]
        for key in ("net.frames", "net.bytes", "net.acks",
                    "net.remote_lag"):
            assert counters[key] == 0


class TestWorldFacade:
    def test_config_placement_runs_a_follower_remotely(self):
        def main(ctx):
            fd = yield from ctx.open("/tmp/f")
            data = yield from ctx.read(fd, 8)
            yield from ctx.close(fd)
            return data

        world = World(machine_names=("server", "client", "replica1"))
        for name in ("server", "replica1"):
            world.kernel.fs(world.machine(name)).create("/tmp/f", b"x" * 8)
        session = world.nvx(
            [VersionSpec("a", main), VersionSpec("b", main)],
            config=SessionConfig(placement={1: "replica1"})).start()
        world.run()
        assert type(session.root_tuple.ring) is NetRing
        assert session.variants[1].machine.name == "replica1"
        for variant in session.variants:
            thread = variant.root_task.threads[0]
            assert thread.exception is None
            assert thread.result == b"x" * 8

    def test_config_transport_selects_policy(self):
        world = World(machine_names=("server", "client", "replica1"))
        session = world.nvx(
            [VersionSpec("a", tiny_main), VersionSpec("b", tiny_main)],
            config=SessionConfig(placement={1: "replica1"},
                                 replicate=REPLICATE_SELECTIVE,
                                 compress=True)).start()
        world.run()
        ring = session.root_tuple.ring
        assert (ring.replicate, ring.compress) == (REPLICATE_SELECTIVE, True)
