"""The session skeleton the four monitor kinds share (core/config.py):
one construction contract, one metrics registration path, and the
default handling of ring damage."""

import pytest

from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.errors import NvxError
from repro.nvx import LockstepSession, ScribeSession
from repro.obs import metrics as obs_metrics
from repro.recordreplay import Recorder, ReplaySession
from repro.world import World
from tests.test_recordreplay import app

KINDS = {
    "NvxSession": NvxSession,
    "LockstepSession": LockstepSession,
    "ScribeSession": ScribeSession,
    "ReplaySession": lambda world, specs, config: ReplaySession(
        world, specs, b"", config=config),
}


def _specs():
    return [VersionSpec("a", app), VersionSpec("b", app)]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("specs, config, message", [
    ([], None, "needs at least one version"),
    (_specs(), {"daemon": True}, "config must be a SessionConfig"),
    (_specs(), SessionConfig(placement={1: World().server}),
     "not a machine of this world"),
])
def test_construction_contract(kind, specs, config, message):
    with pytest.raises(NvxError, match=f"^{kind}: .*{message}"):
        KINDS[kind](World(), specs, config=config)


def _world():
    world = World()
    world.kernel.fs(world.server).create("/tmp/input", b"the-input")
    return world


def test_one_window_collects_every_kind():
    obs_metrics.start_collection()
    try:
        world = _world()
        session = NvxSession(world, [VersionSpec("prod", app)])
        recorder = Recorder(session, "/var/log.bin")
        session.start()
        world.run()
        world = _world()
        replay = ReplaySession(world, _specs(), recorder.log_bytes)
        replay.start()
        world.run()
        world = _world()
        lockstep = world.lockstep(_specs()).start()
        scribe = world.scribe(_specs()).start()
        world.run()
    finally:
        counters = obs_metrics.drain()["counters"]
    recorded = session.root_tuple.ring.stats.published
    replayed = replay.root_tuple.ring.stats.published
    assert recorded > 0 and replayed == recorded
    assert counters["ring.published"] == recorded + replayed
    assert counters["lockstep.stops"] == lockstep.stats_stops > 0
    assert counters["scribe.events_recorded"] == scribe.events_recorded > 0


class _PoisonFirstSlot:
    """Ring observer that damages the first published slot the way an
    injected corrupt-slot fault does."""

    def on_publish(self, ring, event):
        if event.seq == 0:
            event.seq += ring.capacity

    def on_consume(self, ring, vid, event):
        pass


def test_ring_damage_drops_the_replica_by_default():
    world = _world()
    session = NvxSession(world, [VersionSpec("prod", app)])
    recorder = Recorder(session, "/var/log.bin")
    session.start()
    world.run()
    world = _world()
    replay = ReplaySession(world, _specs(), recorder.log_bytes,
                           config=SessionConfig(ring_capacity=2))
    ring = replay.root_tuple.ring
    ring.integrity = True
    ring.observer = _PoisonFirstSlot()
    replay.start()
    world.run()
    # Dropped, so the dead cursors no longer hold the 2-slot ring: the
    # artificial leader publishes the whole log.
    assert not any(variant.alive for variant in replay.variants)
    assert ring.cursors == {}
    assert replay.events_replayed == len(replay.records)
