"""Tests for the simulated sanitizers and live sanitization (§5.3)."""

import pytest

from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.sanitizers import (
    ASAN,
    MSAN,
    SimHeap,
    sanitized_spec,
)
from repro.sanitizers.build import SanitizedContext
from repro.world import World


def run_sanitized(body, sanitizer=ASAN):
    """Run ``body(ctx, heap)`` under a sanitized context; returns
    (reports, thread)."""
    world = World()
    reports = []

    def main(ctx):
        instrumented = SanitizedContext(ctx.task, sanitizer, reports)
        heap = SimHeap(instrumented)
        result = yield from body(instrumented, heap)
        return result

    task = world.spawn(main, name="sanitized")
    world.run()
    return reports, task.threads[0]


class TestAsan:
    def test_clean_code_produces_no_reports(self):
        def body(ctx, heap):
            addr = yield from heap.malloc(64)
            yield from heap.store(addr, 8)
            value = yield from heap.load(addr)
            yield from heap.free(addr)
            return value

        reports, thread = run_sanitized(body)
        assert reports == [] and thread.exception is None

    def test_use_after_free_detected(self):
        def body(ctx, heap):
            addr = yield from heap.malloc(32)
            yield from heap.free(addr)
            yield from heap.load(addr)
            return None

        reports, _ = run_sanitized(body)
        assert [r.kind for r in reports] == ["heap-use-after-free"]

    def test_buffer_overflow_detected(self):
        def body(ctx, heap):
            addr = yield from heap.malloc(8)
            yield from heap.store(addr + 4, 8)  # crosses the end
            return None

        reports, _ = run_sanitized(body)
        assert "heap-buffer-overflow" in [r.kind for r in reports]

    def test_double_free_detected(self):
        def body(ctx, heap):
            addr = yield from heap.malloc(8)
            yield from heap.free(addr)
            yield from heap.free(addr)
            return None

        reports, _ = run_sanitized(body)
        assert "double-free" in [r.kind for r in reports]

    def test_unsanitized_heap_never_reports(self):
        world = World()

        def main(ctx):
            heap = SimHeap(ctx)  # plain build: no checks
            addr = yield from heap.malloc(8)
            yield from heap.free(addr)
            yield from heap.load(addr)
            return heap.reports

        task = world.spawn(main, name="plain")
        world.run()
        assert task.threads[0].result == []


class TestMsanTsan:
    def test_uninitialized_read_detected_by_msan(self):
        def body(ctx, heap):
            addr = yield from heap.malloc(16)
            yield from heap.load(addr)  # never written
            return None

        reports, _ = run_sanitized(body, sanitizer=MSAN)
        assert "uninitialized-read" in [r.kind for r in reports]

    def test_msan_misses_use_after_free(self):
        def body(ctx, heap):
            addr = yield from heap.malloc(8)
            yield from heap.store(addr)
            yield from heap.free(addr)
            yield from heap.load(addr)
            return None

        reports, _ = run_sanitized(body, sanitizer=MSAN)
        assert "heap-use-after-free" not in [r.kind for r in reports]


class TestSlowdown:
    def test_sanitized_compute_is_slower(self):
        def make_main(sanitizer):
            def main(ctx):
                if sanitizer is not None:
                    ctx = SanitizedContext(ctx.task, sanitizer, [])
                yield from ctx.compute(1_000_000)
                return True

            return main

        world_a = World()
        world_a.spawn(make_main(None), name="plain")
        world_a.run()
        plain = world_a.now

        world_b = World()
        world_b.spawn(make_main(ASAN), name="asan")
        world_b.run()
        assert abs(world_b.now - 2 * plain) < plain * 0.01

    def test_live_sanitization_leader_unaffected(self):
        from repro.apps import ServerStats, make_redis

        def run_once(with_asan):
            world = World()
            reports = []
            specs = [VersionSpec("plain",
                                 make_redis(stats=ServerStats(),
                                            background_thread=False))]
            if with_asan:
                specs.append(sanitized_spec(
                    "redis", make_redis(stats=ServerStats(),
                                        background_thread=False),
                    ASAN, reports))
            else:
                specs.append(VersionSpec(
                    "plain2", make_redis(stats=ServerStats(),
                                         background_thread=False)))
            NvxSession(world, specs,
                       config=SessionConfig(daemon=True)).start()

            from repro.clients import make_redis_benchmark

            mains, report = make_redis_benchmark(clients=5, requests=100,
                                                 scale=1.0)
            for main in mains:
                world.kernel.spawn_task(world.client, main, name="cli")
            world.run(until_ps=20_000_000_000_000)
            return report.throughput_rps

        baseline = run_once(False)
        sanitized = run_once(True)
        assert sanitized > 0.9 * baseline  # "no additional slowdown"
