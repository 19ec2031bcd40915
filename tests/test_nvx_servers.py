"""NVX correctness on the real server applications (macro integration)."""

import pytest

from repro.apps import (
    LIGHTTPD,
    ServerStats,
    httpd_image,
    make_beanstalkd,
    make_httpd,
    make_memcached,
    make_nginx,
    make_redis,
    nginx_image,
    redis_image,
)
from repro.apps.nginx import WORKERS as NGINX_WORKERS
from repro.clients import (
    make_beanstalkd_benchmark,
    make_memslap,
    make_redis_benchmark,
    make_wrk,
)
from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.costmodel import SEC_PS
from repro.world import World


def run_nvx_server(server_factory, client_factory, followers=2,
                   image_factory=None, until_s=25.0):
    world = World()
    world.kernel.fs(world.server).create("/var/www/index.html",
                                         b"n" * 4096)
    specs = [VersionSpec(f"v{i}", server_factory(),
                         image=image_factory() if image_factory else None)
             for i in range(followers + 1)]
    session = NvxSession(world, specs,
                         config=SessionConfig(daemon=True)).start()
    mains, report = client_factory()
    for index, main in enumerate(mains):
        world.kernel.spawn_task(world.client, main, name=f"cli{index}")
    world.run(until_ps=int(until_s * SEC_PS))
    return session, report


class TestServersUnderVaran:
    def test_lighttpd_two_followers(self):
        session, report = run_nvx_server(
            lambda: make_httpd(LIGHTTPD, stats=ServerStats()),
            lambda: make_wrk(clients=4, duration_ps=SEC_PS // 100),
            image_factory=lambda: httpd_image(LIGHTTPD))
        assert report.errors == 0 and report.requests > 20
        assert not session.stats.fatal_divergences
        ring = session.root_tuple.ring
        assert ring.stats.consumed == 2 * ring.stats.published

    def test_redis_under_varan_no_divergence(self):
        session, report = run_nvx_server(
            lambda: make_redis(stats=ServerStats()),
            lambda: make_redis_benchmark(clients=4, requests=56,
                                         scale=1.0),
            image_factory=redis_image)
        assert report.errors == 0
        assert not session.stats.fatal_divergences

    def test_beanstalkd_int_sites_patched(self):
        from repro.apps import beanstalkd_image

        session, report = run_nvx_server(
            lambda: make_beanstalkd(stats=ServerStats()),
            lambda: make_beanstalkd_benchmark(scale=0.001),
            followers=1, image_factory=beanstalkd_image)
        assert report.errors == 0
        leader = session.variants[0]
        # The hot read site fell back to INT0 during rewriting.
        assert leader.patch_kinds["srv_read"] == "int"
        assert leader.patch_kinds["srv_write"] == "jmp"

    def test_memcached_multithreaded_replay(self):
        session, report = run_nvx_server(
            lambda: make_memcached(stats=ServerStats()),
            lambda: make_memslap(scale=0.0032),
            followers=2)
        assert report.errors == 0
        assert not session.stats.fatal_divergences
        # Each variant spun up its worker threads.
        for variant in session.variants:
            assert len(variant.root_task.threads) == 3

    def test_nginx_multiprocess_replay(self):
        session, report = run_nvx_server(
            lambda: make_nginx(port=8080, stats=ServerStats()),
            lambda: make_wrk(port=8080, clients=4,
                             duration_ps=SEC_PS // 200),
            followers=1, image_factory=nginx_image)
        assert report.errors == 0 and report.requests > 5
        assert not session.stats.fatal_divergences
        # master tuple + one tuple per worker fork
        assert len(session.tuples) == 1 + NGINX_WORKERS
        # The worker tuples carried the request traffic.
        worker_published = sum(t.ring.stats.published
                               for t in session.tuples[1:])
        assert worker_published > session.tuples[0].ring.stats.published
        # Every variant forked its workers.
        for variant in session.variants:
            assert len(variant.tasks) == 1 + NGINX_WORKERS
