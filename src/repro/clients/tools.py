"""The client-side benchmark tools of §4 and §5.

Each ``make_*`` returns a list of generator functions (one per
concurrent client task) plus the shared :class:`ClientReport`.  The
defaults mirror the paper's workloads scaled by ``scale`` so the
discrete-event simulation stays fast; overhead ratios converge well
before the full workload sizes.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.clients.base import ClientReport, connect_with_retry, recv_until
from repro.costmodel import SEC_PS
from repro.kernel.uapi import SysError


def _spawn_set(name: str, count: int, body) -> Tuple[List[Callable],
                                                     ClientReport]:
    report = ClientReport(name=name)
    mains = [body(report, index) for index in range(count)]
    return mains, report


# -- HTTP tools --------------------------------------------------------------


def make_wrk(port: int = 80, clients: int = 10,
             duration_ps: int = 10 * SEC_PS):
    """wrk: keep-alive connections driven for a fixed duration."""

    def body(report, index):
        def main(ctx):
            fd = yield from connect_with_retry(ctx, ("server", port))
            deadline = ctx.sim.now + duration_ps
            request = b"GET /index.html HTTP/1.1\r\n\r\n"
            while ctx.sim.now < deadline:
                start = ctx.sim.now
                yield from ctx.send(fd, request)
                response = yield from recv_until(ctx, fd, b"\r\n\r\n")
                if not response:
                    report.errors += 1
                    break
                body_len = _content_length(response)
                got = len(response.split(b"\r\n\r\n", 1)[1])
                while got < body_len:
                    more = yield from ctx.recv(fd, 4096)
                    if not more:
                        break
                    got += len(more)
                report.observe(ctx.sim.now - start, now=ctx.sim.now)
            yield from ctx.close(fd)
            return report.requests

        return main

    return _spawn_set("wrk", clients, body)


def make_apachebench(requests: int = 10_000, concurrency: int = 10,
                     scale: float = 1.0):
    """ApacheBench: a fixed request count, one connection per request."""
    total = max(1, int(requests * scale))
    per_client = max(1, total // concurrency)

    def body(report, index):
        def main(ctx):
            for _ in range(per_client):
                start = ctx.sim.now
                try:
                    fd = yield from connect_with_retry(ctx, ("server", 80))
                except SysError:
                    report.errors += 1
                    continue
                yield from ctx.send(
                    fd, b"GET / HTTP/1.0\r\nConnection: close\r\n\r\n")
                yield from recv_until(ctx, fd, b"\r\n\r\n")
                yield from ctx.close(fd)
                report.observe(ctx.sim.now - start, now=ctx.sim.now)
            return report.requests

        return main

    return _spawn_set("ab", concurrency, body)


def make_http_load(parallel: int = 10, scale: float = 1.0):
    """http_load: parallel non-keepalive fetches (like ab, different
    pacing)."""
    mains, report = make_apachebench(5_000, parallel, scale)
    report.name = "http_load"
    return mains, report


def _content_length(response: bytes) -> int:
    for line in response.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            return int(line.split(b":", 1)[1])
    return 0


# -- redis-benchmark -----------------------------------------------------------

#: The default redis-benchmark command mix (one request each per round).
REDIS_COMMANDS = (b"PING", b"SET", b"GET", b"INCR",
                  b"LPUSH", b"LPOP", b"SADD")


def make_redis_benchmark(clients: int = 50, requests: int = 10_000,
                         scale: float = 1.0, commands=REDIS_COMMANDS):
    """redis-benchmark: the default workload — 50 clients, 10 000
    requests per command type, average latency per command."""
    per_client = max(1, int(requests * scale) // clients)

    def body(report, index):
        def main(ctx):
            fd = yield from connect_with_retry(ctx, ("server", 6379))
            for round_index in range(per_client):
                for command in commands:
                    key = b"key:%d" % ((index * 997 + round_index) % 1000)
                    if command == b"PING":
                        line = b"PING\r\n"
                    elif command in (b"SET",):
                        line = b"SET %s v%d\r\n" % (key, round_index)
                    elif command in (b"LPUSH", b"SADD"):
                        line = b"%s mylist item%d\r\n" % (command,
                                                          round_index)
                    elif command == b"LPOP":
                        line = b"LPOP mylist\r\n"
                    elif command == b"HMGET":
                        line = b"HMGET myhash %s\r\n" % key
                    else:
                        line = b"%s %s\r\n" % (command, key)
                    start = ctx.sim.now
                    yield from ctx.send(fd, line)
                    response = yield from recv_until(ctx, fd, b"\r\n")
                    if not response:
                        report.errors += 1
                        return report.requests
                    report.observe(ctx.sim.now - start,
                                   command=command.decode(),
                                   now=ctx.sim.now)
            yield from ctx.close(fd)
            return report.requests

        return main

    return _spawn_set("redis-benchmark", clients, body)


def make_redis_command_probe(command_line: bytes):
    """Send one specific command and time it (the §5.1 HMGET probe)."""

    def body(report, index):
        def main(ctx):
            fd = yield from connect_with_retry(ctx, ("server", 6379))
            for _ in range(5):
                yield from ctx.send(fd, b"PING\r\n")
                yield from recv_until(ctx, fd, b"\r\n")
            start = ctx.sim.now
            yield from ctx.send(fd, command_line)
            response = yield from recv_until(ctx, fd, b"\r\n")
            report.observe(ctx.sim.now - start, command="probe",
                           now=ctx.sim.now)
            if not response:
                report.errors += 1
            # A few follow-up commands to measure residual throughput.
            for _ in range(10):
                start = ctx.sim.now
                yield from ctx.send(fd, b"PING\r\n")
                if not (yield from recv_until(ctx, fd, b"\r\n")):
                    report.errors += 1
                    break
                report.observe(ctx.sim.now - start, command="after",
                               now=ctx.sim.now)
            yield from ctx.close(fd)
            return report.requests

        return main

    return _spawn_set("redis-probe", 1, body)


# -- memslap ----------------------------------------------------------------------


def make_memslap(scale: float = 1.0):
    """memslap: 16 clients, an initial load of 10 000 keys, then 10 000
    requests in a 90/10 get/set mix."""
    loads = runs = max(1, int(10_000 * scale) // 16)

    def body(report, index):
        def main(ctx):
            fd = yield from connect_with_retry(ctx, ("server", 11211))
            for i in range(loads):
                key = b"k%d_%d" % (index, i)
                yield from ctx.send(fd, b"set %s %s\r\n" % (key, b"v" * 32))
                yield from recv_until(ctx, fd, b"\r\n")
            for i in range(runs):
                start = ctx.sim.now
                key = b"k%d_%d" % (index, i % loads)
                if i % 10 < 9:
                    yield from ctx.send(fd, b"get %s\r\n" % key)
                    response = yield from recv_until(ctx, fd, b"END\r\n")
                else:
                    yield from ctx.send(fd,
                                        b"set %s %s\r\n" % (key, b"w" * 32))
                    response = yield from recv_until(ctx, fd, b"\r\n")
                if not response:
                    report.errors += 1
                    break
                report.observe(ctx.sim.now - start, now=ctx.sim.now)
            yield from ctx.close(fd)
            return report.requests

        return main

    return _spawn_set("memslap", 16, body)


# -- beanstalkd-benchmark ------------------------------------------------------------


def make_beanstalkd_benchmark(scale: float = 1.0):
    """beanstalkd-benchmark: 10 workers × 10 000 pushes of 256 B."""
    per_worker = max(1, int(10_000 * scale))
    body_bytes = b"j" * 256

    def body(report, index):
        def main(ctx):
            fd = yield from connect_with_retry(ctx, ("server", 11300))
            for _ in range(per_worker):
                start = ctx.sim.now
                yield from ctx.send(fd, b"put %s\r\n" % body_bytes)
                response = yield from recv_until(ctx, fd, b"\r\n")
                if not response.startswith(b"INSERTED"):
                    report.errors += 1
                    break
                report.observe(ctx.sim.now - start, now=ctx.sim.now)
            yield from ctx.close(fd)
            return report.requests

        return main

    return _spawn_set("beanstalkd-benchmark", 10, body)
