"""Simulated static-file HTTP servers: Lighttpd, thttpd, Apache httpd.

One parameterised implementation covers the three single-threaded
static servers used in the paper's evaluation; per-server profiles set
the request-parsing and response-generation compute so their native
throughputs differ the way the real servers' do.

The Lighttpd *revisions* used by the multi-revision (§5.2) and failover
(§5.1) experiments are faithful to the paper's description:

* r2435→r2436 — ``issetugid()`` replaces ``geteuid()/getegid()``,
  adding ``getuid`` and ``getgid`` to the startup sequence;
* r2523→r2524 — an additional ``read`` of ``/dev/urandom`` for entropy;
* r2577→r2578 — an additional ``fcntl`` setting ``FD_CLOEXEC``;
* r2437→r2438 — r2438 introduces a crash on a specific request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import (
    EpollServer,
    ServerStats,
    http_response,
    parse_http_request,
)
from repro.kernel.uapi import F_SETFD, FD_CLOEXEC, O_RDONLY, Segfault
from repro.runtime.image import SiteSpec, build_image


@dataclass(frozen=True)
class HttpProfile:
    """Compute costs (cycles) of one server flavour."""

    name: str
    parse_cycles: int = 2600
    respond_cycles: int = 3400
    page_size: int = 4096
    log_access: bool = False  # write an access-log line per request
    #: Per-accepted-connection work (connection object setup, config
    #: lookups; prefork hand-off for Apache) — dominates non-keepalive
    #: workloads like ApacheBench and http_load.
    conn_setup_cycles: int = 0


LIGHTTPD = HttpProfile("lighttpd", parse_cycles=10000,
                       respond_cycles=14000, conn_setup_cycles=500_000)
THTTPD = HttpProfile("thttpd", parse_cycles=14000,
                     respond_cycles=19000, conn_setup_cycles=620_000)
APACHE_HTTPD = HttpProfile("apache-httpd", parse_cycles=20000,
                           respond_cycles=28000, log_access=True,
                           conn_setup_cycles=950_000)

#: The page every HTTP flavour serves, read once at startup.
PAGE_PATH = "/var/www/index.html"

#: Syscall sites an HTTP worker touches; used to build the VX86 image
#: the rewriter patches.
HTTPD_SITES = [
    SiteSpec("srv_socket", "socket"),
    SiteSpec("srv_setsockopt", "setsockopt"),
    SiteSpec("srv_bind", "bind"),
    SiteSpec("srv_listen", "listen"),
    SiteSpec("srv_epoll_create", "epoll_create"),
    SiteSpec("srv_epoll_ctl", "epoll_ctl"),
    SiteSpec("srv_epoll_wait", "epoll_wait"),
    SiteSpec("srv_accept", "accept"),
    SiteSpec("srv_read", "read"),
    SiteSpec("srv_write", "write"),
    SiteSpec("srv_close", "close"),
    SiteSpec("srv_open", "open"),
    SiteSpec("srv_fstat", "fstat"),
    SiteSpec("srv_time", "time", vdso="time"),
    SiteSpec("srv_clock", "clock_gettime", vdso="clock_gettime"),
]


def httpd_image(profile: HttpProfile = LIGHTTPD):
    return build_image(profile.name, HTTPD_SITES)


def make_httpd(profile: HttpProfile = LIGHTTPD, stats: ServerStats = None,
               crash_on: bytes = None, startup=None):
    """Build the server generator function for one HTTP flavour.

    ``crash_on``: a request substring that triggers a Segfault (used for
    the Lighttpd r2438 failover experiment).
    ``startup``: optional generator run before serving (revision-specific
    startup syscall sequences for §5.2).
    """
    stats = stats if stats is not None else ServerStats()

    def main(ctx):
        if startup is not None:
            yield from startup(ctx)
        # Read the served page once at startup, like a static-file cache.
        page = b""
        result = yield from ctx.syscall("open", PAGE_PATH, O_RDONLY,
                                        site="srv_open")
        if result.retval >= 0:
            fd = result.retval
            yield from ctx.fstat(fd, site="srv_fstat")
            page = yield from ctx.read(fd, profile.page_size,
                                       site="srv_read")
            yield from ctx.close(fd, site="srv_close")
        if not page:
            page = b"x" * profile.page_size

        def handle(hctx, conn, request):
            if crash_on is not None and crash_on in request:
                raise Segfault(f"{profile.name}: crash handling "
                               f"{request[:30]!r}")
            yield from hctx.compute(profile.parse_cycles)
            # Stat-cache validation + the server's time cache, as real
            # lighttpd does per request.
            yield from hctx.stat(PAGE_PATH, site="srv_fstat")
            yield from hctx.clock_gettime(site="srv_time")
            keepalive = b"Connection: close" not in request
            conn.keepalive = keepalive
            yield from hctx.compute(profile.respond_cycles)
            # TCP_CORK bracket around the response write.
            yield from hctx.setsockopt(conn.fd, site="srv_setsockopt")
            yield from hctx.clock_gettime(site="srv_time")
            if profile.log_access:
                yield from hctx.time(site="srv_time")
            response = http_response(page, keepalive=keepalive)
            return response

        server = EpollServer(ctx, 80, handle, parse_http_request,
                             stats=stats,
                             conn_setup_cycles=profile.conn_setup_cycles)
        return (yield from server.serve())

    return main


# -- Lighttpd startup sequences for the multi-revision experiments (§5.2) --

def startup_r2435(ctx):
    """geteuid/getegid before opening the config — the old sequence."""
    yield from ctx.geteuid()
    yield from ctx.getegid()
    fd = yield from ctx.open("/dev/null")
    yield from ctx.close(fd)


def startup_r2436(ctx):
    """issetugid() internally issues all four id calls, then open."""
    yield from ctx.geteuid()
    yield from ctx.getuid()
    yield from ctx.getegid()
    yield from ctx.getgid()
    fd = yield from ctx.open("/dev/null")
    yield from ctx.close(fd)


def startup_r2523(ctx):
    yield from ctx.geteuid()
    yield from ctx.getegid()


def startup_r2524(ctx):
    """r2524 reads /dev/urandom for an extra entropy source."""
    yield from ctx.geteuid()
    yield from ctx.getegid()
    fd = yield from ctx.open("/dev/urandom")
    yield from ctx.read(fd, 16)
    yield from ctx.close(fd)


def startup_r2577(ctx):
    fd = yield from ctx.open("/dev/null")
    yield from ctx.close(fd)


def startup_r2578(ctx):
    """r2578 additionally sets FD_CLOEXEC on a descriptor."""
    fd = yield from ctx.open("/dev/null")
    yield from ctx.fcntl(fd, F_SETFD, FD_CLOEXEC)
    yield from ctx.close(fd)


LIGHTTPD_REVISIONS = {
    "2435": startup_r2435,
    "2436": startup_r2436,
    "2523": startup_r2523,
    "2524": startup_r2524,
    "2577": startup_r2577,
    "2578": startup_r2578,
}


def lighttpd_revision(rev: str, stats=None):
    """A Lighttpd version with a revision-specific startup sequence."""
    return make_httpd(LIGHTTPD, stats=stats,
                      startup=LIGHTTPD_REVISIONS.get(rev))
