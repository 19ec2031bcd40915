"""Byzantine client actors for the scenario fuzzer.

The open-loop plane (:mod:`repro.clients.loadgen`) models *well-behaved*
clients: they send complete requests and read every response.  Real
deployments also face the other kind — and the MVEE literature (see
PAPERS.md) is explicit that adversarial inputs and benign divergences
are where N-version monitors actually break.  This module supplies that
traffic as deterministic actors riding the same placement machinery as
the load plane:

* ``slowloris``   — hold a connection and drip a request byte-by-byte,
  hogging server accept slots without ever completing quickly;
* ``oversize``    — requests far beyond the server's ``recv_size``, so
  parsing happens across many buffered reads;
* ``truncate``    — send half a request, then abruptly close; reconnect
  and do it again (tears down parse state mid-request);
* ``protocol``    — legal-looking but abusive commands: unknown verbs,
  missing arguments, type confusion, and the HMGET-on-missing-hash that
  segfaults the buggy Redis revision (paper §5.1, issue 344);
* ``flood``       — terminator-free random bytes at high rate, with only
  occasional drains of the response socket;
* ``reconnect``   — connect/close storms that churn the accept loop.

Every actor draws from its own seeded stream (same derivation shape as
the load plane) and runs until a sim-time deadline, so a given
``(mix, seed, duration)`` produces the identical byte sequence on every
run — which is what lets the fuzz journal be byte-identical per seed.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.clients.base import connect_with_retry, recv_until
from repro.costmodel import MS_PS, SEC_PS, US_PS
from repro.kernel.uapi import SysError

__all__ = ["ADVERSARIES", "make_adversaries"]

#: The default mix, in canonical order.
ADVERSARIES = ("slowloris", "oversize", "truncate", "protocol",
               "flood", "reconnect")

#: Per-behaviour stream salt (any fixed distinct constants work; these
#: keep streams independent without hashing strings).
_SALTS = {name: 0x51AB_0000 + i for i, name in enumerate(ADVERSARIES)}


def _deadline(ctx, deadline_ps: int) -> bool:
    return ctx.sim.now >= deadline_ps


def _reconnect(ctx, fd, addr):
    yield from ctx.close(fd)
    return (yield from connect_with_retry(ctx, addr, attempts=50))


def _adv_slowloris(ctx, rng, addr, deadline_ps):
    fd = yield from connect_with_retry(ctx, addr)
    request = b"SET loris:key " + bytes([rng.randrange(97, 123)]) * 8 \
        + b"\r\n"
    while not _deadline(ctx, deadline_ps):
        for i in range(len(request)):
            if _deadline(ctx, deadline_ps):
                break
            try:
                yield from ctx.send(fd, request[i:i + 1])
            except SysError:
                fd = yield from _reconnect(ctx, fd, addr)
                break
            yield from ctx.nanosleep(rng.randint(5, 40) * MS_PS)
        else:
            try:
                yield from recv_until(ctx, fd, b"\r\n")
            except SysError:
                pass
    yield from ctx.close(fd)


def _adv_oversize(ctx, rng, addr, deadline_ps):
    fd = yield from connect_with_retry(ctx, addr)
    while not _deadline(ctx, deadline_ps):
        size = rng.randint(6_000, 20_000)  # far beyond RECV_SIZE=4096
        body = bytes([rng.randrange(97, 123)]) * size
        line = b"SET big:key " + body + b"\r\n"
        try:
            for off in range(0, len(line), 4096):
                yield from ctx.send(fd, line[off:off + 4096])
            yield from recv_until(ctx, fd, b"\r\n")
        except SysError:
            fd = yield from _reconnect(ctx, fd, addr)
        yield from ctx.nanosleep(rng.randint(2, 20) * MS_PS)
    yield from ctx.close(fd)


def _adv_truncate(ctx, rng, addr, deadline_ps):
    fragments = (b"SET trunc:key val", b"GET trunc", b"HMGET h f1 f",
                 b"LPUSH l", b"PIN")
    while not _deadline(ctx, deadline_ps):
        fd = yield from connect_with_retry(ctx, addr)
        fragment = fragments[rng.randrange(len(fragments))]
        try:
            yield from ctx.send(fd, fragment)  # no terminator, ever
        except SysError:
            pass
        yield from ctx.close(fd)  # tear down mid-request
        yield from ctx.nanosleep(rng.randint(3, 30) * MS_PS)


def _adv_protocol(ctx, rng, addr, deadline_ps):
    abuse = (b"FROBNICATE a b c\r\n",        # unknown verb
             b"SET onlykey\r\n",             # missing argument
             b"INCR proto:str\r\n",          # type confusion (see SET)
             b"SET proto:str notanint\r\n",
             b"HMGET missinghash f1 f2\r\n",  # issue-344 crash trigger
             b"GET\r\n")
    fd = yield from connect_with_retry(ctx, addr)
    while not _deadline(ctx, deadline_ps):
        line = abuse[rng.randrange(len(abuse))]
        try:
            yield from ctx.send(fd, line)
            response = yield from recv_until(ctx, fd, b"\r\n")
            if not response:
                fd = yield from _reconnect(ctx, fd, addr)
        except SysError:
            fd = yield from _reconnect(ctx, fd, addr)
        yield from ctx.nanosleep(rng.randint(1, 15) * MS_PS)
    yield from ctx.close(fd)


def _adv_flood(ctx, rng, addr, deadline_ps):
    fd = yield from connect_with_retry(ctx, addr)
    while not _deadline(ctx, deadline_ps):
        burst = bytes(rng.randrange(33, 127) for _ in range(
            rng.randint(200, 1200)))
        try:
            yield from ctx.send(fd, burst)
            # Drain occasionally so the server's writes never wedge the
            # whole accept loop behind one saturated socket.
            if rng.random() < 0.33:
                yield from ctx.recv(fd, 4096)
        except SysError:
            fd = yield from _reconnect(ctx, fd, addr)
        yield from ctx.nanosleep(rng.randint(500, 4000) * US_PS)
    yield from ctx.close(fd)


def _adv_reconnect(ctx, rng, addr, deadline_ps):
    while not _deadline(ctx, deadline_ps):
        fd = yield from connect_with_retry(ctx, addr)
        if rng.random() < 0.25:
            try:
                yield from ctx.send(fd, b"PING\r\n")
                yield from recv_until(ctx, fd, b"\r\n")
            except SysError:
                pass
        yield from ctx.close(fd)
        yield from ctx.nanosleep(rng.randint(200, 2500) * US_PS)


_BEHAVIOURS = {
    "slowloris": _adv_slowloris,
    "oversize": _adv_oversize,
    "truncate": _adv_truncate,
    "protocol": _adv_protocol,
    "flood": _adv_flood,
    "reconnect": _adv_reconnect,
}


def make_adversaries(mix: Tuple[str, ...] = ADVERSARIES, seed: int = 0,
                     duration_ps: int = SEC_PS
                     ) -> List[Tuple[str, str, object]]:
    """Build the byzantine fleet.

    Returns ``(machine_name, actor_name, main)`` triples ready for
    :func:`repro.clients.loadgen.spawn_pool`.  One actor per mix entry;
    repeat a name in ``mix`` to weight it.
    """
    unknown = sorted(set(mix) - set(_BEHAVIOURS))
    if unknown:
        raise ValueError(f"unknown adversaries {unknown}; "
                         f"known: {sorted(_BEHAVIOURS)}")
    addr = ("server", 6379)
    placements = []
    for index, name in enumerate(mix):
        behaviour = _BEHAVIOURS[name]
        rng = random.Random((seed << 20)
                            ^ (index * 0x9E3779B1)
                            ^ _SALTS[name])

        def main(ctx, _behaviour=behaviour, _rng=rng):
            deadline_ps = ctx.sim.now + duration_ps
            try:
                yield from _behaviour(ctx, _rng, addr, deadline_ps)
            except SysError:
                # The service died for good (every variant gone);
                # nothing left to torment.
                pass

        placements.append(("client", f"adv-{name}-{index}", main))
    return placements
