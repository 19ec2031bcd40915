"""Tests for the syscall gate dispatch paths and the ProcessContext API."""

import pytest

from repro import obs
from repro.costmodel import DEFAULT_COSTS, cycles
from repro.kernel.task import PATCH_INT, PATCH_JMP, PATCH_VDSO
from repro.kernel.uapi import Syscall, SysResult
from repro.world import World


def run_main(main, configure=None):
    world = World()
    task = world.kernel.spawn_task(world.server, main, name="t")
    if configure is not None:
        configure(task)
    world.run()
    thread = task.threads[0]
    if thread.exception is not None:
        raise thread.exception
    return thread.result, world, task


class TestGateDispatch:
    def test_native_path_has_no_intercept_charge(self):
        def main(ctx):
            yield from ctx.syscall("close", -1)

        _, world, _ = run_main(main)
        native_only = world.now

        def configure(task):
            task.gate.intercepting = True

        _, world2, _ = run_main(main, configure)
        fast = cycles(DEFAULT_COSTS.intercept.fast_path)
        assert world2.now - native_only == pytest.approx(fast, abs=300)

    def test_int_site_charges_slow_path(self):
        def main(ctx):
            yield from ctx.syscall("close", -1, site="hot")

        def configure_jmp(task):
            task.gate.intercepting = True
            task.gate.patch_kinds = {"hot": PATCH_JMP}

        def configure_int(task):
            task.gate.intercepting = True
            task.gate.patch_kinds = {"hot": PATCH_INT}

        _, world_jmp, _ = run_main(main, configure_jmp)
        _, world_int, _ = run_main(main, configure_int)
        delta = world_int.now - world_jmp.now
        expected = cycles(DEFAULT_COSTS.intercept.slow_path
                          - DEFAULT_COSTS.intercept.fast_path)
        assert delta == pytest.approx(expected, abs=300)

    def test_vdso_calls_use_stub_cost(self):
        def main(ctx):
            yield from ctx.time()

        def configure(task):
            task.gate.intercepting = True

        _, world, task = run_main(main, configure)
        expected = cycles(DEFAULT_COSTS.intercept.vdso_stub
                          + DEFAULT_COSTS.syscalls.native("time"))
        assert world.now == pytest.approx(expected, abs=300)

    @pytest.mark.parametrize("call, kind, charge", [
        ("close", PATCH_JMP, "fast_path"),
        ("close", PATCH_INT, "slow_path"),
        ("close", None, "fast_path"),  # unpatched site: JMP by default
        ("time", PATCH_INT, "vdso_stub"),  # vDSO wins over the site kind
    ])
    def test_charge_follows_the_site_not_the_call_name(self, call, kind,
                                                       charge):
        # One gate, one call name, two sites patched differently: the
        # prebuilt command is picked per site, never cached per name.
        def main(ctx):
            yield from ctx.syscall(call, -1, site="other")
            yield from ctx.syscall(call, -1, site="hot")

        def configure(task):
            task.gate.intercepting = True
            task.gate.patch_kinds = {"other": PATCH_JMP}
            if kind is not None:
                task.gate.patch_kinds["hot"] = kind

        _, world, task = run_main(main, configure)
        native = cycles(DEFAULT_COSTS.syscalls.native(call))
        first = "vdso_stub" if charge == "vdso_stub" else "fast_path"
        expected = 2 * native + sum(
            cycles(getattr(DEFAULT_COSTS.intercept, name))
            for name in (first, charge))
        assert task.threads[0].cpu_ps == world.now == expected

    def test_gate_without_interception_charge_is_still_a_dispatch(self):
        def main(ctx):
            yield from ctx.syscall("close", -1, site="hot")
            yield from ctx.time()

        def configure(task):
            task.gate.intercepting = True
            task.gate.patch_kinds = {"hot": PATCH_INT}
            task.gate.charge_no_interception()

        _, world, task = run_main(main, configure)
        _, native_world, native_task = run_main(main)
        assert task.threads[0].cpu_ps == native_task.threads[0].cpu_ps
        assert world.now == native_world.now
        # The zero-length charge is still yielded: one scheduling point
        # (engine event) per intercepted call.
        assert (world.sim.events_processed
                == native_world.sim.events_processed + 2)

    def test_traced_and_untraced_dispatch_end_at_the_same_time(self):
        def main(ctx):
            yield from ctx.syscall("close", -1, site="hot")
            yield from ctx.time()
            result = yield from ctx.syscall("getuid")
            return result.retval

        def handled(task, call):
            return SysResult(4242)
            yield  # pragma: no cover

        def configure(task):
            task.gate.intercepting = True
            task.gate.patch_kinds = {"hot": PATCH_INT}
            task.gate.table = {"getuid": handled}

        plain, world, _ = run_main(main, configure)
        with obs.tracing() as tracer:
            traced, traced_world, _ = run_main(main, configure)
        assert plain == traced == 4242
        assert traced_world.now == world.now
        assert (traced_world.sim.events_processed
                == world.sim.events_processed)
        spans = [(r.name, r.ts, r.dur, dict(r.args)["role"])
                 for r in tracer.records if r.cat == "syscall"]
        slow = cycles(DEFAULT_COSTS.intercept.slow_path
                      + DEFAULT_COSTS.syscalls.native("close"))
        assert spans[0] == ("close", 0, slow, "intercept")
        assert [name for name, *_ in spans] == ["close", "time", "getuid"]

    def test_installed_table_handles_call(self):
        seen = []

        def fake_close(task, call):
            seen.append(call.name)
            return SysResult(0)
            yield  # pragma: no cover

        def main(ctx):
            result = yield from ctx.syscall("close", 5)
            return result.retval

        def configure(task):
            task.gate.intercepting = True
            task.gate.table = {"close": fake_close}

        result, _, _ = run_main(main, configure)
        assert result == 0 and seen == ["close"]

    def test_default_handler_catches_unlisted_calls(self):
        def default(task, call):
            return SysResult(-99)
            yield  # pragma: no cover

        def main(ctx):
            result = yield from ctx.syscall("getuid")
            return result.retval

        def configure(task):
            task.gate.intercepting = True
            task.gate.table = {}
            task.gate.default_handler = default

        result, _, _ = run_main(main, configure)
        assert result == -99

    def test_syscall_counts_tracked(self):
        # Every dispatch passes the pre-dispatch hook the fault injector
        # counts calls with.
        seen = []

        def count(task, call):
            seen.append(call.name)
            yield from ()

        def main(ctx):
            for _ in range(3):
                yield from ctx.time()
            yield from ctx.getuid()

        def configure(task):
            task.gate.pre_dispatch = count

        run_main(main, configure)
        assert seen == ["time"] * 3 + ["getuid"]


class TestContextApi:
    def test_site_defaults_to_call_name(self):
        def main(ctx):
            result = yield from ctx.syscall("getuid")
            return result

        result, _, _ = run_main(main)
        assert result.ok

    def test_compute_burns_virtual_time(self):
        def main(ctx):
            yield from ctx.compute(1000)

        _, world, _ = run_main(main)
        assert world.now == cycles(1000)

    def test_unknown_syscall_returns_enosys(self):
        from repro.kernel.uapi import ENOSYS

        def main(ctx):
            result = yield from ctx.syscall("not_a_real_call")
            return result.retval

        result, _, _ = run_main(main)
        assert result == -ENOSYS

    def test_unimplemented_syscall_returns_enosys(self):
        from repro.kernel.uapi import ENOSYS

        def main(ctx):
            result = yield from ctx.syscall("shmget")
            return result.retval

        result, _, _ = run_main(main)
        assert result == -ENOSYS

    def test_nanosleep_advances_clock(self):
        def main(ctx):
            before = ctx.sim.now
            yield from ctx.nanosleep(5_000_000)
            return ctx.sim.now - before

        result, _, _ = run_main(main)
        assert result >= 5_000_000


class TestNetworkModel:
    def test_bandwidth_delay_scales_with_size(self):
        from repro.sim.network import Network
        from repro.sim import Machine, Simulator

        sim = Simulator()
        a = Machine(sim, name="a")
        b = Machine(sim, name="b")
        net = Network(sim)
        arrivals = {}
        net.deliver(a, b, 100, lambda: arrivals.setdefault("small",
                                                           sim.now))
        net.deliver(a, b, 100_000, lambda: arrivals.setdefault("big",
                                                               sim.now))
        sim.run()
        assert arrivals["big"] > arrivals["small"]

    def test_loopback_is_fast(self):
        from repro.sim.network import Network
        from repro.sim import Machine, Simulator

        sim = Simulator()
        a = Machine(sim, name="a")
        net = Network(sim)
        seen = {}
        net.deliver(a, a, 1_000_000, lambda: seen.setdefault("t",
                                                             sim.now))
        sim.run()
        assert seen["t"] < 10_000  # no bandwidth cap on loopback

    def test_serialized_mode_orders_transmissions(self):
        from repro.sim.network import Network
        from repro.sim import Machine, Simulator

        sim = Simulator()
        a = Machine(sim, name="a")
        b = Machine(sim, name="b")
        net = Network(sim)
        net.serialize = True
        order = []
        net.deliver(a, b, 50_000, lambda: order.append("first"))
        net.deliver(a, b, 10, lambda: order.append("second"))
        sim.run()
        # The small message queues behind the big one per direction.
        assert order == ["first", "second"]


class TestWorld:
    def test_two_machines_exist(self):
        world = World()
        assert world.server.name == "server"
        assert world.client.name == "client"

    def test_filesystems_are_per_machine(self):
        world = World()
        world.kernel.fs(world.server).create("/tmp/x", b"server-side")
        assert world.kernel.fs(world.client).lookup("/tmp/x") is None

    def test_custom_cost_model(self):
        from repro.costmodel import MachineSpec
        from repro.sim.machine import Machine

        # A world's machines take the cost model's MachineSpec; a machine
        # built on the world's engine takes any other.
        world = World()
        small = Machine(world.sim, MachineSpec(logical_cores=2,
                                               physical_cores=1))
        assert small.spec.logical_cores == small.free_cores == 2
        assert world.server.spec is world.costs.machine
