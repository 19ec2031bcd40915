#!/usr/bin/env python3
"""The repository's benchmark: five user-shaped workloads, host seconds
end to end, and a separate traced run that attributes them to layers.

    python bench/run.py                      # every workload, end to end
    python bench/run.py --runs 5             # ... pooled over 5 runs each
    python bench/run.py --trace              # the per-layer (traced) run
    python bench/run.py --workload guest_isa --seed 3 --seconds 10 --trace 0

One *run* of a workload starts a fresh child process that sets up
(import, input generation from ``--seed``, a scaled-down warm-up pass),
then repeats identical passes for ``--seconds``.  The passes of a run
do the same work to the byte, so what differs between their times is
interference from the host, which only ever adds time: the run's
``wall_s`` is its fastest pass.  Set-up is timed in SETUP_REPEATS fresh
children per run, and ``setup_s`` is the fastest of them for the same
reason.  Over ``--runs`` runs every metric is reported as the median of
the per-run values.  The
parent kills a child that overruns (a SIGALRM raised inside the
simulator is swallowed by generator code, so the guard has to sit at
process level).

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; see README.md.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `repro` is not installed: it is imported from the checkout's src/.
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import layers, metrics, probes  # noqa: E402
from bench.spans import Spans  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402

OUT_DIR = os.path.join(ROOT, "bench", "out")

#: Fresh children whose set-up time is taken per run (one of them goes
#: on to measure).
SETUP_REPEATS = 7
#: Size of the warm-up pass relative to a measured pass.
WARM_SCALE = 0.05
#: Every run makes at least this many passes, so that "same seed, same
#: bytes" is checked on every run however short.
MIN_PASSES = 2


# -- the child: one workload, one process ------------------------------------

def _timed_passes(run_pass, seconds: float, spans: Spans):
    """Repeat ``run_pass`` for ``seconds``; yield (pass seconds, result).

    Garbage from one pass is collected before the next is timed, so a
    pass pays for its own allocations only.
    """
    deadline = time.perf_counter() + seconds
    times = []
    # Stop when one more pass of the usual length would overrun.
    while len(times) < MIN_PASSES or (
            time.perf_counter() + statistics.median(times) < deadline):
        gc.collect()
        started = time.perf_counter()
        with spans.span("pass"):
            result = run_pass(spans)
        times.append(time.perf_counter() - started)
        yield times[-1], result


def _child_end_to_end(run_pass, seconds: float) -> dict:
    times, results = zip(*_timed_passes(run_pass, seconds, Spans(False)))
    return {
        "pass_s": times,
        "results": results,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _child_traced(workload, run_pass, seconds: float, seed: int) -> dict:
    # The reference pass runs with tracing off: traced passes are
    # compared with it for the overhead, and rates use its wall time.
    gc.collect()
    cpu_started = time.process_time()
    started = time.perf_counter()
    reference = run_pass(Spans(False))
    reference_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started

    spans = Spans(True)
    drained = []
    times, results = [], [reference]
    obs_metrics.start_collection()
    for elapsed, result in _timed_passes(run_pass, seconds, spans):
        times.append(elapsed)
        results.append(result)
        # Drain per pass: a registered session keeps its World alive.
        drained.append(obs_metrics.drain())
        obs_metrics.start_collection()
    obs_metrics.drain()
    passes = len(times)
    obs_counters = obs_metrics.merge_snapshots(drained)["counters"]

    def per_pass(total):
        value = total / passes
        return int(value) if value == int(value) else value

    merged = layers.Flat(spans.profiles.values())
    table, top_functions = layers.bucket(merged)

    values = {}
    for layer, row in table.items():
        values[f"{layer}.self_s"] = row["self_s"] / passes
        values[f"{layer}.calls"] = per_pass(row["calls"])
    for name, total in layers.call_counts(merged).items():
        values[name] = per_pass(total)
    for name, sources in metrics.OBS_COUNTS.items():
        values[name] = per_pass(sum(obs_counters.get(source, 0)
                                    for source in sources))
    for name in metrics.WORKLOAD_COUNTS:
        values[name] = reference.counts.get(name, 0)
    scans = values["kernel.epoll.scans"]
    values["kernel.epoll.polled_per_scan"] = (
        values["kernel.epoll.polled_fds"] / scans if scans else 0.0)
    events = values["sim.events"]
    values["sim.host_us_per_event"] = (
        reference_s * 1e6 / events if events else 0.0)
    values["isa.guest_mips"] = (
        values["isa.insns_retired"] / reference_s / 1e6)
    values["host.trace_overhead_x"] = (
        statistics.median(times) / reference_s)
    values["host.cpu_s"] = cpu_s
    values.update(probes.run_probes())

    missing = [name for name in workload.expects if not values.get(name)]
    if missing:
        raise SystemExit(
            f"{workload.name}: count(s) {missing} are zero; a function "
            f"named in bench/layers.py CALL_COUNTS or a repro.obs "
            f"counter in bench/metrics.py OBS_COUNTS moved")

    by_span = {}
    for name, profile in spans.profiles.items():
        span_table, _top = layers.bucket(layers.Flat([profile]), top=0)
        by_span[name] = {layer: row["self_s"] / passes
                         for layer, row in span_table.items()
                         if row["self_s"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
              "w") as fh:
        json.dump({
            "workload": workload.name, "seed": seed, "passes": passes,
            "reference_pass_s": reference_s, "traced_pass_s": times,
            "layer_share": layer_shares(values),
            "per_layer": values,
            "layer_self_s_by_span": by_span,
            "span_self_s": {name: total / passes for name, total
                            in spans.self_seconds().items()},
            "top_functions": top_functions,
            "spans": spans.records,
        }, fh, indent=1)
    return {"pass_s": times, "results": results, "per_layer": values}


def child_main(args) -> int:
    workload = WORKLOADS[args.workload]
    workload.prepare(args.seed, WARM_SCALE * args.scale)(Spans(False))
    run_pass = workload.prepare(args.seed, args.scale)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        if args.trace:
            out.update(_child_traced(workload, run_pass, args.seconds,
                                     args.seed))
        else:
            out.update(_child_end_to_end(run_pass, args.seconds))
        results = out.pop("results")
        out.update(
            ops=results[0].ops,
            attempted=sum(result.attempted for result in results),
            failed=sum(result.failed for result in results),
            sim_digest=hashlib.sha256(
                results[0].text.encode()).hexdigest(),
            digests_agree=len({result.text for result in results}) == 1,
            counts=results[0].counts)
    print(json.dumps(out))
    return 0


# -- the parent: spawn, guard, aggregate -------------------------------------

class RunFailed(Exception):
    """A child died, overran, or broke determinism."""


def _spawn(name: str, seed: int, seconds: float, scale: float, trace: int,
           setup_only: bool, deadline: float) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--scale", str(scale),
               "--trace", str(trace),
               "--spawned-at", repr(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RunFailed(f"{name}: child exceeded its time limit and was "
                        f"killed; all its operations count as failed")
    if child.returncode != 0:
        raise RunFailed(f"{name}: child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(name: str, seed: int, seconds: float, scale: float,
             trace: int) -> dict:
    """One run of one workload: the measuring child plus, end to end,
    the extra set-up-only children."""
    # Ten times a run's expected length, and always inside the 180 s a
    # driver allows one invocation.
    deadline = time.monotonic() + min(170.0, 10 * seconds + 30)
    record = _spawn(name, seed, seconds, scale, trace, False, deadline)
    if not record["digests_agree"]:
        raise RunFailed(f"{name}: sim_digest differs between passes of "
                        f"one seed: same seed must give same bytes")
    if record["attempted"] - record["failed"] <= 0:
        raise RunFailed(f"{name}: no operation succeeded")
    record["setup_s"] = [record["setup_s"]]
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            record["setup_s"].append(_spawn(
                name, seed, seconds, scale, trace, True,
                deadline)["setup_s"])
    return record


def summarise(samples) -> dict:
    ordered = sorted(samples)
    q1, _, q3 = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                 else (ordered[0],) * 3)
    return {"value": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered),
            "samples": list(samples)}


def aggregate(name: str, records, trace: int) -> dict:
    """Fold the runs of one workload into its result record."""
    digests = {record["sim_digest"] for record in records}
    if len(digests) != 1:
        raise RunFailed(f"{name}: sim_digest differs between runs of one "
                        f"seed: {sorted(digests)}")
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    out = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "ops": records[0]["ops"], "ops_unit": WORKLOADS[name].ops_unit,
        "sim_digest": records[0]["sim_digest"],
        "counts": records[0]["counts"],
    }
    if trace:
        units = {metric: unit for metric, unit, _ in metrics.per_layer()}
        out["metrics"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in records[0]["per_layer"].items()}
        return out
    per_run = {
        "wall_s": [min(record["pass_s"]) for record in records],
        "setup_s": [min(record["setup_s"]) for record in records],
        "peak_rss_mb": [record["peak_rss_mb"] for record in records],
    }
    out["metrics"] = {
        metric: dict(summarise(per_run[metric]), unit=unit)
        for metric, unit, _better, _bound in metrics.END_TO_END}
    out["pass_s"] = summarise(
        [t for record in records for t in record["pass_s"]])
    return out


# -- printing ----------------------------------------------------------------

def layer_shares(values: dict) -> dict:
    """Each layer's share of the traced self time, from per-layer
    metric values (plain numbers)."""
    total = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    return {layer: values[f"{layer}.self_s"] / total
            for layer in layers.LAYERS}


def print_end_to_end(name: str, record: dict) -> None:
    print(f"\n{name}: {WORKLOADS[name].why}")
    print(f"  {'metric':<14}{'unit':<6}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'min':>11}{'max':>11}{'runs':>5}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<14}{entry['unit']:<6}{entry['value']:>11.4f}"
              f"{entry['q1']:>11.4f}{entry['q3']:>11.4f}"
              f"{entry['min']:>11.4f}{entry['max']:>11.4f}"
              f"{entry['n']:>5}")
    wall = record["metrics"]["wall_s"]["value"]
    passes = record["pass_s"]
    print(f"  all {passes['n']} passes: median {passes['value']:.4f} s, "
          f"quartiles {passes['q1']:.4f}-{passes['q3']:.4f} s "
          f"(host interference; wall_s is each run's fastest)")
    print(f"  ops/wall_s    {record['ops'] / wall:,.0f} "
          f"{record['ops_unit']}/s ({record['ops']:,} per pass)")
    print(f"  failed_share  {record['failed_share']:.6f} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    for count, value in record["counts"].items():
        print(f"  {count}  {value}")
    print(f"  sim_digest    {record['sim_digest']}")


def print_per_layer(name: str, record: dict) -> None:
    units = {metric: entry["unit"]
             for metric, entry in record["metrics"].items()}
    values = {metric: entry["value"]
              for metric, entry in record["metrics"].items()}
    shares = layer_shares(values)
    total = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    print(f"\n{name}: per-layer, one traced pass "
          f"(shares of {total:.3f} s traced self time)")
    print(f"  {'layer':<18}{'self_s':>10}{'share':>8}{'calls':>12}")
    for layer in layers.LAYERS:
        print(f"  {layer:<18}{values.pop(f'{layer}.self_s'):>10.4f}"
              f"{shares[layer]:>8.1%}{values.pop(f'{layer}.calls'):>12,}")
    print(f"  {'sum':<18}{total:>10.4f}{sum(shares.values()):>8.1%}")
    for metric, value in values.items():
        shown = f"{value:,}" if isinstance(value, int) else f"{value:,.4f}"
        print(f"  {metric:<34}{shown:>16} {units[metric]}")
    print(f"  sim_digest    {record['sim_digest']}")


def history_line(results: dict, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    line = {"commit": commit, "python": platform.python_version(),
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "nproc": os.cpu_count(), "workloads": {}}
    for name, record in results.items():
        values = {metric: entry["value"]
                  for metric, entry in record["metrics"].items()}
        line["workloads"][name] = (
            {"layer_share": layer_shares(values)} if trace
            else {"wall_s": values["wall_s"]})
    return line


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long one run repeats passes for")
    parser.add_argument("--runs", type=int,
                        help="fresh-process runs per workload (default: "
                        "1 with --workload, else 5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer run instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="pass size (tests only; 1.0 when measuring)")
    parser.add_argument("--out", help="results file (default "
                        "bench/out/results.json, layers.json with --trace)")
    parser.add_argument("--append-history", metavar="PATH",
                        help="append one JSON line summarising this run")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        return child_main(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.runs is None:
        args.runs = 1 if args.workload else 5
    results, broken = {}, []
    for name in names:
        try:
            records = [run_once(name, args.seed, args.seconds, args.scale,
                                args.trace)
                       for _ in range(1 if args.trace else args.runs)]
            results[name] = aggregate(name, records, args.trace)
        except RunFailed as exc:
            print(f"FAILED {exc}", file=sys.stderr)
            broken.append(name)
            continue
        (print_per_layer if args.trace else print_end_to_end)(
            name, results[name])

    out_path = args.out or os.path.join(
        OUT_DIR, "layers.json" if args.trace else "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "runs": args.runs, "trace": args.trace,
                   "failed_workloads": broken, "workloads": results},
                  fh, indent=1)
    if args.append_history:
        with open(args.append_history, "a") as fh:
            fh.write(json.dumps(history_line(results, args.trace)) + "\n")
    if broken:
        return 1
    if args.workload:
        record = results[args.workload]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {metric: {"value": entry["value"],
                                 "unit": entry["unit"]}
                        for metric, entry in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
