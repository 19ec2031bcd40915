"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro figure4
    python -m repro figure5 --scale 0.01
    python -m repro all --scale 0.01
    python -m repro sweep --jobs 4 --scale 0.008 --check-reference
    python -m repro sweep --jobs 4 --metrics
    python -m repro trace figure4 --out trace.json
    python -m repro trace distributed --placement remote --out trace.json
    python -m repro chaos --seed 7 --plans 20
    python -m repro chaos --seed 7 --plans 20 --placement remote
    python -m repro load --clients 1000 --rate 20000
    python -m repro load --scale 0.02 --out curves.txt
    python -m repro fuzz --seed 1 --budget 12
    python -m repro fuzz --seed 1 --budget 12 --out journal.txt
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Varan paper's tables and figures")
    parser.add_argument("experiment",
                        help="experiment id (see 'list'), 'all', 'list', "
                             "'sweep', 'trace', 'chaos', 'load' or "
                             "'fuzz'")
    parser.add_argument("target", nargs="?", default=None,
                        help="(trace) experiment id to trace")
    parser.add_argument("--scale", type=_positive, default=None,
                        help="workload scale factor for server benchmarks")
    parser.add_argument("--jobs", type=_at_least_one, default=1,
                        help="(sweep) worker processes; 1 = serial")
    parser.add_argument("--out", default=None,
                        help="(sweep) write the report to this file "
                             "instead of stdout; (trace) write the "
                             "Chrome trace_event JSON here")
    parser.add_argument("--check-reference", action="store_true",
                        help="(sweep) diff the report against "
                             "benchmarks/reference_sweep.txt; non-zero "
                             "exit on mismatch")
    parser.add_argument("--metrics", action="store_true",
                        help="(sweep) collect per-session metrics and "
                             "print the merged JSON snapshot to stdout")
    parser.add_argument("--jsonl", default=None,
                        help="(trace) also stream raw trace records to "
                             "this JSONL file")
    parser.add_argument("--seed", type=int, default=7,
                        help="(chaos/fuzz) master seed for workloads, "
                             "fault plans and scenario sampling")
    parser.add_argument("--budget", type=_at_least_one, default=12,
                        help="(fuzz) number of scenarios to run")
    parser.add_argument("--no-synthesis", action="store_true",
                        help="(fuzz) skip the BPF rule-synthesis pass")
    parser.add_argument("--plans", type=_at_least_one, default=20,
                        help="(chaos) number of (workload, fault plan) "
                             "pairs to run")
    parser.add_argument("--placement", choices=("local", "remote"),
                        default=None,
                        help="(chaos/trace) follower placement: 'local' "
                             "(shared-memory ring, default) or 'remote' "
                             "(networked ring to replica machines); "
                             "trace accepts it only for experiments "
                             "that take a placement")
    parser.add_argument("--clients", type=_at_least_one, default=None,
                        help="(load) open-loop client pool size before "
                             "--scale (default 1000)")
    parser.add_argument("--rate", type=_positive, default=None,
                        help="(load) aggregate offered load in requests "
                             "per virtual second before --scale "
                             "(default 20000)")
    return parser


def run_sweep_command(args) -> int:
    from repro.experiments import runner

    started = time.time()
    results = runner.run_sweep(jobs=args.jobs, scale=args.scale,
                               collect_metrics=args.metrics)
    report = runner.render_sweep(results, scale=args.scale)
    elapsed = time.time() - started
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"[sweep written to {args.out} in {elapsed:.1f}s "
              f"with --jobs {args.jobs}]")
    else:
        print(report, end="")
        print(f"[sweep completed in {elapsed:.1f}s "
              f"with --jobs {args.jobs}]")
    if args.metrics:
        # Metrics go to stdout, never into --out: the report file must
        # stay byte-comparable against the committed reference.
        print(runner.render_metrics(results))
    if args.check_reference:
        with open(runner.reference_path()) as fh:
            reference = fh.read()
        diffs = runner.compare_reports(report, reference)
        if diffs:
            print(f"sweep DIFFERS from reference "
                  f"({len(diffs)} lines):", file=sys.stderr)
            for diff in diffs[:20]:
                print(f"  {diff}", file=sys.stderr)
            return 1
        print("sweep matches benchmarks/reference_sweep.txt")
    return 0


def run_chaos_command(args) -> int:
    """Randomized fault-injection runs under the invariant checker.

    The journal (stdout or --out) is byte-identical across runs of the
    same --seed/--plans; exit status is non-zero when any surviving
    variant's output diverged from the fault-free baseline or any NVX
    invariant was violated.
    """
    from repro.faults.chaos import run_chaos

    journal, failures = run_chaos(args.seed, args.plans,
                                  placement=args.placement or "local")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(journal)
        print(f"[chaos journal written to {args.out}]")
    else:
        print(journal, end="")
    return 1 if failures else 0


def run_load_command(args) -> int:
    """Drive the open-loop load-generation plane and print its curves.

    Deterministic: the same flags produce a byte-identical report run
    to run — CI compares two runs with cmp.
    """
    from repro.experiments.registry import ExperimentConfig, run_experiment

    options = [("seed", args.seed)]
    if args.clients is not None:
        options.append(("clients", args.clients))
    if args.rate is not None:
        options.append(("rate_rps", args.rate))
    config = ExperimentConfig(scale=args.scale,
                              options=tuple(sorted(options)))
    started = time.time()
    result = run_experiment("loadcurve", config=config)
    report = result.render() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"[load curves written to {args.out} in "
              f"{time.time() - started:.1f}s]")
    else:
        print(report, end="")
    return 0


def run_fuzz_command(args) -> int:
    """Drive the scenario fuzzer's autopilot.

    The report (journal + synthesized rules) is byte-identical across
    runs of the same --seed/--budget — CI cmp-checks two runs.  Exit
    status is non-zero when any scenario produced an output mismatch or
    invariant violation that no synthesized rule absorbed.
    """
    from repro.fuzz import run_fuzz

    started = time.time()
    report = run_fuzz(seed=args.seed, budget=args.budget,
                      synthesis=not args.no_synthesis)
    text = report.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"[fuzz report written to {args.out} in "
              f"{time.time() - started:.1f}s]")
    else:
        print(text, end="")
    counts = report.journal.counts()
    bad = counts["mismatch"] + counts["violation"] + counts["deadlock"]
    return 1 if bad else 0


def run_trace_command(args) -> int:
    """Run one experiment with tracing armed and export a Chrome trace.

    The trace derives from sim state only, so two runs with the same
    arguments produce byte-identical files.
    """
    from repro import obs
    from repro.errors import NvxError
    from repro.experiments.registry import (
        EXPERIMENTS,
        ExperimentConfig,
        run_experiment,
    )

    if args.target is None:
        print("usage: python -m repro trace <experiment> --out trace.json",
              file=sys.stderr)
        return 2
    if args.target not in EXPERIMENTS:
        print(f"unknown experiment {args.target!r}; try 'list'",
              file=sys.stderr)
        return 2
    if args.out is None:
        print("trace requires --out <file>", file=sys.stderr)
        return 2
    sinks = [obs.MemorySink()]
    if args.jsonl:
        sinks.append(obs.JsonlSink(args.jsonl))
    tracer = obs.Tracer(sinks=sinks)
    # --placement is only forwarded when given explicitly: drivers that
    # take no placement keyword reject the option by name.
    options = (() if args.placement is None
               else (("placement", args.placement),))
    config = ExperimentConfig(scale=args.scale, options=options)
    try:
        with obs.tracing(tracer):
            run_experiment(args.target, config=config)
    except NvxError as exc:
        tracer.close()
        print(f"trace {args.target}: {exc}", file=sys.stderr)
        return 2
    records = tracer.records
    with open(args.out, "w") as fh:
        fh.write(obs.chrome_trace_json(records))
    tracer.close()
    print(f"[{args.target}: {len(records)} trace events -> {args.out}]")
    return 0


def main(argv=None) -> int:
    from repro.experiments.registry import (
        EXPERIMENTS,
        ExperimentConfig,
        run_experiment,
    )

    args = build_parser().parse_args(argv)
    if args.placement is not None and args.experiment not in ("chaos",
                                                              "trace"):
        print(f"--placement applies to chaos and trace only, not "
              f"{args.experiment!r}", file=sys.stderr)
        return 2
    if args.experiment == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    if args.experiment == "sweep":
        return run_sweep_command(args)
    if args.experiment == "trace":
        return run_trace_command(args)
    if args.experiment == "chaos":
        return run_chaos_command(args)
    if args.experiment == "load":
        return run_load_command(args)
    if args.experiment == "fuzz":
        return run_fuzz_command(args)

    chosen = (sorted(EXPERIMENTS) if args.experiment == "all"
              else [args.experiment])
    for experiment_id in chosen:
        if experiment_id not in EXPERIMENTS:
            print(f"unknown experiment {experiment_id!r}; "
                  f"try 'list'", file=sys.stderr)
            return 2
        started = time.time()
        result = run_experiment(experiment_id,
                                config=ExperimentConfig(scale=args.scale))
        print(result.render())
        print(f"[{experiment_id} regenerated in "
              f"{time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``list | head``).  Point stdout at
        # devnull so the interpreter's own final flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
