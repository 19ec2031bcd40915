#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py``.

    python bench/compare.py A.json B.json      # A is the base, B the change

Per workload and end-to-end metric it prints both medians with their
quartiles, the ratio B/A, and a verdict:

  improved    B's median is better by more than the wider of the two
              interquartile ranges
  unchanged   neither better by that much nor worse by more than the bound
  worse       B's median is worse than A's by more than the metric's bound
  unresolved  the run-to-run spread (IQR / median, either side) exceeds
              the bound and the two sample sets overlap, so the files
              cannot tell

``failed_share`` may not rise at all and ``paper.figure5_err`` by no
more than 0.02 absolute.  Exits 1 on any "worse"; a ``sim_digest`` that
differs is reported but does not fail the comparison, because a change
to the model legitimately moves it.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.metrics import (  # noqa: E402
    END_TO_END,
    FAILED_SHARE_BOUND,
    PAPER_ERR_ABS_BOUND,
)

IMPROVED, UNCHANGED, WORSE, UNRESOLVED = (
    "improved", "unchanged", "worse", "unresolved")


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    """Judge one metric from two ``summarise()`` records."""
    sign = 1.0 if better == "lower" else -1.0
    # Work in "lower is better" terms from here on.
    a, b = sign * base["value"], sign * change["value"]
    a_samples = [sign * v for v in base["samples"]]
    b_samples = [sign * v for v in change["samples"]]
    scale = abs(base["value"])
    iqr = max(base["q3"] - base["q1"], change["q3"] - change["q1"])
    disjoint_better = max(b_samples) < min(a_samples)
    disjoint_worse = min(b_samples) > max(a_samples)
    spread = max((base["q3"] - base["q1"]) / abs(base["value"]),
                 (change["q3"] - change["q1"]) / abs(change["value"]))
    if spread > bound and not (disjoint_better or disjoint_worse):
        return UNRESOLVED
    if b - a > bound * scale:
        return WORSE
    # One sample a side has no spread to beat; fall back on the bound.
    if a - b > (iqr if min(base["n"], change["n"]) > 1 else bound * scale):
        return IMPROVED
    return UNCHANGED


def compare(base: dict, change: dict):
    """Yield (workload, metric, base text, change text, ratio, verdict)."""
    for name, a in base["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            yield name, "-", "present", "missing", "", WORSE
            continue
        for metric, _unit, better, bound in END_TO_END:
            ma, mb = a["metrics"][metric], b["metrics"][metric]
            yield (name, metric, _show(ma), _show(mb),
                   f"{mb['value'] / ma['value']:.3f}x of {ma['value']:.4f}",
                   verdict(ma, mb, better, bound))
        rose = b["failed_share"] - a["failed_share"] > FAILED_SHARE_BOUND
        yield (name, "failed_share", f"{a['failed_share']:.6f}",
               f"{b['failed_share']:.6f}",
               f"{b['failed']}/{b['attempted']} vs "
               f"{a['failed']}/{a['attempted']}",
               WORSE if rose else UNCHANGED)
        err_a = a["counts"].get("paper.figure5_err")
        err_b = b["counts"].get("paper.figure5_err")
        if err_a is not None and err_b is not None:
            yield (name, "paper.figure5_err", f"{err_a:.4f}", f"{err_b:.4f}",
                   f"{err_b - err_a:+.4f} absolute",
                   WORSE if err_b - err_a > PAPER_ERR_ABS_BOUND
                   else UNCHANGED)
        same = a["sim_digest"] == b["sim_digest"]
        yield (name, "sim_digest", a["sim_digest"][:12],
               b["sim_digest"][:12], "", "identical" if same else "DIFFERS")


def _show(entry: dict) -> str:
    return (f"{entry['value']:.4f} [{entry['q1']:.4f}, {entry['q3']:.4f}] "
            f"n={entry['n']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    worse = False
    print(f"{'workload':<12}{'metric':<19}{'base median [q1, q3]':<36}"
          f"{'change median [q1, q3]':<36}{'ratio (base)':<26}verdict")
    for name, metric, left, right, ratio, outcome in compare(base, change):
        print(f"{name:<12}{metric:<19}{left:<36}{right:<36}{ratio:<26}"
              f"{outcome}")
        worse = worse or outcome == WORSE
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
