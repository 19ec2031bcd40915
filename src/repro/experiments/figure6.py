"""Figure 6 — prior-work servers under Varan, 0-6 followers.

Apache httpd, thttpd and Lighttpd (under both ApacheBench and
http_load), showing that on the workloads used to evaluate prior NVX
systems Varan scales essentially flat with the number of followers.
"""

from __future__ import annotations

from repro.apps import (
    APACHE_HTTPD,
    LIGHTTPD,
    THTTPD,
    ServerStats,
    httpd_image,
    make_httpd,
)
from repro.clients import make_apachebench, make_http_load
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import (
    MONITOR_NATIVE,
    MONITOR_VARAN,
    ExperimentResult,
    overhead,
    run_server_benchmark,
)

PAPER_FIGURE6 = {
    "apache-ab": (1.00, 1.02, 1.04, 1.03, 1.04, 1.04, 1.04),
    "thttpd-ab": (1.00, 1.00, 1.00, 1.01, 1.01, 1.01, 1.02),
    "lighttpd-ab": (1.00, 1.00, 1.00, 1.02, 1.04, 1.05, 1.07),
    "lighttpd-http_load": (1.00, 1.01, 1.03, 1.05, 1.06, 1.08, 1.08),
}

#: ab/http_load drive one request per connection at low concurrency:
#: the servers are latency-bound, not saturated — which is why the
#: paper's Figure 6 lines stay essentially flat.
_AB_CONCURRENCY = 2

_ROWS = (
    ("apache-ab", APACHE_HTTPD,
     lambda scale: make_apachebench(concurrency=_AB_CONCURRENCY,
                                    scale=scale)),
    ("thttpd-ab", THTTPD,
     lambda scale: make_apachebench(concurrency=_AB_CONCURRENCY,
                                    scale=scale)),
    ("lighttpd-ab", LIGHTTPD,
     lambda scale: make_apachebench(concurrency=_AB_CONCURRENCY,
                                    scale=scale)),
    ("lighttpd-http_load", LIGHTTPD,
     lambda scale: make_http_load(parallel=_AB_CONCURRENCY,
                                  scale=scale)),
)


def run_row(profile, client, follower_counts, scale):
    server = lambda: make_httpd(profile, stats=ServerStats())
    image = lambda: httpd_image(profile)
    native = run_server_benchmark(server, lambda: client(scale),
                                  monitor=MONITOR_NATIVE)
    overheads = {}
    for followers in follower_counts:
        varan = run_server_benchmark(server, lambda: client(scale),
                                     monitor=MONITOR_VARAN,
                                     followers=followers,
                                     image_factory=image)
        overheads[followers] = overhead(native, varan)
    return overheads


def parts():
    """Sweep decomposition: one part per (server, client tool) row."""
    return [name for name, _profile, _client in _ROWS]


def run(config=None, follower_counts=(0, 1, 2, 3, 4, 5, 6),
        scale: float = 0.05, rows=None) -> ExperimentResult:
    """``rows`` selects a subset of server rows by name (sweep-runner
    decomposition); None means all of them, in table order."""
    opts = apply_config(config, parts_key="rows", rows=rows,
                        follower_counts=follower_counts, scale=scale)
    rows = opts["rows"]
    follower_counts = opts["follower_counts"]
    scale = opts["scale"]
    if rows is None:
        selected = _ROWS
    else:
        by_name = {name: entry for entry in _ROWS for name in (entry[0],)}
        selected = tuple(by_name[name] for name in rows)
    result = ExperimentResult(
        "figure6", "Prior-work servers under Varan vs follower count",
        paper_reference=PAPER_FIGURE6)
    for name, profile, client in selected:
        overheads = run_row(profile, client, follower_counts, scale)
        row = {"server": name}
        for followers in follower_counts:
            row[f"f{followers}"] = overheads[followers]
            row[f"paper_f{followers}"] = PAPER_FIGURE6[name][followers]
        result.rows.append(row)
    return result
