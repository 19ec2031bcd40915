"""Table 2 — comparison with prior NVX systems on their own benchmarks.

Each row runs the benchmark its original paper used, under (a) the
ptrace-lockstep monitor calibrated for that system and (b) Varan with
one follower (prior systems only handle two versions).
"""

from __future__ import annotations

from repro.apps import (
    APACHE_HTTPD,
    LIGHTTPD,
    THTTPD,
    ServerStats,
    httpd_image,
    make_httpd,
    make_redis,
    redis_image,
)
from repro.clients import (
    make_apachebench,
    make_http_load,
    make_redis_benchmark,
)
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import (
    MONITOR_NATIVE,
    MONITOR_VARAN,
    ExperimentResult,
    overhead,
    run_server_benchmark,
)
from repro.experiments.spec_common import spec_overheads
from repro.nvx.lockstep import MX_PROFILE, ORCHESTRA_PROFILE, TACHYON_PROFILE

#: Table 2 as printed in the paper: (system, benchmark) → (their
#: overhead, Varan's overhead).  Ratios are ×, percentages are /100.
PAPER_TABLE2 = {
    ("mx", "lighttpd-http_load"): (3.49, 1.01),
    ("mx", "redis-benchmark"): (16.72, 1.06),
    ("mx", "spec-cpu2006"): (1.179, 1.142),
    ("orchestra", "apache-ab"): (1.50, 1.024),
    ("orchestra", "spec-cpu2000"): (1.17, 1.113),
    ("tachyon", "lighttpd-ab"): (3.72, 1.00),
    ("tachyon", "thttpd-ab"): (1.17, 1.00),
}

_SERVER_ROWS = (
    # (system, row name, profile, server factory, image, client factory)
    ("mx", "lighttpd-http_load", MX_PROFILE,
     lambda: make_httpd(LIGHTTPD, stats=ServerStats()),
     lambda: httpd_image(LIGHTTPD),
     lambda scale: make_http_load(parallel=2, scale=scale)),
    ("mx", "redis-benchmark", MX_PROFILE,
     lambda: make_redis(stats=ServerStats(), background_thread=False),
     redis_image,
     lambda scale: make_redis_benchmark(scale=scale * 4)),
    ("orchestra", "apache-ab", ORCHESTRA_PROFILE,
     lambda: make_httpd(APACHE_HTTPD, stats=ServerStats()),
     lambda: httpd_image(APACHE_HTTPD),
     lambda scale: make_apachebench(concurrency=2, scale=scale)),
    ("tachyon", "lighttpd-ab", TACHYON_PROFILE,
     lambda: make_httpd(LIGHTTPD, stats=ServerStats()),
     lambda: httpd_image(LIGHTTPD),
     lambda scale: make_apachebench(concurrency=2, scale=scale)),
    ("tachyon", "thttpd-ab", TACHYON_PROFILE,
     lambda: make_httpd(THTTPD, stats=ServerStats()),
     lambda: httpd_image(THTTPD),
     lambda scale: make_apachebench(concurrency=2, scale=scale)),
)


#: SPEC suite rows: (system, suite, lockstep profile).
_SPEC_ROWS = (
    ("mx", "cpu2006", MX_PROFILE),
    ("orchestra", "cpu2000", ORCHESTRA_PROFILE),
)


def run_server_row(profile, server, image, client, scale: float = 0.05):
    """One Table 2 server row: prior-system vs Varan overhead."""
    native = run_server_benchmark(server, lambda: client(scale),
                                  monitor=MONITOR_NATIVE)
    prior = run_server_benchmark(server, lambda: client(scale),
                                 monitor="lockstep", followers=1,
                                 lockstep_profile=profile)
    varan = run_server_benchmark(server, lambda: client(scale),
                                 monitor=MONITOR_VARAN, followers=1,
                                 image_factory=image)
    return overhead(native, prior), overhead(native, varan)


def parts():
    """Sweep decomposition: compound ``kind:system:name`` part keys."""
    keys = [f"server:{system}:{name}"
            for system, name, *_rest in _SERVER_ROWS]
    keys += [f"spec:{system}:{suite}" for system, suite, _ in _SPEC_ROWS]
    return keys


def run(config=None, scale: float = 0.05, spec_scale: float = 0.2,
        rows=None, suites=None) -> ExperimentResult:
    """``rows``/``suites`` select subsets of the server rows / SPEC
    suite rows by (system, name) pairs (sweep-runner decomposition);
    None means all of them, in table order."""
    opts = apply_config(config, scale=scale, spec_scale=spec_scale,
                        rows=rows, suites=suites)
    scale, spec_scale = opts["scale"], opts["spec_scale"]
    rows, suites = opts["rows"], opts["suites"]
    if config is not None and config.parts is not None:
        # Compound part keys: split back into row/suite selectors.
        rows, suites = [], []
        for part in config.parts:
            kind, system, name = part.split(":", 2)
            (rows if kind == "server" else suites).append((system, name))
    if rows is None:
        server_rows = _SERVER_ROWS
    else:
        wanted = set(rows)
        server_rows = tuple(entry for entry in _SERVER_ROWS
                            if (entry[0], entry[1]) in wanted)
    if suites is None:
        spec_rows = _SPEC_ROWS
    else:
        wanted = set(suites)
        spec_rows = tuple(entry for entry in _SPEC_ROWS
                          if (entry[0], entry[1]) in wanted)
    result = ExperimentResult(
        "table2", "Comparison with Mx, Orchestra and Tachyon",
        paper_reference=PAPER_TABLE2,
        notes="two versions, as prior systems support")
    for system, name, profile, server, image, client in server_rows:
        prior_oh, varan_oh = run_server_row(profile, server, image, client,
                                            scale)
        paper_prior, paper_varan = PAPER_TABLE2[(system, name)]
        result.rows.append({
            "system": system, "benchmark": name,
            "prior": prior_oh, "varan": varan_oh,
            "paper_prior": paper_prior, "paper_varan": paper_varan,
        })

    # SPEC suite rows: geometric-mean overheads across the suite.
    for system, suite, profile in spec_rows:
        prior_oh, varan_oh = spec_overheads(suite, profile,
                                            scale=spec_scale)
        paper_prior, paper_varan = PAPER_TABLE2[(system, f"spec-{suite}")]
        result.rows.append({
            "system": system, "benchmark": f"spec-{suite}",
            "prior": prior_oh, "varan": varan_oh,
            "paper_prior": paper_prior, "paper_varan": paper_varan,
        })
    return result
