"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --manifest``); the self-test checks that the
committed file still matches it.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 36

WORKLOADS = [
    ("overload",
     "run_bench at 500 users on one GPRS gateway, tracer on: past the "
     "knee, so sheds, retries, kernel, scheduler and obs report dominate"),
    ("fleet-outage",
     "run_chaos fleet-outage at 100 stations: 4-gateway fleet loses a "
     "member; below the knee, drives fleet, faults and resilience"),
    ("apps-mix",
     "all eight Table 1 flows over i-mode on 802.11b WLAN: DB writes "
     "beside reads, many distinct pages, WLAN MAC and cHTML"),
]

# Clients per workload at full size; the self-test runs the same code
# at a tiny size.
DEFAULT_SIZE = {"overload": 500, "fleet-outage": 100, "apps-mix": 100}

# (name, unit, better, bound).  Host figures are medians over the
# repetitions of one run, in seconds rescaled to one reference host speed
# (see speed.py); simulated figures are exact for a seed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("report_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("goodput_share", "ratio", "higher", 0.1),
    ("slo_10s_share", "ratio", "higher", 0.15),
    ("virt_latency_p50_s", "virtual_s", "lower", 0.15),
    ("virt_latency_p95_s", "virtual_s", "lower", 0.2),
]

HOST_LAYERS = (
    "sim.kernel", "sim.sched", "sim.support", "net.tcp", "net.link",
    "net.node", "net.dns", "net.other", "wireless", "middleware", "web",
    "db", "obs", "fleet", "resilience", "faults", "devices", "apps", "core",
    "security", "perf", "trace", "bench", "other")

VT_LAYERS = ("device", "middleware", "wireless", "wired", "web", "db", "app")

# (name, unit, better) of the traced run.
PER_LAYER = (
    [("trace_overhead_share", "share", "lower"),
     ("profile.host_s", "s", "lower")]
    + [(f"{layer}.host_share", "share", "lower") for layer in HOST_LAYERS]
    + [
        ("sim.kernel.events", "count", "lower"),
        ("sim.kernel.us_per_event", "us", "lower"),
        ("sim.sched.peak_depth", "count", "lower"),
        ("gc.pause_s", "s", "lower"),
        ("gc.collections", "count", "lower"),
        ("net.tcp.segments_sent", "count", "lower"),
        ("net.tcp.retransmitted_segments", "count", "lower"),
        ("net.tcp.timeouts", "count", "lower"),
        ("net.link.delivered", "count", "lower"),
        ("net.link.queue_drops", "count", "lower"),
        ("net.node.delivered", "count", "lower"),
        ("net.node.forwarded", "count", "lower"),
        ("net.node.drops", "count", "lower"),
        ("net.dns.lookups", "count", "lower"),
        ("wireless.delivered", "count", "lower"),
        ("wireless.queue_drops", "count", "lower"),
        ("wireless.frame_errors", "count", "lower"),
        ("wireless.air_backlog_peak", "count", "lower"),
        ("middleware.cache_hit_ratio", "ratio", "higher"),
        ("middleware.sheds", "count", "lower"),
        ("middleware.batches", "count", "lower"),
        ("middleware.queue_depth_peak", "count", "lower"),
        ("web.requests", "count", "lower"),
        ("web.shed_requests", "count", "lower"),
        ("db.queries", "count", "lower"),
        ("db.commits", "count", "lower"),
        ("db.rollbacks", "count", "lower"),
        ("db.writes", "count", "lower"),
        ("db.writes_per_txn", "ratio", "lower"),
        ("obs.report_s", "s", "lower"),
        ("obs.spans", "count", "lower"),
        ("fleet.probes", "count", "lower"),
        ("fleet.ejections", "count", "lower"),
        ("fleet.readmissions", "count", "higher"),
        ("resilience.retries", "count", "lower"),
        ("resilience.failovers", "count", "lower"),
        ("resilience.breaker_rejections", "count", "lower"),
        ("faults.injected", "count", "lower"),
        ("txn.offered", "count", "higher"),
        ("txn.not_started", "count", "lower"),
        ("txn.in_flight", "count", "lower"),
        ("txn.succeeded", "count", "higher"),
        ("txn.failed_shed", "count", "lower"),
        ("txn.failed_timeout", "count", "lower"),
        ("txn.failed_error", "count", "lower"),
    ]
    + [(f"vt.{layer}_s", "virtual_s", "lower") for layer in VT_LAYERS]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Simulated figures of ``run_bench(users=500, seed=7)`` as committed in
# BENCH_PERF.json: the overload workload must reproduce them.
OVERLOAD_SEED7 = {"kernel_events": 858143, "success_vs_offered": 0.5325,
                  "p95": 177.205322}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
