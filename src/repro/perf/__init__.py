"""Performance: the load-generation benchmark and its determinism guards.

``run_bench`` drives a fleet of simulated users through the full mobile
commerce transaction path (device -> gateway middleware -> wired network
-> web server -> database) and reports wall-clock throughput alongside a
fully deterministic summary of what the virtual run computed.
``sweep_bench`` repeats it across user counts to draw the
goodput-vs-offered-load curve.

``GCIsolation`` is the host-GC policy ``run_bench``'s measured loop
runs under; ``fleet_check`` is the byte-identity guard for the fleet
wiring.
"""

from .determinism import fleet_check
from .loadgen import (
    GCIsolation,
    bench_deterministic,
    bench_json,
    bench_resilience,
    build_bench_scenario,
    check_capacity_curve,
    run_bench,
    sweep_bench,
)
from .report import full_bench, report_to_json

__all__ = ["run_bench", "sweep_bench", "bench_json", "bench_resilience",
           "bench_deterministic", "build_bench_scenario",
           "check_capacity_curve", "fleet_check", "GCIsolation",
           "full_bench", "report_to_json"]
