"""Performance: the load-generation benchmark and its determinism guards.

``run_bench`` drives a fleet of simulated users through the full mobile
commerce transaction path (device -> gateway middleware -> wired network
-> web server -> database) and reports wall-clock throughput alongside a
fully deterministic summary of what the virtual run computed.
``sweep_bench`` repeats it across user counts to draw the
goodput-vs-offered-load curve.

``determinism_check`` is the guard for the optimization pass: it runs
fixed scenarios with the hot-path caches forced on and forced off and
compares the outputs byte for byte.  See :mod:`repro.opt`.
"""

from .determinism import determinism_check, fleet_check, parallel_check
from .loadgen import (
    bench_deterministic,
    bench_json,
    bench_resilience,
    build_bench_scenario,
    check_capacity_curve,
    run_bench,
    sweep_bench,
)
from .parallel import run_parallel_bench, run_parallel_chaos
from .report import full_bench, report_to_json

__all__ = ["run_bench", "sweep_bench", "bench_json", "bench_resilience",
           "bench_deterministic", "build_bench_scenario",
           "check_capacity_curve", "determinism_check", "fleet_check",
           "parallel_check", "run_parallel_bench", "run_parallel_chaos",
           "full_bench", "report_to_json"]
