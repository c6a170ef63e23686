"""BENCH_PERF assembly: timed run, A/B guards, sweep.

``full_bench`` is what ``python -m repro bench`` executes: the load
scenario, the fleet A/B verdict (fleet-of-1 vs single gateway, fleet-of-3
repeatability) and optionally the goodput-vs-offered-load sweep.  The
result serialises to ``BENCH_PERF.json``.
"""

from __future__ import annotations

import gc
import json
from typing import Iterable, Optional

from .determinism import fleet_check
from .loadgen import run_bench, sweep_bench

__all__ = ["full_bench", "report_to_json"]


def full_bench(users: int = 50, seed: int = 7,
               transactions_per_user: int = 4,
               horizon: float = 240.0,
               determinism_users: int = 20,
               sweep: Optional[Iterable[int]] = None,
               fleet: int = 0) -> dict:
    """Run the benchmark and assemble the BENCH_PERF report.

    ``sweep`` is an optional list of user counts for the
    goodput-vs-offered-load curve.  ``fleet`` > 0 runs the timed
    scenario (and the sweep) against an N-member gateway fleet and adds
    the fleet A/B guard (fleet-of-1 vs single gateway byte-identical;
    fleet-of-3 repeat byte-identical).
    """
    # Warm-up pass so the timed run does not pay first-touch costs
    # (imports, code objects, allocator growth), then collect so it is
    # not timed under the warm-up's garbage.
    run_bench(users=min(users, 20), seed=seed,
              transactions_per_user=transactions_per_user,
              horizon=min(horizon, 60.0), fleet=fleet)
    gc.collect()
    optimized = run_bench(users=users, seed=seed,
                          transactions_per_user=transactions_per_user,
                          horizon=horizon, fleet=fleet)
    fleet_guard = fleet_check(users=min(users, determinism_users), seed=seed)

    report = {
        "scenario": {
            "users": users,
            "seed": seed,
            "transactions_per_user": transactions_per_user,
            "horizon": horizon,
            "fleet": fleet,
        },
        "optimized": optimized,
        "fleet_determinism": fleet_guard,
    }
    if sweep is not None:
        report["sweep"] = sweep_bench(sweep, seed=seed,
                                      transactions_per_user=(
                                          transactions_per_user),
                                      horizon=horizon, fleet=fleet)
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
