"""BENCH_PERF assembly: timed run, A/B guards, sweep.

``full_bench`` is what ``python -m repro bench`` executes: the load
scenario, the fleet A/B verdict (fleet-of-1 vs single gateway, fleet-of-3
repeatability) and optionally the parallel section and the
goodput-vs-offered-load sweep.  The result serialises to
``BENCH_PERF.json``.
"""

from __future__ import annotations

import gc
import json
from typing import Iterable, Optional

from .determinism import fleet_check, parallel_check
from .loadgen import run_bench, sweep_bench

__all__ = ["full_bench", "report_to_json"]


def full_bench(users: int = 50, seed: int = 7,
               transactions_per_user: int = 4,
               horizon: float = 240.0,
               determinism_users: int = 20,
               sweep: Optional[Iterable[int]] = None,
               fleet: int = 0,
               workers: int = 0) -> dict:
    """Run the benchmark and assemble the BENCH_PERF report.

    ``sweep`` is an optional list of user counts for the
    goodput-vs-offered-load curve.  ``fleet`` > 0 runs the timed
    scenario (and the sweep) against an N-member gateway fleet and adds
    the fleet A/B guard (fleet-of-1 vs single gateway byte-identical;
    fleet-of-3 repeat byte-identical).  ``workers`` > 0 runs the timed
    scenario through the partitioned engine on that many processes,
    byte-compares the full-scale parallel run against the same
    decomposition executed sequentially (lockstep), records the
    speedup, and adds the ``parallel_check`` A/B guard.
    """
    parallel_section = _parallel_bench(users, seed, transactions_per_user,
                                       horizon, fleet, workers,
                                       determinism_users) \
        if workers > 0 else None
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

    opt_wall = optimized["measured"]["wall_seconds"]
    report = {
        "scenario": {
            "users": users,
            "seed": seed,
            "transactions_per_user": transactions_per_user,
            "horizon": horizon,
            "fleet": fleet,
            "workers": workers,
        },
        "optimized": optimized,
        "fleet_determinism": fleet_guard,
    }
    if parallel_section is not None:
        report["parallel"] = parallel_section
        if parallel_section.get("wall_seconds") and opt_wall > 0:
            report["speedup_parallel_vs_sequential"] = round(
                opt_wall / parallel_section["wall_seconds"], 3)
    if sweep is not None:
        report["sweep"] = sweep_bench(sweep, seed=seed,
                                      transactions_per_user=(
                                          transactions_per_user),
                                      horizon=horizon, fleet=fleet)
    return report


def _parallel_bench(users, seed, transactions_per_user, horizon,
                    fleet, workers, determinism_users) -> dict:
    """The ``--workers`` section: timed parallel run + equivalence.

    The full-scale scenario runs once on ``workers`` processes and once
    through the lockstep (single-process) execution of the *same*
    decomposition; the two deterministic sections are byte-compared, so
    the headline speedup number is only reported for a run that
    provably computed the sequential answer.  ``parallel_check``
    re-verifies the claim at guard scale across 1/2/4 workers.
    """
    from .parallel import run_parallel_bench

    parallel = run_parallel_bench(
        users=users, seed=seed,
        transactions_per_user=transactions_per_user, horizon=horizon,
        fleet=fleet, workers=workers)
    if "parallel_fallback" in parallel:
        return {
            "fallback": parallel["parallel_fallback"],
            "workers": workers,
            "guard": parallel_check(users=min(users, 24), seed=seed),
        }
    gc.collect()
    lockstep = run_parallel_bench(
        users=users, seed=seed,
        transactions_per_user=transactions_per_user, horizon=horizon,
        fleet=fleet, workers=1,
        shards=parallel["deterministic"]["parallel"]["shards"])
    gc.collect()
    identical = (
        json.dumps(parallel["deterministic"], indent=2, sort_keys=True)
        == json.dumps(lockstep["deterministic"], indent=2, sort_keys=True))
    guard = parallel_check(users=min(users, 24), seed=seed)
    wall = parallel["measured"]["wall_seconds"]
    lockstep_wall = lockstep["measured"]["wall_seconds"]
    return {
        "report": parallel,
        "workers": workers,
        "wall_seconds": wall,
        "lockstep_wall_seconds": lockstep_wall,
        "speedup_vs_lockstep": (round(lockstep_wall / wall, 3)
                                if wall > 0 else None),
        "aggregate_events_per_sec": parallel["measured"]["events_per_sec"],
        "identical_parallel_vs_lockstep": identical,
        "guard": guard,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
