"""Byte-identity guards: fleet wiring and the parallel engine.

Each guard runs fixed scenarios more than one way and compares the
canonical JSON of their ``deterministic`` sections byte for byte:
:func:`fleet_check` for the gateway-fleet wiring (DESIGN §14) and
:func:`parallel_check` for the conservative parallel engine (DESIGN §15).
"""

from __future__ import annotations

import json

from .loadgen import run_bench

__all__ = ["fleet_check", "parallel_check"]


def _bench_bytes(users: int, seed: int, fleet: int = 0) -> str:
    report = run_bench(users=users, seed=seed, horizon=120.0,
                       transactions_per_user=3, fleet=fleet)
    return json.dumps(report["deterministic"], indent=2, sort_keys=True)


def fleet_check(users: int = 20, seed: int = 7) -> dict:
    """A/B guard for the gateway-fleet wiring (DESIGN §14).

    Two claims are byte-compared:

    * **fleet-of-1 transparency** — building the middleware tier as a
      one-member fleet behind the balancer produces the same
      deterministic benchmark section as the plain single-gateway
      build (member 0 reuses the legacy port, stream names and breaker
      identity, and the balancer itself schedules no events);
    * **fleet-of-3 reproducibility** — the same seed through a real
      fleet (hash ring, health prober, per-member cells) produces the
      same bytes twice.
    """
    single = _bench_bytes(users, seed)
    fleet_of_one = _bench_bytes(users, seed, fleet=1)
    first = _bench_bytes(users, seed, fleet=3)
    second = _bench_bytes(users, seed, fleet=3)
    checks = {
        "fleet_of_1_vs_single": fleet_of_one == single,
        "fleet_of_3_repeat": first == second,
    }
    return {
        "identical": all(checks.values()),
        "checks": checks,
        "users": users,
        "seed": seed,
    }


def parallel_check(users: int = 24, seed: int = 7,
                   shards: int = 4,
                   workers: tuple = (1, 2, 4)) -> dict:
    """A/B guard for the conservative parallel engine (DESIGN §15).

    One fixed shard decomposition is executed under each worker count
    — ``workers=1`` is the lockstep (sequential-interleave) reference,
    higher counts host the same shards on OS processes — and every
    merged deterministic section is held to byte equality with the
    lockstep one.  The per-shard canonical state hashes must agree
    too, which pins the pre-merge shard states and not just the merged
    totals.  Alongside, the one-shard plan must reproduce the plain
    sequential :func:`run_bench` bytes (the partition itself adds
    nothing at S=1).
    """
    from .parallel import run_parallel_bench

    def produce(count: int) -> tuple:
        report = run_parallel_bench(users=users, seed=seed,
                                    transactions_per_user=3,
                                    horizon=120.0, workers=count,
                                    shards=shards)
        det = report["deterministic"]
        return (json.dumps(det, indent=2, sort_keys=True),
                det["parallel"]["state_hash"])

    reference_bytes, reference_hash = produce(1)
    checks: dict[str, bool] = {}
    for count in workers:
        if count == 1:
            continue
        produced, state_hash = produce(count)
        checks[f"lockstep_vs_workers{count}"] = produced == reference_bytes
        checks[f"state_hash_workers{count}"] = state_hash == reference_hash

    single = run_parallel_bench(users=users, seed=seed,
                                transactions_per_user=3, horizon=120.0,
                                workers=1, shards=1)
    merged = dict(single["deterministic"])
    merged.pop("parallel", None)
    checks["one_shard_vs_sequential"] = (
        json.dumps(merged, indent=2, sort_keys=True)
        == _bench_bytes(users, seed))
    return {
        "identical": all(checks.values()),
        "checks": checks,
        "shards": shards,
        "workers": list(workers),
        "users": users,
        "seed": seed,
    }
