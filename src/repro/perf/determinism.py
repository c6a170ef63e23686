"""A/B determinism guards: hot-path caches, fleet wiring, parallel engine.

Every optimization behind :data:`repro.opt.OPTIMIZATIONS` claims to be
*transparent*: toggling it changes host CPU time, never what the
simulation computes.  :func:`determinism_check` holds the claim to
account — it runs fixed scenarios twice, once with every flag forced on
and once forced off, and compares the canonical JSON output byte for
byte.

Three comparisons cover the surfaces the caches touch:

* a chaos run through the ``gateway-outage`` scenario (gateway
  translation caches plus their crash/restart flush),
* a chaos run through ``dns-blackout`` (registry generation churn),
* the benchmark's ``deterministic`` section (the whole transaction
  path, kernel event totals and per-layer trace breakdown included).
"""

from __future__ import annotations

import json

from ..faults.chaos import report_json, run_chaos
from ..opt import OPTIMIZATIONS, optimizations_disabled
from .loadgen import run_bench

__all__ = ["determinism_check", "fleet_check", "parallel_check"]


def _bench_bytes(users: int, seed: int, fleet: int = 0) -> str:
    report = run_bench(users=users, seed=seed, horizon=120.0,
                       transactions_per_user=3, fleet=fleet)
    return json.dumps(report["deterministic"], indent=2, sort_keys=True)


def _chaos_bytes(scenario: str, seed: int) -> str:
    return report_json(run_chaos(scenario=scenario, seed=seed,
                                 intensity=0.6, stations=3,
                                 transactions_per_station=4,
                                 horizon=120.0))


def determinism_check(users: int = 20, seed: int = 7) -> dict:
    """Run the caches-on/off A/B comparison; returns a verdict dict.

    ``identical`` is True only when every scenario produced the same
    bytes with the caches on and off.  The per-check map names any
    offender so a CI failure is self-describing.
    """
    scenarios = {
        "bench": lambda: _bench_bytes(users, seed),
        "chaos-gateway-outage": lambda: _chaos_bytes("gateway-outage", seed),
        "chaos-dns-blackout": lambda: _chaos_bytes("dns-blackout", seed),
    }
    checks: dict[str, bool] = {}
    for name, produce in scenarios.items():
        saved = OPTIMIZATIONS.as_dict()
        try:
            OPTIMIZATIONS.set_all(True)
            optimized = produce()
            with optimizations_disabled():
                baseline = produce()
        finally:
            for flag, value in saved.items():
                setattr(OPTIMIZATIONS, flag, value)
        checks[name] = optimized == baseline
    return {
        "identical": all(checks.values()),
        "checks": checks,
        "users": users,
        "seed": seed,
    }


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
