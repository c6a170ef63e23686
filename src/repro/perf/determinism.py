"""Byte-identity guard for the gateway-fleet wiring (DESIGN §14).

:func:`fleet_check` runs fixed scenarios more than one way and compares
the canonical JSON of their ``deterministic`` sections byte for byte.
"""

from __future__ import annotations

import json

from .loadgen import run_bench

__all__ = ["fleet_check"]


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
      build.  Member 0 and the single gateway come from the same
      builder factory call with the same empty name suffix, so this
      half checks the balancer path around it (which schedules no
      events), not two copies of the gateway wiring;
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

