"""Partitioned benchmark and chaos runs (``--workers N``).

Each shard is a *vertical slice* of the scenario: a contiguous user
range with its own cell, its own gateway, and a replica of the wired
host tier, exactly as :func:`~repro.sim.parallel.partition.plan_partition`
cut it.  A shard's virtual run depends only on its spec — never on
which OS process hosts it — so running the same decomposition under 1,
2 or 4 workers produces byte-identical merged reports; that claim is
enforced by ``parallel_check``.

The merged report keeps the sequential report's shape (``deterministic``
/ ``optimizations`` / ``measured``) and adds a
``deterministic.parallel`` subsection (partition, cut, merge-point
totals, canonical state hash).  With one shard the deterministic
section minus that subsection is byte-identical to plain
:func:`~repro.perf.loadgen.run_bench` — the sequential-equivalence
anchor the test suite pins.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from typing import Optional

from ..faults.chaos import (DEFAULT_DEVICE, build_chaos_scenario,
                            chaos_report, percentile, run_chaos)
from ..opt import OPTIMIZATIONS
from ..sim.parallel import (PartitionError, canonical_state_hash,
                            merge_samples, merge_window_log,
                            plan_partition, run_partitioned)
from ..sim.parallel.merge import conservation_check
from .loadgen import bench_deterministic, build_bench_scenario, run_bench

__all__ = ["run_parallel_bench", "run_parallel_chaos"]


# Merge-point keys the bench shards report window deltas for, with the
# plain-Python harvest that reads each one's current global value.
def _bench_merge_totals(scenario) -> dict:
    system, engine = scenario.system, scenario.engine
    totals = {
        # Total balance across accounts: captures subtract, so the
        # window delta is the (negative) spend that crossed the cut.
        "repro.security.payment.PaymentProcessor.accounts":
            sum(system.host.payment.accounts.values()),
        "repro.core.transaction.TransactionEngine.records":
            len(engine.records),
    }
    if scenario.tracer is not None:
        totals["repro.obs.span.Tracer.spans"] = len(scenario.tracer.spans)
    return totals


class _ShardBase:
    """Windowed adapter around a built scenario (bench or chaos)."""

    def __init__(self, spec, scenario):
        self.spec = spec
        self.scenario = scenario
        self.horizon = scenario.horizon
        # Delta baseline is the pre-run harvest (e.g. funded account
        # balances), so window deltas carry only what the run changed.
        self._last_totals: dict = self.merge_totals()
        self._run_seconds = 0.0
        # Same GC isolation discipline as the sequential measured loop:
        # freeze the live graph once, re-freeze at window boundaries.
        self._gc_isolated = OPTIMIZATIONS.gc_isolation
        if self._gc_isolated:
            gc.collect()
            gc.freeze()

    def merge_totals(self) -> dict:
        raise NotImplementedError

    def advance(self, window: int, until: float) -> dict:
        started = time.perf_counter()  # repro: noqa[wall-clock]
        self.scenario.system.run(until=until)
        self._run_seconds += time.perf_counter() - started  # repro: noqa[wall-clock]
        if self._gc_isolated and until < self.horizon:
            gc.freeze()
        totals = self.merge_totals()
        deltas = []
        for key in sorted(totals):
            change = totals[key] - self._last_totals.get(key, 0)
            if change:
                # Boundary event: (time, priority, seq) position the
                # delta in the global order; merge-point updates
                # commute inside a window, so the boundary timestamp
                # with the window index as seq is their canonical slot.
                deltas.append([round(until, 9), 0, window, key, change])
        self._last_totals = totals
        return {
            "shard": self.spec.shard_id,
            "window": window,
            "clock": round(self.scenario.system.sim.now, 6),
            "events": self.scenario.system.sim.events_processed,
            "deltas": deltas,
        }

    def finish(self) -> dict:
        if self._gc_isolated:
            gc.unfreeze()
        payload = self._payload()
        payload["shard"] = self.spec.shard_id
        payload["merge_totals"] = self.merge_totals()
        payload["measured"] = {"run_seconds": round(self._run_seconds, 4)}
        return payload

    def _payload(self) -> dict:
        raise NotImplementedError


class _BenchShard(_ShardBase):
    def __init__(self, spec):
        params = dict(spec.params)
        scenario = build_bench_scenario(
            users=spec.users, seed=spec.seed,
            transactions_per_user=params["transactions_per_user"],
            horizon=params["horizon"], middleware=params["middleware"],
            bearer=tuple(params["bearer"]), device=params["device"],
            policies=params["policies"], trace=params["trace"],
            max_spans=params["max_spans"], fleet=0,
            user_offset=spec.user_offset)
        super().__init__(spec, scenario)

    def merge_totals(self) -> dict:
        return _bench_merge_totals(self.scenario)

    def _payload(self) -> dict:
        return {
            "deterministic": bench_deterministic(self.scenario),
            "samples": list(self.scenario.engine.latencies()),
        }


def _make_bench_shard(spec):
    """Top-level factory (picklable for spawn-based multiprocessing)."""
    return _BenchShard(spec)


class _ChaosShard(_ShardBase):
    def __init__(self, spec):
        params = dict(spec.params)
        plan = params["plan"]
        if plan is not None:
            from ..faults.plan import FaultPlan
            plan = FaultPlan.from_json(plan)
        scenario = build_chaos_scenario(
            scenario=params["scenario"], seed=spec.seed,
            intensity=params["intensity"], policies=params["policies"],
            stations=spec.users,
            transactions_per_station=params["transactions_per_station"],
            horizon=params["horizon"], middleware=params["middleware"],
            bearer=tuple(params["bearer"]), device=params["device"],
            plan=plan, fleet=0, station_offset=spec.user_offset)
        super().__init__(spec, scenario)

    def merge_totals(self) -> dict:
        system, engine = self.scenario.system, self.scenario.engine
        return {
            "repro.security.payment.PaymentProcessor.accounts":
                sum(system.host.payment.accounts.values()),
            "repro.core.transaction.TransactionEngine.records":
                len(engine.records),
        }

    def _payload(self) -> dict:
        return {
            "report": chaos_report(self.scenario),
            "samples": list(self.scenario.engine.latencies()),
        }


def _make_chaos_shard(spec):
    """Top-level factory (picklable for spawn-based multiprocessing)."""
    return _ChaosShard(spec)


# ----------------------------------------------------------------- bench
def run_parallel_bench(users: int = 50, seed: int = 7,
                       transactions_per_user: int = 4,
                       horizon: float = 240.0,
                       workers: int = 1,
                       shards: Optional[int] = None,
                       middleware: str = "WAP",
                       bearer: tuple = ("cellular", "GPRS"),
                       device: str = DEFAULT_DEVICE,
                       policies: bool = True,
                       trace: bool = True,
                       max_spans: int = 2_000_000,
                       fleet: int = 0,
                       matrix: Optional[dict] = None) -> dict:
    """Partitioned bench run; falls back to sequential when no legal cut.

    The shard count comes from the plan (``shards`` pins it); worker
    count only picks how many processes host those shards, so any
    worker count executes the identical decomposition.  A
    :class:`PartitionError` (e.g. ``fleet > 0`` — the fleet control
    plane spans shards) degrades gracefully: the plain sequential
    :func:`run_bench` report is returned with a ``parallel_fallback``
    note.
    """
    try:
        plan = plan_partition(users=users, seed=seed, horizon=horizon,
                              matrix=matrix, shards=shards,
                              workers=workers, fleet=fleet)
    except PartitionError as exc:
        report = run_bench(users=users, seed=seed,
                           transactions_per_user=transactions_per_user,
                           horizon=horizon, middleware=middleware,
                           bearer=bearer, device=device, policies=policies,
                           trace=trace, max_spans=max_spans, fleet=fleet)
        report["parallel_fallback"] = {
            "workers": workers,
            "reason": exc.reason,
            "blocking_keys": [entry["key"] for entry in exc.blocking[:8]],
        }
        return report

    params = {
        "transactions_per_user": transactions_per_user,
        "horizon": horizon, "middleware": middleware,
        "bearer": list(bearer), "device": device, "policies": policies,
        "trace": trace, "max_spans": max_spans,
    }
    specs = [dataclasses.replace(spec, params=params)
             for spec in plan.shards]
    run = run_partitioned(specs, _make_bench_shard, horizon=horizon,
                          windows=plan.windows, workers=workers,
                          opt_flags=OPTIMIZATIONS.as_dict())
    merged_log = merge_window_log(run["window_log"])
    # Shard deltas are measured against the pre-run baseline, so the
    # accumulated window log must equal (final - initial) per key.
    initial_balance = plan.users * 100_000_000
    balance_key = "repro.security.payment.PaymentProcessor.accounts"
    final_totals: dict = {}
    for payload in run["payloads"]:
        for key, value in payload["merge_totals"].items():
            final_totals[key] = final_totals.get(key, 0) + value
    if balance_key in final_totals:
        final_totals[balance_key] -= initial_balance
    conservation = conservation_check(merged_log, final_totals)
    if not conservation["ok"]:
        raise RuntimeError(
            f"merge conservation violated: {conservation['mismatches']}")

    deterministic = _merge_bench_deterministic(run["payloads"], params,
                                               plan, merged_log)
    events = deterministic["kernel_events"]
    wall = run["wall_seconds"]
    return {
        "deterministic": deterministic,
        "optimizations": OPTIMIZATIONS.as_dict(),
        "measured": {
            "wall_seconds": round(wall, 4),
            "total_seconds": round(run["total_seconds"], 4),
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "transactions_per_sec": (
                round(deterministic["completed"] / wall, 2)
                if wall > 0 else 0.0),
            "workers": run["workers"],
            "mode": run["mode"],
            "host_cpus": os.cpu_count(),
            "shard_run_seconds": [
                payload["measured"]["run_seconds"]
                for payload in run["payloads"]],
        },
    }


_SUMMED_KEYS = ("offered", "started", "admitted", "rejected", "completed",
                "succeeded", "successful", "retries", "shed_503s",
                "kernel_events")


def _merge_bench_deterministic(payloads, params, plan, merged_log) -> dict:
    shard_dets = [payload["deterministic"] for payload in payloads]
    first = shard_dets[0]
    samples = merge_samples([payload["samples"] for payload in payloads])
    merged = {
        "users": sum(det["users"] for det in shard_dets),
        "seed": plan.seed,
        "transactions_per_user": first["transactions_per_user"],
        "horizon": first["horizon"],
        "middleware": first["middleware"],
        "bearer": first["bearer"],
        "device": first["device"],
        "policies": first["policies"],
    }
    for key in _SUMMED_KEYS:
        merged[key] = sum(det[key] for det in shard_dets)
    merged["success_vs_offered"] = round(
        merged["succeeded"] / merged["offered"], 6)
    merged["latency"] = {
        "p50": round(percentile(samples, 0.50), 6),
        "p95": round(percentile(samples, 0.95), 6),
        "max": round(samples[-1], 6) if samples else 0.0,
    }
    merged["virtual_seconds"] = round(
        max(det["virtual_seconds"] for det in shard_dets), 6)
    admission: dict = {}
    for det in shard_dets:
        for key, value in det["gateway_admission"].items():
            admission[key] = admission.get(key, 0) + value
    merged["gateway_admission"] = admission
    if params["trace"]:
        layers: dict = {}
        for det in shard_dets:
            for layer, seconds in det.get("layers", {}).items():
                layers[layer] = round(layers.get(layer, 0.0) + seconds, 6)
        merged["layers"] = dict(sorted(layers.items()))
        merged["spans"] = sum(det.get("spans", 0) for det in shard_dets)
    merged["parallel"] = {
        "shards": len(payloads),
        "partition": [spec.to_dict() for spec in plan.shards],
        "cut": {
            "links": [link.to_dict() for link in plan.cut_links],
            "lookahead": plan.lookahead,
            "sync_window": plan.sync_window,
            "windows": plan.windows,
        },
        "merge_points": {entry: total for entry, total in sorted(
            _fold_log(merged_log).items())},
        "merge_log_entries": len(merged_log),
        "state_hash": canonical_state_hash(payloads),
    }
    return merged


def _fold_log(merged_log) -> dict:
    totals: dict = {}
    for entry in merged_log:
        totals[entry["key"]] = totals.get(entry["key"], 0) + entry["value"]
    return totals


# ----------------------------------------------------------------- chaos
def run_parallel_chaos(scenario: str = "storm", seed: int = 0,
                       intensity: float = 0.5, policies: bool = True,
                       stations: int = None,
                       transactions_per_station: int = 6,
                       horizon: float = 240.0, middleware: str = "WAP",
                       bearer: tuple = ("cellular", "GPRS"),
                       device: str = DEFAULT_DEVICE,
                       plan=None, workers: int = 1,
                       shards: Optional[int] = None, fleet: int = 0,
                       matrix: Optional[dict] = None) -> dict:
    """Partitioned chaos run; sequential fallback when no legal cut.

    Fleet-native scenarios (``fleet-outage``, ``canary-regression``)
    are unpartitionable — the fleet control plane spans shards — so
    they fall back to the sequential runner with a
    ``parallel_fallback`` note.  Each shard replays the scenario
    against its own station range; an explicit ``plan`` is applied to
    every shard (that is how the boundary link-flap equivalence test
    flaps the cut link in all shards at once).
    """
    from ..faults.chaos import FLEET_SCENARIOS

    if fleet == 0:
        fleet = FLEET_SCENARIOS.get(scenario, 0)
    if stations is None:
        stations = 12 if fleet > 0 else 4
    try:
        cut = plan_partition(users=stations, seed=seed, horizon=horizon,
                             matrix=matrix, shards=shards,
                             workers=workers, fleet=fleet)
    except PartitionError as exc:
        report = run_chaos(scenario=scenario, seed=seed,
                           intensity=intensity, policies=policies,
                           stations=stations,
                           transactions_per_station=transactions_per_station,
                           horizon=horizon, middleware=middleware,
                           bearer=bearer, device=device, plan=plan,
                           fleet=fleet)
        report["parallel_fallback"] = {
            "workers": workers,
            "reason": exc.reason,
            "blocking_keys": [entry["key"] for entry in exc.blocking[:8]],
        }
        return report

    params = {
        "scenario": scenario, "intensity": intensity,
        "policies": policies,
        "transactions_per_station": transactions_per_station,
        "horizon": horizon, "middleware": middleware,
        "bearer": list(bearer), "device": device,
        "plan": plan.to_json() if plan is not None else None,
    }
    specs = [dataclasses.replace(spec, params=params)
             for spec in cut.shards]
    run = run_partitioned(specs, _make_chaos_shard, horizon=horizon,
                          windows=cut.windows, workers=workers,
                          opt_flags=OPTIMIZATIONS.as_dict())
    merged_log = merge_window_log(run["window_log"])
    return _merge_chaos_reports(run, params, cut, merged_log)


def _merge_chaos_reports(run, params, cut, merged_log) -> dict:
    payloads = run["payloads"]
    reports = [payload["report"] for payload in payloads]
    samples = merge_samples([payload["samples"] for payload in payloads])
    first = reports[0]
    merged = {
        "scenario": first["scenario"],
        "seed": cut.seed,
        "intensity": first["intensity"],
        "policies": first["policies"],
        "middleware": first["middleware"],
        "bearer": first["bearer"],
        "device": first["device"],
        "horizon": first["horizon"],
        "stations": sum(report["stations"] for report in reports),
        "transactions_per_station": first["transactions_per_station"],
    }
    for key in ("offered", "completed", "successful", "retries"):
        merged[key] = sum(report[key] for report in reports)
    merged["success_rate"] = (
        round(merged["successful"] / merged["completed"], 6)
        if merged["completed"] else 0.0)
    merged["success_vs_offered"] = (
        round(merged["successful"] / merged["offered"], 6)
        if merged["offered"] else 0.0)
    faults: dict = {}
    errors: dict = {}
    for report in reports:
        for key, value in report["faults"].items():
            faults[key] = faults.get(key, 0) + value
        for key, value in report["errors"].items():
            errors[key] = errors.get(key, 0) + value
    merged["faults"] = dict(sorted(faults.items()))
    merged["errors"] = dict(sorted(errors.items()))
    merged["latency"] = {
        "p50": round(percentile(samples, 0.50), 6),
        "p95": round(percentile(samples, 0.95), 6),
        "max": round(samples[-1], 6) if samples else 0.0,
    }
    merged["resilience"] = _sum_tree(
        [report["resilience"] for report in reports])
    merged["parallel"] = {
        "shards": len(payloads),
        "partition": [spec.to_dict() for spec in cut.shards],
        "cut": {
            "links": [link.to_dict() for link in cut.cut_links],
            "lookahead": cut.lookahead,
            "sync_window": cut.sync_window,
            "windows": cut.windows,
        },
        "merge_log_entries": len(merged_log),
        "state_hash": canonical_state_hash(
            [{"shard": payload["shard"],
              "deterministic": payload["report"]}
             for payload in payloads]),
        "plan_faults_per_shard": [len(report["plan"])
                                  for report in reports],
    }
    merged["measured"] = {
        "wall_seconds": round(run["wall_seconds"], 4),
        "workers": run["workers"],
        "mode": run["mode"],
        "host_cpus": os.cpu_count(),
    }
    return merged


def _sum_tree(trees: list):
    """Key-wise recursive sum of nested counter dicts (bools OR)."""
    merged: dict = {}
    for tree in trees:
        for key, value in tree.items():
            if isinstance(value, dict):
                merged[key] = _sum_tree(
                    [merged.get(key, {}), value])
            elif isinstance(value, bool):
                merged[key] = merged.get(key, False) or value
            else:
                merged[key] = merged.get(key, 0) + value
    return merged
