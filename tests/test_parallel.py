"""Conservative parallel DES: partitioner, merge, and equivalence.

The contract under test (DESIGN §15): the partitioned engine is an
*execution strategy*, not a different simulation.  The shard count is
fixed by the plan; ``workers`` only chooses how many OS processes host
those shards; and every configuration — one shard, many shards,
lockstep or processes — must compute the sequential answer byte for
byte.  The partitioner is equally on trial: a cut is only produced
when every cross-process-write key in the race matrix is provably
shard-local or a declared merge point, and anything else degrades to
the sequential runner instead of silently computing something new.
"""

import gc
import json

import pytest

from repro.faults.plan import FaultPlan
from repro.perf import run_bench
from repro.perf.loadgen import check_capacity_curve
from repro.perf.parallel import (
    _ShardBase,
    run_parallel_bench,
    run_parallel_chaos,
)
from repro.sim.parallel import (
    PartitionError,
    accumulate_deltas,
    canonical_state_hash,
    classify_matrix,
    merge_samples,
    merge_window_log,
    plan_partition,
    suggest_cut,
)
from repro.sim.parallel.merge import conservation_check
from repro.sim.parallel.partition import (
    CUT_LINK_DELAY,
    CUT_LINK_NAME,
    derive_shard_seed,
)

# A hand-built race matrix: only `cross_process_write` keys matter to
# the partitioner; the labels exercise every classification branch.
LEGAL_MATRIX = {
    "repro.security.payment.PaymentProcessor.accounts":
        {"cross_process_write": True},
    "repro.core.transaction.TransactionEngine.records":
        {"cross_process_write": True},
    "repro.web.server.WebServer.sessions": {"cross_process_write": True},
    "repro.fleet.balancer.HashRing.members": {"cross_process_write": True},
    "repro.db.sql.Database.tables": {"cross_process_write": False},
}

MODULE_GLOBAL_MATRIX = dict(LEGAL_MATRIX)
MODULE_GLOBAL_MATRIX["repro.web.server.PENDING"] = {
    "cross_process_write": True}

# Small-but-real scenario kwargs for the equivalence runs.  Small user
# counts keep the suite fast; the full-scale claim is re-verified by
# ``parallel_check`` in the bench CLI / CI.
BENCH = dict(users=8, seed=7, transactions_per_user=3, horizon=90.0)


def _det_bytes(report):
    return json.dumps(report["deterministic"], indent=2, sort_keys=True)


# ------------------------------------------------------ the partitioner
def test_plan_covers_users_contiguously_and_keeps_seed_on_shard0():
    plan = plan_partition(users=10, seed=41, horizon=120.0,
                          matrix=LEGAL_MATRIX, shards=3)
    assert [s.users for s in plan.shards] == [4, 3, 3]
    offsets = [s.user_offset for s in plan.shards]
    assert offsets == [0, 4, 7]
    assert plan.shards[0].seed == 41
    assert all(s.seed != 41 for s in plan.shards[1:])
    # Lookahead is the cut link's propagation delay: no shard can
    # affect another in less virtual time than the wire takes.
    assert plan.lookahead == CUT_LINK_DELAY
    assert all(link.name == CUT_LINK_NAME for link in plan.cut_links)
    assert plan.sync_window >= plan.lookahead
    assert plan.windows >= 1


def test_derived_shard_seeds_are_stable_and_distinct():
    seeds = [derive_shard_seed(7, shard) for shard in range(4)]
    assert seeds[0] == 7
    assert len(set(seeds)) == 4
    assert seeds == [derive_shard_seed(7, shard) for shard in range(4)]


def test_classification_labels_every_branch():
    classes, blocking = classify_matrix(LEGAL_MATRIX, fleet=0)
    assert classes["repro.security.payment.PaymentProcessor.accounts"] \
        == "merge-point"
    assert classes["repro.web.server.WebServer.sessions"] == "replicated"
    assert classes["repro.fleet.balancer.HashRing.members"] \
        == "control-plane"
    # Read-only keys never enter the classification at all.
    assert "repro.db.sql.Database.tables" not in classes
    assert blocking == []


def test_module_level_global_blocks_the_cut():
    with pytest.raises(PartitionError) as excinfo:
        plan_partition(users=8, matrix=MODULE_GLOBAL_MATRIX)
    blocked = [entry["key"] for entry in excinfo.value.blocking]
    assert blocked == ["repro.web.server.PENDING"]


def test_fleet_control_plane_blocks_the_cut_only_when_fleet_requested():
    plan = plan_partition(users=8, matrix=LEGAL_MATRIX, fleet=0, shards=2)
    assert len(plan.shards) == 2
    with pytest.raises(PartitionError) as excinfo:
        plan_partition(users=8, matrix=LEGAL_MATRIX, fleet=3)
    blocked = [entry["key"] for entry in excinfo.value.blocking]
    assert blocked == ["repro.fleet.balancer.HashRing.members"]


def test_suggest_cut_reports_legal_plan_and_refusal():
    legal = suggest_cut(users=100, workers=2, matrix=LEGAL_MATRIX)
    assert legal["legal"] is True
    assert len(legal["shards"]) == 2
    assert legal["blocking_keys"] == []
    assert legal["merge_points"]

    refusal = suggest_cut(users=100, workers=2, fleet=3,
                          matrix=LEGAL_MATRIX)
    assert refusal["legal"] is False
    assert "fleet" in refusal["reason"] or refusal["blocking_keys"]
    assert refusal["shards"] == []


# ------------------------------------------------------------- the merge
def test_merge_window_log_restores_global_order():
    window_log = [
        {"window": 0, "reports": [
            {"shard": 1, "deltas": [[15.0, 0, 0, "k", 2]]},
            {"shard": 0, "deltas": [[15.0, 0, 0, "k", 1],
                                    [10.0, 0, 0, "j", 5]]},
        ]},
        {"window": 1, "reports": [
            {"shard": 0, "deltas": [[30.0, 0, 1, "k", 7]]},
        ]},
    ]
    merged = merge_window_log(window_log)
    assert [(e["time"], e["shard"], e["key"]) for e in merged] == [
        (10.0, 0, "j"), (15.0, 0, "k"), (15.0, 1, "k"), (30.0, 0, "k")]
    assert accumulate_deltas(merged) == {"j": 5, "k": 10}


def test_conservation_check_catches_dropped_deltas():
    merged = [{"key": "k", "value": 3}, {"key": "k", "value": 4}]
    assert conservation_check(merged, {"k": 7})["ok"]
    verdict = conservation_check(merged, {"k": 9})
    assert not verdict["ok"]
    assert verdict["mismatches"]["k"] == {"windows": 7, "final": 9}


def test_merge_samples_is_the_sorted_union():
    assert merge_samples([[3.0, 1.0], [2.0], []]) == [1.0, 2.0, 3.0]


def test_state_hash_is_order_invariant_but_state_sensitive():
    payloads = [{"shard": 0, "deterministic": {"x": 1}},
                {"shard": 1, "deterministic": {"x": 2}}]
    assert canonical_state_hash(payloads) \
        == canonical_state_hash(list(reversed(payloads)))
    changed = [{"shard": 0, "deterministic": {"x": 1}},
               {"shard": 1, "deterministic": {"x": 3}}]
    assert canonical_state_hash(payloads) != canonical_state_hash(changed)


# ------------------------------------------------- sequential equivalence
@pytest.mark.parametrize("users,seed", [(8, 7), (5, 11), (9, 23)])
def test_one_shard_plan_is_byte_identical_to_sequential_bench(users, seed):
    scenario = dict(BENCH, users=users, seed=seed)
    sequential = run_bench(**scenario)
    parallel = run_parallel_bench(workers=1, shards=1, **scenario)
    merged = dict(parallel["deterministic"])
    parallel_section = merged.pop("parallel")
    assert parallel_section["shards"] == 1
    assert json.dumps(merged, indent=2, sort_keys=True) \
        == _det_bytes(sequential)


@pytest.mark.parametrize("shards,seed", [(2, 7), (4, 7), (2, 31)])
def test_worker_count_never_changes_the_answer(shards, seed):
    scenario = dict(BENCH, seed=seed)
    lockstep = run_parallel_bench(workers=1, shards=shards, **scenario)
    processes = run_parallel_bench(workers=2, shards=shards, **scenario)
    assert processes["measured"]["mode"] == "processes"
    assert lockstep["measured"]["mode"] == "lockstep"
    assert _det_bytes(lockstep) == _det_bytes(processes)
    assert lockstep["deterministic"]["parallel"]["state_hash"] \
        == processes["deterministic"]["parallel"]["state_hash"]


def test_merged_accounting_matches_offered_load():
    report = run_parallel_bench(workers=2, shards=2, **BENCH)
    det = report["deterministic"]
    assert det["users"] == BENCH["users"]
    assert det["offered"] == BENCH["users"] * BENCH["transactions_per_user"]
    assert det["success_vs_offered"] > 0
    assert "success_rate" not in det
    assert det["parallel"]["merge_log_entries"] > 0
    assert det["parallel"]["merge_points"][
        "repro.core.transaction.TransactionEngine.records"] \
        == det["completed"]


def test_cut_link_flap_is_deterministic_across_worker_counts():
    """Chaos on the cut itself: flap the severed wired link mid-run in
    every shard and require processes to reproduce lockstep exactly."""
    plan = FaultPlan()
    plan.add("link_flap", at=30.0, duration=6.0, target=CUT_LINK_NAME)
    kwargs = dict(scenario="storm", seed=3, intensity=0.4, stations=4,
                  transactions_per_station=3, horizon=90.0, plan=plan,
                  shards=2)
    lockstep = run_parallel_chaos(workers=1, **kwargs)
    processes = run_parallel_chaos(workers=2, **kwargs)
    assert lockstep["faults"].get("injected_link_flap", 0) >= 2  # per shard
    for report in (lockstep, processes):
        measured = report.pop("measured")
        assert measured["workers"] >= 1
    assert json.dumps(lockstep, indent=2, sort_keys=True) \
        == json.dumps(processes, indent=2, sort_keys=True)


def test_fleet_scenario_falls_back_to_sequential():
    report = run_parallel_bench(workers=2, fleet=1, **BENCH)
    fallback = report["parallel_fallback"]
    assert fallback["workers"] == 2
    assert "no legal cut" in fallback["reason"]
    assert any("repro.fleet" in key for key in fallback["blocking_keys"])
    # The fallback *is* the sequential report, not an approximation.
    sequential = run_bench(fleet=1, **BENCH)
    assert _det_bytes(report) == _det_bytes(sequential)


def test_failed_lockstep_run_leaves_gc_unfrozen(monkeypatch):
    """Shards freeze the host GC for their windows; a window that raises
    must not leave the rest of the process running frozen."""
    advance = _ShardBase.advance

    def fails_in_window_2(self, window, until):
        if window == 2:
            raise RuntimeError("planted shard failure")
        return advance(self, window, until)

    monkeypatch.setattr(_ShardBase, "advance", fails_in_window_2)
    try:
        with pytest.raises(RuntimeError, match="planted shard failure"):
            run_parallel_bench(users=4, seed=7, transactions_per_user=1,
                               horizon=30.0, workers=1, shards=2)
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert frozen == 0


# ------------------------------------- events/s sweep regression check
def _curve(events_large):
    det = [{"users": 10, "admitted": 20, "goodput_tps": 1.0},
           {"users": 50, "admitted": 100, "goodput_tps": 2.0}]
    measured = [{"users": 10, "events_per_sec": 100_000},
                {"users": 50, "events_per_sec": events_large}]
    return check_capacity_curve(det, events_points=measured)


def test_events_per_sec_regression_fails_the_sweep():
    verdict = _curve(events_large=70_000)["events_per_sec"]
    assert verdict["checked"] and not verdict["ok"]
    assert verdict["ratio"] == 0.7


def test_events_per_sec_within_tolerance_passes():
    verdict = _curve(events_large=80_000)["events_per_sec"]
    assert verdict["checked"] and verdict["ok"]
    assert verdict["smallest"]["users"] == 10
    assert verdict["largest"]["users"] == 50


def test_events_check_skips_single_point_sweeps():
    det = [{"users": 10, "admitted": 20, "goodput_tps": 1.0}]
    verdict = check_capacity_curve(
        det, events_points=[{"users": 10, "events_per_sec": 1}])
    assert verdict["events_per_sec"] == {
        "checked": False, "ok": True, "tolerance": 0.25}
