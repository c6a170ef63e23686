"""Tests for repro.perf: the load benchmark, its sliced measured loop,
and the transparency of the always-on SQL parse cache."""

import gc
import json

import pytest

from repro.db import sql
from repro.faults import report_json, run_chaos
from repro.perf import (
    bench_deterministic,
    bench_json,
    build_bench_scenario,
    run_bench,
    sweep_bench,
)
from repro.perf.loadgen import BENCH_SLICES

SMALL = dict(users=5, seed=11, transactions_per_user=2, horizon=90.0)
DNS_BLACKOUT = dict(scenario="dns-blackout", seed=11, intensity=0.6,
                    stations=3, transactions_per_station=4, horizon=120.0)


# ------------------------------------------------------------- the bench
def test_run_bench_report_shape_and_health():
    report = run_bench(**SMALL)
    det = report["deterministic"]
    assert det["users"] == SMALL["users"]
    assert det["completed"] == SMALL["users"] * SMALL["transactions_per_user"]
    assert det["success_vs_offered"] >= 0.9
    # success_rate (succeeded/completed) was removed from the bench: it
    # hid stranded work; success_vs_offered is the honest replacement.
    assert "success_rate" not in det
    assert det["kernel_events"] > 0
    assert det["virtual_seconds"] == SMALL["horizon"]
    # The tracer-backed layer breakdown covers the whole path (deepest
    # span wins, so layers fully covered by children may not appear).
    assert {"wireless", "middleware", "wired", "db"} <= set(det["layers"])
    measured = report["measured"]
    assert measured["wall_seconds"] > 0
    assert measured["events_per_sec"] > 0


def test_run_bench_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_bench(users=0)
    with pytest.raises(ValueError):
        run_bench(users=1, transactions_per_user=0)


def test_bench_deterministic_section_reproducible():
    first = run_bench(**SMALL)
    second = run_bench(**SMALL)
    assert json.dumps(first["deterministic"], sort_keys=True) == \
        json.dumps(second["deterministic"], sort_keys=True)


def test_bench_json_is_canonical():
    report = run_bench(**SMALL)
    text = bench_json(report)
    assert json.loads(text) == report
    assert text == bench_json(json.loads(text))


# ------------------------------------------------ transparency guards
def test_sliced_run_equals_single_run():
    """run_bench runs the kernel in BENCH_SLICES virtual-time slices
    (GC isolation re-freezes at each boundary); the result must be the
    bytes of one run to the horizon."""
    horizon = SMALL["horizon"]
    whole = build_bench_scenario(**SMALL)
    whole.system.run(until=horizon)
    sliced = build_bench_scenario(**SMALL)
    for step in range(1, BENCH_SLICES + 1):
        sliced.system.run(until=(horizon if step == BENCH_SLICES
                                 else horizon * step / BENCH_SLICES))
    assert sliced.system.sim.now == whole.system.sim.now == horizon
    assert json.dumps(bench_deterministic(sliced), indent=2,
                      sort_keys=True) == \
        json.dumps(bench_deterministic(whole), indent=2, sort_keys=True)


def test_failed_bench_run_leaves_gc_unfrozen():
    """GC isolation freezes the host GC around the measured loop; a run
    that raises must not leave the rest of the process running frozen."""
    def plant_failure(system, engine):
        def fail(env):
            yield env.timeout(SMALL["horizon"] / 3)
            raise RuntimeError("planted run failure")
        system.sim.spawn(fail(system.sim), name="planted-failure")

    try:
        with pytest.raises(RuntimeError, match="planted run failure"):
            run_bench(post_build=plant_failure, **SMALL)
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert frozen == 0


def test_caches_on_and_off_give_identical_bench_results(disable_parse_cache):
    """The SQL parse cache saves host time only: the bench gives the
    same bytes when no parse is ever served from it."""
    def produce() -> str:
        return json.dumps(run_bench(**SMALL)["deterministic"], indent=2,
                          sort_keys=True)

    cached = produce()
    assert sql._parse_cache, "the normal run should fill the cache"
    uncached = disable_parse_cache()
    assert produce() == cached
    # The second run really did parse every statement afresh.
    assert len(uncached) == 0


def test_determinism_check_verdict(disable_parse_cache):
    """The chaos arm that the bench and gateway-outage tests leave out:
    a dns-blackout run (registry generation churn against the resolver's
    TTL cache) gives the same bytes with the parse cache off."""
    cached = report_json(run_chaos(**DNS_BLACKOUT))
    uncached = disable_parse_cache()
    assert report_json(run_chaos(**DNS_BLACKOUT)) == cached
    assert len(uncached) == 0


# ----------------------------------------------------------------- sweep
def test_sweep_bench_curve_shape():
    sweep = sweep_bench([3, 1], seed=11, transactions_per_user=2,
                        horizon=90.0)
    det = sweep["deterministic"]
    users = [point["users"] for point in det["points"]]
    assert users == [1, 3]  # sorted, deduplicated
    for point in det["points"]:
        assert point["offered_tps"] > 0
        assert 0.0 <= point["goodput_tps"] <= point["offered_tps"] + 1e-9
        assert point["kernel_events"] > 0
    measured = [point["users"] for point in sweep["measured"]["points"]]
    assert measured == users


def test_sweep_bench_rejects_empty():
    with pytest.raises(ValueError):
        sweep_bench([])

