"""End-to-end chaos tests: scenarios, determinism, policy impact."""

import json
import os
import subprocess
import sys

from repro.faults import FaultPlan, SCENARIOS, run_chaos, scenario_plan
from repro.sim import SeedBank

_OUTAGE = dict(scenario="gateway-outage", seed=7, intensity=0.5,
               stations=3, transactions_per_station=8, horizon=240.0)


def test_every_named_scenario_builds_a_valid_plan():
    for name in SCENARIOS:
        plan = scenario_plan(name, SeedBank(5).stream("chaos-plan"),
                             horizon=240.0, intensity=0.5)
        plan.validate()
        if name == "canary-regression":
            # The regression is a planted-slow v2 canary deployed by the
            # CanaryController, not a FaultSpec — the plan is empty.
            assert len(plan) == 0, name
        else:
            assert len(plan) > 0, name


def test_gateway_outage_policies_beat_baseline():
    """The headline acceptance check: with resilience policies on, a
    gateway outage at moderate intensity barely dents the success
    rate; with them off the same faults sink a third of the
    transactions."""
    on = run_chaos(policies=True, **_OUTAGE)
    off = run_chaos(policies=False, **_OUTAGE)
    assert on["success_rate"] >= 0.9, on["errors"]
    assert on["success_rate"] > off["success_rate"]
    # The win comes from real mechanisms, not luck: the standby route
    # absorbed the primary's crash windows.
    assert on["resilience"]["failovers"] >= 1
    assert off["resilience"]["enabled"] is False
    assert off["errors"], "baseline run should record failures"


def test_breaker_trips_and_recovers_under_server_crash():
    plan = FaultPlan()
    plan.add("server_crash", at=20.0, duration=120.0)
    report = run_chaos(scenario="custom", seed=3, policies=True, stations=3,
                       transactions_per_station=8, horizon=240.0, plan=plan)
    gateway = report["resilience"]["gateway"]
    assert gateway["origin_timeouts"] >= 1
    assert gateway["breaker"]["trips"] >= 1
    assert gateway["breaker"]["rejections"] >= 1
    # The breaker closed again once the origin came back, and the
    # retry policy salvaged a majority of the flows.
    assert gateway["breaker"]["closes"] >= 1
    assert report["retries"] >= 1
    assert report["success_rate"] >= 0.5


def test_empty_plan_run_is_clean():
    report = run_chaos(scenario="custom", seed=5, stations=2,
                       transactions_per_station=4, horizon=120.0,
                       plan=FaultPlan())
    assert report["faults"] == {}
    assert report["errors"] == {}
    assert report["success_rate"] == 1.0
    assert report["plan"] == []


def _cli_chaos(tmp_path, name):
    out = tmp_path / name
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "storm", "--seed", "11",
         "--intensity", "0.5", "--json", str(out)],
        check=True, env=env, cwd=root,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return out.read_bytes()


def test_same_seed_gives_byte_identical_report(tmp_path):
    """The reproducibility guarantee as the CLI delivers it: two runs
    of the same scenario and seed emit byte-identical reports."""
    first = _cli_chaos(tmp_path, "a.json")
    second = _cli_chaos(tmp_path, "b.json")
    assert first == second
    report = json.loads(first)
    assert report["scenario"] == "storm"
    assert report["seed"] == 11
    assert report["plan"], "storm scenario should schedule faults"


def test_chaos_report_identical_with_caches_off(disable_parse_cache):
    """The SQL parse cache must be invisible in chaos reports: the same
    gateway-outage run (crash/restart included) produces the same bytes
    when no parse is ever served from the cache."""
    from repro.faults import report_json

    cached = report_json(run_chaos(policies=True, **_OUTAGE))
    uncached = disable_parse_cache()
    assert report_json(run_chaos(policies=True, **_OUTAGE)) == cached
    assert len(uncached) == 0
