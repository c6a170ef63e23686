"""The benchmark's three workloads, driven through the library's public API.

Each workload is a closed loop: a client starts its next transaction only
after the previous one finished, and think time spreads the flows over a
240-virtual-second horizon.  One call of :func:`run_workload` is one
*repetition*: it builds the scenario, simulates it to the horizon and
derives the program's report, timing the three phases from outside.

* ``overload`` is ``repro.perf.run_bench(users=500)`` itself.  The phases
  are timed by wrapping ``build_bench_scenario`` and ``bench_deterministic``
  as ``run_bench`` looks them up, so whatever ``run_bench`` does between
  the two (its GC-slicing loop today) is charged to the run phase.
* ``fleet-outage`` is ``repro.faults.run_chaos("fleet-outage")`` itself,
  with ``build_chaos_scenario`` and ``chaos_report`` wrapped the same way.
* ``apps-mix`` is this module's own load loop: every station cycles through
  all eight Table 1 flows over i-mode on an 802.11b WLAN.

Simulated results are deterministic for a seed; :func:`digest` hashes
them so a repetition (or a later commit that only speeds the simulator
up) can be checked for identical virtual statistics.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

import repro.faults.chaos as chaos_module
import repro.perf.loadgen as loadgen_module
from repro.apps import (
    ALL_CATEGORIES,
    CommerceApp,
    ERPApp,
    TravelApp,
)
from repro.core import MCSystemBuilder, TransactionEngine
from repro.faults import run_chaos
from repro.faults.chaos import percentile
from repro.obs import install_tracer
from repro.perf import run_bench
from repro.resilience import ResilienceConfig
from spec import DEFAULT_SIZE

HORIZON = 240.0
SLO_SECONDS = 10.0
# The report phase is timed call by call: the run's own call, then
# repeats on the finished scenario until at least REPORT_CALLS calls and
# REPORT_SAMPLE_S seconds are in, so ``run.py`` can take a median.
REPORT_SAMPLE_S = 0.5
REPORT_CALLS = 3

# Transactions each client is asked to run.
OVERLOAD_TXNS = 4        # run_bench's default transactions_per_user
FLEET_TXNS = 6           # run_chaos's default transactions_per_station
APPS_DEVICE = "Toshiba E740"


class LedgerError(Exception):
    """The transaction ledger does not reconcile."""


class Rep:
    """One repetition of a workload: phase times plus simulated results.

    ``built_at`` (set-up done), ``run_at`` and ``report_at`` (the run
    phase) and ``finished_at`` (the program's own report derived) are
    ``time.monotonic()`` instants, comparable across processes on one
    host; ``report_calls`` holds the ``(start, end)`` of every report
    call, the program's own first.
    """

    categories = None  # apps-mix only: outcomes per Table 1 category


class Hooks:
    """Callbacks into a repetition; the traced run overrides them.

    ``built(system, engine)`` runs once the scenario is fully wired,
    after the set-up clock stopped and before the run clock starts.
    ``tracer`` says whether to attach a ``repro.obs`` tracer to a
    workload that does not run one itself; ``time_report`` whether to
    repeat the report phase to time it (see REPORT_CALLS).
    """

    tracer = False
    time_report = True

    def built(self, system, engine) -> None:
        pass


@contextmanager
def _patched(module, name: str, make_wrapper):
    """Replace ``module.name`` by ``make_wrapper(original)`` for a while."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


class _PhaseClock:
    """Wrappers that stamp the end of set-up and the start of the report."""

    def __init__(self, hooks: Hooks):
        self.hooks = hooks
        self.scenario = None
        self.built_at = self.report_at = None

    def timed_build(self, build):
        def wrapper(*args, **kwargs):
            scenario = build(*args, **kwargs)
            self.scenario = scenario
            _attach(self.hooks, scenario.system, scenario.engine)
            self.built_at = time.monotonic()
            return scenario
        return wrapper

    def timed_report(self, derive):
        def wrapper(*args, **kwargs):
            self.report_at = time.monotonic()
            return derive(*args, **kwargs)
        return wrapper


def _attach(hooks: Hooks, system, engine) -> None:
    if hooks.tracer and system.sim.tracer is None:
        install_tracer(system.sim)
    hooks.built(system, engine)


def _report_calls(hooks: Hooks, first: tuple, derive_report) -> list:
    """``(start, end)`` per report call: the run's own call, plus
    repeats while fewer than REPORT_CALLS calls or REPORT_SAMPLE_S
    seconds are in."""
    calls = [first]
    spent = first[1] - first[0]
    while hooks.time_report and (len(calls) < REPORT_CALLS
                                 or spent < REPORT_SAMPLE_S):
        started = time.monotonic()
        derive_report()
        calls.append((started, time.monotonic()))
        spent += calls[-1][1] - started
    return calls


def _finish(rep: Rep, system, engine, clients, per_client: int) -> Rep:
    rep.system, rep.engine = system, engine
    rep.tracer = system.sim.tracer
    rep.events = system.sim.events_processed
    rep.ledger = ledger(engine, clients, per_client)
    rep.latencies = sorted(engine.latencies())
    return rep


def _through_program(module, build_name: str, report_name: str, call,
                     per_client: int, results_of, hooks: Hooks) -> Rep:
    """Run ``call()`` (``run_bench`` or ``run_chaos``) with its build and
    report steps, looked up in ``module``, wrapped by phase stamps."""
    clock = _PhaseClock(hooks)
    with _patched(module, build_name, clock.timed_build), \
            _patched(module, report_name, clock.timed_report):
        report = call()
        finished = time.monotonic()
    scenario = clock.scenario
    derive = getattr(module, report_name)
    rep = Rep()
    rep.built_at, rep.finished_at = clock.built_at, finished
    rep.run_at, rep.report_at = clock.built_at, clock.report_at
    rep.report_calls = _report_calls(hooks, (clock.report_at, finished),
                                     lambda: derive(scenario))
    rep.report = report
    rep.digest = digest(results_of(report))
    return _finish(rep, scenario.system, scenario.engine,
                   [handle.station.name for handle in scenario.handles],
                   per_client)


def _overload(seed: int, size: int, hooks: Hooks) -> Rep:
    return _through_program(
        loadgen_module, "build_bench_scenario", "bench_deterministic",
        lambda: run_bench(users=size, seed=seed), OVERLOAD_TXNS,
        lambda report: report["deterministic"], hooks)


def _fleet_outage(seed: int, size: int, hooks: Hooks) -> Rep:
    return _through_program(
        chaos_module, "build_chaos_scenario", "chaos_report",
        lambda: run_chaos("fleet-outage", seed=seed, stations=size),
        FLEET_TXNS, lambda report: report, hooks)


# ------------------------------------------------------------ apps-mix
CATEGORY_ORDER = sorted(ALL_CATEGORIES)

_ROUTES = [("GRAND-FORKS", "MINNEAPOLIS"), ("AUBURN", "ATLANTA"),
           ("FARGO", "CHICAGO"), ("BOSTON", "DENVER")]
_RESOURCES = ["delivery-van", "meeting-room-a", "projector", "forklift"]


def _provisioned_apps(users: int) -> dict:
    """Every Table 1 application, stocked so no flow fails for want of
    stock, seats or capacity: every failure reflects the system."""
    apps = {name: factory() for name, factory in ALL_CATEGORIES.items()}
    apps["commerce"] = CommerceApp(items=[
        (f"Handset {index}", 9900 + 500 * index, 10 * users)
        for index in range(1, 9)])
    trips = []
    for route, (origin, destination) in enumerate(_ROUTES):
        for slot in range(2):
            trips.append((100 * (route + 1) + slot, origin, destination,
                          f"{8 + 6 * slot:02d}:00", 10 * users,
                          5900 + 1000 * route))
    apps["travel"] = TravelApp(trips=trips)
    apps["erp"] = ERPApp(resources=[(name, 10 * users)
                                    for name in _RESOURCES])
    return apps


def _user_flow(apps: dict, category: str, user: int):
    """The flow one station runs for one category; parameters vary by
    station so the gateway and SQL caches see many distinct keys."""
    account = f"user{user}"
    if category == "commerce":
        return apps[category].browse_and_buy(item_id=1 + user % 8,
                                             account=account)
    if category == "education":
        return apps[category].attend_class(
            student=f"s{user}", course=("CS101", "EC200")[user % 2])
    if category == "entertainment":
        return apps[category].buy_and_download(media_id=1 + user % 3,
                                                account=account)
    if category == "erp":
        return apps[category].manage_resources(
            resource=_RESOURCES[user % len(_RESOURCES)])
    if category == "healthcare":
        return apps[category].rounds(patient=1 + user % 2)
    if category == "inventory":
        step = user % 7
        return apps[category].driver_rounds(
            shipment=1 + user % 3,
            positions=[(float(step), 1.0), (float(step), 2.0),
                       (float(step), 3.0 + step)])
    if category == "traffic":
        origin = (user % 5, (user // 5) % 5)
        destination = (4 - origin[0], 4 - origin[1])
        if destination == origin:
            destination = (4, 4) if origin != (4, 4) else (0, 0)
        return apps[category].navigate(origin=origin,
                                       destination=destination)
    route = user % len(_ROUTES)
    origin, destination = _ROUTES[route]
    return apps[category].book_trip(
        origin=origin, destination=destination,
        trip_id=100 * (route + 1) + (user // len(_ROUTES)) % 2,
        passenger=account)


def _apps_mix(seed: int, size: int, hooks: Hooks) -> Rep:
    system = MCSystemBuilder(seed=seed, middleware="i-mode",
                             bearer=("wlan", "802.11b"),
                             resilience=ResilienceConfig()).build()
    apps = _provisioned_apps(size)
    for name in CATEGORY_ORDER:
        system.mount_application(apps[name])
    for user in range(size):
        system.host.payment.open_account(f"user{user}", 100_000_000)
    handles = [system.add_station(APPS_DEVICE, name=f"station-{user}")
               for user in range(size)]
    engine = TransactionEngine(system)
    think = system.seeds.stream("bench-apps-think")
    interval = HORIZON / (len(CATEGORY_ORDER) + 1)

    def client(handle, user):
        rotation = user % len(CATEGORY_ORDER)
        order = CATEGORY_ORDER[rotation:] + CATEGORY_ORDER[:rotation]

        def loop(env):
            yield env.timeout(think.uniform(0.1, 0.9) * interval)
            for category in order:
                begun = env.now
                yield engine.run_flow(handle, _user_flow(apps, category,
                                                         user),
                                      name=category)
                pause = max(0.1, interval - (env.now - begun))
                yield env.timeout(pause * think.uniform(0.7, 1.3))
        return loop

    for user, handle in enumerate(handles):
        system.sim.spawn(client(handle, user)(system.sim),
                         name=f"client-{user}")
    built_at = time.monotonic()
    _attach(hooks, system, engine)
    run_from = time.monotonic()
    system.run(until=HORIZON)
    report_at = time.monotonic()
    clients = [handle.station.name for handle in handles]
    report = _apps_report(engine, clients)
    finished = time.monotonic()
    rep = Rep()
    rep.built_at, rep.finished_at = built_at, finished
    rep.run_at, rep.report_at = run_from, report_at
    rep.report_calls = _report_calls(
        hooks, (report_at, finished), lambda: _apps_report(engine, clients))
    rep.report = report
    rep.categories = report["categories"]
    rep.digest = digest(report)
    return _finish(rep, system, engine, clients, len(CATEGORY_ORDER))


def _apps_report(engine, clients) -> dict:
    """The apps-mix report: ledger, per-category outcomes, latencies."""
    return {
        "ledger": ledger(engine, clients, len(CATEGORY_ORDER)),
        "categories": _category_outcomes(engine),
        "latencies": sorted(round(x, 6) for x in engine.latencies()),
    }


def _category_outcomes(engine) -> dict:
    outcomes = {name: {"succeeded": 0, "failed": 0}
                for name in CATEGORY_ORDER}
    for record in engine.completed:
        outcomes[record.flow_name]["succeeded" if record.ok
                                   else "failed"] += 1
    return outcomes


WORKLOADS = {
    "overload": _overload,
    "fleet-outage": _fleet_outage,
    "apps-mix": _apps_mix,
}


def run_workload(name: str, seed: int, size: int = None,
                 hooks: Hooks = None) -> Rep:
    """Run one repetition of workload ``name``."""
    if size is None:
        size = DEFAULT_SIZE[name]
    return WORKLOADS[name](seed, size, hooks or Hooks())


# ------------------------------------------------------------ results
def ledger(engine, clients, per_client: int) -> dict:
    """Outside-in transaction ledger from the engine's records.

    ``not_started`` is counted per client (transactions a client was
    asked for but never began), so the identity ``offered == not_started
    + in_flight + succeeded + failed`` is a real check, not a definition.
    """
    began: dict = {name: 0 for name in clients}
    succeeded = in_flight = 0
    failed = {"shed": 0, "timeout": 0, "error": 0}
    for record in engine.records:
        began[record.client_name] += 1
        if record.finished_at <= 0:
            in_flight += 1
        elif record.ok:
            succeeded += 1
        elif record.shed_503s > 0:
            failed["shed"] += 1
        elif record.error.startswith("RequestTimeout"):
            failed["timeout"] += 1
        else:
            failed["error"] += 1
    over = {name: count for name, count in began.items()
            if count > per_client}
    if over:
        raise LedgerError(f"clients ran more than {per_client} "
                             f"transactions: {over}")
    within = [r for r in engine.successful if r.latency <= SLO_SECONDS]
    return {
        "offered": per_client * len(clients),
        "not_started": sum(per_client - count for count in began.values()),
        "in_flight": in_flight,
        "succeeded": succeeded,
        "failed": failed,
        "within_slo": len(within),
        "retries": sum(record.retries for record in engine.records),
    }


def check_ledger(entry: dict) -> None:
    failed = sum(entry["failed"].values())
    total = (entry["not_started"] + entry["in_flight"]
             + entry["succeeded"] + failed)
    if entry["offered"] != total:
        raise LedgerError(
            f"ledger does not reconcile: offered {entry['offered']} != "
            f"not_started + in_flight + succeeded + failed = {total}")


def simulated_metrics(rep: Rep) -> dict:
    """The end-to-end metrics of the virtual run (deterministic)."""
    entry = rep.ledger
    latencies = rep.latencies
    return {
        "goodput_share": entry["succeeded"] / entry["offered"],
        "slo_10s_share": entry["within_slo"] / entry["offered"],
        "virt_latency_p50_s": percentile(latencies, 0.50),
        "virt_latency_p95_s": percentile(latencies, 0.95),
    }


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of a simulated-results section."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
