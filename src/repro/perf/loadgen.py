"""Load generator: N concurrent users through the whole stack.

The benchmark reuses the chaos runner's system wiring (builder ->
stations -> :class:`TransactionEngine`) minus the fault plan: every user
is a seeded shopper running ``browse_and_buy`` flows paced across the
horizon.  The kernel's own ``events_processed`` counter supplies event
totals (no profiler in the measured loop — its per-event hook costs
several percent of wall time) and a :class:`~repro.obs.Tracer` records
per-layer spans, so the report can break virtual latency down by layer.

The report has two sections with different guarantees:

* ``deterministic`` — everything derived from the virtual run (counts,
  latency percentiles, per-layer seconds, kernel event totals).  Same
  seed, same bytes; every byte-identity guard compares exactly this
  section.
* ``measured`` — host wall-clock figures (seconds, events/sec,
  transactions/sec).  Honest but machine-dependent, so excluded from
  byte comparisons.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from typing import Iterable, Optional

from ..apps import CommerceApp
from ..core import MCSystemBuilder, TransactionEngine
from ..faults.chaos import DEFAULT_DEVICE, percentile
from ..fleet import fleet_report
from ..obs import install_tracer, layer_breakdown
from ..resilience import ResilienceConfig

__all__ = ["run_bench", "sweep_bench", "bench_json", "bench_resilience",
           "check_capacity_curve", "build_bench_scenario",
           "bench_deterministic", "GCIsolation"]


def bench_resilience() -> ResilienceConfig:
    """The load benchmark's capacity-engineered policy set (DESIGN §13).

    On top of the default resilience knobs this enables gateway-side
    batching (the sustained service rate ``batch_max / batch_window``
    is sized to keep the GPRS cell's shared airtime below saturation)
    and admission control (watermark + virtual-FIFO Retry-After
    reservations), so overload is shed at the cheapest layer instead of
    timing out after burning wireless and middleware budget.
    """
    return ResilienceConfig(
        gateway_batching=True,
        # 4 requests / 0.3s = ~13.3 req/s sustained service, sized so
        # the admitted stream (~620B of shared GPRS airtime per served
        # request) plus shed chatter stays below the cell's 12.5 KB/s.
        # ~18.75 req/s nominal: deliberately above what the radio can
        # sustain, so the binding constraint is the RAN backpressure
        # gate below (which tracks the radio's true capacity) rather
        # than a hardcoded rate that wastes airtime when the cell is
        # quiet.  Empirically the knee: shorter windows push the GPRS
        # cell into queueing (p50 latency jumps 3s -> 30s+).
        batch_window=0.16,
        batch_max=3,
        batch_item_cost=0.001,
        # A shallow watermark sheds the arrival wave BEFORE the radio
        # saturates: a shed cycle costs ~400B of airtime against ~620B
        # plus queueing for a served request, and the parked client
        # stops contending entirely until its reservation matures.
        admission_watermark=12,
        admission_retry_floor=1.0,
        admission_jitter=0.2,
        # Over-space reservations 5x so returning shed clients use a
        # fraction of the service slots, leaving room for fresh
        # arrivals; repeated sheds push the pointer (and the hints)
        # out fast, which is what parks the overload wave.
        admission_reserve_factor=5.0,
        # RAN backpressure: stop admitting whenever ~12 transmitters
        # are already queued for the cell's shared airtime — replies
        # sent into a saturated cell only deepen the collapse.
        air_pressure_threshold=12,
        # Shed clients park on the virtual-FIFO Retry-After hint (which
        # grows with the shed backlog) rather than on their own small
        # exponential backoff; parked devices cost zero airtime.
        retry_attempts=5,
        retry_base_delay=0.5,
        retry_multiplier=2.0,
        retry_max_delay=8.0,
        retry_jitter=0.3,
        # Air-queueing latency under load must not masquerade as a dead
        # route: aborting a slow-but-alive request tears down the WSP
        # session, and the reconnect handshake storm consumes the very
        # airtime whose scarcity caused the slowness.  GPRS-era WAP
        # gateways ran 30-60s deadlines for exactly this reason.
        request_timeout=20.0,
        # Failover routes (standby gateway, direct HTML) cross the SAME
        # saturated cell, so under overload they only triple handshake
        # traffic.  The capacity scenario pins the primary route; the
        # chaos suite exercises failover with its own config.
        standby_gateway=False,
        direct_fallback=False,
    )


def check_capacity_curve(points, tolerance: float = 0.05,
                         events_points=None,
                         events_tolerance: float = 0.25) -> dict:
    """Verify goodput is monotone non-decreasing in admitted load.

    A healthy capacity curve rises with offered load and flattens at
    the knee; a cliff (goodput collapsing as more work is admitted)
    is the overload failure mode this PR removes.  ``tolerance``
    forgives small non-monotonicities from discreteness at low loads.

    ``events_points`` (``{"users", "events_per_sec"}`` per sweep point,
    host-measured) adds a kernel-efficiency check on top of the goodput
    one: the largest point's events/s must stay within
    ``events_tolerance`` of the smallest point's.  Goodput can flatten
    at the knee for capacity reasons while the kernel itself quietly
    gets slower per event as scenarios grow — that regression used to
    be invisible to the sweep.
    """
    ordered = sorted(points, key=lambda p: (p["admitted"], p["users"]))
    best = 0.0
    regressions = []
    for point in ordered:
        goodput = point["goodput_tps"]
        if goodput < best * (1.0 - tolerance):
            regressions.append({
                "users": point["users"],
                "admitted": point["admitted"],
                "goodput_tps": goodput,
                "previous_best": round(best, 6),
            })
        best = max(best, goodput)
    verdict = {"monotone": not regressions, "tolerance": tolerance,
               "regressions": regressions}
    verdict["events_per_sec"] = _check_events_curve(events_points,
                                                    events_tolerance)
    return verdict


def _check_events_curve(events_points, tolerance: float) -> dict:
    """Kernel events/s at the largest point vs the smallest."""
    points = sorted(events_points or [], key=lambda p: p["users"])
    if len(points) < 2:
        return {"checked": False, "ok": True, "tolerance": tolerance}
    smallest, largest = points[0], points[-1]
    floor = smallest["events_per_sec"] * (1.0 - tolerance)
    ratio = (largest["events_per_sec"] / smallest["events_per_sec"]
             if smallest["events_per_sec"] else 0.0)
    return {
        "checked": True,
        "ok": largest["events_per_sec"] >= floor,
        "ratio": round(ratio, 3),
        "tolerance": tolerance,
        "smallest": {"users": smallest["users"],
                     "events_per_sec": smallest["events_per_sec"]},
        "largest": {"users": largest["users"],
                    "events_per_sec": largest["events_per_sec"]},
    }


class _BenchScenario:
    """A fully wired bench scenario, ready to run.

    Produced by :func:`build_bench_scenario`, run to the horizon by
    :func:`run_bench` and read by :func:`bench_deterministic`.
    """

    __slots__ = ("system", "engine", "shop", "tracer", "handles",
                 "users", "seed", "transactions_per_user",
                 "horizon", "middleware", "bearer", "device", "policies",
                 "resilience")


def build_bench_scenario(users: int = 50, seed: int = 7,
                         transactions_per_user: int = 4,
                         horizon: float = 240.0,
                         middleware: str = "WAP",
                         bearer: tuple = ("cellular", "GPRS"),
                         device: str = DEFAULT_DEVICE,
                         policies: bool = True,
                         trace: bool = True,
                         max_spans: int = 2_000_000,
                         resilience: Optional[ResilienceConfig] = None,
                         fleet: int = 0) -> _BenchScenario:
    """Build and wire the load scenario without running it.

    User ``index`` gets station ``station-{index}`` and payment account
    ``user{index}``.
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    if transactions_per_user < 1:
        raise ValueError(
            f"transactions_per_user must be >= 1, got {transactions_per_user}")

    if resilience is None:
        resilience = bench_resilience() if policies else None
    if fleet > 0:
        if resilience is None:
            raise ValueError("a gateway fleet requires policies=True")
        resilience = dataclasses.replace(resilience, fleet_size=fleet,
                                         standby_gateway=False)
    builder = MCSystemBuilder(seed=seed, middleware=middleware,
                              bearer=bearer, resilience=resilience)
    system = builder.build()

    shop = CommerceApp(items=[("WAP Phone", 19900, 10_000_000),
                              ("Leather Case", 950, 10_000_000)])
    system.mount_application(shop)
    for index in range(users):
        system.host.payment.open_account(f"user{index}", 100_000_000)

    handles = [system.add_station(device, name=f"station-{index}")
               for index in range(users)]
    engine = TransactionEngine(system)

    tracer = install_tracer(system.sim, max_spans=max_spans) if trace \
        else None

    think = system.seeds.stream("bench-think")
    interval = horizon / (transactions_per_user + 1)

    def shopper(handle, account):
        def loop(env):
            yield env.timeout(think.uniform(0.1, 0.9) * interval)
            for _ in range(transactions_per_user):
                started = env.now
                flow = shop.browse_and_buy(item_id=1, account=account)
                yield engine.run_flow(handle, flow)
                elapsed = env.now - started
                pause = max(0.1, interval - elapsed)
                yield env.timeout(pause * think.uniform(0.7, 1.3))
        return loop

    for index, handle in enumerate(handles):
        name = f"user-{index}"
        system.sim.spawn(shopper(handle, f"user{index}")(
            system.sim), name=name)

    scenario = _BenchScenario()
    scenario.system = system
    scenario.engine = engine
    scenario.shop = shop
    scenario.tracer = tracer
    scenario.handles = handles
    scenario.users = users
    scenario.seed = seed
    scenario.transactions_per_user = transactions_per_user
    scenario.horizon = horizon
    scenario.middleware = middleware
    scenario.bearer = bearer
    scenario.device = device
    scenario.policies = policies
    scenario.resilience = resilience
    return scenario


# Virtual-time slices of run_bench's measured loop; GCIsolation
# re-freezes at each slice boundary.
BENCH_SLICES = 96


class GCIsolation:
    """The host-GC policy around a measured run loop (DESIGN §11).

    Entering compacts the heap and freezes the live object graph into
    the permanent generation: a 500-user scenario's live graph
    (retained spans, open connections, station state) is otherwise
    rescanned by every gen-2 collection, and that scanning dominates
    wall time at scale.  Objects allocated *after* a freeze are still
    collector-visible, so one up-front freeze decays as the run
    accumulates survivors; :func:`run_bench` therefore runs in
    virtual-time slices and calls :meth:`refreeze` at each boundary.
    Stopping and resuming the kernel's dispatch loop is observably
    identical to one ``run`` call, so the virtual run is unaffected.
    Leaving the ``with`` block unfreezes on every exit path, a failed
    run included.
    """

    def __enter__(self) -> "GCIsolation":
        gc.collect()
        self.refreeze()
        return self

    def refreeze(self) -> None:
        gc.freeze()

    def __exit__(self, *exc_info) -> None:
        gc.unfreeze()


def run_bench(users: int = 50, seed: int = 7,
              transactions_per_user: int = 4,
              horizon: float = 240.0,
              middleware: str = "WAP",
              bearer: tuple = ("cellular", "GPRS"),
              device: str = DEFAULT_DEVICE,
              policies: bool = True,
              trace: bool = True,
              max_spans: int = 2_000_000,
              post_build=None,
              resilience: Optional[ResilienceConfig] = None,
              fleet: int = 0) -> dict:
    """Run the load scenario once and return the benchmark report dict.

    ``users`` stations each run ``transactions_per_user`` purchase flows
    spread across ``horizon`` virtual seconds.  The wall-clock section
    measures only the ``system.run`` call — build and reporting time is
    not counted.  ``post_build(system, engine)``, when given, runs after
    the scenario is fully wired but before the clock starts — the race
    sanitizer uses it to instrument shared state and install its kernel
    hook.
    ``resilience`` overrides the policy set (tests use it to force
    specific capacity knobs); the default with ``policies=True`` is
    :func:`bench_resilience`.  ``fleet`` > 0 runs the middleware tier
    as an N-member gateway fleet behind the consistent-hash balancer
    (requires policies); a fleet of 1 is the transparency case the
    fleet A/B guard byte-compares against the single-gateway build.
    """
    scenario = build_bench_scenario(
        users=users, seed=seed,
        transactions_per_user=transactions_per_user, horizon=horizon,
        middleware=middleware, bearer=bearer, device=device,
        policies=policies, trace=trace, max_spans=max_spans,
        resilience=resilience, fleet=fleet)
    system, engine = scenario.system, scenario.engine

    if post_build is not None:
        post_build(system, engine)

    with GCIsolation() as isolation:
        started = time.perf_counter()  # repro: noqa[wall-clock]
        for step in range(1, BENCH_SLICES + 1):
            until = (horizon if step == BENCH_SLICES
                     else horizon * step / BENCH_SLICES)
            system.run(until=until)
            if step < BENCH_SLICES:
                isolation.refreeze()
        wall_seconds = time.perf_counter() - started  # repro: noqa[wall-clock]

    deterministic = bench_deterministic(scenario)
    events = system.sim.events_processed
    records = engine.completed
    report = {
        "deterministic": deterministic,
        "measured": {
            "wall_seconds": round(wall_seconds, 4),
            "events_per_sec": (round(events / wall_seconds)
                               if wall_seconds > 0 else 0),
            "transactions_per_sec": (round(len(records) / wall_seconds, 2)
                                     if wall_seconds > 0 else 0.0),
        },
    }
    return report


def bench_deterministic(scenario: _BenchScenario) -> dict:
    """Derive the ``deterministic`` report section from a finished run."""
    system, engine = scenario.system, scenario.engine
    records = engine.completed
    latencies = sorted(engine.latencies())
    events = system.sim.events_processed

    # Honest goodput accounting: success is reported against *offered*
    # load (every transaction the stations were asked to run), not just
    # against the ones that happened to finish inside the horizon.
    offered = scenario.users * scenario.transactions_per_user
    started = len(engine.records)
    succeeded = len(engine.successful)
    # A completed-but-failed transaction whose attempts saw 503s was
    # rejected by admission control (gateway watermark or web-server
    # shedding) — shed by design, not lost to overload.
    rejected = sum(1 for record in records
                   if not record.ok and record.shed_503s > 0)

    deterministic = {
        "users": scenario.users,
        "seed": scenario.seed,
        "transactions_per_user": scenario.transactions_per_user,
        "horizon": scenario.horizon,
        "middleware": scenario.middleware,
        "bearer": list(scenario.bearer),
        "device": scenario.device,
        "policies": bool(scenario.policies),
        "offered": offered,
        "started": started,
        "admitted": started - rejected,
        "rejected": rejected,
        "completed": len(records),
        "succeeded": succeeded,
        "success_vs_offered": round(succeeded / offered, 6),
        "successful": len(engine.successful),
        "retries": sum(record.retries for record in records),
        "shed_503s": sum(record.shed_503s for record in records),
        "latency": {
            "p50": round(percentile(latencies, 0.50), 6),
            "p95": round(percentile(latencies, 0.95), 6),
            "max": round(latencies[-1], 6) if latencies else 0.0,
        },
        "kernel_events": events,
        "virtual_seconds": round(system.sim.now, 6),
    }
    admission = {"sheds": 0, "watermark_sheds": 0, "pressure_sheds": 0,
                 "batches": 0, "batched_requests": 0}
    if system.fleet is not None:
        gateways = [m.gateway for m in system.fleet.members.values()]
    else:
        gateways = [system.gateway, system.standby_gateway]
    for gw in gateways:
        counts = gw.stats.as_dict() if gw is not None else {}
        admission["watermark_sheds"] += counts.get("admission_sheds", 0)
        admission["pressure_sheds"] += counts.get("pressure_sheds", 0)
        admission["batches"] += counts.get("batches", 0)
        admission["batched_requests"] += counts.get("batched_requests", 0)
    # Total sheds across both admission signals (queue watermark and
    # RAN backpressure) — the number clients experienced as 503s.
    admission["sheds"] = (admission["watermark_sheds"]
                          + admission["pressure_sheds"])
    deterministic["gateway_admission"] = admission
    # Only a *real* fleet (>= 2 members) adds its section: the fleet-of-1
    # transparency guard byte-compares against the single-gateway build,
    # so the degenerate case must not change the report shape.
    if system.fleet is not None and scenario.resilience.fleet_size >= 2:
        deterministic["fleet"] = fleet_report(system)
    if scenario.tracer is not None:
        deterministic["layers"] = _aggregate_layers(scenario.tracer)
        deterministic["spans"] = len(scenario.tracer.spans)
    return deterministic


def sweep_bench(user_counts: Iterable[int], seed: int = 7,
                transactions_per_user: int = 4,
                horizon: float = 240.0,
                fleet: int = 0) -> dict:
    """Goodput-vs-offered-load curve across a list of user counts.

    Each point runs the standard bench scenario (tracing off — the
    curve cares about throughput, not layer attribution).  Offered load
    is what the stations *attempt* (``users * transactions_per_user /
    horizon`` tx per virtual second); goodput is what the system
    actually completed successfully per virtual second.  The gap between
    the two as users grow is the overload curve capacity PRs move.

    Virtual-run quantities and host wall-clock figures are split into
    ``deterministic`` / ``measured`` sections with the same guarantees
    as :func:`run_bench`.
    """
    counts = sorted(set(int(count) for count in user_counts))
    if not counts:
        raise ValueError("sweep needs at least one user count")
    det_points = []
    measured_points = []
    for users in counts:
        report = run_bench(users=users, seed=seed,
                           transactions_per_user=transactions_per_user,
                           horizon=horizon, trace=False, fleet=fleet)
        det = report["deterministic"]
        virtual = det["virtual_seconds"] or horizon
        det_points.append({
            "users": users,
            "offered": det["offered"],
            "admitted": det["admitted"],
            "completed": det["completed"],
            "succeeded": det["succeeded"],
            "offered_tps": round(users * transactions_per_user / horizon, 6),
            "goodput_tps": round(det["succeeded"] / virtual, 6),
            "success_vs_offered": det["success_vs_offered"],
            "latency_p50": det["latency"]["p50"],
            "latency_p95": det["latency"]["p95"],
            "kernel_events": det["kernel_events"],
        })
        measured_points.append({
            "users": users,
            "wall_seconds": report["measured"]["wall_seconds"],
            "events_per_sec": report["measured"]["events_per_sec"],
        })
    return {
        "deterministic": {
            "seed": seed,
            "transactions_per_user": transactions_per_user,
            "horizon": horizon,
            "fleet": fleet,
            "points": det_points,
            "curve": check_capacity_curve(det_points),
        },
        "measured": {
            "points": measured_points,
            # Host-measured, so it lives outside the deterministic
            # section: kernel efficiency must not sag as the sweep
            # grows (the per-event slowdown check).
            "events_check": check_capacity_curve(
                det_points,
                events_points=measured_points)["events_per_sec"],
        },
    }


def _aggregate_layers(tracer) -> dict:
    """Virtual seconds per layer, summed over every closed trace."""
    by_trace: dict[int, list] = {}
    open_traces = set()
    for span in tracer.spans:
        by_trace.setdefault(span.trace_id, []).append(span)
        if span.parent_id is None and span.end is None:
            # Flows still in flight at the horizon have open roots;
            # layer_breakdown requires a closed root, so skip them
            # (deterministically — openness derives from virtual time).
            open_traces.add(span.trace_id)
    totals: dict[str, float] = {}
    for trace_id, spans in sorted(by_trace.items()):
        if trace_id in open_traces:
            continue
        for layer, seconds in layer_breakdown(spans).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {layer: round(seconds, 6)
            for layer, seconds in sorted(totals.items())}


def bench_json(report: dict) -> str:
    """Canonical serialisation: byte-identical for identical reports."""
    return json.dumps(report, indent=2, sort_keys=True)
