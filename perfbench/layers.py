"""The traced run: per-layer numbers measured from outside the program.

A traced repetition attaches, without changing what is simulated:

* a deterministic profiler (``cProfile``) over set-up, run and report.
  Self time is summed into layers by module path; time in the standard
  library, builtins and third-party code is charged to the layer that
  called it, so the shares add up to 1;
* ``gc.callbacks``, for collector pause time and collection counts;
* a kernel sampler on the simulator's profiler hook, for the peak
  event-queue depth, radio backlog and gateway batch queues;
* a ``repro.obs`` tracer on workloads that do not run one themselves,
  for the virtual seconds per paper component (``vt.*``);
* counting wrappers around a few public entry points (TCP connection
  construction, SQL statement execution, name lookups).

Counters the components keep anyway (link, node, gateway, web, DB,
fleet and fault statistics) are read after the run.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time
from contextlib import ExitStack, contextmanager

import repro.db.transactions as db_transactions
import repro.net.dns as net_dns
import repro.net.tcp as net_tcp
from repro.obs import LAYER_ORDER, layer_breakdown

from spec import HOST_LAYERS
from workloads import Hooks, run_workload

# Host-time layers, named after the package layout.  Order matters:
# the first matching prefix of a module path under ``repro/`` wins.
_MODULE_LAYERS = (
    ("sim/kernel", "sim.kernel"), ("sim/sched", "sim.sched"),
    ("sim/", "sim.support"),
    ("net/tcp", "net.tcp"), ("net/link", "net.link"),
    ("net/node", "net.node"), ("net/dns", "net.dns"), ("net/", "net.other"),
    ("wireless/", "wireless"), ("middleware/", "middleware"),
    ("web/", "web"), ("db/", "db"), ("obs/", "obs"), ("fleet/", "fleet"),
    ("resilience/", "resilience"), ("faults/", "faults"),
    ("devices/", "devices"), ("apps/", "apps"), ("core/", "core"),
    ("security/", "security"), ("perf/", "perf"),
)
# Beyond these, ``trace`` is the cost of the tracer this module attaches
# to workloads that do not trace themselves, ``bench`` is the
# benchmark's own code and ``other`` the rest of ``repro``.

SAMPLE_EVERY = 256  # kernel events between backlog samples
_WRITE_VERBS = ("INSERT", "UPDATE", "DELETE")
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + "repro" + os.sep


class _Counting:
    """Counting wrappers around public entry points, active in a run."""

    def __init__(self):
        self.tcp_stats = []
        self.writes = 0
        self.lookups = 0
        self.live = False

    @contextmanager
    def installed(self):
        counting = self
        connection_init = net_tcp.TCPConnection.__init__
        execute = db_transactions.Transaction.execute
        lookup = net_dns.NameRegistry.lookup

        def init(conn, *args, **kwargs):
            connection_init(conn, *args, **kwargs)
            counting.tcp_stats.append(conn.stats)

        def counted_execute(txn, sql, *args, **kwargs):
            if counting.live and sql.lstrip()[:6].upper() in _WRITE_VERBS:
                counting.writes += 1
            return execute(txn, sql, *args, **kwargs)

        def counted_lookup(registry, name):
            if counting.live:
                counting.lookups += 1
            return lookup(registry, name)

        net_tcp.TCPConnection.__init__ = init
        db_transactions.Transaction.execute = counted_execute
        net_dns.NameRegistry.lookup = counted_lookup
        try:
            yield self
        finally:
            net_tcp.TCPConnection.__init__ = connection_init
            db_transactions.Transaction.execute = execute
            net_dns.NameRegistry.lookup = lookup


class _GCWatch:
    """Collector pauses and collections via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    @contextmanager
    def installed(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


class _KernelSampler:
    """Duck-typed kernel profiler (the ``Simulator._profiler`` attachment
    point): tracks the peak event-queue depth on every event and samples
    the radio backlog and gateway batch queues every ``SAMPLE_EVERY``
    events.  It lives in this module so its cost shows as ``bench``."""

    __slots__ = ("events", "peak_depth", "air_backlog_peak",
                 "batch_queue_peak", "cells", "radio_ends", "batchers")

    def __init__(self, system):
        self.events = 0
        self.peak_depth = 0
        self.air_backlog_peak = 0
        self.batch_queue_peak = 0
        self.cells = _base_stations(system)
        self.radio_ends = [end for link in _links(system)
                           if link.layer == "wireless" for end in link.ends]
        self.batchers = [gw.batcher for gw in _gateways(system)
                         if getattr(gw, "batcher", None) is not None]

    def on_event(self, now, event, queue_depth) -> None:
        self.events += 1
        if queue_depth > self.peak_depth:
            self.peak_depth = queue_depth
        if self.events % SAMPLE_EVERY == 0:
            backlog = (sum(cell.air_backlog() for cell in self.cells)
                       + sum(len(end.queue) for end in self.radio_ends))
            self.air_backlog_peak = max(self.air_backlog_peak, backlog)
            depth = sum(batcher.queue_depth for batcher in self.batchers)
            self.batch_queue_peak = max(self.batch_queue_peak, depth)

    def on_resume(self, process) -> None:
        pass


class _TracedHooks(Hooks):
    """Attaches the kernel sampler once the scenario is wired."""

    time_report = False  # repeated report calls would skew the shares

    def __init__(self, counting: _Counting, tracer: bool):
        self.counting = counting
        self.tracer = tracer
        self.sampler = None

    def built(self, system, engine) -> None:
        self.counting.live = True
        self.sampler = _KernelSampler(system)
        system.sim._profiler = self.sampler


def traced_run(workload: str, seed: int, size: int, own_tracer: bool):
    """One traced repetition; returns ``(rep, per_layer_metrics, vt)``.

    ``obs.report_s`` is the time to derive ``vt`` from the spans; the
    caller replaces it on a workload whose own report does that.
    """
    counting = _Counting()
    gc_watch = _GCWatch()
    hooks = _TracedHooks(counting, tracer=not own_tracer)
    profile = cProfile.Profile()
    with ExitStack() as stack:
        stack.enter_context(counting.installed())
        stack.enter_context(gc_watch.installed())
        profile.enable()
        try:
            rep = run_workload(workload, seed, size, hooks)
        finally:
            profile.disable()
    metrics = {}
    shares, profiled_s = host_shares(profile, own_tracer)
    metrics["profile.host_s"] = profiled_s
    for layer in HOST_LAYERS:
        metrics[f"{layer}.host_share"] = shares.get(layer, 0.0)
    metrics["gc.pause_s"] = gc_watch.pause_s
    metrics["gc.collections"] = gc_watch.collections
    metrics["sim.kernel.events"] = rep.events
    metrics["sim.sched.peak_depth"] = hooks.sampler.peak_depth
    metrics.update(_component_counters(rep, counting, hooks.sampler))
    started = time.perf_counter()
    vt = virtual_layers(rep)
    vt_report_s = time.perf_counter() - started
    for layer in LAYER_ORDER:
        metrics[f"vt.{layer}_s"] = vt.get(layer, 0.0)
    metrics["obs.spans"] = len(rep.tracer.spans)
    metrics["obs.report_s"] = vt_report_s
    return rep, metrics, vt


# ------------------------------------------------------------ host time
def _layer_of_file(path: str, own_tracer: bool):
    """Layer of a source file, or None for code charged to its caller."""
    if path.startswith(_BENCH_DIR):
        return "bench"
    index = path.rfind(_REPRO_MARK)
    if index < 0 or "site-packages" in path:
        return None
    relative = path[index + len(_REPRO_MARK):].replace(os.sep, "/")
    for prefix, layer in _MODULE_LAYERS:
        if relative.startswith(prefix):
            if layer == "obs" and not own_tracer:
                return "trace"
            return layer
    return "other"


def host_shares(profile: cProfile.Profile, own_tracer: bool):
    """Share of profiled self time per layer, and the profiled seconds.

    Self time of code outside ``repro`` and this benchmark (builtins,
    the standard library, third-party packages) is split over its
    callers in proportion to the time each call edge accounts for, and
    so on up until a layer is reached.
    """
    stats = pstats.Stats(profile).stats
    memo: dict = {}

    def distribution(func, stack):
        cached = memo.get(func)
        if cached is not None:
            return cached
        layer = _layer_of_file(func[0], own_tracer)
        if layer is not None:
            result = {layer: 1.0}
        else:
            # Weigh each call edge by the self time it accounts for,
            # or by its call count when the profiler timed it as 0.
            callers = {caller: edge for caller, edge
                       in stats[func][4].items()
                       if caller not in stack and caller in stats}
            weights = {caller: edge[2] for caller, edge in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {caller: edge[0]
                           for caller, edge in callers.items()}
            total = sum(weights.values())
            result = {}
            if total <= 0:
                result = {"other": 1.0}
            else:
                stack.add(func)
                for caller, weight in weights.items():
                    for name, share in distribution(caller, stack).items():
                        result[name] = (result.get(name, 0.0)
                                        + share * weight / total)
                stack.discard(func)
        memo[func] = result
        return result

    totals: dict = {}
    profiled = 0.0
    for func, (_, _, self_time, _, _) in stats.items():
        profiled += self_time
        if self_time <= 0:
            continue
        for name, share in distribution(func, set()).items():
            totals[name] = totals.get(name, 0.0) + share * self_time
    if profiled <= 0:
        return {}, 0.0
    return {name: seconds / profiled for name, seconds in totals.items()}, \
        profiled


# ------------------------------------------------------------ counters
def _links(system):
    seen = {}
    for node in system.network.nodes:
        for iface in node.interfaces:
            if iface.link is not None:
                seen[id(iface.link)] = iface.link
    return sorted(seen.values(), key=lambda link: link.name)


def _base_stations(system):
    bearer = system.model.component("wireless-networks").implementation
    return list(getattr(bearer, "base_stations", ()))


def _gateways(system):
    if system.fleet is not None:
        return [member.gateway for member in system.fleet.members.values()]
    return [gw for gw in (system.gateway, system.standby_gateway)
            if gw is not None]


def _cache_lookups(gateway) -> tuple:
    """(hits, lookups) of a gateway's content-translation cache."""
    stats = gateway.stats
    if hasattr(gateway, "translation_cache_hits"):      # WAP
        return gateway.translation_cache_hits, stats.get("translations")
    if hasattr(gateway, "adaptation_cache_hits"):       # i-mode
        return (gateway.adaptation_cache_hits,
                stats.get("adaptations") + stats.get("passthrough"))
    return 0, 0


def _sum_stats(counters, name: str) -> int:
    return sum(counter.get(name) for counter in counters)


def _component_counters(rep, counting: _Counting, sampler) -> dict:
    system, engine = rep.system, rep.engine
    metrics = {}
    tcp = counting.tcp_stats
    metrics["net.tcp.segments_sent"] = _sum_stats(tcp, "segments_sent")
    metrics["net.tcp.retransmitted_segments"] = _sum_stats(
        tcp, "retransmitted_segments")
    metrics["net.tcp.timeouts"] = _sum_stats(tcp, "timeouts")

    links = _links(system)
    radio = [link.stats for link in links if link.layer == "wireless"]
    wired = [link.stats for link in links if link.layer != "wireless"]
    for prefix, stats in (("net.link", wired), ("wireless", radio)):
        metrics[f"{prefix}.delivered"] = _sum_stats(stats, "delivered")
        metrics[f"{prefix}.queue_drops"] = _sum_stats(stats, "queue_drops")
    metrics["wireless.frame_errors"] = _sum_stats(radio, "frame_errors")
    metrics["wireless.air_backlog_peak"] = sampler.air_backlog_peak

    node_stats = [node.stats for node in system.network.nodes]
    metrics["net.node.delivered"] = _sum_stats(node_stats, "delivered_local")
    metrics["net.node.forwarded"] = _sum_stats(node_stats, "forwarded")
    metrics["net.node.drops"] = sum(
        count for stats in node_stats
        for name, count in stats.as_dict().items() if name.endswith("_drops"))
    metrics["net.dns.lookups"] = counting.lookups

    gateways = _gateways(system)
    gw_stats = [gw.stats for gw in gateways]
    cache = [_cache_lookups(gateway) for gateway in gateways]
    lookups = sum(looked for _, looked in cache)
    metrics["middleware.cache_hit_ratio"] = (
        sum(hits for hits, _ in cache) / lookups if lookups else 0.0)
    metrics["middleware.sheds"] = (_sum_stats(gw_stats, "admission_sheds")
                                   + _sum_stats(gw_stats, "pressure_sheds"))
    metrics["middleware.batches"] = _sum_stats(gw_stats, "batches")
    metrics["middleware.queue_depth_peak"] = sampler.batch_queue_peak

    web = system.host.web_server.stats
    metrics["web.requests"] = web.get("requests")
    metrics["web.shed_requests"] = web.get("shed_requests")

    db_server = system.host.db_server
    metrics["db.queries"] = db_server.stats.get("queries")
    metrics["db.commits"] = db_server.manager.committed
    metrics["db.rollbacks"] = db_server.manager.aborted
    metrics["db.writes"] = counting.writes
    finished = len(engine.completed)
    metrics["db.writes_per_txn"] = (counting.writes / finished
                                    if finished else 0.0)

    health = system.health_monitor
    for name in ("probes", "ejections", "readmissions"):
        metrics[f"fleet.{name}"] = health.stats.get(name) if health else 0

    metrics["resilience.retries"] = rep.ledger["retries"]
    metrics["resilience.failovers"] = sum(
        handle.session.stats.get("failovers")
        for handle in system.stations
        if getattr(handle.session, "stats", None) is not None)
    metrics["resilience.breaker_rejections"] = _sum_stats(
        gw_stats, "breaker_rejections")
    metrics["faults.injected"] = rep.report.get("faults", {}).get(
        "injected", 0)

    entry = rep.ledger
    metrics["txn.offered"] = entry["offered"]
    metrics["txn.not_started"] = entry["not_started"]
    metrics["txn.in_flight"] = entry["in_flight"]
    metrics["txn.succeeded"] = entry["succeeded"]
    for kind, count in entry["failed"].items():
        metrics[f"txn.failed_{kind}"] = count
    return metrics


# ------------------------------------------------------------ virtual time
def virtual_layers(rep) -> dict:
    """Virtual seconds per paper component over the traces of every
    finished transaction (fault injections open root spans of their
    own, which are not transactions)."""
    deterministic = rep.report.get("deterministic")
    if deterministic is not None and "layers" in deterministic:
        return dict(deterministic["layers"])
    wanted = {record.trace_id for record in rep.engine.completed}
    by_trace: dict = {}
    for span in rep.tracer.spans:
        if span.trace_id in wanted:
            by_trace.setdefault(span.trace_id, []).append(span)
    totals: dict = {}
    for trace_id, spans in sorted(by_trace.items()):
        for layer, seconds in layer_breakdown(spans).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return totals
