"""Tests for repro.obs: tracing, metrics, profiling, breakdowns.

Covers the tentpole acceptance properties: spans nest across the full
device -> host transaction, context propagation survives middleware
re-encoding and TCP segmentation, the per-layer breakdown sums exactly
to the root duration, metrics aggregate, and both the tracer and the
kernel profiler are off (and cost nothing) by default.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.obs import (
    LAYER_ORDER,
    KernelProfiler,
    MetricsRegistry,
    Span,
    TraceContext,
    Tracer,
    format_breakdown,
    install_profiler,
    install_tracer,
    layer_breakdown,
    render_breakdown_table,
    trace_to_dict,
)
from repro.obs.report import _span_depths
from repro.sim import Simulator


def traced_commerce_run(middleware="WAP", bearer=("cellular", "GPRS")):
    system = MCSystemBuilder(middleware=middleware, bearer=bearer).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Toshiba E740")
    tracer = install_tracer(system.sim)
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(account="ann", user="ann"))
    system.run(until=600)
    return tracer, done.value


# ------------------------------------------------------------- defaults
def test_tracer_and_profiler_off_by_default():
    sim = Simulator()
    assert sim.tracer is None
    assert sim._profiler is None


def test_untraced_system_records_no_spans():
    system = MCSystemBuilder().build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Toshiba E740")
    engine = TransactionEngine(system)
    done = engine.run_flow(
        handle, shop.browse_and_buy(account="ann", user="ann"))
    system.run(until=600)
    assert done.value.ok
    assert done.value.trace_id is None
    assert system.sim.tracer is None


def test_tracing_does_not_perturb_measurement():
    # Context rides packets and connections as metadata, never as wire
    # bytes: the traced run's timings equal the untraced run's exactly.
    def run(traced):
        system = MCSystemBuilder().build()
        shop = CommerceApp()
        system.mount_application(shop)
        system.host.payment.open_account("ann", 100_000)
        handle = system.add_station("Toshiba E740")
        if traced:
            install_tracer(system.sim)
        engine = TransactionEngine(system)
        done = engine.run_flow(
            handle, shop.browse_and_buy(account="ann", user="ann"))
        system.run(until=600)
        record = done.value
        return (record.latency, record.requests, record.bytes_received,
                record.ok)

    assert run(False) == run(True)


# ------------------------------------------------- end-to-end span graph
def test_spans_nest_across_full_transaction():
    tracer, record = traced_commerce_run()
    assert record.ok
    spans = tracer.for_trace(record.trace_id)
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    root = roots[0]
    assert root.layer == "app"
    names = {s.name for s in spans}
    # One span per pipeline stage of the paper's six-component path.
    assert "wsp.request" in names       # device-side middleware client
    assert "wap.gateway" in names       # middleware server
    assert "wap.translate" in names     # middleware re-encoding
    assert "web.handle" in names        # host web server
    assert "web.cgi" in names           # application program
    assert "db.query" in names          # database tier
    assert "device.render" in names     # device-side rendering
    for span in spans:
        assert span.finished
        # Spans may outlive the root (session teardown traffic still
        # carries the context) but none can precede it.
        assert root.start <= span.start
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert parent.start <= span.start
    # Every layer of the pipeline is represented.
    layers = {s.layer for s in spans}
    assert {"app", "middleware", "wireless", "wired", "web",
            "db", "device"} <= layers


@pytest.mark.parametrize("middleware", ["WAP", "i-mode", "Palm"])
def test_context_survives_middleware_reencoding(middleware):
    tracer, record = traced_commerce_run(middleware=middleware)
    assert record.ok
    spans = tracer.for_trace(record.trace_id)
    names = {s.name for s in spans}
    # The request is re-encoded at the middleware hop (WSP frame, HTTP
    # proxying, clipping frame) and the context must survive into the
    # origin server and the database behind it.
    assert "web.handle" in names
    assert "db.query" in names


def test_context_survives_tcp_segmentation():
    tracer, record = traced_commerce_run()
    spans = tracer.for_trace(record.trace_id)
    link_spans = [s for s in spans if s.name.endswith(".tx")]
    # Link-level transmit spans exist in the same trace: the context was
    # recovered from individual TCP segments, after segmentation.
    assert link_spans
    assert {s.layer for s in link_spans} == {"wireless", "wired"}
    for span in link_spans:
        assert span.trace_id == record.trace_id


def test_breakdown_sums_to_root_duration():
    tracer, record = traced_commerce_run()
    breakdown = layer_breakdown(tracer, trace_id=record.trace_id)
    assert sum(breakdown.values()) == pytest.approx(record.latency,
                                                    abs=1e-9)
    assert set(breakdown) <= set(LAYER_ORDER)
    assert all(v >= 0 for v in breakdown.values())


def test_trace_export_is_json_ready():
    import json

    tracer, record = traced_commerce_run()
    payload = trace_to_dict(tracer, trace_id=record.trace_id)
    encoded = json.dumps(payload)  # raises if anything is unencodable
    decoded = json.loads(encoded)
    assert decoded["root"]["name"] == f"txn.{record.flow_name}"
    assert decoded["breakdown_total"] == pytest.approx(record.latency)
    assert len(decoded["spans"]) == len(tracer.for_trace(record.trace_id))


# ----------------------------------------------------- synthetic traces
def make_span(span_id, layer, start, end, parent_id=None, trace_id=1):
    return Span(name=f"s{span_id}", layer=layer, trace_id=trace_id,
                span_id=span_id, parent_id=parent_id, start=start, end=end)


def test_layer_breakdown_deepest_span_wins():
    spans = [
        make_span(1, "app", 0.0, 10.0),
        make_span(2, "middleware", 1.0, 9.0, parent_id=1),
        make_span(3, "wireless", 2.0, 5.0, parent_id=2),
    ]
    breakdown = layer_breakdown(spans)
    assert breakdown == {
        "app": pytest.approx(2.0),          # [0,1) and [9,10)
        "middleware": pytest.approx(5.0),   # [1,2) and [5,9)
        "wireless": pytest.approx(3.0),     # [2,5)
    }
    assert sum(breakdown.values()) == pytest.approx(10.0)


def test_layer_breakdown_ties_go_to_latest_start():
    spans = [
        make_span(1, "app", 0.0, 10.0),
        make_span(2, "web", 0.0, 10.0, parent_id=1),
        make_span(3, "db", 4.0, 10.0, parent_id=1),  # same depth as 2
    ]
    breakdown = layer_breakdown(spans)
    assert breakdown == {"web": pytest.approx(4.0),
                         "db": pytest.approx(6.0)}


def test_layer_breakdown_clips_open_spans():
    spans = [
        make_span(1, "app", 0.0, 6.0),
        make_span(2, "web", 4.0, None, parent_id=1),  # never ended
    ]
    breakdown = layer_breakdown(spans)
    assert breakdown == {"app": pytest.approx(4.0),
                         "web": pytest.approx(2.0)}


def test_layer_breakdown_requires_finished_root():
    with pytest.raises(ValueError):
        layer_breakdown([make_span(1, "app", 0.0, None)])


def reference_breakdown(spans):
    """The O(boundaries x spans) scan the sweep replaced: at every
    elementary interval, the maximum (depth, start, span id) among the
    clipped spans covering it wins."""
    root = [s for s in spans if s.parent_id is None][0]
    lo, hi = root.start, root.end
    if hi <= lo:
        return {root.layer: 0.0}
    depths = _span_depths(spans)
    clipped = []
    for span in spans:
        start = max(span.start, lo)
        end = min(span.end if span.end is not None else hi, hi)
        if end > start:
            clipped.append((start, end, depths[span.span_id], span))
    boundaries = sorted({t for start, end, _, _ in clipped
                         for t in (start, end)})
    totals = {}
    for left, right in zip(boundaries, boundaries[1:]):
        covering = [
            (depth, span.start, span.span_id, span)
            for start, end, depth, span in clipped
            if start <= left and end >= right
        ]
        _, _, _, winner = max(covering)
        totals[winner.layer] = totals.get(winner.layer, 0.0) + (right - left)
    return totals


# Tenth-second grid points: inexact in binary, so the property also
# holds the sweep to the reference's float rounding.
_TICKS = st.integers(-3, 25).map(lambda k: k * 0.1)
_DROPPED_PARENT = 999


@st.composite
def synthetic_traces(draw):
    """A root plus children that may be open, stick out of the root's
    window, share depth and start, or hang off a dropped parent."""
    root_start = draw(st.integers(0, 10)) * 0.1
    root_end = root_start + draw(st.integers(0, 12)) * 0.1
    spans = [make_span(1, draw(st.sampled_from(LAYER_ORDER)),
                       root_start, root_end)]
    for span_id in range(2, draw(st.integers(0, 12)) + 2):
        start = draw(_TICKS)
        length = draw(st.one_of(st.none(), st.integers(0, 10)))
        end = None if length is None else start + length * 0.1
        parent = draw(st.sampled_from(
            [s.span_id for s in spans] + [_DROPPED_PARENT]))
        spans.append(make_span(span_id, draw(st.sampled_from(LAYER_ORDER)),
                               start, end, parent_id=parent))
    return spans


@settings(max_examples=300, deadline=None)
@given(spans=synthetic_traces())
@example(spans=[  # open spans, one sticking out of the window
    make_span(1, "app", 0.0, 1.0),
    make_span(2, "web", 0.3, None, parent_id=1),
    make_span(3, "db", 0.5, None, parent_id=2),
    make_span(4, "wired", -0.2, 1.7, parent_id=1)])
@example(spans=[  # equal depths with equal starts
    make_span(1, "app", 0.0, 1.0),
    make_span(2, "web", 0.2, 0.7, parent_id=1),
    make_span(3, "db", 0.2, 0.9, parent_id=1),
    make_span(4, "wired", 0.2, 0.4, parent_id=1)])
@example(spans=[  # parent dropped: the orphans sit at depth 0
    make_span(1, "app", 0.0, 1.0),
    make_span(2, "web", 0.1, 0.8, parent_id=_DROPPED_PARENT),
    make_span(3, "db", 0.1, 0.6, parent_id=2),
    make_span(4, "wired", 0.0, 1.0, parent_id=_DROPPED_PARENT)])
@example(spans=[  # zero-length root
    make_span(1, "app", 0.4, 0.4),
    make_span(2, "web", 0.1, 0.8, parent_id=1)])
def test_layer_breakdown_matches_reference_scan(spans):
    assert layer_breakdown(spans) == reference_breakdown(spans)


def test_format_breakdown_distinguishes_wireless_from_wired():
    line = format_breakdown({"wireless": 1.0, "wired": 2.0})
    assert "wls=1.000" in line
    assert "wrd=2.000" in line


def test_render_breakdown_table_has_total():
    table = render_breakdown_table({"web": 1.0, "db": 3.0})
    assert "total" in table
    assert "4.0000" in table
    assert table.index("web") < table.index("db")  # LAYER_ORDER


# ------------------------------------------------------------ the tracer
def test_tracer_ids_are_instance_local():
    sim_a, sim_b = Simulator(), Simulator()
    tracer_a, tracer_b = Tracer(sim_a), Tracer(sim_b)
    span_a = tracer_a.start("one", "app")
    span_b = tracer_b.start("one", "app")
    assert span_a.trace_id == span_b.trace_id
    assert span_a.span_id == span_b.span_id


def test_tracer_max_spans_bound():
    sim = Simulator()
    tracer = Tracer(sim, max_spans=2)
    for _ in range(5):
        tracer.end(tracer.start("s", "app"))
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_trace_context_wire_and_header_round_trip():
    ctx = TraceContext(trace_id=7, span_id=13)
    assert TraceContext.from_wire(ctx.to_wire()) == ctx
    assert TraceContext.from_header(ctx.to_header()) == ctx
    assert TraceContext.from_wire(None) is None
    assert TraceContext.from_header("") is None
    assert TraceContext.from_header("garbage") is None


# ------------------------------------------------------------- metrics
def test_metrics_registry_aggregation():
    registry = MetricsRegistry()
    registry.incr("http", "requests")
    registry.incr("http", "requests", 2)
    assert registry.counter("http").get("requests") == 3
    recorder = registry.latency("rtt")
    recorder.start("a", 0.0)
    recorder.stop("a", 1.0)
    recorder.start("b", 1.0)
    recorder.stop("b", 4.0)
    summary = registry.summary("rtt")
    assert summary.count == 2
    assert summary.mean == pytest.approx(2.0)
    assert registry.summary("unknown") is None
    registry.record("queue", 0.0, 5.0)
    assert registry.counter("http") is registry.counter("http")
    assert registry.names() == ["http", "queue", "rtt"]
    snapshot = registry.snapshot()
    assert snapshot["counters"]["http"]["requests"] == 3
    assert snapshot["latencies"]["rtt"]["count"] == 2
    assert snapshot["series"]["queue"]["count"] == 1


# ------------------------------------------------------------ profiling
def test_profiler_counts_events_and_resumes():
    sim = Simulator()
    profiler = install_profiler(sim)
    assert sim._profiler is profiler

    def worker(env):
        for _ in range(3):
            yield env.timeout(1.0)

    sim.spawn(worker(sim), name="worker")
    sim.run()
    assert profiler.events_processed > 0
    assert profiler.resumes.get("worker") == 4  # bootstrap + 3 timeouts
    summary = profiler.summary()
    assert summary["events_processed"] == profiler.events_processed
    assert ("worker", 4) in profiler.top_resumed()


def test_profiler_off_means_no_bookkeeping():
    sim = Simulator()

    def worker(env):
        yield env.timeout(1.0)

    sim.spawn(worker(sim), name="worker")
    sim.run()
    assert sim._profiler is None  # nothing installed, nothing recorded
