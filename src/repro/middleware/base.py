"""Middleware abstraction: what every mobile middleware must provide.

The paper's requirement 5 ("program/data independence: the change of
system components does not affect the existing programs") is enforced
here: applications speak to a :class:`MiddlewareSession` — ``get(url)``
and ``post(url, form)`` returning :class:`MiddlewareResponse` — and
never know whether a WAP gateway or the i-mode service is underneath.
Swapping middleware is a constructor change, which the interoperability
tests exercise for every device x middleware x bearer combination.
"""

from __future__ import annotations

import base64
import json
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional
from urllib.parse import urlsplit

from ..net.tcp import TCPConnection, tcp_stack
from ..obs import ctx_of, end_span, start_span
from ..sim import Counter, Event, Interrupt, SimulationError
from ..web.client import HTTPClient

__all__ = ["RequestTimeout", "MiddlewareResponse", "MiddlewareSession",
           "guard_timeout", "split_url", "encode_frame", "encode_obj",
           "decode_obj", "FrameReader", "BatchConfig", "RequestBatcher",
           "frame_reply", "GatewayCore"]


class RequestTimeout(Exception):
    """A middleware request exceeded its caller-supplied deadline.

    Raised (as an event failure) by sessions whose ``get``/``post`` was
    given a ``timeout``; it distinguishes "the network is slow/dead"
    from protocol-level failures so retry policies can treat it as
    transient.
    """


def guard_timeout(sim, result: Event, proc, timeout: Optional[float],
                  detail: str = "") -> None:
    """Enforce ``timeout`` on a session exchange.

    Spawns a watchdog racing ``result`` against a sim-clock deadline;
    if the deadline fires first the exchange process is interrupted
    with a :class:`RequestTimeout` carried as the interrupt cause (the
    exchange fails ``result`` with it and aborts its connection).  A
    ``timeout`` of None installs nothing.
    """
    if timeout is None:
        return

    def watchdog(env):
        expiry = env.timeout(timeout)
        try:
            yield env.any_of([result, expiry])
        except Exception:  # repro: noqa[broad-except] failed result ends the watch
            return
        if not result.triggered:
            proc.interrupt(RequestTimeout(
                f"no middleware response within {timeout:g}s"
                + (f" ({detail})" if detail else "")))

    sim.spawn(watchdog(sim), name="request-timeout")


@dataclass
class MiddlewareResponse:
    """What a mobile application gets back for a URL."""

    status: int
    content_type: str
    body: bytes
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class MiddlewareSession:
    """Interface implemented by WAPSession and IModeSession."""

    middleware_name = "abstract"

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        """Event yielding a MiddlewareResponse (or failing).

        ``trace`` is an optional observability TraceContext; sessions
        propagate it to the middleware server on whatever their protocol
        already carries (frame key or header).  It never changes what
        the request does.

        ``timeout`` is a per-request deadline in sim-seconds: when set
        and no response arrived in time, the event fails with
        :class:`RequestTimeout` and the underlying connection is
        aborted (a fresh one is established on the next request).
        """
        raise NotImplementedError

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def split_url(url: str) -> tuple[str, str]:
    """(host, path-with-query) from an absolute http URL."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"unsupported scheme in {url!r}")
    host = parts.netloc or ""
    if not host:
        raise ValueError(f"URL {url!r} has no host")
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    return host, path


# ---------------------------------------------------------------- framing
def encode_obj(obj: dict) -> bytes:
    """JSON with bytes values as {"__b64__": ...} (no length prefix).

    Used directly over record-preserving transports (WTLS records);
    :func:`encode_frame` adds the length prefix for byte streams.
    """

    def default(value):
        raise TypeError(f"unencodable {type(value).__name__}")

    prepared = {
        key: ({"__b64__": base64.b64encode(value).decode()}
              if isinstance(value, bytes) else value)
        for key, value in obj.items()
    }
    return json.dumps(prepared, separators=(",", ":"),
                      default=default).encode()


def decode_obj(data: bytes) -> dict:
    """Inverse of :func:`encode_obj`."""
    raw = json.loads(data.decode())
    return {
        key: (base64.b64decode(value["__b64__"])
              if isinstance(value, dict) and "__b64__" in value
              else value)
        for key, value in raw.items()
    }


def encode_frame(obj: dict) -> bytes:
    """Length-prefixed JSON; bytes values become {"__b64__": ...}."""
    body = encode_obj(obj)
    return struct.pack(">I", len(body)) + body


class FrameReader:
    """Incremental decoder for :func:`encode_frame` output."""

    def __init__(self):
        self._buffer = b""

    def feed(self, data: bytes) -> list[dict]:
        self._buffer += data
        frames = []
        while len(self._buffer) >= 4:
            (length,) = struct.unpack(">I", self._buffer[:4])
            if len(self._buffer) < 4 + length:
                break
            raw = json.loads(self._buffer[4: 4 + length].decode())
            self._buffer = self._buffer[4 + length:]
            frames.append({
                key: (base64.b64decode(value["__b64__"])
                      if isinstance(value, dict) and "__b64__" in value
                      else value)
                for key, value in raw.items()
            })
        return frames


# ------------------------------------------------- batching + admission
def frame_reply(status: int, message: str,
                retry_after: Optional[float] = None) -> dict:
    """A gateway-originated frame reply (WAP/Palm wire shape)."""
    meta = {} if retry_after is None else {"retry_after": retry_after}
    return {"status": status, "content_type": "text/plain",
            "body": message.encode(), "meta": meta}


@dataclass(frozen=True)
class BatchConfig:
    """Tuning for :class:`RequestBatcher` (DESIGN.md §13).

    ``window``/``max_batch`` bound the accumulate-and-flush loop: at
    most one flush per ``window`` virtual seconds, at most ``max_batch``
    requests per flush, so the gateway's sustained service rate is
    ``max_batch / window`` requests per second regardless of how many
    subscribers are connected.  ``per_item_cost`` is the virtual CPU
    cost charged per batched request, pipelined inside the flush (each
    item starts one cost after the previous, so same-flush handlers
    never resume in one kernel batch, where their order would be
    observable).

    ``watermark`` is the admission-control knob: once that many
    requests are queued, new arrivals are shed immediately with a 503
    whose Retry-After reserves the next free *future* service slot
    (``reserve_factor * window / max_batch`` seconds apart, never
    sooner than ``retry_floor``), so shed clients trickle back at the
    rate the gateway drains instead of re-stampeding in lockstep.
    ``reserve_factor > 1`` deliberately over-spaces reservations,
    leaving slack for fresh arrivals between returning shed clients.
    ``jitter`` spreads the hints (fraction of the hint, needs a seeded
    stream).  ``watermark=0`` disables shedding; everything queues.

    ``pressure_threshold`` composes an *upstream* congestion signal
    into the same shed decision: when the batcher's ``pressure()``
    callable (e.g. the cell's shared-airtime backlog) reports at least
    this many waiters, new arrivals are shed exactly as if the queue
    were over the watermark.  ``0`` disables the pressure gate.
    """

    window: float = 0.05
    max_batch: int = 8
    watermark: int = 0
    retry_floor: float = 0.25
    jitter: float = 0.2
    per_item_cost: float = 0.0
    reserve_factor: float = 1.0
    pressure_threshold: int = 0

    def __post_init__(self):
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.watermark < 0:
            raise ValueError(f"watermark must be >= 0, got {self.watermark}")
        if self.retry_floor < 0:
            raise ValueError(
                f"retry_floor must be >= 0, got {self.retry_floor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.per_item_cost < 0:
            raise ValueError(
                f"per_item_cost must be >= 0, got {self.per_item_cost}")
        if self.reserve_factor < 1.0:
            raise ValueError(
                f"reserve_factor must be >= 1, got {self.reserve_factor}")
        if self.pressure_threshold < 0:
            raise ValueError(
                f"pressure_threshold must be >= 0, "
                f"got {self.pressure_threshold}")

    @property
    def drain_gap(self) -> float:
        """Virtual seconds one shed reservation advances the pointer."""
        return self.reserve_factor * self.window / self.max_batch


class RequestBatcher:
    """Accumulate-and-flush front end for a gateway request handler.

    Serve loops call :meth:`submit` instead of invoking the handler
    inline and yield the returned event for the reply.  One flush
    process drains the queue in paced batches (see :class:`BatchConfig`)
    and spawns the handler per admitted request, so middleware occupancy
    is bounded by the batch size rather than scaling with concurrent
    subscribers.  ``handler(request, parent=...)`` is the gateway's
    usual per-request generator; ``reply_factory(status, message,
    retry_after)`` builds protocol-shaped shed/error replies.

    Everything runs on the sim clock with seeded jitter only, so
    batched runs stay byte-identical under the determinism guards.
    """

    def __init__(self, sim, config: BatchConfig,
                 handler: Callable, reply_factory: Callable,
                 stream=None, stats: Optional[Counter] = None,
                 name: str = "gw-batcher",
                 pressure: Optional[Callable[[], int]] = None,
                 metrics=None, metric_name: Optional[str] = None):
        self.sim = sim
        self.config = config
        self.handler = handler
        self.reply_factory = reply_factory
        self.stream = stream
        # Upstream congestion probe (RAN backpressure); consulted per
        # submit when the config sets a pressure_threshold.
        self.pressure = pressure
        self.stats = stats if stats is not None else Counter()
        # Optional live export through repro.obs.metrics: queue depth as
        # a first-class gauge (updated on every enqueue/dequeue) and the
        # shed counters mirrored into a registry counter, so health
        # checks and autoscalers read current values instead of poking
        # batcher internals.  Purely observational — never consulted by
        # the batcher itself, so wiring it changes no virtual behaviour.
        self.depth_gauge = None
        self.shed_counter = None
        if metrics is not None:
            prefix = metric_name or name
            self.depth_gauge = metrics.gauge(f"{prefix}.queue_depth")
            self.shed_counter = metrics.counter(f"{prefix}.sheds")
        self._queue: Deque[tuple] = deque()
        self._wakeup: Optional[Event] = None
        self._last_flush: Optional[float] = None
        # Virtual-FIFO reservation pointer for shed Retry-After hints:
        # each shed claims the next future service slot, so hints grow
        # with (virtual) queue depth and returns arrive spread out.
        self._next_slot = 0.0
        sim.spawn(self._flush_loop(), name=name)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _sync_depth(self) -> None:
        if self.depth_gauge is not None:
            self.depth_gauge.set(len(self._queue))

    def submit(self, request, parent=None) -> Event:
        """Enqueue (or shed) a request; event yields the reply."""
        done = self.sim.event()
        cfg = self.config
        if cfg.watermark and len(self._queue) >= cfg.watermark:
            self.stats.incr("admission_sheds")
            if self.shed_counter is not None:
                self.shed_counter.incr("admission")
            done.succeed(self.reply_factory(
                503, "gateway overloaded", self._reserve_slot()))
            return done
        if (cfg.pressure_threshold and self.pressure is not None
                and self.pressure() >= cfg.pressure_threshold):
            # RAN backpressure: the radio is already backlogged, so a
            # reply would queue behind the very congestion the client
            # is suffering.  Park the client on a reservation instead.
            self.stats.incr("pressure_sheds")
            if self.shed_counter is not None:
                self.shed_counter.incr("pressure")
            done.succeed(self.reply_factory(
                503, "air interface congested", self._reserve_slot()))
            return done
        self._queue.append((request, parent, done))
        self._sync_depth()
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        return done

    def reject_pending(self, message: str = "gateway unavailable") -> None:
        """Fail-fast every queued request (crash hook): waiting serve
        loops wake with a 503 instead of blocking forever."""
        while self._queue:
            _request, _parent, done = self._queue.popleft()
            if not done.triggered:
                done.succeed(self.reply_factory(
                    503, message, self.config.retry_floor))
        self._sync_depth()

    def _reserve_slot(self) -> float:
        cfg = self.config
        now = self.sim.now
        base = max(self._next_slot, now + cfg.retry_floor)
        self._next_slot = base + cfg.drain_gap
        hint = base - now
        if self.stream is not None and cfg.jitter > 0:
            hint *= 1.0 + cfg.jitter * (2.0 * self.stream.random() - 1.0)
        return round(hint, 6)

    def _flush_loop(self):
        sim = self.sim
        cfg = self.config
        while True:
            if not self._queue:
                self._wakeup = sim.event()
                yield self._wakeup
                self._wakeup = None
            if cfg.window > 0 and self._last_flush is not None:
                wait = self._last_flush + cfg.window - sim.now
                if wait > 0:
                    yield sim.timeout(wait)
            batch = [self._queue.popleft()
                     for _ in range(min(cfg.max_batch, len(self._queue)))]
            self._sync_depth()
            if not batch:
                # Drained while pacing (crash hook): nothing to flush.
                continue
            self._last_flush = sim.now
            self.stats.incr("batches")
            self.stats.incr("batched_requests", len(batch))
            for request, parent, done in batch:
                if cfg.per_item_cost > 0:
                    # Pipeline the per-item cost: consecutive items
                    # start one cost apart, never in the same kernel
                    # batch — two handlers resuming at one timestamp
                    # both write the gateway counters, and the
                    # commutativity sanitizer proves that order leaks
                    # into the report (flush counts diverge on flip).
                    yield sim.timeout(cfg.per_item_cost)
                sim.spawn(self._run_item(request, parent, done),
                          name="gw-batch-item")

    def _run_item(self, request, parent, done):
        try:
            reply = yield from self.handler(request, parent=parent)
        except (Interrupt, SimulationError):
            # Kernel control flow: settle the waiter, then propagate.
            if not done.triggered:
                done.succeed(self.reply_factory(
                    503, "gateway interrupted", self.config.retry_floor))
            raise
        except Exception as exc:  # repro: noqa[broad-except] batch barrier
            # The serve loop must never hang on a reply that will not
            # come; handler bugs become a 500, matching the CGI barrier.
            self.stats.incr("batch_item_errors")
            reply = self.reply_factory(
                500, f"{type(exc).__name__}: {exc}", None)
        if not done.triggered:
            done.succeed(reply)


# ------------------------------------------------------- gateway core
class GatewayCore:
    """What the WAP gateway, i-mode centre and clipping proxy share.

    Figure 2 has one *mobile middleware* component; Table 3's three
    implementations differ in markup, session model and payload limit,
    not in how they sit between the wireless and wired networks.  This
    class owns that common placement:

    * the listener, accept loop, serve loop and ``crash``/``restart``;
    * the optional :class:`RequestBatcher` (batched or inline serving);
    * the per-request wrapper (request counter, handicap, span);
    * the guarded origin fetch: URL split (400), DNS (502), circuit
      breaker (503 + retry-after), the origin call with its timeout
      (504 on silence) and breaker bookkeeping by status.

    A protocol subclass supplies the transform step
    (:meth:`_transform`) and the names its processes, spans and counters
    have always carried, and overrides what else differs: the wire
    codec and request accessors (:meth:`_decoder`, :meth:`_encode_reply`,
    ``_request_*``; the defaults speak the length-prefixed frame
    protocol), the shape of its error replies (:meth:`_error_reply`)
    and the origin request headers (:meth:`_origin_headers`).
    """

    # Process, span, counter and message names (subclasses override).
    accept_process = "gateway"        # accept loop, "<name>@<node>"
    batch_process = "gw-batch"        # batcher flush loop, "<name>@<node>"
    session_process = "gateway-session"
    span_name = "gateway"
    sessions_counter = "sessions"
    requests_counter = "requests"
    crash_message = "gateway crashed"
    breaker_message = "gateway circuit open"

    def __init__(self, node, registry, port: int, tcp=None,
                 breaker=None, origin_timeout: float = 30.0,
                 batching: Optional[BatchConfig] = None,
                 batch_stream=None, air_pressure=None,
                 handicap: float = 0.0, metrics=None,
                 metric_name: Optional[str] = None):
        if handicap < 0:
            raise ValueError(f"handicap must be >= 0, got {handicap}")
        self.node = node
        self.sim = node.sim
        self.registry = registry
        self.port = port
        self.tcp = tcp or tcp_stack(node)
        self.http = HTTPClient(node, tcp=self.tcp)
        # Optional CircuitBreaker guarding gateway -> origin calls.
        self.breaker = breaker
        self.origin_timeout = origin_timeout
        self.stats = Counter()
        # Per-request service handicap in sim-seconds, charged before
        # handling.  0 (the default) adds no event; canary "v2"
        # variants use it as the public knob for a degraded build.
        self.handicap = handicap
        # Optional accumulate-and-flush batching + admission control:
        # serve loops route requests through the batcher when present
        # (None serves inline).
        self.batcher = None
        if batching is not None:
            self.batcher = RequestBatcher(
                self.sim, batching, handler=self._handle,
                reply_factory=self._shed_reply, stream=batch_stream,
                stats=self.stats, name=f"{self.batch_process}@{node.name}",
                pressure=air_pressure, metrics=metrics,
                metric_name=metric_name)
        self.is_down = False
        self._conns: list[TCPConnection] = []
        self._listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(self._listener,
                                         self.sessions_counter,
                                         self._serve, self.session_process),
                       name=f"{self.accept_process}@{node.name}")

    # -- protocol hooks ----------------------------------------------------
    # The defaults are the length-prefixed frame protocol WAP and Palm
    # speak (dict requests and replies); i-mode overrides them for HTTP.
    # Gateway-originated replies: origin-guard errors and batcher sheds.
    _error_reply = staticmethod(frame_reply)
    _shed_reply = staticmethod(frame_reply)

    def _decoder(self):
        """Incremental request decoder with ``feed(chunk) -> [request]``."""
        return FrameReader()

    def _encode_reply(self, reply) -> bytes:
        return encode_frame(reply)

    def _request_url(self, request) -> str:
        return request.get("url", "")

    def _request_method(self, request) -> str:
        return request.get("method", "GET").upper()

    def _request_body(self, request) -> bytes:
        return request.get("body", b"")

    def _origin_headers(self) -> Optional[dict]:
        """Extra headers on the origin request (None: none)."""
        return None

    def _transform(self, request, response, span):
        """Generator turning the origin response into the device reply."""
        raise NotImplementedError

    # -- fault hooks -------------------------------------------------------
    def crash(self) -> None:
        """Hard-stop: every established session is severed; new sessions
        are refused (closed immediately) until :meth:`restart`."""
        if self.is_down:
            return
        self.is_down = True
        self.stats.incr("crashes")
        if self.batcher is not None:
            self.batcher.reject_pending(self.crash_message)
        for conn in self._conns:
            conn.close()
        self._conns.clear()

    def restart(self) -> None:
        if not self.is_down:
            return
        self.is_down = False
        self.stats.incr("restarts")

    # -- serving -------------------------------------------------------------
    def _accept_loop(self, listener, counter: str, serve, process: str):
        while True:
            conn = yield listener.accept()
            if self.is_down:
                conn.close()
                continue
            self._conns.append(conn)
            self.stats.incr(counter)
            self.sim.spawn(serve(conn), name=process)

    def _serve(self, conn):
        decoder = self._decoder()
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                self._forget(conn)
                return
            for request in decoder.feed(chunk):
                reply = yield from self._answer(request, conn)
                if reply is None:
                    return
                conn.send(self._encode_reply(reply))

    def _answer(self, request, conn):
        """Handle one request (batched or inline); None drops the reply."""
        # conn.trace arrives as packet metadata via TCP.
        if self.batcher is not None:
            reply = yield self.batcher.submit(request, parent=conn.trace)
        else:
            reply = yield from self._handle(request, parent=conn.trace)
        if self.is_down or \
                conn.state not in (TCPConnection.ESTABLISHED,
                                   TCPConnection.CLOSE_WAIT):
            # Crashed (or peer gone) while handling: drop the reply.
            self._forget(conn)
            return None
        return reply

    def _forget(self, conn) -> None:
        if conn in self._conns:
            self._conns.remove(conn)

    def _handle(self, request, parent=None):
        self.stats.incr(self.requests_counter)
        if self.handicap > 0:
            yield self.sim.timeout(self.handicap)
        span = None
        if self.sim.tracer is not None and parent is not None:
            span = start_span(self.sim, self.span_name, "middleware",
                              parent=parent, url=self._request_url(request))
        try:
            reply = yield from self._handle_inner(request, span)
        finally:
            end_span(self.sim, span)
        return reply

    def _handle_inner(self, request, span):
        """The guarded origin fetch, then the protocol's transform."""
        try:
            host, path = split_url(self._request_url(request))
        except ValueError as exc:
            return self._error_reply(400, str(exc))
        origin = self.registry.lookup(host)
        if origin is None:
            self.stats.incr("dns_failures")
            return self._error_reply(502, f"cannot resolve {host}")
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            self.stats.incr("breaker_rejections")
            return self._error_reply(503, self.breaker_message,
                                     breaker.retry_after)
        if self._request_method(request) == "POST":
            response = yield self.http.post(
                origin, path, self._request_body(request),
                headers=self._origin_headers(),
                timeout=self.origin_timeout, trace=ctx_of(span))
        else:
            response = yield self.http.get(
                origin, path, headers=self._origin_headers(),
                timeout=self.origin_timeout, trace=ctx_of(span))
        if response is None:
            self.stats.incr("origin_timeouts")
            if breaker is not None:
                breaker.record_failure()
            return self._error_reply(504, "origin timeout")
        if breaker is not None:
            # 5xx (including load-shed 503s) count against the origin.
            if response.status >= 500:
                breaker.record_failure()
            else:
                breaker.record_success()
        return (yield from self._transform(request, response, span))
