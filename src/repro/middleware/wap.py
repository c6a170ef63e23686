"""WAP: the gateway and the device-side session (paper §5.1, Table 3).

"Requests from mobile stations are sent as a URL through the network to
the WAP Gateway; responses are sent from the Web server to the WAP
Gateway in HTML and are then translated in WML and sent to the mobile
stations."  That is literally the :class:`WAPGateway` request path:

    mobile --WSP--> gateway --DNS+HTTP--> origin web server
    mobile <--WMLC-- gateway <--HTML------ origin

Simplifications (documented per DESIGN.md): WSP/WTP run over our TCP
rather than WDP/UDP, and the session is one TCP connection per
:class:`WAPSession` — which preserves the property Table 3's benchmark
measures: WAP pays a gateway hop plus per-request translation, and
must *establish* a session before the first byte, while i-mode is
always-on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional
from urllib.parse import urlencode

from ..net.addressing import IPAddress
from ..net.dns import NameRegistry
from ..net.node import Node
from ..net.tcp import TCPConnection, TCPStack, tcp_stack
from ..obs import ctx_of, end_span, start_span
from ..security.wtls import SecureChannel, SecurityError
from ..sim import Counter, Event, Interrupt, RandomStream
from ..web.client import HTTPClient
from .adaptation import html_to_wml
from .base import (
    BatchConfig,
    FrameReader,
    MiddlewareResponse,
    MiddlewareSession,
    RequestBatcher,
    decode_obj,
    encode_frame,
    encode_obj,
    frame_reply,
    guard_timeout,
    split_url,
)
from .wml import WML_CONTENT_TYPE, WMLC_CONTENT_TYPE, encode_wmlc, parse_wml

__all__ = ["WAPGateway", "WAPSession", "WSP_PORT", "WTLS_PORT"]

WSP_PORT = 9201
WTLS_PORT = 9203  # WAP's registered secure-session port
TRANSLATION_TIME_PER_KB = 0.002  # HTML->WML transcoding CPU cost


class WAPGateway:
    """The protocol translation point between wireless and wired worlds."""

    # Table 3 properties (cross-checked by the static model checker).
    markup = "WML"
    session_model = "gateway-session"
    payload_limit: Optional[int] = None

    def __init__(self, node: Node, registry: NameRegistry,
                 port: int = WSP_PORT, tcp: Optional[TCPStack] = None,
                 entropy: Optional[RandomStream] = None,
                 wtls_port: int = WTLS_PORT,
                 cache_ttl: float = 0.0,
                 breaker=None, origin_timeout: float = 30.0,
                 batching: Optional[BatchConfig] = None,
                 batch_stream: Optional[RandomStream] = None,
                 air_pressure=None, handicap: float = 0.0,
                 metrics=None, metric_name: Optional[str] = None):
        if handicap < 0:
            raise ValueError(f"handicap must be >= 0, got {handicap}")
        self.node = node
        self.sim = node.sim
        self.registry = registry
        self.port = port
        self.wtls_port = wtls_port
        self.tcp = tcp or tcp_stack(node)
        self.http = HTTPClient(node, tcp=self.tcp)
        self.entropy = entropy
        # Optional CircuitBreaker guarding gateway -> origin calls.
        self.breaker = breaker
        self.origin_timeout = origin_timeout
        # Response cache for GETs (real gateways cached aggressively to
        # spare the air interface); 0 disables it.
        self.cache_ttl = cache_ttl
        self._cache: dict[tuple, tuple[float, dict]] = {}
        self.stats = Counter()
        # Per-request service handicap in sim-seconds, charged before
        # handling.  0 (the default) adds no event and keeps legacy
        # runs bit-for-bit; canary "v2" variants use it as the public
        # knob for a deliberately degraded build.
        self.handicap = handicap
        # Optional accumulate-and-flush batching + admission control:
        # serve loops route requests through the batcher when present
        # (None keeps the legacy inline path bit-for-bit).
        self.batcher = None
        if batching is not None:
            self.batcher = RequestBatcher(
                self.sim, batching, handler=self._handle,
                reply_factory=frame_reply, stream=batch_stream,
                stats=self.stats, name=f"wap-batch@{node.name}",
                pressure=air_pressure, metrics=metrics,
                metric_name=metric_name)
        self.is_down = False
        self._conns: list[TCPConnection] = []
        self._listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(), name=f"wap-gw@{node.name}")
        # WTLS: WAP's transport security layer, on its registered port.
        # Enabled only when the gateway is given an entropy stream.
        if entropy is not None:
            self._secure_listener = self.tcp.listen(wtls_port)
            self.sim.spawn(self._secure_accept_loop(),
                           name=f"wap-wtls@{node.name}")

    # -- fault hooks -------------------------------------------------------
    def crash(self) -> None:
        """Hard-stop: every established session is severed; new sessions
        are refused (closed immediately) until :meth:`restart`."""
        if self.is_down:
            return
        self.is_down = True
        self.stats.incr("crashes")
        if self.batcher is not None:
            self.batcher.reject_pending("gateway crashed")
        for conn in self._conns:
            conn.close()
        self._conns.clear()

    def restart(self) -> None:
        if not self.is_down:
            return
        self.is_down = False
        self.stats.incr("restarts")

    def _accept_loop(self):
        while True:
            conn = yield self._listener.accept()
            if self.is_down:
                conn.close()
                continue
            self._conns.append(conn)
            self.stats.incr("wsp_sessions")
            self.sim.spawn(self._serve(conn), name="wsp-session")

    def _secure_accept_loop(self):
        while True:
            conn = yield self._secure_listener.accept()
            if self.is_down:
                conn.close()
                continue
            self._conns.append(conn)
            self.stats.incr("wtls_sessions")
            self.sim.spawn(self._serve_secure(conn), name="wtls-session")

    def _serve_secure(self, conn: TCPConnection):
        channel = SecureChannel(conn, self.entropy)
        try:
            yield channel.handshake_server()
        except SecurityError:
            self.stats.incr("wtls_handshake_failures")
            self._forget(conn)
            return
        while True:
            try:
                record = yield channel.recv()
            except SecurityError:
                self.stats.incr("wtls_record_failures")
                self._forget(conn)
                return
            if record == b"":
                self._forget(conn)
                return
            request = decode_obj(record)
            if self.batcher is not None:
                reply = yield self.batcher.submit(request,
                                                  parent=conn.trace)
            else:
                reply = yield from self._handle(request,
                                                parent=conn.trace)
            if self.is_down or \
                    conn.state not in (TCPConnection.ESTABLISHED,
                                       TCPConnection.CLOSE_WAIT):
                # Crashed (or peer gone) while handling: drop the reply.
                self._forget(conn)
                return
            channel.send(encode_obj(reply))

    def _serve(self, conn: TCPConnection):
        reader = FrameReader()
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                self._forget(conn)
                return
            for request in reader.feed(chunk):
                # conn.trace arrives as packet metadata via TCP.
                if self.batcher is not None:
                    reply = yield self.batcher.submit(request,
                                                      parent=conn.trace)
                else:
                    reply = yield from self._handle(request,
                                                    parent=conn.trace)
                if self.is_down or \
                        conn.state not in (TCPConnection.ESTABLISHED,
                                           TCPConnection.CLOSE_WAIT):
                    self._forget(conn)
                    return
                conn.send(encode_frame(reply))

    def _forget(self, conn: TCPConnection) -> None:
        if conn in self._conns:
            self._conns.remove(conn)

    def _handle(self, request: dict, parent=None):
        self.stats.incr("wsp_requests")
        if self.handicap > 0:
            yield self.sim.timeout(self.handicap)
        span = None
        if self.sim.tracer is not None and parent is not None:
            span = start_span(self.sim, "wap.gateway", "middleware",
                              parent=parent,
                              url=request.get("url", ""))
        try:
            reply = yield from self._handle_inner(request, span)
        finally:
            end_span(self.sim, span)
        return reply

    def _handle_inner(self, request: dict, span):
        url = request.get("url", "")
        method = request.get("method", "GET").upper()
        cache_key = (method, url, request.get("accept", ""))
        if self.cache_ttl > 0 and method == "GET":
            cached = self._cache.get(cache_key)
            if cached is not None and \
                    self.sim.now - cached[0] <= self.cache_ttl:
                self.stats.incr("cache_hits")
                reply = dict(cached[1])
                reply["meta"] = dict(reply.get("meta", {}), cache_hit=True)
                return reply
        try:
            host, path = split_url(url)
        except ValueError as exc:
            return {"status": 400, "content_type": "text/plain",
                    "body": str(exc).encode(), "meta": {}}
        origin = self.registry.lookup(host)
        if origin is None:
            self.stats.incr("dns_failures")
            return {"status": 502, "content_type": "text/plain",
                    "body": f"cannot resolve {host}".encode(), "meta": {}}

        if self.breaker is not None and not self.breaker.allow():
            self.stats.incr("breaker_rejections")
            return {"status": 503, "content_type": "text/plain",
                    "body": b"gateway circuit open",
                    "meta": {"retry_after": self.breaker.retry_after}}

        # Negotiate: origins that author native WML serve it directly
        # (no transcoding); others fall back to HTML for translation.
        negotiate = {"accept": f"{WML_CONTENT_TYPE}, text/html"}
        method = request.get("method", "GET").upper()
        if method == "POST":
            response = yield self.http.post(
                origin, path, request.get("body", b""),
                headers=negotiate, timeout=self.origin_timeout,
                trace=ctx_of(span))
        else:
            response = yield self.http.get(origin, path,
                                           headers=negotiate,
                                           timeout=self.origin_timeout,
                                           trace=ctx_of(span))
        if response is None:
            self.stats.incr("origin_timeouts")
            if self.breaker is not None:
                self.breaker.record_failure()
            return {"status": 504, "content_type": "text/plain",
                    "body": b"origin timeout", "meta": {}}
        if self.breaker is not None:
            # 5xx (including load-shed 503s) count against the origin.
            if response.status >= 500:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()

        reply = yield from self._translate(request, response, parent=span)
        if self.cache_ttl > 0 and method == "GET" and \
                reply.get("status") == 200:
            self._cache[cache_key] = (self.sim.now, reply)
        return reply

    def _translate(self, request: dict, response, parent=None):
        """HTML -> WML (-> WMLC) translation of the origin response."""
        span = None
        if parent is not None:
            span = start_span(self.sim, "wap.translate", "middleware",
                              parent=parent)
        content_type = response.content_type
        body = response.body
        meta = {"translated": False, "origin_bytes": len(body)}
        retry_after = response.headers.get("retry-after")
        if retry_after is not None:
            # Backpressure hints survive translation so device-side
            # retry policies can honour them.
            meta["retry_after"] = float(retry_after)
        wants_binary = request.get("accept", WMLC_CONTENT_TYPE) == \
            WMLC_CONTENT_TYPE

        if "text/html" in content_type:
            yield self.sim.timeout(
                TRANSLATION_TIME_PER_KB * max(1, len(body) // 1024)
            )
            document = html_to_wml(body.decode("utf-8", errors="replace"))
            if wants_binary:
                body = encode_wmlc(document)
                content_type = WMLC_CONTENT_TYPE
            else:
                body = document.to_xml().encode()
                content_type = WML_CONTENT_TYPE
            meta["translated"] = True
            meta["cards"] = len(document.cards)
            self.stats.incr("translations")
            if wants_binary:
                self.stats.incr("wmlc_encodings")
        elif content_type == WML_CONTENT_TYPE and wants_binary:
            body = encode_wmlc(parse_wml(body.decode()))
            content_type = WMLC_CONTENT_TYPE
            self.stats.incr("wmlc_encodings")

        meta["delivered_bytes"] = len(body)
        end_span(self.sim, span, translated=meta["translated"],
                 delivered_bytes=len(body))
        return {"status": response.status, "content_type": content_type,
                "body": body, "meta": meta}


class WAPSession(MiddlewareSession):
    """Device-side WSP session to a gateway."""

    middleware_name = "WAP"
    session_model = "gateway-session"

    def __init__(self, node: Node, gateway_address: IPAddress,
                 port: Optional[int] = None,
                 accept: str = WMLC_CONTENT_TYPE,
                 tcp: Optional[TCPStack] = None,
                 secure: bool = False,
                 entropy: Optional[RandomStream] = None):
        if secure and entropy is None:
            raise ValueError("secure WAP sessions need an entropy stream")
        self.node = node
        self.sim = node.sim
        self.gateway_address = gateway_address
        self.secure = secure
        self.entropy = entropy
        self.port = port if port is not None else (
            WTLS_PORT if secure else WSP_PORT)
        self.accept = accept
        self.tcp = tcp or tcp_stack(node)
        self.stats = Counter()
        self._conn: Optional[TCPConnection] = None
        self._channel: Optional[SecureChannel] = None
        self._reader = FrameReader()
        self._frames: Deque[dict] = deque()
        # One request at a time per WSP session: concurrent callers are
        # serialised so replies match their requests.
        from ..sim import Resource
        self._mutex = Resource(self.sim, capacity=1)

    def _ensure_connected(self):
        """Generator: establishes the WSP (or WTLS) session on first use."""
        if self._conn is not None and \
                self._conn.state == TCPConnection.ESTABLISHED:
            return
        self._conn = self.tcp.connect(self.gateway_address, self.port)
        self.stats.incr("session_establishments")
        yield self._conn.established_event
        if self.secure:
            self._channel = SecureChannel(self._conn, self.entropy)
            yield self._channel.handshake_client()
            self.stats.incr("wtls_handshakes")

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        return self._roundtrip({"method": "GET", "url": url,
                                "accept": self.accept}, trace=trace,
                               timeout=timeout)

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        return self._roundtrip({
            "method": "POST",
            "url": url,
            "accept": self.accept,
            "body": urlencode(form).encode(),
        }, trace=trace, timeout=timeout)

    def _roundtrip(self, request: dict, trace=None,
                   timeout: Optional[float] = None) -> Event:
        result = self.sim.event()
        span = None
        if trace is not None:
            span = start_span(self.sim, "wsp.request", "middleware",
                              parent=trace, url=request.get("url", ""))

        def exchange(env):
            grant = self._mutex.request()
            try:
                yield grant
                connect_span = None
                if span is not None and (
                    self._conn is None
                    or self._conn.state != TCPConnection.ESTABLISHED
                ):
                    connect_span = start_span(self.sim, "wsp.connect",
                                              "middleware", parent=span)
                yield from self._ensure_connected()
                end_span(self.sim, connect_span)
                if span is not None:
                    self._conn.trace = span.context()
                self.stats.incr("requests")
                if self.secure:
                    self._channel.send(encode_obj(request))
                    record = yield self._channel.recv()
                    if record == b"":
                        result.fail(ConnectionError("WTLS session closed"))
                        return
                    frame = decode_obj(record)
                else:
                    self._conn.send(encode_frame(request))
                    while not self._frames:
                        chunk = yield self._conn.recv()
                        if chunk == b"":
                            result.fail(
                                ConnectionError("WSP session closed"))
                            return
                        self._frames.extend(self._reader.feed(chunk))
                    frame = self._frames.popleft()
                result.succeed(MiddlewareResponse(
                    status=frame.get("status", 0),
                    content_type=frame.get("content_type", ""),
                    body=frame.get("body", b""),
                    meta=frame.get("meta", {}),
                ))
            except SecurityError as exc:
                result.fail(exc)
            except Interrupt as exc:
                # The timeout watchdog fired: abort the session (a
                # stale half-reply must not answer the next request).
                self.stats.incr("request_timeouts")
                self._abort()
                if not result.triggered:
                    result.fail(exc.cause if isinstance(exc.cause, Exception)
                                else ConnectionError("request interrupted"))
            finally:
                if grant.triggered:
                    self._mutex.release(grant)
                else:
                    grant.cancel()
                end_span(self.sim, span)

        proc = self.sim.spawn(exchange(self.sim), name="wap-get")
        guard_timeout(self.sim, result, proc, timeout,
                      detail=request.get("url", ""))
        return result

    def _abort(self) -> None:
        self.close()
        self._reader = FrameReader()
        self._frames.clear()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._channel = None
