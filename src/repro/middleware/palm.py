"""Palm Web Clipping: the third middleware of Table 3's ecosystem.

The paper's usage figures (§5.1): "60% of the world's wireless Internet
users were using i-mode, 39% were using WAP, and 1% were using Palm
middleware."  That 1% is Palm's *Web Clipping* system: instead of
translating protocols (WAP) or adapting markup (i-mode), a clipping
proxy strips pages down to pre-digested plain text "clippings" and
ships them zlib-compressed — built for the Palm VII's tiny screens and
slow Mobitex radios, and a natural fit for the Palm i705 in Table 2.

Implemented as a third :class:`~repro.middleware.base.MiddlewareSession`
so the interoperability matrix covers it like the other two.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Deque, Optional

from ..net.addressing import IPAddress
from ..net.dns import NameRegistry
from ..net.node import Node
from ..net.tcp import TCPConnection, TCPStack, tcp_stack
from ..obs import ctx_of, end_span, start_span
from ..sim import Counter, Event, Interrupt, RandomStream, Resource
from ..web.client import HTTPClient
from .adaptation import extract_title, strip_tags
from .base import (
    BatchConfig,
    FrameReader,
    MiddlewareResponse,
    MiddlewareSession,
    RequestBatcher,
    encode_frame,
    frame_reply,
    guard_timeout,
    split_url,
)

__all__ = ["WebClippingProxy", "PalmSession", "CLIPPING_PORT",
           "CLIPPING_CONTENT_TYPE", "CLIPPING_BYTE_LIMIT"]

CLIPPING_PORT = 5002
CLIPPING_CONTENT_TYPE = "text/x-palm-clipping"
CLIPPING_BYTE_LIMIT = 1024  # the Palm VII-era hard ceiling per clipping
CLIPPING_TIME_PER_KB = 0.001


class WebClippingProxy:
    """The clipping server: fetch, strip, truncate, compress."""

    # Table 3 properties (cross-checked by the static model checker).
    markup = "web-clipping"
    session_model = "request-response"

    def __init__(self, node: Node, registry: NameRegistry,
                 port: int = CLIPPING_PORT,
                 byte_limit: int = CLIPPING_BYTE_LIMIT,
                 tcp: Optional[TCPStack] = None,
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
        self.byte_limit = byte_limit
        self.tcp = tcp or tcp_stack(node)
        self.http = HTTPClient(node, tcp=self.tcp)
        self.breaker = breaker
        self.origin_timeout = origin_timeout
        self.stats = Counter()
        # Per-request service handicap in sim-seconds (0 = none); the
        # public knob canary "v2" variants use for degraded builds.
        self.handicap = handicap
        # Optional accumulate-and-flush batching + admission control
        # (None keeps the legacy inline path bit-for-bit).
        self.batcher = None
        if batching is not None:
            self.batcher = RequestBatcher(
                self.sim, batching, handler=self._handle,
                reply_factory=frame_reply, stream=batch_stream,
                stats=self.stats, name=f"clip-batch@{node.name}",
                pressure=air_pressure, metrics=metrics,
                metric_name=metric_name)
        self.is_down = False
        self._conns: list[TCPConnection] = []
        self._listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(), name=f"clipper@{node.name}")

    @property
    def payload_limit(self) -> int:
        return self.byte_limit

    # -- fault hooks -------------------------------------------------------
    def crash(self) -> None:
        if self.is_down:
            return
        self.is_down = True
        self.stats.incr("crashes")
        if self.batcher is not None:
            self.batcher.reject_pending("proxy crashed")
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
            self.stats.incr("sessions")
            self.sim.spawn(self._serve(conn), name="clipping-session")

    def _serve(self, conn: TCPConnection):
        reader = FrameReader()
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                if conn in self._conns:
                    self._conns.remove(conn)
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
                    if conn in self._conns:
                        self._conns.remove(conn)
                    return
                conn.send(encode_frame(reply))

    def _handle(self, request: dict, parent=None):
        self.stats.incr("requests")
        if self.handicap > 0:
            yield self.sim.timeout(self.handicap)
        span = None
        if self.sim.tracer is not None and parent is not None:
            span = start_span(self.sim, "palm.proxy", "middleware",
                              parent=parent,
                              url=request.get("url", ""))
        try:
            reply = yield from self._handle_inner(request, span)
        finally:
            end_span(self.sim, span)
        return reply

    def _handle_inner(self, request: dict, span):
        url = request.get("url", "")
        try:
            host, path = split_url(url)
        except ValueError as exc:
            return {"status": 400, "body": str(exc).encode(), "meta": {}}
        origin = self.registry.lookup(host)
        if origin is None:
            self.stats.incr("dns_failures")
            return {"status": 502,
                    "body": f"cannot resolve {host}".encode(), "meta": {}}
        if self.breaker is not None and not self.breaker.allow():
            self.stats.incr("breaker_rejections")
            return {"status": 503, "body": b"proxy circuit open",
                    "meta": {"retry_after": self.breaker.retry_after}}
        if request.get("method", "GET").upper() == "POST":
            response = yield self.http.post(origin, path,
                                            request.get("body", b""),
                                            timeout=self.origin_timeout,
                                            trace=ctx_of(span))
        else:
            response = yield self.http.get(origin, path,
                                           timeout=self.origin_timeout,
                                           trace=ctx_of(span))
        if response is None:
            self.stats.incr("origin_timeouts")
            if self.breaker is not None:
                self.breaker.record_failure()
            return {"status": 504, "body": b"origin timeout", "meta": {}}
        if self.breaker is not None:
            if response.status >= 500:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        return (yield from self._clip(response, parent=span))

    def _clip(self, response, parent=None):
        body = response.body
        meta = {"origin_bytes": len(body), "clipped": False}
        retry_after = response.headers.get("retry-after")
        if retry_after is not None:
            meta["retry_after"] = float(retry_after)
        if "text/html" in response.content_type:
            clip_span = None
            if parent is not None:
                clip_span = start_span(self.sim, "palm.clip", "middleware",
                                       parent=parent)
            yield self.sim.timeout(
                CLIPPING_TIME_PER_KB * max(1, len(body) // 1024))
            html = body.decode("utf-8", errors="replace")
            title = extract_title(html)
            text = strip_tags(html)
            clipping = (f"{title}\n{text}" if title else text)
            truncated = len(clipping.encode()) > self.byte_limit
            raw = clipping.encode()[: self.byte_limit]
            payload = zlib.compress(raw, level=9)
            raw_len = len(raw)
            meta.update(clipped=True, truncated=truncated)
            self.stats.incr("clippings")
            meta["compressed_bytes"] = len(payload)
            meta["clipping_bytes"] = raw_len
            end_span(self.sim, clip_span, clipping_bytes=raw_len)
            return {"status": response.status, "body": payload,
                    "content_type": CLIPPING_CONTENT_TYPE, "meta": meta}
        # Non-HTML passes through uncompressed (rare for Palm-era use).
        return {"status": response.status, "body": body,
                "content_type": response.content_type, "meta": meta}


class PalmSession(MiddlewareSession):
    """Device-side clipping client (decompresses on arrival)."""

    middleware_name = "Palm Web Clipping"
    session_model = "request-response"

    def __init__(self, node: Node, proxy_address: IPAddress,
                 port: int = CLIPPING_PORT, tcp: Optional[TCPStack] = None):
        self.node = node
        self.sim = node.sim
        self.proxy_address = proxy_address
        self.port = port
        self.tcp = tcp or tcp_stack(node)
        self.stats = Counter()
        self._conn: Optional[TCPConnection] = None
        self._reader = FrameReader()
        self._frames: Deque[dict] = deque()
        self._mutex = Resource(self.sim, capacity=1)

    def _ensure_connected(self):
        if self._conn is not None and \
                self._conn.state == TCPConnection.ESTABLISHED:
            return
        self._conn = self.tcp.connect(self.proxy_address, self.port)
        self.stats.incr("session_establishments")
        yield self._conn.established_event

    def get(self, url: str, trace=None,
            timeout: Optional[float] = None) -> Event:
        return self._roundtrip({"method": "GET", "url": url}, trace=trace,
                               timeout=timeout)

    def post(self, url: str, form: dict, trace=None,
             timeout: Optional[float] = None) -> Event:
        from urllib.parse import urlencode
        return self._roundtrip({"method": "POST", "url": url,
                                "body": urlencode(form).encode()},
                               trace=trace, timeout=timeout)

    def _roundtrip(self, request: dict, trace=None,
                   timeout: Optional[float] = None) -> Event:
        result = self.sim.event()
        span = None
        if trace is not None:
            span = start_span(self.sim, "clip.request", "middleware",
                              parent=trace, url=request.get("url", ""))

        def exchange(env):
            grant = self._mutex.request()
            try:
                yield grant
                yield from self._ensure_connected()
                if span is not None:
                    self._conn.trace = span.context()
                self._conn.send(encode_frame(request))
                self.stats.incr("requests")
                while not self._frames:
                    chunk = yield self._conn.recv()
                    if chunk == b"":
                        result.fail(
                            ConnectionError("clipping session closed"))
                        return
                    self._frames.extend(self._reader.feed(chunk))
                frame = self._frames.popleft()
                body = frame.get("body", b"")
                content_type = frame.get("content_type", "text/plain")
                meta = frame.get("meta", {})
                if content_type == CLIPPING_CONTENT_TYPE and \
                        meta.get("clipped"):
                    meta["wire_bytes"] = len(body)
                    body = zlib.decompress(body)
                result.succeed(MiddlewareResponse(
                    status=frame.get("status", 0),
                    content_type=content_type,
                    body=body,
                    meta=meta,
                ))
            except Interrupt as exc:
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

        proc = self.sim.spawn(exchange(self.sim), name="palm-get")
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
