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
from ..obs import end_span, start_span
from ..sim import Counter, Event, Interrupt, RandomStream, Resource
from .adaptation import extract_title, strip_tags
from .base import (
    BatchConfig,
    FrameReader,
    GatewayCore,
    MiddlewareResponse,
    MiddlewareSession,
    encode_frame,
    guard_timeout,
)

__all__ = ["WebClippingProxy", "PalmSession", "CLIPPING_PORT",
           "CLIPPING_CONTENT_TYPE", "CLIPPING_BYTE_LIMIT"]

CLIPPING_PORT = 5002
CLIPPING_CONTENT_TYPE = "text/x-palm-clipping"
CLIPPING_BYTE_LIMIT = 1024  # the Palm VII-era hard ceiling per clipping
CLIPPING_TIME_PER_KB = 0.001


class WebClippingProxy(GatewayCore):
    """The clipping server: fetch, strip, truncate, compress."""

    # Table 3 properties (cross-checked by the static model checker).
    markup = "web-clipping"
    session_model = "request-response"

    accept_process = "clipper"
    batch_process = "clip-batch"
    session_process = "clipping-session"
    span_name = "palm.proxy"
    crash_message = "proxy crashed"
    breaker_message = "proxy circuit open"

    def __init__(self, node: Node, registry: NameRegistry,
                 port: int = CLIPPING_PORT,
                 byte_limit: int = CLIPPING_BYTE_LIMIT,
                 tcp: Optional[TCPStack] = None,
                 breaker=None, origin_timeout: float = 30.0,
                 batching: Optional[BatchConfig] = None,
                 batch_stream: Optional[RandomStream] = None,
                 air_pressure=None, handicap: float = 0.0,
                 metrics=None, metric_name: Optional[str] = None):
        super().__init__(node, registry, port=port, tcp=tcp,
                         breaker=breaker, origin_timeout=origin_timeout,
                         batching=batching, batch_stream=batch_stream,
                         air_pressure=air_pressure, handicap=handicap,
                         metrics=metrics, metric_name=metric_name)
        self.byte_limit = byte_limit

    @property
    def payload_limit(self) -> int:
        return self.byte_limit

    # -- protocol hooks ----------------------------------------------------
    @staticmethod
    def _error_reply(status: int, message: str,
                     retry_after: Optional[float] = None) -> dict:
        # The proxy's own errors carry no content type on the wire
        # (its batcher's sheds do: they keep the shared frame shape).
        meta = {} if retry_after is None else {"retry_after": retry_after}
        return {"status": status, "body": message.encode(), "meta": meta}

    def _clip(self, request: dict, response, parent=None):
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

    _transform = _clip


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
