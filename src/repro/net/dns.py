"""Name resolution: a small DNS.

Hosts in examples and benchmarks are addressed by name
("shop.example.com") rather than raw addresses.  Resolution is served
either from a local registry (zero-cost, the default) or over UDP from
a name-server node, which adds the realistic extra round trip that WAP
gateway requests pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Event
from .addressing import IPAddress
from .node import Node
from .udp import UDPStack

__all__ = ["NameRegistry", "DNSServer", "DNSResolver", "ServiceEndpoint",
           "DNS_PORT", "DEFAULT_DNS_TTL"]

DNS_PORT = 53

# How long a resolver may serve a cached answer without revalidating.
DEFAULT_DNS_TTL = 30.0


@dataclass(frozen=True)
class ServiceEndpoint:
    """A named service's published (address, port) — SRV-record style."""

    address: IPAddress
    port: int


class NameRegistry:
    """Authoritative name -> address map.

    ``generation`` acts like an SOA serial: it is bumped on every
    register/unregister, and resolvers that hold a reference to their
    authority compare it to the generation they cached under — so a
    ``dns_blackout`` fault (which unregisters names for a window)
    implicitly flushes every such resolver cache.
    """

    def __init__(self):
        self._records: dict[str, IPAddress] = {}
        self._services: dict[str, ServiceEndpoint] = {}
        self.generation = 0

    def register(self, name: str, address: IPAddress) -> None:
        if not name:
            raise ValueError("empty DNS name")
        self._records[name.lower()] = address
        self.generation += 1

    def lookup(self, name: str) -> Optional[IPAddress]:
        return self._records.get(name.lower())

    def unregister(self, name: str) -> None:
        if self._records.pop(name.lower(), None) is not None:
            self.generation += 1

    # -- service (SRV-style) records ------------------------------------
    def register_service(self, name: str, address: IPAddress,
                         port: int) -> None:
        """Publish a named service endpoint (address *and* port).

        Topology builders register gateways here so clients derive
        endpoints — e.g. the standby gateway for failover — from the
        registry instead of hardcoding port arithmetic.
        """
        if not name:
            raise ValueError("empty service name")
        self._services[name.lower()] = ServiceEndpoint(address, int(port))
        self.generation += 1

    def lookup_service(self, name: str) -> Optional[ServiceEndpoint]:
        return self._services.get(name.lower())

    def unregister_service(self, name: str) -> None:
        if self._services.pop(name.lower(), None) is not None:
            self.generation += 1

    def __len__(self) -> int:
        return len(self._records)


class DNSServer:
    """Answers name queries over UDP from a registry."""

    def __init__(self, node: Node, registry: NameRegistry,
                 udp: Optional[UDPStack] = None):
        self.node = node
        self.registry = registry
        self.udp = udp or UDPStack(node)
        self._sock = self.udp.bind(DNS_PORT)
        node.sim.spawn(self._serve(), name=f"dns@{node.name}")

    def _serve(self):
        while True:
            query, src, src_port = yield self._sock.recv()
            answer = self.registry.lookup(str(query))
            self._sock.sendto(answer, src, src_port, data_size=32)


class DNSResolver:
    """Client-side resolver with a TTL'd positive cache.

    A cached answer is served only while both hold: the entry is younger
    than ``ttl`` (virtual seconds), and — when the resolver knows its
    ``authority`` registry — the registry generation has not moved since
    the entry was cached.  The generation check is what keeps the cache
    honest under the ``dns_blackout`` fault injector, which edits the
    registry out from under every resolver.
    """

    def __init__(self, node: Node, server_address: IPAddress,
                 udp: Optional[UDPStack] = None, timeout: float = 3.0,
                 ttl: float = DEFAULT_DNS_TTL,
                 authority: Optional[NameRegistry] = None):
        if ttl < 0:
            raise ValueError(f"negative DNS ttl: {ttl}")
        self.node = node
        self.server_address = server_address
        self.udp = udp or UDPStack(node)
        self.timeout = timeout
        self.ttl = ttl
        self.authority = authority
        # name -> (address, expires_at, registry generation at store time)
        self.cache: dict[str, tuple[IPAddress, float, int]] = {}
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Drop every cached answer."""
        self.cache.clear()

    def _cached(self, key: str) -> Optional[IPAddress]:
        entry = self.cache.get(key)
        if entry is None:
            return None
        address, expires_at, generation = entry
        if self.node.sim.now >= expires_at:
            del self.cache[key]
            return None
        if (self.authority is not None
                and self.authority.generation != generation):
            del self.cache[key]
            return None
        return address

    def resolve(self, name: str) -> Event:
        """Event yielding the IPAddress or None."""
        sim = self.node.sim
        result = sim.event()
        key = name.lower()
        cached = self._cached(key)
        if cached is not None:
            self.hits += 1
            result.succeed(cached)
            return result
        self.misses += 1

        def query(env):
            sock = self.udp.bind()
            try:
                sock.sendto(name, self.server_address, DNS_PORT, data_size=32)
                reply = yield sock.recv_with_timeout(self.timeout)
            finally:
                sock.close()
            if reply is None:
                result.succeed(None)
                return
            answer, _, _ = reply
            if answer is not None:
                generation = (self.authority.generation
                              if self.authority is not None else 0)
                self.cache[key] = (answer, sim.now + self.ttl, generation)
            result.succeed(answer)

        sim.spawn(query(sim), name="dns-resolve")
        return result
