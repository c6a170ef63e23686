"""Unit tests for repro.resilience: retry, breaker, shedding, failover."""

import pytest

from repro.core import MCSystemBuilder, TransactionEngine
from repro.middleware.base import MiddlewareResponse, MiddlewareSession
from repro.net import Network, Subnet
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RequestTimeout,
    ResilienceConfig,
    ResilientSession,
    RetryPolicy,
)
from repro.sim import SeedBank, Simulator
from repro.web import WebServer
from repro.web.http import HTTPResponse
from repro.web.client import HTTPClient


# ------------------------------------------------------------- RetryPolicy
def test_retry_backoff_exponential_and_capped():
    policy = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0,
                         max_delay=3.0, jitter=0.0)
    assert policy.backoff(1) == 0.5
    assert policy.backoff(2) == 1.0
    assert policy.backoff(3) == 2.0
    assert policy.backoff(4) == 3.0  # capped
    assert policy.backoff(5) == 3.0


def test_retry_jitter_is_seeded_and_bounded():
    a = RetryPolicy(jitter=0.2, stream=SeedBank(1).stream("j"))
    b = RetryPolicy(jitter=0.2, stream=SeedBank(1).stream("j"))
    delays_a = [a.backoff(n) for n in range(1, 6)]
    delays_b = [b.backoff(n) for n in range(1, 6)]
    assert delays_a == delays_b  # same seed, same jitter
    for n, delay in enumerate(delays_a, start=1):
        base = min(a.max_delay, a.base_delay * a.multiplier ** (n - 1))
        assert base * 0.8 <= delay <= base * 1.2


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_retryable_statuses():
    policy = RetryPolicy()
    assert policy.retryable_status(503)
    assert policy.retryable_status(502)
    assert policy.retryable_status(504)
    assert not policy.retryable_status(404)
    assert not policy.retryable_status(200)


# ------------------------------------------------------------- breaker
def test_breaker_trips_after_threshold_and_recovers():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=3, recovery_time=5.0)
    log = []

    def drive(env):
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        log.append(("state-after-failures", breaker.state))
        assert not breaker.allow()          # open: rejected
        with pytest.raises(CircuitOpenError):
            breaker.check()
        assert breaker.retry_after > 0
        yield env.timeout(5.0)
        assert breaker.allow()              # half-open probe admitted
        log.append(("state-half-open", breaker.state))
        breaker.record_success()
        log.append(("state-closed", breaker.state))
        assert breaker.allow()

    sim.spawn(drive(sim))
    sim.run(until=10)
    assert ("state-after-failures", CircuitBreaker.OPEN) in log
    assert ("state-half-open", CircuitBreaker.HALF_OPEN) in log
    assert ("state-closed", CircuitBreaker.CLOSED) in log
    assert breaker.stats.get("trips") == 1
    assert breaker.stats.get("rejections") >= 1
    assert breaker.stats.get("closes") == 1


def test_breaker_half_open_failure_reopens():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=1, recovery_time=2.0,
                             half_open_max=1)

    def drive(env):
        breaker.record_failure()            # trips immediately
        assert breaker.state == CircuitBreaker.OPEN
        yield env.timeout(2.0)
        assert breaker.allow()              # half-open probe
        assert not breaker.allow()          # probe budget spent
        breaker.record_failure()            # probe failed
        assert breaker.state == CircuitBreaker.OPEN

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert breaker.stats.get("trips") == 2


# ------------------------------------------------------------- shedding
def _web_pair(sim, workers=1):
    net = Network(sim)
    host = net.add_node("host")
    client_node = net.add_node("client")
    net.connect(host, client_node, Subnet.parse("10.0.0.0/24"), delay=0.001)
    net.build_routes()
    server = WebServer(host, workers=workers)
    return server, HTTPClient(client_node), host


def test_load_shedding_returns_503_with_retry_after():
    sim = Simulator()
    server, client, host = _web_pair(sim, workers=1)
    server.enable_load_shedding(backlog=0, retry_after=2.5)

    def slow(ctx):
        yield sim.timeout(0.5)
        return HTTPResponse.ok("done", "text/plain")

    server.mount("/slow", slow)
    statuses = []

    def fetch(env):
        response = yield client.get(host.primary_address, "/slow")
        statuses.append((response.status,
                         response.headers.get("retry-after")))

    for _ in range(4):
        sim.spawn(fetch(sim))
    sim.run(until=30)
    assert len(statuses) == 4
    shed = [s for s in statuses if s[0] == 503]
    served = [s for s in statuses if s[0] == 200]
    assert shed and served, statuses
    assert all(retry == "2.5" for _, retry in shed)
    assert server.stats.get("shed_requests") == len(shed)


def test_no_shedding_by_default():
    sim = Simulator()
    server, client, host = _web_pair(sim, workers=1)

    def slow(ctx):
        yield sim.timeout(0.5)
        return HTTPResponse.ok("done", "text/plain")

    server.mount("/slow", slow)
    statuses = []

    def fetch(env):
        response = yield client.get(host.primary_address, "/slow")
        statuses.append(response.status)

    for _ in range(4):
        sim.spawn(fetch(sim))
    sim.run(until=60)
    assert statuses == [200, 200, 200, 200]


# ------------------------------------------------------------- failover
class _ScriptedSession(MiddlewareSession):
    """Session whose get() follows a script of 'ok' / exception items."""

    def __init__(self, sim, script):
        self.sim = sim
        self.script = list(script)
        self.calls = 0

    def get(self, url, trace=None, timeout=None):
        self.calls += 1
        event = self.sim.event()
        action = self.script.pop(0) if self.script else "ok"
        if action == "ok":
            event.succeed(MiddlewareResponse(200, "text/plain", b"ok"))
        else:
            event.fail(action)
        return event

    def post(self, url, form, trace=None, timeout=None):
        return self.get(url, trace=trace, timeout=timeout)

    def close(self):
        pass


def test_resilient_session_fails_over_and_sticks():
    sim = Simulator()
    primary = _ScriptedSession(sim, [ConnectionError("down"),
                                     ConnectionError("still down")])
    standby = _ScriptedSession(sim, ["ok", "ok", "ok"])
    session = ResilientSession([primary, standby])
    responses = []

    def drive(env):
        first = yield session.get("http://h/x")
        second = yield session.get("http://h/x")
        responses.extend([first, second])

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert [r.status for r in responses] == [200, 200]
    assert session.stats.get("failovers") == 1
    assert session.stats.get("route_switches") == 1
    # Sticky: the second request went straight to the standby.
    assert primary.calls == 1
    assert standby.calls == 2
    assert session.active_route is standby


def test_resilient_session_exhaustion_fails_with_last_error():
    sim = Simulator()
    a = _ScriptedSession(sim, [ConnectionError("a down")])
    b = _ScriptedSession(sim, [RequestTimeout("b timed out")])
    session = ResilientSession([a, b])
    captured = {}

    def drive(env):
        try:
            yield session.get("http://h/x")
        except (ConnectionError, RequestTimeout) as exc:
            captured["error"] = exc

    sim.spawn(drive(sim))
    sim.run(until=5)
    assert isinstance(captured["error"], RequestTimeout)
    assert session.stats.get("exhausted") == 1


# ------------------------------------------------------ engine integration
def test_request_timeout_produces_clear_transaction_error():
    from repro.apps import CommerceApp

    system = MCSystemBuilder(seed=5).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station("Toshiba E740")
    # Deadline far below the network RTT: every attempt must time out,
    # and without a retry policy the flow fails immediately.
    engine = TransactionEngine(system, request_timeout=0.0001)
    done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
    system.run(until=120)
    record = done.value
    assert not record.ok
    assert "Timeout" in record.error, record.error


def test_engine_retry_recovers_from_transient_503(monkeypatch):
    """A scripted session that sheds once then succeeds: the retry
    policy absorbs the 503 and the flow completes."""
    sim = Simulator()
    session = _ScriptedSession(sim, ["ok"])
    session.script = []  # replaced below with status-script behaviour

    class SheddingSession(_ScriptedSession):
        def get(self, url, trace=None, timeout=None):
            self.calls += 1
            event = self.sim.event()
            if self.calls == 1:
                event.succeed(MiddlewareResponse(
                    503, "text/plain", b"overloaded",
                    meta={"retry_after": 0.5}))
            else:
                event.succeed(MiddlewareResponse(200, "text/plain", b"ok"))
            return event

    shedding = SheddingSession(sim, [])

    class FakeSystem:
        def __init__(self):
            self.sim = sim

        def url(self, path):
            return f"http://host{path}"

    class FakeHandle:
        def __init__(self):
            self.session = shedding
            self.station = None
            self.node = None

    engine = TransactionEngine(
        FakeSystem(),
        retry=RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0))

    def flow(ctx):
        response = yield from ctx.get("/x")
        return response.status

    done = engine.run_flow(FakeHandle(), flow)
    sim.run(until=30)
    record = done.value
    assert record.ok
    assert record.result == 200
    assert record.retries == 1
    assert shedding.calls == 2
    # The Retry-After hint (0.5) dominated the base backoff (0.1).
    assert record.finished_at >= 0.5


def test_builder_without_resilience_has_no_policies():
    system = MCSystemBuilder(seed=2).build()
    assert system.resilience is None
    assert system.retry_policy is None
    assert system.standby_gateway is None
    assert system.gateway is not None
    handle = system.add_station("Toshiba E740")
    assert not isinstance(handle.session, ResilientSession)


def test_builder_with_resilience_wires_everything():
    config = ResilienceConfig()
    system = MCSystemBuilder(seed=2, resilience=config).build()
    assert system.resilience is config
    assert system.retry_policy is not None
    assert system.standby_gateway is not None
    assert system.gateway.breaker is not None
    assert system.host.web_server._shed_backlog == config.shed_backlog
    handle = system.add_station("Toshiba E740")
    assert isinstance(handle.session, ResilientSession)
    # primary gateway session, standby session, direct fallback
    assert len(handle.session.routes) == 3


@pytest.mark.parametrize("fleet_size", [0, 2])
@pytest.mark.parametrize("middleware,device", [
    ("WAP", "Toshiba E740"), ("i-mode", "Toshiba E740"),
    ("Palm", "Palm i705")])
def test_breaker_threshold_zero_builds_without_breakers(middleware, device,
                                                        fleet_size):
    """``breaker_threshold=0`` means "no breaker" on every build path."""
    from repro.apps import CommerceApp

    config = ResilienceConfig(breaker_threshold=0, fleet_size=fleet_size)
    system = MCSystemBuilder(seed=3, middleware=middleware,
                             resilience=config).build()
    gateways = ([m.gateway for m in system.fleet.members.values()]
                if system.fleet is not None
                else [system.gateway, system.standby_gateway])
    assert system.gateway.breaker is None
    assert all(gateway.breaker is None for gateway in gateways)
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 100_000)
    handle = system.add_station(device)
    engine = TransactionEngine(system)
    done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
    system.run(until=600)
    assert done.value.ok, done.value.error
