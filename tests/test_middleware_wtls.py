"""Tests for WTLS-secured WAP sessions (WAP's transport security layer)."""

import pytest

from repro.apps import CommerceApp
from repro.core import MCSystemBuilder, TransactionEngine
from repro.middleware import WAPSession, WMLC_CONTENT_TYPE, decode_wmlc
from repro.net import Network, Subnet
from repro.net.tcp import tcp_stack
from repro.resilience import ResilienceConfig
from repro.security.wtls import SecureChannel, SecurityError
from repro.sim import SeedBank, Simulator


def build_secure_world(**kwargs):
    defaults = dict(middleware="WAP", bearer=("cellular", "GPRS"),
                    secure_wap=True)
    defaults.update(kwargs)
    system = MCSystemBuilder(**defaults).build()
    shop = CommerceApp()
    system.mount_application(shop)
    system.host.payment.open_account("ann", 500_000)
    return system, shop


def test_secure_wap_purchase_end_to_end():
    system, shop = build_secure_world()
    handle = system.add_station("Toshiba E740")
    assert handle.session.secure
    engine = TransactionEngine(system)
    done = engine.run_flow(handle,
                           shop.browse_and_buy(account="ann"))
    system.run(until=600)
    record = done.value
    assert record.ok, record.error
    assert handle.session.stats.get("wtls_handshakes") == 1
    gateway = system.model.component("mobile-middleware").implementation
    assert gateway.stats.get("wtls_sessions") == 1
    assert gateway.stats.get("translations") >= 1  # still a WAP gateway


def test_secure_wap_hides_urls_from_sniffer():
    """Plain WSP leaks the requested URL on the air; WTLS does not."""

    def sniffed(secure: bool) -> tuple[bytes, bytes]:
        system, shop = build_secure_world(secure_wap=secure)
        handle = system.add_station("Toshiba E740")
        station_addr = handle.station.primary_address
        air = bytearray()
        wired = bytearray()

        def sniffer(packet, iface):
            data = getattr(packet.payload, "data", b"")
            if not data:
                return False
            # Uplink from the station = the air interface; everything
            # else at the gateway is its wired side.
            if packet.src == station_addr:
                air.extend(data)
            else:
                wired.extend(data)
            return False

        system.network.node("middleware-gw").rx_taps.append(sniffer)
        engine = TransactionEngine(system)
        done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
        system.run(until=600)
        assert done.value.ok, done.value.error
        return bytes(air), bytes(wired)

    plain_air, _ = sniffed(secure=False)
    secure_air, secure_wired = sniffed(secure=True)
    assert b"/shop/buy" in plain_air       # WSP requests are cleartext
    assert b"/shop/buy" not in secure_air  # WTLS records are not
    assert b"account=ann" not in secure_air
    # The famous "WAP gap": WTLS terminates at the gateway, so the
    # gateway's wired side still carries plaintext HTTP — the paper's
    # closing remark that "a unified approach has not yet emerged"
    # in one assertion.
    assert b"/shop/buy" in secure_wired


def test_secure_session_still_delivers_wmlc():
    system, shop = build_secure_world()
    handle = system.add_station("Nokia 9290 Communicator")
    engine = TransactionEngine(system)

    def fetch(ctx):
        response = yield from ctx.get("/shop/catalog")
        return {"content_type": response.content_type,
                "cards": len(decode_wmlc(response.body).cards)}

    done = engine.run_flow(handle, fetch)
    system.run(until=300)
    assert done.value.ok, done.value.error
    assert done.value.result["content_type"] == WMLC_CONTENT_TYPE
    assert done.value.result["cards"] >= 1


def test_secure_session_requires_entropy():
    system, shop = build_secure_world()
    station = system.add_station("Palm i705").station
    with pytest.raises(ValueError, match="entropy"):
        WAPSession(station, system.host.web_node.primary_address,
                   secure=True)


def test_secure_costs_a_handshake():
    """The secure session's first request pays the WTLS round trips."""

    def first_request_latency(secure: bool) -> float:
        system, shop = build_secure_world(secure_wap=secure)
        handle = system.add_station("Toshiba E740")
        engine = TransactionEngine(system)

        def fetch(ctx):
            yield from ctx.get("/shop/catalog")
            return True

        done = engine.run_flow(handle, fetch)
        system.run(until=300)
        assert done.value.ok
        return done.value.latency

    assert first_request_latency(True) > first_request_latency(False)


# ------------------------------------------------------ secure failover
def _secure_purchase_after_crash(**resilience):
    system, shop = build_secure_world(
        resilience=ResilienceConfig(direct_fallback=False, **resilience))
    handle = system.add_station("Toshiba E740")
    if system.fleet is not None:
        serving = system.balancer.member_for(handle.station.name).gateway
    else:
        serving = system.gateway
    serving.crash()
    engine = TransactionEngine(system)
    done = engine.run_flow(handle, shop.browse_and_buy(account="ann"))
    system.run(until=600)
    return system, serving, done.value


def test_secure_wap_fails_over_to_the_standby():
    """A crashed primary ends the WTLS handshake; the session moves on."""
    system, crashed, record = _secure_purchase_after_crash()
    assert record.ok, record.error
    assert crashed.stats.get("wtls_sessions") == 0
    assert system.standby_gateway.stats.get("wtls_sessions") >= 1


def test_secure_wap_fails_over_to_the_next_fleet_member():
    system, crashed, record = _secure_purchase_after_crash(fleet_size=2)
    assert record.ok, record.error
    survivors = [member.gateway for member in system.fleet.members.values()
                 if member.gateway is not crashed]
    assert crashed.stats.get("wtls_sessions") == 0
    assert sum(gw.stats.get("wtls_sessions") for gw in survivors) >= 1


def test_handshake_against_a_closing_peer_fails_its_event():
    """EOF mid-handshake fails the handshake event, not the simulation."""
    sim = Simulator()
    network = Network(sim)
    client_node = network.add_node("client")
    server_node = network.add_node("server")
    network.connect(client_node, server_node, Subnet.parse("10.9.0.0/24"),
                    bandwidth_bps=1_000_000, delay=0.001)
    network.build_routes()
    client_tcp = tcp_stack(client_node)
    server_tcp = tcp_stack(server_node)
    listener = server_tcp.listen(9203)
    second = server_tcp.listen(9204)
    seeds = SeedBank(1)
    outcomes = {}

    def closing_server(env):
        conn = yield listener.accept()
        conn.close()  # the peer goes away before any handshake record

    def client(env):
        conn = client_tcp.connect(server_node.primary_address, 9203)
        yield conn.established_event
        channel = SecureChannel(conn, seeds.stream("client"))
        try:
            yield channel.handshake_client()
        except SecurityError as exc:
            outcomes["client"] = str(exc)

    def silent_client(env):
        conn = client_tcp.connect(server_node.primary_address, 9204)
        yield conn.established_event
        conn.close()  # connects, then leaves without a client_hello

    def handshaking_server(env):
        conn = yield second.accept()
        channel = SecureChannel(conn, seeds.stream("server"))
        try:
            yield channel.handshake_server()
        except SecurityError as exc:
            outcomes["server"] = str(exc)

    for proc in (closing_server, client, silent_client, handshaking_server):
        sim.spawn(proc(sim), name=proc.__name__)
    sim.run(until=60)  # returns normally: nothing escapes a process
    assert outcomes == {
        "client": "connection closed during handshake",
        "server": "connection closed during handshake",
    }
