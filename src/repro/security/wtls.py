"""A WTLS-style secure channel over a TCP connection.

The paper closes on exactly this gap: "Security issues (including
payment) include data reliability, integrity, confidentiality, and
authentication ... A unified approach has not yet emerged."  This
module is one concrete approach, shaped like WTLS/TLS:

* an ephemeral Diffie-Hellman **handshake** agrees a session secret
  (two records on the wire, so it costs a real round trip);
* a **record layer** frames application data with a sequence number,
  encrypts with per-direction keys, and MACs every record —
  confidentiality, integrity and replay protection;
* optional **client authentication** via a pre-shared credential MAC.

Tampering or replay raises :class:`SecurityError` at the receiver, and
the §8 ablation benchmark measures the handshake + per-record overhead
against a plaintext channel.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

from ..net.tcp import TCPConnection
from ..sim import Event, RandomStream
from .crypto import (
    MAC_BYTES,
    derive_key,
    dh_private_key,
    dh_public_key,
    dh_shared_secret,
    keystream_xor,
    mac,
    verify_mac,
)

__all__ = ["SecurityError", "SecureChannel"]

RECORD_HEADER = 12  # seq (8) + length (4)


class SecurityError(Exception):
    """Handshake failure, MAC mismatch, or replayed record."""


class SecureChannel:
    """Wraps an established TCPConnection with encryption + integrity.

    Usage (client)::

        channel = SecureChannel(conn, entropy)
        yield channel.handshake_client()
        channel.send(b"PAY 49.99")
        plaintext = yield channel.recv()

    The server side calls ``handshake_server()``.  Either side may pass
    ``psk`` — when both do, the handshake also authenticates the client
    (the wireless "authentication" requirement of §8).
    """

    def __init__(self, conn: TCPConnection, entropy: RandomStream,
                 psk: Optional[bytes] = None):
        self.conn = conn
        self.sim = conn.sim
        self.entropy = entropy
        self.psk = psk
        self.established = False
        self._send_key = b""
        self._recv_key = b""
        self._send_mac_key = b""
        self._recv_mac_key = b""
        self._send_seq = 0
        self._recv_seq = 0
        self._rx_buffer = b""
        self.handshake_records = 0

    # -- handshake ---------------------------------------------------------
    def handshake_client(self) -> Event:
        """Event firing once keys are agreed (fails with SecurityError)."""
        result = self.sim.event()

        def run(env):
            private = dh_private_key(self.entropy)
            hello = {"type": "client_hello",
                     "public": str(dh_public_key(private))}
            if self.psk is not None:
                hello["auth"] = mac(self.psk, b"client-auth").hex()
            self._send_clear(hello)
            try:
                reply = yield from self._recv_clear()
            except SecurityError as exc:
                result.fail(exc)
                return
            if reply.get("type") != "server_hello":
                result.fail(SecurityError("expected server_hello"))
                return
            if reply.get("status") == "denied":
                result.fail(SecurityError("server denied handshake"))
                return
            secret = dh_shared_secret(int(reply["public"]), private)
            self._derive("client", secret)
            result.succeed(self)

        self.sim.spawn(run(self.sim), name="wtls-client")
        return result

    def handshake_server(self) -> Event:
        result = self.sim.event()

        def run(env):
            try:
                hello = yield from self._recv_clear()
            except SecurityError as exc:
                result.fail(exc)
                return
            if hello.get("type") != "client_hello":
                result.fail(SecurityError("expected client_hello"))
                return
            if self.psk is not None:
                expected = mac(self.psk, b"client-auth").hex()
                if hello.get("auth") != expected:
                    self._send_clear({"type": "server_hello",
                                      "status": "denied", "public": "0"})
                    result.fail(SecurityError("client authentication failed"))
                    return
            private = dh_private_key(self.entropy)
            self._send_clear({"type": "server_hello", "status": "ok",
                              "public": str(dh_public_key(private))})
            secret = dh_shared_secret(int(hello["public"]), private)
            self._derive("server", secret)
            result.succeed(self)

        self.sim.spawn(run(self.sim), name="wtls-server")
        return result

    def _derive(self, role: str, secret: bytes) -> None:
        c2s_key = derive_key(secret, "c2s-enc")
        s2c_key = derive_key(secret, "s2c-enc")
        c2s_mac = derive_key(secret, "c2s-mac")
        s2c_mac = derive_key(secret, "s2c-mac")
        if role == "client":
            self._send_key, self._recv_key = c2s_key, s2c_key
            self._send_mac_key, self._recv_mac_key = c2s_mac, s2c_mac
        else:
            self._send_key, self._recv_key = s2c_key, c2s_key
            self._send_mac_key, self._recv_mac_key = s2c_mac, c2s_mac
        self.established = True

    # -- clear-phase framing -----------------------------------------------
    def _send_clear(self, obj: dict) -> None:
        body = json.dumps(obj).encode()
        self.conn.send(struct.pack(">I", len(body)) + body)
        self.handshake_records += 1

    def _recv_clear(self):
        while True:
            frame = self._try_frame()
            if frame is not None:
                return json.loads(frame.decode())
            chunk = yield self.conn.recv()
            if chunk == b"":
                raise SecurityError("connection closed during handshake")
            self._rx_buffer += chunk

    def _try_frame(self) -> Optional[bytes]:
        if len(self._rx_buffer) < 4:
            return None
        (length,) = struct.unpack(">I", self._rx_buffer[:4])
        if len(self._rx_buffer) < 4 + length:
            return None
        frame = self._rx_buffer[4: 4 + length]
        self._rx_buffer = self._rx_buffer[4 + length:]
        return frame

    # -- record layer ----------------------------------------------------
    def send(self, plaintext: bytes) -> None:
        """Encrypt, MAC and transmit one record."""
        if not self.established:
            raise SecurityError("send() before handshake")
        seq = self._send_seq
        self._send_seq += 1
        ciphertext = keystream_xor(self._send_key, seq, plaintext)
        tag = mac(self._send_mac_key, seq.to_bytes(8, "big"), ciphertext)
        record = (struct.pack(">QI", seq, len(ciphertext) + MAC_BYTES)
                  + ciphertext + tag)
        self.conn.send(record)

    def recv(self) -> Event:
        """Event yielding the next verified plaintext (b"" on EOF)."""
        if not self.established:
            raise SecurityError("recv() before handshake")
        result = self.sim.event()

        def run(env):
            while True:
                record = self._try_record()
                if record == "incomplete":
                    chunk = yield self.conn.recv()
                    if chunk == b"":
                        result.succeed(b"")
                        return
                    self._rx_buffer += chunk
                    continue
                seq, ciphertext, tag = record
                if seq != self._recv_seq:
                    result.fail(SecurityError(
                        f"replay or reorder: got seq {seq}, "
                        f"expected {self._recv_seq}"
                    ))
                    return
                if not verify_mac(self._recv_mac_key, tag,
                                  seq.to_bytes(8, "big"), ciphertext):
                    result.fail(SecurityError("record MAC mismatch"))
                    return
                self._recv_seq += 1
                result.succeed(
                    keystream_xor(self._recv_key, seq, ciphertext))
                return

        self.sim.spawn(run(self.sim), name="wtls-recv")
        return result

    def _try_record(self):
        if len(self._rx_buffer) < RECORD_HEADER:
            return "incomplete"
        seq, length = struct.unpack(">QI", self._rx_buffer[:RECORD_HEADER])
        if len(self._rx_buffer) < RECORD_HEADER + length:
            return "incomplete"
        blob = self._rx_buffer[RECORD_HEADER: RECORD_HEADER + length]
        self._rx_buffer = self._rx_buffer[RECORD_HEADER + length:]
        return seq, blob[:-MAC_BYTES], blob[-MAC_BYTES:]
