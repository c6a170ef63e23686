"""Music/video/game downloads (Table 1, "Entertainment").

The bandwidth-hungry category: list a media store, pay for a title,
download a payload whose size actually crosses the simulated bearer
(so 3G finishes a song while 2G crawls — the Table 5 contrast in an
application-level costume).
"""

from __future__ import annotations

from ..security import PaymentError, PaymentOrder
from ..web import HTTPResponse, render
from .base import Application, html_page

__all__ = ["EntertainmentApp", "media_payload"]

STORE_TEMPLATE = """<html><head><title>Media Store</title></head><body>
<h1>Store</h1>
{% for m in media %}<p><a href="/media/download?id={{ m.id }}&account={{ account }}">{{ m.title }}</a> ({{ m.kind }}, {{ m.size_kb }} KB, ${{ m.price }})</p>{% endfor %}
</body></html>"""


def media_payload(media_id: int, size: int) -> bytes:
    """The title's bytes: ``(media_id * 31 + i) % 251`` at offset ``i``.

    Built by tiling one 251-byte period that starts at the title's
    offset, not byte by byte.
    """
    offset = (media_id * 31) % 251
    period = bytes(range(offset, 251)) + bytes(range(offset))
    return (period * (size // 251 + 1))[:size]


class EntertainmentApp(Application):
    """A paid media-download storefront."""

    category = "entertainment"
    clients = "Entertainment industry"

    def __init__(self, media=None):
        super().__init__()
        # (title, kind, size_kb, price_cents) — sizes kept laptop-friendly.
        self.media = media or [
            ("Ringtone: Nokia Tune", "music", 12, 99),
            ("Game: Snake II", "game", 48, 299),
            ("Video: Trailer", "video", 160, 499),
        ]
        self.merchant = "media-store"
        self._merchant_key = None

    def create_schema(self, database) -> None:
        self.sql(database,
                 "CREATE TABLE IF NOT EXISTS media_titles ("
                 "id INTEGER PRIMARY KEY, title TEXT NOT NULL, "
                 "kind TEXT NOT NULL, size_kb INTEGER NOT NULL, "
                 "price INTEGER NOT NULL)")
        self.sql(database,
                 "CREATE TABLE IF NOT EXISTS media_licenses ("
                 "license_id INTEGER PRIMARY KEY, media_id INTEGER NOT NULL, "
                 "account TEXT NOT NULL)")

    def seed_data(self, database) -> None:
        for index, (title, kind, size_kb, price) in \
                enumerate(self.media, start=1):
            self.sql(database,
                     "INSERT INTO media_titles (id, title, kind, size_kb, "
                     "price) VALUES (?, ?, ?, ?, ?)",
                     (index, title, kind, size_kb, price))

    def mount_programs(self, server) -> None:
        payment = server.services["payment"]
        self._merchant_key = payment.register_merchant(self.merchant)
        server.mount("/media/store", self._store, name="media-store")
        server.mount("/media/download", self._download, name="media-download")

    def _store(self, ctx):
        reply = yield ctx.database.query(
            "SELECT * FROM media_titles ORDER BY id")
        media = [dict(r, price=f"{r['price'] / 100:.2f}")
                 for r in reply["rows"]]
        return HTTPResponse.ok(render(STORE_TEMPLATE, {
            "media": media, "account": ctx.param("account", "guest")}))

    def _download(self, ctx):
        payment = ctx.server.services["payment"]
        media_id = int(ctx.param("id", "0"))
        account = ctx.param("account", "")
        reply = yield ctx.database.query(
            "SELECT * FROM media_titles WHERE id = ?", (media_id,))
        if not reply["rows"]:
            return HTTPResponse.not_found("no such title")
        title = reply["rows"][0]
        order = PaymentOrder(
            account=account,
            merchant=self.merchant,
            amount_cents=title["price"],
            nonce=payment.make_nonce(),
        ).signed(self._merchant_key)
        try:
            authorization = payment.authorize(order)
        except PaymentError as exc:
            return HTTPResponse(402, {"content-type": "text/plain"},
                                f"payment declined: {exc}")
        payment.capture(authorization.auth_id)
        yield ctx.database.query(
            "INSERT INTO media_licenses (license_id, media_id, account) "
            "VALUES (?, ?, ?)",
            (authorization.auth_id, media_id, account))
        # The actual bits: a payload that must cross the bearer.
        payload = media_payload(media_id, title["size_kb"] * 1024)
        return HTTPResponse(200, {
            "content-type": "application/octet-stream",
            "x-license": str(authorization.auth_id),
        }, payload)

    # -- flows --------------------------------------------------------------
    def buy_and_download(self, media_id: int = 1, account: str = "ann"):
        def flow(ctx):
            store = yield from ctx.get(f"/media/store?account={account}")
            yield from ctx.render(store)
            download = yield from ctx.get(
                f"/media/download?id={media_id}&account={account}")
            if download.status != 200:
                raise RuntimeError(f"download failed: {download.status}")
            ctx.note(f"downloaded {len(download.body)} bytes")
            return {"status": download.status,
                    "bytes": len(download.body)}

        flow.__name__ = "buy_and_download"
        return flow
