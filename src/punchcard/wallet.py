"""Client-side card store and the network flows that mutate it.

One wallet file holds every card for one server, of one scheme: "PCW1",
the scheme's code byte, the pinned key, then per card u || punch count ||
one mask per group || the card, read with the message field decoder
(groups.base.unpack) over the scheme object's groups, so this code runs
either scheme unchanged. Updates go through db.write_durably (a fresh
temp file, os.replace and a directory fsync), and the in-memory state
only moves forward after the bytes are durably on disk: each update
encodes the state it would make, saves it, and only then assigns it. So
a crash at any point leaves either the old wallet or the new one, never
a half-written file, and a save that fails leaves the object equal to
its file.

The wallet pins the server's public key on first contact and asks for it
only until then. It pins only a key that decodes, and keeps it decoded:
a file whose pinned key does not decode is corrupt. Every punch response
is verified against the pinned key, so a server that rotates keys
mid-card (to tag one customer's punches) produces a hard failure
(ProofRejected) instead of a silently linkable card. So does a
multi-punch reply whose chain is not exactly the t steps asked for: the
punch count reaches the server in clear at redemption, and an unusual
total granted at one visit would link that redemption to the visit.

A punch sends the card's bytes and the server sees them, so no punch
request carries bytes that an earlier one carried. Card.seen, kept in
memory only, is False just after new_card or a committed punch; every
card read from the file is seen. A punch marks an unseen card seen and
sends it as stored; it sends a seen card under a fresh mask
(scheme.remask) and verifies the reply against that. Only a committed
punch changes the file. So a failed punch writes nothing, a retry after
any failure or a crash sends new bytes, and a long-lived wallet never
re-masks.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from typing import Any, List, Optional, Sequence, Tuple

from . import schemes, wire
from .core import SECRET, RedeemStatus
from .db import write_durably
from .errors import InvalidEncoding, WalletError, WireError
from .faults import fault_point
from .groups.base import scalar, unpack

_MAGIC = b"PCW1"
_COUNT = (4, lambda b: int.from_bytes(b, "little"), None)  # a card's punches
_REDEEM_REPLIES = {bytes([status]): status for status in RedeemStatus}


@dataclasses.dataclass
class Card:
    secret: Any  # the scheme's card secret: u and the mask(s)
    element: Any  # the masked card: a group element, or both sides
    count: int
    # in memory only: False while the server has never received the element
    seen: bool = dataclasses.field(default=True, compare=False)


class Wallet:
    """scheme=None opens a wallet file as whatever scheme it holds, and
    creates a main-scheme wallet when there is no file yet."""

    def __init__(
        self,
        path: str,
        scheme: Optional[str] = "main",
        group_name: str = "ristretto255",
        pairing_name: str = "bls12-381",
    ):
        self.path = path
        self.pk: Any = None  # the pinned server key, decoded; the only copy
        self.cards: List[Card] = []
        stored = None
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            stored = self._stored_scheme(data)
        if scheme is None:
            scheme = "main" if stored is None else stored.name
        try:
            self.scheme = schemes.get_scheme(scheme, group_name, pairing_name)
        except ValueError as e:
            raise WalletError(str(e)) from None
        if stored is not None:
            if stored.code != self.scheme.code:
                raise WalletError(
                    f"wallet holds {stored.name} cards, opened as {self.scheme.name}"
                )
            self._load(data)

    # -- persistence ---------------------------------------------------------

    def _stored_scheme(self, data: bytes):
        if len(data) < 5 or data[:4] != _MAGIC:
            raise WalletError(f"{self.path} is not a wallet file")
        try:
            return schemes.BY_CODE[data[4]]
        except KeyError:
            raise WalletError(
                f"wallet file {self.path} holds unknown scheme {data[4]}"
            ) from None

    def _encode(self, pk, cards: Sequence[Card]) -> bytes:
        s = self.scheme
        pk = b"" if pk is None else s.encode_pk(pk)
        out = bytearray(_MAGIC)
        out.append(s.code)
        out += struct.pack("<H", len(pk)) + pk
        out += struct.pack("<H", len(cards))
        for card in cards:
            u, *masks = dataclasses.astuple(card.secret)
            out += u + struct.pack("<I", card.count)
            out += b"".join(g.encode_scalar(m) for g, m in zip(s.groups, masks))
            out += s.encode_card(card.element)
        return bytes(out)

    def _load(self, data: bytes) -> None:
        try:
            self._decode(data)
        except (IndexError, struct.error, InvalidEncoding) as e:
            raise WalletError(f"wallet file {self.path} is corrupt: {e}") from None

    def _decode(self, data: bytes) -> None:
        s = self.scheme
        (pk_len,) = struct.unpack_from("<H", data, 5)
        pk, rest = data[7 : 7 + pk_len], data[7 + pk_len :]
        if len(pk) != pk_len:
            raise WalletError("wallet file truncated in the key section")
        self.pk = s.decode_pk(pk) if pk_len else None
        (n,) = struct.unpack_from("<H", rest)
        card = (sum(g.element_size for g in s.groups), s.decode_card, None)
        fields = [SECRET, _COUNT, *map(scalar, s.groups), card]

        def read(record: bytes) -> Card:
            u, count, *masks, element = unpack(record, fields, "card record")
            return Card(s.card_secret(u, *masks), element, count)

        record = (sum(size for size, _, _ in fields), read, None)
        self.cards = unpack(rest[2:], [record] * n, "card records")

    def save(self, pk=None, cards: Optional[Sequence[Card]] = None) -> None:
        """Write the wallet durably as it is, or as it would be with the
        key pk or the cards given; the caller assigns them once this
        returns."""
        data = self._encode(
            self.pk if pk is None else pk, self.cards if cards is None else cards
        )

        def write(f):  # runs once write_durably has opened the temp file
            fault_point("wallet.save.write")
            f.write(data)

        fault_point("wallet.save.open")
        # owner only: the file's u and masks are enough to redeem the cards
        write_durably(self.path, write, "wallet.save", 0o600)

    # -- card lifecycle ------------------------------------------------------

    def new_card(self, rng=None) -> int:
        secret, element = self.scheme.issue(rng)
        card = Card(secret=secret, element=element, count=0, seen=False)
        self.save(cards=self.cards + [card])
        self.cards.append(card)
        return len(self.cards) - 1

    def _card(self, index: int) -> Card:
        try:
            return self.cards[index]
        except IndexError:
            raise WalletError(f"no card #{index}") from None

    def rows(self) -> List[Tuple[int, str, int]]:
        """(index, secret prefix for display, punches)."""
        return [
            (i, c.secret.u[:4].hex(), c.count) for i, c in enumerate(self.cards)
        ]

    # -- pinned server key ---------------------------------------------------

    def ensure_pk(self, client):
        """The pinned key, decoded. Asks the server only while none is
        pinned: each punch proof is then verified against the pin, which
        refuses (ProofRejected) a server that punches under another key.
        A key that does not decode is not pinned (InvalidEncoding)."""
        if self.pk is None:
            pk = self.scheme.decode_pk(client.fetch_pk())
            self.save(pk=pk)
            self.pk = pk
        return self.pk

    # -- network flows -------------------------------------------------------

    def _commit_punch(self, card: Card, secret, element, gained: int) -> None:
        fault_point("wallet.punch.commit")
        new = Card(secret, element, card.count + gained)
        self.save(cards=[new if c is card else c for c in self.cards])
        # in place: a caller may hold the Card
        card.secret, card.element, card.count = new.secret, new.element, new.count
        card.seen = False

    def _fresh(self, card: Card, rng):
        """The (secret, element) to send: the card as stored, marked seen,
        if the server has never received it, else under a fresh mask."""
        if card.seen:
            return self.scheme.remask(card.secret, card.element, rng)
        card.seen = True
        return card.secret, card.element

    def punch(self, client, index: int, rng=None) -> None:
        s = self.scheme
        card = self._card(index)
        pk = self.ensure_pk(client)
        secret, element = self._fresh(card, rng)
        request = s.encode_card(element)
        body = wire.reply_body(client.call(s.punch_req, request), s.punch_resp)
        resp = s.decode(s.punch_response, body)
        secret, element = s.client_punch(pk, secret, element, resp, rng)
        self._commit_punch(card, secret, element, 1)

    def multi_punch(self, client, index: int, t: int, rng=None) -> int:
        s = self.scheme
        if s.multi_req is None:
            raise WalletError(f"the {s.name} scheme has no multi-punch")
        card = self._card(index)
        pk = self.ensure_pk(client)
        secret, element = self._fresh(card, rng)
        request = wire.pack_multi_req(t, s.encode_card(element))
        body = wire.reply_body(client.call(s.multi_req, request), s.multi_resp)
        resp = s.decode(s.multi_response, body)
        secret, element = s.client_multi_punch(pk, secret, element, t, resp, rng)
        self._commit_punch(card, secret, element, t)
        return t

    def redeem(self, client, index: int) -> RedeemStatus:
        if self.scheme.redeem_cards != 1:
            raise WalletError("use merge_redeem for mergeable cards")
        return self._redeem(client, [self._card(index)])

    def merge_redeem(
        self, client, index_a: int, index_b: Optional[int] = None, rng=None
    ) -> RedeemStatus:
        """Spend two cards as one. With no second card, a fresh zero-punch
        partner is issued in memory and never saved, so a single card can
        still be redeemed through the same message."""
        if self.scheme.redeem_cards != 2:
            raise WalletError("merge_redeem needs a mergeable wallet")
        card_a = self._card(index_a)
        if index_b is None:
            card_b = Card(*self.scheme.issue(rng), count=0)
        else:
            card_b = self._card(index_b)
        if card_b is card_a:
            raise WalletError("cannot merge a card with itself")
        return self._redeem(client, [card_a, card_b])

    def _redeem(self, client, cards: Sequence[Card]) -> RedeemStatus:
        """Send the cards' redemption at the sum of their punch counts; on
        ACCEPT those of them that the wallet holds leave it."""
        s = self.scheme
        req = s.client_redeem([(c.secret, c.element) for c in cards])
        request = wire.pack_redeem_body(sum(c.count for c in cards), s.encode(req))
        body = wire.reply_body(client.call(s.redeem_req, request), s.redeem_resp)
        status = _REDEEM_REPLIES.get(body)
        if status is None:
            raise WireError(f"bad redeem response {body[:8].hex()!r}")
        if status is RedeemStatus.ACCEPT:
            fault_point("wallet.redeem.commit")
            keep = [c for c in self.cards if not any(c is d for d in cards)]
            self.save(cards=keep)
            self.cards[:] = keep
        return status
