"""One object per scheme, so the wallet, the server, the bench and the CLI
run either scheme through the same calls.

Both schemes punch with the chain primitive in `core`. A scheme object
holds the rest: its wallet code byte and message types, key setup and
codec, the card codec, the card secret's class (u, then one mask per
group of `groups`), issue, punch, redeem parsing and redeem. Only the
main scheme has multi-punch (`multi_req` is None otherwise); a mergeable
redemption spends two cards (`redeem_cards`), and a parsed redeem
request names the secrets it spends in `secrets`.
Methods look the functions of `core`, `extensions` and `mergeable` up on
those modules at each call, so a wrapper installed on a module sees every
call.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from . import core, extensions, mergeable, wire
from .core import SECRET_SIZE, RedeemStatus
from .groups import get_group, get_pairing
from .groups.base import Group, PairingGroups, random_bytes

Element = Any
Cards = Sequence[Tuple[Any, Any]]  # (secret, card) pairs, as issue returns


class Scheme:
    """`core` and `mergeable` have the same protocol functions and message
    methods, over a group or a pairing: `module` and `params` pick them."""

    module: Any  # core or mergeable
    params: Any  # the group or pairing its functions take first
    punch_response: Any  # message classes
    redeem_request: Any
    card_secret: Any  # a dataclass: u, then one mask per group of `groups`
    expected: str  # the module's function for a redemption's expected bytes
    pairing: Optional[PairingGroups] = None
    multi_req = multi_resp = multi_response = None

    def setup(self, rng=None, sk: Optional[int] = None):
        return self.module.server_setup(self.params, rng, sk)

    def issue(self, rng=None):
        return self.module.issue(self.params, rng)

    def server_punch(self, sk: int, pk, card, rng=None):
        return self.module.server_punch(self.params, sk, pk, card, rng)

    def client_punch(self, pk, secret, card, resp, rng=None):
        return self.module.client_punch(self.params, pk, secret, card, resp, rng)

    def remask(self, secret, card, rng=None):
        """(secret, card) under fresh masks: client_punch's last step, and
        what a wallet sends in place of a card the server has received."""
        return self.module.remask_card(self.params, secret, card, rng)

    def verify_card(self, sk: int, req, count: int) -> bool:
        return self.module.verify_card(self.params, sk, req, count)

    def server_redeem(self, sk: int, req, count: int, db) -> RedeemStatus:
        return self.module.server_redeem(self.params, sk, req, count, db)

    def expected_request(self, sk: int, count: int, rng=None):
        """An accepted request made with the key, not by punching (bench)."""
        secrets = [random_bytes(SECRET_SIZE, rng) for _ in range(self.redeem_cards)]
        expected = getattr(self.module, self.expected)
        return self.redeem_request(*secrets, expected(self.params, sk, *secrets, count))

    def encode(self, message) -> bytes:
        return message.to_bytes(self.params)

    def decode(self, kind, data: bytes):
        """Parse data as kind, a message class such as punch_response."""
        return kind.from_bytes(self.params, data)


class MainScheme(Scheme):
    """Single cards over one prime-order group (ristretto255), with
    multi-punch and expiring secrets."""

    name = "main"
    code = 0
    module = core
    punch_req, punch_resp = wire.PUNCH_REQ, wire.PUNCH_RESP
    multi_req, multi_resp = wire.MULTI_REQ, wire.MULTI_RESP
    redeem_req, redeem_resp = wire.REDEEM_REQ, wire.REDEEM_RESP
    punch_response = core.PunchResponse
    multi_response = extensions.MultiPunchResponse
    redeem_request = core.RedeemRequest
    card_secret = core.CardSecret
    expected = "expected_card"
    redeem_cards = 1

    def __init__(
        self, group_name: str = "ristretto255", pairing_name: str = "bls12-381"
    ):
        self.backend = group_name
        self.group: Group = get_group(group_name)
        self.params = self.group
        self.groups = (self.group,)

    def encode_pk(self, pk: Element) -> bytes:
        return self.group.encode_element(pk)

    def decode_pk(self, data: bytes) -> Element:
        return self.group.decode_element(data)

    encode_card, decode_card = encode_pk, decode_pk

    def server_multi_punch(self, sk: int, pk: Element, card, t: int, t_max: int):
        return extensions.server_multi_punch(self.group, sk, pk, card, t, t_max)

    def client_multi_punch(self, pk: Element, secret, card, t: int, resp, rng=None):
        return extensions.client_multi_punch(self.group, pk, secret, card, t, resp, rng)

    def client_redeem(self, cards: Cards) -> core.RedeemRequest:
        [(secret, card)] = cards
        return core.client_redeem(self.group, secret, card)


class MergeableScheme(Scheme):
    """Two-sided cards over a pairing, redeemed two at a time."""

    name = "mergeable"
    code = 1
    module = mergeable
    punch_req, punch_resp = wire.MERGE_PUNCH_REQ, wire.MERGE_PUNCH_RESP
    redeem_req, redeem_resp = wire.MERGE_REDEEM_REQ, wire.MERGE_REDEEM_RESP
    punch_response = mergeable.MergePunchResponse
    redeem_request = mergeable.MergeRedeemRequest
    card_secret = mergeable.MergeCardSecret
    expected = "expected_value"
    redeem_cards = 2

    def __init__(
        self, group_name: str = "ristretto255", pairing_name: str = "bls12-381"
    ):
        self.backend = pairing_name
        self.pairing: PairingGroups = get_pairing(pairing_name)
        self.params = self.pairing
        self.groups = (self.pairing.g0, self.pairing.g1)

    encode_card = Scheme.encode

    def decode_card(self, data: bytes) -> mergeable.MergeCard:
        return self.decode(mergeable.MergeCard, data)

    encode_pk, decode_pk = encode_card, decode_card  # the key is a MergeCard too

    def client_redeem(self, cards: Cards) -> mergeable.MergeRedeemRequest:
        (secret_a, card_a), (secret_b, card_b) = cards
        return mergeable.client_merge_redeem(
            self.pairing, secret_a, card_a, secret_b, card_b
        )


SCHEMES = {cls.name: cls for cls in (MainScheme, MergeableScheme)}
NAMES = tuple(SCHEMES)
BY_CODE = {cls.code: cls for cls in SCHEMES.values()}


def get_scheme(
    name: str = "main",
    group_name: str = "ristretto255",
    pairing_name: str = "bls12-381",
):
    """The main scheme uses group_name, the mergeable one pairing_name."""
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}")
    return SCHEMES[name](group_name, pairing_name)
