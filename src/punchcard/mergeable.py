"""Mergeable punch-card scheme over a pairing.

Same punch-and-remask step as the single-card scheme (core.punch_chain,
verify_chain and remask with one step), run on each of two groups that
share one secret key:

    pk = (g0^sk, g1^sk)
    card for secret u: (p0, p1) = (H0(u)^m0, H1(u)^m1)
    punch: both sides exponentiated by sk, one proof per side, and the
           client treats the pair all-or-nothing
    merge-redeem of card A (n_a punches) with card B (n_b punches):
           value = e(p0_A^(1/m0_A), p1_B^(1/m1_B))
                 = e(H0(u_A), H1(u_B))^(sk^(n_a+n_b))
    redeem at n = n_a+n_b (core.spend): DOUBLE_SPEND if u_A or u_B was
           spent, else accept iff u_A != u_B and the bytes of value are
           those of e(H0(u_A)^(sk^n), H1(u_B)); spend both

The pairing moves the two cards' punch counts into one exponent, which is
what lets two half-full cards combine into one reward. A single card
redeems by merging with a freshly issued zero-punch partner, so the server
only ever runs the one verify equation (and u != u' holds for free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from . import core, dleq
from .core import SECRET, RedeemStatus
from .groups.base import PairingGroups, compare_digest, element, unpack

Element = Any

TAG_CARD_HASH_G0 = "punchcard/h2g/v1/merge-g0"
TAG_CARD_HASH_G1 = "punchcard/h2g/v1/merge-g1"
TAG_PUNCH_PROOF_G0 = "punchcard/dleq/v1/g0"
TAG_PUNCH_PROOF_G1 = "punchcard/dleq/v1/g1"


@dataclass
class MergeCardSecret:
    u: bytes
    mask0: int
    mask1: int


def _sides_to_bytes(pairing: PairingGroups, e0: Element, e1: Element) -> bytes:
    return pairing.g0.encode_element(e0) + pairing.g1.encode_element(e1)


@dataclass(frozen=True)
class MergeCard:
    """One element on each side: a masked card, or the server key
    (g0^sk, g1^sk), which has the same layout and checks."""

    side0: Element
    side1: Element

    def to_bytes(self, pairing: PairingGroups) -> bytes:
        return _sides_to_bytes(pairing, self.side0, self.side1)

    @classmethod
    def from_bytes(cls, pairing: PairingGroups, data: bytes) -> "MergeCard":
        fields = [element(pairing.g0), element(pairing.g1)]
        return cls(*unpack(data, fields, "mergeable card"))


@dataclass(frozen=True)
class MergePunchResponse:
    punched0: Element
    punched1: Element
    proof0: dleq.DleqProof
    proof1: dleq.DleqProof

    def to_bytes(self, pairing: PairingGroups) -> bytes:
        return (
            _sides_to_bytes(pairing, self.punched0, self.punched1)
            + self.proof0.to_bytes(pairing.g0)
            + self.proof1.to_bytes(pairing.g1)
        )

    @classmethod
    def from_bytes(cls, pairing: PairingGroups, data: bytes) -> "MergePunchResponse":
        g0, g1 = pairing.g0, pairing.g1
        fields = [element(g0), element(g1), dleq.proof_field(g0), dleq.proof_field(g1)]
        return cls(*unpack(data, fields, "mergeable punch response"))


@dataclass(frozen=True)
class MergeRedeemRequest:
    """`value` is the merged pairing value's target-group encoding, as the
    client encoded it or as it came off the wire. The server only compares
    it with the encoding it expects, so it never decodes it."""

    u_a: bytes
    u_b: bytes
    value: bytes

    @property
    def secrets(self) -> Tuple[bytes, ...]:
        return (self.u_a, self.u_b)

    def to_bytes(self, pairing: PairingGroups) -> bytes:
        return self.u_a + self.u_b + self.value

    @classmethod
    def from_bytes(cls, pairing: PairingGroups, data: bytes) -> "MergeRedeemRequest":
        fields = [SECRET, SECRET, (pairing.gt.element_size, bytes, None)]
        return cls(*unpack(data, fields, "merge redeem request"))


def server_setup(
    pairing: PairingGroups, rng=None, sk: Optional[int] = None
) -> Tuple[int, MergeCard]:
    sk, pk0 = core.server_setup(pairing.g0, rng, sk)
    return sk, MergeCard(pk0, pairing.g1.exp(pairing.g1.generator(), sk))


def issue(
    pairing: PairingGroups, rng=None, u: Optional[bytes] = None
) -> Tuple[MergeCardSecret, MergeCard]:
    """core.issue on each side over one u: u, then mask0, then mask1."""
    secret0, side0 = core.issue(pairing.g0, rng, u, TAG_CARD_HASH_G0)
    secret1, side1 = core.issue(pairing.g1, rng, secret0.u, TAG_CARD_HASH_G1)
    return (
        MergeCardSecret(u=secret0.u, mask0=secret0.mask, mask1=secret1.mask),
        MergeCard(side0=side0, side1=side1),
    )


def server_punch(
    pairing: PairingGroups, sk: int, pk: MergeCard, card: MergeCard, rng=None
) -> MergePunchResponse:
    """The punch step on each side, under that side's half of pk."""
    [(punched0, proof0)] = core.punch_chain(
        pairing.g0, TAG_PUNCH_PROOF_G0, sk, pk.side0, card.side0, 1, rng
    )
    [(punched1, proof1)] = core.punch_chain(
        pairing.g1, TAG_PUNCH_PROOF_G1, sk, pk.side1, card.side1, 1, rng
    )
    return MergePunchResponse(punched0, punched1, proof0, proof1)


def client_punch(
    pairing: PairingGroups,
    pk: MergeCard,
    secret: MergeCardSecret,
    card: MergeCard,
    resp: MergePunchResponse,
    rng=None,
) -> Tuple[MergeCardSecret, MergeCard]:
    """Both side proofs must verify or the whole response is discarded; a
    half-punched card would let the two sides drift apart."""
    punched0 = core.verify_chain(
        pairing.g0, TAG_PUNCH_PROOF_G0, pk.side0, card.side0,
        [(resp.punched0, resp.proof0)],
    )
    punched1 = core.verify_chain(
        pairing.g1, TAG_PUNCH_PROOF_G1, pk.side1, card.side1,
        [(resp.punched1, resp.proof1)],
    )
    return remask_card(pairing, secret, MergeCard(punched0, punched1), rng)


def remask_card(
    pairing: PairingGroups, secret: MergeCardSecret, card: MergeCard, rng=None
) -> Tuple[MergeCardSecret, MergeCard]:
    """core.remask on each side: mask0, then mask1."""
    mask0, side0 = core.remask(pairing.g0, secret.mask0, card.side0, rng)
    mask1, side1 = core.remask(pairing.g1, secret.mask1, card.side1, rng)
    return (
        MergeCardSecret(u=secret.u, mask0=mask0, mask1=mask1),
        MergeCard(side0=side0, side1=side1),
    )


def client_merge_redeem(
    pairing: PairingGroups,
    secret_a: MergeCardSecret,
    card_a: MergeCard,
    secret_b: MergeCardSecret,
    card_b: MergeCard,
) -> MergeRedeemRequest:
    """Combine card A's first side with card B's second side; punch counts
    add up inside the pairing."""
    side0 = core.unmask(pairing.g0, secret_a.mask0, card_a.side0)
    side1 = core.unmask(pairing.g1, secret_b.mask1, card_b.side1)
    value = pairing.gt.encode_element(pairing.pair(side0, side1))
    return MergeRedeemRequest(u_a=secret_a.u, u_b=secret_b.u, value=value)


def expected_value(
    pairing: PairingGroups, sk: int, u_a: bytes, u_b: bytes, count: int
) -> bytes:
    """The encoding of e(H0(u_a)^(sk^count), H1(u_b)): the bytes that cards
    u_a and u_b with count punches between them merge into."""
    g0 = pairing.g0
    side0 = g0.exp(core.card_base(g0, u_a, TAG_CARD_HASH_G0), pow(sk, count, g0.order))
    side1 = core.card_base(pairing.g1, u_b, TAG_CARD_HASH_G1)
    return pairing.gt.encode_element(pairing.pair(side0, side1))


def verify_card(
    pairing: PairingGroups, sk: int, req: MergeRedeemRequest, count: int
) -> bool:
    """Compare the request's target-group bytes with the expected value's
    (core.verify_card's rule). The expected value lies in the target group
    and its encoding is canonical, so the bytes match exactly when they
    would decode (membership check included) to the expected value."""
    if req.u_a == req.u_b:
        return False
    expected = expected_value(pairing, sk, req.u_a, req.u_b, count)
    return compare_digest(req.value, expected)


def server_redeem(
    pairing: PairingGroups, sk: int, req: MergeRedeemRequest, count: int, db
) -> RedeemStatus:
    return core.spend(db, req.secrets, lambda: verify_card(pairing, sk, req, count))
