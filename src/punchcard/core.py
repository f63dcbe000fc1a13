"""Single-card punch-card scheme.

One server holds sk with public key pk = g^sk. A card is a secret
(u, m) held by the client; the server only ever sees blinded values.

    Issue (client):   u <- 32 random bytes, m <- Z_q*, card p = H(u)^m
    Punch:            C -> S: p
                      S -> C: p' = p^sk, proof that log_g(pk) = log_p(p')
                      C: verify proof, pick fresh m', keep p'' = p'^(m'/m)
    Redeem:           C -> S: (u, p^(1/m)) after n punches
                      S: DOUBLE_SPEND if u was spent, else accept iff
                         bytes(p^(1/m)) == bytes(H(u)^(sk^n)); remember u

Each punch multiplies the hidden exponent by sk, so after n punches the
unmasked card is H(u)^(sk^n). The fresh mask every round makes successive
card values information-theoretically unlinkable; the proof stops a
malicious server from punching with a second key to fingerprint the card.
H must be a proper hash onto the group: if clients could choose p with a
known discrete log relative to older cards, one redeemed card would seed
forgeries of others.

The punch step itself (exponentiate, prove, verify, re-mask) is the
chain primitive below: punch_chain, verify_chain and remask. The card
around it is derived here too, under a hash tag: issue, unmask and
expected_card. The single card here, multi-punch and ticket slots in
`extensions`, and each side of the mergeable scheme all run them.

Every card type redeems through `spend`: the spent set is consulted before
the redemption equation, and the db module's atomic check-and-insert
remembers the secrets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, List, Optional, Sequence, Tuple

from . import dleq
from .errors import ProofRejected
from .groups.base import Group, compare_digest, element, random_bytes, unpack

Element = Any

TAG_CARD_HASH = "punchcard/h2g/v1/main"
TAG_PUNCH_PROOF = "punchcard/dleq/v1"

SECRET_SIZE = 32
SECRET = (SECRET_SIZE, bytes, None)  # a card secret as a field of groups.unpack


@dataclass
class CardSecret:
    """Client-side card state; u never leaves the wallet until redemption."""

    u: bytes
    mask: int


@dataclass(frozen=True)
class PunchResponse:
    punched: Element  # p^sk
    proof: dleq.DleqProof

    def to_bytes(self, group: Group) -> bytes:
        return group.encode_element(self.punched) + self.proof.to_bytes(group)

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "PunchResponse":
        fields = [element(group), dleq.proof_field(group)]
        return cls(*unpack(data, fields, "punch response"))


@dataclass(frozen=True)
class RedeemRequest:
    u: bytes
    card: bytes  # the encoding of H(u)^(sk^n), compared and never decoded

    @property
    def secrets(self) -> Tuple[bytes, ...]:
        return (self.u,)

    def to_bytes(self, group: Group) -> bytes:
        return self.u + self.card

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "RedeemRequest":
        fields = [SECRET, (group.element_size, bytes, None)]
        return cls(*unpack(data, fields, "redeem request"))


class RedeemStatus(IntEnum):
    ACCEPT = 0
    BAD_CARD = 1
    DOUBLE_SPEND = 2
    EXPIRED = 3


def server_setup(
    group: Group, rng=None, sk: Optional[int] = None
) -> Tuple[int, Element]:
    """Fresh (sk, pk), or re-derive pk from a stored sk, which must lie in
    [1, order) (else ValueError)."""
    if sk is None:
        sk = group.random_scalar(rng)
    elif not 0 < sk < group.order:
        raise ValueError("secret key outside [1, group order)")
    return sk, group.exp(group.generator(), sk)


def card_base(group: Group, u: bytes, tag: str = TAG_CARD_HASH) -> Element:
    return group.hash_to_group(tag, u)


def issue(
    group: Group, rng=None, u: Optional[bytes] = None, tag: str = TAG_CARD_HASH
) -> Tuple[CardSecret, Element]:
    """Create a zero-punch card H(u)^m, H hashing under tag; no server
    involvement, nothing sent. Draws u (unless given), then the mask."""
    if u is None:
        u = random_bytes(SECRET_SIZE, rng)
    if len(u) != SECRET_SIZE:
        raise ValueError(f"card secret must be {SECRET_SIZE} bytes")
    mask = group.random_scalar(rng)
    return CardSecret(u=u, mask=mask), group.exp(card_base(group, u, tag), mask)


def punch_chain(
    group: Group, tag: str, sk: int, pk: Element, card: Element, t: int, rng=None
) -> List[Tuple[Element, dleq.DleqProof]]:
    """The server's punch step t times: raise the previous element (the
    card first) to sk and prove it under the held pk = g^sk."""
    steps = []
    prev = card
    for _ in range(t):
        prev, proof = dleq.prove(group, tag, sk, pk, prev, rng)
        steps.append((prev, proof))
    return steps


def verify_chain(
    group: Group,
    tag: str,
    pk: Element,
    card: Element,
    steps: Sequence[Tuple[Element, dleq.DleqProof]],
) -> Element:
    """The last element of a chain whose every proof ties its element to
    the one before (the card first); else ProofRejected."""
    if not steps:
        raise ProofRejected("punch response contains no punches")
    prev = card
    for element, proof in steps:
        if not dleq.verify(group, tag, pk, prev, element, proof):
            raise ProofRejected("punch proof does not verify")
        prev = element
    return prev


def remask(group: Group, mask: int, element: Element, rng=None) -> Tuple[int, Element]:
    """Swap the mask of a punched element for a fresh one: (new mask,
    element the server has never seen)."""
    new_mask = group.random_scalar(rng)
    update = new_mask * group.invert_scalar(mask) % group.order
    return new_mask, group.exp(element, update)


def remask_card(
    group: Group, secret: CardSecret, card: Element, rng=None
) -> Tuple[CardSecret, Element]:
    """The card under a fresh mask: the last step of a punch, and what a
    wallet sends in place of a card the server may have seen."""
    mask, element = remask(group, secret.mask, card, rng)
    return CardSecret(u=secret.u, mask=mask), element


def server_punch(
    group: Group, sk: int, pk: Element, card: Element, rng=None
) -> PunchResponse:
    """Apply the key to whatever masked card the client sent, with proof."""
    [(punched, proof)] = punch_chain(group, TAG_PUNCH_PROOF, sk, pk, card, 1, rng)
    return PunchResponse(punched=punched, proof=proof)


def client_punch(
    group: Group,
    pk: Element,
    secret: CardSecret,
    card: Element,
    resp: PunchResponse,
    rng=None,
) -> Tuple[CardSecret, Element]:
    """Verify the punch actually used the server's key, then re-mask.

    Raises ProofRejected (and discards the response) on any mismatch, so a
    tampered or wrong-key punch never reaches the stored card state.
    """
    punched = verify_chain(
        group, TAG_PUNCH_PROOF, pk, card, [(resp.punched, resp.proof)]
    )
    return remask_card(group, secret, punched, rng)


def unmask(group: Group, mask: int, card: Element) -> Element:
    """card^(1/mask): the card with its mask stripped."""
    return group.exp(card, group.invert_scalar(mask))


def client_redeem(group: Group, secret: CardSecret, card: Element) -> RedeemRequest:
    """Strip the mask and reveal the card secret; one-shot by design."""
    return RedeemRequest(secret.u, group.encode_element(unmask(group, secret.mask, card)))


def expected_card(
    group: Group, sk: int, u: bytes, count: int, tag: str = TAG_CARD_HASH
) -> bytes:
    """The encoding of H(u)^(sk^count), H under tag: the bytes a redemption
    of u at count must carry. pow() is the square-and-multiply in Z_q."""
    punched = group.exp(card_base(group, u, tag), pow(sk, count, group.order))
    return group.encode_element(punched)


def verify_card(group: Group, sk: int, req: RedeemRequest, count: int) -> bool:
    """The redemption equation alone, on bytes: an element has one encoding,
    so they match exactly when the card would decode to the expected one.
    The comparison takes the same time wherever they differ."""
    return compare_digest(req.card, expected_card(group, sk, req.u, count))


def spend(db, secrets: Sequence[bytes], valid: Callable[[], bool]) -> RedeemStatus:
    """Every card type's redemption: DOUBLE_SPEND if a secret is spent,
    else BAD_CARD unless every secret is SECRET_SIZE bytes and valid(),
    else spend them all in one atomic check_and_insert. A replay costs a
    lock-free lookup, not the group work of valid(), whatever its value:
    only a holder of the secret can send it, and it knows the secret is
    spent."""
    if any(u in db for u in secrets):
        return RedeemStatus.DOUBLE_SPEND
    if any(len(u) != SECRET_SIZE for u in secrets) or not valid():
        return RedeemStatus.BAD_CARD
    if not db.check_and_insert(*secrets):
        return RedeemStatus.DOUBLE_SPEND
    return RedeemStatus.ACCEPT


def server_redeem(
    group: Group, sk: int, req: RedeemRequest, count: int, db
) -> RedeemStatus:
    return spend(db, req.secrets, lambda: verify_card(group, sk, req, count))
