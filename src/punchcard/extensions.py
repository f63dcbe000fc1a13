"""Extensions over the single-card scheme.

* multi-punch: one response carries p^sk, p^(sk^2), ..., p^(sk^t), each
  step proven against the previous element (core.punch_chain with t
  steps), so a purchase can earn t punches in one round trip for the
  price of one message.
* expiring secrets: the first 4 bytes of u encode an expiry date (days
  since 1970-01-01, big-endian, always a calendar-quarter boundary), which
  lets the server refuse stale cards and purge the spent-secret set.
* claim proofs: a card issued with u = H(rs) can be redeemed online and the
  reward picked up later by showing rs; the server never learns rs early.
* ticketing: several independent counters ("slots") bound to one secret,
  punched per-slot and redeemed together.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Any, Dict, List, Tuple

from . import core, dleq
from .core import SECRET_SIZE, CardSecret, RedeemStatus
from .errors import (
    BadExpiry,
    NoSuchRedemption,
    PromotionTooLarge,
    ProofRejected,
)
from .groups.base import Group, compare_digest, element, random_bytes, sha256, tagged, unpack

Element = Any

DEFAULT_T_MAX = 10
DEFAULT_HORIZON_QUARTERS = 8

TAG_CLAIM = "punchcard/rs/v1"
TAG_TICKET_PREFIX = "punchcard/ticket/v1/"

_EPOCH = date(1970, 1, 1)
_QUARTER_MONTHS = (1, 4, 7, 10)


# ---------------------------------------------------------------------------
# multi-punch


@dataclass(frozen=True)
class MultiPunchResponse:
    """Chain [p^sk, p^(sk^2), ...]; proof i ties element i to element i-1
    (element -1 being the submitted card)."""

    steps: List[Tuple[Element, dleq.DleqProof]]

    def to_bytes(self, group: Group) -> bytes:
        out = bytearray([len(self.steps)])
        for element, proof in self.steps:
            out += group.encode_element(element)
            out += proof.to_bytes(group)
        return bytes(out)

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "MultiPunchResponse":
        """A count byte t, then t times an element and its proof."""
        t = data[0] if data else 0
        fields = [(1, ord, None)] + [element(group), dleq.proof_field(group)] * t
        _, *flat = unpack(data, fields, "multi-punch response")
        return cls(steps=list(zip(flat[::2], flat[1::2])))


def check_punch_count(t: int, t_max: int = DEFAULT_T_MAX) -> None:
    """Raises PromotionTooLarge unless one response may carry t punches."""
    if not 1 <= t <= min(t_max, 255):
        raise PromotionTooLarge(f"punch count {t} outside [1, {min(t_max, 255)}]")


def server_multi_punch(
    group: Group,
    sk: int,
    pk: Element,
    card: Element,
    t: int,
    t_max: int = DEFAULT_T_MAX,
    rng=None,
) -> MultiPunchResponse:
    check_punch_count(t, t_max)
    return MultiPunchResponse(
        steps=core.punch_chain(group, core.TAG_PUNCH_PROOF, sk, pk, card, t, rng)
    )


def client_multi_punch(
    group: Group,
    pk: Element,
    secret: CardSecret,
    card: Element,
    t: int,
    resp: MultiPunchResponse,
    rng=None,
) -> Tuple[CardSecret, Element]:
    """Verify the whole chain of the t punches asked for, then re-mask off
    the last element. A chain of any other length is refused
    (ProofRejected) before any proof is checked, even when every step
    verifies: the count reaches the server in clear at redemption, so an
    unusual total would mark the card."""
    if len(resp.steps) != t:
        raise ProofRejected(f"asked for {t} punches, got {len(resp.steps)}")
    last = core.verify_chain(group, core.TAG_PUNCH_PROOF, pk, card, resp.steps)
    return core.remask_card(group, secret, last, rng)


# ---------------------------------------------------------------------------
# expiring card secrets


def quarter_boundary_on_or_after(day: date) -> date:
    """The first quarter boundary >= day."""
    for month in _QUARTER_MONTHS:
        if (day.month, day.day) <= (month, 1):
            return date(day.year, month, 1)
    return date(day.year + 1, 1, 1)


def add_quarters(boundary: date, quarters: int) -> date:
    idx = _QUARTER_MONTHS.index(boundary.month) + quarters
    return date(boundary.year + idx // 4, _QUARTER_MONTHS[idx % 4], 1)


def expiry_code(boundary: date) -> int:
    if boundary.day != 1 or boundary.month not in _QUARTER_MONTHS:
        raise BadExpiry(f"{boundary} is not a quarter boundary")
    return (boundary - _EPOCH).days


def code_to_date(code: int) -> date:
    return _EPOCH + timedelta(days=code)


def make_expiring_secret(expires: date, rng=None) -> bytes:
    """u = expiry code (4 bytes big-endian) || 28 random bytes."""
    return expiry_code(expires).to_bytes(4, "big") + random_bytes(
        SECRET_SIZE - 4, rng
    )


def embedded_expiry(u: bytes) -> date:
    code = int.from_bytes(u[:4], "big")
    try:
        return code_to_date(code)
    except OverflowError:
        # a hostile prefix must fail closed, not crash date arithmetic
        raise BadExpiry(f"embedded expiry code {code} out of range") from None


def check_expiry(
    u: bytes, today: date, horizon_quarters: int = DEFAULT_HORIZON_QUARTERS
) -> None:
    """Raises BadExpiry unless u carries a quarter boundary in
    [today, today + horizon]."""
    expiry = embedded_expiry(u)
    expiry_code(expiry)  # BadExpiry unless it is a quarter boundary
    if expiry < today:
        raise BadExpiry(f"card expired on {expiry}")
    # count back from the expiry: counting on from today can pass date.max
    first = quarter_boundary_on_or_after(today)
    if add_quarters(expiry, -horizon_quarters) > first:
        raise BadExpiry(f"expiry {expiry} beyond the {horizon_quarters}-quarter horizon")


def issue_expiring(
    group: Group, expires: date, rng=None
) -> Tuple[CardSecret, Element]:
    return core.issue(group, rng, u=make_expiring_secret(expires, rng))


def purge_expired(db, today: date) -> int:
    """Drop spent secrets whose embedded expiry is strictly before today.
    Only valid when every secret in the store is expiry-encoded; the
    caller's config is responsible for that."""
    cutoff = (today - _EPOCH).days
    return db.purge(lambda u: int.from_bytes(u[:4], "big") < cutoff)


# ---------------------------------------------------------------------------
# claim proofs (redeem online, pick up in person)


def make_claim_secret(rng=None) -> Tuple[bytes, bytes]:
    """Returns (rs, u) with u = H(rs); issue the card with this u."""
    rs = random_bytes(32, rng)
    return rs, claim_to_secret(rs)


def claim_to_secret(rs: bytes) -> bytes:
    return sha256(tagged(TAG_CLAIM, rs)).digest()


def claim(db, rs: bytes) -> bytes:
    """Present rs; consumes the claim that db.add_claim(u) recorded for an
    accepted redemption, or raises NoSuchRedemption."""
    u = claim_to_secret(rs)
    if not db.take_claim(u):
        raise NoSuchRedemption("no unclaimed redemption matches this secret")
    return u


# ---------------------------------------------------------------------------
# ticketing: named slots over one secret


@dataclass
class TicketSecret:
    u: bytes
    masks: Dict[str, int]
    counts: Dict[str, int]


@dataclass(frozen=True)
class TicketCard:
    slots: Dict[str, Element]


@dataclass(frozen=True)
class TicketRedeemRequest:
    u: bytes
    slots: List[Tuple[str, int, bytes]]  # (name, claimed count, unmasked slot bytes)

    @property
    def secrets(self) -> Tuple[bytes, ...]:
        return (self.u,)


def _slot_tag(name: str) -> str:
    return TAG_TICKET_PREFIX + name


def issue_ticket(
    group: Group, slot_names: List[str], rng=None
) -> Tuple[TicketSecret, TicketCard]:
    if len(set(slot_names)) != len(slot_names):
        raise ValueError("slot names must be distinct")
    u = random_bytes(SECRET_SIZE, rng)
    masks, slots = {}, {}
    for name in slot_names:
        slot, slots[name] = core.issue(group, rng, u, _slot_tag(name))
        masks[name] = slot.mask
    return (
        TicketSecret(u=u, masks=masks, counts={n: 0 for n in slot_names}),
        TicketCard(slots=slots),
    )


def server_punch_ticket(
    group: Group,
    sk: int,
    pk: Element,
    card: TicketCard,
    plan: Dict[str, int],
    t_max: int = DEFAULT_T_MAX,
    rng=None,
) -> Dict[str, MultiPunchResponse]:
    """One multi-attribute punch: every named slot gets its own chain."""
    out = {}
    for name, t in plan.items():
        if name not in card.slots:
            raise ValueError(f"unknown slot {name!r}")
        out[name] = server_multi_punch(
            group, sk, pk, card.slots[name], t, t_max, rng
        )
    return out


def client_punch_ticket(
    group: Group,
    pk: Element,
    secret: TicketSecret,
    card: TicketCard,
    plan: Dict[str, int],
    responses: Dict[str, MultiPunchResponse],
    rng=None,
) -> Tuple[TicketSecret, TicketCard]:
    """Per-slot chain verification and re-masking for the punches asked in
    plan (as server_punch_ticket takes it): each slot is credited the count
    asked, and a reply whose slots or chain lengths differ from the plan is
    refused whole. Untouched slots keep their old mask and value."""
    if set(responses) != set(plan):
        raise ProofRejected(f"asked for slots {sorted(plan)}, got {sorted(responses)}")
    new_masks = dict(secret.masks)
    new_counts = dict(secret.counts)
    new_slots = dict(card.slots)
    for name, t in plan.items():
        if name not in card.slots:
            raise ProofRejected(f"response for unknown slot {name!r}")
        slot, new_slots[name] = client_multi_punch(
            group, pk, CardSecret(secret.u, secret.masks[name]),
            card.slots[name], t, responses[name], rng,
        )
        new_masks[name] = slot.mask
        new_counts[name] += t
    return (
        TicketSecret(u=secret.u, masks=new_masks, counts=new_counts),
        TicketCard(slots=new_slots),
    )


def client_redeem_ticket(
    group: Group, secret: TicketSecret, card: TicketCard
) -> TicketRedeemRequest:
    slots = []
    for name in sorted(card.slots):
        element = core.unmask(group, secret.masks[name], card.slots[name])
        slots.append((name, secret.counts[name], group.encode_element(element)))
    return TicketRedeemRequest(u=secret.u, slots=slots)


def verify_ticket(group: Group, sk: int, req: TicketRedeemRequest) -> bool:
    # each slot may be named once: a repeat would count its punches twice
    names = [name for name, _, _ in req.slots]
    if not names or len(set(names)) != len(names):
        return False
    for name, count, encoded in req.slots:
        expected = core.expected_card(group, sk, req.u, count, _slot_tag(name))
        if not compare_digest(encoded, expected):
            return False
    return True


def server_redeem_ticket(
    group: Group, sk: int, req: TicketRedeemRequest, db
) -> RedeemStatus:
    return core.spend(db, req.secrets, lambda: verify_ticket(group, sk, req))
