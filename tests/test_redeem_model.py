"""Every card type redeems through one policy, checked against a plain set.

For each card type hypothesis runs sequences of fresh, replayed,
re-valued, wrong-count, cross-card and random-bytes redemptions through
the scheme's server redeem. The model is a set of spent card indices: a
request that names a spent card answers DOUBLE_SPEND; otherwise it
answers ACCEPT, and its cards become spent, exactly when its value was
made for its own cards (distinct ones, for a merge) at the count it
claims, and BAD_CARD when not. A request that names a spent card must
also answer before any hash to the group, exponentiation or pairing, and
no request is ever decoded: a redemption's value is compared as bytes.
"""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from punchcard import core, extensions as ext, mergeable
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.groups import get_group, get_pairing

COUNT = 3  # the punch count an honest request claims
POOL = 4  # cards per card type
KINDS = ("honest", "revalued", "wrong_count", "cross", "random")
NOISE = 32  # random value bytes drawn per operation, cut to the element size


class MainCards:
    width = 1

    def __init__(self, group_name):
        self.group = get_group(group_name)
        self.sk, _ = core.server_setup(self.group, random.Random(1))
        self.counted = [(self.group, ("hash_to_group", "exp", "decode_element"))]
        self.size = self.group.element_size

    def value(self, us, makers, count):
        return core.expected_card(self.group, self.sk, us[makers[0]], count)

    def key(self, value):
        return value

    def with_bytes(self, value, noise):
        return noise

    def request(self, secrets, value, claimed):
        return core.RedeemRequest(u=secrets[0], card=value)

    def redeem(self, req, count, db):
        return core.server_redeem(self.group, self.sk, req, count, db)


class MergeCards:
    width = 2

    def __init__(self, pairing_name):
        self.pairing = get_pairing(pairing_name)
        self.sk, _ = mergeable.server_setup(self.pairing, random.Random(2))
        self.counted = [
            (self.pairing.g0, ("hash_to_group", "exp", "decode_element")),
            (self.pairing.g1, ("hash_to_group", "exp", "decode_element")),
            (self.pairing.gt, ("decode_element",)),
            (self.pairing, ("pair",)),
        ]
        self.size = self.pairing.gt.element_size

    def value(self, us, makers, count):
        a, b = makers
        return mergeable.expected_value(self.pairing, self.sk, us[a], us[b], count)

    def key(self, value):
        return value

    def with_bytes(self, value, noise):
        return noise

    def request(self, secrets, value, claimed):
        return mergeable.MergeRedeemRequest(u_a=secrets[0], u_b=secrets[1], value=value)

    def redeem(self, req, count, db):
        return mergeable.server_redeem(self.pairing, self.sk, req, count, db)


class TicketCards:
    """Two slots; slot "a" carries the count under test, slot "b" one
    punch."""

    width = 1

    def __init__(self, group_name):
        self.group = get_group(group_name)
        self.sk, _ = core.server_setup(self.group, random.Random(3))
        self.counted = [(self.group, ("hash_to_group", "exp", "decode_element"))]
        self.size = self.group.element_size

    def value(self, us, makers, count):
        g, u = self.group, us[makers[0]]
        return [
            (name, n, g.encode_element(g.exp(g.hash_to_group(ext.TAG_TICKET_PREFIX + name, u),
                                             pow(self.sk, n, g.order))))
            for name, n in (("a", count), ("b", 1))
        ]

    def key(self, value):
        return value[0][2]

    def with_bytes(self, value, noise):  # slot "a" only
        return [("a", value[0][1], noise)] + value[1:]

    def request(self, secrets, value, claimed):
        slots = [(name, claimed if name == "a" else n, e) for name, n, e in value]
        return ext.TicketRedeemRequest(u=secrets[0], slots=slots)

    def redeem(self, req, count, db):
        return ext.server_redeem_ticket(self.group, self.sk, req, db)


CARD_TYPES = {
    "main-toy": lambda: MainCards("toy"),
    "main-ristretto255": lambda: MainCards("ristretto255"),
    "mergeable-toy-pairing": lambda: MergeCards("toy-pairing"),
    "tickets-toy": lambda: TicketCards("toy"),
}


@functools.lru_cache(maxsize=None)
def _cards(name):
    """The card type with a pool of POOL secrets and every value its
    requests can carry. The toy groups have order 1019, so two different
    (cards, count) pairs could share a value by accident and a wrong
    request verify; the pool takes a secret only if all its values differ
    from each other and from those already taken, which the model needs."""
    cards = CARD_TYPES[name]()
    rng = random.Random(name)
    us, seen = [], set()
    while len(us) < POOL:
        cand = us + [rng.randbytes(core.SECRET_SIZE)]
        combos = [
            (makers, count)
            for makers in itertools.product(range(len(cand)), repeat=cards.width)
            if len(cand) - 1 in makers
            for count in (COUNT, COUNT + 1)
        ]
        keys = {cards.key(cards.value(cand, m, c)) for m, c in combos}
        if len(keys) == len(combos) and not keys & seen:
            us, seen = cand, seen | keys
    cards.us = us
    cards.values = {
        (makers, count): cards.value(us, makers, count)
        for makers in itertools.product(range(POOL), repeat=cards.width)
        for count in (COUNT, COUNT + 1)
    }
    return cards


def _counting(real, calls, name):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return wrapper


card = st.integers(0, POOL - 1)
noise = st.binary(min_size=NOISE, max_size=NOISE)
operations = st.lists(
    st.tuples(st.sampled_from(KINDS), card, card, card, noise), min_size=1, max_size=16
)


@pytest.mark.parametrize("name", sorted(CARD_TYPES))
@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_redeem_statuses_match_a_plain_set(name, ops):
    cards = _cards(name)
    db, spent, calls = RedeemDb(), set(), []
    with pytest.MonkeyPatch.context() as mp:
        for obj, methods in cards.counted:
            for method in methods:
                mp.setattr(obj, method, _counting(getattr(obj, method), calls, method))
        for kind, i, j, k, drawn in ops:
            owners = (i, j)[: cards.width]
            makers, made_at, claimed = owners, COUNT, COUNT
            if kind == "revalued":  # the value of another count
                made_at = COUNT + 1
            elif kind == "wrong_count":  # a count the value was not made at
                claimed = COUNT + 1
            elif kind == "cross":  # another card's value (k may be its own)
                makers = owners[:-1] + (k,)
            value = cards.values[makers, made_at]
            if kind == "random":  # bytes at the element size, mostly not an element
                honest, value = value, cards.with_bytes(value, drawn[: cards.size])
                assume(cards.key(value) != cards.key(honest))
            secrets = [cards.us[o] for o in owners]
            req = cards.request(secrets, value, claimed)
            calls.clear()
            status = cards.redeem(req, claimed, db)
            assert "decode_element" not in calls, f"{kind} decoded its value"

            if spent & set(owners):
                assert status is RedeemStatus.DOUBLE_SPEND
                assert calls == [], f"{kind} of a spent card ran {calls}"
            elif (kind != "random" and (makers, made_at) == (owners, claimed)
                  and len(set(owners)) == len(owners)):
                assert status is RedeemStatus.ACCEPT
                spent.update(owners)
            else:
                assert status is RedeemStatus.BAD_CARD
    assert len(db) == len(spent)
    assert all(cards.us[o] in db for o in spent)
