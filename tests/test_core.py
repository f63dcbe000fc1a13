import random

import pytest

from punchcard import core
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import InvalidEncoding, ProofRejected
from punchcard.groups import get_group


@pytest.fixture(params=["toy", "ristretto255"])
def group(request):
    return get_group(request.param)


def _full_cycle(group, rng, punches):
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    for _ in range(punches):
        resp = core.server_punch(group, sk, pk, card, rng)
        secret, card = core.client_punch(group, pk, secret, card, resp, rng)
    return sk, core.client_redeem(group, secret, card)


def test_lifecycle_accepts(group):
    rng = random.Random(61)
    db = RedeemDb()
    for punches in (1, 3, 10):
        sk, req = _full_cycle(group, rng, punches)
        assert core.server_redeem(group, sk, req, punches, db) is RedeemStatus.ACCEPT


def test_wrong_count_rejected(group):
    rng = random.Random(62)
    db = RedeemDb()
    sk, req = _full_cycle(group, rng, 5)
    assert core.server_redeem(group, sk, req, 4, db) is RedeemStatus.BAD_CARD
    assert core.server_redeem(group, sk, req, 6, db) is RedeemStatus.BAD_CARD
    assert core.server_redeem(group, sk, req, 5, db) is RedeemStatus.ACCEPT


def test_double_spend_rejected(group):
    rng = random.Random(63)
    db = RedeemDb()
    sk, req = _full_cycle(group, rng, 2)
    assert core.server_redeem(group, sk, req, 2, db) is RedeemStatus.ACCEPT
    assert core.server_redeem(group, sk, req, 2, db) is RedeemStatus.DOUBLE_SPEND


def test_bad_proof_rejected_and_state_unchanged(group):
    rng = random.Random(64)
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    evil = group.random_scalar(rng)
    while evil == sk:
        evil = group.random_scalar(rng)
    _, evil_pk = core.server_setup(group, sk=evil)
    resp = core.server_punch(group, evil, evil_pk, card, rng)
    with pytest.raises(ProofRejected):
        core.client_punch(group, pk, secret, card, resp, rng)
    # the honest path still works with the same untouched state
    resp = core.server_punch(group, sk, pk, card, rng)
    core.client_punch(group, pk, secret, card, resp, rng)


def test_issue_validates_secret_length(group):
    with pytest.raises(ValueError):
        core.issue(group, u=b"short")


def test_spend_refuses_a_malformed_secret_before_valid(tmp_path):
    """Every card type redeems through spend, so its length check is the
    only one: a secret of the wrong length never reaches valid() or the
    store."""
    db = RedeemDb(str(tmp_path / "spent"))
    calls = []

    def valid():
        calls.append(1)
        return True

    good = random.Random(66).randbytes(32)
    for secrets in ([b"x" * 31], [b"x" * 33], [good, b"x" * 31]):
        assert core.spend(db, secrets, valid) is RedeemStatus.BAD_CARD
    assert calls == [] and len(db) == 0
    assert (tmp_path / "spent").read_bytes() == b""
    assert core.spend(db, [good], valid) is RedeemStatus.ACCEPT and calls == [1]
    db.close()


class _LostRace:
    """A store whose lock-free look-up misses a secret that another
    redemption spends before this one's check_and_insert."""

    def __contains__(self, u):
        return False

    def check_and_insert(self, *secrets):
        return False


def test_spend_that_loses_the_race_is_double_spend():
    calls = []

    def valid():
        calls.append(1)
        return True

    secret = bytes(core.SECRET_SIZE)
    assert core.spend(_LostRace(), [secret], valid) is RedeemStatus.DOUBLE_SPEND
    assert calls == [1]


def test_remask_changes_wire_element_every_time():
    group = get_group("ristretto255")
    rng = random.Random(66)
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    seen = {group.encode_element(card)}
    for _ in range(20):
        resp = core.server_punch(group, sk, pk, card, rng)
        secret, card = core.client_punch(group, pk, secret, card, resp, rng)
        blob = group.encode_element(card)
        assert blob not in seen
        seen.add(blob)


def test_unlinkability_of_presented_cards():
    """Two cards punched in interleaved order: the multiset of elements the
    server sees carries no repeats and no algebraic link to u until redeem.
    Sanity-level check: all 4 per-round elements are distinct and none
    equals a hash-to-group of either secret."""
    group = get_group("ristretto255")
    rng = random.Random(67)
    sk, pk = core.server_setup(group, rng)
    s1, c1 = core.issue(group, rng)
    s2, c2 = core.issue(group, rng)
    elements = set()
    for _ in range(10):
        for sec_card in ((s1, c1), (s2, c2)):
            elements.add(group.encode_element(sec_card[1]))
        r1 = core.server_punch(group, sk, pk, c1, rng)
        s1, c1 = core.client_punch(group, pk, s1, c1, r1, rng)
        r2 = core.server_punch(group, sk, pk, c2, rng)
        s2, c2 = core.client_punch(group, pk, s2, c2, r2, rng)
    assert len(elements) == 20
    for u in (s1.u, s2.u):
        assert group.encode_element(core.card_base(group, u)) not in elements


def test_redeem_request_serialization(group):
    rng = random.Random(68)
    sk, req = _full_cycle(group, rng, 3)
    blob = req.to_bytes(group)
    assert len(blob) == core.SECRET_SIZE + group.element_size
    again = core.RedeemRequest.from_bytes(group, blob)
    assert again.u == req.u
    assert again.card == req.card
    with pytest.raises(InvalidEncoding):
        core.RedeemRequest.from_bytes(group, blob[:-1])


def test_punch_response_serialization(group):
    rng = random.Random(69)
    sk, pk = core.server_setup(group, rng)
    _, card = core.issue(group, rng)
    resp = core.server_punch(group, sk, pk, card, rng)
    blob = resp.to_bytes(group)
    again = core.PunchResponse.from_bytes(group, blob)
    assert again.to_bytes(group) == blob
    with pytest.raises(InvalidEncoding):
        core.PunchResponse.from_bytes(group, blob + b"\x00")


# --- toy-group oracle: every intermediate state is checkable by dlog ---------


def test_card_state_matches_exponent_oracle():
    """After k punches with current mask m, the card must be exactly
    H(u)^(sk^k * m). The toy group's brute-force dlog checks the whole
    exponent, not just a final accept bit."""
    toy = get_group("toy")
    rng = random.Random(70)
    for trial in range(10):
        sk, pk = core.server_setup(toy, rng)
        secret, card = core.issue(toy, rng)
        base_log = toy.dlog(core.card_base(toy, secret.u))
        for k in range(9):  # punch counts 0..8
            want = base_log * pow(sk, k, toy.order) % toy.order * secret.mask % toy.order
            assert toy.dlog(card) == want, f"trial {trial}, punch {k}"
            resp = core.server_punch(toy, sk, pk, card, rng)
            secret, card = core.client_punch(toy, pk, secret, card, resp, rng)


def test_redeem_unmask_matches_oracle():
    toy = get_group("toy")
    rng = random.Random(71)
    sk, pk = core.server_setup(toy, rng)
    secret, card = core.issue(toy, rng)
    for _ in range(4):
        resp = core.server_punch(toy, sk, pk, card, rng)
        secret, card = core.client_punch(toy, pk, secret, card, resp, rng)
    req = core.client_redeem(toy, secret, card)
    base_log = toy.dlog(core.card_base(toy, secret.u))
    unmasked = toy.decode_element(req.card)  # a redemption carries bytes
    assert toy.dlog(unmasked) == base_log * pow(sk, 4, toy.order) % toy.order
    assert req.u == secret.u


def test_expected_card_oracle():
    toy = get_group("toy")
    rng = random.Random(72)
    sk, _ = core.server_setup(toy, rng)
    u = rng.randbytes(32)
    base_log = toy.dlog(core.card_base(toy, u))
    for count in range(9):
        want = base_log * pow(sk, count, toy.order) % toy.order
        expected = toy.decode_element(core.expected_card(toy, sk, u, count))
        assert toy.dlog(expected) == want
