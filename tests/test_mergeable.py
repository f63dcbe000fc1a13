import random

import pytest

from punchcard import mergeable
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import InvalidEncoding, ProofRejected
from punchcard.groups import get_pairing
from punchcard.groups.bls import pairing as bls_pairing


@pytest.fixture(params=["toy-pairing", "bls12-381"])
def pairing(request):
    return get_pairing(request.param)


def _punched(pairing, sk, pk, rng, times, u=None):
    secret, card = mergeable.issue(pairing, rng, u=u)
    for _ in range(times):
        resp = mergeable.server_punch(pairing, sk, pk, card, rng)
        secret, card = mergeable.client_punch(pairing, pk, secret, card, resp, rng)
    return secret, card


def test_two_card_merge_lifecycle(pairing):
    rng = random.Random(81)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    sa, ca = _punched(pairing, sk, pk, rng, 4)
    sb, cb = _punched(pairing, sk, pk, rng, 2)
    req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    assert mergeable.server_redeem(pairing, sk, req, 6, db) is RedeemStatus.ACCEPT


def test_single_card_redeems_against_fresh_partner(pairing):
    rng = random.Random(82)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    sa, ca = _punched(pairing, sk, pk, rng, 3)
    sb, cb = mergeable.issue(pairing, rng)  # zero punches
    req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    assert mergeable.server_redeem(pairing, sk, req, 3, db) is RedeemStatus.ACCEPT


def test_wrong_count_rejected(pairing):
    rng = random.Random(83)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    sa, ca = _punched(pairing, sk, pk, rng, 2)
    sb, cb = _punched(pairing, sk, pk, rng, 2)
    req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    assert mergeable.server_redeem(pairing, sk, req, 3, db) is RedeemStatus.BAD_CARD
    assert mergeable.server_redeem(pairing, sk, req, 5, db) is RedeemStatus.BAD_CARD


def test_double_spend_blocks_both_secrets(pairing):
    rng = random.Random(84)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    sa, ca = _punched(pairing, sk, pk, rng, 1)
    sb, cb = _punched(pairing, sk, pk, rng, 1)
    req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    assert mergeable.server_redeem(pairing, sk, req, 2, db) is RedeemStatus.ACCEPT
    assert mergeable.server_redeem(pairing, sk, req, 2, db) is RedeemStatus.DOUBLE_SPEND
    # either half alone is burned too: pair the used A with a fresh card
    sc, cc = _punched(pairing, sk, pk, rng, 1)
    req2 = mergeable.client_merge_redeem(pairing, sa, ca, sc, cc)
    assert mergeable.server_redeem(pairing, sk, req2, 2, db) is RedeemStatus.DOUBLE_SPEND


def test_spent_secret_answers_double_spend_before_the_value(pairing):
    """Either secret already spent answers DOUBLE_SPEND whatever the value
    and the count; the same bad value with unspent secrets is BAD_CARD."""
    rng = random.Random(86)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    sa, ca = _punched(pairing, sk, pk, rng, 1)
    sb, cb = _punched(pairing, sk, pk, rng, 1)
    req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    assert mergeable.server_redeem(pairing, sk, req, 2, db) is RedeemStatus.ACCEPT
    bad_value = bytes(pairing.gt.element_size)
    fresh_a, fresh_b = b"\x01" * 32, b"\x02" * 32
    for u_a, u_b in ((req.u_a, fresh_b), (fresh_a, req.u_b), (req.u_a, req.u_b)):
        bad = mergeable.MergeRedeemRequest(u_a=u_a, u_b=u_b, value=bad_value)
        for count in (2, 3):
            status = mergeable.server_redeem(pairing, sk, bad, count, db)
            assert status is RedeemStatus.DOUBLE_SPEND
    bad = mergeable.MergeRedeemRequest(u_a=fresh_a, u_b=fresh_b, value=bad_value)
    assert mergeable.server_redeem(pairing, sk, bad, 2, db) is RedeemStatus.BAD_CARD
    assert fresh_a not in db and fresh_b not in db


def test_replay_runs_no_pairing(monkeypatch):
    """A replayed merge-redeem is refused from the spent set before any
    pairing; the first redeem's verify runs one."""
    calls = []
    real = bls_pairing.pairing

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(bls_pairing, "pairing", counting)
    bls = get_pairing("bls12-381")
    rng = random.Random(87)
    sk, _ = mergeable.server_setup(bls, rng)
    sa, ca = mergeable.issue(bls, rng)
    sb, cb = mergeable.issue(bls, rng)
    req = mergeable.client_merge_redeem(bls, sa, ca, sb, cb)
    db = RedeemDb()
    calls.clear()
    assert mergeable.server_redeem(bls, sk, req, 0, db) is RedeemStatus.ACCEPT
    assert len(calls) == 1
    calls.clear()
    assert mergeable.server_redeem(bls, sk, req, 0, db) is RedeemStatus.DOUBLE_SPEND
    assert calls == []


def test_same_secret_on_both_sides_rejected(pairing):
    rng = random.Random(85)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    sa, ca = _punched(pairing, sk, pk, rng, 2)
    req = mergeable.client_merge_redeem(pairing, sa, ca, sa, ca)
    assert mergeable.server_redeem(pairing, sk, req, 2, db) is RedeemStatus.BAD_CARD
    assert mergeable.server_redeem(pairing, sk, req, 4, db) is RedeemStatus.BAD_CARD


def test_punch_is_all_or_nothing(pairing):
    """A response with one bad side proof must be rejected whole, never
    applied to just the good side."""
    rng = random.Random(86)
    sk, pk = mergeable.server_setup(pairing, rng)
    secret, card = mergeable.issue(pairing, rng)
    good = mergeable.server_punch(pairing, sk, pk, card, rng)
    bad1 = _wrong_proof(pairing.g1, mergeable.TAG_PUNCH_PROOF_G1, rng)
    bad0 = _wrong_proof(pairing.g0, mergeable.TAG_PUNCH_PROOF_G0, rng)
    for bad in (
        mergeable.MergePunchResponse(good.punched0, good.punched1, good.proof0, bad1),
        mergeable.MergePunchResponse(good.punched0, good.punched1, bad0, good.proof1),
    ):
        with pytest.raises(ProofRejected):
            mergeable.client_punch(pairing, pk, secret, card, bad, rng)


def _wrong_proof(group, tag, rng):
    """A well-formed proof for an unrelated statement."""
    import punchcard.dleq as dleq

    k = group.random_scalar(rng)
    base = group.exp(group.generator(), group.random_scalar(rng))
    pk = group.exp(group.generator(), k)
    return dleq.prove(group, tag, k, pk, base, rng)[1]


def test_wrong_key_punch_rejected(pairing):
    rng = random.Random(87)
    sk, pk = mergeable.server_setup(pairing, rng)
    evil = pairing.g0.random_scalar(rng)
    while evil == sk:
        evil = pairing.g0.random_scalar(rng)
    secret, card = mergeable.issue(pairing, rng)
    _, evil_pk = mergeable.server_setup(pairing, sk=evil)
    resp = mergeable.server_punch(pairing, evil, evil_pk, card, rng)
    with pytest.raises(ProofRejected):
        mergeable.client_punch(pairing, pk, secret, card, resp, rng)


def test_serialization_round_trips(pairing):
    rng = random.Random(88)
    sk, pk = mergeable.server_setup(pairing, rng)
    secret, card = mergeable.issue(pairing, rng)
    resp = mergeable.server_punch(pairing, sk, pk, card, rng)
    sb, cb = mergeable.issue(pairing, rng)
    req = mergeable.client_merge_redeem(pairing, secret, card, sb, cb)
    for obj, cls in (
        (pk, mergeable.MergeCard),
        (card, mergeable.MergeCard),
        (resp, mergeable.MergePunchResponse),
        (req, mergeable.MergeRedeemRequest),
    ):
        blob = obj.to_bytes(pairing)
        assert cls.from_bytes(pairing, blob).to_bytes(pairing) == blob
        with pytest.raises(InvalidEncoding):
            cls.from_bytes(pairing, blob + b"\x00")
        with pytest.raises(InvalidEncoding):
            cls.from_bytes(pairing, blob[:-1])


def test_production_wire_sizes():
    pairing = get_pairing("bls12-381")
    rng = random.Random(89)
    sk, pk = mergeable.server_setup(pairing, rng)
    secret, card = mergeable.issue(pairing, rng)
    resp = mergeable.server_punch(pairing, sk, pk, card, rng)
    sb, cb = mergeable.issue(pairing, rng)
    req = mergeable.client_merge_redeem(pairing, secret, card, sb, cb)
    assert len(pk.to_bytes(pairing)) == 144
    assert len(card.to_bytes(pairing)) == 144
    assert len(resp.to_bytes(pairing)) == 496
    assert len(req.to_bytes(pairing)) == 640


# --- oracle checks over the toy pairing --------------------------------------


def test_every_split_of_six_matches_oracle():
    """a+b = 6 for a in 0..6: the merged value must equal
    gT^(h0(u_a) * sk^6 * h1(u_b)) for the known hash dlogs."""
    pairing = get_pairing("toy-pairing")
    rng = random.Random(90)
    sk, pk = mergeable.server_setup(pairing, rng)
    db = RedeemDb()
    for a in range(7):
        b = 6 - a
        sa, ca = _punched(pairing, sk, pk, rng, a)
        sb, cb = _punched(pairing, sk, pk, rng, b)
        req = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
        x = pairing.g0.dlog(pairing.g0.hash_to_group(mergeable.TAG_CARD_HASH_G0, sa.u))
        y = pairing.g1.dlog(pairing.g1.hash_to_group(mergeable.TAG_CARD_HASH_G1, sb.u))
        want = x * pow(sk, 6, pairing.order) % pairing.order * y % pairing.order
        assert pairing.gt.dlog(pairing.gt.decode_element(req.value)) == want, f"split {a}+{b}"
        assert mergeable.server_redeem(pairing, sk, req, 6, db) is RedeemStatus.ACCEPT


def test_card_sides_match_exponent_oracle():
    pairing = get_pairing("toy-pairing")
    rng = random.Random(91)
    sk, pk = mergeable.server_setup(pairing, rng)
    secret, card = mergeable.issue(pairing, rng)
    x0 = pairing.g0.dlog(pairing.g0.hash_to_group(mergeable.TAG_CARD_HASH_G0, secret.u))
    x1 = pairing.g1.dlog(pairing.g1.hash_to_group(mergeable.TAG_CARD_HASH_G1, secret.u))
    for k in range(7):
        s = pow(sk, k, pairing.order)
        assert pairing.g0.dlog(card.side0) == x0 * s % pairing.order * secret.mask0 % pairing.order
        assert pairing.g1.dlog(card.side1) == x1 * s % pairing.order * secret.mask1 % pairing.order
        resp = mergeable.server_punch(pairing, sk, pk, card, rng)
        secret, card = mergeable.client_punch(pairing, pk, secret, card, resp, rng)


def test_pairing_value_independent_of_masks():
    """Re-randomizing either card must not change the merge value."""
    pairing = get_pairing("toy-pairing")
    rng = random.Random(92)
    sk, pk = mergeable.server_setup(pairing, rng)
    sa, ca = _punched(pairing, sk, pk, rng, 2)
    sb, cb = _punched(pairing, sk, pk, rng, 1)
    first = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    # one more punch-and-remask round on each, then undo by redeeming at 5
    ra = mergeable.server_punch(pairing, sk, pk, ca, rng)
    sa, ca = mergeable.client_punch(pairing, pk, sa, ca, ra, rng)
    rb = mergeable.server_punch(pairing, sk, pk, cb, rng)
    sb, cb = mergeable.client_punch(pairing, pk, sb, cb, rb, rng)
    second = mergeable.client_merge_redeem(pairing, sa, ca, sb, cb)
    gt = pairing.gt
    assert gt.dlog(gt.decode_element(second.value)) == gt.dlog(
        gt.decode_element(first.value)
    ) * pow(sk, 2, pairing.order) % pairing.order
