import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from punchcard import core, dleq, extensions as ext, wire
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import (
    BadExpiry,
    InvalidEncoding,
    NoSuchRedemption,
    PromotionTooLarge,
    ProofRejected,
)
from punchcard.groups import get_group
from punchcard.service import Config, PunchcardService


@pytest.fixture(params=["toy", "ristretto255"])
def group(request):
    return get_group(request.param)


# --- multi-punch --------------------------------------------------------------


def test_multi_punch_equals_repeated_single_punch():
    toy = get_group("toy")
    rng = random.Random(101)
    sk, pk = core.server_setup(toy, rng)
    for t in range(1, 9):
        secret, card = core.issue(toy, rng)
        resp = ext.server_multi_punch(toy, sk, pk, card, t, rng=rng)
        secret, card = ext.client_multi_punch(toy, pk, secret, card, t, resp, rng)
        base_log = toy.dlog(core.card_base(toy, secret.u))
        want = base_log * pow(sk, t, toy.order) % toy.order * secret.mask % toy.order
        assert toy.dlog(card) == want


def test_multi_punch_then_redeem(group):
    rng = random.Random(102)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    secret, card = core.issue(group, rng)
    resp = ext.server_multi_punch(group, sk, pk, card, 4, rng=rng)
    secret, card = ext.client_multi_punch(group, pk, secret, card, 4, resp, rng)
    resp = core.server_punch(group, sk, pk, card, rng)
    secret, card = core.client_punch(group, pk, secret, card, resp, rng)
    req = core.client_redeem(group, secret, card)
    assert core.server_redeem(group, sk, req, 5, db) is RedeemStatus.ACCEPT


def test_multi_punch_bounds(group):
    rng = random.Random(103)
    sk, pk = core.server_setup(group, rng)
    _, card = core.issue(group, rng)
    for t in (0, -1, 11):
        with pytest.raises(PromotionTooLarge):
            ext.server_multi_punch(group, sk, pk, card, t, t_max=10, rng=rng)
    ext.server_multi_punch(group, sk, pk, card, 10, t_max=10, rng=rng)
    with pytest.raises(PromotionTooLarge):
        ext.server_multi_punch(group, sk, pk, card, 256, t_max=1000, rng=rng)


def test_multi_punch_serialization(group):
    rng = random.Random(104)
    sk, pk = core.server_setup(group, rng)
    _, card = core.issue(group, rng)
    resp = ext.server_multi_punch(group, sk, pk, card, 3, rng=rng)
    blob = resp.to_bytes(group)
    again = ext.MultiPunchResponse.from_bytes(group, blob)
    assert again.to_bytes(group) == blob
    assert len(again.steps) == 3
    with pytest.raises(InvalidEncoding):
        ext.MultiPunchResponse.from_bytes(group, blob[:-1])
    with pytest.raises(InvalidEncoding):
        ext.MultiPunchResponse.from_bytes(group, b"")


def test_multi_punch_tampered_chain_rejected(group):
    """Swapping any chain element breaks the link on both sides of it."""
    rng = random.Random(105)
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    resp = ext.server_multi_punch(group, sk, pk, card, 3, rng=rng)
    decoy = group.exp(group.generator(), group.random_scalar(rng))
    for i in range(3):
        steps = list(resp.steps)
        steps[i] = (decoy, steps[i][1])
        with pytest.raises(ProofRejected):
            ext.client_multi_punch(
                group, pk, secret, card, 3, ext.MultiPunchResponse(steps), rng
            )


def test_multi_punch_wrong_key_rejected(group):
    rng = random.Random(106)
    sk, pk = core.server_setup(group, rng)
    evil = group.random_scalar(rng)
    while evil == sk:
        evil = group.random_scalar(rng)
    secret, card = core.issue(group, rng)
    _, evil_pk = core.server_setup(group, sk=evil)
    resp = ext.server_multi_punch(group, evil, evil_pk, card, 2, rng=rng)
    with pytest.raises(ProofRejected):
        ext.client_multi_punch(group, pk, secret, card, 2, resp, rng)


def test_empty_response_rejected(group):
    rng = random.Random(107)
    _, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    with pytest.raises(ProofRejected):
        ext.client_multi_punch(
            group, pk, secret, card, 0, ext.MultiPunchResponse(steps=[]), rng
        )


@pytest.mark.parametrize("extra", [1, -1])
def test_multi_punch_chain_of_another_length_rejected(group, monkeypatch, extra):
    """A valid chain of t + 1 or t - 1 steps answering a request for t is
    refused before any proof is checked."""
    rng = random.Random(108)
    sk, pk = core.server_setup(group, rng)
    secret, card = core.issue(group, rng)
    resp = ext.server_multi_punch(group, sk, pk, card, 3 + extra, rng=rng)
    checked = []
    monkeypatch.setattr(dleq, "verify", lambda *a: checked.append(a) or True)
    with pytest.raises(ProofRejected, match="asked for 3 punches"):
        ext.client_multi_punch(group, pk, secret, card, 3, resp, rng)
    assert checked == []


# --- expiring secrets ---------------------------------------------------------


def test_quarter_boundary_on_or_after():
    assert ext.quarter_boundary_on_or_after(date(2026, 1, 1)) == date(2026, 1, 1)
    assert ext.quarter_boundary_on_or_after(date(2026, 1, 2)) == date(2026, 4, 1)
    assert ext.quarter_boundary_on_or_after(date(2026, 3, 31)) == date(2026, 4, 1)
    assert ext.quarter_boundary_on_or_after(date(2026, 4, 1)) == date(2026, 4, 1)
    assert ext.quarter_boundary_on_or_after(date(2026, 10, 2)) == date(2027, 1, 1)
    assert ext.quarter_boundary_on_or_after(date(2026, 12, 31)) == date(2027, 1, 1)


def test_add_quarters_rolls_years():
    assert ext.add_quarters(date(2026, 1, 1), 0) == date(2026, 1, 1)
    assert ext.add_quarters(date(2026, 1, 1), 1) == date(2026, 4, 1)
    assert ext.add_quarters(date(2026, 10, 1), 1) == date(2027, 1, 1)
    assert ext.add_quarters(date(2026, 4, 1), 8) == date(2028, 4, 1)


def test_expiry_code_round_trip():
    for d in (date(2026, 1, 1), date(2026, 7, 1), date(2030, 10, 1)):
        assert ext.code_to_date(ext.expiry_code(d)) == d
    for bad in (date(2026, 1, 2), date(2026, 2, 1), date(2026, 12, 1)):
        with pytest.raises(BadExpiry):
            ext.expiry_code(bad)


def test_expiring_secret_layout():
    rng = random.Random(108)
    expires = date(2026, 10, 1)
    u = ext.make_expiring_secret(expires, rng)
    assert len(u) == 32
    assert ext.embedded_expiry(u) == expires
    # the random tail varies, the prefix does not
    v = ext.make_expiring_secret(expires, rng)
    assert u[:4] == v[:4] and u[4:] != v[4:]


def test_check_expiry_window():
    today = date(2026, 8, 22)
    rng = random.Random(109)
    ok = ext.make_expiring_secret(date(2026, 10, 1), rng)
    ext.check_expiry(ok, today)  # no raise
    with pytest.raises(BadExpiry):
        ext.check_expiry(ext.make_expiring_secret(date(2026, 7, 1), rng), today)
    # horizon default is 8 quarters from the next boundary (2026-10-01)
    edge = ext.make_expiring_secret(date(2028, 10, 1), rng)
    ext.check_expiry(edge, today)
    beyond = ext.make_expiring_secret(date(2029, 1, 1), rng)
    with pytest.raises(BadExpiry):
        ext.check_expiry(beyond, today)
    ext.check_expiry(beyond, today, horizon_quarters=9)
    with pytest.raises(BadExpiry):
        ext.check_expiry(b"\xff\xff\xff\xff" + bytes(28), today)


def test_expiring_card_full_cycle(group):
    rng = random.Random(110)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    secret, card = ext.issue_expiring(group, date(2026, 10, 1), rng)
    resp = core.server_punch(group, sk, pk, card, rng)
    secret, card = core.client_punch(group, pk, secret, card, resp, rng)
    req = core.client_redeem(group, secret, card)
    ext.check_expiry(req.u, date(2026, 8, 22))
    assert core.server_redeem(group, sk, req, 1, db) is RedeemStatus.ACCEPT


def test_purge_expired_drops_only_old():
    rng = random.Random(111)
    db = RedeemDb()
    old = ext.make_expiring_secret(date(2026, 4, 1), rng)
    cur = ext.make_expiring_secret(date(2026, 10, 1), rng)
    assert db.check_and_insert(old) and db.check_and_insert(cur)
    assert ext.purge_expired(db, date(2026, 8, 22)) == 1
    assert not db.check_and_insert(cur)  # still present
    assert db.check_and_insert(old)  # was purged, re-inserts


def test_purged_replay_still_rejected_by_expiry_gate():
    """Purging an expired secret must not reopen the double-spend hole:
    the expiry check rejects the replay before the store is consulted."""
    toy = get_group("toy")
    rng = random.Random(112)
    sk, pk = core.server_setup(toy, rng)
    db = RedeemDb()
    secret, card = ext.issue_expiring(toy, date(2026, 4, 1), rng)
    resp = core.server_punch(toy, sk, pk, card, rng)
    secret, card = core.client_punch(toy, pk, secret, card, resp, rng)
    req = core.client_redeem(toy, secret, card)
    ext.check_expiry(req.u, date(2026, 3, 1))
    assert core.server_redeem(toy, sk, req, 1, db) is RedeemStatus.ACCEPT
    ext.purge_expired(db, date(2026, 8, 22))
    with pytest.raises(BadExpiry):
        ext.check_expiry(req.u, date(2026, 8, 22))


# The expiry gate runs on the attacker's u before any verify, so it must
# fail closed on every input. The model counts calendar quarters as
# integers (4 * year + quarter), independent of the date arithmetic in
# extensions.

_EPOCH = date(1970, 1, 1)
_LAST_CODE = (date.max - _EPOCH).days


def _quarter_index(day):
    return 4 * day.year + (day.month - 1) // 3


def _is_boundary(day):
    return day.day == 1 and day.month in (1, 4, 7, 10)


def _gate_passes(code, today, horizon):
    """A quarter boundary among the first horizon + 1 on or after today."""
    if code > _LAST_CODE:
        return False
    day = _EPOCH + timedelta(days=code)
    first = _quarter_index(today) + (0 if _is_boundary(today) else 1)
    return _is_boundary(day) and first <= _quarter_index(day) <= first + horizon


def _boundary_code(index):
    """The code of quarter `index`, clamped to the 4-byte field."""
    year, quarter = divmod(index, 4)
    if not 1 <= year <= 9999:
        return 0 if year < 1 else 2**32 - 1
    return max((date(year, 3 * quarter + 1, 1) - _EPOCH).days, 0)


@st.composite
def _expiry_codes(draw, today, horizon):
    """Any 4-byte code, or one near the window's quarter boundaries or
    near today, where the gate's answer changes."""
    near_window = st.builds(
        lambda q, off: _boundary_code(_quarter_index(today) + q) + off,
        st.integers(-2, horizon + 2),
        st.integers(-1, 1),
    )
    near_today = st.builds(
        lambda off: (today - _EPOCH).days + off, st.integers(-400, 400)
    )
    code = draw(st.one_of(st.integers(0, 2**32 - 1), near_window, near_today))
    return min(max(code, 0), 2**32 - 1)


@st.composite
def _gate_inputs(draw):
    # any date, and often one near either end of the code range
    ends = st.dates(max_value=date(1975, 1, 1)) | st.dates(min_value=date(9990, 1, 1))
    today = draw(st.dates() | ends)
    horizon = draw(st.integers(1, 64))
    code = draw(_expiry_codes(today, horizon))
    u = code.to_bytes(4, "big") + draw(st.binary(min_size=28, max_size=28))
    return u, today, horizon


@settings(max_examples=500, deadline=None)
@given(_gate_inputs())
def test_check_expiry_passes_or_raises_bad_expiry(args):
    u, today, horizon = args
    try:
        ext.check_expiry(u, today, horizon)
        passed = True
    except BadExpiry:
        passed = False
    assert passed == _gate_passes(int.from_bytes(u[:4], "big"), today, horizon)


def test_check_expiry_at_the_end_of_the_calendar():
    """A window that runs past date.max holds every boundary up to it."""
    last = ext.expiry_code(date(9999, 10, 1)).to_bytes(4, "big") + bytes(28)
    ext.check_expiry(last, date(9999, 9, 1), 8)
    ext.check_expiry(last, date(9999, 10, 1), 64)
    with pytest.raises(BadExpiry):
        ext.check_expiry(last, date(9999, 10, 2))


@settings(max_examples=100, deadline=None)
@given(
    codes=st.lists(st.integers(0, 2**32 - 1), max_size=40),
    today=st.dates(),
    near=st.lists(st.integers(-3, 3), max_size=10),
)
def test_purge_expired_drops_exactly_the_codes_below_the_cutoff(codes, today, near):
    cutoff = (today - _EPOCH).days
    codes += [min(max(cutoff + d, 0), 2**32 - 1) for d in near]
    secrets = {
        c.to_bytes(4, "big") + i.to_bytes(28, "big") for i, c in enumerate(codes)
    }
    db = RedeemDb()
    db.preload(secrets)
    stale = {u for u in secrets if int.from_bytes(u[:4], "big") < cutoff}
    assert ext.purge_expired(db, today) == len(stale)
    assert len(db) == len(secrets) - len(stale)
    assert all((u in db) != (u in stale) for u in secrets)


@pytest.fixture(scope="module")
def expiring_service(tmp_path_factory):
    cfg = Config(
        state_dir=str(tmp_path_factory.mktemp("expiring")),
        group="toy",
        accepted_counts=(1,),
        expiry_check=True,
    )
    return PunchcardService(cfg, db=RedeemDb())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_expiry_gate_runs_before_any_verify(expiring_service, data):
    """A redeem whose u fails the gate answers EXPIRED without hashing to
    the group or exponentiating; one that passes goes on to the verify."""
    svc = expiring_service
    svc.db = RedeemDb()  # a u that verifies by chance is not spent next time
    group = svc.scheme.group
    today = date.today()
    code = data.draw(_expiry_codes(today, svc.cfg.horizon_quarters))
    u = code.to_bytes(4, "big") + data.draw(st.binary(min_size=28, max_size=28))
    card = group.encode_element(group.generator())
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("hash_to_group", "exp"):
            mp.setattr(group, name, counting(name, getattr(group, name)))
        body = wire.pack_redeem_body(1, u + card)
        out_type, body = svc.handle(wire.REDEEM_REQ, body)
    assert out_type == wire.REDEEM_RESP
    if _gate_passes(code, today, svc.cfg.horizon_quarters):
        assert body != bytes([RedeemStatus.EXPIRED]) and calls
    else:
        assert body == bytes([RedeemStatus.EXPIRED]) and calls == []


# --- claim proofs ---------------------------------------------------------------


def test_claim_flow():
    rng = random.Random(113)
    db = RedeemDb()
    rs, u = ext.make_claim_secret(rng)
    assert len(rs) == 32 and len(u) == 32
    assert u == ext.claim_to_secret(rs)
    db.add_claim(u)
    assert ext.claim(db, rs) == u
    with pytest.raises(NoSuchRedemption):
        ext.claim(db, rs)  # consumed


def test_claim_wrong_secret_rejected():
    rng = random.Random(114)
    db = RedeemDb()
    rs, u = ext.make_claim_secret(rng)
    db.add_claim(u)
    for _ in range(50):
        with pytest.raises(NoSuchRedemption):
            ext.claim(db, rng.randbytes(32))
    assert ext.claim(db, rs) == u


def test_claim_backed_card_redeems(group):
    """u = H(rs) works as an ordinary card secret end to end."""
    rng = random.Random(115)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    rs, u = ext.make_claim_secret(rng)
    secret, card = core.issue(group, rng, u=u)
    resp = core.server_punch(group, sk, pk, card, rng)
    secret, card = core.client_punch(group, pk, secret, card, resp, rng)
    req = core.client_redeem(group, secret, card)
    assert core.server_redeem(group, sk, req, 1, db) is RedeemStatus.ACCEPT
    db.add_claim(req.u)
    assert ext.claim(db, rs) == req.u


# --- ticketing ------------------------------------------------------------------


def test_ticket_lifecycle(group):
    rng = random.Random(116)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    secret, card = ext.issue_ticket(group, ["adult", "child", "parking"], rng)
    plan = {"adult": 2, "child": 3}
    responses = ext.server_punch_ticket(group, sk, pk, card, plan, rng=rng)
    secret, card = ext.client_punch_ticket(group, pk, secret, card, plan, responses, rng)
    responses = ext.server_punch_ticket(group, sk, pk, card, {"parking": 1}, rng=rng)
    secret, card = ext.client_punch_ticket(
        group, pk, secret, card, {"parking": 1}, responses, rng
    )
    assert secret.counts == {"adult": 2, "child": 3, "parking": 1}
    req = ext.client_redeem_ticket(group, secret, card)
    assert [(n, c) for n, c, _ in req.slots] == [
        ("adult", 2),
        ("child", 3),
        ("parking", 1),
    ]
    assert ext.server_redeem_ticket(group, sk, req, db) is RedeemStatus.ACCEPT
    assert ext.server_redeem_ticket(group, sk, req, db) is RedeemStatus.DOUBLE_SPEND


def test_ticket_slots_match_oracle():
    toy = get_group("toy")
    rng = random.Random(117)
    sk, pk = core.server_setup(toy, rng)
    secret, card = ext.issue_ticket(toy, ["a", "b"], rng)
    plan = {"a": 3, "b": 1}
    responses = ext.server_punch_ticket(toy, sk, pk, card, plan, rng=rng)
    secret, card = ext.client_punch_ticket(toy, pk, secret, card, plan, responses, rng)
    for name, punches in (("a", 3), ("b", 1)):
        base = toy.hash_to_group(ext.TAG_TICKET_PREFIX + name, secret.u)
        want = (
            toy.dlog(base)
            * pow(sk, punches, toy.order)
            % toy.order
            * secret.masks[name]
            % toy.order
        )
        assert toy.dlog(card.slots[name]) == want


def test_ticket_slot_tags_are_independent(group):
    """The same u under different slot names gives unrelated bases, so an
    inflated count on one slot cannot be covered by another slot's value."""
    rng = random.Random(118)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    secret, card = ext.issue_ticket(group, ["a", "b"], rng)
    responses = ext.server_punch_ticket(group, sk, pk, card, {"a": 2}, rng=rng)
    secret, card = ext.client_punch_ticket(group, pk, secret, card, {"a": 2}, responses, rng)
    req = ext.client_redeem_ticket(group, secret, card)
    swapped = ext.TicketRedeemRequest(
        u=req.u, slots=[(n, {"a": 0, "b": 2}[n], e) for n, _, e in req.slots]
    )
    assert ext.server_redeem_ticket(group, sk, swapped, db) is RedeemStatus.BAD_CARD
    assert ext.server_redeem_ticket(group, sk, req, db) is RedeemStatus.ACCEPT


def test_ticket_redemption_naming_a_slot_twice_is_bad_card(group):
    """A slot listed twice would count its punches twice; the request is
    refused before anything is spent."""
    rng = random.Random(121)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    secret, card = ext.issue_ticket(group, ["adult", "child"], rng)
    responses = ext.server_punch_ticket(group, sk, pk, card, {"adult": 3}, rng=rng)
    secret, card = ext.client_punch_ticket(
        group, pk, secret, card, {"adult": 3}, responses, rng
    )
    req = ext.client_redeem_ticket(group, secret, card)
    adult = next(slot for slot in req.slots if slot[0] == "adult")
    doubled = ext.TicketRedeemRequest(u=req.u, slots=[adult, adult])
    assert ext.server_redeem_ticket(group, sk, doubled, db) is RedeemStatus.BAD_CARD
    assert req.u not in db
    assert ext.server_redeem_ticket(group, sk, req, db) is RedeemStatus.ACCEPT


def test_ticket_rejects_duplicate_slot_names(group):
    with pytest.raises(ValueError):
        ext.issue_ticket(group, ["a", "a"], random.Random(119))


def test_ticket_unknown_slot_raises(group):
    rng = random.Random(120)
    sk, pk = core.server_setup(group, rng)
    secret, card = ext.issue_ticket(group, ["a"], rng)
    with pytest.raises(ValueError):
        ext.server_punch_ticket(group, sk, pk, card, {"nope": 1}, rng=rng)
    resp = ext.server_punch_ticket(group, sk, pk, card, {"a": 1}, rng=rng)
    with pytest.raises(ProofRejected):
        ext.client_punch_ticket(group, pk, secret, card, {"nope": 1}, {"nope": resp["a"]}, rng)


def test_ticket_chain_of_another_length_rejected(group):
    """A slot is credited the count the wallet asked for, never the length
    of the server's chain: a chain one step longer or shorter than asked is
    refused, and so is a reply that leaves out or adds a slot."""
    rng = random.Random(122)
    sk, pk = core.server_setup(group, rng)
    secret, card = ext.issue_ticket(group, ["a", "b"], rng)
    asked = {"a": 3, "b": 1}
    for served in ({"a": 4, "b": 1}, {"a": 2, "b": 1}, {"a": 3}, {"a": 3, "b": 1, "c": 1}):
        plan = {name: t for name, t in served.items() if name in card.slots}
        responses = ext.server_punch_ticket(group, sk, pk, card, plan, rng=rng)
        if "c" in served:
            responses["c"] = responses["b"]
        with pytest.raises(ProofRejected):
            ext.client_punch_ticket(group, pk, secret, card, asked, responses, rng)
    responses = ext.server_punch_ticket(group, sk, pk, card, asked, rng=rng)
    secret, card = ext.client_punch_ticket(group, pk, secret, card, asked, responses, rng)
    assert secret.counts == asked


def test_ticket_inflated_count_rejected(group):
    rng = random.Random(121)
    sk, pk = core.server_setup(group, rng)
    db = RedeemDb()
    secret, card = ext.issue_ticket(group, ["a"], rng)
    responses = ext.server_punch_ticket(group, sk, pk, card, {"a": 1}, rng=rng)
    secret, card = ext.client_punch_ticket(group, pk, secret, card, {"a": 1}, responses, rng)
    req = ext.client_redeem_ticket(group, secret, card)
    inflated = ext.TicketRedeemRequest(
        u=req.u, slots=[(n, c + 1, e) for n, c, e in req.slots]
    )
    assert ext.server_redeem_ticket(group, sk, inflated, db) is RedeemStatus.BAD_CARD
