"""The pairing stack has no external reference implementation available
here, so it is checked three ways: algebraic identities that pin the tower
and curve constants (they run at import), bilinearity/non-degeneracy of the
pairing itself, and a literal pow()-based final exponentiation as an
independent oracle for the optimized chain. The generators' encodings are
pinned to the published Zcash serialization, the one external anchor."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from punchcard import core, extensions, mergeable
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.errors import InvalidEncoding
from punchcard.groups import RistrettoGroup, get_pairing
from punchcard.groups.bls import fields
from punchcard.groups.bls.curve import (
    B1,
    B2,
    G1_GEN,
    G2_GEN,
    _field_candidate,
    curve_g1,
    curve_g2,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    hash_to_g1,
    hash_to_g2,
    in_subgroup_g1,
    in_subgroup_g2,
)
from punchcard.groups.bls.fields import fq_sqrt
from punchcard.groups.bls.pairing import _easy_part, _miller_loop, final_exp

N = int(fields.N)
P = int(fields.P)
TAG = "punchcard/h2g/v1/merge-g0"


def final_exp_slow(f):
    """Oracle: the hard part as one literal exponentiation (cube root of
    final_exp's output exponent)."""
    return fields.f12_pow(_easy_part(f), (P**4 - P**2 + 1) // N)


def _rand_f2(rng):
    return (rng.randrange(P), rng.randrange(P))


def _rand_f12(rng):
    return (
        (_rand_f2(rng), _rand_f2(rng), _rand_f2(rng)),
        (_rand_f2(rng), _rand_f2(rng), _rand_f2(rng)),
    )


@pytest.fixture(scope="module")
def bls():
    return get_pairing("bls12-381")


# --- field tower ------------------------------------------------------------


def test_fq2_mul_matches_schoolbook():
    rng = random.Random(21)
    for _ in range(50):
        a = _rand_f2(rng)
        b = _rand_f2(rng)
        got = fields.f2_mul(a, b)
        want = (
            (a[0] * b[0] - a[1] * b[1]) % P,
            (a[0] * b[1] + a[1] * b[0]) % P,
        )
        assert (int(got[0]) % P, int(got[1]) % P) == want


def test_fq12_mul_inverse_round_trip():
    rng = random.Random(22)
    for _ in range(10):
        x = _rand_f12(rng)
        assert fields.f12_mul(x, fields.f12_inv(x)) == fields.F12_ONE


def test_fq12_pow_agrees_with_repeated_mul():
    rng = random.Random(23)
    x = _rand_f12(rng)
    acc = fields.F12_ONE
    for k in range(6):
        assert fields.f12_pow(x, k) == acc
        acc = fields.f12_mul(acc, x)


def test_frobenius_is_p_power():
    rng = random.Random(24)
    x = _rand_f12(rng)
    assert fields.f12_frob(x) == fields.f12_pow(x, P)
    assert fields.f12_frob2(x) == fields.f12_pow(x, P * P)


def test_f12_flat_round_trip():
    # flat form: six Fq2 coefficients ordered by power of w
    rng = random.Random(31)
    x = _rand_f12(rng)
    flat = fields.f12_to_flat(x)
    assert len(flat) == 6
    even, odd = flat[0::2], flat[1::2]  # the two Fq6 limbs, in order
    assert (tuple(even), tuple(odd)) == x


# --- curve and serialization -------------------------------------------------


def test_generators_have_group_order():
    assert curve_g1.mul(G1_GEN, N) is None
    assert curve_g2.mul(G2_GEN, N) is None
    assert in_subgroup_g1(G1_GEN)
    assert in_subgroup_g2(G2_GEN)


def test_generators_encode_as_the_zcash_serialization():
    """External anchors: the standard compressed G1 and G2 generators of
    the Zcash BLS12-381 serialization, which this code did not produce."""
    assert g1_to_bytes(G1_GEN).hex() == (
        "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
        "6c55e83ff97a1aeffb3af00adb22c6bb"
    )
    assert g2_to_bytes(G2_GEN).hex() == (
        "93e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049"
        "334cf11213945d57e5ac7d055d042b7e024aa2b2f08f0a91260805272dc51051"
        "c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"
    )


def test_add_double_consistency():
    rng = random.Random(32)
    for curve, gen in ((curve_g1, G1_GEN), (curve_g2, G2_GEN)):
        a = curve.mul(gen, rng.randrange(2, 1000))
        assert curve.add(a, a) == curve.double(a)
        assert curve.add(a, None) == a
        assert curve.add(a, curve.neg(a)) is None
        two_a = curve.double(a)
        three_a = curve.add(two_a, a)
        assert three_a == curve.mul(a, 3)


def test_g1_serialization_round_trip():
    rng = random.Random(25)
    for _ in range(10):
        pt = curve_g1.mul(G1_GEN, rng.randrange(1, N))
        blob = g1_to_bytes(pt)
        assert len(blob) == 48
        assert g1_to_bytes(g1_from_bytes(blob)) == blob


def test_g2_serialization_round_trip():
    rng = random.Random(26)
    for _ in range(10):
        pt = curve_g2.mul(G2_GEN, rng.randrange(1, N))
        blob = g2_to_bytes(pt)
        assert len(blob) == 96
        assert g2_to_bytes(g2_from_bytes(blob)) == blob


def test_infinity_encoding():
    inf1 = g1_to_bytes(None)
    assert inf1[0] == 0xC0 and set(inf1[1:]) == {0}
    assert g1_from_bytes(inf1) is None
    inf2 = g2_to_bytes(None)
    assert inf2[0] == 0xC0 and set(inf2[1:]) == {0}
    assert g2_from_bytes(inf2) is None


def test_g1_decode_never_confuses_points():
    pt = curve_g1.mul(G1_GEN, 777)
    blob = g1_to_bytes(pt)
    rng = random.Random(27)
    rejected = 0
    for _ in range(60):
        i = rng.randrange(48)
        mutant = (
            blob[:i] + bytes([blob[i] ^ (1 + rng.randrange(255))]) + blob[i + 1 :]
        )
        try:
            decoded = g1_from_bytes(mutant)
        except InvalidEncoding:
            rejected += 1
            continue
        # a flip may land on another valid encoding, never this point
        assert g1_to_bytes(decoded) != blob
    assert rejected > 0


def _codec_inputs(size, encode, c, gen):
    """Arbitrary strings of the encoding's size, encodings of subgroup
    points, and those encodings with one byte flipped."""
    points = st.integers(0, N - 1).map(lambda k: encode(c.mul(gen, k)))
    flipped = st.tuples(points, st.integers(0, size - 1), st.integers(1, 255)).map(
        lambda t: t[0][: t[1]] + bytes([t[0][t[1]] ^ t[2]]) + t[0][t[1] + 1 :]
    )
    return st.one_of(st.binary(min_size=size, max_size=size), points, flipped)


@pytest.mark.parametrize(
    "size, decode, encode, c, gen",
    [
        (48, g1_from_bytes, g1_to_bytes, curve_g1, G1_GEN),
        (96, g2_from_bytes, g2_to_bytes, curve_g2, G2_GEN),
    ],
    ids=["g1", "g2"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decode_accepts_only_what_it_would_encode(size, decode, encode, c, gen, data):
    """Every accepted string is the canonical encoding of what it decodes
    to."""
    blob = data.draw(_codec_inputs(size, encode, c, gen))
    try:
        pt = decode(blob)
    except InvalidEncoding:
        return
    assert encode(pt) == blob
    assert c.is_on_curve(pt)


def _curve_point_outside_subgroup():
    msg = b"\x07outside" + b"probe"
    for ctr in range(256):
        x = _field_candidate(msg, ctr, 0)
        try:
            y = fq_sqrt((x * x % fields.P * x + B1) % fields.P)
        except ValueError:
            continue
        pt = (x, y)
        if curve_g1.is_on_curve(pt) and not in_subgroup_g1(pt):
            return pt
    raise AssertionError("no point found outside the subgroup")


def test_g1_decode_rejects_non_subgroup_point():
    pt = _curve_point_outside_subgroup()
    blob = g1_to_bytes(pt)
    with pytest.raises(InvalidEncoding):
        g1_from_bytes(blob)


def _twist_point_outside_subgroup():
    msg = b"\x07outside" + b"probe"
    for ctr in range(256):
        x = (_field_candidate(msg, ctr, 0), _field_candidate(msg, ctr, 1))
        try:
            y = fields.f2_sqrt(fields.f2_add(fields.f2_mul(fields.f2_sqr(x), x), B2))
        except ValueError:
            continue
        pt = (x, y)
        if curve_g2.is_on_curve(pt) and not in_subgroup_g2(pt):
            return pt
    raise AssertionError("no point found outside the subgroup")


def test_g2_decode_rejects_non_subgroup_point():
    pt = _twist_point_outside_subgroup()
    blob = g2_to_bytes(pt)
    with pytest.raises(InvalidEncoding):
        g2_from_bytes(blob)


def test_hash_to_curve_deterministic_and_separated():
    a = hash_to_g1(TAG, b"payload")
    assert a == hash_to_g1(TAG, b"payload")
    assert a != hash_to_g1(TAG, b"payloae")
    assert a != hash_to_g1(TAG + "x", b"payload")
    assert in_subgroup_g1(a)
    b = hash_to_g2(TAG, b"payload")
    assert b == hash_to_g2(TAG, b"payload")
    assert in_subgroup_g2(b)


def test_hash_to_curve_spreads():
    seen = set()
    for i in range(30):
        seen.add(g1_to_bytes(hash_to_g1(TAG, i.to_bytes(4, "big"))))
    assert len(seen) == 30


# --- pairing ------------------------------------------------------------------


def test_pairing_bilinear(bls):
    rng = random.Random(28)
    a = rng.randrange(1, N)
    b = rng.randrange(1, N)
    g0, g1 = bls.g0, bls.g1
    lhs = bls.pair(g0.exp(g0.generator(), a), g1.exp(g1.generator(), b))
    rhs = fields.f12_pow(bls.pair(g0.generator(), g1.generator()), a * b % N)
    assert lhs == rhs
    lhs2 = bls.pair(g0.exp(g0.generator(), b), g1.exp(g1.generator(), a))
    assert lhs == lhs2


def test_pairing_non_degenerate(bls):
    e = bls.pair(bls.g0.generator(), bls.g1.generator())
    assert e != fields.F12_ONE
    assert fields.f12_pow(e, N) == fields.F12_ONE


def test_pairing_identity_absorbing(bls):
    one = fields.F12_ONE
    assert bls.pair(None, bls.g1.generator()) == one
    assert bls.pair(bls.g0.generator(), None) == one


def test_final_exp_oracle():
    """The optimized chain computes the cube of the naive exponentiation
    (an artifact of the addition chain; harmless since 3 is coprime to the
    group order). Pin exactly that relation against literal pow()."""
    rng = random.Random(29)
    p_pt = curve_g1.mul(G1_GEN, rng.randrange(1, N))
    q_pt = curve_g2.mul(G2_GEN, rng.randrange(1, N))
    f = _miller_loop(p_pt, q_pt)
    fast = final_exp(f)
    slow = final_exp_slow(f)
    assert fast == fields.f12_mul(fields.f12_mul(slow, slow), slow)


def test_gt_serialization(bls):
    gt = bls.gt
    e = bls.pair(bls.g0.generator(), bls.g1.generator())
    blob = gt.encode_element(e)
    assert len(blob) == 576


def test_gt_exp_matches_pairing_structure(bls):
    rng = random.Random(30)
    k = rng.randrange(1, N)
    g0, g1 = bls.g0, bls.g1
    via_g0 = bls.pair(g0.exp(g0.generator(), k), g1.generator())
    via_gt = fields.f12_pow(bls.pair(g0.generator(), g1.generator()), k)
    assert via_g0 == via_gt


def test_g1_group_wrapper_rejects_identity_free_encodings(bls):
    g0 = bls.g0
    blob = g0.encode_element(None)
    assert g0.decode_element(blob) is None
    with pytest.raises(InvalidEncoding):
        g0.decode_element(b"\x00" * 48)


# --- pinned bytes -------------------------------------------------------------
# Computed on the plain double-and-add implementation before the endomorphism
# kernels existed; any change to hashing, scalar multiplication, the pairing
# or the wire encodings shows up here.

_H2G_PINS = [
    (
        b"",
        "a4f45c58e259321d2ea0c44bf8a1c16c5faf0a0701e1064fd1811d5924d1022f"
        "fb7bfdea9b2aaecbe7e163abe9eafabf",
        "a21fa4773786dc339b247542dc3fe4e56480197d1e8a2c2ef4ba1d90636ed8bc"
        "f586624d63fd019ad2d179ff2d7fe31b001345340758459c81a705563c2cff1d"
        "7ead7283e348d57c008f6916245c4269465af8734f8e0f7cef49dc0ead8e8372",
    ),
    (
        bytes(range(32)),
        "8d249e07712d5b41a064d27ddaac61ab9b01ac59f7cddc71332c015a70f1f058"
        "a816bfc4ed96d82d171bb3717895c942",
        "833beff7fdca14587311c1a8c434cae3d35670a985e1d9aea03514289eb0f2b1"
        "70b46f2d574436bdc5e6719471b2f77e0fd3a4759a53785545f4e0e6a0e6a607"
        "adbded708f1a064d6653ce7ad74aecf8e49bbe0238c44e3411e0f176040bfadd",
    ),
    (
        b"pinned card secret",
        "80d48632aa07cd588c8fdfdf8d454f1c742a4470bb7680d00a0268744874e781"
        "e0d0f971948ff893e83bb29059c6a220",
        "8513fa9352d73d51376234c4a187852386ace459a6b55e9cc5d50fd2bd459145"
        "e6d14b63dd8e053d3851547b80fc9c7b0a2563c42a3682ad967439c1d93b85b4"
        "277aec91b0f79ee2a8482d32a35704b09f0dbde9c34f738e60e93d8ed3d3ebf3",
    ),
]

_U = -fields.X_PARAM  # |x|
# k -> SHA-256 of (g0.exp(G1_GEN, k), g1.exp(G2_GEN, k)) encodings
_EXP_PINS = [
    (
        1,
        "7ccf478a431837728dcec3461f4f53b8749cdc4e03496dcaed459dea82b82eb8",
        "2b3d241f6151e67cff8f054ea755bb72757b360f1a7754dd94af714b0cbf7f48",
    ),
    (
        2,
        "cbcf45213dd7b4716864d378f3c6d861467987e4d94b7f79a1f814a697e38637",
        "62504967d51e27745ae24eb2a0cab6e94d30905d3626a4281852b41bbc3a7d5f",
    ),
    (
        _U,
        "b614f5666315f892a3b984e63be87e962431c5c979dfc6b95deea51b82c56d49",
        "f15629149e9e85556644a60d41f9f14175dd738cbed91034d29e7f997223c729",
    ),
    (
        N - 1,
        "d1466f7b14f0722bd581cf49418cd43fa8f085ce16e09cd3cdf65b3dfbbcb8c0",
        "a977c3f8d1d58ba4d69583951d29ce4256e305f00eadf467a8bd8e75f31d6c09",
    ),
    (
        0x538DBDCA52B53BF70D45EAB0E93D1969A62553A6123B482664AF29C28E0AF9B7,
        "0055fc3f3e71a68c76975c47dbe10d78b17692c1b5e9aa2ecba3fbce920d4833",
        "fcab2d653c315c5c0c19af5453869c57c4278550d79de60c37e2d69a5453b557",
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("data, g1_hex, g2_hex", _H2G_PINS)
def test_hash_to_curve_pinned(data, g1_hex, g2_hex):
    assert g1_to_bytes(hash_to_g1(mergeable.TAG_CARD_HASH_G0, data)).hex() == g1_hex
    assert g2_to_bytes(hash_to_g2(mergeable.TAG_CARD_HASH_G1, data)).hex() == g2_hex


@pytest.mark.parametrize("k, g1_sha, g2_sha", _EXP_PINS)
def test_generator_exp_pinned(bls, k, g1_sha, g2_sha):
    g0, g1 = bls.g0, bls.g1
    assert _sha256(g0.encode_element(g0.exp(g0.generator(), k))) == g1_sha
    assert _sha256(g1.encode_element(g1.exp(g1.generator(), k))) == g2_sha


def test_pairing_of_generators_pinned(bls):
    blob = bls.gt.encode_element(bls.pair(G1_GEN, G2_GEN))
    assert _sha256(blob) == (
        "4bb3f049849e856bd6879346f3978c28b031a407701c01ebb19d74a35c645520"
    )


def test_seeded_merge_flow_pinned(bls):
    rng = random.Random(2006)
    sk, pk = mergeable.server_setup(bls, rng)
    secret_a, card_a = mergeable.issue(bls, rng)
    resp = mergeable.server_punch(bls, sk, pk, card_a, rng)
    secret_a, card_a = mergeable.client_punch(bls, pk, secret_a, card_a, resp, rng)
    secret_b, card_b = mergeable.issue(bls, rng)
    req = mergeable.client_merge_redeem(bls, secret_a, card_a, secret_b, card_b)
    assert _sha256(resp.to_bytes(bls)) == (
        "a252a2f5bda31f5c6260dcfe88417a5b899787ceb48c651e1c7f6ae4a9d0e369"
    )
    assert _sha256(req.to_bytes(bls)) == (
        "018c39c32687a7c7cf1684d3812ec5f540ec5c075835b8fae77e872487616c6a"
    )
    status = mergeable.server_redeem(bls, sk, req, 1, RedeemDb())
    assert status is RedeemStatus.ACCEPT


def _ristretto(backend):
    try:
        return RistrettoGroup(backend=backend)
    except RuntimeError:
        pytest.skip("libsodium with ristretto255 not available")


@pytest.mark.parametrize("backend", ["python", "sodium"])
def test_seeded_main_punch_pinned(backend):
    """The main scheme's punch and t=3 multi-punch responses, nonces drawn
    from a seeded stream: any change to the proofs' arithmetic shows here."""
    group = _ristretto(backend)
    rng = random.Random(2006)
    sk, pk = core.server_setup(group, rng)
    _, card = core.issue(group, rng)
    resp = core.server_punch(group, sk, pk, card, rng).to_bytes(group)
    multi = extensions.server_multi_punch(group, sk, pk, card, 3, rng=rng)
    multi = multi.to_bytes(group)
    assert len(resp) == 128 and len(multi) == 385
    assert _sha256(resp) == (
        "022779d6f946d1a4f39ae5df2faa100e544cfd79894123c0a0edd5c026a6a37e"
    )
    assert _sha256(multi) == (
        "ee44da96b6fcd7c660c1ffe83756994066e9bc386c210e0720715950e70ff520"
    )
