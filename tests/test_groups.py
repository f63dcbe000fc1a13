import contextlib
import ctypes
import ctypes.util
import os
import random
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from punchcard import core, dleq, extensions, mergeable
from punchcard.errors import InvalidEncoding, ZeroInverse
from punchcard.groups import base, get_group, get_pairing, ristretto
from punchcard.groups.base import tagged, wide_hash
from punchcard.groups.bls import fields, gmp
from punchcard.groups.ristretto import RistrettoGroup
from punchcard.groups.toy import SchnorrGroup, ToyPairing

TAG = "punchcard/h2g/v1/main"


# --- tagged hashing -------------------------------------------------------


def test_tagged_is_injective_across_tag_boundary():
    assert tagged("ab", b"c") != tagged("a", b"bc")


def test_tagged_rejects_bad_tag_lengths():
    with pytest.raises(ValueError):
        tagged("x" * 256, b"")
    with pytest.raises(ValueError):
        tagged("", b"data")


def test_wide_hash_is_sha512_sized():
    assert len(wide_hash("t", b"data")) == 64


# --- generic group contract, run on both production and toy ----------------


@pytest.fixture(
    params=[
        "toy",
        "ristretto255",
        "ristretto255-python",
        "bls12-381-g0",
        "bls12-381-g1",
    ]
)
def group(request):
    if request.param.startswith("bls12-381-"):
        pairing = get_pairing("bls12-381")
        return {g.name: g for g in (pairing.g0, pairing.g1)}[request.param]
    if request.param == "ristretto255-python":
        return RistrettoGroup(backend="python")
    return get_group(request.param)


# each group's identity element, written out
IDENTITY = {
    "toy": 1,
    "ristretto255": bytes(32),
    "bls12-381-g0": None,
    "bls12-381-g1": None,
}


def test_identity_round_trip(group):
    e = IDENTITY[group.name]
    g = group.generator()
    assert group.mul(e, e) == e and group.mul(e, g) == g == group.mul(g, e)
    assert group.decode_element(group.encode_element(e)) == e


def test_generator_encode_decode(group):
    g = group.generator()
    data = group.encode_element(g)
    assert len(data) == group.element_size
    assert group.decode_element(data) == g


def test_an_encoding_that_decodes_is_canonical(group):
    """Each element has one byte form, so == on elements is group
    equality: among a few elements' encodings and every one-bit flip of
    them, whatever decodes re-encodes to the same bytes after a group
    operation."""
    decoded = 0
    for k in (0, 5):
        good = group.encode_element(group.exp_base(k))
        for bit in range(-1, 8 * len(good)):
            blob = bytearray(good)
            if bit >= 0:
                blob[bit // 8] ^= 1 << (bit % 8)
            try:
                e = group.decode_element(bytes(blob))
            except InvalidEncoding:
                continue
            decoded += 1
            assert group.encode_element(group.exp(e, 1)) == blob, (k, bit)
    assert decoded >= 2


def test_exp_matches_repeated_mul(group):
    g = group.generator()
    acc = IDENTITY[group.name]
    for k in range(8):
        assert acc == group.exp(g, k)
        acc = group.mul(acc, g)


def test_exp_mod_order(group):
    g = group.generator()
    k = 123456789
    assert group.exp(g, k) == group.exp(g, k % group.order)
    assert group.exp(g, group.order) == IDENTITY[group.name]
    assert group.exp(g, 0) == IDENTITY[group.name]


def test_exponent_arithmetic(group):
    rng = random.Random(11)
    g = group.generator()
    for _ in range(20):
        a = group.random_scalar(rng)
        b = group.random_scalar(rng)
        left = group.exp(group.exp(g, a), b)
        right = group.exp(g, a * b % group.order)
        assert left == right


def test_invert_scalar(group):
    rng = random.Random(12)
    for _ in range(20):
        k = group.random_scalar(rng)
        assert k * group.invert_scalar(k) % group.order == 1
    with pytest.raises(ZeroInverse):
        group.invert_scalar(0)
    with pytest.raises(ZeroInverse):
        group.invert_scalar(group.order)


def test_random_scalar_range_and_spread(group):
    rng = random.Random(13)
    seen = {group.random_scalar(rng) for _ in range(200)}
    assert all(1 <= k < group.order for k in seen)
    assert len(seen) > 150  # tiny toy order still leaves plenty of room


def test_scalar_encoding_round_trip(group):
    rng = random.Random(14)
    for _ in range(20):
        k = group.random_scalar(rng)
        data = group.encode_scalar(k)
        assert len(data) == group.scalar_size
        assert group.decode_scalar(data) == k


def test_scalar_decode_never_yields_the_order(group):
    # fixed-width encodings: the order itself is never canonical
    for byte_order in ("little", "big"):
        blob = group.order.to_bytes(group.scalar_size, byte_order)
        try:
            decoded = group.decode_scalar(blob)
        except InvalidEncoding:
            continue
        assert decoded != group.order


def test_hash_to_group_deterministic_and_tag_separated(group):
    a = group.hash_to_group(TAG, b"u")
    assert a == group.hash_to_group(TAG, b"u")
    assert a != group.hash_to_group(TAG, b"v")
    assert a != group.hash_to_group(TAG + "x", b"u")
    assert a != IDENTITY[group.name]


def test_hash_to_scalar_range(group):
    rng = random.Random(15)
    for _ in range(50):
        s = group.hash_to_scalar(TAG, rng.randbytes(16))
        assert 0 <= s < group.order


def test_decode_element_rejects_wrong_length(group):
    with pytest.raises(InvalidEncoding):
        group.decode_element(b"\x00" * (group.element_size + 1))
    with pytest.raises(InvalidEncoding):
        group.decode_element(b"")


# --- toy group: everything is checkable by discrete log ---------------------


def test_toy_membership_rejects_non_subgroup():
    toy = get_group("toy")
    # 7 and -1 are quadratic non-residues mod 2039, hence outside the
    # prime-order subgroup
    for outsider in (7, 2038, 0, 2039):
        with pytest.raises(InvalidEncoding):
            toy.decode_element(outsider.to_bytes(4, "little"))


def test_registry_refuses_the_other_kinds_names_and_shares_instances():
    with pytest.raises(ValueError, match="unknown group 'bls12-381'"):
        get_group("bls12-381")
    with pytest.raises(ValueError, match="unknown pairing 'toy'"):
        get_pairing("toy")
    with pytest.raises(ValueError, match="unknown group 'nonsense'"):
        get_group("nonsense")
    assert get_group("toy") is get_group("toy")
    assert get_group("ristretto255") is get_group("ristretto255")
    assert get_pairing("toy-pairing") is get_pairing("toy-pairing")


def test_toy_frozen_values():
    toy = get_group("toy")
    assert toy.order == 1019
    assert toy.generator() == 4
    assert toy.exp(toy.generator(), 100) == 1153
    assert toy.hash_to_group("tag", b"abc") == 279
    assert toy.dlog(toy.hash_to_group("tag", b"abc")) == 240


def test_toy_dlog_inverts_exp():
    toy = get_group("toy")
    rng = random.Random(16)
    for _ in range(20):
        k = toy.random_scalar(rng)
        assert toy.dlog(toy.exp(toy.generator(), k)) == k


def test_toy_pairing_bilinear_by_dlog():
    tp = get_pairing("toy-pairing")
    rng = random.Random(17)
    for _ in range(20):
        a = tp.g0.random_scalar(rng)
        b = tp.g1.random_scalar(rng)
        lhs = tp.pair(tp.g0.exp(tp.g0.generator(), a), tp.g1.exp(tp.g1.generator(), b))
        rhs = tp.gt.exp(tp.gt.generator(), a * b % tp.order)
        assert lhs == rhs
    assert tp.pair(tp.g0.generator(), tp.g1.generator()) == 19557


def test_toy_groups_are_distinct_primes():
    tp = get_pairing("toy-pairing")
    assert tp.g0.order == tp.g1.order == tp.gt.order == 1019
    moduli = {tp.g0.modulus, tp.g1.modulus, tp.gt.modulus}
    assert len(moduli) == 3


# --- ristretto255 specifics -------------------------------------------------


BASEPOINT_HEX = "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76"
FROZEN_MULTIPLES = {
    2: "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    7: "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    12345: "b4c1b3cdef7ba1bd94fa95c7b736622046ef663285813c2293c52c5f4f9fb011",
}
# reference vectors for the 64-byte uniform map
MAP_VECTORS = [
    (
        "5d1be09e3d0c82fc538112490e35701979d99e06ca3e2b5b54bffe8b4dc772c1"
        "4d98b696a1bbfb5ca32c436cc61c16563790306c79eaca7705668b47dffe5bb6",
        "3066f82a1a747d45120d1740f14358531a8f04bbffe6a819f86dfe50f44a0a46",
    ),
    (
        "f116b34b8f17ceb56e8732a60d913dd10cce47a6d53bee9204be8b44f6678b27"
        "0102a56902e2488c46120e9276cfe54638286b9e4b3cdb470b542d46c2068d38",
        "f26e5b6f7d362d2d2a94c5d0e7602cb4773c95a2e5c31a64f133189fa76ed61b",
    ),
    (
        "8422e1bbdaab52938b81fd602effb6f89110e1e57208ad12d9ad767e2e25510c"
        "27140775f9337088b982d83d7fcf0b2fa1edffe51952cbe7365e95c86eaf325c",
        "006ccd2a9e6867e6a2c5cea83d3302cc9de128dd2a9a57dd8ee7b9d7ffe02826",
    ),
]


def _both_backends():
    backends = [RistrettoGroup(backend="python")]
    try:
        backends.insert(0, RistrettoGroup(backend="sodium"))
    except Exception:
        pass
    return backends


def test_ristretto_basepoint_frozen():
    for g in _both_backends():
        assert g.encode_element(g.generator()).hex() == BASEPOINT_HEX
        for k, want in FROZEN_MULTIPLES.items():
            assert g.exp(g.generator(), k).hex() == want


def test_ristretto_uniform_map_vectors():
    for g in _both_backends():
        for hin, want in MAP_VECTORS:
            assert g.element_from_uniform(bytes.fromhex(hin)).hex() == want


def test_ristretto_backends_agree():
    backends = _both_backends()
    if len(backends) < 2:
        pytest.skip("libsodium not available")
    sod, py = backends
    rng = random.Random(18)
    for _ in range(50):
        k = sod.random_scalar(rng)
        m = rng.randbytes(24)
        assert sod.exp(sod.generator(), k) == py.exp(py.generator(), k)
        assert sod.hash_to_group(TAG, m) == py.hash_to_group(TAG, m)
    a = sod.exp(sod.generator(), 3)
    b = sod.exp(sod.generator(), 9)
    assert sod.mul(a, b) == py.mul(a, b)


def _with_bit_255(blob: bytes) -> bytes:
    return blob[:31] + bytes([blob[31] | 0x80])


def test_ristretto_rejects_non_canonical():
    g = get_group("ristretto255")
    bad = [
        b"\x01" + b"\x00" * 31,  # 1 is not a field encoding of an element
        b"\xff" * 32,  # >= p
        bytes.fromhex(
            "f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
        ),  # p - 12, negative s
        # elements, the identity among them, with bit 255 set (s >= p):
        # libsodium 1.0.18 masks that bit off, which would give every
        # element a second byte form
        *(_with_bit_255(g.exp_base(k)) for k in (0, 1, 7)),
    ]
    for g in _both_backends():
        for blob in bad:
            with pytest.raises(InvalidEncoding):
                g.decode_element(blob)


def test_ristretto_scalar_decode_strict():
    g = get_group("ristretto255")
    order_bytes = g.order.to_bytes(32, "little")
    with pytest.raises(InvalidEncoding):
        g.decode_scalar(order_bytes)
    assert g.decode_scalar((1).to_bytes(32, "little")) == 1


def test_ristretto_exp_identity_short_circuits():
    e = bytes(32)
    for g in _both_backends():
        assert g.exp(e, 5) == e
        assert g.exp(g.generator(), 0) == e
        assert g.mul(e, e) == e


def test_ristretto_hash_to_group_avoids_identity():
    g = get_group("ristretto255")
    rng = random.Random(19)
    for _ in range(100):
        assert g.hash_to_group(TAG, rng.randbytes(32)) != bytes(32)


def test_ristretto_backends_agree_on_decoding():
    """The two backends accept exactly the same 32-byte strings: random
    ones, and every one-bit flip of the encodings of k*B for k = 1..100."""
    backends = _both_backends()
    if len(backends) < 2:
        pytest.skip("libsodium not available")
    sod, py = (g._backend for g in backends)
    rng = random.Random(1)
    blobs = [rng.randbytes(32) for _ in range(20_000)]
    for k in range(1, 101):
        good = int.from_bytes(sod.exp_base(k), "little")
        blobs += [(good ^ (1 << bit)).to_bytes(32, "little") for bit in range(256)]
    accepted = [py.is_valid(b) for b in blobs]
    assert [sod.is_valid(b) for b in blobs] == accepted
    assert sum(accepted[:20_000]) > 1000


def test_python_ladder_adds_on_every_nibble(monkeypatch):
    """The pure-Python ladder adds its table entry for every nibble of the
    scalar, window[0] (the identity) for a zero one: 14 additions build the
    table and 64 run the ladder, whatever the scalar. Its outputs stay
    those of the sodium backend where that is present."""
    py = RistrettoGroup(backend="python")
    sodium = _both_backends()[0]
    calls = []
    add = ristretto._add
    monkeypatch.setattr(ristretto, "_add", lambda p, q: calls.append(1) or add(p, q))
    sparse, dense = 2**200 + 1, 2**252 - 1
    for k in (1, 2, ristretto.L - 1, 2**252, sparse, dense):
        calls.clear()
        out = py.exp(py.generator(), k)
        assert len(calls) == 78, k
        assert out == sodium.exp(sodium.generator(), k)


# --- loading libsodium and libgmp -------------------------------------------


def _loads(soname):
    try:
        ctypes.CDLL(soname)
        return True
    except OSError:
        return False


needs_sonames = pytest.mark.skipif(
    not (any(map(_loads, ristretto.SONAMES)) and all(map(_loads, gmp.SONAMES))),
    reason=f"libsodium {ristretto.SONAMES} or libgmp {gmp.SONAMES} does not load by "
    "soname, so the loader looks it up through ctypes.util, which imports subprocess",
)

_START_SCRIPT = """
import os, sys
from punchcard import cli
from punchcard.service import Config, ServerHandle
from punchcard.wallet import Wallet
for scheme in ("main", "mergeable"):
    cfg = Config(state_dir=os.path.join(sys.argv[1], scheme), scheme=scheme, listen_port=0)
    ServerHandle(cfg).start().shutdown()
assert Wallet(os.path.join(sys.argv[1], "wallet")).scheme.params.kernel == "sodium"
print(sorted({"subprocess", "ctypes.util"} & set(sys.modules)))
"""


@needs_sonames
def test_starts_import_no_subprocess(tmp_path):
    """A server of each scheme and a main-scheme wallet load their native
    libraries by soname: ctypes.util, which runs ldconfig in a child
    process, is never imported, and neither is subprocess."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _START_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@needs_sonames
def test_libraries_load_where_find_library_finds_none(monkeypatch):
    """A host without ldconfig, gcc or ld: find_library finds nothing, and
    the sonames still load."""
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    monkeypatch.setattr(fields, "gmpy2", None)
    assert RistrettoGroup().kernel == "sodium"
    assert fields.select_kernel().name == "libgmp"


def test_loader_asks_find_library_only_when_no_soname_serves(monkeypatch):
    opened, asked = [], []

    def cdll(name):
        opened.append(name)
        if name == "/lib/libx.so":
            return types.SimpleNamespace(fn=lambda: 7)
        if name == "libx.so.0":
            return types.SimpleNamespace()  # loads, but lacks fn
        raise OSError(f"{name}: cannot open shared object file")

    def find_library(name):
        asked.append(name)
        return found

    def bind(lib):
        return lib.fn()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library", find_library)
    found = "/lib/libx.so"
    assert base.load_library(("libx.so.1", "libx.so.0"), "x", bind) == 7
    assert (opened, asked) == (["libx.so.1", "libx.so.0", "/lib/libx.so"], ["x"])
    del opened[:], asked[:]
    assert base.load_library(("/lib/libx.so", "libx.so.1"), "x", bind) == 7
    assert (opened, asked) == (["/lib/libx.so"], [])
    del opened[:], asked[:]
    found = None  # and CDLL(None) would open the running program itself
    assert base.load_library(("libx.so.1",), "x", bind) is None
    assert (opened, asked) == (["libx.so.1"], ["x"])


def test_ristretto_backend_is_python_when_no_library_loads(monkeypatch):
    def refuse(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "/lib/libsodium.so")
    assert RistrettoGroup().kernel == "python"
    with pytest.raises(RuntimeError):
        RistrettoGroup(backend="sodium")


SODIUM_FUNCTIONS = (
    "crypto_core_ristretto255_is_valid_point",
    "crypto_core_ristretto255_from_hash",
    "crypto_core_ristretto255_add",
    "crypto_scalarmult_ristretto255",
    "crypto_scalarmult_ristretto255_base",
)


@pytest.mark.parametrize("missing", [None, *SODIUM_FUNCTIONS])
def test_libsodium_without_a_ristretto255_function_is_not_used(monkeypatch, missing):
    """libsodium before 1.0.18 has no ristretto255."""
    lib = types.SimpleNamespace(sodium_init=lambda: 0)
    for fn in SODIUM_FUNCTIONS:
        if fn != missing:
            setattr(lib, fn, lambda *args: 0)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    assert RistrettoGroup().kernel == ("sodium" if missing is None else "python")


# --- fixed message layouts, each read by groups.base.unpack -----------------


def _layouts(backend, rng):
    """(params, message, decoder) for every fixed layout on the backend:
    the main scheme's on a group, the mergeable scheme's on a pairing."""
    if backend == "toy-pairing":
        pg = get_pairing(backend)
        sk, pk = mergeable.server_setup(pg, rng)
        (sa, ca), (sb, cb) = mergeable.issue(pg, rng), mergeable.issue(pg, rng)
        punch = mergeable.server_punch(pg, sk, pk, ca, rng)
        redeem = mergeable.client_merge_redeem(pg, sa, ca, sb, cb)
        return [
            (pg, ca, mergeable.MergeCard.from_bytes),
            (pg, pk, mergeable.MergeCard.from_bytes),
            (pg, punch, mergeable.MergePunchResponse.from_bytes),
            (pg, redeem, mergeable.MergeRedeemRequest.from_bytes),
        ]
    g = get_group(backend)
    sk, pk = core.server_setup(g, rng)
    secret, card = core.issue(g, rng)
    punch = core.server_punch(g, sk, pk, card, rng)
    multi = extensions.server_multi_punch(g, sk, pk, card, rng.randint(1, 3), rng=rng)
    return [
        (g, punch.proof, dleq.proof_from_bytes),
        (g, punch, core.PunchResponse.from_bytes),
        (g, core.client_redeem(g, secret, card), core.RedeemRequest.from_bytes),
        (g, multi, extensions.MultiPunchResponse.from_bytes),
    ]


@contextlib.contextmanager
def _counting_decoders(groups):
    """Count calls to each group's decode_element and decode_scalar."""
    calls = []

    def counting(name, decode):
        def wrapper(data):
            calls.append(name)
            return decode(data)

        return wrapper

    for g in groups:
        for name in ("decode_element", "decode_scalar"):
            setattr(g, name, counting(name, getattr(g, name)))
    try:
        yield calls
    finally:
        for g in groups:
            del g.decode_element, g.decode_scalar


@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(["toy", "toy-pairing", "ristretto255"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_layouts_round_trip_and_check_length_before_any_decode(backend, seed, data):
    """Every layout decodes its own encoding back to the same bytes; any
    other length raises InvalidEncoding before a single element or scalar
    is decoded, so a refusal for length costs no group work."""
    rng = random.Random(seed)
    for params, message, decode in _layouts(backend, rng):
        raw = message.to_bytes(params)
        assert decode(params, raw).to_bytes(params) == raw
        size = data.draw(st.integers(0, len(raw) + 8).filter(lambda n: n != len(raw)))
        bad = (raw + rng.randbytes(8))[:size]  # keeps a multi-punch count byte
        pairing = backend == "toy-pairing"
        groups = (params.g0, params.g1, params.gt) if pairing else (params,)
        with _counting_decoders(groups) as calls:
            with pytest.raises(InvalidEncoding):
                decode(params, bad)
        assert calls == []
