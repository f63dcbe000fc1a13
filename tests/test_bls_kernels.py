"""The BLS12-381 kernels against slow oracles that need no curve structure.

Each fast path in curve.py has a slow twin: the subgroup checks against
multiplying by n, the psi cofactor clearing against multiplying by H2_EFF,
the GLV/GLS scalar multiplications and the fixed-base comb against
Curve.mul by k. Inputs cover random points outside the subgroup, torsion
points of every small prime order in the cofactors (found by trial
division below 10^6), subgroup points with such torsion added, and the
identity. The wNAF recoding is checked against the textbook one, and
exp_many against one exp per scalar. The pairing's projective Miller
loop is checked against the affine loop it replaced, its sparse and
compressed field kernels against the dense products, and the compressed
powers by |x| against f12_pow. Operation counts of the
pairing, the wNAF ladders and the comb are pinned by counting base-field
inversions.

The reduce-once field products and f2_sqrt are checked against the
reduce-after-every-operation versions they replaced, kept below as
references that share no code with fields.py. The Jacobian ladders are
checked against an affine double-and-add built only from Curve.add and
Curve.double, since Curve.mul runs the same Jacobian steps as the
ladders it would check; their step counts are pinned per scalar."""

import ctypes.util
import functools
import math
import operator
import random
import sys
import threading

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from punchcard import mergeable
from punchcard.errors import InvalidEncoding
from punchcard.groups import RistrettoGroup
from punchcard.groups.bls import BlsG0, BlsG1, Bls12381, curve, fields, gmp
from punchcard.groups.bls.curve import (
    B1,
    B2,
    COMB_TEETH,
    G1_GEN,
    G2_GEN,
    H1,
    H2_EFF,
    SPLITS,
    WNAF_TABLE,
    WNAF_WIDTH,
    FixedBaseComb,
    _U,
    _X2,
    clear_cofactor_g2,
    curve_g1,
    curve_g2,
    g1_to_bytes,
    g2_to_bytes,
    hash_to_g1,
    hash_to_g2,
    in_subgroup_g1,
    in_subgroup_g2,
    table_mul,
    tables,
    wnaf,
)
from punchcard.groups.bls.pairing import (
    _U_BITS,
    _easy_part,
    _exp_u,
    _miller_loop,
    final_exp,
    pairing,
)

N = int(fields.N)
P = int(fields.P)
X = fields.X_PARAM
U = -X  # |x|
# order of E'(Fq2) is H2 * n
H2 = (X**8 - 4 * X**7 + 5 * X**6 - 4 * X**4 + 6 * X**3 - 4 * X**2 - 4 * X + 13) // 9

BOUNDED = settings(max_examples=20, deadline=None)
KERNEL_FEW = settings(max_examples=10, deadline=None)

SPECIAL_SCALARS = sorted(
    {0, 1, 2, N - 1, N - 2, U * U - 1, U * U, U * U + 1, U**3 - 1}
    | {U**i + d for i in (1, 2, 3) for d in (-1, 1)}
    | {(1 << b) - 1 for b in (64, 128, 192, 254)}
)
# scalars at the edges of the width-5 NAF windows: values around 2^4 and 2^5
# and runs of ones that carry into the next window, at several bit offsets,
# and GLV and GLS digits at their largest values
_EDGES = [15, 16, 17, 31, 32, 33, 0b10101, 0b11011]
WINDOW_SCALARS = sorted(
    k
    for k in {0, 1, N - 1}
    | {d << s for d in _EDGES for s in (0, 59, 64, 123, 128, 187, 192, 249)}
    | {(1 << b) - 1 for b in (5, 63, 64, 127, 128, 129, 191, 192)}
    | {(_X2 - 1) * (1 + _X2), _U - 1 + (_U - 1) * _U**2, _X2 - 16, _X2 + 15}
    if k < N
)
scalars = st.one_of(
    st.sampled_from(SPECIAL_SCALARS + WINDOW_SCALARS), st.integers(0, N - 1)
)


def _small_primes(limit=10**6):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


def _lift_e(x):
    """The first point of E at or after x (mod p)."""
    while True:
        try:
            return (x, fields.fq_sqrt((x * x % P * x + B1) % P))
        except ValueError:
            x = (x + 1) % P


def _lift_e2(x0, x1):
    """The first point of E' at or after x0 + x1*i, stepping x0."""
    while True:
        x = (x0, x1)
        rhs = fields.f2_add(fields.f2_mul(fields.f2_sqr(x), x), B2)
        try:
            return (x, fields.f2_sqrt(rhs))
        except ValueError:
            x0 = (x0 + 1) % P


def _torsion(curve, lift, rng, cofactor, r):
    """A point of order r, for a prime r dividing the cofactor: clear every
    other factor of the group order, then multiply by r while that leaves
    a point (the r-part need not be cyclic)."""
    m = cofactor
    while m % r == 0:
        m //= r
    for _ in range(20):
        t = curve.mul(lift(rng), m * N)
        if t is not None:
            while curve.mul(t, r) is not None:
                t = curve.mul(t, r)
            return t
    raise AssertionError(f"no point of order {r}")


@pytest.fixture(scope="module")
def points():
    """Non-subgroup, subgroup, torsion and mixed points on E and on E'."""
    rng = random.Random(2021)
    primes = _small_primes()
    r1 = [r for r in primes if H1 % r == 0]
    r2 = [r for r in primes if H2 % r == 0]
    assert r1 == [3, 11, 10177, 859267]
    assert r2 == [13, 23, 2713, 11953, 262069]
    assert math.gcd(H1, H2) == 1  # what makes psi(P) == [x]P exact
    lift1 = lambda rng: _lift_e(rng.randrange(P))  # noqa: E731
    lift2 = lambda rng: _lift_e2(rng.randrange(P), rng.randrange(P))  # noqa: E731
    # the group orders the torsion search relies on
    assert curve_g1.mul(lift1(rng), H1 * N) is None
    assert curve_g2.mul(lift2(rng), H2 * N) is None

    sub1 = [G1_GEN, curve_g1.mul(G1_GEN, rng.randrange(N)), hash_to_g1("t", b"1")]
    sub2 = [G2_GEN, curve_g2.mul(G2_GEN, rng.randrange(N)), hash_to_g2("t", b"2")]
    tor1 = [_torsion(curve_g1, lift1, rng, H1, r) for r in r1]
    tor2 = [_torsion(curve_g2, lift2, rng, H2, r) for r in r2]
    return {
        "g1_sub": sub1,
        "g2_sub": sub2,
        "g1_other": [lift1(rng) for _ in range(3)]
        + tor1
        + [curve_g1.add(sub1[1], t) for t in tor1],
        "g2_other": [lift2(rng) for _ in range(3)]
        + tor2
        + [curve_g2.add(sub2[1], t) for t in tor2],
    }


# --- subgroup checks -----------------------------------------------------------


def test_subgroup_checks_match_multiplying_by_n(points):
    for pt in points["g1_sub"] + points["g1_other"] + [None]:
        assert in_subgroup_g1(pt) == (curve_g1.mul(pt, N) is None)
    for pt in points["g2_sub"] + points["g2_other"] + [None]:
        assert in_subgroup_g2(pt) == (curve_g2.mul(pt, N) is None)
    assert all(map(in_subgroup_g1, points["g1_sub"]))
    assert all(map(in_subgroup_g2, points["g2_sub"]))
    assert not any(map(in_subgroup_g1, points["g1_other"]))
    assert not any(map(in_subgroup_g2, points["g2_other"]))


@BOUNDED
@given(x=st.integers(0, P - 1))
def test_g1_subgroup_check_on_random_points(x):
    pt = _lift_e(x)
    assert in_subgroup_g1(pt) == (curve_g1.mul(pt, N) is None)
    cleared = curve_g1.mul(pt, H1)
    assert in_subgroup_g1(cleared) and curve_g1.mul(cleared, N) is None


@BOUNDED
@given(x0=st.integers(0, P - 1), x1=st.integers(0, P - 1))
def test_g2_subgroup_check_on_random_points(x0, x1):
    pt = _lift_e2(x0, x1)
    assert in_subgroup_g2(pt) == (curve_g2.mul(pt, N) is None)


# --- cofactor clearing ---------------------------------------------------------


def test_psi_clearing_matches_h2_eff(points):
    for pt in points["g2_sub"] + points["g2_other"] + [None]:
        assert clear_cofactor_g2(pt) == curve_g2.mul(pt, H2_EFF)


@BOUNDED
@given(x0=st.integers(0, P - 1), x1=st.integers(0, P - 1))
def test_psi_clearing_on_random_points(x0, x1):
    pt = _lift_e2(x0, x1)
    cleared = clear_cofactor_g2(pt)
    assert cleared == curve_g2.mul(pt, H2_EFF)
    assert in_subgroup_g2(cleared)


# --- GLV / GLS scalar multiplication -------------------------------------------


def _fast_mul(c, pt, k):
    """[k]P through P's wNAF tables and the GLV or GLS ladder."""
    return table_mul(c, tables(c, pt), k)


# the weight of digit i in SPLITS[c] is SPLIT_BASES[c]^i: x^(2i) or |x|^i
SPLIT_BASES = {curve_g1: _X2, curve_g2: _U}


@pytest.mark.parametrize("which", ["g1", "g2"])
def test_splits_maps_multiply_by_the_digit_weights(points, which):
    """Map i of SPLITS[c] is [x^(2i)] on G1 and [|x|^i] on G2, on every
    subgroup point (the generator first); k's digits recombine to k, one
    per map, each within the comb's 8 teeth."""
    c = curve_g1 if which == "g1" else curve_g2
    digits, spacing, maps = SPLITS[c]
    base = SPLIT_BASES[c]
    for pt in points[which + "_sub"]:
        for i, f in enumerate(maps):
            assert (pt if f is None else f(pt)) == c.mul(pt, base**i), i
    for k in SPECIAL_SCALARS:
        ds = digits(k)
        assert len(ds) == len(maps)
        assert sum(d * base**i for i, d in enumerate(ds)) == k
        assert all(0 <= d < 2 ** (spacing * COMB_TEETH) for d in ds)


@pytest.mark.parametrize("which", ["g1", "g2"])
def test_tables_hold_odd_multiples_of_the_digit_weights(points, which):
    """Entry j of tables(c, P)[i] is [(2j + 1) s_i]P, s_i the weight of
    digit i, and its partner list holds the negations."""
    c = curve_g1 if which == "g1" else curve_g2
    base = SPLIT_BASES[c]
    for pt in points[which + "_sub"]:
        tabs = tables(c, pt)
        assert len(tabs) == len(SPLITS[c][2])
        for i, (pos, neg) in enumerate(tabs):
            assert len(pos) == len(neg) == WNAF_TABLE
            for j, (entry, minus) in enumerate(zip(pos, neg)):
                assert entry == c.mul(pt, (2 * j + 1) * base**i), (i, j)
                assert minus == c.neg(entry)


@BOUNDED
@given(k=scalars, which=st.integers(0, 3))
def test_g1_mul_matches_double_and_add(points, k, which):
    pt = (points["g1_sub"] + [None])[which]
    assert _fast_mul(curve_g1, pt, k) == curve_g1.mul(pt, k)


@BOUNDED
@given(k=scalars, which=st.integers(0, 3))
def test_g2_mul_matches_double_and_add(points, k, which):
    pt = (points["g2_sub"] + [None])[which]
    assert _fast_mul(curve_g2, pt, k) == curve_g2.mul(pt, k)


@pytest.mark.parametrize("k", SPECIAL_SCALARS)
def test_special_scalars_on_generators(k):
    assert _fast_mul(curve_g1, G1_GEN, k) == curve_g1.mul(G1_GEN, k)
    assert _fast_mul(curve_g2, G2_GEN, k) == curve_g2.mul(G2_GEN, k)


# --- wNAF ladders -------------------------------------------------------------



@KERNEL_FEW
@given(k=st.one_of(st.sampled_from(WINDOW_SCALARS), st.integers(0, 2**300)))
def test_wnaf_recoding(k):
    digits = wnaf(k)
    assert digits == _ref_wnaf(k, WNAF_WIDTH)
    assert sum(d << i for i, d in enumerate(digits)) == k
    assert all(d % 2 and abs(d) < 2 ** (WNAF_WIDTH - 1) for d in digits if d)
    nonzero = [i for i, d in enumerate(digits) if d]
    assert all(j - i >= WNAF_WIDTH for i, j in zip(nonzero, nonzero[1:]))
    assert not digits or digits[-1] != 0


def test_window_edge_scalars_on_generators():
    for k in WINDOW_SCALARS:
        assert _fast_mul(curve_g1, G1_GEN, k) == curve_g1.mul(G1_GEN, k), hex(k)
        assert _fast_mul(curve_g2, G2_GEN, k) == curve_g2.mul(G2_GEN, k), hex(k)


@pytest.mark.parametrize("name", ["g0", "g1", "ristretto-python"])
@BOUNDED
@given(ks=st.lists(scalars, max_size=3), which=st.integers(0, 2))
def test_exp_many_matches_exp(name, ks, which):
    group = _base_group(name)
    identity = group.exp(group.generator(), 0)
    e = [group.generator(), group.exp_base(7), identity][which]
    assert group.exp_many(e, ks) == [group.exp(e, k) for k in ks]


def test_small_order_points_do_not_decode(points):
    """A torsion point, or a subgroup point plus one, is refused by the
    subgroup check (InvalidEncoding), not by an inversion of 0 in a table
    of its odd multiples: decoding never runs the wNAF ladders."""
    for pt in points["g1_other"]:
        with pytest.raises(InvalidEncoding):
            BlsG0().decode_element(g1_to_bytes(pt))
    for pt in points["g2_other"]:
        with pytest.raises(InvalidEncoding):
            BlsG1().decode_element(g2_to_bytes(pt))


# --- pairing kernels -----------------------------------------------------------


def _affine_miller_loop(p_pt, q_pt):
    """The affine Miller loop the projective one replaced, as it was: an
    Fq2 inversion and a dense f12_mul per line. Its value differs from
    _miller_loop's by an Fq2 factor, which final_exp removes."""
    f2_inv, f2_mul, f2_muls = fields.f2_inv, fields.f2_mul, fields.f2_muls
    f2_neg, f2_sqr, f2_sub = fields.f2_neg, fields.f2_sqr, fields.f2_sub
    xp, yp = p_pt
    c0 = (yp, yp)  # xi * yp
    xq, yq = q_pt
    xt, yt = xq, yq
    f = fields.F12_ONE
    for bit in _U_BITS:
        lam = f2_mul(f2_muls(f2_sqr(xt), 3), f2_inv(f2_muls(yt, 2)))
        c3 = f2_sub(f2_mul(lam, xt), yt)
        c5 = f2_neg(f2_muls(lam, xp))
        f = fields.f12_mul(fields.f12_sqr(f), _f12_line(c0, c3, c5))
        x_new = f2_sub(f2_sqr(lam), f2_muls(xt, 2))
        yt = f2_sub(f2_mul(lam, f2_sub(xt, x_new)), yt)
        xt = x_new
        if bit == "1":
            lam = f2_mul(f2_sub(yt, yq), f2_inv(f2_sub(xt, xq)))
            c3 = f2_sub(f2_mul(lam, xq), yq)
            c5 = f2_neg(f2_muls(lam, xp))
            f = fields.f12_mul(f, _f12_line(c0, c3, c5))
            x_new = f2_sub(f2_sub(f2_sqr(lam), xt), xq)
            yt = f2_sub(f2_mul(lam, f2_sub(xt, x_new)), yt)
            xt = x_new
    return fields.f12_conj(f)


def _rand_f2(rng):
    return (rng.randrange(P), rng.randrange(P))


def _rand_f12(rng):
    return tuple(tuple(_rand_f2(rng) for _ in range(3)) for _ in range(2))


def test_miller_loop_matches_affine_oracle(points):
    multiples = [
        (G1_GEN, G2_GEN),
        (curve_g1.mul(G1_GEN, 2), G2_GEN),
        (G1_GEN, curve_g2.mul(G2_GEN, N - 1)),
        (curve_g1.mul(G1_GEN, 5), curve_g2.mul(G2_GEN, 7)),
    ]
    pairs = [(p, q) for p in points["g1_sub"] for q in points["g2_sub"][1:]]
    for p, q in multiples + pairs:
        want = final_exp(_affine_miller_loop(p, q))
        assert final_exp(_miller_loop(p, q)) == want


def test_mul_by_line_matches_dense_product():
    rng = random.Random(2011)
    for _ in range(10):
        f = _rand_f12(rng)
        c0, c3, c5 = _rand_f2(rng), _rand_f2(rng), _rand_f2(rng)
        want = fields.f12_mul(f, _f12_line(c0, c3, c5))
        assert fields.f12_mul_by_line(f, c0, c3, c5) == want


def test_pairing_bilinear_on_random_points(points):
    rng = random.Random(2012)
    p, q = points["g1_sub"][2], points["g2_sub"][1]
    a, b = rng.randrange(1, N), rng.randrange(1, N)
    lhs = pairing(_fast_mul(curve_g1, p, a), _fast_mul(curve_g2, q, b))
    assert lhs == fields.f12_pow(pairing(p, q), a * b % N)


# --- fixed-base comb -------------------------------------------------------------

# every 32-bit digit of the comb is 0x0FFFFFFF, and k < n
ALL_TEETH = sum(0x0FFFFFFF << (32 * j) for j in range(8))
BASE_SCALARS = [1, 2, 2**32 - 1, 2**32, 2**224, N - 1, ALL_TEETH, 2**256 - 1]


@functools.cache
def _base_group(name):
    if name == "ristretto-sodium":
        try:
            return RistrettoGroup(backend="sodium")
        except RuntimeError:
            pytest.skip("libsodium with ristretto255 not available")
    return {
        "g0": BlsG0,
        "g1": BlsG1,
        "ristretto-python": lambda: RistrettoGroup(backend="python"),
    }[name]()


BASE_GROUPS = ["g0", "g1", "ristretto-python", "ristretto-sodium"]


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_exp_base_special_scalars(name):
    group = _base_group(name)
    for k in BASE_SCALARS:
        assert group.exp_base(k) == group.exp(group.generator(), k), hex(k)
    identity = None if name in ("g0", "g1") else bytes(32)
    assert group.exp_base(0) == identity
    assert group.exp_base(group.order) == identity


@pytest.mark.parametrize("name", BASE_GROUPS)
@BOUNDED
@given(k=st.one_of(st.sampled_from(BASE_SCALARS), st.integers(0, 2**256 - 1)))
def test_exp_base_matches_exp(name, k):
    group = _base_group(name)
    assert group.exp_base(k) == group.exp(group.generator(), k)


def test_comb_matches_double_and_add_beyond_n():
    """The comb itself, without the reduction mod n: every tooth all ones."""
    for c, gen in ((curve_g1, G1_GEN), (curve_g2, G2_GEN)):
        comb = FixedBaseComb(c, gen)
        for k in (2**256 - 1, ALL_TEETH, 0):
            assert comb.mul(k) == c.mul(gen, k)


def _deep_size(obj):
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list)):
        size += sum(_deep_size(x) for x in obj)
    return size


def test_comb_tables_are_lazy_and_small():
    """Key set-up, fresh or from a stored sk, builds no table: a server pays
    for them after it listens. Both tables together stay under 256 KB."""
    pg = Bls12381()
    sk, _ = mergeable.server_setup(pg, random.Random(3))
    mergeable.server_setup(pg, sk=sk)
    assert pg.g0._comb._table is None and pg.g1._comb._table is None
    pg.g0.exp_base(1)
    pg.g1.exp_base(1)
    tables = [pg.g0._comb._table, pg.g1._comb._table]
    assert [len(t) for t in tables] == [256, 256]
    assert sum(map(_deep_size, tables)) <= 256 * 1024


# --- operation counts --------------------------------------------------------------


@pytest.fixture
def inversions(monkeypatch):
    """Counts base-field inversions, in the tower (fields.fq_inv, which
    f2_inv looks up at each call) and on E (the _FqOps shim)."""
    calls = []
    real = fields.fq_inv

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(fields, "fq_inv", counting)
    monkeypatch.setattr(curve._FqOps, "inv", staticmethod(counting))
    return calls


def test_pairing_inverts_once(inversions):
    """The Miller loop runs without inversions; those left are the easy
    part's f12_inv and one batched decompression in each of the hard
    part's five _exp_u."""
    p, q = curve_g1.mul(G1_GEN, 11), curve_g2.mul(G2_GEN, 13)
    inversions.clear()
    pairing(p, q)
    assert len(inversions) == 6


@pytest.mark.parametrize("cls", [BlsG0, BlsG1])
def test_exp_many_builds_one_table(inversions, cls):
    """exp inverts twice, for the table and for the result; exp_many with
    two scalars inverts three times, so it built one table."""
    group = cls()
    inversions.clear()
    group.exp(group.generator(), N - 2)
    assert len(inversions) == 2
    inversions.clear()
    group.exp_many(group.generator(), (N - 2, 12345))
    assert len(inversions) == 3


@pytest.mark.parametrize("cls", [BlsG0, BlsG1])
def test_exp_base_inverts_once_after_table(inversions, cls):
    group = cls()
    group.exp_base(1)  # builds the table
    for k in (2, N - 1, ALL_TEETH):
        inversions.clear()
        group.exp_base(k)
        assert len(inversions) == 1  # the final normalisation


def test_comb_tables_built_by_four_threads_agree():
    groups = [BlsG0(), BlsG1()]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def build(i):
        barrier.wait(timeout=60)
        results[i] = [(g._comb.table(), g.exp_base(ALL_TEETH)) for g in groups]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(r == results[0] for r in results)
    for g, (table, value) in zip(groups, results[0]):
        assert g._comb._table == table
        assert value == g.exp(g.generator(), ALL_TEETH)


# --- reduce-once field kernels ------------------------------------------------------

# The tower products and the Fq2 square root as they were before they reduced
# once per output coefficient: every Fq2 operation reduces mod p, and the
# square root takes Legendre symbols. They share no code with fields.py.


def _r2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def _r2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def _r2_mul(x, y):
    a, b = x
    c, d = y
    ac = a * c % P
    bd = b * d % P
    return ((ac - bd) % P, ((a + b) * (c + d) - ac - bd) % P)


def _r2_mul_by_xi(x):
    a, b = x
    return ((a - b) % P, (a + b) % P)


def _r6_add(x, y):
    return tuple(_r2_add(a, b) for a, b in zip(x, y))


def _r6_sub(x, y):
    return tuple(_r2_sub(a, b) for a, b in zip(x, y))


def _r6_mul_by_v(x):
    return (_r2_mul_by_xi(x[2]), x[0], x[1])


def _ref_f6_mul(x, y):
    a0, a1, a2 = x
    b0, b1, b2 = y
    v0 = _r2_mul(a0, b0)
    v1 = _r2_mul(a1, b1)
    v2 = _r2_mul(a2, b2)
    t0 = _r2_sub(_r2_sub(_r2_mul(_r2_add(a1, a2), _r2_add(b1, b2)), v1), v2)
    t1 = _r2_sub(_r2_sub(_r2_mul(_r2_add(a0, a1), _r2_add(b0, b1)), v0), v1)
    t2 = _r2_sub(_r2_sub(_r2_mul(_r2_add(a0, a2), _r2_add(b0, b2)), v0), v2)
    return (
        _r2_add(v0, _r2_mul_by_xi(t0)),
        _r2_add(t1, _r2_mul_by_xi(v2)),
        _r2_add(t2, v1),
    )


def _ref_f12_mul(x, y):
    a, b = x
    c, d = y
    ac = _ref_f6_mul(a, c)
    bd = _ref_f6_mul(b, d)
    abcd = _ref_f6_mul(_r6_add(a, b), _r6_add(c, d))
    return (_r6_add(ac, _r6_mul_by_v(bd)), _r6_sub(_r6_sub(abcd, ac), bd))


def _ref_f12_sqr(x):
    a, b = x
    ab = _ref_f6_mul(a, b)
    t = _ref_f6_mul(_r6_add(a, b), _r6_add(a, _r6_mul_by_v(b)))
    return (_r6_sub(_r6_sub(t, ab), _r6_mul_by_v(ab)), _r6_add(ab, ab))


def _f12_line(c0, c3, c5):
    """The sparse element c0 + c3 w^3 + c5 w^5, dense."""
    zero = (0, 0)
    return ((c0, zero, zero), (zero, c3, c5))


def _ref_f12_mul_by_line(f, c0, c3, c5):
    a, b = f
    ac = (_r2_mul(a[0], c0), _r2_mul(a[1], c0), _r2_mul(a[2], c0))
    b0, b1, b2 = b
    t1 = _r2_mul(b1, c3)
    t2 = _r2_mul(b2, c5)
    cross = _r2_sub(_r2_sub(_r2_mul(_r2_add(b1, b2), _r2_add(c3, c5)), t1), t2)
    bl = (
        _r2_mul_by_xi(cross),
        _r2_add(_r2_mul(b0, c3), _r2_mul_by_xi(t2)),
        _r2_add(_r2_mul(b0, c5), t1),
    )
    t = _ref_f6_mul(_r6_add(a, b), (c0, c3, c5))
    return (_r6_add(ac, _r6_mul_by_v(bl)), _r6_sub(_r6_sub(t, ac), bl))


def _ref_legendre(a):
    a %= P
    if a == 0:
        return 0
    return 1 if pow(a, (P - 1) // 2, P) == 1 else -1


def _ref_fq_sqrt(a):
    a %= P
    r = pow(a, (P + 1) // 4, P)
    if r * r % P != a:
        raise ValueError("not a square in Fq")
    return r


def _ref_f2_sqrt(x):
    a, b = x
    if b == 0:
        if _ref_legendre(a) >= 0:
            return (_ref_fq_sqrt(a), 0)
        return (0, _ref_fq_sqrt(-a))
    norm = (a * a + b * b) % P
    if _ref_legendre(norm) != 1:
        raise ValueError("not a square in Fq2")
    s = _ref_fq_sqrt(norm)
    inv2 = pow(2, -1, P)
    t = (a + s) * inv2 % P
    if _ref_legendre(t) != 1:
        t = (a - s) * inv2 % P
    x0 = _ref_fq_sqrt(t)
    cand = (x0, b * pow(2 * x0, -1, P) % P)
    if _r2_mul(cand, cand) != (a % P, b % P):
        raise ValueError("not a square in Fq2")
    return cand


def _root_or_none(sqrt, x):
    try:
        return sqrt(x)
    except ValueError:
        return None


def _reduced(x):
    """Every Fq coefficient of a nested tuple lies in [0, p)."""
    if isinstance(x, tuple):
        return all(map(_reduced, x))
    return 0 <= x < P


fq = st.one_of(st.sampled_from([0, 1, P - 1]), st.integers(0, P - 1))
fq2 = st.tuples(fq, fq)
fq6 = st.tuples(fq2, fq2, fq2)
fq12 = st.tuples(fq6, fq6)
KERNEL = settings(max_examples=50, deadline=None)
TOP2 = (P - 1, P - 1)
TOP6 = (TOP2, TOP2, TOP2)
TOP12 = (TOP6, TOP6)


@KERNEL
@given(x=fq6, y=fq6)
@example(x=TOP6, y=TOP6)
def test_f6_mul_matches_reference(x, y):
    got = fields.f6_mul(x, y)
    assert got == _ref_f6_mul(x, y) and _reduced(got)


@KERNEL
@given(x=fq12, y=fq12)
@example(x=TOP12, y=TOP12)
def test_f12_mul_matches_reference(x, y):
    got = fields.f12_mul(x, y)
    assert got == _ref_f12_mul(x, y) and _reduced(got)


@KERNEL
@given(x=fq12)
@example(x=TOP12)
def test_f12_sqr_matches_reference(x):
    got = fields.f12_sqr(x)
    assert got == _ref_f12_sqr(x) and _reduced(got)


@KERNEL
@given(f=fq12, c0=fq2, c3=fq2, c5=fq2)
@example(f=TOP12, c0=TOP2, c3=TOP2, c5=TOP2)
def test_f12_mul_by_line_matches_reference(f, c0, c3, c5):
    got = fields.f12_mul_by_line(f, c0, c3, c5)
    assert got == _ref_f12_mul_by_line(f, c0, c3, c5) and _reduced(got)


@KERNEL
@given(x=fq2)
def test_f2_sqrt_matches_reference(x):
    got = _root_or_none(fields.f2_sqrt, x)
    assert got == _root_or_none(_ref_f2_sqrt, x)
    if got is not None:
        assert _reduced(got) and _r2_mul(got, got) == x


@KERNEL
@given(y=fq2)
def test_f2_sqrt_of_squares_and_non_squares(y):
    square = _r2_mul(y, y)
    root = fields.f2_sqrt(square)
    assert root == _ref_f2_sqrt(square) and _r2_mul(root, root) == square
    non_square = _r2_mul(fields.XI, square)  # xi is not a square in Fq2
    if non_square != (0, 0):
        for sqrt in (fields.f2_sqrt, _ref_f2_sqrt):
            with pytest.raises(ValueError):
                sqrt(non_square)


@KERNEL
@given(c=fq)
@example(c=2)
def test_f2_sqrt_on_the_base_field(c):
    """b = 0: a square of Fq, a non-square (-c^2, as -1 is none) and 0 all
    have roots in Fq2."""
    for a in (c * c % P, -c * c % P, 0):
        root = fields.f2_sqrt((a, 0))
        assert root == _ref_f2_sqrt((a, 0)) and _reduced(root)
        assert _r2_mul(root, root) == (a, 0)


MINUS_ONE = (((P - 1, 0), (0, 0), (0, 0)), ((0, 0), (0, 0), (0, 0)))


@KERNEL_FEW
@given(x=st.one_of(st.sampled_from([fields.F12_ONE, MINUS_ONE]), fq12))
def test_compressed_exp_u_matches_square_and_multiply(x):
    """_exp_u squares compressed; it agrees with f12_pow on every input:
    cyclotomic elements, and +-1 (which take f12_pow itself; |x| is even,
    so (-1)^|x| = 1)."""
    if x in (fields.F12_ONE, MINUS_ONE):
        g = x
    else:
        assume(any(c for f6 in x for f2 in f6 for c in f2))
        g = _easy_part(x)  # cyclotomic
    got = _exp_u(g)
    assert got == fields.f12_pow(g, U) and _reduced(got)


@KERNEL_FEW
@given(x=fq12)
def test_compressed_sqr_and_decompression(x):
    assume(any(c for f6 in x for f2 in f6 for c in f2))
    g = _easy_part(x)  # cyclotomic
    sq = fields.f12_sqr(g)
    cs = [fields.f12_compress(g), fields.f12_compress(sq)]
    assert fields.f12_compressed_sqr(cs[0]) == cs[1]
    if all(c[0] != (0, 0) for c in cs):
        assert fields.f12_decompress_many(cs) == [g, sq]
    else:  # g2 = 0: the coefficients left do not fix g1
        assert fields.f12_decompress_many(cs) is None
    assert fields.f12_decompress_many([fields.f12_compress(fields.F12_ONE)]) is None


# --- the Fq exponentiation and inversion kernel ------------------------------------

# fields.KERNEL is gmpy2 when it is installed, else the system libgmp through
# ctypes (gmp.py), else the builtin pow. The libgmp cases below bind the
# library themselves, so they run on every leg where it loads.

SQRT_EXP = (P + 1) // 4


LIBGMP = gmp.load(P)
needs_libgmp = pytest.mark.skipif(LIBGMP is None, reason="libgmp not available")


def _no_libgmp(monkeypatch):
    """The kernel chosen when gmpy2 is absent and libgmp does not load."""
    def fail(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(gmp.ctypes, "CDLL", fail)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)  # no ldconfig
    monkeypatch.setattr(fields, "gmpy2", None)
    assert gmp.load(P) is None
    return fields.select_kernel()


@needs_libgmp
@KERNEL
@given(a=fq)
@example(a=4)  # a square
@example(a=P - 4)  # -4, a non-square: -1 is none
def test_libgmp_kernel_matches_builtin_pow(a):
    lib = LIBGMP
    for x in (a, a * a % P, -a * a % P):
        assert lib.powm(x, SQRT_EXP) == pow(x, SQRT_EXP, P)
        assert lib.powm(x, P - 2) == pow(x, P - 2, P)
        if x:
            assert lib.invert(x) == pow(x, -1, P)


@needs_libgmp
def test_libgmp_kernel_edges():
    lib = LIBGMP
    for a in (0, 1, 2, P - 1):
        assert lib.powm(a, 0) == 1
        assert lib.powm(a, SQRT_EXP) == pow(a, SQRT_EXP, P)
    assert lib.invert(1) == 1 and lib.invert(P - 1) == P - 1
    with pytest.raises(ZeroDivisionError):
        lib.invert(0)


def test_fq_kernel_entry_points():
    """fq_inv refuses 0 and p on every kernel, and fq_sqrt still refuses
    a non-square: the root is checked, not trusted."""
    assert fields.KERNEL.name in ("gmpy2", "libgmp", "int")
    for zero in (0, P, -P):
        with pytest.raises(ZeroDivisionError):
            fields.fq_inv(zero)
    with pytest.raises(ValueError):
        fields.fq_sqrt(-4)
    assert fields.fq_sqrt(4) in (2, P - 2)
    assert fields.fq_inv(P + 2) * 2 % P == 1


def _bls_outputs():
    """Bytes of decodes, hashes and a pairing: every path through fq_sqrt,
    fq_inv and f2_sqrt."""
    pg = Bls12381()
    out = []
    for k in (1, 7, N - 1):
        out.append(g1_to_bytes(pg.g0.decode_element(g1_to_bytes(curve_g1.mul(G1_GEN, k)))))
        out.append(g2_to_bytes(pg.g1.decode_element(g2_to_bytes(curve_g2.mul(G2_GEN, k)))))
    for msg in (b"", b"kernel"):
        out.append(g1_to_bytes(hash_to_g1("test", msg)))
        out.append(g2_to_bytes(hash_to_g2("test", msg)))
    out.append(pg.gt.encode_element(pg.pair(G1_GEN, G2_GEN)))
    return out


@needs_libgmp
def test_outputs_without_libgmp_match_libgmp(monkeypatch):
    monkeypatch.setattr(fields, "KERNEL", fields.FqKernel("libgmp", LIBGMP.powm, LIBGMP.invert))
    with_libgmp = _bls_outputs()
    kernel = _no_libgmp(monkeypatch)
    assert kernel.name == "int"
    monkeypatch.setattr(fields, "KERNEL", kernel)
    assert _bls_outputs() == with_libgmp


@needs_libgmp
def test_libgmp_kernel_from_four_threads():
    """ctypes drops the GIL inside libgmp, so four threads run the kernel
    at once, each on its own temporaries."""
    lib = LIBGMP
    barrier = threading.Barrier(4)
    errors = []

    def run(seed):
        rng = random.Random(seed)
        barrier.wait(timeout=60)
        for _ in range(200):
            a = rng.randrange(1, P)
            if lib.powm(a, SQRT_EXP) != pow(a, SQRT_EXP, P) or lib.invert(a) * a % P != 1:
                errors.append(a)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# --- Jacobian ladders against affine double-and-add ------------------------------


def _affine_mul(c, pt, k):
    """[k]pt by left-to-right double-and-add on Curve.double and Curve.add
    alone: affine, one inversion per step, no Jacobian step."""
    acc = None
    for bit in bin(k)[2:]:
        acc = c.double(acc)
        if bit == "1":
            acc = c.add(acc, pt)
    return acc


@BOUNDED
@given(k=scalars, which=st.integers(0, 2))
def test_g1_mul_matches_affine_oracle(points, k, which):
    pt = points["g1_sub"][which]
    assert _fast_mul(curve_g1, pt, k) == _affine_mul(curve_g1, pt, k)


@BOUNDED
@given(k=scalars, which=st.integers(0, 2))
def test_g2_mul_matches_affine_oracle(points, k, which):
    pt = points["g2_sub"][which]
    assert _fast_mul(curve_g2, pt, k) == _affine_mul(curve_g2, pt, k)


@BOUNDED
@given(
    which=st.sampled_from(["g1", "g2"]),
    picks=st.lists(st.integers(0, 20), min_size=1, max_size=4),
    digits=st.lists(
        st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64)),
        min_size=4,
        max_size=4,
    ),
)
@example(which="g1", picks=[0, 0], digits=[1, 1, 0, 0])  # P + P in one column
@example(which="g1", picks=[6, 6], digits=[1, 2, 0, 0])  # order 3: 2T + T = 0
def test_ladder_matches_affine_oracle(points, which, picks, digits):
    """Binary columns over any points on the curve, in or out of the
    subgroup, repeats allowed: Curve.ladder's P + P and P + (-P) branches."""
    c = curve_g1 if which == "g1" else curve_g2
    pool = points[which + "_sub"] + points[which + "_other"]
    pts = [pool[i % len(pool)] for i in picks]
    digits = digits[: len(pts)]
    want = None
    for pt, d in zip(pts, digits):
        want = c.add(want, _affine_mul(c, pt, d))
    columns = [
        [pt for pt, d in zip(pts, digits) if d >> bit & 1]
        for bit in range(max(digits).bit_length() - 1, -1, -1)
    ]
    assert c.ladder(columns) == want


@functools.cache
def _comb(c, gen):
    return FixedBaseComb(c, gen)


@BOUNDED
@given(k=st.one_of(st.sampled_from(BASE_SCALARS), st.integers(0, 2**256 - 1)))
def test_comb_matches_affine_oracle(k):
    for c, gen in ((curve_g1, G1_GEN), (curve_g2, G2_GEN)):
        assert _comb(c, gen).mul(k) == _affine_mul(c, gen, k)


def _jacobian(c, pt, z):
    F = c.F
    zz = F.sqr(z)
    return (F.mul(pt[0], zz), F.mul(F.mul(pt[1], zz), z), z)


def _affine(c, acc):
    F = c.F
    if acc is None:
        return None
    X, Y, Z = acc
    zinv = F.inv(Z)
    zz = F.sqr(zinv)
    return (F.mul(X, zz), F.mul(F.mul(Y, zz), zinv))


@pytest.mark.parametrize("which", ["g1", "g2"])
def test_jacobian_steps_hit_every_branch(points, which):
    """_add_mixed on acc == pt (the doubling), acc == -pt (the identity), a
    None accumulator (pt itself) and distinct points; _double_jac against
    Curve.double. The accumulator's Z is not 1."""
    if which == "g1":
        c, gen, one, z = curve_g1, G1_GEN, 1, 7
    else:
        c, gen, one, z = curve_g2, G2_GEN, (1, 0), (7, 3)
    for pt in points[which + "_sub"] + points[which + "_other"][:4]:
        acc = _jacobian(c, pt, z)
        assert _affine(c, acc) == pt
        assert _affine(c, c._add_mixed(acc, pt)) == c.double(pt)
        assert c._add_mixed(acc, c.neg(pt)) is None
        assert c._add_mixed(None, pt) == (pt[0], pt[1], one)
        assert _affine(c, c._add_mixed(acc, gen)) == c.add(pt, gen)
        assert _affine(c, c._double_jac(*acc)) == c.double(pt)


def _watch_steps(monkeypatch, record):
    """Calls record(kind, output) after every Jacobian step of both curves,
    kind "double" or "add"; every ladder runs on these steps."""
    for cls in {type(curve_g1), type(curve_g2)}:
        real_double, real_add = cls._double_jac, cls._add_mixed

        def double(self, X, Y, Z, real=real_double):
            out = real(self, X, Y, Z)
            record("double", out)
            return out

        def add(self, acc, pt, real=real_add):
            out = real(self, acc, pt)
            record("add", out)
            return out

        monkeypatch.setattr(cls, "_double_jac", double)
        monkeypatch.setattr(cls, "_add_mixed", add)


def test_no_point_of_order_2_so_z_is_never_0(points, monkeypatch):
    """None is the only form of infinity. x^3 = -b has no root (-4 is not a
    cube in Fq, nor -4(1+i) in Fq2), so neither curve has a point with
    y = 0, and every finite output of the Jacobian steps has Z != 0: over
    the subgroup and non-subgroup points, multiplied by small scalars, by
    n and by the curve's order (which ends in P + (-P)), and through the
    wNAF ladders' tables. Fails if a curve constant ever allows a point of
    order 2."""
    assert pow(-B1 % P, (P - 1) // 3, P) != 1
    assert fields.f2_pow(fields.f2_neg(B2), (P * P - 1) // 3) != fields.F2_ONE
    outputs = []
    _watch_steps(monkeypatch, lambda kind, out: outputs.append(out))
    curves = [
        ("g1", curve_g1, 0, H1 * N, lambda pt, k: _fast_mul(curve_g1, pt, k)),
        ("g2", curve_g2, (0, 0), H2 * N, lambda pt, k: _fast_mul(curve_g2, pt, k)),
    ]
    for which, c, zero, order, ladder in curves:
        for pt in points[which + "_sub"] + points[which + "_other"]:
            for k in (2, 3, N - 1, N, order):
                c.mul(pt, k)
        for pt in points[which + "_sub"]:
            ladder(pt, N - 1)
        assert None in outputs
        assert all(out[2] != zero for out in outputs if out is not None)
        outputs.clear()


@pytest.fixture
def steps(monkeypatch):
    """Counts the Jacobian steps of both curves."""
    counts = {"double": 0, "add": 0}

    def count(kind, out):
        counts[kind] += 1

    _watch_steps(monkeypatch, count)
    return counts


def _ladder_steps(digits):
    """(doublings, additions) of one Straus ladder over these digits: the
    index of the top bit, and the number of bit positions (columns) where
    some digit has a 1."""
    return (
        max(digits).bit_length() - 1,
        bin(functools.reduce(operator.or_, digits)).count("1"),
    )


def _base_digits(k, base, count):
    digits = []
    for _ in range(count):
        k, d = divmod(k, base)
        digits.append(d)
    return digits


STEP_SCALARS = [1, 2, 3, 2**64, U * U + 1, 2**127 + 32, N - 1, ALL_TEETH, N // 3]


def _ref_wnaf(k, w):
    """Width-w NAF of k, least significant digit first, by the textbook
    recoding with the signed residue mods 2^w (Hankerson, Menezes and
    Vanstone, Guide to ECC, Algorithm 3.35)."""
    out = []
    while k > 0:
        d = 0
        if k % 2:
            d = k % 2**w
            if d >= 2 ** (w - 1):
                d -= 2**w
        out.append(d)
        k = (k - d) // 2
    return out


def _wnaf_steps(digits):
    """(doublings, additions) of one wNAF ladder over these digits: the
    longest NAF's length less one, and the number of nonzero NAF digits."""
    nafs = [_ref_wnaf(d, WNAF_WIDTH) for d in digits]
    return max(map(len, nafs)) - 1, sum(1 for naf in nafs for d in naf if d)


# the table of odd multiples: 2P, then 3P, 5P, ... by mixed additions
TABLE_STEPS = (1, WNAF_TABLE - 1)


def test_table_step_counts(steps):
    for build in (lambda: tables(curve_g1, G1_GEN), lambda: tables(curve_g2, G2_GEN)):
        steps.update(double=0, add=0)
        build()
        assert (steps["double"], steps["add"]) == TABLE_STEPS


def _comb_steps(digits, spacing):
    """(doublings, additions) of the comb over these GLV or GLS digits, each
    cut into 8 teeth of `spacing` bits: one shared ladder, so the doublings
    are the top bit index over every tooth; the additions are, per digit,
    the bit positions where one of its teeth has a 1."""
    teeth = [_base_digits(d, 2**spacing, 8) for d in digits]
    return (
        max(_ladder_steps(t)[0] for t in teeth),
        sum(_ladder_steps(t)[1] for t in teeth),
    )


def _exp_base_steps(k):
    """The comb's steps for [k]G1 (GLV, 16-bit teeth) and [k]G2 (GLS, 8-bit
    teeth)."""
    return (
        _comb_steps(_base_digits(k % N, _X2, 2), 16),
        _comb_steps(_base_digits(k % N, _U, 4), 8),
    )


@pytest.mark.parametrize("k", STEP_SCALARS)
def test_ladder_step_counts(steps, k):
    t1, t2 = tables(curve_g1, G1_GEN), tables(curve_g2, G2_GEN)  # built outside the count
    d1, d2 = _wnaf_steps(_base_digits(k, _X2, 2)), _wnaf_steps(_base_digits(k, _U, 4))
    cases = [
        (lambda: table_mul(curve_g1, t1, k), d1),
        (lambda: table_mul(curve_g2, t2, k), d2),
        (lambda: _fast_mul(curve_g1, G1_GEN, k), tuple(map(operator.add, TABLE_STEPS, d1))),
        (lambda: _fast_mul(curve_g2, G2_GEN, k), tuple(map(operator.add, TABLE_STEPS, d2))),
    ]
    for group, want in zip((BlsG0(), BlsG1()), _exp_base_steps(k)):
        group.exp_base(1)  # the table, built outside the count
        cases.append((lambda g=group: g.exp_base(k), want))
    for run, want in cases:
        steps.update(double=0, add=0)
        run()
        assert (steps["double"], steps["add"]) == want


# the comb's digits at their edges: teeth of 8 bits (G2) and 16 bits (G1)
# full, or carried into the next tooth, in every GLV and GLS digit; and the
# largest digits (N - 2 = (x^2 - 2) x^2 + x^2 - 1, and |x|^4 - |x|^3 - 1 has
# the GLS digits |x| - 1, |x| - 1, |x| - 1, |x| - 2)
COMB_SCALARS = sorted(
    k
    for k in {
        d * base**i
        for d in (2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**56 - 1, 2**112 - 1)
        for base, count in ((_X2, 2), (_U, 4))
        for i in range(count)
    }
    | {_X2 - 1, _U - 1, N - 2, _U**4 - _U**3 - 1}
    if k < N
)

# (doublings, additions) on G1 and on G2, for a few of them
COMB_STEP_PINS = {
    1: ((0, 1), (0, 1)),
    2**8 - 1: ((7, 8), (7, 8)),
    2**8: ((8, 1), (0, 1)),
    2**16 - 1: ((15, 16), (7, 8)),
    2**16: ((0, 1), (0, 1)),
    _X2 - 1: ((15, 16), (7, 16)),
    N - 2: ((15, 32), (7, 32)),
    _U**4 - _U**3 - 1: ((15, 32), (7, 32)),
}


def test_comb_edge_scalars():
    for group in (BlsG0(), BlsG1()):
        for k in COMB_SCALARS:
            assert group.exp_base(k) == group.exp(group.generator(), k), hex(k)


@pytest.mark.parametrize("k", sorted(COMB_STEP_PINS))
def test_comb_step_counts(steps, k):
    """The counts of _exp_base_steps, and those pinned as numbers: 15
    doublings at most on G1 and 7 on G2, 32 additions at most on either."""
    for group, want in zip((BlsG0(), BlsG1()), _exp_base_steps(k)):
        group.exp_base(1)  # the table, built outside the count
        steps.update(double=0, add=0)
        group.exp_base(k)
        assert (steps["double"], steps["add"]) == want
    assert _exp_base_steps(k) == COMB_STEP_PINS[k]
