"""The BLS12-381 kernels against slow oracles that need no curve structure.

Each fast path in curve.py has a slow twin: the subgroup checks against
multiplying by n, the psi cofactor clearing against multiplying by H2_EFF,
the GLV/GLS scalar multiplications and the fixed-base comb against
Curve.mul by k. Inputs cover random points outside the subgroup, torsion
points of every small prime order in the cofactors (found by trial
division below 10^6), subgroup points with such torsion added, and the
identity. The pairing's projective Miller loop is checked against the
affine loop it replaced, and its sparse and cyclotomic field kernels
against the dense products. Operation counts of the pairing and the comb
are pinned by counting base-field inversions."""

import functools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchcard import mergeable
from punchcard.groups import RistrettoGroup
from punchcard.groups.bls import BlsG0, BlsG1, Bls12381, curve, fields
from punchcard.groups.bls.curve import (
    B1,
    B2,
    G1_GEN,
    G2_GEN,
    H1,
    H2_EFF,
    FixedBaseComb,
    clear_cofactor_g2,
    curve_g1,
    curve_g2,
    g1_mul,
    g2_mul,
    hash_to_g1,
    hash_to_g2,
    in_subgroup_g1,
    in_subgroup_g2,
)
from punchcard.groups.bls.pairing import (
    _U_BITS,
    _easy_part,
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

SPECIAL_SCALARS = sorted(
    {0, 1, 2, N - 1, N - 2, U * U - 1, U * U, U * U + 1, U**3 - 1}
    | {U**i + d for i in (1, 2, 3) for d in (-1, 1)}
    | {(1 << b) - 1 for b in (64, 128, 192, 254)}
)
scalars = st.one_of(st.sampled_from(SPECIAL_SCALARS), st.integers(0, N - 1))


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


@BOUNDED
@given(k=scalars, which=st.integers(0, 3))
def test_g1_mul_matches_double_and_add(points, k, which):
    pt = (points["g1_sub"] + [None])[which]
    assert g1_mul(pt, k) == curve_g1.mul(pt, k)


@BOUNDED
@given(k=scalars, which=st.integers(0, 3))
def test_g2_mul_matches_double_and_add(points, k, which):
    pt = (points["g2_sub"] + [None])[which]
    assert g2_mul(pt, k) == curve_g2.mul(pt, k)


@pytest.mark.parametrize("k", SPECIAL_SCALARS)
def test_special_scalars_on_generators(k):
    assert g1_mul(G1_GEN, k) == curve_g1.mul(G1_GEN, k)
    assert g2_mul(G2_GEN, k) == curve_g2.mul(G2_GEN, k)


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
        f = fields.f12_mul(fields.f12_sqr(f), fields.f12_line(c0, c3, c5))
        x_new = f2_sub(f2_sqr(lam), f2_muls(xt, 2))
        yt = f2_sub(f2_mul(lam, f2_sub(xt, x_new)), yt)
        xt = x_new
        if bit == "1":
            lam = f2_mul(f2_sub(yt, yq), f2_inv(f2_sub(xt, xq)))
            c3 = f2_sub(f2_mul(lam, xq), yq)
            c5 = f2_neg(f2_muls(lam, xp))
            f = fields.f12_mul(f, fields.f12_line(c0, c3, c5))
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
        assert fields.f12_eq(final_exp(_miller_loop(p, q)), want)


def test_cyclotomic_sqr_matches_f12_sqr():
    rng = random.Random(2010)
    for _ in range(5):
        x = _easy_part(_rand_f12(rng))
        assert fields.f12_eq(fields.f12_cyclotomic_sqr(x), fields.f12_sqr(x))
    gt = pairing(G1_GEN, G2_GEN)
    assert fields.f12_eq(fields.f12_cyclotomic_sqr(gt), fields.f12_sqr(gt))


def test_mul_by_line_matches_dense_product():
    rng = random.Random(2011)
    for _ in range(10):
        f = _rand_f12(rng)
        c0, c3, c5 = _rand_f2(rng), _rand_f2(rng), _rand_f2(rng)
        want = fields.f12_mul(f, fields.f12_line(c0, c3, c5))
        assert fields.f12_eq(fields.f12_mul_by_line(f, c0, c3, c5), want)


def test_pairing_bilinear_on_random_points(points):
    rng = random.Random(2012)
    p, q = points["g1_sub"][2], points["g2_sub"][1]
    a, b = rng.randrange(1, N), rng.randrange(1, N)
    lhs = pairing(g1_mul(p, a), g2_mul(q, b))
    assert fields.f12_eq(lhs, fields.f12_pow(pairing(p, q), a * b % N))


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
    assert group.is_identity(group.exp_base(0))
    assert group.is_identity(group.exp_base(group.order))


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
    """The Miller loop runs without inversions; the one left is the easy
    part's f12_inv."""
    p, q = curve_g1.mul(G1_GEN, 11), curve_g2.mul(G2_GEN, 13)
    inversions.clear()
    pairing(p, q)
    assert len(inversions) == 1


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
