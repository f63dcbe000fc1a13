"""The endomorphism kernels against the plain double-and-add oracle.

Each fast path in curve.py has a slow twin that needs no curve structure:
the subgroup checks against multiplying by n, the psi cofactor clearing
against multiplying by H2_EFF, and the GLV/GLS scalar multiplications
against Curve.mul by k. Inputs cover random points outside the subgroup,
torsion points of every small prime order in the cofactors (found by trial
division below 10^6), subgroup points with such torsion added, and the
identity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchcard.groups.bls import fields
from punchcard.groups.bls.curve import (
    B1,
    B2,
    G1_GEN,
    G2_GEN,
    H1,
    H2_EFF,
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
