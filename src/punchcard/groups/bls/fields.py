"""BLS12-381 field tower: Fq, Fq2, Fq6, Fq12.

No pairing library exists on this deployment's package index, so the tower
is implemented here directly. Representation is functional: Fq elements are
ints (gmpy2 mpz when available), Fq2 = (a, b) meaning a + b*i with i^2 = -1,
Fq6 = (c0, c1, c2) over v with v^3 = xi = 1 + i, and Fq12 = (A, B) over w
with w^2 = v (so w^6 = xi). This is the conventional tower for this curve;
the Frobenius coefficients are computed at import time from xi rather than
transcribed, and the asserts at the bottom pin the algebra.
"""

from __future__ import annotations

try:
    from gmpy2 import invert as _gmpy_invert, mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    mpz = int
    _gmpy_invert = None

# base field prime and curve parameter (generator of the BLS family)
X_PARAM = -0xD201000000010000
P = mpz(int(
    "1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F624"
    "1EABFFFEB153FFFFB9FEFFFFFFFFAAAB", 16
))
N = mpz(0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001)


def fq_inv(a):
    a = a % P
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in Fq")
    if _gmpy_invert is not None:
        return _gmpy_invert(a, P)
    return pow(a, -1, P)


def fq_legendre(a) -> int:
    """1 for nonzero squares, -1 for non-squares, 0 for zero."""
    a = a % P
    if a == 0:
        return 0
    return 1 if pow(a, (P - 1) // 2, P) == 1 else -1


def fq_sqrt(a):
    """Square root in Fq (p = 3 mod 4); raises ValueError if none exists."""
    a = a % P
    r = pow(a, (P + 1) // 4, P)
    if r * r % P != a:
        raise ValueError("not a square in Fq")
    return r


# ---------------------------------------------------------------------------
# Fq2 = Fq[i] / (i^2 + 1)

F2_ZERO = (mpz(0), mpz(0))
F2_ONE = (mpz(1), mpz(0))
XI = (mpz(1), mpz(1))  # the Fq6 non-residue 1 + i


def f2(a: int, b: int = 0):
    return (mpz(a) % P, mpz(b) % P)


def f2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def f2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def f2_neg(x):
    return ((-x[0]) % P, (-x[1]) % P)


def f2_conj(x):
    return (x[0], (-x[1]) % P)


def f2_mul(x, y):
    a, b = x
    c, d = y
    ac = a * c % P
    bd = b * d % P
    return ((ac - bd) % P, ((a + b) * (c + d) - ac - bd) % P)


def f2_sqr(x):
    a, b = x
    return ((a + b) * (a - b) % P, 2 * a * b % P)


def f2_muls(x, s):
    """Multiply by an Fq scalar."""
    return (x[0] * s % P, x[1] * s % P)


def f2_mul_by_xi(x):
    """x * (1 + i), two subtractions instead of a multiplication."""
    a, b = x
    return ((a - b) % P, (a + b) % P)


def f2_inv(x):
    a, b = x
    d = fq_inv(a * a + b * b)
    return (a * d % P, (-b) * d % P)


def f2_eq(x, y) -> bool:
    return x[0] == y[0] and x[1] == y[1]


def f2_is_zero(x) -> bool:
    return x[0] == 0 and x[1] == 0


def f2_pow(x, e: int):
    acc = F2_ONE
    for bit in bin(int(e))[2:]:
        acc = f2_sqr(acc)
        if bit == "1":
            acc = f2_mul(acc, x)
    return acc


def f2_legendre(x) -> int:
    """Quadratic character of Fq2 via the norm map to Fq."""
    a, b = x
    return fq_legendre((a * a + b * b) % P)


def f2_sqrt(x):
    """Square root in Fq2 by the complex method; ValueError if none."""
    a, b = x
    if b == 0:
        if fq_legendre(a) >= 0:
            return (fq_sqrt(a), mpz(0))
        # a is a non-square, so -a is a square (p = 3 mod 4) and
        # sqrt(a) = sqrt(-a) * i
        return (mpz(0), fq_sqrt((-a) % P))
    norm = (a * a + b * b) % P
    if fq_legendre(norm) != 1:
        raise ValueError("not a square in Fq2")
    s = fq_sqrt(norm)
    inv2 = fq_inv(2)
    t = (a + s) * inv2 % P
    if fq_legendre(t) != 1:
        t = (a - s) * inv2 % P
    x0 = fq_sqrt(t)
    y0 = b * fq_inv(2 * x0) % P
    cand = (x0, y0)
    if not f2_eq(f2_sqr(cand), (a % P, b % P)):
        raise ValueError("not a square in Fq2")
    return cand


# ---------------------------------------------------------------------------
# Fq6 = Fq2[v] / (v^3 - xi)

F6_ZERO = (F2_ZERO, F2_ZERO, F2_ZERO)
F6_ONE = (F2_ONE, F2_ZERO, F2_ZERO)


def f6_add(x, y):
    return (f2_add(x[0], y[0]), f2_add(x[1], y[1]), f2_add(x[2], y[2]))


def f6_sub(x, y):
    return (f2_sub(x[0], y[0]), f2_sub(x[1], y[1]), f2_sub(x[2], y[2]))


def f6_neg(x):
    return (f2_neg(x[0]), f2_neg(x[1]), f2_neg(x[2]))


def f6_mul(x, y):
    a0, a1, a2 = x
    b0, b1, b2 = y
    v0 = f2_mul(a0, b0)
    v1 = f2_mul(a1, b1)
    v2 = f2_mul(a2, b2)
    # Karatsuba-style interpolation, 6 Fq2 multiplications total
    t0 = f2_sub(f2_sub(f2_mul(f2_add(a1, a2), f2_add(b1, b2)), v1), v2)
    t1 = f2_sub(f2_sub(f2_mul(f2_add(a0, a1), f2_add(b0, b1)), v0), v1)
    t2 = f2_sub(f2_sub(f2_mul(f2_add(a0, a2), f2_add(b0, b2)), v0), v2)
    return (
        f2_add(v0, f2_mul_by_xi(t0)),
        f2_add(t1, f2_mul_by_xi(v2)),
        f2_add(t2, v1),
    )


def f6_sqr(x):
    return f6_mul(x, x)


def f6_mul_by_v(x):
    return (f2_mul_by_xi(x[2]), x[0], x[1])


def f6_inv(x):
    a0, a1, a2 = x
    t0 = f2_sub(f2_sqr(a0), f2_mul(XI, f2_mul(a1, a2)))
    t1 = f2_sub(f2_mul(XI, f2_sqr(a2)), f2_mul(a0, a1))
    t2 = f2_sub(f2_sqr(a1), f2_mul(a0, a2))
    d = f2_add(
        f2_mul(a0, t0),
        f2_mul(XI, f2_add(f2_mul(a2, t1), f2_mul(a1, t2))),
    )
    dinv = f2_inv(d)
    return (f2_mul(t0, dinv), f2_mul(t1, dinv), f2_mul(t2, dinv))


def f6_eq(x, y) -> bool:
    return all(f2_eq(a, b) for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# Fq12 = Fq6[w] / (w^2 - v)

F12_ONE = (F6_ONE, F6_ZERO)


def f12(a, b):
    return (a, b)


def f12_add(x, y):
    return (f6_add(x[0], y[0]), f6_add(x[1], y[1]))


def f12_mul(x, y):
    a, b = x
    c, d = y
    ac = f6_mul(a, c)
    bd = f6_mul(b, d)
    abcd = f6_mul(f6_add(a, b), f6_add(c, d))
    return (
        f6_add(ac, f6_mul_by_v(bd)),
        f6_sub(f6_sub(abcd, ac), bd),
    )


def f12_sqr(x):
    a, b = x
    ab = f6_mul(a, b)
    t = f6_mul(f6_add(a, b), f6_add(a, f6_mul_by_v(b)))
    return (
        f6_sub(f6_sub(t, ab), f6_mul_by_v(ab)),
        f6_add(ab, ab),
    )


def f12_inv(x):
    a, b = x
    t = f6_inv(f6_sub(f6_sqr(a), f6_mul_by_v(f6_sqr(b))))
    return (f6_mul(a, t), f6_neg(f6_mul(b, t)))


def f12_conj(x):
    """x^(p^6); equals x^-1 on the cyclotomic subgroup."""
    return (x[0], f6_neg(x[1]))


def f12_eq(x, y) -> bool:
    return f6_eq(x[0], y[0]) and f6_eq(x[1], y[1])


def f12_pow(x, e: int):
    e = int(e)
    if e < 0:
        x = f12_inv(x)
        e = -e
    acc = F12_ONE
    for bit in bin(e)[2:] if e else "":
        acc = f12_sqr(acc)
        if bit == "1":
            acc = f12_mul(acc, x)
    return acc


# Frobenius: v^p = FROB_V * v and w^p = FROB_W * w with these Fq2 constants
assert (P - 1) % 6 == 0
FROB_W = f2_pow(XI, (P - 1) // 6)
FROB_V = f2_sqr(FROB_W)
FROB_V2 = f2_sqr(FROB_V)
FROB_W_V = f2_mul(FROB_V, FROB_W)
FROB_W_V2 = f2_mul(FROB_V2, FROB_W)


def f12_frob(x):
    """The p-power Frobenius endomorphism."""
    (a0, a1, a2), (b0, b1, b2) = x
    return (
        (f2_conj(a0), f2_mul(f2_conj(a1), FROB_V), f2_mul(f2_conj(a2), FROB_V2)),
        (
            f2_mul(f2_conj(b0), FROB_W),
            f2_mul(f2_conj(b1), FROB_W_V),
            f2_mul(f2_conj(b2), FROB_W_V2),
        ),
    )


def f12_frob2(x):
    return f12_frob(f12_frob(x))


# flat view: coefficients of w^0..w^5 over Fq2, used by serialization and the
# sparse line embedding (even indices sit in the first Fq6 limb, odd in the
# second, at position index // 2)


def f12_from_flat(c):
    return ((c[0], c[2], c[4]), (c[1], c[3], c[5]))


def f12_to_flat(x):
    (a0, a1, a2), (b0, b1, b2) = x
    return [a0, b0, a1, b1, a2, b2]


def f12_line(c0, c3, c5):
    """Sparse element c0 + c3*w^3 + c5*w^5."""
    return ((c0, F2_ZERO, F2_ZERO), (F2_ZERO, c3, c5))


def f12_mul_by_line(f, c0, c3, c5):
    """f * f12_line(c0, c3, c5) in 14 Fq2 multiplications (f12_mul takes
    18, plus the additions of the zero coefficients). The line is
    (c0, c3 v + c5 v^2) over w; its second limb costs 5 multiplications by
    Karatsuba, the first 3, and the cross term one dense f6_mul."""
    a, b = f
    ac = (f2_mul(a[0], c0), f2_mul(a[1], c0), f2_mul(a[2], c0))
    b0, b1, b2 = b
    t1 = f2_mul(b1, c3)
    t2 = f2_mul(b2, c5)
    cross = f2_sub(f2_sub(f2_mul(f2_add(b1, b2), f2_add(c3, c5)), t1), t2)
    bl = (  # b * (c3 v + c5 v^2), with v^3 = xi
        f2_mul_by_xi(cross),
        f2_add(f2_mul(b0, c3), f2_mul_by_xi(t2)),
        f2_add(f2_mul(b0, c5), t1),
    )
    t = f6_mul(f6_add(a, b), (c0, c3, c5))
    return (f6_add(ac, f6_mul_by_v(bl)), f6_sub(f6_sub(t, ac), bl))


def _f4_sqr(a, b):
    """(a + b s)^2 with s^2 = xi, for a, b in Fq2: the four Fq coefficients
    of a^2 + xi b^2 and 2ab, left unreduced."""
    a0, a1 = a
    b0, b1 = b
    A0, A1 = (a0 + a1) * (a0 - a1), 2 * a0 * a1  # a^2
    B0, B1 = (b0 + b1) * (b0 - b1), 2 * b0 * b1  # b^2
    s0, s1 = a0 + b0, a1 + b1
    return (
        A0 + B0 - B1,
        A1 + B0 + B1,
        (s0 + s1) * (s0 - s1) - A0 - B0,  # (a + b)^2 - a^2 - b^2
        2 * s0 * s1 - A1 - B1,
    )


def f12_cyclotomic_sqr(x):
    """x^2 for x in the cyclotomic subgroup (x^(p^6+1) == 1), by Granger and
    Scott, "Faster squaring in the cyclotomic subgroup of sixth degree
    extensions" (PKC 2010): three Fq4 squarings, 18 Fq multiplications,
    against f12_sqr's 12 Fq2 multiplications (36). x is read as three
    elements of Fq4 = Fq2[s], s = w^3, paired by power of w: (w^0, w^3),
    (w^1, w^4), (w^2, w^5); each output coefficient is 3t - 2z or 3t + 2z
    for a square's coefficient t and an input coefficient z, reduced once.
    The formula relies on x being unitary; on any other element the result
    is not x^2."""
    (z0, z2, z4), (z1, z3, z5) = x  # z_i is the coefficient of w^i
    a0r, a0i, a3r, a3i = _f4_sqr(z0, z3)
    b1r, b1i, b4r, b4i = _f4_sqr(z1, z4)
    c2r, c2i, c5r, c5i = _f4_sqr(z2, z5)
    x5r, x5i = c5r - c5i, c5r + c5i  # xi * c5
    return (
        (
            ((3 * a0r - 2 * z0[0]) % P, (3 * a0i - 2 * z0[1]) % P),
            ((3 * b1r - 2 * z2[0]) % P, (3 * b1i - 2 * z2[1]) % P),
            ((3 * c2r - 2 * z4[0]) % P, (3 * c2i - 2 * z4[1]) % P),
        ),
        (
            ((3 * x5r + 2 * z1[0]) % P, (3 * x5i + 2 * z1[1]) % P),
            ((3 * a3r + 2 * z3[0]) % P, (3 * a3i + 2 * z3[1]) % P),
            ((3 * b4r + 2 * z5[0]) % P, (3 * b4i + 2 * z5[1]) % P),
        ),
    )


# sanity pins, evaluated once at import
assert N == X_PARAM**4 - X_PARAM**2 + 1
assert P == (X_PARAM - 1) ** 2 * N // 3 + X_PARAM
assert (P**4 - P**2 + 1) % N == 0
assert f2_eq(f2_pow(XI, (P * P - 1) // 2), (P - 1, 0))  # xi is a non-square
# w^6 == xi in the tower coordinates
assert f12_eq(
    f12_pow((F6_ZERO, (F2_ONE, F2_ZERO, F2_ZERO)), 6),
    ((XI, F2_ZERO, F2_ZERO), F6_ZERO),
)
