"""BLS12-381 field tower: Fq, Fq2, Fq6, Fq12.

No pairing library exists on this deployment's package index, so the tower
is implemented here directly. Representation is functional: Fq elements are
ints (gmpy2 mpz when available), Fq2 = (a, b) meaning a + b*i with i^2 = -1,
Fq6 = (c0, c1, c2) over v with v^3 = xi = 1 + i, and Fq12 = (A, B) over w
with w^2 = v (so w^6 = xi). This is the conventional tower for this curve;
the Frobenius coefficients are computed at import time from xi rather than
transcribed, and the asserts at the bottom pin the algebra.

Every function takes and returns coefficients reduced into [0, p), so an
element has one form and == on the tuples is field equality. The hot
products (f6_mul, f12_mul, f12_sqr, f12_mul_by_line, and Karabina's
f12_compressed_sqr and f12_decompress_many) reduce once per output
coefficient: they work on the Fq coefficients directly, let sums,
differences and products grow unreduced, and take each output mod p at
the end. That is lazy reduction as in Aranha,
Karabina, Longa, Gebotys and Lopez, "Faster explicit formulas for
computing pairings over ordinary curves" (EUROCRYPT 2011). Unreduced
values may be negative; Python's % (and gmpy2's, which follows it) still
returns a value in [0, p). The small f2_* helpers reduce after every
operation and serve the code off the hot path.

The two Fq operations that Python's ints do slowly, exponentiation (the
square roots of fq_sqrt and f2_sqrt) and inversion (fq_inv), go through
one FqKernel, chosen once at import: gmpy2 when it is installed; else
mpz_powm and mpz_invert of the system libgmp, bound through ctypes
(gmp.py); else the builtin pow. All three give the same values, so no
output byte depends on the choice; KERNEL.name says which one runs. None
of them is constant-time (libgmp's mpz_powm and mpz_invert branch on
their inputs, like pow), and neither is any other code here.
"""

from __future__ import annotations

try:
    import gmpy2
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    gmpy2 = None
    mpz = int

from . import gmp

# base field prime and curve parameter (generator of the BLS family)
X_PARAM = -0xD201000000010000
P = mpz(int(
    "1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F624"
    "1EABFFFEB153FFFFB9FEFFFFFFFFAAAB", 16
))
N = mpz(0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001)
_SQRT_EXP = (P + 1) // 4  # a^((p+1)/4) is a root of a square a, as p = 3 mod 4


class FqKernel:
    """Exponentiation and inversion modulo p on reduced values: the only
    Fq operations too slow for Python's int arithmetic. name is gmpy2,
    libgmp or int."""

    def __init__(self, name, powm, invert):
        self.name = name
        self.powm = powm
        self.invert = invert


def select_kernel() -> FqKernel:
    """gmpy2 when installed, else the system libgmp through ctypes, else
    the builtin pow."""
    if gmpy2 is not None:
        return FqKernel("gmpy2", lambda a, e: pow(a, e, P), lambda a: gmpy2.invert(a, P))
    lib = gmp.load(int(P))
    if lib is not None:
        return FqKernel("libgmp", lib.powm, lib.invert)
    return FqKernel("int", lambda a, e: pow(a, e, P), lambda a: pow(a, -1, P))


KERNEL = select_kernel()


def fq_inv(a):
    a = a % P
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in Fq")
    return KERNEL.invert(a)


def fq_sqrt(a):
    """Square root in Fq (p = 3 mod 4); raises ValueError if none exists."""
    a = a % P
    r = KERNEL.powm(a, _SQRT_EXP)
    if r * r % P != a:
        raise ValueError("not a square in Fq")
    return r


# ---------------------------------------------------------------------------
# Fq2 = Fq[i] / (i^2 + 1)

F2_ZERO = (mpz(0), mpz(0))
F2_ONE = (mpz(1), mpz(0))
XI = (mpz(1), mpz(1))  # the Fq6 non-residue 1 + i


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


def f2_pow(x, e: int):
    acc = F2_ONE
    for bit in bin(int(e))[2:]:
        acc = f2_sqr(acc)
        if bit == "1":
            acc = f2_mul(acc, x)
    return acc


_INV2 = (P + 1) // 2  # 1/2 mod p


def f2_sqrt(x):
    """Square root in Fq2 by the complex method; ValueError if none.

    x = a + bi is a square in Fq2 exactly when its norm a^2 + b^2 is one in
    Fq, and fq_sqrt raises on a non-square, so the root costs two or three
    exponentiations and no Legendre symbols."""
    a, b = x
    if b == 0:
        r = KERNEL.powm(a, _SQRT_EXP)
        if r * r % P == a:
            return (r, mpz(0))
        # a is a non-square, so -a is a square (p = 3 mod 4) and sqrt(a) =
        # sqrt(-a) * i; (p + 1) / 4 is odd, so sqrt(-a) = -(a^((p+1)/4))
        return (mpz(0), (-r) % P)
    s = fq_sqrt(a * a + b * b)  # raises if x is not a square
    # exactly one of (a + s)/2 and (a - s)/2 is a square, and neither is 0
    # since b != 0: their product is -b^2/4, and -1 is not a square
    try:
        x0 = fq_sqrt((a + s) * _INV2)
    except ValueError:
        x0 = fq_sqrt((a - s) * _INV2)
    return (x0, b * fq_inv(2 * x0) % P)


# ---------------------------------------------------------------------------
# Fq6 = Fq2[v] / (v^3 - xi)

F6_ZERO = (F2_ZERO, F2_ZERO, F2_ZERO)
F6_ONE = (F2_ONE, F2_ZERO, F2_ZERO)


def f6_sub(x, y):
    return (f2_sub(x[0], y[0]), f2_sub(x[1], y[1]), f2_sub(x[2], y[2]))


def f6_neg(x):
    return (f2_neg(x[0]), f2_neg(x[1]), f2_neg(x[2]))


def _f6_prod(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """x * y over Fq6 on flat Fq coefficients (x = (a0 + a1 i) + (a2 + a3 i) v
    + (a4 + a5 i) v^2, y likewise), none of them reduced: Karatsuba with
    6 Fq2 products, each Fq2 product Karatsuba with 3 Fq products. Inputs
    may be any ints; the six outputs are unreduced."""
    # v_j = x_j * y_j
    m, n = a0 * b0, a1 * b1
    v0r, v0i = m - n, (a0 + a1) * (b0 + b1) - m - n
    m, n = a2 * b2, a3 * b3
    v1r, v1i = m - n, (a2 + a3) * (b2 + b3) - m - n
    m, n = a4 * b4, a5 * b5
    v2r, v2i = m - n, (a4 + a5) * (b4 + b5) - m - n
    # t0 = (x1 + x2)(y1 + y2) - v1 - v2
    s0, s1, u0, u1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    m, n = s0 * u0, s1 * u1
    t0r = m - n - v1r - v2r
    t0i = (s0 + s1) * (u0 + u1) - m - n - v1i - v2i
    # t1 = (x0 + x1)(y0 + y1) - v0 - v1
    s0, s1, u0, u1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    m, n = s0 * u0, s1 * u1
    t1r = m - n - v0r - v1r
    t1i = (s0 + s1) * (u0 + u1) - m - n - v0i - v1i
    # t2 = (x0 + x2)(y0 + y2) - v0 - v2
    s0, s1, u0, u1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    m, n = s0 * u0, s1 * u1
    t2r = m - n - v0r - v2r
    t2i = (s0 + s1) * (u0 + u1) - m - n - v0i - v2i
    # (v0 + xi t0, t1 + xi v2, t2 + v1), xi (r + s i) = (r - s) + (r + s) i
    return (
        v0r + t0r - t0i, v0i + t0r + t0i,
        t1r + v2r - v2i, t1i + v2r + v2i,
        t2r + v1r, t2i + v1i,
    )


def f6_mul(x, y):
    (a0, a1), (a2, a3), (a4, a5) = x
    (b0, b1), (b2, b3), (b4, b5) = y
    c0, c1, c2, c3, c4, c5 = _f6_prod(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    return ((c0 % P, c1 % P), (c2 % P, c3 % P), (c4 % P, c5 % P))


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


# ---------------------------------------------------------------------------
# Fq12 = Fq6[w] / (w^2 - v)

F12_ONE = (F6_ONE, F6_ZERO)


def _f12_out(c0, c1, c2, c3, c4, c5, d0, d1, d2, d3, d4, d5):
    """An Fq12 element from its 12 unreduced flat coefficients, first limb
    c (over Fq6) then d, each reduced once."""
    return (
        ((c0 % P, c1 % P), (c2 % P, c3 % P), (c4 % P, c5 % P)),
        ((d0 % P, d1 % P), (d2 % P, d3 % P), (d4 % P, d5 % P)),
    )


def f12_mul(x, y):
    """Karatsuba over Fq6: (a + bw)(c + dw) = ac + v bd + ((a+b)(c+d) - ac
    - bd) w, three Fq6 products; 54 Fq multiplications and 12 reductions."""
    ((a0, a1), (a2, a3), (a4, a5)), ((b0, b1), (b2, b3), (b4, b5)) = x
    ((c0, c1), (c2, c3), (c4, c5)), ((d0, d1), (d2, d3), (d4, d5)) = y
    e0, e1, e2, e3, e4, e5 = _f6_prod(a0, a1, a2, a3, a4, a5, c0, c1, c2, c3, c4, c5)
    g0, g1, g2, g3, g4, g5 = _f6_prod(b0, b1, b2, b3, b4, b5, d0, d1, d2, d3, d4, d5)
    h0, h1, h2, h3, h4, h5 = _f6_prod(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        c0 + d0, c1 + d1, c2 + d2, c3 + d3, c4 + d4, c5 + d5,
    )
    # ac + v bd, with v (g_0, g_1, g_2) = (xi g_2, g_0, g_1)
    return _f12_out(
        e0 + g4 - g5, e1 + g4 + g5, e2 + g0, e3 + g1, e4 + g2, e5 + g3,
        h0 - e0 - g0, h1 - e1 - g1, h2 - e2 - g2,
        h3 - e3 - g3, h4 - e4 - g4, h5 - e5 - g5,
    )


def f12_sqr(x):
    """(a + bw)^2 = (a + b)(a + vb) - ab - v ab + 2ab w: two Fq6 products,
    12 reductions."""
    ((a0, a1), (a2, a3), (a4, a5)), ((b0, b1), (b2, b3), (b4, b5)) = x
    e0, e1, e2, e3, e4, e5 = _f6_prod(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    # (a + b)(a + v b), v b = (xi b_2, b_0, b_1)
    h0, h1, h2, h3, h4, h5 = _f6_prod(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        a0 + b4 - b5, a1 + b4 + b5, a2 + b0, a3 + b1, a4 + b2, a5 + b3,
    )
    # h - ab - v ab
    return _f12_out(
        h0 - e0 - e4 + e5, h1 - e1 - e4 - e5, h2 - e2 - e0,
        h3 - e3 - e1, h4 - e4 - e2, h5 - e5 - e3,
        2 * e0, 2 * e1, 2 * e2, 2 * e3, 2 * e4, 2 * e5,
    )


def f12_inv(x):
    a, b = x
    t = f6_inv(f6_sub(f6_mul(a, a), f6_mul_by_v(f6_mul(b, b))))
    return (f6_mul(a, t), f6_neg(f6_mul(b, t)))


def f12_conj(x):
    """x^(p^6); equals x^-1 on the cyclotomic subgroup."""
    return (x[0], f6_neg(x[1]))


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


# flat view: coefficients of w^0..w^5 over Fq2, used by serialization (even
# indices sit in the first Fq6 limb, odd in the second, at position index // 2)


def f12_to_flat(x):
    (a0, a1, a2), (b0, b1, b2) = x
    return [a0, b0, a1, b1, a2, b2]


def f12_mul_by_line(f, c0, c3, c5):
    """f times the sparse line c0 + c3 w^3 + c5 w^5 in 14 Fq2
    multiplications (f12_mul takes 18, plus the additions of the zero
    coefficients) and 12 reductions. The line is (c0, c3 v + c5 v^2) over
    w; with f = (a, b), the product is (a c0 + v bl, (a + b)(c0, c3, c5)
    - a c0 - bl) for bl = b (c3 v + c5 v^2). a c0 costs 3
    multiplications, bl 5 by Karatsuba, and the cross term one dense Fq6
    product."""
    ((a0, a1), (a2, a3), (a4, a5)), ((b0, b1), (b2, b3), (b4, b5)) = f
    p0, p1 = c0
    q0, q1 = c3
    r0, r1 = c5
    # a c0, one Fq2 product per coefficient of a
    m, n = a0 * p0, a1 * p1
    e0, e1 = m - n, (a0 + a1) * (p0 + p1) - m - n
    m, n = a2 * p0, a3 * p1
    e2, e3 = m - n, (a2 + a3) * (p0 + p1) - m - n
    m, n = a4 * p0, a5 * p1
    e4, e5 = m - n, (a4 + a5) * (p0 + p1) - m - n
    # bl = (xi cross, b0 c3 + xi t2, b0 c5 + t1), v^3 = xi, where t1 =
    # b1 c3, t2 = b2 c5 and cross = (b1 + b2)(c3 + c5) - t1 - t2
    m, n = b2 * q0, b3 * q1
    t1r, t1i = m - n, (b2 + b3) * (q0 + q1) - m - n
    m, n = b4 * r0, b5 * r1
    t2r, t2i = m - n, (b4 + b5) * (r0 + r1) - m - n
    s0, s1, u0, u1 = b2 + b4, b3 + b5, q0 + r0, q1 + r1
    m, n = s0 * u0, s1 * u1
    xr = m - n - t1r - t2r
    xi_ = (s0 + s1) * (u0 + u1) - m - n - t1i - t2i
    m, n = b0 * q0, b1 * q1
    l2, l3 = m - n + t2r - t2i, (b0 + b1) * (q0 + q1) - m - n + t2r + t2i
    m, n = b0 * r0, b1 * r1
    l4, l5 = m - n + t1r, (b0 + b1) * (r0 + r1) - m - n + t1i
    l0, l1 = xr - xi_, xr + xi_
    h0, h1, h2, h3, h4, h5 = _f6_prod(
        a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
        p0, p1, q0, q1, r0, r1,
    )
    # a c0 + v bl, with v (l_0, l_1, l_2) = (xi l_2, l_0, l_1)
    return _f12_out(
        e0 + l4 - l5, e1 + l4 + l5, e2 + l0, e3 + l1, e4 + l2, e5 + l3,
        h0 - e0 - l0, h1 - e1 - l1, h2 - e2 - l2,
        h3 - e3 - l3, h4 - e4 - l4, h5 - e5 - l5,
    )


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


# Karabina's compressed squaring ("Squaring in cyclotomic subgroups", Math.
# Comp. 2013). On the cyclotomic subgroup (x^(p^6+1) == 1) x reads as three
# elements of Fq4 = Fq2[s], s = w^3, paired by power of w: (w^0, w^3),
# (w^1, w^4), (w^2, w^5). Each coefficient of x^2 is 3t - 2z or 3t + 2z,
# for z the coefficient of x at the same power of w and t one of the
# square of a pair (Granger and Scott, PKC 2010). The pairs (w^1, w^4) and
# (w^2, w^5) of x^2 need only the squares of those two pairs, and the pair
# (w^0, w^3) can be recomputed from them. In Karabina's numbering g0..g5 are
# the coefficients of w^0, w^3, w^1, w^4, w^2, w^5, and the compressed form
# is (g2, g3, g4, g5).


def f12_compress(x):
    """(g2, g3, g4, g5) of a cyclotomic x: its w^1, w^4, w^2, w^5 coefficients."""
    (_, z2, z4), (z1, _, z5) = x
    return z1, z4, z2, z5


def f12_compressed_sqr(c):
    """The compressed form of x^2, from x's compressed form c: two Fq4
    squarings, 12 Fq multiplications and 8 reductions, against f12_sqr's
    36 Fq multiplications and 12 reductions. Correct only for cyclotomic x."""
    g2, g3, g4, g5 = c
    s0r, s0i, p0r, p0i = _f4_sqr(g2, g3)  # g2^2 + xi g3^2, 2 g2 g3
    s1r, s1i, p1r, p1i = _f4_sqr(g4, g5)  # g4^2 + xi g5^2, 2 g4 g5
    return (
        ((3 * (p1r - p1i) + 2 * g2[0]) % P, (3 * (p1r + p1i) + 2 * g2[1]) % P),
        ((3 * s1r - 2 * g3[0]) % P, (3 * s1i - 2 * g3[1]) % P),
        ((3 * s0r - 2 * g4[0]) % P, (3 * s0i - 2 * g4[1]) % P),
        ((3 * p0r + 2 * g5[0]) % P, (3 * p0i + 2 * g5[1]) % P),
    )


def f12_decompress_many(cs):
    """The cyclotomic elements with compressed forms cs, with one Fq
    inversion for all of them, or None if some g2 is 0. With g2 != 0,
    g1 = (xi g5^2 + 3 g4^2 - 2 g3) / 4 g2 and g0 = xi (2 g1^2 + g2 g5 -
    3 g3 g4) + 1. The inverses of the 4 g2 come from their norms, which
    Montgomery's trick inverts together: 1/d = conj(d) / (d0^2 + d1^2)."""
    if any(g2[0] == 0 and g2[1] == 0 for g2, _, _, _ in cs):
        return None
    nums, dens, norms = [], [], []
    for g2, g3, g4, g5 in cs:
        a0, a1 = g5
        b0, b1 = g4
        A0, A1 = (a0 + a1) * (a0 - a1), 2 * a0 * a1  # g5^2
        B0, B1 = (b0 + b1) * (b0 - b1), 2 * b0 * b1  # g4^2
        nums.append((A0 - A1 + 3 * B0 - 2 * g3[0], A0 + A1 + 3 * B1 - 2 * g3[1]))
        d0, d1 = 4 * g2[0], 4 * g2[1]
        dens.append((d0, d1))
        norms.append((d0 * d0 + d1 * d1) % P)
    prefix = [norms[0]]
    for n in norms[1:]:
        prefix.append(prefix[-1] * n % P)
    inv = fq_inv(prefix[-1])
    out = [None] * len(cs)
    for i in range(len(cs) - 1, -1, -1):
        ninv = inv * prefix[i - 1] % P if i else inv
        inv = inv * norms[i] % P
        g2, g3, g4, g5 = cs[i]
        (n0, n1), (d0, d1) = nums[i], dens[i]
        m, n = n0 * d0, n1 * d1  # num conj(den)
        g1 = ((m + n) * ninv % P, ((n0 + n1) * (d0 - d1) - m + n) * ninv % P)
        e0, e1 = g1
        m, n = g2[0] * g5[0], g2[1] * g5[1]  # t = 2 g1^2 + g2 g5 - 3 g3 g4
        k, l = g3[0] * g4[0], g3[1] * g4[1]
        t0 = 2 * (e0 + e1) * (e0 - e1) + m - n - 3 * (k - l)
        t1 = (
            4 * e0 * e1
            + (g2[0] + g2[1]) * (g5[0] + g5[1]) - m - n
            - 3 * ((g3[0] + g3[1]) * (g4[0] + g4[1]) - k - l)
        )
        g0 = ((t0 - t1 + 1) % P, (t0 + t1) % P)
        out[i] = ((g0, g4, g3), (g2, g1, g5))
    return out


# sanity pins, evaluated once at import
assert N == X_PARAM**4 - X_PARAM**2 + 1
assert P == (X_PARAM - 1) ** 2 * N // 3 + X_PARAM
assert (P**4 - P**2 + 1) % N == 0
assert f2_pow(XI, (P * P - 1) // 2) == (P - 1, 0)  # xi is a non-square
# w^6 == xi in the tower coordinates
assert f12_pow((F6_ZERO, (F2_ONE, F2_ZERO, F2_ZERO)), 6) == (
    (XI, F2_ZERO, F2_ZERO), F6_ZERO
)
