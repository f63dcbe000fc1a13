"""BLS12-381 curve arithmetic, endomorphisms and point serialization.

Both curves are short Weierstrass y^2 = x^3 + b with a = 0: E over Fq with
b = 4, and the twist E' over Fq2 with b = 4(1+i). Affine points are (x, y)
tuples of reduced field values, so == compares them. None is the point
at infinity, and its only form, in Jacobian coordinates too: x^3 = -b has
no root in Fq or Fq2, so no point has y = 0 (order 2), a finite Jacobian
point has Y = y Z^3 != 0, and doubling (Z' = 2YZ) and mixed addition
(Z' = Z H, H != 0) never give Z = 0; P + (-P) returns None.

The affine arithmetic (add, double, subset_sums and the normalisations),
the compressed-point codec and the hash to the curve are written once over
a small field-ops shim, _FqOps or _Fq2Ops, and instantiated for both
fields; g1_/g2_to_bytes, g1_/g2_from_bytes and hash_to_g1/g2 are thin
entry points. The two Jacobian steps, _double_jac and _add_mixed, are
written out on ints for E (CurveFq) and on coefficient pairs for E'
(CurveFq2), each output coefficient reduced once, as fields.py's products
do (lazy reduction, Aranha, Karabina, Longa, Gebotys and Lopez,
EUROCRYPT 2011). Every scalar multiplication is one Curve.ladder over
columns of affine points, most significant first: one doubling per
column, one mixed addition per point and one inversion. The callers only
turn digits into columns, so to count a multiplication's work, count its
steps. Curve.mul is double-and-add on it, one column per bit of k, valid
for any point on the curve.

The hot group operations use two endomorphisms instead of long generic
multiplications (x = -0xd201000000010000 is the curve parameter):

* phi(x, y) = (beta x, y) on E, with beta a cube root of unity in Fq,
  acts as [-x^2] on the order-n subgroup G1; psi (untwist, Frobenius,
  twist) on E' acts as [x] on the order-n subgroup G2.
* Subgroup checks: P is in G1 iff phi(P) == [-x^2]P, and in G2 iff
  psi(P) == [x]P (Scott, "A note on group membership tests for G1, G2 and
  GT on BLS pairing-friendly curves", 2021). One 128-bit or 64-bit ladder
  replaces a 255-bit one.
* Cofactor clearing in hash_to_g2: [x^2-x-1]P + [x-1]psi(P) + psi^2(2P),
  which equals [H2_EFF]P on every point of E' (RFC 9380 appendix G.3,
  after Budroni and Pintore, "Efficient hash maps to G2 on BLS curves",
  2017), so hash outputs are unchanged. hash_to_g1 keeps [H1]: RFC 9380's
  G1 multiplier 1-x is a different scalar and would change outputs.
* SPLITS, one entry per curve, splits k mod n into two digits in base x^2
  on G1 (GLV) or four in base |x| on G2 (GLS), and maps a point worth [d]
  to the one worth [d x^2] (-phi) or [d |x|^i] (-psi, psi^2, -psi^3).
  table_mul recodes each digit in width-5 NAF (WNAF_WIDTH) and runs one
  ladder over tables(P): the odd multiples [P, 3P, ..., 15P], built in
  Jacobian coordinates with one inversion, and their images. A nonzero
  digit is one mixed addition, against one per bit column of a binary
  ladder (about 43 against 96 on G1, 44 against 60 on G2), and
  BlsG0/BlsG1.exp_many runs several scalars on one set of tables. Only
  subgroup points may be passed (decoded with the subgroup check, hashed
  and cleared, or generators): on a point of small order an odd multiple
  is the identity and the table's inversion fails.
* Powers of the generators (BlsG0/BlsG1.exp_base: DLEQ nonces and
  responses) use FixedBaseComb on the same splits, each digit cut into 8
  teeth (16-bit spacing on G1, 8-bit on G2): every digit looks up one
  256-entry affine table of subset sums of the teeth and maps the entry,
  so one ladder of 15 doublings on G1 or 7 on G2 serves all digits. The
  tables take about 54 KB for G1 and 120 KB for G2 as Python objects and
  are built on the first exp_base call, never at import or by key set-up,
  so a server builds them after it starts listening.

No kernel here is constant-time: the columns follow the scalar's digits,
for sk and for the nonce k alike, and since the response is z = k + c*sk,
k is as secret as sk. A regular recoding (fixed digit count, no zero
digits) can run on the same table of odd multiples, as one more producer
of columns. The square roots and inversions under these curves
(fields.KERNEL) are not constant-time either.

Serialization follows the common compressed convention for this curve:
big-endian x with three flag bits on the first byte (compressed, infinity,
sign = y is the lexicographically larger root); 48 bytes for E, 96 for E'
with the c1 limb first. decode rejects non-canonical field values, bad
flags, off-curve x, and points outside the order-n subgroup.
"""

from __future__ import annotations

import hashlib

from ...errors import InvalidEncoding
from ..base import tagged
from .fields import (
    F2_ONE,
    FROB_V,
    FROB_W_V,
    N,
    P,
    X_PARAM,
    f2_add,
    f2_inv,
    f2_mul,
    f2_muls,
    f2_neg,
    f2_sqr,
    f2_sqrt,
    f2_sub,
    fq_inv,
    fq_sqrt,
    mpz,
)

# cofactors: h1 for E, and the effective cofactor that clears E' into the
# order-n subgroup (clear_cofactor_g2 computes [H2_EFF] with psi)
H1 = mpz(0x396C8C005555E1568C00AAAB0000AAAB)
H2_EFF = mpz(int(
    "BC69F08F2EE75B3584C6A0EA91B352888E2A8E9145AD7689986FF031508FFE13"
    "29C2F178731DB956D82BF015D1212B02EC0EC69D7477C1AE954CBC06689F6A35"
    "9894C0ADEBBF6B4E8020005AAA95551", 16
))


class _FqOps:
    degree = 1

    @staticmethod
    def add(a, b):
        return (a + b) % P

    @staticmethod
    def sub(a, b):
        return (a - b) % P

    @staticmethod
    def neg(a):
        return (-a) % P

    @staticmethod
    def mul(a, b):
        return a * b % P

    @staticmethod
    def sqr(a):
        return a * a % P

    muls = mul  # the scalars are Fq elements too
    inv = staticmethod(fq_inv)
    sqrt = staticmethod(fq_sqrt)

    # the coefficients as ints, in wire order, and back
    @staticmethod
    def coeffs(a):
        return (int(a),)

    @staticmethod
    def from_coeffs(cs):
        return mpz(cs[0])


class _Fq2Ops:
    degree = 2
    add = staticmethod(f2_add)
    sub = staticmethod(f2_sub)
    neg = staticmethod(f2_neg)
    mul = staticmethod(f2_mul)
    sqr = staticmethod(f2_sqr)
    inv = staticmethod(f2_inv)
    sqrt = staticmethod(f2_sqrt)
    muls = staticmethod(f2_muls)

    # the coefficients as ints, in wire order (c1 first), and back
    @staticmethod
    def coeffs(a):
        return (int(a[1]), int(a[0]))

    @staticmethod
    def from_coeffs(cs):
        return (mpz(cs[1]), mpz(cs[0]))


WNAF_WIDTH = 5  # tables: 2^(w-2) = 8 odd multiples
WNAF_TABLE = 1 << (WNAF_WIDTH - 2)


def wnaf(k: int):
    """The width-w NAF of k >= 0 for w = WNAF_WIDTH, least significant
    digit first: every nonzero digit is odd and below 2^(w-1) in absolute
    value, at most one of any w consecutive digits is nonzero, and the top
    digit is nonzero."""
    digits = []
    full, half = 1 << WNAF_WIDTH, 1 << (WNAF_WIDTH - 1)
    while k:
        if k & 1:
            d = k & (full - 1)
            if d >= half:
                d -= full
            k -= d
            digits.append(d)
        else:
            digits.append(0)
        k >>= 1
    return digits


class Curve:
    """y^2 = x^3 + b over the field F; points affine (x, y) or None. The
    subclasses supply the Jacobian steps the ladder runs on."""

    def __init__(self, F, b):
        self.F = F
        self.b = b

    def rhs(self, x):  # x^3 + b
        F = self.F
        return F.add(F.mul(F.sqr(x), x), self.b)

    def is_on_curve(self, pt) -> bool:
        if pt is None:
            return True
        x, y = pt
        return self.F.sqr(y) == self.rhs(x)

    def neg(self, pt):
        if pt is None:
            return None
        return (pt[0], self.F.neg(pt[1]))

    def add(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        F = self.F
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:  # p2 is p1 or -p1
            return self.double(p1) if y1 == y2 else None
        lam = F.mul(F.sub(y2, y1), F.inv(F.sub(x2, x1)))
        x3 = F.sub(F.sub(F.sqr(lam), x1), x2)
        return (x3, F.sub(F.mul(lam, F.sub(x1, x3)), y1))

    def double(self, pt):
        if pt is None:
            return None
        F = self.F
        x, y = pt
        lam = F.mul(F.muls(F.sqr(x), 3), F.inv(F.muls(y, 2)))
        x3 = F.sub(F.sqr(lam), F.muls(x, 2))
        return (x3, F.sub(F.mul(lam, F.sub(x, x3)), y))

    def subset_sums(self, points):
        """Affine table whose entry at bit mask j is the sum of the points
        whose bits are set in j (entry 0 is None, the identity)."""
        table = [None]
        for pt in points:
            table += [self.add(t, pt) for t in table]
        return table

    def ladder(self, columns):
        """The sum over columns, most significant first, of 2^i times the sum
        of column i's affine points (not None), i counted from the last
        column: acc = 2 acc + sum(column) in Jacobian coordinates, one
        doubling per column once acc holds a point, one mixed addition per
        point, and one inversion at the end. Every scalar multiplication
        runs here; what differs is how its digits become columns."""
        acc = None  # Jacobian (X, Y, Z)
        for column in columns:
            if acc is not None:
                acc = self._double_jac(*acc)
            for pt in column:
                acc = self._add_mixed(acc, pt)
        return self._affine(acc)

    def _affine(self, acc):
        """The affine point of a Jacobian accumulator (None is infinity), by
        one inversion."""
        if acc is None:
            return None
        return self._scaled(acc, self.F.inv(acc[2]))

    def _scaled(self, acc, zinv):
        F = self.F
        zinv2 = F.sqr(zinv)
        return (F.mul(acc[0], zinv2), F.mul(F.mul(acc[1], zinv2), zinv))

    def odd_multiples(self, pt):
        """The affine table [P, 3P, 5P, ..., (2^(w-1) - 1)P] for w =
        WNAF_WIDTH, built in Jacobian coordinates with one inversion, for a
        point P of order above 2^(w-1) (no entry may be the identity; on a
        point of small order some mixed addition returns None). 2P =
        (X, Y, Z) is the affine point (X, Y) of the isomorphic curve
        y^2 = x^3 + b Z^6, on which P is (x Z^2, y Z^3); _add_mixed and
        _double_jac never read b (a = 0), so the odd multiples are mixed
        additions of (X, Y) there, and each Z on E is its Z there times Z.
        Montgomery's trick inverts all of them with one inversion."""
        F = self.F
        X, Y, Z = self._double_jac(pt[0], pt[1], self.one)
        zz = F.sqr(Z)
        acc = (F.mul(pt[0], zz), F.mul(F.mul(pt[1], zz), Z), self.one)
        jac = []
        for _ in range(WNAF_TABLE - 1):
            acc = self._add_mixed(acc, (X, Y))
            jac.append((acc[0], acc[1], F.mul(acc[2], Z)))
        prefix = [jac[0][2]]
        for j in jac[1:]:
            prefix.append(F.mul(prefix[-1], j[2]))
        inv = F.inv(prefix[-1])
        table = [None] * len(jac)
        for i in range(len(jac) - 1, -1, -1):
            zinv = F.mul(inv, prefix[i - 1]) if i else inv
            inv = F.mul(inv, jac[i][2])
            table[i] = self._scaled(jac[i], zinv)
        return [pt] + table

    def wnaf_ladder(self, tables, digits):
        """sum of [digits[i]] points[i] for digits >= 0, where tables[i] is
        (odd_multiples(points[i]), the negations of those): one interleaved
        ladder over the digits' width-w NAFs, one doubling per NAF position
        below the top, one mixed addition per nonzero NAF digit."""
        nafs = [wnaf(int(d)) for d in digits]
        top = max(map(len, nafs))
        cols = list(zip(*(naf + [0] * (top - len(naf)) for naf in nafs)))
        return self.ladder(
            [pos[d >> 1] if d > 0 else neg[-d >> 1] for d, (pos, neg) in zip(col, tables) if d]
            for col in reversed(cols)
        )

    def mul(self, pt, k: int):
        """Generic scalar multiplication: plain double-and-add, valid for any
        point on the curve (subgroup checks, cofactor clearing, the comb's
        teeth and the tests' oracle)."""
        k = int(k)
        if k < 0:
            return self.mul(self.neg(pt), -k)
        if pt is None:
            return None
        return self.ladder((pt,) if bit == "1" else () for bit in bin(k)[2:])


class CurveFq(Curve):
    """E over Fq: the Jacobian steps written out on ints."""

    name = "curve"
    one = mpz(1)

    def _double_jac(self, X, Y, Z):
        # dbl-2009-l for a = 0, with D = 2((X + B)^2 - A - C) = 4XB
        A = X * X % P
        B = Y * Y % P
        D = 4 * X * B % P
        E = 3 * A
        X3 = (E * E - 2 * D) % P
        return X3, (E * (D - X3) - 8 * B * B) % P, 2 * Y * Z % P

    def _add_mixed(self, acc, pt):
        """Jacobian accumulator (None is infinity) plus affine pt."""
        x2, y2 = pt
        if acc is None:
            return x2, y2, self.one
        X, Y, Z = acc
        Z1Z1 = Z * Z % P
        H = (x2 * Z1Z1 - X) % P
        R = (y2 * (Z * Z1Z1 % P) - Y) % P
        if H == 0:
            return self._double_jac(X, Y, Z) if R == 0 else None
        HH = H * H % P
        HHH = H * HH % P
        V = X * HH % P
        X3 = (R * R - HHH - 2 * V) % P
        return X3, (R * (V - X3) - Y * HHH) % P, Z * H % P


class CurveFq2(Curve):
    """E' over Fq2: the Jacobian steps written out on the coefficient pairs,
    each Fq2 product by Karatsuba, (a + bi)(c + di) = (ac - bd) +
    ((a + b)(c + d) - ac - bd) i, and each coefficient reduced once."""

    name = "twist"
    one = F2_ONE

    def _double_jac(self, X, Y, Z):
        # dbl-2009-l for a = 0, as CurveFq._double_jac
        x0, x1 = X
        y0, y1 = Y
        z0, z1 = Z
        a0, a1 = (x0 + x1) * (x0 - x1) % P, 2 * x0 * x1 % P  # A = X^2
        b0, b1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # B = Y^2
        c0, c1 = (b0 + b1) * (b0 - b1), 2 * b0 * b1  # C = B^2, unreduced
        m, n = x0 * b0, x1 * b1  # D = 4XB
        d0, d1 = 4 * (m - n) % P, 4 * ((x0 + x1) * (b0 + b1) - m - n) % P
        e0, e1 = 3 * a0, 3 * a1  # E = 3A
        X3 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P, (2 * e0 * e1 - 2 * d1) % P
        u0, u1 = d0 - X3[0], d1 - X3[1]  # Y3 = E(D - X3) - 8C
        m, n = e0 * u0, e1 * u1
        Y3 = (m - n - 8 * c0) % P, ((e0 + e1) * (u0 + u1) - m - n - 8 * c1) % P
        m, n = y0 * z0, y1 * z1  # Z3 = 2YZ
        Z3 = 2 * (m - n) % P, 2 * ((y0 + y1) * (z0 + z1) - m - n) % P
        return X3, Y3, Z3

    def _add_mixed(self, acc, pt):
        """Jacobian accumulator (None is infinity) plus affine pt."""
        if acc is None:
            return pt[0], pt[1], self.one
        (X0, X1), (Y0, Y1), (Z0, Z1) = acc
        (x0, x1), (y0, y1) = pt
        zz0, zz1 = (Z0 + Z1) * (Z0 - Z1) % P, 2 * Z0 * Z1 % P  # Z1Z1 = Z^2
        m, n = x0 * zz0, x1 * zz1  # H = x2 Z1Z1 - X
        h0 = (m - n - X0) % P
        h1 = ((x0 + x1) * (zz0 + zz1) - m - n - X1) % P
        m, n = Z0 * zz0, Z1 * zz1  # Z^3
        w0, w1 = (m - n) % P, ((Z0 + Z1) * (zz0 + zz1) - m - n) % P
        m, n = y0 * w0, y1 * w1  # R = y2 Z^3 - Y
        r0 = (m - n - Y0) % P
        r1 = ((y0 + y1) * (w0 + w1) - m - n - Y1) % P
        if h0 == 0 and h1 == 0:
            return self._double_jac(*acc) if r0 == 0 and r1 == 0 else None
        hh0, hh1 = (h0 + h1) * (h0 - h1) % P, 2 * h0 * h1 % P  # HH = H^2
        m, n = h0 * hh0, h1 * hh1  # HHH = H HH
        g0, g1 = (m - n) % P, ((h0 + h1) * (hh0 + hh1) - m - n) % P
        m, n = X0 * hh0, X1 * hh1  # V = X HH
        v0, v1 = (m - n) % P, ((X0 + X1) * (hh0 + hh1) - m - n) % P
        # X3 = R^2 - HHH - 2V
        X3 = (
            ((r0 + r1) * (r0 - r1) - g0 - 2 * v0) % P,
            (2 * r0 * r1 - g1 - 2 * v1) % P,
        )
        # Y3 = R (V - X3) - Y HHH
        u0, u1 = v0 - X3[0], v1 - X3[1]
        m, n = r0 * u0, r1 * u1
        k, l = Y0 * g0, Y1 * g1
        Y3 = (
            (m - n - k + l) % P,
            ((r0 + r1) * (u0 + u1) - m - n - (Y0 + Y1) * (g0 + g1) + k + l) % P,
        )
        m, n = Z0 * h0, Z1 * h1  # Z3 = Z H
        return X3, Y3, ((m - n) % P, ((Z0 + Z1) * (h0 + h1) - m - n) % P)


B1 = mpz(4)
B2 = (mpz(4), mpz(4))  # 4 * (1 + i)

curve_g1 = CurveFq(_FqOps, B1)
curve_g2 = CurveFq2(_Fq2Ops, B2)

G1_GEN = (
    mpz(int(
        "17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC58"
        "6C55E83FF97A1AEFFB3AF00ADB22C6BB", 16)),
    mpz(int(
        "08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3ED"
        "D03CC744A2888AE40CAA232946C5E7E1", 16)),
)
G2_GEN = (
    (
        mpz(int(
            "024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D177"
            "0BAC0326A805BBEFD48056C8C121BDB8", 16)),
        mpz(int(
            "13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049"
            "334CF11213945D57E5AC7D055D042B7E", 16)),
    ),
    (
        mpz(int(
            "0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C"
            "923AC9CC3BACA289E193548608B82801", 16)),
        mpz(int(
            "0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB"
            "3F370D275CEC1DA1AAA9075FF05F79BE", 16)),
    ),
)

assert curve_g1.is_on_curve(G1_GEN)
assert curve_g2.is_on_curve(G2_GEN)


# ---------------------------------------------------------------------------
# endomorphisms: phi on E, psi on E'

# psi = untwist, Frobenius, twist: (x, y) -> (conj(x) / xi^((p-1)/3),
# conj(y) / xi^((p-1)/2)), with the constants fields.py derives for f12_frob
_PSI_X = f2_inv(FROB_V)
_PSI_Y = f2_inv(FROB_W_V)


def _conj_scaled(cx, cy):
    """(x, y) -> (conj(x) cx, conj(y) cy) on affine points of E' (not None):
    psi and its odd powers, each with its constants, in 8 Fq products."""
    (a0, a1), (b0, b1) = cx, cy

    def image(pt):
        (x0, x1), (y0, y1) = pt
        return (
            ((x0 * a0 + x1 * a1) % P, (x0 * a1 - x1 * a0) % P),
            ((y0 * b0 + y1 * b1) % P, (y0 * b1 - y1 * b0) % P),
        )

    return image


def _norm(c):
    return (c[0] * c[0] + c[1] * c[1]) % P


# psi^2(x, y) = (x conj(cx) cx, y conj(cy) cy) = (x N(cx), y N(cy)): a scaling
# by two elements of Fq, 4 Fq products instead of psi's 8
_PSI2_X, _PSI2_Y = _norm(_PSI_X), _norm(_PSI_Y)
_psi_affine = _conj_scaled(_PSI_X, _PSI_Y)


def psi(pt):
    """The twist endomorphism; acts as [x] on the order-n subgroup of E'."""
    return None if pt is None else _psi_affine(pt)


def psi2(pt):
    """psi(psi(P)), as a scaling by Fq constants; [x^2] on the subgroup."""
    if pt is None:
        return None
    (x0, x1), (y0, y1) = pt
    return (
        (x0 * _PSI2_X % P, x1 * _PSI2_X % P),
        (y0 * _PSI2_Y % P, y1 * _PSI2_Y % P),
    )


# beta is a primitive cube root of unity in Fq: the norm of xi^((p-1)/3) is
# xi^((p^2-1)/3), and xi is not a cube in Fq2 (the Fq6 tower needs that).
# Of beta and beta^2, take the one for which phi acts as [-x^2] on G1.
_U = mpz(-X_PARAM)  # |x|
_X2 = _U * _U
_OMEGA = _norm(FROB_V)
_NEG_X2_G1 = curve_g1.mul(G1_GEN, -_X2)
BETA = _OMEGA if G1_GEN[0] * _OMEGA % P == _NEG_X2_G1[0] else _OMEGA**2 % P
assert _OMEGA != 1 and pow(_OMEGA, 3, P) == 1
assert (G1_GEN[0] * BETA % P, G1_GEN[1]) == _NEG_X2_G1


def phi(pt):
    """(x, y) -> (beta x, y) on E; acts as [-x^2] on the order-n subgroup."""
    if pt is None:
        return None
    return (pt[0] * BETA % P, pt[1])


def in_subgroup_g1(pt) -> bool:
    """phi(P) == [-x^2]P. phi + [x^2] has degree x^4 - x^2 + 1 = n, so its
    kernel is exactly the order-n subgroup (Scott 2021)."""
    return phi(pt) == curve_g1.mul(pt, -_X2)


def in_subgroup_g2(pt) -> bool:
    """psi(P) == [x]P (Scott 2021). The kernel of psi - [x] has h1 * n
    points and E'(Fq2) has h2 * n, so with gcd(h1, h2) = 1 (pinned in the
    tests) the points of E'(Fq2) in that kernel are exactly the order-n
    subgroup."""
    return psi(pt) == curve_g2.mul(pt, X_PARAM)


def glv_digits(k: int):
    """(k0, k1) with k = k0 + k1 x^2, both below 2^128 for 0 <= k < n."""
    k1, k0 = divmod(k, _X2)
    return k0, k1


def gls_digits(k: int):
    """k's four digits in base |x|, least significant first, each below
    2^64 for 0 <= k < n (n < x^4)."""
    digits = []
    for _ in range(4):
        k, d = divmod(k, _U)
        digits.append(d)
    return digits


def _neg_phi(pt):
    return (pt[0] * BETA % P, (-pt[1]) % P)


COMB_TEETH = 8
# Per curve, the split of k mod n into digits worth [x^(2i)] (GLV on E) or
# [|x|^i] (GLS on E'), the bits in each of a digit's 8 comb teeth, and the
# maps from a point worth [d] to the one worth [d x^2] or [d |x|^i], on the
# order-n subgroup: [x^2] = -phi, and [|x|] = -psi, so [|x|^3] = -psi^3,
# whose constants are psi's times psi^2's. The wNAF tables and the comb
# both map their entries by these.
SPLITS = {
    curve_g1: (glv_digits, 16, (None, _neg_phi)),
    curve_g2: (gls_digits, 8, (
        None,
        _conj_scaled(_PSI_X, f2_neg(_PSI_Y)),
        psi2,
        _conj_scaled(f2_muls(_PSI_X, _PSI2_X), f2_neg(f2_muls(_PSI_Y, _PSI2_Y))),
    )),
}


def tables(c, pt):
    """The wnaf_ladder tables of P and of its images under SPLITS[c]'s maps,
    for P in the order-n subgroup of c (None for the identity):
    odd_multiples(P) and its images entry by entry, each with its
    negations."""
    if pt is None:
        return None
    table = c.odd_multiples(pt)
    images = [table if f is None else list(map(f, table)) for f in SPLITS[c][2]]
    return [(t, [c.neg(e) for e in t]) for t in images]


def table_mul(c, tabs, k: int):
    """[k]P from tabs = tables(c, P), for 0 <= k < n: one ladder over k's
    GLV digits (two below 2^128) on E, or GLS digits (four below 2^64) on
    E'."""
    if tabs is None:
        return None
    return c.wnaf_ladder(tabs, SPLITS[c][0](k))


class FixedBaseComb:
    """[k]B for one fixed point B of order n on E or E' and any k >= 0, by
    a fixed-base comb on the GLV or GLS split of k mod n. Each digit d has
    8 teeth of s bits, so [d]B = sum [d_j] [2^(s j)]B is one s-bit
    ladder over a 256-entry affine table of subset sums of the teeth
    [2^(s j)]B. The digits worth [x^2] on E, or [|x|^i] on E', look up the
    same table and map each entry by the endomorphism (-phi, -psi, psi^2 or
    -psi^3), so all digits share one ladder: on E two 128-bit digits at
    s = 16, 15 doublings; on E' four 64-bit digits at s = 8, 7 doublings;
    one mixed addition per digit and bit position where that digit has a 1,
    at most 32 on either curve.

    The table is built on the first call, not at import, so a server pays
    for it after it starts listening, on its first proof. Two threads may
    both build it; each builds into a local and publishes it with one
    assignment, and the tables they build are equal."""

    def __init__(self, curve, base):
        self.curve = curve
        self.base = base
        self.split, self.spacing, self.images = SPLITS[curve]
        self._table = None

    def table(self):
        table = self._table
        if table is None:
            teeth = [self.base]
            for _ in range(COMB_TEETH - 1):
                teeth.append(self.curve.mul(teeth[-1], 1 << self.spacing))
            table = self.curve.subset_sums(teeth)
            self._table = table
        return table

    def mul(self, k: int):
        table, s = self.table(), self.spacing
        # each digit as its teeth's bit columns, most significant first: the
        # column's bit from tooth j is bit j of its table index
        cols = []
        for d in self.split(int(k) % N):
            bits = format(d, f"0{s * COMB_TEETH}b")
            teeth = [bits[i : i + s] for i in range(0, len(bits), s)]
            cols.append([int("".join(col), 2) for col in zip(*teeth)])
        return self.curve.ladder(
            [table[j] if f is None else f(table[j]) for j, f in zip(col, self.images) if j]
            for col in zip(*cols)
        )


def clear_cofactor_g2(pt):
    """[H2_EFF]P for any P on E', as [x^2-x-1]P + [x-1]psi(P) + psi^2(2P)
    (RFC 9380 appendix G.3, after Budroni and Pintore 2017): two 64-bit
    ladders instead of one 636-bit one."""
    c = curve_g2
    t1 = c.mul(pt, X_PARAM)  # [x]P
    t2 = psi(pt)
    t3 = c.add(psi2(c.double(pt)), c.neg(t2))  # psi^2(2P) - psi(P)
    t2 = c.mul(c.add(t1, t2), X_PARAM)  # [x^2]P + [x]psi(P)
    return c.add(c.add(t3, t2), c.neg(c.add(t1, pt)))


# ---------------------------------------------------------------------------
# serialization, written once for both curves over their field shims

_FLAG_COMPRESSED = 0x80
_FLAG_INFINITY = 0x40
_FLAG_SIGN = 0x20


def _y_is_larger(F, y) -> bool:
    return F.coeffs(y) > F.coeffs(F.neg(y))


def _to_bytes(c, pt) -> bytes:
    if pt is None:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + bytes(48 * c.F.degree - 1)
    x, y = pt
    out = bytearray(b"".join(k.to_bytes(48, "big") for k in c.F.coeffs(x)))
    out[0] |= _FLAG_COMPRESSED
    if _y_is_larger(c.F, y):
        out[0] |= _FLAG_SIGN
    return bytes(out)


def parse_x(c, data: bytes):
    """x of the point on curve c that data encodes, or None for infinity:
    every check of the encoding that comes before a square root (length,
    flags, the infinity form, x < p)."""
    F = c.F
    size = 48 * F.degree
    if len(data) != size:
        raise InvalidEncoding(f"compressed {c.name} point must be {size} bytes")
    flags = data[0]
    if not flags & _FLAG_COMPRESSED:
        raise InvalidEncoding("uncompressed form not accepted")
    if flags & _FLAG_INFINITY:
        if flags != (_FLAG_COMPRESSED | _FLAG_INFINITY) or any(data[1:]):
            raise InvalidEncoding("malformed infinity encoding")
        return None
    raw = bytes([flags & 0x1F]) + data[1:]
    cs = [int.from_bytes(raw[i : i + 48], "big") for i in range(0, size, 48)]
    if max(cs) >= P:
        raise InvalidEncoding("x coordinate out of range")
    return F.from_coeffs(cs)


def _from_bytes(c, data: bytes, in_subgroup):
    """The point on curve c that data encodes, which in_subgroup must hold."""
    F = c.F
    x = parse_x(c, data)
    if x is None:
        return None
    try:
        y = F.sqrt(c.rhs(x))
    except ValueError:
        raise InvalidEncoding(f"x is not on the {c.name}") from None
    if bool(data[0] & _FLAG_SIGN) != _y_is_larger(F, y):
        y = F.neg(y)
    pt = (x, y)
    if not in_subgroup(pt):
        raise InvalidEncoding("point not in the prime-order subgroup")
    return pt


def g1_to_bytes(pt) -> bytes:
    return _to_bytes(curve_g1, pt)


def g1_from_bytes(data: bytes):
    return _from_bytes(curve_g1, data, in_subgroup_g1)


def g2_to_bytes(pt) -> bytes:
    return _to_bytes(curve_g2, pt)


def g2_from_bytes(data: bytes):
    return _from_bytes(curve_g2, data, in_subgroup_g2)


# ---------------------------------------------------------------------------
# hash to curve: wide-digest try-and-increment, then cofactor clearing.
# Each counter value derives fresh 512-bit field candidates, one per
# coefficient (index i for c_i); non-squares are rejected and the counter
# bumped, so the output is deterministic, never the identity, and its
# discrete log is not revealed. The sign bit comes from index `degree`.


def _field_candidate(msg: bytes, ctr: int, idx: int):
    h = hashlib.sha512(msg + bytes([ctr, idx])).digest()
    return mpz(int.from_bytes(h, "big") % P)


def _hash(c, tag: str, data: bytes, clear):
    msg = tagged(tag, data)
    F = c.F
    for ctr in range(256):
        cs = [_field_candidate(msg, ctr, i) for i in range(F.degree)]
        x = F.from_coeffs(cs[::-1])
        try:
            y = F.sqrt(c.rhs(x))
        except ValueError:
            continue
        if hashlib.sha512(msg + bytes([ctr, F.degree])).digest()[0] & 1:
            y = F.neg(y)
        pt = clear((x, y))
        if pt is not None:
            return pt
    raise RuntimeError(f"hash to the {c.name} failed to find a point (unreachable)")


def hash_to_g1(tag: str, data: bytes):
    return _hash(curve_g1, tag, data, lambda pt: curve_g1.mul(pt, H1))


def hash_to_g2(tag: str, data: bytes):
    return _hash(curve_g2, tag, data, clear_cofactor_g2)
