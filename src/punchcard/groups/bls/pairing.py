"""Optimal ate pairing for BLS12-381.

The Miller loop keeps the running twist point T in homogeneous projective
coordinates (X : Y : Z) on E', x = X/Z, y = Y/Z, so no step inverts. The
doubling is that of Costello, Lange and Naehrig, "Faster pairing
computations on curves with high-degree twists" (PKC 2010), scaled by 4 so
that nothing is halved: X' = 2XY(Y^2 - 9b'Z^2), Y' = (Y^2 + 9b'Z^2)^2 -
108 b'^2 Z^4, Z' = 8Y^3 Z. Q is added in mixed coordinates, Q affine.
With the tower w^6 = xi and the untwist
(x, y) -> (x/w^2, y/w^3), the line through T with slope lam, evaluated at
a base-curve point P = (xP, yP) and scaled by the subfield unit xi, is

    xi*yP  +  (lam*xT - yT) w^3  -  (lam*xP) w^5.

Each step multiplies that line by the Fq2 denominator of lam, which leaves
only polynomials in X, Y, Z. The doubling line, scaled by 2YZ and with
Y^2 Z = X^3 + b' Z^3 substituted, is

    xi*yP*2YZ  +  (Y^2 - 3b'Z^2) w^3  -  3X^2*xP w^5,

and the addition line, scaled by X - xQ Z, is
xi*yP*(X - xQ Z) + ((Y - yQ Z) xQ - (X - xQ Z) yQ) w^3 - (Y - yQ Z) xP w^5.
The scale factors are harmless: every element of Fq2 satisfies
c^(p^6) = c, so the p^6 - 1 step of the final exponentiation sends them to
1 and pairing() outputs are unchanged. The line's coefficients c0, c3, c5
(of w^0, w^3, w^5) go straight into
fields.f12_mul_by_line, a sparse product, instead of a dense f12_mul. The
loop parameter is negative for this curve, so the Miller value is
conjugated before the final exponentiation.

The two steps, _dbl_step and _add_step, are written out on the Fq
coefficients of X, Y and Z: each Fq2 product is Karatsuba on ints, sums
and small multiples stay unreduced, and each coefficient of a line or of
the new T is reduced once. fields.py's products follow the same
convention (lazy reduction, after Aranha, Karabina, Longa, Gebotys and
Lopez, "Faster explicit formulas for computing pairings over ordinary
curves", EUROCRYPT 2011).

The final exponentiation's hard part uses the chain
(x-1)^2 (x+p) (x^2+p^2-1) + 3 == 3 (p^4-p^2+1)/n  (verified as integers in
fields.py's pins), i.e. it computes the cube of the textbook pairing; that
is still a bilinear non-degenerate map since gcd(3, n) = 1, and tests
cross-check it against a literal pow() oracle. Its five powers by |x|
(_exp_u) square in Karabina's compressed form (fields.f12_compressed_sqr,
"Squaring in cyclotomic subgroups", Math. Comp. 2013): 63 squarings on 4
of the 6 Fq2 coefficients, copies kept at the set bits of |x|, and the
six copies decompressed with one batched inversion before the 5
multiplications. That squaring is correct only on the cyclotomic
subgroup: the easy part's output, f^((p^6-1)(p^2+1)), lies there, and so
does every power and product of it the hard part forms. The hard part's
one other squaring (for m^3) is the generic f12_sqr, and a kept power
that cannot be decompressed, which no pairing forms, falls back to the
generic f12_pow. A pairing thus inverts six times: once in the easy part
and once per _exp_u.
"""

from __future__ import annotations

from .fields import (
    F2_ONE,
    F12_ONE,
    P,
    X_PARAM,
    f12_compress,
    f12_compressed_sqr,
    f12_conj,
    f12_decompress_many,
    f12_frob,
    f12_frob2,
    f12_inv,
    f12_mul,
    f12_mul_by_line,
    f12_pow,
    f12_sqr,
)

_U = -X_PARAM  # positive loop parameter
_U_BITS = bin(int(_U))[3:]  # skip the leading bit
_U_TOP = int(_U).bit_length() - 1
_U_SET = frozenset(i for i in range(_U_TOP + 1) if int(_U) >> i & 1)
assert 0 not in _U_SET  # _exp_u keeps only squares


def _dbl_step(X, Y, Z, yp, neg_3xp):
    """T <- 2T and the tangent line at T, scaled by H = 2YZ: returns the
    line's c0, c3, c5 and the new X, Y, Z. With E = 3b'Z^2 = 12 xi Z^2
    and F = 3E, the line is (xi H yP, Y^2 - E, -3X^2 xP) and 2T =
    (2XY(Y^2 - F), (Y^2 + F)^2 - 12E^2, 4Y^2 H)."""
    x0, x1 = X
    y0, y1 = Y
    z0, z1 = Z
    yy0, yy1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # Y^2
    zz0, zz1 = (z0 + z1) * (z0 - z1), 2 * z0 * z1  # Z^2, unreduced
    e0, e1 = 12 * (zz0 - zz1) % P, 12 * (zz0 + zz1) % P  # E = 12 xi Z^2
    f0, f1 = 3 * e0, 3 * e1  # F = 3E, unreduced
    m, n = y0 * z0, y1 * z1  # H = 2YZ
    h0, h1 = 2 * (m - n) % P, 2 * ((y0 + y1) * (z0 + z1) - m - n) % P
    xx0, xx1 = (x0 + x1) * (x0 - x1) % P, 2 * x0 * x1 % P  # X^2
    c0 = ((h0 - h1) * yp % P, (h0 + h1) * yp % P)  # xi H yP
    c3 = ((yy0 - e0) % P, (yy1 - e1) % P)
    c5 = (xx0 * neg_3xp % P, xx1 * neg_3xp % P)
    m, n = x0 * y0, x1 * y1  # XY
    xy0, xy1 = (m - n) % P, ((x0 + x1) * (y0 + y1) - m - n) % P
    g0, g1 = yy0 - f0, yy1 - f1  # Y^2 - F, unreduced
    m, n = xy0 * g0, xy1 * g1
    X3 = (2 * (m - n) % P, 2 * ((xy0 + xy1) * (g0 + g1) - m - n) % P)
    s0, s1 = yy0 + f0, yy1 + f1  # Y^2 + F, unreduced
    Y3 = (
        ((s0 + s1) * (s0 - s1) - 12 * (e0 + e1) * (e0 - e1)) % P,
        (2 * s0 * s1 - 24 * e0 * e1) % P,
    )
    m, n = yy0 * h0, yy1 * h1
    Z3 = (4 * (m - n) % P, 4 * ((yy0 + yy1) * (h0 + h1) - m - n) % P)
    return c0, c3, c5, X3, Y3, Z3


def _add_step(X, Y, Z, xq, yq, yp, neg_xp):
    """T <- T + Q and the line through T and Q, scaled by den = X - xQ Z:
    returns the line's c0, c3, c5 and the new X, Y, Z. With num = Y - yQ Z,
    the line is (xi den yP, num xQ - den yQ, -num xP); with D = den^2,
    E = den D, G = X D and H = E + Z num^2 - 2G, T + Q = (den H,
    num (G - H) - Y E, Z E)."""
    x0, x1 = X
    y0, y1 = Y
    z0, z1 = Z
    p0, p1 = xq
    q0, q1 = yq
    m, n = q0 * z0, q1 * z1  # num = Y - yQ Z
    u0 = (y0 - m + n) % P
    u1 = (y1 - (q0 + q1) * (z0 + z1) + m + n) % P
    m, n = p0 * z0, p1 * z1  # den = X - xQ Z
    d0 = (x0 - m + n) % P
    d1 = (x1 - (p0 + p1) * (z0 + z1) + m + n) % P
    c0 = ((d0 - d1) * yp % P, (d0 + d1) * yp % P)  # xi den yP
    m, n, k, l = u0 * p0, u1 * p1, d0 * q0, d1 * q1
    c3 = (
        (m - n - k + l) % P,
        ((u0 + u1) * (p0 + p1) - m - n - (d0 + d1) * (q0 + q1) + k + l) % P,
    )
    c5 = (u0 * neg_xp % P, u1 * neg_xp % P)
    D0, D1 = (d0 + d1) * (d0 - d1) % P, 2 * d0 * d1 % P  # D = den^2
    m, n = d0 * D0, d1 * D1  # E = den D
    E0, E1 = (m - n) % P, ((d0 + d1) * (D0 + D1) - m - n) % P
    m, n = x0 * D0, x1 * D1  # G = X D
    G0, G1 = (m - n) % P, ((x0 + x1) * (D0 + D1) - m - n) % P
    v0, v1 = (u0 + u1) * (u0 - u1) % P, 2 * u0 * u1 % P  # num^2
    m, n = z0 * v0, z1 * v1  # H = E + Z num^2 - 2G
    H0 = (E0 + m - n - 2 * G0) % P
    H1 = (E1 + (z0 + z1) * (v0 + v1) - m - n - 2 * G1) % P
    m, n = d0 * H0, d1 * H1
    X3 = ((m - n) % P, ((d0 + d1) * (H0 + H1) - m - n) % P)
    w0, w1 = G0 - H0, G1 - H1  # Y3 = num (G - H) - Y E
    m, n, k, l = u0 * w0, u1 * w1, y0 * E0, y1 * E1
    Y3 = (
        (m - n - k + l) % P,
        ((u0 + u1) * (w0 + w1) - m - n - (y0 + y1) * (E0 + E1) + k + l) % P,
    )
    m, n = z0 * E0, z1 * E1
    Z3 = ((m - n) % P, ((z0 + z1) * (E0 + E1) - m - n) % P)
    return c0, c3, c5, X3, Y3, Z3


def _miller_loop(p_pt, q_pt):
    """f_{u,Q}(P) conjugated, times an Fq2 factor that final_exp removes;
    p_pt on E(Fq), q_pt on the twist, both affine. T runs in homogeneous
    projective coordinates (X : Y : Z), so the loop never inverts."""
    xp, yp = p_pt
    xq, yq = q_pt
    neg_3xp = (-3 * xp) % P
    neg_xp = (-xp) % P
    X, Y, Z = xq, yq, F2_ONE
    f = F12_ONE
    for bit in _U_BITS:
        c0, c3, c5, X, Y, Z = _dbl_step(X, Y, Z, yp, neg_3xp)
        f = f12_mul_by_line(f12_sqr(f), c0, c3, c5)
        if bit == "1":
            c0, c3, c5, X, Y, Z = _add_step(X, Y, Z, xq, yq, yp, neg_xp)
            f = f12_mul_by_line(f, c0, c3, c5)
    return f12_conj(f)


def _easy_part(f):
    f = f12_mul(f12_conj(f), f12_inv(f))  # ^(p^6 - 1)
    return f12_mul(f12_frob2(f), f)  # ^(p^2 + 1)


def _exp_u(g):
    """g^|x| for cyclotomic g, as the product of g^(2^i) over the set bits i
    of |x| (16, 48, 57, 60, 62, 63): 63 compressed squarings, one batched
    decompression of the six kept powers, 5 multiplications. A power with
    g2 = 0 (as for g = +-1) cannot be decompressed; then the generic
    f12_pow, correct on every input, runs instead."""
    c = f12_compress(g)
    kept = []
    for i in range(1, _U_TOP + 1):
        c = f12_compressed_sqr(c)
        if i in _U_SET:
            kept.append(c)
    powers = f12_decompress_many(kept)
    if powers is None:
        return f12_pow(g, _U)
    acc = powers[0]
    for power in powers[1:]:
        acc = f12_mul(acc, power)
    return acc


def _exp_x(g):
    """g^x for unitary g (x negative: exponentiate by |x|, then conjugate)."""
    return f12_conj(_exp_u(g))


def _hard_part(m):
    a = f12_mul(_exp_x(m), f12_conj(m))  # m^(x-1)
    a = f12_mul(_exp_x(a), f12_conj(a))  # m^((x-1)^2)
    b = f12_mul(_exp_x(a), f12_frob(a))  # a^(x+p)
    c = f12_mul(_exp_x(_exp_x(b)), f12_mul(f12_frob2(b), f12_conj(b)))
    m3 = f12_mul(f12_sqr(m), m)
    return f12_mul(c, m3)


def final_exp(f):
    return _hard_part(_easy_part(f))


def pairing(p_pt, q_pt):
    """e(P, Q) into the cyclotomic subgroup of Fq12; bilinear, e != 1 on
    (generator, generator)."""
    if p_pt is None or q_pt is None:
        return F12_ONE
    return final_exp(_miller_loop(p_pt, q_pt))

