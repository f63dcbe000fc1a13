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
(of w^0, w^3, w^5; see fields.f12_line) go straight into
fields.f12_mul_by_line, a sparse product, instead of a dense f12_mul. The
loop parameter is negative for this curve, so the Miller value is
conjugated before the final exponentiation.

The final exponentiation's hard part uses the chain
(x-1)^2 (x+p) (x^2+p^2-1) + 3 == 3 (p^4-p^2+1)/n  (verified as integers in
fields.py's pins), i.e. it computes the cube of the textbook pairing; that
is still a bilinear non-degenerate map since gcd(3, n) = 1, and tests
cross-check it against `final_exp_slow`, the literal pow() oracle. Its
squarings are fields.f12_cyclotomic_sqr (Granger and Scott, PKC 2010),
which is correct only on the cyclotomic subgroup: the easy part's output,
f^((p^6-1)(p^2+1)), lies there, and so does every power and product of it
the hard part forms.
"""

from __future__ import annotations

from .curve import G1_GEN, G2_GEN
from .fields import (
    F2_ONE,
    F12_ONE,
    N,
    P,
    X_PARAM,
    f2_add,
    f2_mul,
    f2_mul_by_xi,
    f2_muls,
    f2_sqr,
    f2_sub,
    f12_conj,
    f12_cyclotomic_sqr,
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
        # doubling: line scaled by H = 2YZ, then T <- 2T
        XX, YY, ZZ = f2_sqr(X), f2_sqr(Y), f2_sqr(Z)
        E = f2_mul_by_xi(f2_muls(ZZ, 12))  # 3 b' Z^2 with b' = 4 xi
        F = f2_muls(E, 3)
        H = f2_sub(f2_sqr(f2_add(Y, Z)), f2_add(YY, ZZ))
        f = f12_mul_by_line(
            f12_sqr(f),
            f2_mul_by_xi(f2_muls(H, yp)),
            f2_sub(YY, E),
            f2_muls(XX, neg_3xp),
        )
        X = f2_muls(f2_mul(f2_mul(X, Y), f2_sub(YY, F)), 2)
        Y = f2_sub(f2_sqr(f2_add(YY, F)), f2_muls(f2_sqr(E), 12))
        Z = f2_muls(f2_mul(YY, H), 4)
        if bit == "1":
            # mixed addition of Q: slope num/den, line scaled by den
            num = f2_sub(Y, f2_mul(yq, Z))
            den = f2_sub(X, f2_mul(xq, Z))
            f = f12_mul_by_line(
                f,
                f2_mul_by_xi(f2_muls(den, yp)),
                f2_sub(f2_mul(num, xq), f2_mul(den, yq)),
                f2_muls(num, neg_xp),
            )
            D = f2_sqr(den)
            E = f2_mul(den, D)
            G = f2_mul(X, D)
            H = f2_sub(f2_add(E, f2_mul(Z, f2_sqr(num))), f2_muls(G, 2))
            X = f2_mul(den, H)
            Y = f2_sub(f2_mul(num, f2_sub(G, H)), f2_mul(Y, E))
            Z = f2_mul(Z, E)
    return f12_conj(f)


def _easy_part(f):
    f = f12_mul(f12_conj(f), f12_inv(f))  # ^(p^6 - 1)
    return f12_mul(f12_frob2(f), f)  # ^(p^2 + 1)


def _exp_u(g):
    """g^|x| by square-and-multiply (7 set bits)."""
    acc = g
    for bit in _U_BITS:
        acc = f12_cyclotomic_sqr(acc)
        if bit == "1":
            acc = f12_mul(acc, g)
    return acc


def _exp_x(g):
    """g^x for unitary g (x negative: exponentiate by |x|, then conjugate)."""
    return f12_conj(_exp_u(g))


def _hard_part(m):
    a = f12_mul(_exp_x(m), f12_conj(m))  # m^(x-1)
    a = f12_mul(_exp_x(a), f12_conj(a))  # m^((x-1)^2)
    b = f12_mul(_exp_x(a), f12_frob(a))  # a^(x+p)
    c = f12_mul(_exp_x(_exp_x(b)), f12_mul(f12_frob2(b), f12_conj(b)))
    m3 = f12_mul(f12_cyclotomic_sqr(m), m)
    return f12_mul(c, m3)


def final_exp(f):
    return _hard_part(_easy_part(f))


def final_exp_slow(f):
    """Oracle: the hard part as one literal exponentiation (cube root of
    final_exp's output exponent)."""
    return f12_pow(_easy_part(f), (P**4 - P**2 + 1) // N)


def pairing(p_pt, q_pt):
    """e(P, Q) into the cyclotomic subgroup of Fq12; bilinear, e != 1 on
    (generator, generator)."""
    if p_pt is None or q_pt is None:
        return F12_ONE
    return final_exp(_miller_loop(p_pt, q_pt))


_GT_GEN = None


def gt_generator():
    global _GT_GEN
    if _GT_GEN is None:
        _GT_GEN = pairing(G1_GEN, G2_GEN)
    return _GT_GEN
