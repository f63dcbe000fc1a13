"""Group-interface adapters over the BLS12-381 implementation.

The mergeable scheme sees three groups of prime order n: the 48-byte base
curve group, the 96-byte twist group, and the 576-byte target group inside
Fq12, tied together by the bilinear pairing.
"""

from __future__ import annotations

from ...errors import InvalidEncoding
from ..base import Group, PairingGroups, check_length
from . import curve, pairing
from .fields import (
    F12_ONE,
    N,
    P,
    f2,
    f12_eq,
    f12_from_flat,
    f12_mul,
    f12_pow,
    f12_to_flat,
)


class _BlsScalars(Group):
    """Shared scalar conventions: 32-byte big-endian, order n."""

    order = int(N)
    scalar_size = 32


class _BlsCurveGroup(_BlsScalars):
    """The curve groups' identity None, addition and fixed-base comb (its
    table built on first use). Each subclass names its _curve and _gen and
    keeps exp, codec and hash, which call the curve module at call time."""

    def __init__(self):
        self._comb = curve.FixedBaseComb(self._curve, self._gen)

    def generator(self):
        return self._gen

    def identity(self):
        return None

    def mul(self, a, b):
        return self._curve.add(a, b)

    def exp_base(self, k: int):
        return self._comb.mul(k % self.order)

    def check_element(self, data: bytes) -> None:
        curve.parse_x(self._curve, bytes(data))


class BlsG0(_BlsCurveGroup):
    """The base-curve group (48-byte compressed elements)."""

    name = "bls12-381-g0"
    element_size = 48
    _curve = curve.curve_g1
    _gen = curve.G1_GEN

    def exp(self, e, k: int):
        """[k]e by the GLV split. e must lie in the order-n subgroup, as every
        element this group hands out does: decoded with the subgroup check,
        hashed and cofactor-cleared, or the generator. So must exp_many's."""
        return curve.g1_mul(e, k % self.order)

    def exp_many(self, e, ks):
        """[k]e for each k in ks, on one table of e's odd multiples."""
        tables = curve.g1_tables(e)
        return [curve.g1_ladder(tables, k % self.order) for k in ks]

    def encode_element(self, e) -> bytes:
        return curve.g1_to_bytes(e)

    def decode_element(self, data: bytes):
        return curve.g1_from_bytes(bytes(data))

    def hash_to_group(self, tag: str, data: bytes):
        return curve.hash_to_g1(tag, data)


class BlsG1(_BlsCurveGroup):
    """The twist group (96-byte compressed elements)."""

    name = "bls12-381-g1"
    element_size = 96
    _curve = curve.curve_g2
    _gen = curve.G2_GEN

    def exp(self, e, k: int):
        """[k]e by the GLS split, on the same terms as BlsG0.exp."""
        return curve.g2_mul(e, k % self.order)

    def exp_many(self, e, ks):
        """[k]e for each k in ks, on one set of e's tables."""
        tables = curve.g2_tables(e)
        return [curve.g2_ladder(tables, k % self.order) for k in ks]

    def encode_element(self, e) -> bytes:
        return curve.g2_to_bytes(e)

    def decode_element(self, data: bytes):
        return curve.g2_from_bytes(bytes(data))

    def hash_to_group(self, tag: str, data: bytes):
        return curve.hash_to_g2(tag, data)


class BlsGt(_BlsScalars):
    """The pairing target group: order-n subgroup of Fq12, 576-byte
    elements (12 base-field coefficients, big-endian)."""

    name = "bls12-381-gt"
    element_size = 576

    def generator(self):
        return pairing.gt_generator()

    def identity(self):
        return F12_ONE

    def mul(self, a, b):
        return f12_mul(a, b)

    def exp(self, e, k: int):
        return f12_pow(e, k % self.order)

    def eq(self, a, b) -> bool:
        return f12_eq(a, b)

    def encode_element(self, e) -> bytes:
        out = bytearray()
        for c in f12_to_flat(e):
            out += int(c[0]).to_bytes(48, "big")
            out += int(c[1]).to_bytes(48, "big")
        return bytes(out)

    def decode_element(self, data: bytes):
        check_length(data, 576, "gt element")
        coeffs = []
        for off in range(0, 576, 96):
            a = int.from_bytes(data[off : off + 48], "big")
            b = int.from_bytes(data[off + 48 : off + 96], "big")
            if a >= P or b >= P:
                raise InvalidEncoding("gt coefficient out of range")
            coeffs.append(f2(a, b))
        e = f12_from_flat(coeffs)
        # membership: the element's order must divide n
        if not f12_eq(f12_pow(e, self.order), F12_ONE):
            raise InvalidEncoding("element not in the order-n subgroup of Fq12")
        return e

    def hash_to_group(self, tag: str, data: bytes):
        raise NotImplementedError(
            "hashing into the target group is not defined for this scheme"
        )


class Bls12381(PairingGroups):
    name = "bls12-381"

    def __init__(self):
        self.g0 = BlsG0()
        self.g1 = BlsG1()
        self.gt = BlsGt()

    def pair(self, a, b):
        return pairing.pairing(a, b)
