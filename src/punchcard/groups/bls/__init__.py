"""Group-interface adapters over the BLS12-381 implementation.

The mergeable scheme sees three groups of prime order n: the 48-byte base
curve group, the 96-byte twist group, and the 576-byte target group inside
Fq12, tied together by the bilinear pairing. The target group only
encodes: the server compares a merged value's bytes with the encoding it
expects, so nothing decodes, multiplies or raises a target-group element.
"""

from __future__ import annotations

from ..base import Group, PairingGroups
from . import curve, fields, pairing
from .fields import N, f12_to_flat


class _BlsCurveGroup(Group):
    """The curve groups' scalars (32-byte big-endian, order n), identity
    None, addition, exp_many (one set of tables per element) and the
    fixed-base comb (its table built on first use). Each subclass names
    its _curve and _gen and keeps codec and hash, which call the curve
    module at call time."""

    order = int(N)
    scalar_size = 32

    def __init__(self):
        self._comb = curve.FixedBaseComb(self._curve, self._gen)

    def generator(self):
        return self._gen

    def mul(self, a, b):
        return self._curve.add(a, b)

    def exp(self, e, k: int):
        """[k]e by the GLV or GLS split. e must lie in the order-n subgroup,
        as every element these groups hand out does: decoded with the
        subgroup check, hashed and cofactor-cleared, or the generator."""
        return self.exp_many(e, (k,))[0]

    def exp_many(self, e, ks):
        """[k]e for each k in ks (GLV or GLS), on one set of e's tables."""
        tables = curve.tables(self._curve, e)
        return [curve.table_mul(self._curve, tables, k % self.order) for k in ks]

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

    def encode_element(self, e) -> bytes:
        return curve.g2_to_bytes(e)

    def decode_element(self, data: bytes):
        return curve.g2_from_bytes(bytes(data))

    def hash_to_group(self, tag: str, data: bytes):
        return curve.hash_to_g2(tag, data)


class BlsGt(Group):
    """The pairing target group, encode only: an element of the order-n
    subgroup of Fq12 as 576 bytes (12 base-field coefficients, big-endian)."""

    name = "bls12-381-gt"
    element_size = 576

    def encode_element(self, e) -> bytes:
        out = bytearray()
        for c in f12_to_flat(e):
            out += int(c[0]).to_bytes(48, "big")
            out += int(c[1]).to_bytes(48, "big")
        return bytes(out)


class Bls12381(PairingGroups):
    name = "bls12-381"

    def __init__(self):
        self.g0 = BlsG0()
        self.g1 = BlsG1()
        self.gt = BlsGt()

    @property
    def kernel(self) -> str:
        """The Fq exponentiation and inversion kernel: gmpy2, libgmp or int."""
        return fields.KERNEL.name

    def pair(self, a, b):
        return pairing.pairing(a, b)
