"""Tiny Schnorr subgroups used as test oracles.

These groups are order-1019 subgroups of Z_P^* for hand-checkable primes P,
small enough that discrete logs fall to brute force. Every protocol
operation can therefore be re-derived independently with plain pow() and
compared against the real implementation. Never use these outside tests;
``dlog`` existing at all is the point.

The pairing triple uses three distinct moduli with subgroups of the same
order and defines e(g0^a, g1^b) = gT^(a*b) literally, by recovering a and b.
"""

from __future__ import annotations

from ..errors import InvalidEncoding
from .base import Group, PairingGroups, check_length, wide_hash

Q = 1019  # shared subgroup order; 2039 = 2*1019 + 1, both prime


class SchnorrGroup(Group):
    """Order-q subgroup of Z_modulus^*, elements as 4-byte little-endian."""

    element_size = 4
    scalar_size = 4
    scalar_byteorder = "little"

    def __init__(self, modulus: int, gen: int, name: str):
        self.name = name
        self.order = Q
        self.modulus = modulus
        self._gen = gen
        assert pow(gen, Q, modulus) == 1 and gen != 1

    def generator(self) -> int:
        return self._gen

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def exp(self, e: int, k: int) -> int:
        return pow(e, k % Q, self.modulus)

    def encode_element(self, e: int) -> bytes:
        return int(e).to_bytes(4, "little")

    def decode_element(self, data: bytes) -> int:
        check_length(data, 4, f"{self.name} element")
        e = int.from_bytes(data, "little")
        if not 0 < e < self.modulus or pow(e, Q, self.modulus) != 1:
            raise InvalidEncoding(f"not an element of {self.name}")
        return e

    def hash_to_group(self, tag: str, data: bytes) -> int:
        # exponent in [1, q-1], so the result is never the identity; the
        # dlog is of course known, which is fine for an oracle group
        e = int.from_bytes(wide_hash(tag, data), "big") % (Q - 1) + 1
        return pow(self._gen, e, self.modulus)

    def dlog(self, e: int) -> int:
        """Brute-force discrete log base generator; oracle use only."""
        acc = 1
        for k in range(Q):
            if acc == e:
                return k
            acc = acc * self._gen % self.modulus
        raise ValueError("element not in subgroup")


def toy_group() -> SchnorrGroup:
    return SchnorrGroup(2039, 4, "toy")


class ToyPairing(PairingGroups):
    """Three order-1019 subgroups with a dlog-based bilinear map."""

    name = "toy-pairing"

    def __init__(self):
        self.g0 = SchnorrGroup(2039, 4, "toy-g0")
        self.g1 = SchnorrGroup(32609, 3297, "toy-g1")
        self.gt = SchnorrGroup(38723, 19557, "toy-gt")

    def pair(self, a: int, b: int) -> int:
        x = self.g0.dlog(a)
        y = self.g1.dlog(b)
        return self.gt.exp(self.gt.generator(), x * y)
