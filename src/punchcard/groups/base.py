"""Abstract group interface the protocol code is written against.

A Group exposes a prime-order group multiplicatively: ``mul`` is the group
operation, ``exp`` is scalar exponentiation. Scalars are plain ints reduced
mod ``order``. Elements are backend-specific opaque values; only
``encode_element``/``decode_element`` define their byte form.

Two families implement this: production elliptic-curve groups (ristretto255,
and the two BLS12-381 curve groups used by the mergeable scheme, whose
target group implements only the encoding) and tiny Schnorr subgroups of
Z_P^* used as test oracles, where discrete logs are recoverable by brute
force.

Every backend holds an element as one value with one byte form and
decodes only that form, so ``==`` on elements is group equality. The base
class supplies ``exp_many`` as one ``exp`` per scalar, ``check_element``
as no check, the scalar codec (``scalar_size`` bytes in
``scalar_byteorder``, canonical below ``order``), ``exp_base``, random and
inverted scalars, and ``hash_to_scalar``. ``load_library`` binds the
native libraries under ristretto255 (libsodium) and the BLS12-381 field
(libgmp).

This module is the one place that names the hash and compare primitives:
``sha512``, ``sha256`` and ``compare_digest`` (constant-time), with
``os.urandom`` for randomness. They come from CPython's built-in modules,
as ``random`` takes its SHA-512, never from ``hashlib``, ``hmac`` or
``secrets``: those import ``_hashlib``, which maps OpenSSL's libcrypto,
about 3.7 MB of every server's resident memory, for digests the built-ins
give byte for byte. ``hashlib`` serves only where CPython was built
without them.
"""

from __future__ import annotations

import _operator
import ctypes
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import InvalidEncoding, ZeroInverse


def _sha2() -> Tuple[Callable, Callable]:
    """CPython's built-in sha256 and sha512, else hashlib's."""
    try:
        from _sha2 import sha256, sha512  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
            from _sha512 import sha512
        except ImportError:
            from hashlib import sha256, sha512
    return sha256, sha512


sha256, sha512 = _sha2()
compare_digest = _operator._compare_digest  # hmac's, without _hashlib

Element = Any
# one unpack field: (size, decode, check), where check (or None) raises
# InvalidEncoding on some of what decode refuses, more cheaply
Field = Tuple[int, Callable[[bytes], Any], Optional[Callable[[bytes], None]]]


def tagged(tag: str, data: bytes) -> bytes:
    """Unambiguous domain-separated hash input: len(tag) || tag || data."""
    t = tag.encode()
    if not 0 < len(t) < 256:
        raise ValueError("tag must be 1..255 bytes")
    return bytes([len(t)]) + t + data


def wide_hash(tag: str, data: bytes) -> bytes:
    """512-bit digest over a tagged input; callers reduce mod their order."""
    return sha512(tagged(tag, data)).digest()


def random_bytes(n: int, rng=None) -> bytes:
    """n random bytes from rng (a random.Random, for tests) or the OS."""
    if rng is None:
        return os.urandom(n)
    return rng.randbytes(n)


class Group:
    name: str
    order: int
    element_size: int
    scalar_size: int
    scalar_byteorder = "big"  # ristretto255 and the toy groups use "little"
    kernel = "int"  # the arithmetic under the group, for the start-up log

    # -- element ops -------------------------------------------------------

    def generator(self) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        """Group operation."""
        raise NotImplementedError

    def exp(self, e: Element, k: int) -> Element:
        """e raised to the scalar k (k taken mod order)."""
        raise NotImplementedError

    def exp_many(self, e: Element, ks: Sequence[int]) -> List[Element]:
        """[e^k for k in ks]; backends that can share work between the
        powers of one element override it."""
        return [self.exp(e, k) for k in ks]

    def exp_base(self, k: int) -> Element:
        """The generator raised to k; backends with a faster fixed-base
        method override it."""
        return self.exp(self.generator(), k)

    # -- encodings ---------------------------------------------------------

    def encode_element(self, e: Element) -> bytes:
        raise NotImplementedError

    def decode_element(self, data: bytes) -> Element:
        """Strict decode; raises InvalidEncoding on anything non-canonical."""
        raise NotImplementedError

    def check_element(self, data: bytes) -> None:
        """The checks of decode_element that need no field arithmetic, or
        none: raises InvalidEncoding where decode_element would. unpack
        runs them on every element of a message before it decodes any."""

    def encode_scalar(self, k: int) -> bytes:
        return (k % self.order).to_bytes(self.scalar_size, self.scalar_byteorder)

    def decode_scalar(self, data: bytes) -> int:
        check_length(data, self.scalar_size, f"{self.name} scalar")
        k = int.from_bytes(data, self.scalar_byteorder)
        if k >= self.order:
            raise InvalidEncoding("non-canonical scalar (>= group order)")
        return k

    # -- scalars -----------------------------------------------------------

    def random_scalar(self, rng=None) -> int:
        """Uniform in [1, order-1]; zero is excluded so masks and keys are
        always invertible."""
        while True:
            k = int.from_bytes(random_bytes(64, rng), "little") % self.order
            if k != 0:
                return k

    def invert_scalar(self, k: int) -> int:
        k %= self.order
        if k == 0:
            raise ZeroInverse("scalar 0 has no inverse")
        return pow(k, -1, self.order)

    # -- hashing -----------------------------------------------------------

    def hash_to_group(self, tag: str, data: bytes) -> Element:
        """Deterministic map into the group; never the identity, preimage
        discrete log unknown for the production backends."""
        raise NotImplementedError

    def hash_to_scalar(self, tag: str, data: bytes) -> int:
        """Challenge derivation: wide digest reduced mod the group order."""
        return int.from_bytes(wide_hash(tag, data), "big") % self.order


class PairingGroups:
    """Triple of groups of one prime order with a bilinear map g0 x g1 -> gt."""

    name: str
    g0: Group
    g1: Group
    gt: Group
    kernel = "int"  # the arithmetic under the groups, for the start-up log

    @property
    def order(self) -> int:
        return self.g0.order

    def pair(self, a: Element, b: Element) -> Element:
        raise NotImplementedError


def check_length(data: bytes, size: int, what: str) -> None:
    if len(data) != size:
        raise InvalidEncoding(f"{what}: expected {size} bytes, got {len(data)}")


def element(group: Group) -> Field:
    return group.element_size, group.decode_element, group.check_element


def scalar(group: Group) -> Field:
    return group.scalar_size, group.decode_scalar, None


def unpack(data: bytes, fields: Sequence[Field], what: str) -> List[Any]:
    """Decode `data` as the fields laid end to end, in order. Raises
    InvalidEncoding before decoding anything unless their sizes add up to
    len(data) and every field with a check passes it, so a message with a
    malformed last element costs no decode of the first. Build the fields
    at each call: a wrapper installed on a group's decode_element then
    sees it."""
    if sum(size for size, _, _ in fields) != len(data):
        raise InvalidEncoding(f"{what} has wrong length")
    chunks, off = [], 0
    for size, _, check in fields:
        chunks.append(data[off : off + size])
        if check:
            check(chunks[-1])
        off += size
    return [decode(chunk) for (_, decode, _), chunk in zip(fields, chunks)]


def _library_names(sonames: Sequence[str], name: str):
    yield from sonames
    from ctypes.util import find_library  # runs ldconfig in a child process

    yield find_library(name)


def load_library(sonames: Sequence[str], name: str, bind: Callable[[ctypes.CDLL], Any]) -> Any:
    """bind(ctypes.CDLL(path)) for the first path that loads and binds:
    each of `sonames`, then what ctypes.util.find_library(name) names,
    which is imported and asked only when no soname serves. A library
    that lacks a symbol bind looks up (AttributeError) counts as absent.
    None when nothing serves."""
    for path in _library_names(sonames, name):
        try:
            return None if path is None else bind(ctypes.CDLL(path))
        except (OSError, AttributeError):
            continue
    return None
