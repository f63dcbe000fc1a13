"""ristretto255: the production group for the single-card scheme.

Elements are handled as their canonical 32-byte encodings. Two backends
implement the arithmetic behind that interface:

* sodium -- ctypes bindings against the system libsodium, used when the
  library is present (hot path, ~45us per exponentiation here).
* python -- a self-contained implementation of the ristretto255 encode /
  decode / map-from-uniform-bytes construction over the twisted Edwards
  curve, used as fallback and as a cross-check oracle in tests.

Both backends decode only RFC 9496's canonical encodings, the all-zero
identity among them, so an element has one byte form and equal elements
have equal bytes. libsodium 1.0.18 ignores bit 255 when it decodes, which
would give every element a second form, so the sodium backend refuses
that bit itself. libsodium's scalarmult refuses to output the identity
(returns -1), so the wrapper short-circuits zero scalars and identity
inputs before calling C; everything else is passed through untouched.
"""

from __future__ import annotations

import ctypes
import hashlib

from ..errors import InvalidEncoding
from .base import Group, check_length, load_library, tagged

# field and group parameters (curve25519 / ristretto255)
P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493

_IDENTITY = bytes(32)
_BASEPOINT = bytes.fromhex(
    "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76"
)


def _inv(x: int) -> int:
    return pow(x, P - 2, P)


# curve constants, derived rather than transcribed
D = (-121665 * _inv(121666)) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)
assert SQRT_M1 * SQRT_M1 % P == P - 1


def _is_negative(x: int) -> bool:
    return bool(x & 1)


def _abs(x: int) -> int:
    return (-x) % P if _is_negative(x % P) else x % P


def _sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """Returns (was_square, r) with r = sqrt(u/v) when u/v is square, else
    r = sqrt(SQRT_M1 * u/v); r is always the non-negative root."""
    v3 = v * v % P * v % P
    v7 = v3 * v3 % P * v % P
    r = u * v3 % P * pow(u * v7 % P, (P - 5) // 8, P) % P
    check = v * r % P * r % P
    correct = check == u % P
    flipped = check == (-u) % P
    flipped_i = check == (-u) % P * SQRT_M1 % P
    if flipped or flipped_i:
        r = r * SQRT_M1 % P
    return (correct or flipped, _abs(r))


def _sqrt(x: int) -> int:
    ok, r = _sqrt_ratio_m1(x, 1)
    if not ok:
        raise ValueError("not a square")
    return r


# the map-to-group convention fixes the negative (odd) root of a*d-1
SQRT_AD_MINUS_ONE = (-_sqrt((-1 * D - 1) % P)) % P
assert _is_negative(SQRT_AD_MINUS_ONE)
INVSQRT_A_MINUS_D = _sqrt_ratio_m1(1, (-1 - D) % P)[1]
ONE_MINUS_D_SQ = (1 - D * D) % P
D_MINUS_ONE_SQ = (D - 1) * (D - 1) % P


class _Point:
    """Extended twisted-Edwards coordinates (X:Y:Z:T), x=X/Z y=Y/Z xy=T/Z."""

    __slots__ = ("x", "y", "z", "t")

    def __init__(self, x: int, y: int, z: int, t: int):
        self.x, self.y, self.z, self.t = x, y, z, t


_POINT_IDENTITY = _Point(0, 1, 1, 0)


def _add(p: _Point, q: _Point) -> _Point:
    a = (p.y - p.x) * (q.y - q.x) % P
    b = (p.y + p.x) * (q.y + q.x) % P
    c = p.t * 2 * D % P * q.t % P
    d = p.z * 2 * q.z % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return _Point(e * f % P, g * h % P, f * g % P, e * h % P)


def _dbl(p: _Point) -> _Point:
    a = p.x * p.x % P
    b = p.y * p.y % P
    c = 2 * p.z * p.z % P
    h = a + b
    e = h - (p.x + p.y) ** 2 % P
    g = a - b
    f = c + g
    return _Point(e * f % P, g * h % P, f * g % P, e * h % P)


def _scalar_mult(p: _Point, k: int) -> _Point:
    k %= L
    acc = _POINT_IDENTITY
    window = [_POINT_IDENTITY, p]
    for _ in range(14):
        window.append(_add(window[-1], p))
    for shift in range(252, -4, -4):
        # window[0] is the identity and _add is complete, so every nibble,
        # zero or not, costs one addition
        acc = _add(_dbl(_dbl(_dbl(_dbl(acc)))), window[(k >> shift) & 0xF])
    return acc


def _decode(data: bytes) -> _Point:
    if len(data) != 32:
        raise InvalidEncoding("ristretto element must be 32 bytes")
    s = int.from_bytes(data, "little")
    if s >= P or _is_negative(s):
        raise InvalidEncoding("non-canonical ristretto encoding")
    ss = s * s % P
    u1 = (1 - ss) % P
    u2 = (1 + ss) % P
    u2_sqr = u2 * u2 % P
    v = (-(D * u1 % P * u1) - u2_sqr) % P
    was_square, invsqrt = _sqrt_ratio_m1(1, v * u2_sqr % P)
    den_x = invsqrt * u2 % P
    den_y = invsqrt * den_x % P * v % P
    x = _abs(2 * s * den_x % P)
    y = u1 * den_y % P
    t = x * y % P
    if not was_square or _is_negative(t) or y == 0:
        raise InvalidEncoding("byte string is not a ristretto element")
    return _Point(x, y, 1, t)


def _encode(p: _Point) -> bytes:
    u1 = (p.z + p.y) * (p.z - p.y) % P
    u2 = p.x * p.y % P
    _, invsqrt = _sqrt_ratio_m1(1, u1 * u2 % P * u2 % P)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 % P * p.t % P
    if _is_negative(p.t * z_inv % P):
        x = p.y * SQRT_M1 % P
        y = p.x * SQRT_M1 % P
        den_inv = den1 * INVSQRT_A_MINUS_D % P
    else:
        x, y = p.x, p.y
        den_inv = den2
    if _is_negative(x * z_inv % P):
        y = (-y) % P
    s = _abs(den_inv * ((p.z - y) % P) % P)
    return s.to_bytes(32, "little")


def _map_to_point(t: int) -> _Point:
    """One Elligator evaluation of the ristretto map-to-group."""
    r = SQRT_M1 * t % P * t % P
    u = (r + 1) * ONE_MINUS_D_SQ % P
    v = (-1 - r * D) % P * ((r + D) % P) % P
    was_square, s = _sqrt_ratio_m1(u, v)
    if was_square:
        c = P - 1
    else:
        s = (-_abs(s * t % P)) % P
        c = r
    n = (c * ((r - 1) % P) % P * D_MINUS_ONE_SQ - v) % P
    w0 = 2 * s * v % P
    w1 = n * SQRT_AD_MINUS_ONE % P
    w2 = (1 - s * s) % P
    w3 = (1 + s * s) % P
    return _Point(w0 * w3 % P, w2 * w1 % P, w1 * w3 % P, w0 * w2 % P)


def _from_hash(h: bytes) -> _Point:
    assert len(h) == 64
    mask = (1 << 255) - 1
    t0 = int.from_bytes(h[:32], "little") & mask
    t1 = int.from_bytes(h[32:], "little") & mask
    return _add(_map_to_point(t0 % P), _map_to_point(t1 % P))


class _PythonBackend:
    name = "python"

    def is_valid(self, e: bytes) -> bool:
        try:
            _decode(e)  # the all-zero identity encoding decodes fine
            return True
        except InvalidEncoding:
            return False

    def add(self, a: bytes, b: bytes) -> bytes:
        return _encode(_add(_decode(a), _decode(b)))

    def exp(self, e: bytes, k: int) -> bytes:
        return _encode(_scalar_mult(_decode(e), k))

    def exp_base(self, k: int) -> bytes:
        return self.exp(_BASEPOINT, k)

    def from_hash(self, h: bytes) -> bytes:
        return _encode(_from_hash(h))


class _SodiumBackend:
    name = "sodium"

    def __init__(self, lib: ctypes.CDLL):
        if lib.sodium_init() < 0:
            raise OSError("sodium_init failed")
        p = ctypes.c_char_p
        for attr, name, args in (
            ("_is_valid", "crypto_core_ristretto255_is_valid_point", [p]),
            ("_from_hash", "crypto_core_ristretto255_from_hash", [p, p]),
            ("_add", "crypto_core_ristretto255_add", [p, p, p]),
            ("_exp", "crypto_scalarmult_ristretto255", [p, p, p]),
            ("_exp_base", "crypto_scalarmult_ristretto255_base", [p, p]),
        ):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, ctypes.c_int
            setattr(self, attr, fn)

    def is_valid(self, e: bytes) -> bool:
        # bit 255 set means s >= p, but libsodium 1.0.18 masks it off
        if e[31] & 0x80:
            return False
        return self._is_valid(e) == 1

    def add(self, a: bytes, b: bytes) -> bytes:
        out = ctypes.create_string_buffer(32)
        if self._add(out, a, b) != 0:
            raise InvalidEncoding("libsodium rejected an element in add")
        return out.raw

    def exp(self, e: bytes, k: int) -> bytes:
        out = ctypes.create_string_buffer(32)
        sc = (k % L).to_bytes(32, "little")
        if self._exp(out, sc, e) != 0:
            raise InvalidEncoding("libsodium rejected an element in scalarmult")
        return out.raw

    def exp_base(self, k: int) -> bytes:
        """libsodium's fixed-base scalarmult; k must be nonzero mod L (the
        call refuses to output the identity)."""
        out = ctypes.create_string_buffer(32)
        sc = (k % L).to_bytes(32, "little")
        if self._exp_base(out, sc) != 0:
            raise RuntimeError("libsodium base scalarmult gave the identity")
        return out.raw

    def from_hash(self, h: bytes) -> bytes:
        out = ctypes.create_string_buffer(32)
        self._from_hash(out, h)
        return out.raw


# libsodium up to 1.0.18 (the first with ristretto255), then 1.0.19 on
SONAMES = ("libsodium.so.23", "libsodium.so.26")


class RistrettoGroup(Group):
    """Prime-order group; elements are canonical 32-byte strings."""

    name = "ristretto255"
    order = L
    element_size = 32
    scalar_size = 32
    scalar_byteorder = "little"

    def __init__(self, backend: str = "auto"):
        if backend not in ("auto", "sodium", "python"):
            raise ValueError(f"unknown backend {backend!r}")
        sodium = backend != "python" and load_library(SONAMES, "sodium", _SodiumBackend)
        if not sodium and backend == "sodium":
            raise RuntimeError("libsodium with ristretto255 not available")
        self._backend = sodium or _PythonBackend()

    @property
    def backend_name(self) -> str:
        return self._backend.name

    kernel = backend_name  # sodium or python

    def generator(self) -> bytes:
        return _BASEPOINT

    def mul(self, a: bytes, b: bytes) -> bytes:
        return self._backend.add(a, b)

    def exp(self, e: bytes, k: int) -> bytes:
        k %= L
        if k == 0 or e == _IDENTITY:
            return _IDENTITY
        return self._backend.exp(e, k)

    def exp_base(self, k: int) -> bytes:
        k %= L
        if k == 0:
            return _IDENTITY
        return self._backend.exp_base(k)

    def encode_element(self, e: bytes) -> bytes:
        return e

    def decode_element(self, data: bytes) -> bytes:
        check_length(data, 32, "ristretto element")
        data = bytes(data)
        if not self._backend.is_valid(data):
            raise InvalidEncoding("byte string is not a ristretto element")
        return data

    def element_from_uniform(self, h: bytes) -> bytes:
        """Map 64 uniform bytes to an element (the standard two-Elligator
        construction); exposed so tests can pin reference vectors."""
        check_length(h, 64, "uniform input")
        return self._backend.from_hash(bytes(h))

    def hash_to_group(self, tag: str, data: bytes) -> bytes:
        msg = tagged(tag, data)
        e = self._backend.from_hash(hashlib.sha512(msg).digest())
        ctr = 0
        while e == _IDENTITY:  # cannot occur except by 2^-250 accident
            e = self._backend.from_hash(
                hashlib.sha512(msg + b"\x00" + bytes([ctr])).digest()
            )
            ctr += 1
        return e
