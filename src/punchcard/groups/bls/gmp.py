"""ctypes bindings to the system libgmp's mpz_powm and mpz_invert.

libgmp is the library gmpy2 wraps, and most systems carry it already
(GNU coreutils links it), so fields.py uses it for the Fq exponentiations
and inversions when gmpy2 is not installed. Values cross the boundary as
48-byte big-endian strings (mpz_import and mpz_export). ctypes releases
the GIL around each call, so several threads may be inside libgmp at
once: each thread owns its mpz temporaries, and the only shared mpz is
the modulus, which libgmp only reads.

The temporaries stay per thread rather than behind one lock or made per
call. With mergeable.server_punch on two threads of a 2-vCPU Xeon VM,
both alternatives were slower in every round: 57-64 punches/s with one
lock and 58-66 with per-call temporaries, against 67-97 per thread. On
one thread, per-call temporaries add about 7 us to a powm plus invert.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

from ..base import load_library

SONAMES = ("libgmp.so.10",)
_SIZE = 48  # bytes of an Fq value: p < 2^381


class _Mpz(ctypes.Structure):
    """__mpz_struct: limbs allocated, signed limb count, limb pointer."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]


class _Temps:
    """One thread's mpz temporaries and export buffer, cleared by libgmp
    when the thread ends and its thread-local storage goes."""

    def __init__(self, init, clear):
        self._clear = clear
        self.base, self.exp, self.out = _Mpz(), _Mpz(), _Mpz()
        for z in (self.base, self.exp, self.out):
            init(z)
        self.buf = ctypes.create_string_buffer(_SIZE)
        self.count = ctypes.c_size_t()

    def __del__(self):
        for z in (self.base, self.exp, self.out):
            self._clear(z)


class LibGmp:
    """a^e and a^-1 modulo one odd modulus m < 2^384, on Python ints."""

    def __init__(self, lib: ctypes.CDLL, modulus: int):
        mpz_p, size_t, c_int = ctypes.POINTER(_Mpz), ctypes.c_size_t, ctypes.c_int
        for attr, args, res in (
            ("init", [mpz_p], None),
            ("clear", [mpz_p], None),
            ("import", [mpz_p, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p], None),
            ("export", [ctypes.c_char_p, ctypes.POINTER(size_t), c_int, size_t, c_int,
                        size_t, mpz_p], ctypes.c_void_p),
            ("powm", [mpz_p, mpz_p, mpz_p, mpz_p], None),
            ("invert", [mpz_p, mpz_p, mpz_p], c_int),
        ):
            fn = getattr(lib, "__gmpz_" + attr)  # the mpz_* names are macros
            fn.argtypes, fn.restype = args, res
            setattr(self, "_" + attr, fn)
        self._modulus = _Mpz()
        self._init(self._modulus)
        self._set(self._modulus, modulus)
        self._local = threading.local()

    def _temps(self) -> _Temps:
        try:
            return self._local.temps
        except AttributeError:
            temps = self._local.temps = _Temps(self._init, self._clear)
            return temps

    def _set(self, z: _Mpz, value: int) -> None:
        self._import(z, _SIZE, 1, 1, 0, 0, int(value).to_bytes(_SIZE, "big"))

    def _get(self, t: _Temps) -> int:
        self._export(t.buf, t.count, 1, 1, 0, 0, t.out)
        return int.from_bytes(t.buf.raw[: t.count.value], "big")

    def powm(self, a: int, e: int) -> int:
        """a^e mod m, for 0 <= a < m and 0 <= e < 2^384."""
        t = self._temps()
        self._set(t.base, a)
        self._set(t.exp, e)
        self._powm(t.out, t.base, t.exp, self._modulus)
        return self._get(t)

    def invert(self, a: int) -> int:
        """a^-1 mod m, for a in [1, m) prime to m."""
        t = self._temps()
        self._set(t.base, a)
        if not self._invert(t.out, t.base, self._modulus):
            raise ZeroDivisionError("not invertible")
        return self._get(t)


def load(modulus: int) -> Optional[LibGmp]:
    """The system libgmp bound for one modulus, or None."""
    return load_library(SONAMES, "gmp", lambda lib: LibGmp(lib, modulus))
