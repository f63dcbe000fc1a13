"""Group backends.

``get_group`` / ``get_pairing`` hand out shared instances by name:

* ``"ristretto255"`` -- production group for the single-card scheme
* ``"toy"``          -- order-1019 oracle group (tests only)
* ``"bls12-381"``    -- production pairing triple for the mergeable scheme
* ``"toy-pairing"``  -- oracle pairing triple (tests only)
"""

from __future__ import annotations

import functools

from .base import Group, PairingGroups
from .ristretto import RistrettoGroup
from .toy import ToyPairing, toy_group


def _bls12_381() -> PairingGroups:
    # imported on first use, so main-scheme processes never load BLS12-381
    from .bls import Bls12381

    return Bls12381()


_MAKERS = {
    "group": {"ristretto255": RistrettoGroup, "toy": toy_group},
    "pairing": {"bls12-381": _bls12_381, "toy-pairing": ToyPairing},
}
GROUP_NAMES = tuple(_MAKERS["group"])
PAIRING_NAMES = tuple(_MAKERS["pairing"])


@functools.cache
def _shared(kind: str, name: str):
    if name not in _MAKERS[kind]:
        raise ValueError(f"unknown {kind} {name!r}")
    return _MAKERS[kind][name]()


def get_group(name: str) -> Group:
    return _shared("group", name)


def get_pairing(name: str) -> PairingGroups:
    return _shared("pairing", name)
