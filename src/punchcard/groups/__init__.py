"""Group backends.

``get_group`` / ``get_pairing`` hand out shared instances by name:

* ``"ristretto255"`` -- production group for the single-card scheme
* ``"toy"``          -- order-1019 oracle group (tests only)
* ``"bls12-381"``    -- production pairing triple for the mergeable scheme
* ``"toy-pairing"``  -- oracle pairing triple (tests only)
"""

from __future__ import annotations

from .base import Group, PairingGroups, random_bytes, tagged, wide_hash
from .ristretto import RistrettoGroup
from .toy import SchnorrGroup, ToyPairing, toy_group


def _bls12_381() -> PairingGroups:
    # imported on first use, so main-scheme processes never load BLS12-381
    from .bls import Bls12381

    return Bls12381()


_GROUP_MAKERS = {"ristretto255": RistrettoGroup, "toy": toy_group}
_PAIRING_MAKERS = {"bls12-381": _bls12_381, "toy-pairing": ToyPairing}
GROUP_NAMES = tuple(_GROUP_MAKERS)
PAIRING_NAMES = tuple(_PAIRING_MAKERS)

_groups: dict[str, Group] = {}
_pairings: dict[str, PairingGroups] = {}


def get_group(name: str) -> Group:
    if name not in _groups:
        if name not in _GROUP_MAKERS:
            raise ValueError(f"unknown group {name!r}")
        _groups[name] = _GROUP_MAKERS[name]()
    return _groups[name]


def get_pairing(name: str) -> PairingGroups:
    if name not in _pairings:
        if name not in _PAIRING_MAKERS:
            raise ValueError(f"unknown pairing {name!r}")
        _pairings[name] = _PAIRING_MAKERS[name]()
    return _pairings[name]


__all__ = [
    "GROUP_NAMES",
    "Group",
    "PAIRING_NAMES",
    "PairingGroups",
    "RistrettoGroup",
    "SchnorrGroup",
    "ToyPairing",
    "get_group",
    "get_pairing",
    "random_bytes",
    "tagged",
    "toy_group",
    "wide_hash",
]
