"""Discrete-log-equality proofs (Chaum-Pedersen, made non-interactive).

Statement: for bases (g, p) and points (pk, q), the prover knows sk with
pk = g^sk and q = p^sk. The punch flow uses this so a client can check the
server applied the advertised key to its masked card and nothing else.

Transcript form is (A1, A2, z): commitments A1 = g^k, A2 = p^k, challenge
c = H(tag || g || pk || p || q || A1 || A2) via a 512-bit digest reduced mod
the group order, response z = k + c*sk. Verification checks

    g^z == A1 * pk^c        p^z == A2 * q^c

after recomputing c. verify_transcript checks the same equations for a
given challenge; the challenge-programmed simulator that passes it
without the key lives with the drills, in attacks.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from .groups.base import Field, Group, element, scalar, unpack

Element = Any


@dataclass(frozen=True)
class DleqProof:
    commit_base: Element  # A1 = g^k
    commit_point: Element  # A2 = p^k
    response: int  # z = k + c*sk

    def to_bytes(self, group: Group) -> bytes:
        return (
            group.encode_element(self.commit_base)
            + group.encode_element(self.commit_point)
            + group.encode_scalar(self.response)
        )


def proof_size(group: Group) -> int:
    return 2 * group.element_size + group.scalar_size


def proof_from_bytes(group: Group, data: bytes) -> DleqProof:
    fields = [element(group), element(group), scalar(group)]
    return DleqProof(*unpack(data, fields, "proof"))


def proof_field(group: Group) -> Field:
    """A proof as one field of groups.unpack."""
    return proof_size(group), lambda data: proof_from_bytes(group, data), None


def challenge(
    group: Group,
    tag: str,
    base: Element,
    pk: Element,
    point: Element,
    image: Element,
    commit_base: Element,
    commit_point: Element,
) -> int:
    enc = group.encode_element
    transcript = (
        enc(base) + enc(pk) + enc(point) + enc(image) + enc(commit_base) + enc(commit_point)
    )
    return group.hash_to_scalar(tag, transcript)


def prove(
    group: Group,
    tag: str,
    sk: int,
    pk: Element,
    point: Element,
    rng=None,
) -> Tuple[Element, DleqProof]:
    """(image, proof): image = point^sk, and the proof of it under the key
    pk, which must equal g^sk: the caller passes the key it already holds,
    so no proof recomputes it. A wrong pk gives a proof that does not
    verify. Fresh nonce k every call, never reused across proofs, drawn
    before anything is computed. point^sk and point^k are one exp_many, so
    a group can share its work on point between them; g^k goes through the
    group's fixed-base exp_base."""
    k = group.random_scalar(rng)
    image, commit_point = group.exp_many(point, (sk, k))
    commit_base = group.exp_base(k)
    c = challenge(
        group, tag, group.generator(), pk, point, image, commit_base, commit_point
    )
    z = (k + c * sk) % group.order
    return image, DleqProof(commit_base, commit_point, z)


def verify(
    group: Group,
    tag: str,
    pk: Element,
    point: Element,
    image: Element,
    proof: DleqProof,
) -> bool:
    """Recompute the challenge and check both equations; g^z goes through
    the group's fixed-base exp_base."""
    base = group.generator()
    c = challenge(
        group, tag, base, pk, point, image, proof.commit_base, proof.commit_point
    )
    return verify_transcript(
        group, pk, point, image, proof.commit_base, proof.commit_point, c, proof.response
    )


def verify_transcript(
    group: Group,
    pk: Element,
    point: Element,
    image: Element,
    commit_base: Element,
    commit_point: Element,
    chal: int,
    response: int,
) -> bool:
    """The interactive verification equations, with the challenge supplied."""
    lhs1 = group.exp_base(response)
    rhs1 = group.mul(commit_base, group.exp(pk, chal))
    lhs2 = group.exp(point, response)
    rhs2 = group.mul(commit_point, group.exp(image, chal))
    return lhs1 == rhs1 and lhs2 == rhs2

