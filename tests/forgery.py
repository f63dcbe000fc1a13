"""One-equation DLEQ forgeries, which only a holder of the key can make.

A DLEQ proof (dleq.py) must pass two equations, g^z == A1 * pk^c and
p^z == A2 * q^c. A server that holds sk can claim q = p^(sk+1), a punch
under a second exponent that would tag the card, and pick z to pass just
one of them: z = k + c*sk passes the first, z = k + c*(sk+1) the second.
Fiat-Shamir hashes q into c, so each fails the other equation, and only a
verifier that checks both refuses both.
"""

from punchcard import dleq


def forge(group, tag, sk, pk, point, equation, rng=None):
    """(q, proof): q = point^(sk+1) and a proof of it under pk = g^sk that
    passes verification equation `equation` (1 or 2) and not the other."""
    k = group.random_scalar(rng)
    image = group.exp(point, (sk + 1) % group.order)
    commit_base, commit_point = group.exp_base(k), group.exp(point, k)
    c = dleq.challenge(
        group, tag, group.generator(), pk, point, image, commit_base, commit_point
    )
    z = (k + c * (sk if equation == 1 else sk + 1)) % group.order
    return image, dleq.DleqProof(commit_base, commit_point, z)

