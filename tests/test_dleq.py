import random

import pytest

from punchcard import attacks, dleq
from punchcard.errors import InvalidEncoding
from punchcard.groups import get_group

TAG = "punchcard/dleq/v1"


@pytest.fixture(params=["toy", "ristretto255"])
def group(request):
    return get_group(request.param)


def _instance(group, rng):
    sk = group.random_scalar(rng)
    pk = group.exp(group.generator(), sk)
    point = group.exp(group.generator(), group.random_scalar(rng))
    image = group.exp(point, sk)
    return sk, pk, point, image


def test_prove_verify_round_trip(group):
    rng = random.Random(41)
    for _ in range(20):
        sk, pk, point, image = _instance(group, rng)
        got, proof = dleq.prove(group, TAG, sk, pk, point, rng)
        assert got == image
        assert dleq.verify(group, TAG, pk, point, image, proof)


def test_proof_serialization_round_trip(group):
    rng = random.Random(42)
    sk, pk, point, image = _instance(group, rng)
    _, proof = dleq.prove(group, TAG, sk, pk, point, rng)
    blob = proof.to_bytes(group)
    assert len(blob) == dleq.proof_size(group)
    again = dleq.proof_from_bytes(group, blob)
    assert dleq.verify(group, TAG, pk, point, image, again)
    with pytest.raises(InvalidEncoding):
        dleq.proof_from_bytes(group, blob + b"\x00")


def test_wrong_statement_rejected(group):
    rng = random.Random(43)
    sk, pk, point, image = _instance(group, rng)
    _, proof = dleq.prove(group, TAG, sk, pk, point, rng)
    other = group.exp(point, group.random_scalar(rng))
    assert not dleq.verify(group, TAG, pk, point, other, proof)
    assert not dleq.verify(group, TAG, point, pk, image, proof)


def test_wrong_key_rejected(group):
    rng = random.Random(44)
    sk, pk, point, image = _instance(group, rng)
    evil = group.random_scalar(rng)
    while evil == sk:
        evil = group.random_scalar(rng)
    evil_pk = group.exp(group.generator(), evil)
    _, proof = dleq.prove(group, TAG, evil, evil_pk, point, rng)
    # the attacker prepared a consistent proof for THEIR key; against the
    # advertised pk and honest image it must fail
    assert not dleq.verify(group, TAG, pk, point, image, proof)


def test_tag_binds_proof(group):
    rng = random.Random(45)
    sk, pk, point, image = _instance(group, rng)
    _, proof = dleq.prove(group, TAG, sk, pk, point, rng)
    assert not dleq.verify(group, "punchcard/dleq/v1/g0", pk, point, image, proof)


def test_challenge_depends_on_every_input(group):
    rng = random.Random(46)
    sk, pk, point, image = _instance(group, rng)
    a1 = group.exp(group.generator(), 5)
    a2 = group.exp(point, 5)
    base = dleq.challenge(group, TAG, group.generator(), pk, point, image, a1, a2)
    tweaked = [
        dleq.challenge(group, TAG, group.generator(), pk, point, image, a2, a1),
        dleq.challenge(group, TAG, group.generator(), pk, image, point, a1, a2),
        dleq.challenge(group, "t2", group.generator(), pk, point, image, a1, a2),
    ]
    assert all(t != base for t in tweaked)


def test_every_single_byte_corruption_rejected():
    """Exhaustive: all positions x a few bit patterns over the serialized
    proof; a corrupted proof must either fail to parse or fail to verify."""
    group = get_group("ristretto255")
    rng = random.Random(47)
    sk, pk, point, image = _instance(group, rng)
    _, proof = dleq.prove(group, TAG, sk, pk, point, rng)
    blob = bytearray(proof.to_bytes(group))
    assert len(blob) == 96
    survived = 0
    for i in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            mutant = bytes(blob[:i]) + bytes([blob[i] ^ mask]) + bytes(blob[i + 1 :])
            try:
                parsed = dleq.proof_from_bytes(group, mutant)
            except InvalidEncoding:
                continue
            if dleq.verify(group, TAG, pk, point, image, parsed):
                survived += 1
    assert survived == 0


def test_simulator_passes_programmed_transcript_only(group):
    """Zero-knowledge direction: for ANY challenge, simulated (A1, A2, z)
    satisfies the two verification equations, so transcripts reveal
    nothing. Against the hashed (Fiat-Shamir) challenge the same
    simulation fails, which is what makes forging fail in practice."""
    rng = random.Random(48)
    sk, pk, point, image = _instance(group, rng)
    for _ in range(10):
        chal = group.random_scalar(rng)
        a1, a2, z = attacks.simulate_dleq(group, pk, point, image, chal, rng)
        assert dleq.verify_transcript(group, pk, point, image, a1, a2, chal, z)
        hashed = dleq.challenge(
            group, TAG, group.generator(), pk, point, image, a1, a2
        )
        if hashed != chal:  # overwhelmingly the case
            assert not dleq.verify(
                group,
                TAG,
                pk,
                point,
                image,
                dleq.DleqProof(commit_base=a1, commit_point=a2, response=z),
            )


def test_simulated_and_real_transcripts_agree_shape(group):
    """Both produce (element, element, scalar) triples satisfying the same
    equations; nothing in a real proof distinguishes it structurally."""
    rng = random.Random(49)
    sk, pk, point, image = _instance(group, rng)
    _, real = dleq.prove(group, TAG, sk, pk, point, rng)
    c = dleq.challenge(
        group,
        TAG,
        group.generator(),
        pk,
        point,
        image,
        real.commit_base,
        real.commit_point,
    )
    assert dleq.verify_transcript(
        group, pk, point, image, real.commit_base, real.commit_point, c, real.response
    )


def test_proof_is_deterministic_only_with_seeded_rng(group):
    rng1 = random.Random(50)
    rng2 = random.Random(50)
    sk, pk, point, image = _instance(group, random.Random(51))
    _, p1 = dleq.prove(group, TAG, sk, pk, point, rng1)
    _, p2 = dleq.prove(group, TAG, sk, pk, point, rng2)
    assert p1.to_bytes(group) == p2.to_bytes(group)
    _, p3 = dleq.prove(group, TAG, sk, pk, point, random.Random(52))
    assert p3.to_bytes(group) != p1.to_bytes(group)
