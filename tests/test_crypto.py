"""Hash pinning, unique-signature behavior, and coin derivation."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbasim.crypto import (
    KeyRegistry,
    coin_seed,
    common_string,
    derive_coin,
    digest,
    signing_message,
)

VECTORS = json.loads((Path(__file__).parent / "data" / "hash_vectors.json").read_text())


def manual_bits(seed: bytes, m: int) -> tuple:
    """Independent MSB-first bit extraction used to cross-check derive_coin."""
    blocks = [seed]
    while len(blocks) * 256 < m:
        blocks.append(digest(seed + len(blocks).to_bytes(8, "big")))
    stream = b"".join(blocks)
    bits = []
    for byte in stream:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return tuple(bits[:m])


class TestHash:
    def test_pinned_vectors(self):
        for entry in VECTORS:
            assert digest(bytes.fromhex(entry["input_hex"])).hex() == entry["digest_hex"]

    def test_deterministic(self):
        assert digest(b"x") == digest(b"x")

    def test_lexicographic_order_stable(self):
        assert (digest(b"a") < digest(b"b")) == (digest(b"a") < digest(b"b"))
        assert len(digest(b"a")) == 32

    def test_million_distinct_inputs_no_collision(self):
        seen = set()
        for i in range(1_000_000):
            seen.add(hashlib.sha256(i.to_bytes(8, "big")).digest())
        assert len(seen) == 1_000_000


class TestSignatures:
    def test_round_trip(self):
        reg = KeyRegistry.from_seed(7, 4)
        sig = reg.sign(2, b"msg")
        assert reg.verify(2, b"msg", sig)

    def test_bit_flip_fails(self):
        reg = KeyRegistry.from_seed(7, 4)
        sig = bytearray(reg.sign(2, b"msg"))
        sig[5] ^= 0x01
        assert not reg.verify(2, b"msg", bytes(sig))

    def test_signing_is_deterministic(self):
        reg = KeyRegistry.from_seed(7, 4)
        assert reg.sign(1, b"msg") == reg.sign(1, b"msg")
        assert reg.keypair(1).sign(b"msg") == reg.sign(1, b"msg")

    def test_malformed_signature_returns_false(self):
        reg = KeyRegistry.from_seed(7, 4)
        assert not reg.verify(1, b"msg", None)
        assert not reg.verify(1, b"msg", b"short")
        assert not reg.verify(1, b"msg", "not-bytes")
        assert not reg.verify(99, b"msg", reg.sign(1, b"msg"))

    def test_keys_differ_across_nodes_and_from_common_string(self):
        reg = KeyRegistry.from_seed(7, 4)
        sigs = {reg.sign(i, b"msg") for i in range(4)}
        assert len(sigs) == 4
        assert common_string(7) not in sigs

    def test_seeded_registry_is_the_registry_of_its_secrets(self):
        base = (7).to_bytes(8, "big")
        secrets = {i: digest(base + b"node-secret" + i.to_bytes(4, "big")) for i in range(4)}
        given, seeded = KeyRegistry(secrets), KeyRegistry.from_seed(7, 4)
        sig = given.sign(1, b"msg")
        # the first use derives the keys, whichever call it is
        for node, signature in [(99, sig), (True, sig), (1, "str"), (1, bytearray(sig)), (1, sig)]:
            assert seeded.verify(node, b"msg", signature) == given.verify(node, b"msg", signature)
        assert [seeded.keypair(i) for i in range(4)] == [given.keypair(i) for i in range(4)]
        assert seeded.sign(3, b"m") == given.sign(3, b"m")
        for registry in (given, seeded):
            with pytest.raises(KeyError):
                registry.keypair(4)

    def test_signing_message_layout(self):
        r = common_string(1)
        assert signing_message(r, 3) == r + (3).to_bytes(8, "big")


class TestDeriveCoin:
    def test_single_signer_is_hash_of_hash(self):
        sig = b"\xaa" * 32
        expected = manual_bits(digest(digest(sig)), 16)
        assert derive_coin([sig], 16) == expected

    def test_two_signers_winner_by_digest_order(self):
        # independent recomputation: hash both signatures, compare bytes
        s1, s2 = b"\x01" * 32, b"\x02" * 32
        winner = s1 if digest(s1) < digest(s2) else s2
        assert derive_coin([s1, s2], 8) == manual_bits(digest(digest(winner)), 8)

    def test_same_set_same_coin(self):
        sigs = [digest(bytes([i])) for i in range(5)]
        assert derive_coin(sigs, 12) == derive_coin(list(reversed(sigs)), 12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            derive_coin([], 4)

    def test_extension_beyond_one_digest(self):
        sig = b"\x07" * 32
        m = 300
        coin = derive_coin([sig], m)
        assert coin == manual_bits(digest(digest(sig)), m)
        assert len(coin) == m

    def test_coin_seed_is_min_digest_hashed(self):
        sigs = [b"a" * 32, b"b" * 32, b"c" * 32]
        assert coin_seed(sigs) == digest(min(digest(s) for s in sigs))

    def test_different_sets_sharing_the_minimum_agree(self):
        # what makes honest coins coincide: every set contains the globally
        # minimal signature, the rest of the membership is irrelevant
        sigs = sorted((digest(bytes([i])) for i in range(6)), key=digest)
        winner = sigs[0]
        set_a = [winner, sigs[1], sigs[3]]
        set_b = [winner, sigs[2], sigs[4], sigs[5]]
        assert derive_coin(set_a, 16) == derive_coin(set_b, 16)

    @given(st.sets(st.binary(min_size=32, max_size=32), min_size=1, max_size=6), st.data())
    def test_permutation_and_duplication_invariance(self, sigs, data):
        ordered = sorted(sigs)
        shuffled = data.draw(st.permutations(ordered))
        duplicated = list(shuffled) + [shuffled[0]]
        assert derive_coin(ordered, 8) == derive_coin(duplicated, 8)

    def test_bits_near_uniform_over_many_iterations(self):
        # random-oracle behavior: each component is 1 about half the time;
        # deterministic corpus, 3-sigma band per component
        reg = KeyRegistry.from_seed(99, 1)
        m, trials = 8, 100_000
        ones = [0] * m
        r = common_string(99)
        for gamma in range(trials):
            sig = reg.sign(0, signing_message(r, gamma))
            coin = derive_coin([sig], m)
            for c in range(m):
                ones[c] += coin[c]
        sigma = (trials * 0.25) ** 0.5
        for c in range(m):
            assert abs(ones[c] - trials / 2) <= 3 * sigma, (c, ones[c])
