"""Hashing, simulated unique signatures, and shared-coin derivation.

The hash is SHA-256, fixed for the whole build and pinned by the test
vectors in ``tests/data/hash_vectors.json``.  Digests are ordered by plain
lexicographic byte order.

Signatures are simulated by a deterministic keyed construction
``sig = H(secret || message)`` verified by recomputation under a registry of
node secrets held by the trusted simulator.  This is NOT publicly verifiable
cryptography; it is adequate here because the simulator is the only
verifier.  Determinism gives the uniqueness property the protocol relies on:
for a fixed (key, message) exactly one signature verifies, so a node cannot
grind alternative signatures to bias the coin.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

DIGEST_SIZE = 32


def digest(data: bytes) -> bytes:
    """32-byte SHA-256 digest; the build's single random-oracle stand-in."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    node: int
    secret: bytes

    def sign(self, message: bytes) -> bytes:
        return digest(self.secret + message)


class KeyRegistry:
    """All nodes' signing secrets, playing the role of public knowledge.

    Every simulated party may verify any signature through the registry,
    mirroring a network where all verification keys are known to everyone.
    ``KeyRegistry(secrets)`` holds the given secrets.  A registry made by
    :meth:`from_seed` derives all n secrets together at its first
    ``keypair``, ``sign`` or ``verify``, so a trial that never signs (no
    coin step) derives none.
    """

    def __init__(self, secrets: dict[int, bytes]):
        self._keys = {node: KeyPair(node, secret) for node, secret in secrets.items()}

    @classmethod
    def from_seed(cls, seed: int, n: int) -> "KeyRegistry":
        """The registry of nodes 0 to n-1 for a trial seed; the secrets are
        derived on first use."""
        registry = cls.__new__(cls)
        registry._seed, registry._n = seed.to_bytes(8, "big", signed=False), n
        return registry

    @cached_property
    def _keys(self) -> dict:
        """The seeded registry's keys, derived together on first use (an
        unseeded one sets them in ``__init__``)."""
        base = self._seed
        return {
            i: KeyPair(i, digest(base + b"node-secret" + i.to_bytes(4, "big")))
            for i in range(self._n)
        }

    def keypair(self, node: int) -> KeyPair:
        return self._keys[node]

    def sign(self, node: int, message: bytes) -> bytes:
        return self._keys[node].sign(message)

    def verify(self, node: int, message: bytes, signature) -> bool:
        key = self._keys.get(node)
        if key is None or not isinstance(signature, bytes):
            return False
        return hmac.compare_digest(key.sign(message), signature)


def common_string(seed: int) -> bytes:
    """Shared setup string, derived independently of the node secrets."""
    return digest(seed.to_bytes(8, "big", signed=False) + b"common-string")


def signing_message(common: bytes, iteration: int) -> bytes:
    """Bytes signed in a Coin-Genuinely-Flipped step: common string || 8-byte BE counter."""
    return common + iteration.to_bytes(8, "big")


def coin_seed(signatures: Iterable[bytes]) -> bytes:
    """Hash of the lexicographically minimal signature digest."""
    digests = [digest(s) for s in signatures]
    if not digests:
        raise ValueError("coin derivation needs at least one signature")
    return digest(min(digests))


def derive_coin(signatures: Iterable[bytes], m: int) -> tuple:
    """Shared coin bits for one Coin-Genuinely-Flipped step.

    ``signatures`` is the non-empty collection of signatures that verified
    against the step's signing message; an honest node always holds at least
    its own.  The seed is the hash of the minimal signature digest, and bits
    come out MSB-first, extended counter-mode when m > 256.  Invariant under
    permutation and duplication of the signatures.
    """
    seed = coin_seed(signatures)
    bits: list[int] = []
    block = seed
    counter = 0
    while len(bits) < m:
        for byte in block:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
                if len(bits) == m:
                    return tuple(bits)
        counter += 1
        block = digest(seed + counter.to_bytes(8, "big"))
    return tuple(bits)
