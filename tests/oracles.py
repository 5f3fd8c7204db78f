"""Brute-force oracles that tests check the program against.

The program never consults them: ``coin_game_oracle`` plays the coin-discard
game literally, for ``mbasim.analysis``'s closed forms, and ``c_agreement`` /
``agreed_value`` read one component across vectors, for the runtime
monitors' column scans.
"""

import random

from mbasim.analysis import _validate


def coin_game_oracle(num_coins: int, heads_prob: float, seed) -> int:
    """Plays the literal game; the brute-force oracle for the closed forms.

    Flips every remaining coin each step and discards the heads, counting
    steps until none remain.  Deliberately ignorant of the closed form.
    """
    _validate(num_coins, heads_prob)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    remaining = num_coins
    steps = 0
    while remaining > 0:
        steps += 1
        remaining = sum(rng.random() >= heads_prob for _ in range(remaining))
    return steps


def c_agreement(honest_vectors: list, c: int) -> bool:
    """True iff all given vectors agree at component c."""
    if not honest_vectors:
        raise ValueError("need at least one vector")
    return agreed_value(honest_vectors, c)[0]


def agreed_value(honest_vectors: list, c: int):
    """(True, v) when all vectors agree on v at component c, else (False, None)."""
    first = honest_vectors[0][c]
    if any(vec[c] != first for vec in honest_vectors):
        return False, None
    return True, first
