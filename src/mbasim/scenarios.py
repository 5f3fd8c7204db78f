"""Input scenario construction for trial campaigns.

Scenario ids (parenthesized integer parameter where shown):

* ``unanimous``          - every node observes the same random vector,
                           BOT components included.
* ``four-node-example``  - the canonical 4-observer disagreement whose
                           leaderless resolution is (9, 2, 8, 1); requires
                           n=4, t=0, m=4.
* ``split(k)``           - at every component, the first k honest nodes
                           observe one value and the rest another.
* ``ambiguous(l)``       - exactly l components are observed differently
                           across honest nodes (an even-as-possible split);
                           the remaining components are unanimous.
"""

from __future__ import annotations

import random
import re

from .core import BOT
from .crypto import digest
from .netsim import NetworkConfig


def scenario_rng(seed: int) -> random.Random:
    """Input-generation stream, decoupled from the trial's other randomness."""
    return random.Random(int.from_bytes(digest(seed.to_bytes(8, "big") + b"scenario"), "big"))

FOUR_NODE_EXAMPLE = (
    (b"9", b"2", b"8", b"4"),
    (b"9", b"2", b"7", b"1"),
    (b"9", b"3", b"8", b"1"),
    (b"0", b"2", b"8", b"1"),
)
FOUR_NODE_EXPECTED = (b"9", b"2", b"8", b"1")

_SPEC_RE = re.compile(r"^([a-z0-9_-]+)(?:\((\d+(?:,\d+)*)\))?$")


def parse_call(text: str) -> tuple:
    """'ambiguous(4)' -> ('ambiguous', (4,)); 'silent' -> ('silent', ())."""
    match = _SPEC_RE.match(text.strip())
    if not match:
        raise ValueError(f"cannot parse {text!r}")
    name, params = match.groups()
    if params:
        return name, tuple(int(x) for x in params.split(","))
    return name, ()


def _fresh_value(rng: random.Random, taken=()) -> bytes:
    while True:
        v = bytes([rng.randrange(256)])
        if v not in taken:
            return v


def _random_component(rng: random.Random):
    return BOT if rng.random() < 0.25 else _fresh_value(rng)


# The most parameters each scenario takes.
_MAX_PARAMS = {"unanimous": 0, "four-node-example": 0, "split": 1, "ambiguous": 1}


def build_inputs(name: str, params: tuple, config: NetworkConfig, rng: random.Random) -> list:
    """Per-node initial vectors (corrupt slots included, for honest-behaving
    strategies).  Raises ValueError for an unknown scenario or a parameter
    it does not take."""
    if name not in _MAX_PARAMS:
        raise ValueError(f"unknown scenario {name!r}")
    if len(params) > _MAX_PARAMS[name]:
        raise ValueError(f"{name} takes at most {_MAX_PARAMS[name]} parameters, got {params}")
    n, t, m = config.n, config.t, config.m
    honest = n - t
    if name == "unanimous":
        vector = tuple(_random_component(rng) for _ in range(m))
        return [vector] * n
    if name == "four-node-example":
        if (n, t, m) != (4, 0, 4):
            raise ValueError("four-node-example needs n=4, t=0, m=4")
        return list(FOUR_NODE_EXAMPLE)
    if name == "split":
        k = params[0] if params else (honest + 1) // 2
        if not 0 < k < honest:
            raise ValueError(f"split size must be in (0, {honest}), got {k}")
        first = tuple(_fresh_value(rng) for _ in range(m))
        second = tuple(_fresh_value(rng, (first[c],)) for c in range(m))
        return [first if i < k else second for i in range(honest)] + [first] * t
    if name == "ambiguous":
        l = params[0] if params else m
        if not 0 <= l <= m:
            raise ValueError(f"ambiguous count must be in [0, {m}], got {l}")
        majority = (honest + 1) // 2
        base = [_random_component(rng) for _ in range(m)]
        first, second = [], []
        for c in range(m):
            if c < l:
                a = _fresh_value(rng)
                b = _fresh_value(rng, (a,))
                first.append(a)
                second.append(b)
            else:
                first.append(base[c])
                second.append(base[c])
        first, second = tuple(first), tuple(second)
        return [first if i < majority else second for i in range(honest)] + [first] * t
