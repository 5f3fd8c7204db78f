"""Byzantine strategies for the synchronous simulator.

All strategies are deterministic functions of the rushing view and their
seeded RNG.  They are static: the same t node ids are corrupt for the whole
run.  Available strategies:

* ``silent``            - sends nothing at all.
* ``crash_after(k)``    - behaves honestly for the first k message steps,
                          then goes silent; ``crash_after(0)`` is ``silent``.
* ``equivocator``       - splits the honest nodes in half and tells each
                          half a different story every step.
* ``split_keeper``      - supermajority-boundary attacker: pushes a chosen
                          half of the honest nodes just over the 2n/3
                          threshold while parking everyone else inside the
                          (n/3, 2n/3] dead zone, sustaining disagreement so
                          that as many Coin-Genuinely-Flipped steps run as
                          the coin allows; on coin steps it additionally
                          splits the shared coin whenever one of its own
                          hashed signatures is the lexicographic minimum.
* ``random_byzantine``  - seeded random noise: wrong kinds, wrong lengths,
                          junk signatures, occasional forged finality.
                          Its draws reproduce ``randrange``'s word for word
                          (``test_act_matches_randrange_reference``).
"""

from __future__ import annotations

from .core import BOT, MessageEnvelope, Phase, merge_tallies, two_thirds_majority
from .crypto import digest
from .mba import Node, step_classes
from .mgc import best_value
from .netsim import Adversary, AdversaryView, _restamp


class EquivocatorAdversary(Adversary):
    """Even-numbered honest nodes hear one story, odd-numbered the other."""

    name = "equivocator"

    def act(self, view: AdversaryView):
        m = self.config.m
        if view.step_id.phase == Phase.MBBA:
            variants = [(0,) * m, (1,) * m]
        else:
            payloads = [env.payload for env in view.honest_envelopes]
            first = payloads[0] if payloads else (BOT,) * m
            last = payloads[-1] if payloads else (b"\x00",) * m
            if first == last:
                last = tuple(b"\xee" for _ in range(m))
            variants = [first, last]
        sigs = self.signatures(view.step_id)
        stories = [
            [MessageEnvelope(z, view.step_id, p, signature=sigs[z]) for z in self.corrupt_ids]
            for p in variants
        ]
        return {r: stories[r % 2] for r in view.honest_ids}


class CrashAfterAdversary(Adversary):
    """Runs the honest protocol on its own nodes for k message steps, then
    crashes.  Its nodes tally one inbox, so they step as one class."""

    name = "crash_after"

    def __init__(self, crash_step: int = 0):
        self.crash_step = crash_step

    def setup(self, config, registry, common, initial_vectors) -> None:
        super().setup(config, registry, common, initial_vectors)
        if initial_vectors is None:
            raise ValueError("crash_after runs the honest protocol and needs initial vectors")
        self.steps_sent = 0
        self.nodes = [
            Node([z], config.n, config.m, initial_vectors[z], registry, common)
            for z in self.corrupt_ids
        ]

    def act(self, view: AdversaryView):
        if self.steps_sent >= self.crash_step:  # crashed
            return []
        self.steps_sent += 1
        # A halted node says its final again; the engine delivers it once
        # and then replays it in place of anything the node sends.
        self.last_sent = [
            env
            for node in self.nodes
            for env in node.messages or [_restamp(f, view.step_id) for f in node.finals]
        ]
        return self.last_sent

    def end_step(self, view: AdversaryView) -> None:
        """Step the running nodes on their inbox: this adversary's own sends
        merged onto the engine's tally of the honest envelopes, by the rules
        that tally keeps and with the codes of the step's table."""
        if self.steps_sent >= self.crash_step or all(n.messages is None for n in self.nodes):
            return
        tally = merge_tallies(view.tally, self.last_sent, view.codes)
        tallies = dict.fromkeys(self.corrupt_ids, tally)
        self.nodes = [node for node, _ in step_classes(self.nodes, tallies)]


_BYTES = tuple(bytes([b]) for b in range(256))


def _random_bits(rng, k: int) -> tuple:
    """``tuple(rng.randrange(2) for _ in range(k))``: the same
    ``getrandbits(2)`` calls as CPython's ``_randbelow``, without its frames."""
    getrandbits = rng.getrandbits
    bits = []
    for _ in range(k):
        b = getrandbits(2)
        while b > 1:
            b = getrandbits(2)
        bits.append(b)
    return tuple(bits)


def _random_byte(rng) -> bytes:
    """``bytes([rng.randrange(256)])``: ``getrandbits(9)`` until below 256."""
    b = rng.getrandbits(9)
    while b > 255:
        b = rng.getrandbits(9)
    return _BYTES[b]


class RandomByzantineAdversary(Adversary):
    """Seeded random noise, including malformed payloads and bogus signatures.

    Its draws reproduce ``randrange``'s word for word, pinned by
    ``tests/test_adversaries.py::test_act_matches_randrange_reference``.
    """

    name = "random_byzantine"

    def act(self, view: AdversaryView):
        rng = self.rng
        random = rng.random
        m = self.config.m
        sid = view.step_id
        bits = sid.phase == Phase.MBBA
        coin = sid.coin
        sigs = self.signatures(sid)
        sends: dict[int, list] = {}
        for r in view.honest_ids:
            envs = []
            for z in self.corrupt_ids:
                if random() < 0.10:
                    continue  # stays silent toward this recipient
                length = m
                if random() < 0.05:
                    length = max(1, m + rng.choice((-1, 1)))
                if bits != (random() < 0.05):  # the other kind, 5% of the time
                    payload = _random_bits(rng, length)
                else:
                    payload = tuple(
                        [BOT if random() < 0.2 else _random_byte(rng) for _ in range(length)]
                    )
                sig = None
                if coin:
                    sig_roll = random()
                    if sig_roll < 0.75:
                        sig = sigs[z]
                    elif sig_roll < 0.90:
                        sig = rng.randbytes(32)
                final = bits and random() < 0.02
                envs.append(MessageEnvelope(z, sid, payload, signature=sig, final=final))
                if random() < 0.05:
                    envs.append(envs[-1])  # exact duplicate, collapses to one
                if random() < 0.05:
                    # well-formed contrasting second message: equivocation,
                    # gets this node discarded at this recipient for the step
                    if bits:
                        alt = _random_bits(rng, m)
                    else:
                        alt = tuple([_random_byte(rng) for _ in range(m)])
                    envs.append(MessageEnvelope(z, sid, alt, signature=sigs[z]))
            if envs:
                sends[r] = envs
        return sends


class SplitKeeperAdversary(Adversary):
    """Threshold-boundary attack maximizing Coin-Genuinely-Flipped usage.

    At every step it recomputes, per component, how many honest votes each
    value has, then pushes a sized subset of the active honest nodes just
    over the 2n/3 supermajority while feeding everyone else a vote mix that
    keeps both counts inside the dead zone.  Set sizes are chosen so the
    surviving disagreement stays pushable at the following step.  During
    coin steps, if one of its own hashed signatures undercuts every honest
    one, it shows that signature to half the active nodes and withholds it
    from the rest, splitting the derived coin.
    """

    name = "split_keeper"

    def _sizes(self) -> tuple:
        cfg = self.config
        thr = two_thirds_majority(cfg.n)
        return thr, thr - 1, cfg.t

    # -- value steps (graded consensus) ------------------------------------

    def _act_values(self, view: AdversaryView):
        thr, flo, t = self._sizes()
        m = self.config.m
        tally = view.tally
        active = view.active_honest
        # Step 1 primes a minimal relay majority; step 2 grades a low half at
        # 2 and starves the rest down to grade 1.
        if view.step_id.step == 1:
            size = max(1, min(thr - t, len(active) - 1))
        else:
            size = max(1, min(len(active) - (thr - t), len(active) - 1))
        push_value: list = [None] * m
        push_set: list = [frozenset()] * m
        for c in range(m):
            # the most held honest value, ties toward the smaller
            value, have = best_value(tally, c)
            if value is not BOT and have + t >= thr and have <= flo:
                push_value[c] = value
                push_set[c] = frozenset(active[:size])
        junk = [b"\xf0" + bytes([c % 256]) for c in range(m)]
        stories: dict[tuple, list] = {}  # payload -> the envelopes carrying it
        sends: dict[int, list] = {}
        for r in view.honest_ids:
            payload = tuple(
                push_value[c] if r in push_set[c] else junk[c] for c in range(m)
            )
            envs = stories.get(payload)
            if envs is None:
                envs = stories[payload] = [
                    MessageEnvelope(z, view.step_id, payload) for z in self.corrupt_ids
                ]
            sends[r] = envs
        return sends

    # -- bit steps (binary agreement) ---------------------------------------

    def _dead_zone_zero_votes(self, h0: int, h1: int, flo: int, t: int) -> int:
        """How many of the t votes should be 0 to keep both counts <= flo."""
        low = max(0, h1 + t - flo)
        high = min(t, flo - h0)
        if low > high:
            return max(0, min(t, flo - h0))
        return low

    def _act_bits(self, view: AdversaryView):
        thr, flo, t = self._sizes()
        m = self.config.m
        sid = view.step_id
        step = sid.step
        zeros, ones = view.tally.zeros, view.tally.ones
        active = view.active_honest
        act = len(active)

        signatures = self.signatures(sid)
        split_sigs = self._coin_split(view, signatures) if sid.coin else None

        push_bit = [-1] * m      # -1: no push at this component
        push_set: list = [frozenset()] * m
        filler_zero_votes = [0] * m
        for c in range(m):
            h0, h1 = zeros[c], ones[c]
            filler_zero_votes[c] = self._dead_zone_zero_votes(h0, h1, flo, t)
            if act < 2 or (split_sigs is not None):
                continue  # coin-splitting mode leaves every tally in the dead zone
            if step == 1:
                candidates = ((1, h1, h0),)
            elif step == 2:
                candidates = ((0, h0, h1),)
            else:
                candidates = ((0, h0, h1), (1, h1, h0))
            for bit, mine, other in candidates:
                if mine + t >= thr and mine <= flo and other <= flo:
                    if step == 1:
                        size = act - (thr - t)
                    elif step == 2:
                        size = thr - t
                    else:
                        size = thr - t if bit == 1 else act - (thr - t)
                    size = max(1, min(size, act - 1))
                    push_bit[c] = bit
                    push_set[c] = frozenset(active[:size])
                    break

        sends: dict[int, list] = {}
        show_min_to, withheld = split_sigs or (frozenset(), frozenset())

        # A recipient's envelopes depend only on its class: which push sets
        # hold it, and whether it is shown the withheld signatures.
        stories: dict[tuple, list] = {}  # class -> the envelopes it is sent
        for r in view.honest_ids:
            pushed = tuple(r in members for members in push_set)
            shown = r in show_min_to
            envs = stories.get((pushed, shown))
            if envs is None:
                envs = stories[pushed, shown] = []
                for idx, z in enumerate(self.corrupt_ids):
                    if z in withheld and not shown:
                        continue
                    payload = tuple(
                        push_bit[c] if pushed[c] else (0 if idx < filler_zero_votes[c] else 1)
                        for c in range(m)
                    )
                    envs.append(MessageEnvelope(z, sid, payload, signature=signatures[z]))
            if envs:
                sends[r] = envs
        return sends

    def _coin_split(self, view: AdversaryView, signatures: dict):
        """When a corrupt signature hashes below every honest one, pick who sees it.

        ``signatures`` holds each corrupt node's signature for this coin
        step.  Returns (recipients shown the minimal signature, corrupt ids
        withheld from everyone else), or None when the honest minimum wins
        anyway.
        """
        honest_digests = [
            digest(env.signature)
            for env in view.honest_envelopes
            if env.signature is not None
        ]
        if not honest_digests:
            return None
        honest_min = min(honest_digests)
        mine = {z: digest(sig) for z, sig in signatures.items()}
        below = frozenset(z for z, d in mine.items() if d < honest_min)
        if not below:
            return None
        half = view.active_honest[0::2]
        return frozenset(half), below

    def act(self, view: AdversaryView):
        if not view.honest_envelopes:
            return []
        if view.step_id.phase == Phase.MGC:
            return self._act_values(view)
        return self._act_bits(view)


STRATEGIES = {
    cls.name: cls
    for cls in (
        Adversary,
        CrashAfterAdversary,
        EquivocatorAdversary,
        SplitKeeperAdversary,
        RandomByzantineAdversary,
    )
}


def make_adversary(name: str, params: tuple = ()) -> Adversary:
    """Instantiate a strategy by registry name, e.g. ('crash_after', (3,))."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown adversary {name!r}; known: {sorted(STRATEGIES)}")
    return cls(*params)
