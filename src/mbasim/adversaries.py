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
"""

from __future__ import annotations

from typing import Optional

from .core import (
    BOT,
    MessageEnvelope,
    PayloadKind,
    Phase,
    ingest,
    two_thirds_majority,
)
from .crypto import digest, signing_message
from .mbba import MbbaPhase, MbbaState, grades_to_bits, signature_check
from .mgc import MgcState
from .netsim import Adversary, AdversaryView


class SilentAdversary(Adversary):
    name = "silent"


def _honest_payloads(view: AdversaryView) -> list:
    return [env.payload for env in view.honest_envelopes]


class EquivocatorAdversary(Adversary):
    """Even-numbered honest nodes hear one story, odd-numbered the other."""

    name = "equivocator"

    def act(self, view: AdversaryView):
        m = self.config.m
        if view.kind == PayloadKind.BITS:
            variants = [(0,) * m, (1,) * m]
        else:
            payloads = _honest_payloads(view)
            first = payloads[0] if payloads else (BOT,) * m
            last = payloads[-1] if payloads else (b"\x00",) * m
            if first == last:
                last = tuple(b"\xee" for _ in range(m))
            variants = [first, last]
        signature = view.step_id.step == 3 and view.step_id.phase == Phase.MBBA
        sends: dict[int, list] = {}
        for r in view.honest_ids:
            payload = variants[r % 2]
            envs = []
            for z in self.corrupt_ids:
                sig = None
                if signature:
                    sig = self.registry.sign(
                        z, signing_message(self.common, view.step_id.iteration)
                    )
                envs.append(MessageEnvelope(z, view.step_id, payload, signature=sig))
            sends[r] = envs
        return sends


class CrashAfterAdversary(Adversary):
    """Runs the honest protocol on its own nodes for k message steps, then crashes."""

    name = "crash_after"

    def __init__(self, crash_step: int = 0):
        self.crash_step = crash_step

    def setup(self, config, registry, common, initial_vectors, rng) -> None:
        super().setup(config, registry, common, initial_vectors, rng)
        if initial_vectors is None:
            raise ValueError("crash_after runs the honest protocol and needs initial vectors")
        self.steps_sent = 0
        self.mgc: dict[int, MgcState] = {
            z: MgcState(z, config.n, config.m, tuple(initial_vectors[z]))
            for z in self.corrupt_ids
        }
        self.mbba: dict[int, MbbaState] = {}
        self.next_out: dict[int, Optional[MessageEnvelope]] = {
            z: st.step1_outgoing() for z, st in self.mgc.items()
        }
        self.last_sent: list[MessageEnvelope] = []

    @property
    def crashed(self) -> bool:
        return self.steps_sent >= self.crash_step

    def act(self, view: AdversaryView):
        if self.crashed:
            return []
        self.steps_sent += 1
        out = []
        for env in self.next_out.values():
            if env is None:
                continue
            if env.final and env.step_id != view.step_id:
                # the finality broadcast of a node that halted last step
                env = MessageEnvelope(env.sender, view.step_id, env.payload, final=True)
            out.append(env)
        self.last_sent = out
        return list(out)

    def end_step(self, view: AdversaryView) -> None:
        if self.crashed:
            return
        inbox = list(view.honest_envelopes) + self.last_sent
        sid = view.step_id
        m = self.config.m
        if sid.phase == Phase.MGC and sid.step == 1:
            tally = ingest(inbox, m=m, kind=PayloadKind.VALUES)
            self.next_out = {z: st.step2_compute(tally) for z, st in self.mgc.items()}
        elif sid.phase == Phase.MGC and sid.step == 2:
            tally = ingest(inbox, m=m, kind=PayloadKind.VALUES)
            for z, st in self.mgc.items():
                bits = grades_to_bits(st.output_determination(tally))
                self.mbba[z] = MbbaState(
                    z, self.config.n, m, self.registry.keypair(z), self.common, bits
                )
            self.next_out = {z: st.outgoing() for z, st in self.mbba.items()}
        else:
            check = signature_check(self.registry, self.common, sid)
            tally = ingest(inbox, m=m, kind=PayloadKind.BITS, signature_check=check)
            self.next_out = {}
            for z, st in self.mbba.items():
                if st.phase == MbbaPhase.HALTED:
                    continue
                st.apply(tally)
                if st.phase == MbbaPhase.HALTED:
                    # one last finality broadcast, replayed by the engine afterwards
                    self.next_out[z] = st.final_envelope
                else:
                    self.next_out[z] = st.outgoing()


class RandomByzantineAdversary(Adversary):
    """Seeded random noise, including malformed payloads and bogus signatures."""

    name = "random_byzantine"

    def act(self, view: AdversaryView):
        rng = self.rng
        m = self.config.m
        step3 = view.step_id.phase == Phase.MBBA and view.step_id.step == 3
        sends: dict[int, list] = {}
        for r in view.honest_ids:
            envs = []
            for z in self.corrupt_ids:
                roll = rng.random()
                if roll < 0.10:
                    continue  # stays silent toward this recipient
                length = m
                if rng.random() < 0.05:
                    length = max(1, m + rng.choice((-1, 1)))
                wrong_kind = rng.random() < 0.05
                if (view.kind == PayloadKind.BITS) != wrong_kind:
                    payload = tuple(rng.randrange(2) for _ in range(length))
                else:
                    payload = tuple(
                        BOT if rng.random() < 0.2 else bytes([rng.randrange(256)])
                        for _ in range(length)
                    )
                sig = None
                if step3:
                    sig_roll = rng.random()
                    if sig_roll < 0.75:
                        sig = self.registry.sign(
                            z, signing_message(self.common, view.step_id.iteration)
                        )
                    elif sig_roll < 0.90:
                        sig = rng.randbytes(32)
                final = view.kind == PayloadKind.BITS and rng.random() < 0.02
                envs.append(
                    MessageEnvelope(z, view.step_id, payload, signature=sig, final=final)
                )
                if rng.random() < 0.05 and envs:
                    envs.append(envs[-1])  # exact duplicate, collapses to one
                if rng.random() < 0.05:
                    # well-formed contrasting second message: equivocation,
                    # gets this node discarded at this recipient for the step
                    if view.kind == PayloadKind.BITS:
                        alt = tuple(rng.randrange(2) for _ in range(m))
                    else:
                        alt = tuple(bytes([rng.randrange(256)]) for _ in range(m))
                    alt_sig = None
                    if step3:
                        alt_sig = self.registry.sign(
                            z, signing_message(self.common, view.step_id.iteration)
                        )
                    envs.append(MessageEnvelope(z, view.step_id, alt, signature=alt_sig))
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

    def _best_value(self, counts: dict):
        best, best_count = None, 0
        for v, k in counts.items():
            if v is BOT:
                continue
            if k > best_count or (k == best_count and best is not None and v < best):
                best, best_count = v, k
        return best, best_count

    def _act_values(self, view: AdversaryView):
        thr, flo, t = self._sizes()
        m = self.config.m
        counts = ingest(view.honest_envelopes, m=m, kind=PayloadKind.VALUES).counts
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
            value, have = self._best_value(counts[c])
            if value is not None and have + t >= thr and have <= flo:
                push_value[c] = value
                push_set[c] = frozenset(active[:size])
        junk = [b"\xf0" + bytes([c % 256]) for c in range(m)]
        sends: dict[int, list] = {}
        for r in view.honest_ids:
            payload = tuple(
                push_value[c] if r in push_set[c] else junk[c] for c in range(m)
            )
            sends[r] = [MessageEnvelope(z, view.step_id, payload) for z in self.corrupt_ids]
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
        step = view.step_id.step
        tally = ingest(view.honest_envelopes, m=m, kind=PayloadKind.BITS)
        zeros, ones = tally.zeros, tally.ones
        active = view.active_honest
        act = len(active)

        split_sigs = None
        if step == 3:
            split_sigs = self._coin_split(view)

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
        show_min_to = frozenset()
        withheld = frozenset()
        signatures: dict[int, bytes] = {}
        if step == 3:
            message = signing_message(self.common, view.step_id.iteration)
            signatures = {z: self.registry.sign(z, message) for z in self.corrupt_ids}
            if split_sigs is not None:
                show_min_to, withheld = split_sigs

        for r in view.honest_ids:
            envs = []
            for idx, z in enumerate(self.corrupt_ids):
                if step == 3 and z in withheld and r not in show_min_to:
                    continue
                payload = tuple(
                    push_bit[c]
                    if r in push_set[c]
                    else (0 if idx < filler_zero_votes[c] else 1)
                    for c in range(m)
                )
                envs.append(
                    MessageEnvelope(z, view.step_id, payload, signature=signatures.get(z))
                )
            if envs:
                sends[r] = envs
        return sends

    def _coin_split(self, view: AdversaryView):
        """When a corrupt signature hashes below every honest one, pick who sees it.

        Returns (recipients shown the minimal signature, corrupt ids withheld
        from everyone else), or None when the honest minimum wins anyway.
        """
        message = signing_message(self.common, view.step_id.iteration)
        honest_digests = [
            digest(env.signature)
            for env in view.honest_envelopes
            if env.signature is not None
        ]
        if not honest_digests:
            return None
        honest_min = min(honest_digests)
        mine = {z: digest(self.registry.sign(z, message)) for z in self.corrupt_ids}
        below = frozenset(z for z, d in mine.items() if d < honest_min)
        if not below:
            return None
        half = view.active_honest[0::2]
        return frozenset(half), below

    def act(self, view: AdversaryView):
        if not view.honest_envelopes:
            return []
        if view.kind == PayloadKind.VALUES:
            return self._act_values(view)
        return self._act_bits(view)


STRATEGIES = {
    cls.name: cls
    for cls in (
        SilentAdversary,
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
