"""Iterated three-step multidimensional binary Byzantine agreement.

Each loop runs a Coin-Fixed-To-0 step, a Coin-Fixed-To-1 step, and a
Coin-Genuinely-Flipped step.  A component is finalized (its flag set) when
the step's favored bit gathers more than 2n/3 distinct senders; once every
flag is set the node broadcasts its bit vector with the finality marker,
outputs it and halts.  The genuinely-flipped step fills undecided components
from a shared coin derived from the minimal hashed unique signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Optional

from .core import BitTally, MessageEnvelope, Phase, StepId, two_thirds_majority
from .crypto import KeyPair, derive_coin, signing_message


class MbbaPhase(Enum):
    STEP1 = 1
    STEP2 = 2
    STEP3 = 3
    HALTED = 0


class Branch(IntEnum):
    """Which sub-step a node executed for one component in one step."""

    SKIPPED = 0         # flag already set, component untouched
    THRESHOLD_ZERO = 1  # >2n/3 support for 0
    THRESHOLD_ONE = 2   # >2n/3 support for 1
    DEFAULT = 3         # step's default bit (steps 1 and 2)
    COIN = 4            # shared coin bit (step 3)


_THRESHOLD = (Branch.THRESHOLD_ZERO, Branch.THRESHOLD_ONE)

# Per step: the bit its coin is fixed to, and the phase that follows.  A
# supermajority for the fixed bit finalizes, and the fixed bit fills the
# components without a supermajority.  None: the coin is flipped.
_STEPS = {
    MbbaPhase.STEP1: (0, MbbaPhase.STEP2),
    MbbaPhase.STEP2: (1, MbbaPhase.STEP3),
    MbbaPhase.STEP3: (None, MbbaPhase.STEP1),
}


def grades_to_bits(pairs) -> list:
    """Componentwise map from graded consensus to the binary agreement's
    input: grade 2 votes 0 (keep the value), lower grades vote 1."""
    return [0 if p.grade == 2 else 1 for p in pairs]


def signature_check(registry, common: bytes, step_id: StepId):
    """The tally's admission check for ``step_id``: in the coin step a fresh
    message must carry the sender's signature of the iteration's signing
    message; the other steps check nothing (None)."""
    if step_id.step != MbbaPhase.STEP3.value:
        return None
    message = signing_message(common, step_id.iteration)
    return lambda env: registry.verify(env.sender, message, env.signature)


@dataclass
class MbbaState:
    """Per-node binary-agreement run.

    Flags are monotone: once ``flags[c]`` is 1, ``bits[c]`` never changes
    again.  ``iteration`` counts completed three-step loops.
    """

    node: int
    n: int
    m: int
    key: KeyPair
    common: bytes
    bits: list[int]
    flags: list[int] = field(default_factory=list)
    iteration: int = 0
    phase: MbbaPhase = MbbaPhase.STEP1
    output: Optional[tuple] = None
    final_envelope: Optional[MessageEnvelope] = None
    finalized_at: list = field(default_factory=list)
    _final_sent: bool = False

    def __post_init__(self) -> None:
        if len(self.bits) != self.m:
            raise ValueError("bit vector length mismatch")
        if not self.flags:
            self.flags = [0] * self.m
        if not self.finalized_at:
            self.finalized_at = [None] * self.m

    # -- wire side ----------------------------------------------------------

    def step_id(self) -> StepId:
        return StepId(Phase.MBBA, self.iteration, self.phase.value)

    def outgoing(self) -> Optional[MessageEnvelope]:
        """This step's broadcast; None once halted (the simulator replays the
        final message instead)."""
        if self.phase == MbbaPhase.HALTED:
            return None
        payload = tuple(self.bits)
        if self.phase == MbbaPhase.STEP3:
            sig = self.key.sign(signing_message(self.common, self.iteration))
            return MessageEnvelope(self.node, self.step_id(), payload, signature=sig)
        return MessageEnvelope(self.node, self.step_id(), payload)

    # -- state transitions ---------------------------------------------------

    def apply(self, tally: BitTally) -> list[Branch]:
        """One step of the loop on this step's tally.

        A supermajority for a bit sets that bit; in a Coin-Fixed-To-b step a
        supermajority for b also finalizes the component.  Components with no
        supermajority take b, or in the Coin-Genuinely-Flipped step the coin
        derived from the tally's fresh signatures.
        """
        rule = _STEPS.get(self.phase)
        if rule is None:
            raise RuntimeError("MBBA transition after halting")
        fixed, after = rule
        threshold = two_thirds_majority(self.n)
        zeros, ones = tally.zeros, tally.ones
        bits, flags = self.bits, self.flags
        coin = None
        branches = []
        for c in range(self.m):
            if flags[c]:
                branches.append(Branch.SKIPPED)
            elif zeros[c] >= threshold or ones[c] >= threshold:
                # At most n senders are admitted, so zeros[c] and ones[c]
                # cannot both exceed 2n/3: which one is tested first does
                # not matter.
                bit = 0 if zeros[c] >= threshold else 1
                bits[c] = bit
                branches.append(_THRESHOLD[bit])
                if bit == fixed:
                    flags[c] = 1
                    self.finalized_at[c] = self.iteration
            elif fixed is not None:
                bits[c] = fixed
                branches.append(Branch.DEFAULT)
            else:
                if coin is None:
                    coin = self._coin(tally)
                bits[c] = coin[c]
                branches.append(Branch.COIN)
        if fixed is None:
            self.iteration += 1
        elif self.exit_check() is not None:
            return branches
        self.phase = after
        return branches

    def _coin(self, tally: BitTally) -> list:
        """The shared coin from the signatures on the tally's fresh messages;
        a final message never contributes one."""
        sigs = [
            (e.sender, e.signature)
            for e in tally.admitted.values()
            if e.signature is not None and not e.final
        ]
        if not sigs:
            raise RuntimeError("no valid signatures: own message missing")
        return derive_coin(sigs, self.m)

    def exit_check(self) -> Optional[tuple]:
        """Halt once every flag is set: fix the output and queue the final
        broadcast exactly once.  Returns the output when halted."""
        if self.phase == MbbaPhase.HALTED:
            return self.output
        if not all(self.flags):
            return None
        halted_at = self.step_id()
        self.output = tuple(self.bits)
        self.phase = MbbaPhase.HALTED
        if not self._final_sent:
            self._final_sent = True
            self.final_envelope = MessageEnvelope(
                self.node, halted_at, self.output, final=True
            )
        return self.output
