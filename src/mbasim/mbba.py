"""Iterated three-step multidimensional binary Byzantine agreement.

Each loop runs a Coin-Fixed-To-0 step, a Coin-Fixed-To-1 step, and a
Coin-Genuinely-Flipped step, steps 1, 2 and 3 of the loop's ``StepId``.  A
component is finalized (its flag set) when the step's favored bit gathers
more than 2n/3 distinct senders; once every flag is set the node broadcasts
its bit vector with the finality marker, outputs it and halts.  The
genuinely-flipped step fills undecided components from a shared coin
derived from the minimal hashed unique signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .core import BitTally, Phase, StepId, two_thirds_majority
from .crypto import derive_coin, signing_message


class Branch(IntEnum):
    """Which sub-step a node executed for one component in one step."""

    SKIPPED = 0         # flag already set, component untouched
    THRESHOLD_ZERO = 1  # >2n/3 support for 0
    THRESHOLD_ONE = 2   # >2n/3 support for 1
    DEFAULT = 3         # step's default bit (steps 1 and 2)
    COIN = 4            # shared coin bit (step 3)


_THRESHOLD = (Branch.THRESHOLD_ZERO, Branch.THRESHOLD_ONE)

# Per step: the bit its coin is fixed to.  A supermajority for the fixed bit
# finalizes, and the fixed bit fills the components without a supermajority.
# None: the coin is flipped.  Step s is followed by step s % 3 + 1.
_STEPS = {1: 0, 2: 1, 3: None}


def grades_to_bits(pairs) -> list:
    """Componentwise map from graded consensus to the binary agreement's
    input: grade 2 votes 0 (keep the value), lower grades vote 1."""
    return [0 if p.grade == 2 else 1 for p in pairs]


def signature_check(registry, common: bytes, step_id: StepId):
    """The tally's admission check for ``step_id``: in the coin step a fresh
    message must carry the sender's signature of the iteration's signing
    message; the other steps check nothing (None)."""
    if not step_id.coin:
        return None
    message = signing_message(common, step_id.iteration)
    return lambda env: registry.verify(env.sender, message, env.signature)


def signatures(registry, common: bytes, step_id: StepId, ids) -> dict:
    """Each of ``ids``' signature for a message of ``step_id`` (None off the
    coin step).  Honest and corrupt nodes alike sign only here."""
    if not step_id.coin:
        return dict.fromkeys(ids)
    message = signing_message(common, step_id.iteration)
    return {i: registry.keypair(i).sign(message) for i in ids}


@dataclass
class MbbaState:
    """A binary-agreement run.  It holds no node identity or key: ``mba.Node``
    signs and sends the bits it returns.

    The fields are what the next transition reads.  ``bits`` is this
    step's bit vector and ``flags`` marks its finalized components; flags
    are monotone, and once ``flags[c]`` is 1, ``bits[c]`` never changes
    again.  ``iteration`` counts completed three-step loops, and ``step``
    (1 to 3) is the step of the loop that ``apply`` runs next, or the one
    the run halted in.  The run has halted once ``output`` is set.
    """

    n: int
    m: int
    bits: list[int]
    flags: list[int] = field(default_factory=list)
    iteration: int = 0
    step: int = 1
    output: Optional[tuple] = None

    def __post_init__(self) -> None:
        if len(self.bits) != self.m:
            raise ValueError("bit vector length mismatch")
        if not self.flags:
            self.flags = [0] * self.m

    # -- wire side ----------------------------------------------------------

    def step_id(self) -> StepId:
        return StepId(Phase.MBBA, self.iteration, self.step)

    def outgoing(self) -> Optional[tuple]:
        """This step's bits; None once halted (the simulator replays the
        final message instead)."""
        if self.output is not None:
            return None
        return tuple(self.bits)

    # -- state transitions ---------------------------------------------------

    def apply(self, tally: BitTally) -> list[Branch]:
        """One step of the loop on this step's tally.

        A supermajority for a bit sets that bit; in a Coin-Fixed-To-b step a
        supermajority for b also finalizes the component.  Components with no
        supermajority take b, or in the Coin-Genuinely-Flipped step the coin
        derived from the tally's fresh signatures.
        """
        if self.output is not None:
            raise RuntimeError("MBBA transition after halting")
        fixed = _STEPS[self.step]
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
        self.step = self.step % 3 + 1
        return branches

    def _coin(self, tally: BitTally) -> tuple:
        """The shared coin from the signatures on the tally's fresh messages;
        a final message never contributes one.  It is derived once per tally
        object and kept on it, for every class that holds that tally."""
        if tally.coin is None:
            sigs = [
                e.signature
                for e in tally.admitted.values()
                if e.signature is not None and not e.final
            ]
            if not sigs:
                raise RuntimeError("no valid signatures: own message missing")
            tally.coin = derive_coin(sigs, self.m)
        return tally.coin

    def exit_check(self) -> Optional[tuple]:
        """Halt once every flag is set and fix the output.  Returns the
        output when halted."""
        if self.output is None and all(self.flags):
            self.output = tuple(self.bits)
        return self.output
