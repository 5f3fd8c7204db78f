"""Two-step multidimensional graded consensus.

Every node broadcasts its observed vector, re-broadcasts the componentwise
super-majority winner (or BOT where none exists), then grades each component
by how much support the re-broadcast value gathered.  Both steps read one
scan rule, :func:`best_value`, the most held non-BOT value of a component
and its count.  Step 2 relays that value when more than 2n/3 distinct
senders hold it; grading gives it 2 there, 1 when more than n/3 do, and
otherwise the component is (BOT, 0).
The state is immutable and keeps no clock: its caller makes the calls of
steps ``STEP1_ID`` and ``STEP2_ID`` in order and keeps the graded pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BOT,
    GradedPair,
    Phase,
    StepId,
    Tally,
    one_third_majority,
    two_thirds_majority,
)

STEP1_ID = StepId(Phase.MGC, 0, 1)
STEP2_ID = StepId(Phase.MGC, 0, 2)


def best_value(tally: Tally, c: int) -> tuple:
    """(value, count) of the non-BOT value most held at component c, from one
    scan; (BOT, 0) when every vote there is BOT.

    Ties (possible only under heavy equivocation, where grade 1 carries no
    cross-node promise) break toward the smallest byte-lexicographic value.
    """
    best, best_count = BOT, 0
    for value, count in tally.counts[c].items():
        if value is BOT:
            continue
        if count > best_count or (count == best_count and value < best):
            best, best_count = value, count
    return best, best_count


# The grade-0 pair, shared by every component that grades 0.
UNGRADED = GradedPair(BOT, 0)


@dataclass(frozen=True)
class MgcState:
    """A graded-consensus run: the node count, the width and the initial
    vector, fixed at creation.  It holds no node identity and keeps no
    result; ``mba.Node`` sends its payloads and keeps the graded pairs."""

    n: int
    m: int
    initial: tuple

    def step1_outgoing(self) -> tuple:
        """The step-1 payload: the unmodified initial vector."""
        return self.initial

    def step2_compute(self, tally: Tally) -> tuple:
        """The step-2 vector from the step-1 tally.

        Component c becomes its most held non-BOT value (:func:`best_value`)
        when more than 2n/3 distinct senders hold it, BOT otherwise.  At most
        n senders are admitted, so no other value, BOT included, can reach
        that count too.
        """
        threshold = two_thirds_majority(self.n)
        relay = []
        for c in range(self.m):
            value, count = best_value(tally, c)
            relay.append(value if count >= threshold else BOT)
        return tuple(relay)

    def output_determination(self, tally: Tally) -> tuple:
        """The graded pairs: every component graded from the step-2 tally by
        the count of its most held non-BOT value (:func:`best_value`)."""
        grade2 = two_thirds_majority(self.n)
        grade1 = one_third_majority(self.n)
        pairs = []
        for c in range(self.m):
            value, count = best_value(tally, c)
            if count >= grade2:
                pairs.append(GradedPair(value, 2))
            elif count >= grade1:
                pairs.append(GradedPair(value, 1))
            else:
                pairs.append(UNGRADED)
        return tuple(pairs)
