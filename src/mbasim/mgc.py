"""Two-step multidimensional graded consensus.

Every node broadcasts its observed vector, re-broadcasts the componentwise
super-majority winner (or BOT where none exists), then grades each component
by how much support the re-broadcast value gathered.  One scan of each
component's step-2 counts finds its most held non-BOT value; that value
grades 2 when more than 2n/3 distinct senders hold it, 1 when more than n/3
do, and otherwise the component is (BOT, 0).
The state keeps no clock: its caller makes the calls of steps ``STEP1_ID``
and ``STEP2_ID`` in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def _super_majority_value(tally: Tally, c: int, threshold: int):
    """The unique value at or above threshold, if any.

    Uniqueness is structural: two values cannot both be held by more than
    2n/3 of at most n distinct senders.
    """
    for value, count in tally.counts[c].items():
        if count >= threshold:
            return value
    return BOT


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


@dataclass
class MgcState:
    """A graded-consensus run; it holds no node identity (``mba.Node`` sends its
    payloads).  ``output`` is None until ``output_determination``."""

    n: int
    m: int
    initial: tuple
    output: Optional[tuple] = None

    def step1_outgoing(self) -> tuple:
        """The step-1 payload: the unmodified initial vector."""
        return self.initial

    def step2_compute(self, tally: Tally) -> tuple:
        """The step-2 vector from the step-1 tally.

        Component c becomes the value relayed by more than 2n/3 distinct
        senders, BOT otherwise.
        """
        threshold = two_thirds_majority(self.n)
        return tuple(_super_majority_value(tally, c, threshold) for c in range(self.m))

    def output_determination(self, tally: Tally) -> tuple:
        """Grade every component from the step-2 tally by the count of its
        most held non-BOT value (:func:`best_value`)."""
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
        self.output = tuple(pairs)
        return self.output
