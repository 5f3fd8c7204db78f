"""Two-step multidimensional graded consensus.

Every node broadcasts its observed vector, re-broadcasts the componentwise
super-majority winner (or BOT where none exists), then grades each component
by how much support the re-broadcast value gathered: grade 2 for more than
2n/3 distinct senders, grade 1 for more than n/3, otherwise (BOT, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


class MgcPhase(Enum):
    AWAIT_STEP1 = "await-step1"
    AWAIT_STEP2 = "await-step2"
    DONE = "done"


def _super_majority_value(tally: Tally, c: int, threshold: int):
    """The unique value at or above threshold, if any.

    Uniqueness is structural: two values cannot both be held by more than
    2n/3 of at most n distinct senders.
    """
    for value, count in tally.counts[c].items():
        if count >= threshold:
            return value
    return BOT


def _best_candidate(tally: Tally, c: int, threshold: int):
    """Best non-BOT value with count >= threshold.

    Ties (possible only under heavy equivocation, where grade 1 carries no
    cross-node promise) break toward the larger count, then the smallest
    byte-lexicographic value.
    """
    best = None
    best_count = 0
    for value, count in tally.counts[c].items():
        if value is BOT or count < threshold:
            continue
        if count > best_count or (count == best_count and value < best):
            best, best_count = value, count
    return best


@dataclass
class MgcState:
    """A graded-consensus run; it holds no node identity (``mba.Node`` sends its payloads)."""

    n: int
    m: int
    initial: tuple
    phase: MgcPhase = MgcPhase.AWAIT_STEP1
    step2_vector: Optional[tuple] = None
    output: Optional[tuple] = field(default=None)

    def step1_outgoing(self) -> tuple:
        """The step-1 payload: the unmodified initial vector."""
        if self.phase != MgcPhase.AWAIT_STEP1:
            raise RuntimeError(f"step1_outgoing in phase {self.phase}")
        return self.initial

    def step2_compute(self, tally: Tally) -> tuple:
        """Derive the step-2 vector from the step-1 tally and return it.

        Component c becomes the value relayed by more than 2n/3 distinct
        senders, BOT otherwise.
        """
        if self.phase != MgcPhase.AWAIT_STEP1:
            raise RuntimeError(f"step2_compute in phase {self.phase}")
        threshold = two_thirds_majority(self.n)
        self.step2_vector = tuple(_super_majority_value(tally, c, threshold) for c in range(self.m))
        self.phase = MgcPhase.AWAIT_STEP2
        return self.step2_vector

    def output_determination(self, tally: Tally) -> tuple:
        """Grade every component from the step-2 tally; first matching rule wins."""
        if self.phase != MgcPhase.AWAIT_STEP2:
            raise RuntimeError(f"output_determination in phase {self.phase}")
        grade2 = two_thirds_majority(self.n)
        grade1 = one_third_majority(self.n)
        pairs = []
        for c in range(self.m):
            value = _best_candidate(tally, c, grade2)
            if value is not None:
                pairs.append(GradedPair(value, 2))
                continue
            value = _best_candidate(tally, c, grade1)
            pairs.append(GradedPair(BOT, 0) if value is None else GradedPair(value, 1))
        self.output = tuple(pairs)
        self.phase = MgcPhase.DONE
        return self.output
