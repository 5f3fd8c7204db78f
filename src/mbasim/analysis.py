"""Step-count distribution of the coin-discard game and bound checking.

The game: ``num_coins`` coins each flip heads with probability
``heads_prob``; every step all remaining coins are flipped and the ones
showing heads are discarded; the game ends when no coin is left.  The
closed-form tail is ``P(steps > w) = 1 - (1 - (1-p)^w)^n``.  The number of
MBBA iterations a run needs is stochastically dominated by 1 + this game
played with one coin per ambiguous component and heads probability half the
honest ratio, and the number of communication steps by ``5 + 3 * steps``.
``bound_check`` compares an empirical iteration histogram against those
bounds with a 3-sigma binomial margin per point.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional


def _finished_mass_m1(num_coins: int, q: float) -> float:
    """(1 - q)^num_coins - 1, evaluated stably for q near 0 and q >= 1."""
    if q >= 1.0:
        return -1.0
    return math.expm1(num_coins * math.log1p(-q))


def _validate(num_coins: int, heads_prob: float) -> None:
    if num_coins < 0:
        raise ValueError("coin count must be non-negative")
    if not 0.0 < heads_prob <= 1.0:
        raise ValueError(f"heads probability must be in (0, 1], got {heads_prob}")


def coin_game_ccdf(num_coins: int, heads_prob: float, w: int) -> float:
    """P(the game takes more than w steps): 1 - (1 - (1-p)^w)^n."""
    _validate(num_coins, heads_prob)
    if w < 0:
        raise ValueError("w must be >= 0")
    if num_coins == 0:
        return 0.0  # no coins: the game is over before it starts
    if w == 0:
        return 1.0
    if heads_prob == 1.0:
        return 0.0
    q = math.exp(w * math.log1p(-heads_prob))  # miss probability (1-p)^w
    return -_finished_mass_m1(num_coins, q)


def coin_game_pmf(num_coins: int, heads_prob: float, w: int) -> float:
    """P(the game takes exactly w steps), w >= 1: ccdf(w-1) - ccdf(w)."""
    if w < 1:
        raise ValueError("w must be >= 1")
    return coin_game_ccdf(num_coins, heads_prob, w - 1) - coin_game_ccdf(num_coins, heads_prob, w)


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


@dataclass
class EmpiricalHistogram:
    """Iteration-count histogram over a batch of runs."""

    counts: dict = field(default_factory=dict)
    total: int = 0
    max_comm_by_iter: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records) -> "EmpiricalHistogram":
        hist = cls()
        for rec in records:
            hist.add(rec.mbba_iterations, rec.comm_steps_with_barrier)
        return hist

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "EmpiricalHistogram":
        hist = cls()
        for s in samples:
            hist.add(s, None)
        return hist

    def add(self, iterations: int, comm_steps: Optional[int]) -> None:
        self.counts[iterations] = self.counts.get(iterations, 0) + 1
        self.total += 1
        if comm_steps is not None:
            prev = self.max_comm_by_iter.get(iterations, 0)
            self.max_comm_by_iter[iterations] = max(prev, comm_steps)

    def ccdf(self, w: int) -> float:
        if self.total == 0:
            raise ValueError("empty histogram")
        above = sum(k for v, k in self.counts.items() if v > w)
        return above / self.total

    def max_value(self) -> int:
        return max(self.counts) if self.counts else 0


@dataclass
class BoundReport:
    """Outcome of one dominance check against 1 + the coin game."""

    ambiguous: int
    honest_ratio: float
    total: int
    rows: list
    comm_rows: list
    passed: bool
    notes: list

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            f"iteration bound check: l={self.ambiguous} coins, per-step success"
            f" {self.honest_ratio / 2:.4f}, {self.total} trials",
            f"{'w':>4} {'empirical P(>w)':>16} {'bound P(>w)':>12} {'3-sigma':>10} verdict",
        ]
        for row in self.rows:
            lines.append(
                f"{row['w']:>4} {row['empirical_ccdf']:>16.6f} {row['bound_ccdf']:>12.6f}"
                f" {row['margin']:>10.6f} {'pass' if row['ok'] else 'FAIL'}"
            )
        lines.append("communication steps vs 5 + 3*(iterations-1) + 3:")
        for row in self.comm_rows:
            lines.append(
                f"  iterations={row['iterations']}: max observed {row['max_comm']}"
                f" <= {row['allowed']} -> {'pass' if row['ok'] else 'FAIL'}"
            )
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["w,empirical_ccdf,bound_ccdf,margin,verdict"]
        for row in self.rows:
            lines.append(
                f"{row['w']},{row['empirical_ccdf']:.9f},{row['bound_ccdf']:.9f},"
                f"{row['margin']:.9f},{'pass' if row['ok'] else 'fail'}"
            )
        return "\n".join(lines) + "\n"


def bound_check(hist: EmpiricalHistogram, ambiguous: int, honest_ratio: float) -> BoundReport:
    """Dominance check of empirical iteration counts against 1 + the coin game.

    The iteration bound shifts by one: P(iterations > w) is compared against
    the game's P(steps > w-1) at heads probability honest_ratio/2, plus a
    3-sigma binomial margin.  Communication steps are checked per observed
    iteration count, against an allowance of 5 + 3(k - 1) + 3 = 3k + 5 at k
    iterations.  On a histogram built from trial records those rows cannot
    fail: ``Trial.record`` counts 3 + the MBBA steps run, and a record of k
    iterations ran at most 3k of them, so it counts at most 3k + 3, and
    3k + 1 or 3k + 2 when the trial halted, since MBBA halts only in step 1
    or 2 of an iteration (the coin step fixes no bit).  The rows restate how
    the record derives the count.
    """
    if hist.total == 0:
        raise ValueError("empty histogram")
    if not 0 < honest_ratio <= 1:
        raise ValueError("honest ratio must be in (0, 1]")
    p = honest_ratio / 2
    rows = []
    ok_all = True
    for w in range(1, hist.max_value() + 1):
        bound = coin_game_ccdf(ambiguous, p, w - 1)
        emp = hist.ccdf(w)
        margin = 3 * math.sqrt(bound * (1 - bound) / hist.total)
        ok = emp <= bound + margin
        ok_all = ok_all and ok
        rows.append(
            {"w": w, "empirical_ccdf": emp, "bound_ccdf": bound, "margin": margin, "ok": ok}
        )
    comm_rows = []
    for iterations in sorted(hist.max_comm_by_iter):
        allowed = 5 + 3 * (iterations - 1) + 3
        max_comm = hist.max_comm_by_iter[iterations]
        ok = max_comm <= allowed
        ok_all = ok_all and ok
        comm_rows.append(
            {"iterations": iterations, "max_comm": max_comm, "allowed": allowed, "ok": ok}
        )
    notes = [
        "per-w margins are marginal 3-sigma tests; reading many w at once"
        f" deserves a Bonferroni correction over {len(rows)} points",
        "honest_ratio/2 is a conservative floor on the per-component success"
        " rate, so dominance is expected to hold with slack",
    ]
    return BoundReport(
        ambiguous=ambiguous,
        honest_ratio=honest_ratio,
        total=hist.total,
        rows=rows,
        comm_rows=comm_rows,
        passed=ok_all,
        notes=notes,
    )
