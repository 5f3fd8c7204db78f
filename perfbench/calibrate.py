"""Machine-speed calibration for a shared, noisy host.

Other tenants of the host slow this process down by up to 1.9x for seconds at
a time, and CPU time slows as much as wall time.  The benchmark therefore
times a fixed reference kernel between trials and scales every measured time
by ``REFERENCE_S / kernel time``.  Half the kernel does what mbasim does most:
it builds small slotted objects and named tuples, encodes and sorts them,
hashes bytes with SHA-256 and counts votes in dicts.  The other half is an
integer loop.  Contention slows the first half more than it slows mbasim and
the second half less; the mix tracked mbasim's slowdown best among the
kernels tried.  The kernel shares no code with mbasim, so a change to the
program cannot move it.
"""

from __future__ import annotations

import hashlib
import time
from typing import NamedTuple

# The kernel's time on an uncontended 2-core Intel Xeon at 2.1 GHz under
# CPython 3.11.7.  Scaled times are times at that speed.
REFERENCE_S = 0.0045
INTERVAL_S = 0.25   # calibrate at most this often between trials
REPEATS = 2         # kernel runs per calibration; the fastest counts


class _Sid(NamedTuple):
    phase: int
    step: int


class _Envelope:
    __slots__ = ("sender", "sid", "payload")

    def __init__(self, sender, sid, payload):
        self.sender = sender
        self.sid = sid
        self.payload = payload


def _encode(env: _Envelope) -> bytes:
    return b"".join((env.sender.to_bytes(4, "big"), bytes([env.sid.phase]),
                     env.sid.step.to_bytes(4, "big"), bytes(env.payload)))


def _objects(rounds: int = 75) -> bytes:
    log = hashlib.sha256()
    kept = 0
    for r in range(rounds):
        sid = _Sid(1, r)
        envs = [_Envelope(s, sid, tuple((s * 7 + c + r) & 1 for c in range(8))) for s in range(10)]
        envs.sort(key=lambda e: (e.sender, _encode(e)))
        for env in envs:
            log.update(_encode(env))
        counts = [{} for _ in range(8)]
        for env in envs:
            for c, v in enumerate(env.payload):
                counts[c][v] = counts[c].get(v, 0) + 1
        kept += sum(1 for c in counts if c.get(1, 0) >= 7) + len({e.sender: e for e in envs})
    log.update(kept.to_bytes(4, "big"))
    return log.digest()


def _integers(n: int = 31000) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def reference_kernel() -> tuple:
    return _objects(), _integers()


def kernel_seconds() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Calibrator:
    """Kernel times at the edges of chunks of a pass.

    ``start`` and ``finish`` bracket a pass; ``tick`` between trials starts a
    new chunk once ``INTERVAL_S`` has passed.  A time measured in chunk k is
    scaled by the mean of the kernel times at the chunk's two edges.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.kernel: list[float] = []
        self.chunk = -1
        self._last = 0.0

    def _measure(self) -> None:
        self.kernel.append(kernel_seconds())
        self.chunk += 1
        self._last = time.perf_counter()

    start = _measure

    def tick(self) -> None:
        if self.ticks and time.perf_counter() - self._last >= INTERVAL_S:
            self._measure()

    def finish(self) -> None:
        self._measure()

    def factor(self, chunk: int) -> float:
        return 2 * REFERENCE_S / (self.kernel[chunk] + self.kernel[chunk + 1])

    def scale(self, times, chunks) -> list:
        return [t * self.factor(c) for t, c in zip(times, chunks)]
