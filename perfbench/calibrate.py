"""A fixed pure-Python workload that measures how fast the machine is now.

Shared virtual machines change speed by tens of percent from one minute
to the next (neighbours come and go).  The benchmark times this loop next
to every repetition and scales its wall-clock figures to the speed at
which the loop takes :data:`REFERENCE_S`, so a figure moves when the
striping stack gets faster or slower, not when the machine does.

The loop is frozen benchmark code: it never imports the program under
test, so a change to the program cannot move it.  Its instruction mix
mirrors the simulator's hot loop (a binary heap of timed entries, small
objects with slots, deques, bound-method calls and dict lookups), the
stack's memory traffic (tens of thousands of live objects touched in
random order) and a large body of pure-Python library code (the
standard tokenizer).  Callers collect garbage before timing it.
"""

from __future__ import annotations

import heapq
import io
import random
import time
import tokenize
from collections import deque

#: Seconds :func:`measure` took on the reference machine (2-vCPU Intel
#: Xeon VM, CPython 3.11) when it ran at its usual speed.
REFERENCE_S = 0.08


class _Frame:
    __slots__ = ("seq", "size", "channel")

    def __init__(self, seq: int, size: int, channel: int) -> None:
        self.seq = seq
        self.size = size
        self.channel = channel


class _Lane:
    __slots__ = ("queue", "busy_until", "bytes")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.busy_until = 0.0
        self.bytes = 0

    def offer(self, frame: _Frame, now: float) -> float:
        self.queue.append(frame)
        self.bytes += frame.size
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + frame.size * 1e-6
        return self.busy_until


def _loop(events: int) -> int:
    lanes = [_Lane() for _ in range(8)]
    heap: list = []
    counts: dict = {}
    sizes = (40, 576, 1500, 40, 40, 576, 40, 40)
    now = 0.0
    seq = 0
    for i in range(events):
        lane = lanes[i & 7]
        frame = _Frame(i, sizes[(i * 5) & 7], i & 7)
        heapq.heappush(heap, (lane.offer(frame, now), seq, lane))
        seq += 1
        if len(heap) > 32:
            now, _, done = heapq.heappop(heap)
            got = done.queue.popleft()
            counts[got.channel] = counts.get(got.channel, 0) + 1
    return sum(counts.values())


class _Record:
    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.link = None


def _scatter(count: int) -> int:
    records = [_Record(i, 3 * i) for i in range(count)]
    order = list(range(count))
    random.Random(5).shuffle(order)
    index = {}
    total = 0
    for i in order:
        record = records[i]
        record.link = total
        total += record.key
        index[record.value] = record
    for key in range(0, 3 * count, 9):
        total += index[key].key
    return total


_SOURCE = "".join(
    f"def f{i}(a, b={i}):\n"
    f"    return [a * {i} + b for _ in range({i % 7})]  # n{i}\n"
    for i in range(400)
)


def _tokenize() -> int:
    return sum(1 for _ in tokenize.generate_tokens(io.StringIO(_SOURCE).readline))


def measure() -> float:
    """Wall seconds one pass of the loop takes right now."""
    start = time.perf_counter()
    _loop(6000)
    _scatter(20000)
    _tokenize()
    return time.perf_counter() - start
