"""The host's momentary speed, for rescaling wall times.

The shared 2-core host this benchmark was tuned on runs the same Python
code at two speeds about 2x apart, switching every one to twenty
seconds; CPU time follows wall time, so the slowdown is the core's, not
the scheduler's.  A median over a run cannot hide a slow stretch that
lasts the whole run.

:func:`loop_s` times a fixed reference loop of the kind of work the
simulator does (heap pushes and pops of tuples, small ``__slots__``
objects, dict updates).  Timed next to a stretch of the program, it
says how fast the core was just then.  :func:`rescale` turns a wall time
into *reference seconds*: the time the same work takes when the loop
runs in ``REFERENCE_LOOP_S``, the loop's time in the fast state of the
tuning host.  A change to the program moves reference seconds as it
moves wall seconds; a change of the core's speed mostly does not.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: The reference loop's time on the tuning host in its fast state
#: (2 cores, Python 3.11); the unit of reference seconds.
REFERENCE_LOOP_S = 0.28e-3


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def _loop(n: int = 300) -> int:
    heap: list[tuple[int, int, _Item]] = []
    totals: dict[str, int] = {}
    for i in range(n):
        item = _Item(i, str(i % 97))
        heapq.heappush(heap, (i * 7919 % 1000, i, item))
        totals[item.name] = totals.get(item.name, 0) + item.key
    while heap:
        heapq.heappop(heap)
    return len(totals)


def loop_s(repeats: int = 1) -> float:
    """Seconds one reference loop takes now (median of ``repeats``)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescale(wall_s: float, loop: float) -> float:
    """``wall_s`` measured while the loop took ``loop`` seconds, in
    reference seconds."""
    return wall_s * REFERENCE_LOOP_S / loop


def rescale_slices(walls: list[float], loops: list[float], span: int = 2) -> float:
    """Reference seconds of consecutive timed slices.  ``loops`` has one
    more entry than ``walls``: a loop before the first slice and one
    after each.  Each slice is rescaled by the median loop time within
    ``span`` slices of it, so one disturbed loop does not skew it."""
    total = 0.0
    for k, wall in enumerate(walls):
        near = loops[max(0, k - span + 1): k + span + 1]
        total += rescale(wall, statistics.median(near))
    return total


class WindowPace:
    """The reference loop, timed inside a shard-parallel run.

    The engine calls ``network.take_outbox()`` once per barrier window.
    This wraps it on the network instance and times the loop at every
    ``every``-th window.  Only a single-worker run is paced: a forked
    worker would run its own copy of the wrapper, out of this process's
    sight.
    """

    def __init__(self, network: object, every: int) -> None:
        self.loops: list[float] = []
        #: ``perf_counter`` before and after each loop.
        self.marks: list[tuple[float, float]] = []
        take = network.take_outbox
        calls = 0

        def take_outbox() -> list:
            nonlocal calls
            calls += 1
            if calls % every == 0:
                t0 = time.perf_counter()
                self.loops.append(loop_s())
                self.marks.append((t0, time.perf_counter()))
            return take()

        self._network = network
        network.take_outbox = take_outbox

    def uninstall(self) -> None:
        del self._network.take_outbox

    def split(self, start: float, end: float) -> tuple[float, float]:
        """Wall and reference seconds of the run from ``start`` to
        ``end``, without the loops; each stretch between loops is
        rescaled by the loop times near it."""
        walls = []
        begin = start
        for a, b in self.marks:
            walls.append(a - begin)
            begin = b
        walls.append(end - begin)
        if not self.loops:
            return walls[0], walls[0]
        # A loop after each stretch but the last, which reuses the last
        # loop, as the first stretch reuses the first.
        loops = self.loops[:1] + self.loops + self.loops[-1:]
        return sum(walls), rescale_slices(walls, loops)
