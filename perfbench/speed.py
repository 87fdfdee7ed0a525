"""The machine's speed while a pass runs, from a fixed pure-Python loop.

The benchmark's machine runs faster and slower for seconds to minutes at a
time, and the process's CPU time slows as much as its wall time.  While a
pass runs, a ``Sampler`` times one short piece of a fixed loop every
``INTERVAL_S`` from a SIGALRM handler, so the pieces are spread evenly over
the very time the operations run.  Their time is taken out of the operation
that they interrupted.  Scaling a pass's time by ``REF_PIECE_S`` over the
pieces' mean time gives it in reference seconds: the time the pass would take
on a machine where one piece takes ``REF_PIECE_S``.  A change of the program
moves that figure; a change of the machine's speed mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_PIECE_S = 0.005  # one piece on the reference machine (wall and CPU time)
INTERVAL_S = 0.125  # one piece per this much wall time, about 4 % of it
PROBE_PIECES = 20  # pieces of one probe() outside a sampler
_LOOP = 50_000


def _piece() -> int:
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    return s


def _timed_piece() -> tuple[float, float]:
    t0, c0 = time.perf_counter(), time.process_time()
    _piece()
    return time.perf_counter() - t0, time.process_time() - c0


def probe() -> tuple[float, float]:
    """(wall, cpu) mean seconds of one piece over ``PROBE_PIECES`` pieces in a row."""
    walls, cpus = zip(*(_timed_piece() for _ in range(PROBE_PIECES)))
    return statistics.fmean(walls), statistics.fmean(cpus)


class Sampler:
    """Times one piece every ``INTERVAL_S`` of wall time inside ``with``.

    ``spent_wall`` and ``spent_cpu`` add up the time taken by the handler, so
    that a caller can take it out of what it timed.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        wall, cpu = _timed_piece()
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def piece(self) -> tuple[float, float]:
        """(wall, cpu) mean seconds of one piece; a probe if no tick came."""
        if not self.walls:
            return probe()
        return statistics.fmean(self.walls), statistics.fmean(self.cpus)


def scale(seconds: float, piece: float) -> float:
    """``seconds`` measured while one piece took ``piece`` seconds, in reference seconds."""
    return seconds * REF_PIECE_S / piece
