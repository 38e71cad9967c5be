"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts:
a fixed Python loop ran at 14 to 29 calls per second over four minutes,
with swings of 20% from one second to the next, and the same kernel call
took 0.54 ms in one process and 1.0 ms in the next.  Raw op times from
runs made minutes apart therefore differ by more than any change worth
detecting.  So the measuring child interleaves short samples of this kernel
with the timed ops, and each op's time is scaled by the kernel's speed
measured around it (`Gauge`): a time of t seconds measured while one kernel
call took u seconds is reported as t * NOMINAL_S / u, the time the op would
take on a machine where one call takes NOMINAL_S.

The kernel does what gtkit's word and automaton code does -- builds and
reduces tuples of (generator, exponent) pairs, hashes them into a dict,
allocates small objects, sorts -- but imports nothing from gtkit, so a
change to gtkit moves the scaled op times and leaves the kernel alone.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.001   # the kernel call time scaled times refer to
SAMPLE_S = 0.02     # shortest span one speed sample is timed over
EVERY_S = 0.25      # op time between two samples

_rng = random.Random(0)
_WORDS = [tuple((_rng.randrange(3), _rng.choice((1, -1))) for _ in range(_rng.randint(4, 12)))
          for _ in range(48)]


class _Syllable:
    __slots__ = ("gen", "exp")

    def __init__(self, gen, exp):
        self.gen = gen
        self.exp = exp


def kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    seen: dict = {}
    objs = 0
    for i, u in enumerate(_WORDS):
        for v in (_WORDS[(i * 7) % len(_WORDS)], _WORDS[(i * 11 + 3) % len(_WORDS)]):
            out = list(u)
            for g, e in reversed(v):  # u * v^-1, freely reduced
                e = -e
                if out and out[-1][0] == g:
                    s = out[-1][1] + e
                    if s:
                        out[-1] = (g, s)
                    else:
                        out.pop()
                else:
                    out.append((g, e))
            key = tuple(out)
            seen[key] = seen.get(key, 0) + 1
            objs += len([_Syllable(g, e) for g, e in out])
    return objs + len(sorted(seen))


def unit_s(span_s: float = SAMPLE_S) -> float:
    """Seconds per kernel call, timed over at least `span_s` seconds."""
    perf = time.perf_counter
    t0 = perf()
    n = 0
    while True:
        kernel()
        n += 1
        elapsed = perf() - t0
        if elapsed >= span_s:
            return elapsed / n


class Gauge:
    """Interleaves speed samples with timed ops.

    Call `op_done` after each timed op and `flush` at the end of each
    block.  Whenever EVERY_S of op time has passed since the last sample,
    a new sample is taken, and every op since the previous sample gets the
    mean of the two samples around it; `units` lists one per op, in order.
    """

    def __init__(self):
        self.units: list = []
        self._last = unit_s()
        self._pending = 0
        self._since = 0.0

    def op_done(self, seconds: float) -> None:
        self._pending += 1
        self._since += seconds
        if self._since >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = unit_s()
        self.units.extend([(self._last + now) / 2] * self._pending)
        self._last = now
        self._pending = 0
        self._since = 0.0
