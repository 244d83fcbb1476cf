"""Machine-speed calibration for the benchmark's end-to-end times.

The 2-core VM the benchmark was defined on changes speed by up to 2x over
minutes, and not by the same factor for every kind of Python code.  The
runner therefore times `burst`, a fixed mix of the operations scg spends
its time on written with the standard library only, before the first job
and after every job.  `scale` multiplies each job time by REF_S over the
median burst time around the job, so a scaled time reads as the wall time
the job would take at the speed the machine had when REF_S was measured.
No change to scg can move the burst, so a change that makes scg faster or
slower moves scaled times by the same factor as wall times.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

#: Median `burst` time on a 2-core Intel Xeon VM at 2.1 GHz, CPython 3.11.7.
REF_S = 0.0045
#: Bursts on each side of a job that set its scale.
SIDE = 5

_PROFILE = tuple(i % 3 + 1 for i in range(150))
_VALUES = tuple(Fraction(i * i + 1, 7 * i + 3) for i in range(1, 9))
_TEXT = json.dumps({"values": [f"{i}/{i % 7 + 2}" for i in range(80)]})


def _scan():
    """Range checks over a tuple of ints, as in profile validation."""
    for _ in range(250):
        for s in _PROFILE:
            if not 1 <= s <= 3:
                raise AssertionError(s)


def _fractions():
    """Fraction sums, quotients and comparisons, as in utilities and ratios."""
    best = Fraction(0)
    for a in _VALUES:
        total = Fraction(0)
        for b in _VALUES:
            total += b
            ratio = a / (a + total)
            if ratio > best:
                best = ratio
    return best


def _wire():
    """JSON text with rationals parsed and formatted, as in the CLI."""
    values = [Fraction(*map(int, v.split("/")))
              for v in json.loads(_TEXT)["values"]]
    return json.dumps([f"{v.numerator}/{v.denominator}" for v in values])


def burst():
    """Seconds for one fixed burst, with the cyclic collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        _scan()
        for _ in range(3):
            _fractions()
        for _ in range(6):
            _wire()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(times, bursts):
    """Scale ``times[j]``, run between ``bursts[j]`` and ``bursts[j + 1]``,
    to reference seconds."""
    return [t * REF_S / statistics.median(bursts[max(0, j + 1 - SIDE):j + 1 + SIDE])
            for j, t in enumerate(times)]
