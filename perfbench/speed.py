"""Machine-speed probe for timings on a shared host.

On a small shared virtual machine the speed of one core drifts by tens of
percent over seconds to minutes, with no steal time reported, so two runs of
identical work can differ by 40 % in wall time.  ``timed`` runs a
fixed unit of interpreter-bound work before and after the timed call and,
from a SIGALRM interval timer, every ``INTERVAL_S`` seconds during it.  The
time-averaged speed of those units rescales the call's wall time to
reference-speed seconds:

    scaled = (wall - time spent in units during the call) * mean(REF / unit)

where ``REF_UNIT_S`` is a fixed constant, so scaled seconds from different
runs compare like wall seconds on a machine of constant speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Duration of one probe unit at the reference speed: its typical duration
# when interleaved with solver work on a 2-vCPU KVM guest of an Intel Xeon
# (family 6, model 207) under Python 3.11 and numpy 2.4, so that scaled
# seconds there read close to wall seconds.
REF_UNIT_S = 0.65e-3
INTERVAL_S = 0.1


def _unit(a=np.arange(3.0), b=np.ones(3)) -> float:
    # interpreter dispatch plus tiny numpy calls, as in a flow step
    s = 0.0
    for _ in range(120):
        s += float(a @ b) + float(np.max(a)) * 0.5
    return s


def _sample() -> float:
    t0 = perf_counter()
    _unit()
    return perf_counter() - t0


def timed(fn, *args, **kwargs):
    """(result, wall seconds, reference-speed seconds) of one call."""
    during = []

    def on_alarm(signum, frame):
        during.append(_sample())

    before = _sample()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    units = [before, *during, _sample()]
    speed = statistics.fmean(REF_UNIT_S / u for u in units)
    return result, wall, (wall - sum(during)) * speed
