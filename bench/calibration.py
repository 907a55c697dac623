"""Host-speed calibration: a fixed burst of interpreter and small-numpy work.

On a shared host the CPU slows down and speeds up by tens of percent within
a second, as other tenants' load comes and goes, and all Python and numpy
code slows alike.  So every timed call is reported in reference seconds:
its wall time scaled to the host speed at which one burst takes
``REFERENCE_S``, from bursts timed before, after and, every ``PERIOD_S``,
during the call.  The ones during the call run from a SIGALRM handler,
which Python calls between bytecodes on the main thread, and their wall
time is taken off the call's wall time.

Bursts right before and after a call are not enough.  Over the 3.5 s
``run_sweep`` calls of fig2-sweep (2 vCPUs, Intel Xeon), the per-call
spread (coefficient of variation) was 18 % with them alone, against 15 %
in wall time and 2 to 3 % with bursts during the call; over five 20 s runs
the interquartile spread of points_per_s was 7.8 % with them alone and 3.9 %
with a one-piece burst every 0.05 s.

A burst is timed in its thread's CPU time, not in wall time, so that load
the timed program puts on the host itself does not pass for a slow host:
its own threads or processes may take the GIL or the CPUs from the burst,
but that time is not the burst's.  With one and with two busy processes
beside it, the burst's CPU time stayed within the host's own variation
while its wall time doubled under two.  What remains: other threads of the
program keep working while a burst runs, during about 2 % of the call,
and that work is credited to the call.  By the same token, time that the
timed process waits for a CPU held by other processes is not corrected for.

The burst mixes interpreter-bound small-array steps with vectorised
4096-element ones, as the optimiser's seed grid and refinement do; a pure
interpreter burst tracked fig2-sweep calls three times worse.  The burst
does not touch discordsim, so a change to the library moves reference
seconds as it moves wall seconds.
"""
import math
import signal
import time

import numpy as np

# Median burst on the host above over the benchmark's runs, so that
# reference seconds come out close to that host's typical wall seconds.
REFERENCE_S = 0.00115
PERIOD_S = 0.05

_START = np.arange(16, dtype=complex).reshape(4, 4) / 16.0
_GRID = np.linspace(0.0, 1.0, 4096)


def burst_seconds():
    """CPU seconds of one fixed burst, about REFERENCE_S on the host above."""
    start = time.thread_time()
    a = _START.copy()
    acc = 0.0
    for i in range(80):
        p, q = i % 4, (i + 1) % 4
        a[:, p] = a[:, p] * 0.6 - a[:, q] * 0.4j
        acc += math.hypot(abs(complex(a[p, q])), acc % 1.0)
    for _ in range(3):
        acc += float(np.abs(np.exp(1j * _GRID) * _GRID).sum())
    return time.thread_time() - start


class Sampler:
    """Times calls in reference seconds, with bursts before, during and after each.

    Owns SIGALRM for the life of the process; use one per process.
    """

    def __init__(self):
        self.spent = 0.0  # wall seconds all bursts took so far
        self.bursts = []  # every burst, for the record
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._last = self._burst()

    def _burst(self):
        start = time.perf_counter()
        burst = burst_seconds()
        self.spent += time.perf_counter() - start
        self.bursts.append(burst)
        return burst

    def _on_alarm(self, signum, frame):
        self._call_bursts.append(self._burst())

    def clock(self):
        """Wall seconds less the time bursts took, for timing spans inside a call."""
        return time.perf_counter() - self.spent

    def time(self, fn, arg):
        """(reference seconds, wall seconds, result or None, exception or None) of fn(arg).

        Wall seconds leave out the bursts that ran during the call.
        """
        self._call_bursts = [self._last]
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = self.clock()
        try:
            result, error = fn(arg), None
        except Exception as exc:
            result, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = self.clock() - start
        self._last = self._burst()
        self._call_bursts.append(self._last)
        return wall * REFERENCE_S * len(self._call_bursts) / sum(self._call_bursts), wall, result, error
