"""Machine-speed calibration.

On a shared host the same Python code runs up to 2x slower for a few
hundred milliseconds at a time, on CPU time as much as on wall time,
while a neighbour loads the core. Timings are therefore also reported at
a reference speed: a short fixed pure-Python kernel (dict, arithmetic and
string work, like the interpreter-bound code under test) is timed every
EVERY_S of measured work, and each timing is scaled by REFERENCE_S over
the mean of the kernel times taken just before and just after it. Slow
and fast spells last seconds here, so neighbouring samples see the speed
the timed work saw.
"""

import subprocess
import sys
import time

REFERENCE_S = 0.004          # about the kernel's time on the machine the bounds were set on
REFERENCE_PROCESS_S = 0.05   # about one bare interpreter start there
EVERY_S = 0.1                # calibrate after this much measured work


def _kernel():
    table, total = {}, 0.0
    for i in range(10000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0.0) + i * 0.5
        total += len(str(key))
    return total, sorted(table.items())[:8]


def calibrate():
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def interpreter_start():
    """Seconds a bare ``python -c pass`` process takes now: the calibration
    for timings of whole processes, which a neighbour slows less than it
    slows the kernel."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


class Scaler:
    """Samples the kernel between units of timed work and scales each unit
    by the samples taken just before and just after it."""

    def __init__(self, measure=calibrate, reference=REFERENCE_S, every=EVERY_S):
        self._measure, self._reference, self._every = measure, reference, every
        self.samples = [measure()]
        self.before = []         # per timed unit: index of the sample preceding it
        self._since = 0.0

    def add(self, seconds):
        """Count one timed unit of ``seconds``; calibrate once ``every``
        seconds of work have passed. Call only between timed units."""
        self.before.append(len(self.samples) - 1)
        self._since += seconds
        if self._since >= self._every:
            self.samples.append(self._measure())
            self._since = 0.0

    def factors(self):
        """Per timed unit: multiply by this to get the reference-speed time."""
        s, last = self.samples, len(self.samples) - 1
        return [2.0 * self._reference / (s[b] + s[min(b + 1, last)]) for b in self.before]

    def scale(self, timings):
        return [t * f for t, f in zip(timings, self.factors())]
