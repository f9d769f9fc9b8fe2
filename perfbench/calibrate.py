"""Host speed, sampled inside the process that does the work.

The benchmark shares a few cores of a host whose speed changes from second
to second by up to half: when neighbours load the host, every core slows
down, and the program's process CPU time grows with its wall time.  Raw
timings of the same code therefore spread by a quarter between runs.

While a :class:`Sampler` is started, ``SIGALRM`` interrupts the process
every ``PERIOD_S`` seconds and times a fixed reference kernel — plain
Python object work and small numpy matrix products, the two kinds of work
the program does — on the main thread, between two bytecodes of the
program.  The kernel thus runs on the core the program runs on, at the
moment it runs, and costs it about 4% of its time in every run alike.  It
is timed in thread CPU time, so neither other processes nor the program's
own threads, which take the interpreter lock from it every few
milliseconds in the service, count as kernel time.
On a shared 2-vCPU host, the median ``gen-cold`` pass of ten runs spread
by about 20% (inter-quartile distance over median) raw and by 6–8%
scaled.

An end-to-end time is reported as its raw time multiplied by
``REFERENCE_KERNEL_S / mean kernel time`` over the samples taken while the
run's intervals of its kind ran (:func:`scale`): the time it would have
taken on a host where the kernel takes ``REFERENCE_KERNEL_S``.  The raw
times stay in the results file.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any, List, Sequence, Tuple

#: Kernel time on an idle 2-vCPU Intel Xeon at 2.1 GHz (Python 3.11.7,
#: numpy 2.4), so scaled times read as seconds on that host when idle.
REFERENCE_KERNEL_S = 0.003

#: Seconds between two samples.
PERIOD_S = 0.1

#: ``(start, kernel seconds)``; ``start`` is ``time.perf_counter()``, which
#: on Linux reads the same monotonic clock in every process.
Sample = Tuple[float, float]


def _kernel(np: Any) -> int:
    """One sample's work: tuple keys, dict counting, sorting, hashing and
    a chain of 8x8 complex matrix products."""
    table: dict = {}
    keys = []
    for i in range(3000):
        key = (i * 7919 % 1009, i % 17, i & 255)
        keys.append(key)
        table[key] = table.get(key, 0) + 1
    keys.sort(reverse=True)
    acc = 0
    for key in keys:
        acc ^= hash(key) + table[key]
    matrix = np.eye(8, dtype=complex)
    step = np.full((8, 8), 0.125 + 0.125j)
    for _ in range(200):
        matrix = matrix @ step
        matrix /= abs(matrix[0, 0]) or 1.0
    return acc


class Sampler:
    """Samples the host speed while started; main thread only.

    Starting it imports numpy, which the program imports anyway.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._np: Any = None

    def start(self) -> None:
        import numpy

        self._np = numpy
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Ignore rather than restore the default, which would end the
        # process on an alarm already on its way.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self, signum: int, frame: Any) -> None:
        self.sample()

    def sample(self) -> None:
        """Take one sample now (also called on every alarm)."""
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel
        try:
            began = time.perf_counter()
            began_cpu = time.thread_time()
            _kernel(self._np)
            self.samples.append((began, time.thread_time() - began_cpu))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def scale(samples: Sequence[Sample], intervals: Sequence[Tuple[float, float]]) -> float:
    """Factor from seconds spent in ``intervals`` to reference seconds.

    One factor for a whole kind of interval (all set-ups, or all
    operations, of a run): a single short interval holds too few samples.
    Uses the samples taken inside any interval; if there are fewer than
    three, also the three taken nearest to the middle of each interval.
    """
    chosen = {s for s in samples if any(start <= s[0] <= end for start, end in intervals)}
    if len(chosen) < 3:
        for start, end in intervals:
            middle = (start + end) / 2
            chosen.update(sorted(samples, key=lambda s: abs(s[0] - middle))[:3])
    if not chosen:
        raise RuntimeError("no host-speed samples")
    return REFERENCE_KERNEL_S / statistics.fmean(seconds for _, seconds in chosen)
