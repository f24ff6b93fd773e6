"""Host speed probe, so that timings taken at different moments compare.

The benchmark's host is a shared virtual machine.  Its hypervisor at times
deschedules a vCPU for a large share of a second, and the speed of a CPU
second changes by up to 1.6x within seconds as other guests load the
hardware.  The guest kernel does not charge descheduled time to a process,
so CPU time removes the first effect.  For the second, a fixed pure-Python
loop slows down with the program under test, so timing the loop alongside
the program measures how fast the host is running at that moment.

While a ``SpeedProbe`` block runs, a SIGALRM handler times the loop in CPU
time every ``INTERVAL_S`` of wall time, between two bytecodes of whatever
the main thread is executing.  ``speed`` is ``REFERENCE_S`` divided by the
mean loop time, and ``seconds`` is the block's CPU time multiplied by
``speed``: the time the block would have taken on an undisturbed host where
the loop takes ``REFERENCE_S``.  The probes' own cost, about 2% of the time,
stays inside it, for the parent and the change alike.  ``bracketed`` does the
same for a call too short for the alarm, with ``BRACKET`` loops just before
and just after it.

Only single-process work is normalised.  Among busy pool workers the probe
also measures their contention for the shared cores, which is part of what
the work costs, and loops timed just before and after a pool run tracked
its wall time worse than no normalisation at all.

The module imports only ``signal`` and ``time``, so that a fresh interpreter
can load it before timing an import without loading modules that import
would otherwise pay for.
"""

import signal
import time

INTERVAL_S = 0.025
BRACKET = 20
REFERENCE_S = 0.0005  # loop time that defines speed 1.0; typical of the 2-vCPU host


def _loop() -> int:
    table = {}
    total = 0
    for i in range(1500):
        key = i * 7919 % 211
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total + len(table)


def _time_loop() -> float:
    t0 = time.thread_time()
    _loop()
    return time.thread_time() - t0


def speed_from(samples: list) -> float:
    """``REFERENCE_S`` over the mean loop time, trimming a tenth at each end
    against loops disturbed by interrupts."""
    samples = sorted(samples)
    cut = len(samples) // 10
    kept = samples[cut:len(samples) - cut]
    return REFERENCE_S * len(kept) / sum(kept)


def bracketed(fn) -> float:
    """CPU time of ``fn()`` at reference host speed."""
    samples = [_time_loop() for _ in range(BRACKET)]
    t0 = time.process_time()
    fn()
    cpu = time.process_time() - t0
    samples += [_time_loop() for _ in range(BRACKET)]
    return cpu * speed_from(samples)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_time_loop())

    def __enter__(self) -> "SpeedProbe":
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.process_time() - self.cpu_start
        self.wall = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(_time_loop())

    @property
    def speed(self) -> float:
        return speed_from(self.samples)

    @property
    def seconds(self) -> float:
        return self.cpu * self.speed
