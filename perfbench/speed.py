"""Machine-speed scaling of measured times.

The host's CPU speed swings by up to 40% over seconds as other tenants' load
comes and goes, independently on each CPU, and it slows every timed call
alike.  `Speed` samples the slowness of the CPU the measuring thread runs on:
every PROBE_S a timer signal runs a fixed pure-Python loop on the main
thread, and its CPU time over REFERENCE_NS is the slowness at that moment.
`Speed.scale` removes the loop's own time from a timed interval and divides
the rest by the slowness sampled during it, or by the latest sample for a
call shorter than PROBE_S.  Reported times are thus seconds at the speed
where the loop takes REFERENCE_NS, about this machine's uncontended speed.

While open, `Speed` also pins the process to the CPU it is running on, so
that the thread pool `build_basis` refines roots on runs on the CPU the
probe measures.  The interpreter lock runs one thread at a time anyway.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time

REFERENCE_NS = 1_700_000
PROBE_S = 0.05


def _reference_loop() -> float:
    s, x = 0.0, 0.5
    for i in range(12000):
        x = x * 1.0000001 + 1e-9
        s += math.exp(-x) / (1.0 + i)
    return s


def _pin(cpus) -> None:
    """Restrict the process's threads to `cpus`, where the system allows."""
    try:
        for tid in os.listdir("/proc/self/task"):
            os.sched_setaffinity(int(tid), cpus)
    except OSError:  # no /proc, a thread that just ended, or not permitted
        pass


def _current_cpu() -> int:
    with open("/proc/self/stat") as f:
        stat = f.read()
    return int(stat[stat.rindex(")") + 2:].split()[36])  # field 39


class Speed:
    """Context manager that samples the CPU's slowness while it is open."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_ns = 0  # CPU time the probes took from the main thread

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        try:
            _pin({_current_cpu()})
        except OSError:
            pass
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        _pin(self._affinity)

    def sample(self) -> float:
        """The slowness now: the reference loop's CPU time over its
        reference.  CPU time, because on a thread pool a probe may wait for
        the interpreter lock, and that wait says nothing about the CPU."""
        c0 = time.thread_time_ns()
        _reference_loop()
        return (time.thread_time_ns() - c0) / REFERENCE_NS

    def _probe(self, *_signal):
        c0 = time.thread_time_ns()
        self.samples.append(self.sample())
        self.probe_ns += time.thread_time_ns() - c0

    def scale(self, timed):
        """Run `timed()` -> (result, wall ns); return (result, ns at the
        reference speed)."""
        first, probe_ns = len(self.samples), self.probe_ns
        result, ns = timed()
        during = self.samples[first:] or self.samples[-1:]
        ns -= self.probe_ns - probe_ns
        return result, round(ns / statistics.fmean(during))
