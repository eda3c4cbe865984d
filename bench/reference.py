"""A fixed pure-Python job that measures how fast this host runs right now.

On a shared host, other tenants slow every process by a varying share,
over seconds and over minutes: on the host that defined this benchmark
the same code ran up to twice as slow for minutes at a time. A run
times this job several times a second between its inputs, and scales
each fastest-of-k time by `NOMINAL_S / (the job's time at the matching
quantile)`, so a reported time is the time on a host where the job
takes `NOMINAL_S`. A change to indegraph cannot move the job, so the
scaling keeps every difference between two commits; it only takes out
the host's drift. The table prints the unscaled wall times too.
"""

from __future__ import annotations

import time

# About the job's time on the 2-core x86_64 host that defined the benchmark.
NOMINAL_S = 0.008


def job() -> int:
    """Small-int arithmetic, big-int bit scans, and dict and str churn,
    the kinds of work indegraph's layers do."""
    total = 0
    for i in range(70_000):
        total += i * i % 7
    mask = (1 << 2500) - 1
    while mask:
        low = mask & -mask
        total += low.bit_length()
        mask ^= low
    table = {i: str(i) for i in range(14_000)}
    return total + sum(len(v) for v in table.values())


class Speed:
    """Single runs of the job, gathered during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        job()
        self.samples.append(time.perf_counter() - start)

    def factor(self, k: int) -> float:
        """Multiply the fastest of `k` wall times of one input by this to
        get its time at nominal speed.

        The fastest of k readings taken at scattered moments of a run lies,
        in the median, at the share 1 - 0.5**(1/k) of the host's speeds
        over the run, so the job's time at that quantile of its own samples
        reads the host as the input's fastest time did.
        """
        times = sorted(self.samples)
        pos = (1 - 0.5 ** (1 / k)) * (len(times) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(times) - 1)
        return NOMINAL_S / (times[lo] + (times[hi] - times[lo]) * (pos - lo))
