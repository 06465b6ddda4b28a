"""The fixed calibration kernel behind every reported time.

A host's speed drifts: on the two-core host this benchmark was built
on, the same job's CPU seconds moved by up to 25 % between runs minutes
apart.  The benchmark times this kernel next to each timed job, in the
process that runs the job (or, for the service, in its client) while
the program is idle, and reports

    reference seconds = raw seconds * REFERENCE_SECONDS / kernel seconds

i.e. the time the job would take on a host where the kernel runs in
exactly :data:`REFERENCE_SECONDS`.  One kernel sample is as noisy as
the host, so a run divides by the median of all its samples.

The kernel mixes an interpreted Python loop with small numpy
operations, the two kinds of work the enumeration does, and is never to
be changed: changing it rescales every figure the benchmark reports.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: nominal kernel time the reference seconds are scaled to.
REFERENCE_SECONDS = 0.02

#: kernel runs per sample; the sample is their median
REPEATS = 5

_LOOP = 120_000
_ROUNDS = 360


def kernel() -> int:
    """One fixed unit of mixed interpreter and numpy work."""
    acc = 0
    for i in range(_LOOP):
        acc = (acc + i * i) % 1_000_003
    words = np.arange(2048, dtype=np.uint32)
    total = 0
    for r in range(_ROUNDS):
        words = (words * np.uint32(1_103_515_245) + np.uint32(r)) >> 3
        total += int(np.bitwise_and(words, words >> 5).sum() & 0xFF)
    return acc + total


def time_kernel() -> float:
    """Median CPU seconds (this process) of :data:`REPEATS`
    back-to-back kernel runs."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        kernel()
        samples.append(time.process_time() - t0)
    return statistics.median(samples)


def to_reference(raw_seconds: float, kernel_seconds: float) -> float:
    """Convert a raw time measured beside ``kernel_seconds``."""
    if kernel_seconds <= 0:
        raise ValueError(f"kernel time must be positive: {kernel_seconds}")
    return raw_seconds * REFERENCE_SECONDS / kernel_seconds

