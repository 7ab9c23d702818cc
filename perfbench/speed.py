"""Host-speed probe, for expressing timings in reference seconds.

The machines this benchmark runs on are shared.  The same run reads up to
a sixth faster or slower depending on what else the host is doing, in
phases of seconds to minutes, and CPU time moves with wall time, so the
program cannot tell.  The parent process therefore times a fixed probe
between child runs, while nothing else of the benchmark runs: small matrix
products like those of a fadnet step, touching no dflsim code.  Timings are
scaled by ``REFERENCE_S`` over the median probe time of the invocation, so
they read as seconds on a host where the probe takes ``REFERENCE_S``.  A
change to dflsim cannot move the probe.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median probe time on the machine the bounds were set on (environment.json);
# it fixes the scale of reference seconds and must never change
REFERENCE_S = 0.0055

CHUNKS = 40  # probes per measurement, about a fifth of a second in all


class Probe:
    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((128, 128))
        self.times: list[float] = []

    def measure(self) -> None:
        """Time ``CHUNKS`` probes of 50 products each into ``times``."""
        a = self._a
        for _ in range(CHUNKS):
            start = time.perf_counter()
            for _ in range(50):
                a @ a
            self.times.append(time.perf_counter() - start)

    def to_reference(self, seconds: float) -> float:
        """``seconds`` in seconds on a host where the median probe of this
        invocation takes ``REFERENCE_S``."""
        return seconds * REFERENCE_S / statistics.median(self.times)
