"""Host-speed reference: scales measured times to a host of fixed speed.

The benchmark was tuned on a shared 2-vCPU VM whose speed drifts by up to
a half over seconds to minutes.  The CPU time of a fixed loop moves with
its wall time there, so the slowdown is per instruction, not waiting, and
a 25 s run can sit wholly in a slow or a fast phase.  Medians of raw wall
times then differ by a third between runs of the same code.

So a run interleaves a fixed probe with its ops: a fresh
``python -c "import numpy"``, which does not touch the package.  Each op's
time is multiplied by the probe's nominal time over the median time of the
probe runs around the op.  That gives the time the op would take on a host
where the probe takes its nominal time.  A change that speeds up the
program lowers scaled and raw times alike.  A phase of the host slows the
op and the probe together, and so leaves the scaled time nearly unchanged.
Raw times are still printed and written to the details file.

Over 15 s windows on that VM, the time of library ops moved with the
probe's time to the power 0.9-1.15, and CLI invocations to the power 0.94.
A pure-Python arithmetic loop was tried first: the ops moved with its time
only to the power 0.6-0.8, so scaling by it overcorrected.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# The probe's median time on the VM the benchmark was tuned on (Python
# 3.11, numpy 2.4) in its fast phases; scaled times are times on that host.
NOMINAL_S = 0.12
EVERY_S = 0.5           # at most one probe run per this much op time
WINDOW_S = 2.0          # probe runs this close to an op set its scale
MIN_SAMPLES = 3


def probe() -> None:
    """Start a fresh interpreter that imports numpy, and wait for it."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)


class HostClock:
    """Probe runs interleaved with the ops, and the scale they give."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (mid time, seconds)
        self._last = -math.inf
        probe()   # untimed: the first run pays for a cold page cache

    def sample(self) -> None:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), end - start))
        self._last = end

    def tick(self) -> None:
        """Run the probe if enough op time has passed since its last run."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the median probe time within ``WINDOW_S`` of
        ``[start, end]`` (the ``MIN_SAMPLES`` nearest runs if fewer)."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            near = [s for _, s in nearest[:MIN_SAMPLES]]
        return NOMINAL_S / statistics.median(near)
