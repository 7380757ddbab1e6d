"""A fixed reference kernel that tracks the host's speed during a run.

On a shared virtual machine the same work can take 60% longer in one
five-second stretch than in the next, and the slow stretches last long
enough to shift whole runs.  The benchmark therefore times this kernel
between ops, in the same process, and scales each op time by
``NOMINAL_S / (kernel time around the op)``: times are reported in
seconds at the nominal host speed.  The kernel uses numpy and plain
Python only, never the library under test, so a change to the library
cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 2.0e-3  # kernel time on an unloaded 2-core Xeon at 2.0 GHz
WINDOW = 15         # samples around an op that set its scale


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [a + a.T for a in rng.standard_normal((40, 4, 4))]
        self._dense = rng.standard_normal((120, 120))
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one kernel run: small eigendecompositions read back entry
        by entry in Python, then one dense SVD."""
        t0 = time.perf_counter()
        acc = 0.0
        for a in self._small:
            _, v = np.linalg.eigh(a)
            for i in range(4):
                for j in range(i, 4):
                    acc += float(v[i, j])
        np.linalg.svd(self._dense, compute_uv=False)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale_at(self, i: int) -> float:
        """Scale for an op run after sample i: the median of the WINDOW
        samples centred there."""
        lo = max(0, i - WINDOW // 2)
        window = self.samples[lo:lo + WINDOW]
        return NOMINAL_S / statistics.median(window)
