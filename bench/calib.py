"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared VM the speed of the CPU drifts by tens of percent over seconds to
minutes as neighbours come and go, and every operation slows with it.  The
kernel does fixed numpy/scipy work of the kinds the workloads do (many small
eigendecompositions in a Python loop, special functions over a length-3000
vector, batched 2x2 eigenvalues, bulk random draws) and never
calls ``unml``, so a change to ``unml`` cannot move it.  Timing it next to
every operation lets the benchmark express operation times in seconds of a
machine running at the nominal speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

# kernel wall time on the machine recorded in README.md, in its quiet phases;
# it only sets the unit: ratios between two commits do not depend on it
NOMINAL_S = 0.028

# Fresh interpreters are bracketed by a fresh interpreter that imports numpy
# instead: its start-up, shared-library loading and module execution tracked
# the drift of ``import unml.cli`` far better than the in-process kernel did
# (over 12 minutes, 90-second medians spread by 0.02 of their median, against
# 0.08 with the kernel and 0.11 raw).
IMPORT_REFERENCE = "import numpy"
IMPORT_NOMINAL_S = 0.18


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20170904)
        self.small = rng.standard_normal((200, 3))
        self.vec = 1.0 + 3000.0 * rng.random(3001)
        self.bulk = rng.standard_normal((4096, 6, 2))
        self.seed = rng.integers(2**32)

    def kernel(self) -> float:
        """Run the fixed work once; returns its wall time in seconds."""
        t0 = perf_counter()
        for _ in range(140):
            np.linalg.eigh(np.cov(self.small.T))
        for _ in range(30):
            logsumexp(gammaln(self.vec) + xlogy(self.vec, self.vec / 3001.0))
        for _ in range(2):
            dev = self.bulk - self.bulk.mean(axis=1, keepdims=True)
            np.linalg.eigvalsh(np.einsum("ijk,ijl->ikl", dev, dev))
        draw = np.random.default_rng(self.seed)
        normal = draw.standard_normal((16384, 6, 2))
        uniform = draw.uniform(-1.0, 1.0, (16384, 6, 2))
        np.where(uniform[:, :1, :1] > 0, normal, uniform).mean(axis=1)
        return perf_counter() - t0


def at_nominal_speed(walls: list, kernels: list, nominal: float = NOMINAL_S) -> list:
    """Each wall time in seconds of a machine at nominal speed.

    ``kernels[i]`` and ``kernels[i + 1]`` are the reference times measured
    just before and just after ``walls[i]``; ``nominal`` is the reference's
    time at nominal speed.
    """
    return [t * 2 * nominal / (a + b) for t, a, b in zip(walls, kernels, kernels[1:])]
