"""Seeded inputs and the three benchmark workloads.

Every operation gets its own data, derived from ``(workload seed, workload
name, operation index)``, so one seed always yields the same sequence of
inputs.  Select inputs are planted blobs: K isotropic unit-variance Gaussians
whose centers sit on the first axis 10 sigma apart, with balanced labels, so
the planted K is what a working selector recovers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

BLOB_SPACING = 10.0


@dataclass(frozen=True)
class Workload:
    """One kind of operation; every operation of a workload has the same size."""

    name: str
    command: str          # "select" or "verify"
    n: int
    m: int
    planted_k: int = 0    # select only
    k_max: int = 0
    restarts: int = 0
    samples: int = 0      # verify only


WORKLOADS = {
    # the O(K n^2) normalization table dominates; the descent is nearly bypassed
    "select-large-n": Workload("select-large-n", "select", n=3000, m=2,
                               planted_k=3, k_max=4, restarts=2),
    # small n, many K and restarts: the descent and its refits dominate
    "select-restarts": Workload("select-restarts", "select", n=240, m=3,
                                planted_k=4, k_max=8, restarts=16),
    # Monte Carlo oracle only; no mixture code runs (one shape, so the median
    # is not bimodal)
    "verify-mc": Workload("verify-mc", "verify", n=6, m=2, samples=500_000),
}


def planted_blobs(n: int, m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n x m rows from k unit-variance blobs 10 sigma apart on the first axis.

    Blob sizes differ by at most one; rows are shuffled so labels do not
    follow the row order.
    """
    labels = np.arange(n) % k
    rng.shuffle(labels)
    centers = np.zeros((k, m))
    centers[:, 0] = BLOB_SPACING * np.arange(k)
    return centers[labels] + rng.standard_normal((n, m))


@dataclass(frozen=True)
class Operation:
    """One prepared invocation: its argv and the inputs its checks need."""

    argv: list
    data: np.ndarray | None   # the rows written to the CSV (select only)
    planted_k: int


def prepare(wl: Workload, seed: int, index: int, csv_path: str,
            report_path: str) -> Operation:
    """Generate the inputs of one operation and return its argv.

    For ``select`` this writes the CSV with round-trip float precision, so the
    rows the program parses equal ``Operation.data`` exactly.  ``index`` -1 is
    the warm-up.
    """
    ss = np.random.SeedSequence([int(seed), zlib.crc32(wl.name.encode()), index + 1])
    data_ss, run_ss = ss.spawn(2)
    run_seed = str(int(run_ss.generate_state(1, np.uint32)[0]))
    if wl.command == "verify":
        argv = ["verify", "--m", str(wl.m), "--n", str(wl.n), "--samples",
                str(wl.samples), "--seed", run_seed, "--output", report_path]
        return Operation(argv=argv, data=None, planted_k=0)
    data = planted_blobs(wl.n, wl.m, wl.planted_k, np.random.default_rng(data_ss))
    np.savetxt(csv_path, data, delimiter=",", fmt="%.17g")
    argv = ["select", csv_path, "--k-max", str(wl.k_max), "--restarts",
            str(wl.restarts), "--seed", run_seed, "--output", report_path]
    return Operation(argv=argv, data=data, planted_k=wl.planted_k)
