"""Choosing the number of clusters by total code length.

Two well-separated blobs: K = 2 wins because the per-cluster data terms
shrink far more than the normalization term grows.  Rerunning on the same
data multiplied by 1/1000 gives a scale 1000 times smaller, so the scaled
data, every total and the selected K are the same as for the original.
"""

import numpy as np

from unml import Dataset, select

rng = np.random.default_rng(7)
x = np.concatenate([rng.normal(0.0, 1.0, 100), rng.normal(12.0, 1.0, 100)])


def run(raw, tag):
    report = select(raw, range(1, 5), seed=11, restarts=4, eps1=1e-4)
    print(f"\n{tag} (alpha = {report.alpha:.5g})")
    print(f"  {'K':>3} {'data term':>12} {'log norm':>12} {'total':>12}")
    for e in report.entries:
        marker = "  <- selected" if e.k == report.selected_k else ""
        print(f"  {e.k:>3} {e.data_term:12.4f} {e.log_norm:12.4f} "
              f"{e.total:12.4f}{marker}")
    return report


r1 = run(Dataset(x), "original data")
r2 = run(Dataset(x / 1000.0), "same data divided by 1000")

t1 = {e.k: e.total for e in r1.entries}
t2 = {e.k: e.total for e in r2.entries}
print("\nper-K total differences (scale-invariant):")
for k in sorted(t1)[1:]:
    print(f"  total(K={k}) - total(K=1):  "
          f"{t1[k] - t1[1]:14.8f}   vs   {t2[k] - t2[1]:14.8f}")
