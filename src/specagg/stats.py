"""Paired comparison test for seed-matched experiment results."""

from __future__ import annotations

import numpy as np
from scipy import stats as _scipy_stats


def paired_one_sided_pvalue(x, y) -> float:
    """P-value of a paired t-test for H1: mean(x - y) > 0.

    `x` and `y` must be seed-matched samples of equal length.  A zero
    variance of the differences degenerates to p = 0 when the common
    difference is positive and p = 1 otherwise.
    """
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    if d.size < 2:
        raise ValueError("need at least two paired samples")
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0 if mean > 0 else 1.0
    t = mean / (sd / np.sqrt(d.size))
    return float(_scipy_stats.t.sf(t, d.size - 1))
