"""Reference slope-window scan: every cross pair tested against every window.

This is measure's scan window (now _window_masses_scan) as it stood before
range accumulation: per block of _PAIR_BLOCK // g cross pairs, the bounds
a*[lo, hi] of each window are scaled by the denominator a = diffs[:, -1] of
either sign, each slope coordinate is tested against them with closed
comparisons, and the indicator products are summed by einsum.  The oracle
tests compare the library's window with it: membership bit for bit, masses
up to summation order.
"""

from __future__ import annotations

import numpy as np

from dirlab.geometry import _PAIR_BLOCK, _pair_loop

_EINSUM = {1: "a,aj->j", 2: "a,aj,ak->jk", 3: "a,aj,ak,al->jkl"}


def scaled_window(a, lo, hi):
    """Bounds a*[lo, hi] per denominator a of either sign, one row per a."""
    a = a[:, None]
    return np.where(a > 0, a * lo, a * hi), np.where(a > 0, a * hi, a * lo)


def scan(mu1, mu2, lo, hi) -> np.ndarray:
    d = mu1.base.dimension
    g = len(lo)
    total = np.zeros((g,) * (d - 1), dtype=np.float64)
    spec = _EINSUM[d - 1]
    for diffs, wp in _pair_loop(mu1.base.as_array(), mu1.mass_array(), mu2.base.as_array(),
                                mu2.mass_array(), block=_PAIR_BLOCK // g):
        lo_eff, hi_eff = scaled_window(diffs[:, -1], lo, hi)
        factors = [
            (diffs[:, i][:, None] >= lo_eff) & (diffs[:, i][:, None] <= hi_eff)
            for i in range(d - 1)
        ]
        total += np.einsum(spec, wp, *[f.astype(np.float64) for f in factors])
    return total
