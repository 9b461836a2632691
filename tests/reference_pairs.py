"""Reference pair blocks in row-major layout, and the grid-hash separation search.

This is the shared pair layer as it stood before its blocks went
column-contiguous: pair_loop subtracts a full rows x n block and masks
away the lower half, product_differences fills rows one strided column at
a time, face_decompose finds the face by argmax, a fancy index and a
boolean-mask reshape, and flip_to_canonical fixes signs by masked
assignment over every column.  energy_integral is the energy's one loop on those
blocks, with squared distances from numpy's row sum.  separation is the
grid-hash search that calls np.linalg.norm once per neighbour.  The oracle
tests compare the library with each, block by block and bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from dirlab import geometry
from dirlab.geometry import _PAIR_BLOCK
from dirlab.measure import _exponent


def pair_loop(arr, weights, other=None, other_weights=None, block=_PAIR_BLOCK):
    cross = other is not None
    if not cross:
        other, other_weights = arr, weights
    n = len(other)
    rows = max(1, block // max(1, n))
    stop = len(arr) if cross else n - 1
    cols = np.arange(n)
    for i0 in range(0, stop, rows):
        i1 = min(i0 + rows, stop)
        pick = ... if cross else cols[None, :] > np.arange(i0, i1)[:, None]
        diffs = (other[None, :, :] - arr[i0:i1, None, :])[pick].reshape(-1, arr.shape[1])
        if weights is None:
            yield diffs, np.ones(len(diffs), dtype=np.int64)
        else:
            yield diffs, (weights[i0:i1, None] * other_weights[None, :])[pick].ravel()


def product_differences(hists):
    d = len(hists)
    for k in range(d):
        v, c = hists[k]
        factors = [(w[w == 0], m[w == 0]) for w, m in hists[:k]]
        factors += [(v[v > 0], c[v > 0])] + hists[k + 1 :]
        total = math.prod(len(v) for v, _ in factors)
        for t0 in range(0, total, _PAIR_BLOCK):
            rem = np.arange(t0, min(t0 + _PAIR_BLOCK, total))
            rows = np.empty((len(rem), d), dtype=hists[0][0].dtype)
            mult = np.ones(len(rem), dtype=np.int64)
            for j in range(d - 1, -1, -1):
                v, c = factors[j]
                rem, idx = np.divmod(rem, len(v))
                rows[:, j] = v[idx]
                mult *= c[idx]
            yield rows, mult


def pair_differences(P, rows, weights=None):
    """The energy's path choice over the row-major blocks above: the product
    path when P's difference plan (read at call time, so on_both_paths
    steers it) takes it, else the pair loop; rows are P's stored rows,
    possibly as Python ints."""
    plan = P._difference_plan()
    if weights is None and plan.path == "product":
        return product_differences([geometry._cross_diff_histogram(*[a.astype(rows.dtype)] * 2)
                                    for a in plan.axes])
    return pair_loop(rows, weights)


def face_decompose(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face code (axis*2 + positive) and in-face coordinates for unit rows."""
    k, d = unit.shape
    a = np.argmax(np.abs(unit), axis=1)
    amp = unit[np.arange(k), a]
    face = a * 2 + (amp > 0)
    w = unit / np.abs(amp)[:, None]
    keep = np.arange(d)[None, :] != a[:, None]
    other = w[keep].reshape(k, d - 1)
    return face, other


def flip_to_canonical(rows: np.ndarray) -> np.ndarray:
    sign = np.zeros(len(rows), dtype=rows.dtype)
    for col in rows.T:
        undecided = sign == 0
        if not undecided.any():
            break
        sign[undecided] = np.sign(col[undecided])
    return rows * sign[:, None]


def energy_integral(mu, s):
    value = _exponent(s)
    if len(mu) < 2:
        return Fraction(0) if mu.base.mode == "exact" else 0.0
    rows, denom = mu.base._scaled
    if mu.base.mode == "exact" and 4 * mu.base.dimension * int(np.abs(rows).max()) ** 2 >= 1 << 63:
        rows = rows.astype(object)
    even = mu.base.mode == "exact" and mu.exact and value % 2 == 0
    weights, mass_denom = mu._weights if even else (mu.mass_array(), 1.0)
    grouped, total = Counter(), 0.0
    for diffs, mult in pair_differences(mu.base, rows, None if mu.uniform else weights):
        r2 = (diffs * diffs).sum(axis=1)
        if even:
            for key, weight in zip(r2.tolist(), mult.tolist()):
                grouped[key] += weight
        else:
            total += float((mult * (r2 / denom**2) ** (-value / 2.0)).sum())
    if even:
        total = sum(Fraction(weight) / r2 ** int(value // 2) for r2, weight in grouped.items())
        return 2 * Fraction(denom ** int(value), mass_denom**2) * total
    return 2.0 * total * (float(weights[0]) ** 2 if mu.uniform else 1.0)


def separation(P, s) -> tuple:
    arr = P.as_array()
    n, d = arr.shape
    radius = float(n) ** (-1.0 / _exponent(s))
    cell = np.floor(arr / radius).astype(np.int64)
    buckets: dict[tuple, list[int]] = {}
    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    for i in range(n):
        home = tuple(int(v) for v in cell[i])
        hit = None
        for off in offsets:
            bucket = buckets.get(tuple(h + o for h, o in zip(home, off)))
            if not bucket:
                continue
            for j in bucket:
                dist = float(np.linalg.norm(arr[i] - arr[j]))
                if dist < radius and (hit is None or j < hit[0]):
                    hit = (j, dist)
        if hit is not None:
            return radius, (hit[0], i, hit[1])
        buckets.setdefault(home, []).append(i)
    return radius, None
