"""Reference direction census with eager keys and the earlier row dedup.

This is distinct_directions as it stood before the census kept its key
rows: distinct rows from one offset code per row where (2*bound+1)^d fits
int64 (and always for Python-int rows), numpy's axis unique otherwise, and
then one DirectionKey per row built into a frozenset.  The view tests
compare set(census.keys) with its keys.
"""

from __future__ import annotations

import numpy as np

from dirlab.directions import DirectionCensus, _flip_to_canonical, _unit_rows
from dirlab.geometry import (
    DIRECTION_RESOLUTION,
    DirectionKey,
    PointSet,
    _pair_differences,
    _sorted_unique,
)
from dirlab.errors import PreconditionFailed


def unique_rows(chunk_rows, bound: int, d: int) -> np.ndarray:
    base = 2 * bound + 1
    codes, chunks = [], []
    for rows in chunk_rows:
        if rows.dtype == object or base**d <= 1 << 62:
            code = rows[:, 0] + bound
            for j in range(1, d):
                code = code * base + (rows[:, j] + bound)
            codes.append(_sorted_unique(code))
        else:
            chunks.append(np.unique(rows, axis=0))
    if chunks:
        return np.unique(np.vstack(chunks), axis=0)
    rem = _sorted_unique(np.concatenate(codes))
    out = np.empty((len(rem), d), dtype=rem.dtype)
    for j in range(d - 1, -1, -1):
        rem, out[:, j] = rem // base, rem % base - bound
    return out


def distinct_directions(P: PointSet, antipodal: bool = True) -> DirectionCensus:
    n = len(P)
    if n < 2:
        raise PreconditionFailed("need at least two points for directions")
    exact = P.mode == "exact"
    arr, _ = P._scaled

    def _key_chunks():
        for diffs, _ in _pair_differences(P):
            if exact:
                q = diffs // np.gcd.reduce(np.abs(diffs), axis=1)[:, None]
            else:
                q = np.rint(_unit_rows(diffs) / DIRECTION_RESOLUTION).astype(np.int64)
            yield _flip_to_canonical(q) if antipodal else np.vstack([q, -q])

    if exact:
        bound, scale, cast = max(1, 2 * int(np.abs(arr).max())), 1, int
    else:
        bound, scale, cast = int(round(1 / DIRECTION_RESOLUTION)) + 2, DIRECTION_RESOLUTION, float
    rows = unique_rows(_key_chunks(), bound, P.dimension)
    keys = frozenset(
        DirectionKey(rep=tuple(cast(v) for v in row), antipodal_identified=antipodal, exact=exact)
        for row in rows * scale
    )
    n_pairs = n * (n - 1) // 2 if antipodal else n * (n - 1)
    return DirectionCensus(keys=keys, antipodal_identified=antipodal, n_points=n, n_pairs=n_pairs)
