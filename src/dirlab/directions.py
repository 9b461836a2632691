"""Counting and binning the directions spanned by a finite point set.

Censuses are exact (keys from canonical_direction semantics); coverage
grids quantize the sphere through a cube-face chart at a caller-chosen
cell pitch.  Heavy paths run chunked through numpy; results are identical
to the scalar definitions because keys are integers before deduplication.

Both read pair differences from geometry._pair_differences: each distinct
difference once with its pair count on a Cartesian-product support with
fewer distinct differences than pairs, every pair otherwise.  Keys, cells
and hit counts are identical on both paths.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed, WrongDimension
from .geometry import (
    DIRECTION_RESOLUTION,
    DirectionKey,
    PointSet,
    _group_sums,
    _pair_differences,
    _unique_rows,
    collinearity_rank,
)


@dataclass(frozen=True)
class DirectionCensus:
    """All distinct direction keys of a point set, with pair bookkeeping."""

    keys: frozenset
    antipodal_identified: bool
    n_points: int
    n_pairs: int

    @property
    def count(self) -> int:
        return len(self.keys)


def _first_nonzero_sign(rows: np.ndarray) -> np.ndarray:
    sign = np.zeros(len(rows), dtype=rows.dtype)
    for j in range(rows.shape[1]):
        undecided = sign == 0
        if not undecided.any():
            break
        sign[undecided] = np.sign(rows[undecided, j])
    return sign


def _flip_to_canonical(rows: np.ndarray) -> np.ndarray:
    sign = _first_nonzero_sign(rows)
    return rows * sign[:, None]


def distinct_directions(P: PointSet, antipodal: bool = True) -> DirectionCensus:
    """Census of canonical direction keys over all pairs of P.

    Signed mode (antipodal=False) counts ordered pairs, so both u and -u
    appear; identified mode counts each unordered pair once.
    """
    n = len(P)
    if n < 2:
        raise PreconditionFailed("need at least two points for directions")
    scaled = P.scaled_integer() if P.mode == "exact" else None
    if P.mode == "exact" and scaled is None:
        return _census_fraction_fallback(P, antipodal)

    exact = scaled is not None
    arr = scaled[0] if exact else P.as_array()

    def _key_chunks():
        # primitive integer vectors for exact sets, quantized unit vectors for floats
        for diffs, _ in _pair_differences(arr):
            if exact:
                q = diffs // np.gcd.reduce(np.abs(diffs), axis=1)[:, None]
            else:
                unit = diffs / np.sqrt((diffs * diffs).sum(axis=1))[:, None]
                q = np.rint(unit / DIRECTION_RESOLUTION).astype(np.int64)
            yield _flip_to_canonical(q) if antipodal else np.vstack([q, -q])

    if exact:
        bound, scale, cast = max(1, 2 * int(np.abs(arr).max())), 1, int
    else:
        bound, scale, cast = int(round(1 / DIRECTION_RESOLUTION)) + 2, DIRECTION_RESOLUTION, float
    rows = _unique_rows(_key_chunks(), bound, P.dimension)
    keys = frozenset(
        DirectionKey(rep=tuple(cast(v) for v in row), antipodal_identified=antipodal, exact=exact)
        for row in rows * scale
    )
    n_pairs = n * (n - 1) // 2 if antipodal else n * (n - 1)
    return DirectionCensus(keys=keys, antipodal_identified=antipodal, n_points=n, n_pairs=n_pairs)


def _census_fraction_fallback(P: PointSet, antipodal: bool) -> DirectionCensus:
    # Denominators too large for the integer fast path; per-pair exact keys.
    from .geometry import canonical_direction

    n = len(P)
    keys = set()
    for i in range(n):
        for j in range(i + 1, n):
            keys.add(canonical_direction(P.points[i], P.points[j], antipodal))
            if not antipodal:
                keys.add(canonical_direction(P.points[j], P.points[i], antipodal))
    n_pairs = n * (n - 1) // 2 if antipodal else n * (n - 1)
    return DirectionCensus(
        keys=frozenset(keys), antipodal_identified=antipodal, n_points=n, n_pairs=n_pairs
    )


def primitive_count(q: int, d: int) -> int:
    """Number of nonzero integer vectors in [0,q]^d with coprime entries."""
    if q < 1 or d < 2:
        raise PreconditionFailed("need q >= 1 and d >= 2")
    side = q + 1
    total = 0
    if side**d <= 50_000_000:
        grid = np.indices((side,) * d).reshape(d, -1)
        total = int(np.count_nonzero(np.gcd.reduce(grid, axis=0) == 1))
    else:
        rest = np.indices((side,) * (d - 1)).reshape(d - 1, -1)
        tail = np.gcd.reduce(rest, axis=0)
        for first in range(side):
            total += int(np.count_nonzero(np.gcd(first, tail) == 1))
    return total


@dataclass(frozen=True)
class PpsReport:
    """Distinct-direction lower-bound check for full-rank sets in R^3.

    applicable=False means the rank hypothesis failed; threshold and passed
    are then None and the raw count is still reported.
    """

    n: int
    rank: int
    count: int
    threshold: int | None
    passed: bool | None
    applicable: bool


def pps_check(P: PointSet) -> PpsReport:
    if P.dimension != 3:
        raise WrongDimension("direction lower bounds are stated in R^3 only")
    rank = collinearity_rank(P)
    n = len(P)
    count = distinct_directions(P, antipodal=True).count if n >= 2 else 0
    if rank < 3:
        return PpsReport(n=n, rank=rank, count=count, threshold=None, passed=None, applicable=False)
    threshold = 2 * n - 5 if n % 2 == 1 else 2 * n - 7
    return PpsReport(
        n=n, rank=rank, count=count, threshold=threshold, passed=count >= threshold, applicable=True
    )


@dataclass
class CoverageGrid:
    """Hit counts of pair directions over an epsilon cell grid on the sphere.

    The chart projects each unit vector onto the face of the surrounding
    cube that its dominant coordinate points at, then grids that face at
    pitch epsilon; total cell count is 2d * ceil(2/eps)^(d-1).
    """

    dimension: int
    epsilon: float
    antipodal_identified: bool
    cells_per_side: int
    cells: dict
    n_pairs: int
    chart: str = "cube-face"

    @property
    def total_cells(self) -> int:
        return 2 * self.dimension * self.cells_per_side ** (self.dimension - 1)

    def occupied(self) -> int:
        return len(self.cells)

    def coverage_fraction(self) -> float:
        return len(self.cells) / self.total_cells

    def decode_cell(self, code: int) -> tuple:
        """Unpack a cell code to (axis, sign, idx_0, ..., idx_{d-2})."""
        m = self.cells_per_side
        idx = []
        for _ in range(self.dimension - 1):
            code, r = divmod(code, m)
            idx.append(r)
        axis, pos = divmod(code, 2)
        return (axis, 1 if pos else -1, *reversed(idx))


def _face_decompose(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face code (axis*2 + positive) and in-face coordinates for unit rows."""
    k, d = unit.shape
    a = np.argmax(np.abs(unit), axis=1)
    amp = unit[np.arange(k), a]
    face = a * 2 + (amp > 0)
    w = unit / np.abs(amp)[:, None]
    keep = np.arange(d)[None, :] != a[:, None]
    other = w[keep].reshape(k, d - 1)
    return face, other


def sphere_coverage_sweep(
    P: PointSet, eps_list, antipodal: bool = True
) -> list[CoverageGrid]:
    """Coverage grids for several pitches in one pass over all pairs."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise PreconditionFailed("need at least one cell pitch")
    for eps in eps_list:
        if not (0 < eps <= 1):
            raise PreconditionFailed(f"cell pitch {eps} outside (0, 1]")
    n = len(P)
    if n < 2:
        raise PreconditionFailed("need at least two points for directions")
    d = P.dimension
    sides = [math.ceil(2 / eps) for eps in eps_list]
    totals = [2 * d * m ** (d - 1) for m in sides]
    # dense hit arrays up to the limit, counter dicts for finer grids
    dense_limit = 1 << 26
    accums = [
        np.zeros(total, dtype=np.int64) if total <= dense_limit else Counter()
        for total in totals
    ]

    for diffs, mult in _pair_differences(P.as_array()):
        norms = np.sqrt((diffs * diffs).sum(axis=1))
        unit = diffs / norms[:, None]
        if antipodal:
            unit = _flip_to_canonical(unit)
        else:
            unit = np.vstack([unit, -unit])
            mult = np.concatenate([mult, mult])
        face, other = _face_decompose(unit)
        shifted = other + 1.0
        for eps, m, acc in zip(eps_list, sides, accums):
            idx = np.clip((shifted / eps).astype(np.int64), 0, m - 1)
            code = face.astype(np.int64)
            for j in range(d - 1):
                code = code * m + idx[:, j]
            if isinstance(acc, Counter):
                acc.update(_group_sums(code, mult))
            else:
                np.add.at(acc, code, mult)

    n_pairs = n * (n - 1) // 2 if antipodal else n * (n - 1)
    grids = []
    for eps, m, acc in zip(eps_list, sides, accums):
        if isinstance(acc, Counter):
            cells = dict(acc)
        else:
            nz = np.nonzero(acc)[0]
            cells = {int(c): int(acc[c]) for c in nz}
        grids.append(
            CoverageGrid(
                dimension=d,
                epsilon=eps,
                antipodal_identified=antipodal,
                cells_per_side=m,
                cells=cells,
                n_pairs=n_pairs,
            )
        )
    return grids


def sphere_coverage(P: PointSet, eps: float, antipodal: bool = True) -> CoverageGrid:
    return sphere_coverage_sweep(P, [eps], antipodal=antipodal)[0]


@dataclass
class SeparatedSubset:
    """A pairwise delta-separated selection of census keys.

    occupied_cells counts the chart cells at the pitch actually used; the
    selection size is guaranteed to be at least occupied_cells/2^(d-1).
    """

    keys: list
    delta: float
    pitch: float
    occupied_cells: int
    color_classes: int


def _chart_cells(units: np.ndarray, pitch: float) -> list[tuple]:
    k, d = units.shape
    m = max(1, math.ceil(2 / pitch))
    face, other = _face_decompose(units)
    idx = np.clip(((other + 1.0) / pitch).astype(np.int64), 0, m - 1)
    return [
        (int(face[i]),) + tuple(int(v) for v in idx[i])
        for i in range(k)
    ]


def separated_subset(census: DirectionCensus, delta: float) -> SeparatedSubset:
    """Greedy checkerboard selection of keys at Euclidean separation delta.

    Cells of an internal chart grid are 2^(d-1)-colored by index parity;
    the best color class survives a cross-face cleanup pass, then grows by
    any remaining keys that respect the separation.  If the class falls
    below occupied/2^(d-1) the grid is coarsened and retried, so the
    reported occupied count always matches the pitch in the result.
    """
    if not (0 < delta <= 1):
        raise PreconditionFailed(f"separation {delta} outside (0, 1]")
    keys = sorted(census.keys, key=lambda key: key.rep)
    units = np.array([key.unit_vector() for key in keys], dtype=np.float64)
    d = units.shape[1]
    n_classes = 2 ** (d - 1)
    pitch = (d + 1) * delta

    while True:
        cells = {}
        for pos, cell in enumerate(_chart_cells(units, pitch)):
            cells.setdefault(cell, pos)
        occupied = len(cells)
        need = math.ceil(occupied / n_classes)

        classes: dict[tuple, list[int]] = {}
        for cell in sorted(cells):
            sigma = tuple(v % 2 for v in cell[1:])
            classes.setdefault(sigma, []).append(cells[cell])

        best: list[int] = []
        for sigma in sorted(classes):
            kept: list[int] = []
            for pos in classes[sigma]:
                if kept:
                    gaps = np.linalg.norm(units[kept] - units[pos], axis=1)
                    if gaps.min() < delta:
                        continue
                kept.append(pos)
            if len(kept) > len(best):
                best = kept

        if len(best) >= need:
            chosen = list(best)
            members = set(chosen)
            for pos in range(len(keys)):
                if pos in members:
                    continue
                gaps = np.linalg.norm(units[chosen] - units[pos], axis=1)
                if gaps.min() >= delta:
                    chosen.append(pos)
                    members.add(pos)
            return SeparatedSubset(
                keys=[keys[pos] for pos in chosen],
                delta=delta,
                pitch=pitch,
                occupied_cells=occupied,
                color_classes=n_classes,
            )
        pitch *= 2
