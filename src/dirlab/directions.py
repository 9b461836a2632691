"""Counting and binning the directions spanned by a finite point set.

Censuses are exact (keys from canonical_direction semantics); coverage
grids quantize the sphere through a cube-face chart at a caller-chosen
cell pitch.  Heavy paths run chunked through numpy, each block in the
worker that fills it (geometry._block_map); results are identical to the
scalar definitions because keys are integers before deduplication.

Both read pair differences from geometry._pair_differences on the path
the set's difference plan chose once: each distinct difference with its
pair count (a product support or a dense subset of a grid), or every pair.
The census takes any path; coverage needs the float view's bits, so it
takes the grid path only over a power-of-two denominator.  Keys, cells
and hit counts are identical on every path.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed, SizeLimit, WrongDimension
from .generators import DEFAULT_POINT_CAP
from .geometry import (
    DIRECTION_RESOLUTION,
    DirectionKey,
    PointSet,
    _block_map,
    _float_rows,
    _fold,
    _fold_in,
    _grouped_sum,
    _pair_differences,
    _unique_rows,
    collinearity_rank,
)

# Chart cells up to which coverage counts hits in a dense int64 array (8 MB).
DENSE_CELL_LIMIT = 1 << 20
# Keys a census may hold: it refuses, before its walk, a set whose pairs (or
# distinct differences, on the product and grid paths) pass this.  In d = 3 a census
# peaks at about twice the 24 bytes a key it holds, so this is about 3.2 GB;
# it refuses float sets from 11,586 points on.
CENSUS_KEY_LIMIT = 1 << 26


class DirectionKeys(Set):
    """The distinct direction keys of a census, held as their integer rows.

    rows are distinct and in lexicographic order, so in the order of the
    keys' reps: a key's rep is its row times scale, as ints for exact keys
    (scale 1) and floats for float keys (scale DIRECTION_RESOLUTION).
    len() reads the rows; membership, iteration and comparison build the
    frozenset of DirectionKey once, on first use.
    """

    __slots__ = ("rows", "scale", "exact", "antipodal", "_frozen")

    def __init__(self, rows: np.ndarray, scale, exact: bool, antipodal: bool):
        self.rows, self.scale, self.exact, self.antipodal = rows, scale, exact, antipodal
        self._frozen = None

    def keys_at(self, positions) -> list:
        """The DirectionKeys of the rows at positions, in that order."""
        return [DirectionKey(rep=tuple(rep), antipodal_identified=self.antipodal, exact=self.exact)
                for rep in (self.rows[positions] * self.scale).tolist()]

    def _keys(self) -> frozenset:
        if self._frozen is None:
            self._frozen = frozenset(self.keys_at(slice(None)))
        return self._frozen

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self._keys())

    def __contains__(self, key) -> bool:
        return key in self._keys()

    def __hash__(self) -> int:
        return hash(self._keys())

    def __repr__(self) -> str:
        return f"DirectionKeys({len(self)} keys, exact={self.exact}, antipodal={self.antipodal})"

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)


@dataclass(frozen=True)
class DirectionCensus:
    """All distinct direction keys of a point set, with pair bookkeeping.

    keys is a DirectionKeys from distinct_directions; count reads only its
    length, so it never builds a key.
    """

    keys: Set
    antipodal_identified: bool
    n_points: int
    n_pairs: int

    @property
    def count(self) -> int:
        return len(self.keys)


def _flip_to_canonical(rows: np.ndarray) -> np.ndarray:
    """Rows times the sign of their first nonzero entry, in place, read column
    by column; later columns are read only at the rows still undecided."""
    cols = rows.T
    sign = np.sign(cols[0])
    for col in cols[1:]:
        undecided = np.flatnonzero(sign == 0)
        if not len(undecided):
            break
        sign[undecided] = np.sign(col[undecided])
    rows *= sign[:, None]
    return rows


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Row norms, squares summed left to right as DirectionKey.unit_vector() sums them."""
    return np.sqrt(sum(col * col for col in rows.T))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows over their norms, each equal to DirectionKey.unit_vector() bit for bit."""
    return rows / _row_norms(rows)[:, None]


def _canonical_rows(P: PointSet) -> np.ndarray:
    """The distinct canonical rows of P's pair differences, in lexicographic
    order, from one walk; refused past CENSUS_KEY_LIMIT before it starts."""
    exact = P.mode == "exact"

    def canonical(block):
        # primitive integer vectors for exact sets, quantized unit vectors for floats
        diffs, _ = block
        if exact:
            q = diffs // functools.reduce(np.gcd, diffs.T)[:, None]  # column by column
        else:
            q = np.rint(_unit_rows(diffs) / DIRECTION_RESOLUTION).astype(np.int64)
        return _flip_to_canonical(q)

    blocks = _pair_differences(P)
    if blocks.pairs > CENSUS_KEY_LIMIT:
        raise SizeLimit(f"a census of {blocks.pairs} pair differences passes the "
                        f"{CENSUS_KEY_LIMIT} key budget (CENSUS_KEY_LIMIT)")
    bound = max(1, 2 * int(np.abs(P._scaled[0]).max())) if exact else int(round(1 / DIRECTION_RESOLUTION)) + 2
    return _unique_rows(_block_map(canonical, blocks), bound, P.dimension)


def distinct_directions(P: PointSet, antipodal: bool = True) -> DirectionCensus:
    """Census of canonical direction keys over all pairs of P.

    Signed mode (antipodal=False) counts ordered pairs, so both u and -u
    appear; identified mode counts each unordered pair once.  Signed rows
    are -R[::-1] then R, R the canonical rows (README, "the census").
    Identified rows are read-only, and P holds a weak reference to the
    latest: a signed census reads R from it while that census is alive,
    and walks the pairs once it is gone.
    Refuses with SizeLimit a set whose pair differences pass CENSUS_KEY_LIMIT.
    """
    n = len(P)
    if n < 2:
        raise PreconditionFailed("need at least two points for directions")
    exact = P.mode == "exact"
    rows = None if antipodal or P._census_rows is None else P._census_rows()
    if rows is None:
        rows = _canonical_rows(P)
        if antipodal:
            rows.flags.writeable = False
            P._census_rows = weakref.ref(rows)
    if not antipodal:
        rows = np.concatenate([-rows[::-1], rows])
    scale = 1 if exact else DIRECTION_RESOLUTION
    keys = DirectionKeys(rows, scale, exact, antipodal)
    n_pairs = n * (n - 1) // 2 if antipodal else n * (n - 1)
    return DirectionCensus(keys=keys, antipodal_identified=antipodal, n_points=n, n_pairs=n_pairs)


def primitive_count(q: int, d: int) -> int:
    """Number of nonzero integer vectors in [0,q]^d with coprime entries;
    refused past the point cap, as lattice_set(q, d) is."""
    if q < 1 or d < 2:
        raise PreconditionFailed("need q >= 1 and d >= 2")
    side = q + 1
    if side**d > DEFAULT_POINT_CAP:
        raise SizeLimit(f"{side}^{d} exceeds the {DEFAULT_POINT_CAP} point cap")
    tail = np.gcd.reduce(np.indices((side,) * (d - 1)).reshape(d - 1, -1), axis=0)
    return sum(int(np.count_nonzero(np.gcd(first, tail) == 1)) for first in range(side))


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
    """Face code (axis*2 + positive) and in-face coordinates for unit rows.

    Column by column, with no fancy index: the axis is the first j whose
    |u_j| is the largest magnitude, or NaN (ties and NaNs go to the first
    index, as argmax), and in-face column c is u_c before the axis and
    u_(c+1) from it on, over that magnitude.  The in-face coordinates have
    contiguous columns."""
    k, d = unit.shape
    cols = unit.T
    mags = [np.abs(col) for col in cols]
    best = mags[0]
    for mag in mags[1:]:
        best = np.maximum(best, mag)
    past = ~((mags[0] == best) | np.isnan(mags[0]))  # whether the axis lies past column c
    axis, positive = past.astype(np.intp), ~past & (cols[0] > 0)
    other = np.empty((d - 1, k))
    for c in range(d - 1):
        np.divide(np.where(past, cols[c], cols[c + 1]), best, out=other[c])
        here = past & ((mags[c + 1] == best) | np.isnan(mags[c + 1]))
        positive |= here & (cols[c + 1] > 0)
        past &= ~here
        axis += past
    return axis * 2 + positive, other.T


def _chart_side(pitch: float) -> int:
    """Cells per face side, ceil(2/pitch); refused past int64, the in-face index dtype."""
    if not 2 / pitch < 1 << 63:
        raise PreconditionFailed(f"cell pitch {pitch} is too fine: ceil(2/pitch) cells per side pass int64")
    return max(1, math.ceil(2 / pitch))


def _chart_codes(face: np.ndarray, other: np.ndarray, pitch: float):
    """Cell codes and in-face indices at one pitch.  A code packs (face,
    idx_0, ..., idx_{d-2}) in base m = _chart_side(pitch), so codes sort as
    those tuples do; they are Python ints when 2d*m^(d-1) cells outgrow int64."""
    d = other.shape[1] + 1
    m = _chart_side(pitch)
    idx = np.clip(((other + 1.0) / pitch).astype(np.int64), 0, m - 1)
    code = face.astype(np.int64 if 2 * d * m ** (d - 1) <= 1 << 63 else object)
    for j in range(d - 1):
        code = code * m + idx[:, j]
    return code, idx


def sphere_coverage_sweep(
    P: PointSet, eps_list, antipodal: bool = True
) -> list[CoverageGrid]:
    """Coverage grids for several pitches in one pass over all pairs; signed
    grids bin each canonical unit's chart and (face ^ 1, -other), that of -u."""
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
    sides = [_chart_side(eps) for eps in eps_list]
    totals = [2 * d * m ** (d - 1) for m in sides]
    accums = [np.zeros(total, dtype=np.int64) if total <= DENSE_CELL_LIMIT else [] for total in totals]

    def chart(block):
        # per pitch and chart: cell codes for a dense accumulator, else a part
        diffs, mult = block
        norms = _row_norms(diffs)
        if not norms.all():
            raise PreconditionFailed("two points lie too close in float64 for their direction to be charted")
        diffs /= norms[:, None]  # a fresh block: now the units
        face, other = _face_decompose(_flip_to_canonical(diffs))
        charts = [(face, other)] if antipodal else [(face, other), (face ^ 1, -other)]
        hits = []
        for eps, acc in zip(eps_list, accums):
            for chart_face, chart_other in charts:
                code, _ = _chart_codes(chart_face, chart_other, eps)
                hits.append((acc, _grouped_sum(code, mult)[:2] if isinstance(acc, list) else code))
        return mult, hits

    for mult, hits in _block_map(chart, _pair_differences(P, floats=True)):
        for acc, hit in hits:
            if isinstance(acc, list):
                _fold_in(acc, hit)
            else:
                np.add.at(acc, hit, mult)

    n_pairs = n * (n - 1) // 2 if antipodal else n * (n - 1)
    grids = []
    for eps, m, acc in zip(eps_list, sides, accums):
        if isinstance(acc, list):
            codes, hits = _fold(acc)
        else:
            codes = np.flatnonzero(acc)
            hits = acc[codes]
        grids.append(
            CoverageGrid(
                dimension=d,
                epsilon=eps,
                antipodal_identified=antipodal,
                cells_per_side=m,
                cells=dict(zip(codes.tolist(), hits.tolist())),
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


def _sqrt_threshold(delta: float) -> float:
    """The least float t with fl(sqrt(t)) >= delta.  A correctly rounded
    sqrt is monotone, so for every float s >= 0, sqrt(s) < delta exactly
    when s < t."""
    t = delta * delta
    while math.sqrt(t) >= delta:
        t = math.nextafter(t, 0.0)
    while math.sqrt(t) < delta:
        t = math.nextafter(t, math.inf)
    return t


class _Slabs:
    """Units sorted on their first coordinate, each with its slab for delta.

    Unit r's slab, units[lo[r]:hi[r]], holds every unit whose first
    coordinate lies within h = delta (1 + 1e-9) of its own.  Outside it the
    first coordinates differ by more than delta, so the computed norm of the
    difference, a rounded sum of nonnegative squares, is at least delta:
    only units in the slab can be closer.  (This needs delta^2 to stay a
    normal float; separated_subset's chart side refuses delta below
    2^-62 / (d + 1).)  rank[pos] is unit pos's place in the sorted order;
    threshold is _sqrt_threshold(delta), computed once for every slab.
    """

    def __init__(self, units: np.ndarray, delta: float):
        order = np.argsort(units[:, 0], kind="stable")
        self.units = units[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.rank = rank.tolist()
        column = np.ascontiguousarray(self.units[:, 0])
        h = delta * (1 + 1e-9)
        self.lo = column.searchsorted(column - h, "left").tolist()
        self.hi = column.searchsorted(column + h, "right").tolist()
        self.threshold = _sqrt_threshold(delta)

    def block(self, r: int, blocked: np.ndarray) -> None:
        """Flag the units of r's slab closer than delta to unit r.  Each
        pair is the greedy's |kept - candidate| negated, so its squared
        norm has the same bits: the sum np.linalg.norm(x, axis=1) takes the
        root of for real rows.  It is compared with the threshold, not its
        root with delta, which decides every pair alike."""
        lo, hi = self.lo[r], self.hi[r]
        x = self.units[lo:hi] - self.units[r]
        blocked[lo:hi] |= np.add.reduce(x * x, axis=1) < self.threshold


def _greedy(slabs: _Slabs, kept: list, candidates: list, blocked: np.ndarray | None = None) -> list:
    """kept, then each candidate in order whose unit lies at least delta
    from every unit kept so far.  Each kept unit blocks its slab once, so a
    candidate costs one flag lookup.  blocked, when given, holds the flags
    kept's units left in an earlier pass and is updated in place; without
    it the kept units block their slabs first."""
    rank = slabs.rank
    if blocked is None:
        blocked = np.zeros(len(rank), dtype=bool)
        for pos in kept:
            slabs.block(rank[pos], blocked)
    chosen = list(kept)
    for pos in candidates:
        r = rank[pos]
        if not blocked[r]:
            slabs.block(r, blocked)
            chosen.append(pos)
    return chosen


def separated_subset(census: DirectionCensus, delta: float) -> SeparatedSubset:
    """Greedy checkerboard selection of keys at Euclidean separation delta.

    Keys are taken in rep order (the order of the census rows) and binned
    on the coverage chart, and only the keys kept are built; each
    occupied cell keeps its first key and takes one of 2^(d-1) parity
    colors.  One greedy keeps each color class in cell order, skipping a
    class with no more cells than the largest kept so far, since it could
    not pass it; the largest (the first of equals) then grows by the
    remaining keys, in order, that respect the separation, from the
    blocked flags its own pass left.  If it falls
    below occupied/2^(d-1) the grid is coarsened and retried, so the
    reported occupied count always matches the pitch.
    Every pass and retry shares one _Slabs index of the units.  Keys held
    as a plain set (not a DirectionKeys) are taken as rows in rep order.
    """
    if not (0 < delta <= 1):
        raise PreconditionFailed(f"separation {delta} outside (0, 1]")
    keys = census.keys
    if not len(keys):
        raise PreconditionFailed("no direction keys to separate")
    if not isinstance(keys, DirectionKeys):
        keys = DirectionKeys(np.array(sorted(key.rep for key in keys), dtype=object), 1,
                             next(iter(keys)).exact, census.antipodal_identified)
    units = _unit_rows(_float_rows(keys.rows * keys.scale))
    d = units.shape[1]
    n_classes = 2 ** (d - 1)
    pitch = (d + 1) * delta
    face, other = _face_decompose(units)
    slabs = _Slabs(units, delta)

    while True:
        codes, idx = _chart_codes(face, other, pitch)
        _, first = np.unique(codes, return_index=True)
        occupied = len(first)
        # parity class of each cell, the first index as the top bit
        sigma = (idx[first] % 2) @ (1 << np.arange(d - 2, -1, -1))
        best: list[int] = []
        for s in np.unique(sigma):
            candidates = first[sigma == s]
            if len(candidates) <= len(best):
                continue  # it keeps at most its candidates, and only more than best wins
            flags = np.zeros(len(keys), dtype=bool)
            kept = _greedy(slabs, [], candidates.tolist(), flags)
            if len(kept) > len(best):
                best, best_flags = kept, flags

        if len(best) >= math.ceil(occupied / n_classes):
            rest = np.ones(len(keys), dtype=bool)
            rest[best] = False
            return SeparatedSubset(
                keys=keys.keys_at(_greedy(slabs, best, np.flatnonzero(rest).tolist(), best_flags)),
                delta=delta,
                pitch=pitch,
                occupied_cells=occupied,
                color_classes=n_classes,
            )
        pitch *= 2
