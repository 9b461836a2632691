"""Point sets and direction primitives, in exact rational or float64 arithmetic.

A point set is homogeneous: every coordinate is either an exact rational
(``fractions.Fraction``, with plain ints accepted) or a float.  Exact sets
support bit-exact canonical directions and file round trips; float sets get
quantized direction keys so that nearly parallel pairs collide predictably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegeneratePair,
    FormatError,
    MixedMode,
    PreconditionFailed,
    VerticalPair,
)

# Snap for unit-vector components used as float direction keys.
DIRECTION_RESOLUTION = 1e-9
# Snap used only to detect duplicate points in float mode.
DUPLICATE_RESOLUTION = 1e-12

EXACT_TYPES = (int, Fraction)

Scalar = int | float | Fraction
Point = tuple


def is_exact_scalar(value) -> bool:
    return isinstance(value, EXACT_TYPES) and not isinstance(value, bool)


def infer_mode(coords: Iterable) -> str:
    """Classify a flat iterable of scalars as 'exact' or 'float'.

    Raises MixedMode when Fractions and floats are combined.  Plain ints are
    neutral: they count as exact unless floats are present.
    """
    saw_float = False
    saw_fraction = False
    for value in coords:
        if isinstance(value, bool):
            raise MixedMode("bool is not a coordinate type")
        if isinstance(value, Fraction):
            saw_fraction = True
        elif isinstance(value, float | np.floating):
            saw_float = True
        elif isinstance(value, int | np.integer):
            pass
        else:
            raise MixedMode(f"unsupported coordinate type {type(value).__name__}")
    if saw_float and saw_fraction:
        raise MixedMode("cannot mix exact rationals and floats in one point set")
    return "float" if saw_float else "exact"


def _coerce_point(raw: Sequence, mode: str) -> tuple:
    if mode == "exact":
        return tuple(value if isinstance(value, Fraction) else Fraction(value) for value in raw)
    out = tuple(float(value) for value in raw)
    for value in out:
        if not math.isfinite(value):
            raise PreconditionFailed("coordinates must be finite")
    return out


def _float_dup_key(point: tuple) -> tuple:
    return tuple(round(c / DUPLICATE_RESOLUTION) for c in point)


# Bounds of the int64 form of exact sets (see PointSet.scaled_integer).
MAX_DENOMINATOR = 1 << 31
MAX_NUMERATOR = 1 << 40


@dataclass
class PointSet:
    """An ordered collection of distinct points in a common dimension.

    Exact sets built from an integer array (lattices, Cantor products, split
    pieces) are held as ``scaled_integer()`` and ``points`` is a lazy view of
    them.  Treat instances as immutable after construction; the cached
    arrays are shared between callers.
    """

    dimension: int
    mode: str
    _points: tuple | None = field(default=None, repr=False)
    _array: np.ndarray | None = field(default=None, repr=False, compare=False)
    _scaled: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_points(cls, raw_points: Iterable[Sequence], mode: str | None = None) -> "PointSet":
        rows = [tuple(r) for r in raw_points]
        if not rows:
            raise PreconditionFailed("a point set needs at least one point")
        dimension = len(rows[0])
        if dimension < 2:
            raise PreconditionFailed("ambient dimension must be at least 2")
        for r in rows:
            if len(r) != dimension:
                raise PreconditionFailed("all points must share one dimension")
        if mode is None:
            mode = infer_mode(c for r in rows for c in r)
        elif mode not in ("exact", "float"):
            raise PreconditionFailed(f"unknown mode {mode!r}")
        pts = tuple(_coerce_point(r, mode) for r in rows)
        seen = set()
        for p in pts:
            key = p if mode == "exact" else _float_dup_key(p)
            if key in seen:
                where = "" if mode == "exact" else f" at resolution {DUPLICATE_RESOLUTION}"
                raise PreconditionFailed(f"duplicate point {p}{where}")
            seen.add(key)
        return cls(dimension=dimension, mode=mode, _points=pts)

    @classmethod
    def _from_scaled(cls, rows: np.ndarray, denom) -> "PointSet":
        """The point set rows / denom, inverse of ``_scaled_rows``.  int64 rows
        are checked like from_points input and against the int64 bounds, and
        the denominator is reduced to the lcm of the coordinate denominators;
        Python-int rows (the slow path) and float rows go through from_points."""
        if rows.ndim != 2 or len(rows) == 0 or rows.shape[1] < 2:
            raise PreconditionFailed("need a nonempty array of points in dimension at least 2")
        if rows.dtype.kind == "f":
            return cls.from_points((rows / denom).tolist(), mode="float")
        if rows.dtype == object:
            return cls.from_points([[Fraction(v, denom) for v in r] for r in rows.tolist()], mode="exact")
        if rows.dtype.kind not in "iu" or not 1 <= denom <= MAX_DENOMINATOR or (
                rows.min() < -MAX_NUMERATOR or rows.max() > MAX_NUMERATOR):
            raise PreconditionFailed("need integer rows within the int64 bounds of scaled_integer()")
        g = math.gcd(int(denom), int(np.gcd.reduce(rows, axis=None)))
        rows, denom = rows.astype(np.int64, order="C") // g, int(denom) // g
        if len(_unique_rows([rows], int(np.abs(rows).max()), rows.shape[1])) < len(rows):
            raise PreconditionFailed("duplicate point")
        return cls(dimension=rows.shape[1], mode="exact", _scaled=(rows, denom))

    @property
    def points(self) -> tuple:
        """Coordinate tuples; array-held sets build them on first use, with one
        shared Fraction per distinct value of a column."""
        if self._points is None:
            arr, denom = self._scaled
            cols = []
            for col in arr.T:
                values, inverse = np.unique(col, return_inverse=True)
                shared = np.array([Fraction(v, denom) for v in values.tolist()], dtype=object)
                cols.append(shared[inverse].tolist())
            self._points = tuple(zip(*cols))
        return self._points

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and (self.dimension, self.mode, self.points) == (
            other.dimension, other.mode, other.points)

    def __len__(self) -> int:
        return len(self._scaled[0]) if self._points is None else len(self._points)

    def __iter__(self):
        return iter(self.points)

    def as_array(self) -> np.ndarray:
        """Float64 view of the coordinates, cached after the first call.  For
        array-held sets it is array / denominator: both are below 2^53, so
        each entry equals float() of its Fraction bit for bit."""
        if self._array is None:
            self._array = (self._scaled[0] / self._scaled[1] if self._points is None else
                           np.array([[float(c) for c in p] for p in self.points], dtype=np.float64))
        return self._array

    def scaled_integer(self) -> tuple[np.ndarray, int] | None:
        """Integer coordinates over a common denominator, when small enough.

        Returns (int64 array, denominator) with array = denominator * points
        and denominator the lcm of the coordinate denominators, or None when
        the set is float mode, the denominator exceeds MAX_DENOMINATOR or an
        entry exceeds MAX_NUMERATOR in magnitude.
        """
        if self.mode != "exact":
            return None
        if self._scaled is None:
            self._scaled = (None, 0)
            denom = 1
            for den in {c.denominator for p in self.points for c in p}:
                denom = math.lcm(denom, den)
                if denom > MAX_DENOMINATOR:
                    return None
            arr = np.array([[c.numerator * (denom // c.denominator) for c in p] for p in self.points])
            if arr.min() >= -MAX_NUMERATOR and arr.max() <= MAX_NUMERATOR:
                self._scaled = (arr.astype(np.int64), denom)
        return None if self._scaled[0] is None else self._scaled

    def _scaled_rows(self) -> tuple[np.ndarray, int | float]:
        """(rows, denominator) with rows / denominator the coordinates:
        scaled_integer(), (as_array(), 1.0) for float sets, or for exact sets
        past the int64 bounds the slow path, Python ints over the exact lcm."""
        if self.mode == "float":
            return self.as_array(), 1.0
        if self.scaled_integer() is not None:
            return self._scaled
        denom = math.lcm(*{c.denominator for p in self.points for c in p})
        ints = [[c.numerator * (denom // c.denominator) for c in p] for p in self.points]
        return np.array(ints, dtype=object), denom


# Target row count for one block of pair differences.
_PAIR_BLOCK = 300_000


def _is_product_support(arr: np.ndarray) -> bool:
    count = 1
    for k in range(arr.shape[1]):
        count *= len(np.unique(arr[:, k]))
        if count > len(arr):
            return False
    return count == len(arr)


def _cross_diff_histogram(v1: np.ndarray, v2: np.ndarray):
    """Sorted distinct differences a - b over distinct values a in v1, b in v2,
    with their pair counts; memory scales with the distinct values, never
    with the full pair count."""
    return np.unique(np.subtract.outer(v1, v2), return_counts=True)


def _pair_loop(arr: np.ndarray, weights: np.ndarray | None):
    """Blocks of (x_j - x_i, multiplicity) over all index pairs i < j, in (i, j) order."""
    n = len(arr)
    rows = max(1, _PAIR_BLOCK // max(1, n))
    cols = np.arange(n)
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        mask = cols[None, :] > np.arange(i0, i1)[:, None]
        diffs = (arr[None, :, :] - arr[i0:i1, None, :])[mask]
        if weights is None:
            yield diffs, np.ones(len(diffs), dtype=np.int64)
        else:
            yield diffs, (weights[i0:i1, None] * weights[None, :])[mask]


def _product_differences(hists: list):
    """Distinct differences with first nonzero entry positive, of a product set."""
    d = len(hists)
    for k in range(d):
        # zero on the axes before k, positive on axis k, anything after
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


def _pair_differences(arr: np.ndarray, weights: np.ndarray | None = None):
    """Blocks of (difference rows, multiplicity) with one row per unordered pair.

    A pair {x, y} gives x - y or y - x, with multiplicity 1 (int64) or
    weights[x] * weights[y].  An unweighted product support with fewer
    distinct differences than pairs gives each distinct difference once
    instead, first nonzero entry positive, with its pair count.  Entries are
    a - b of the same axis values either way, so the rows are bit-identical.
    """
    n, d = arr.shape
    if weights is None and _is_product_support(arr):
        hists = [_cross_diff_histogram(a, a) for a in (np.unique(arr[:, k]) for k in range(d))]
        if math.prod(len(v) for v, _ in hists) // 2 < n * (n - 1) // 2:
            return _product_differences(hists)
    return _pair_loop(arr, weights)


def _group_sums(keys: np.ndarray, mult: np.ndarray) -> dict:
    """{key: summed multiplicity} over one block, exact in the dtype of mult."""
    values, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(values), dtype=mult.dtype)
    np.add.at(sums, inverse, mult)
    return dict(zip(values.tolist(), sums.tolist()))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array by sort and adjacent compare; on mostly
    distinct int64 values plain np.unique can take a much slower hash path."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _unique_rows(chunk_rows, bound: int, d: int) -> np.ndarray:
    """Distinct rows over a stream of int64 row chunks with |entry| <= bound.

    Rows pack into single int64 codes whenever (2*bound+1)^d fits, which
    turns the row dedup into scalar unique calls; otherwise the slower
    axis unique runs."""
    base = 2 * bound + 1
    if base**d <= 1 << 62:
        codes = []
        for rows in chunk_rows:
            code = rows[:, 0] + bound
            for j in range(1, d):
                code = code * base + (rows[:, j] + bound)
            codes.append(_sorted_unique(code))
        merged = _sorted_unique(np.concatenate(codes))
        out = np.empty((len(merged), d), dtype=np.int64)
        rem = merged
        for j in range(d - 1, -1, -1):
            rem, r = np.divmod(rem, base)
            out[:, j] = r - bound
        return out
    chunks = [np.unique(rows, axis=0) for rows in chunk_rows]
    return np.unique(np.vstack(chunks), axis=0)


@dataclass(frozen=True, slots=True)
class DirectionKey:
    """Canonical key for the direction spanned by an ordered point pair.

    Exact keys store a primitive integer vector; float keys store unit-vector
    components snapped to DIRECTION_RESOLUTION.  Keys from different modes
    never compare equal.
    """

    rep: tuple
    antipodal_identified: bool
    exact: bool

    def unit_vector(self) -> tuple:
        norm = math.sqrt(sum(float(c) * float(c) for c in self.rep))
        return tuple(float(c) / norm for c in self.rep)


@dataclass(frozen=True, slots=True)
class SlopeVector:
    """The d-1 slope coordinates of a pair with distinct final coordinates."""

    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _check_pair(x: Sequence, y: Sequence) -> str:
    if len(x) != len(y):
        raise PreconditionFailed("points must share a dimension")
    if len(x) < 2:
        raise PreconditionFailed("ambient dimension must be at least 2")
    return infer_mode(list(x) + list(y))


def canonical_direction(x: Sequence, y: Sequence, antipodal: bool = True) -> DirectionKey:
    """Canonical direction key of the segment from y to x.

    With ``antipodal`` the key identifies u with -u (the sign is fixed so the
    first nonzero entry is positive); without it the sign of x - y survives.
    """
    mode = _check_pair(x, y)
    if mode == "exact":
        diff = [Fraction(a) - Fraction(b) for a, b in zip(x, y)]
        if all(v == 0 for v in diff):
            raise DegeneratePair("x == y has no direction")
        denom = math.lcm(*(v.denominator for v in diff))
        ints = [int(v * denom) for v in diff]
        g = math.gcd(*ints)
        prim = [v // g for v in ints]
        if antipodal:
            for v in prim:
                if v != 0:
                    if v < 0:
                        prim = [-w for w in prim]
                    break
        return DirectionKey(rep=tuple(prim), antipodal_identified=antipodal, exact=True)

    diff = [float(a) - float(b) for a, b in zip(x, y)]
    norm = math.sqrt(sum(v * v for v in diff))
    if norm == 0.0:
        raise DegeneratePair("x == y has no direction")
    unit = [v / norm for v in diff]
    quantized = [round(v / DIRECTION_RESOLUTION) for v in unit]
    if antipodal:
        for q in quantized:
            if q != 0:
                if q < 0:
                    quantized = [-w for w in quantized]
                break
    rep = tuple(q * DIRECTION_RESOLUTION for q in quantized)
    return DirectionKey(rep=rep, antipodal_identified=antipodal, exact=False)


def slope_of_pair(x: Sequence, y: Sequence) -> SlopeVector:
    """Slopes ((x_i - y_i) / (x_d - y_d)) for i < d; symmetric under swap."""
    mode = _check_pair(x, y)
    d = len(x)
    if mode == "exact":
        dx = [Fraction(a) - Fraction(b) for a, b in zip(x, y)]
    else:
        dx = [float(a) - float(b) for a, b in zip(x, y)]
    if dx[d - 1] == 0:
        raise VerticalPair("equal final coordinates have no slope vector")
    return SlopeVector(entries=tuple(v / dx[d - 1] for v in dx[: d - 1]))


def collinearity_rank(ps: PointSet) -> int:
    """Dimension of the affine hull of the point set.

    Exact sets use rational elimination, so the answer is exact; float sets
    use an SVD with relative tolerance 1e-9.
    """
    n = len(ps)
    if n <= 1:
        return 0
    if ps.mode == "exact":
        base = ps.points[0]
        basis: list[list[Fraction]] = []
        pivots: list[int] = []
        for p in ps.points[1:]:
            v = [a - b for a, b in zip(p, base)]
            for row, piv in zip(basis, pivots):
                if v[piv] != 0:
                    factor = v[piv] / row[piv]
                    v = [a - factor * b for a, b in zip(v, row)]
            piv = next((i for i, a in enumerate(v) if a != 0), None)
            if piv is not None:
                basis.append(v)
                pivots.append(piv)
                if len(basis) == ps.dimension:
                    break
        return len(basis)
    arr = ps.as_array()
    diffs = arr[1:] - arr[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-9 * sv[0]))


# --- point set files -------------------------------------------------------
#
# Line 1: "d n mode"; then n lines of d whitespace separated coordinates.
# Exact mode writes num/den tokens and round trips bit exactly.


def write_point_set(ps: PointSet, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{ps.dimension} {len(ps)} {ps.mode}\n")
        for p in ps.points:
            if ps.mode == "exact":
                fh.write(" ".join(f"{c.numerator}/{c.denominator}" for c in p))
            else:
                fh.write(" ".join(repr(c) for c in p))
            fh.write("\n")


def read_point_set(path) -> PointSet:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise FormatError("header must be 'd n mode'")
        try:
            dimension, count = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"bad header counts: {header[:2]}") from exc
        mode = header[2]
        if mode not in ("exact", "float"):
            raise FormatError(f"unknown mode {mode!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            tokens = line.split()
            if len(tokens) != dimension:
                raise FormatError(f"line {lineno}: expected {dimension} coordinates")
            try:
                if mode == "exact":
                    rows.append(tuple(Fraction(t) for t in tokens))
                else:
                    rows.append(tuple(float(t) for t in tokens))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad token") from exc
        if len(rows) != count:
            raise FormatError(f"expected {count} points, found {len(rows)}")
    return PointSet.from_points(rows, mode=mode)
