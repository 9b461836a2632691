"""Point sets and direction primitives, in exact rational or float64 arithmetic.

A point set is homogeneous: every coordinate is either an exact rational
(``fractions.Fraction``, with plain ints accepted) or a float.  Exact sets
support bit-exact canonical directions and file round trips; float sets get
quantized direction keys so that nearly parallel pairs collide predictably.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
from contextlib import nullcontext
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

def infer_mode(coords: Iterable) -> str:
    """Classify a flat iterable of scalars as 'exact' or 'float'.

    Raises MixedMode when Fractions and floats are combined.  Plain ints are
    neutral: they count as exact unless floats are present.
    """
    saw_float = False
    saw_fraction = False
    for value in coords:
        if isinstance(value, bool | np.bool_):
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


def _as_fraction(value) -> Fraction:
    """An exact coordinate as a Fraction: Fractions (subclasses too) as
    given, numpy integers through int(), since Fraction() keeps one as its
    numerator and products with it wrap in int64."""
    if isinstance(value, Fraction):
        return value
    return Fraction(int(value) if isinstance(value, np.integer) else value)


# Bounds of the int64 form of exact sets (see PointSet.scaled_integer).
MAX_DENOMINATOR = 1 << 31
MAX_NUMERATOR = 1 << 40


# Float coordinates stay below this in magnitude, so squared differences and
# their sums stay finite.
FLOAT_LIMIT = 1 << 500


def _fits(denom, lo, hi) -> bool:
    """Whether integer rows with entries in [lo, hi] over denom take the int64 form."""
    return denom <= MAX_DENOMINATOR and -MAX_NUMERATOR <= lo and hi <= MAX_NUMERATOR


def _over_lcm(nums: Sequence, dens: Sequence) -> tuple[np.ndarray, int]:
    """Rationals nums[i] / dens[i], each in lowest terms, as integers over
    the lcm of their denominators: int64 within the bounds of
    PointSet.scaled_integer(), Python ints (object) past them."""
    denom = math.lcm(*set(dens))
    ints = list(map(operator.mul, nums, map(operator.floordiv, itertools.repeat(denom), dens)))
    fits = _fits(denom, min(ints, default=0), max(ints, default=0))
    return np.array(ints, dtype=np.int64 if fits else object), denom


def _float_rows(rows: np.ndarray, denom=1) -> np.ndarray:
    """rows / denom as float64, refused unless every entry is finite and
    below FLOAT_LIMIT in magnitude; checked before any arithmetic that
    could overflow."""
    if not np.abs(rows).max() < FLOAT_LIMIT * denom:
        raise PreconditionFailed("float64 coordinates must be finite and below 2^500 in magnitude")
    return np.asarray(rows / denom, dtype=np.float64)


@dataclass
class PointSet:
    """An ordered collection of distinct points in a common dimension.

    Every set holds one form, ``(rows, denominator)`` with coordinates
    rows / denominator.  Exact sets keep integer rows over the lcm of the
    coordinate denominators: int64 within MAX_DENOMINATOR and MAX_NUMERATOR,
    Python ints in an object array past them.  Float sets keep float64 rows
    over 1.0.  ``points`` and ``as_array()`` are views built on first use.
    Every set is made by ``_from_scaled``, or by ``_take`` or ``_relabel``
    from one that was; treat instances as immutable, since the cached arrays
    are shared between callers.
    """

    dimension: int
    mode: str
    _scaled: tuple = field(repr=False)
    _points: tuple | None = field(default=None, repr=False)
    _array: np.ndarray | None = field(default=None, repr=False)
    _plan: "_DifferencePlan | None" = field(default=None, repr=False)
    # weak reference to the read-only rows of the latest identified census
    # (directions.distinct_directions), which a signed census reuses
    _census_rows: "weakref.ref | None" = field(default=None, repr=False)

    @classmethod
    def from_points(cls, raw_points: Iterable[Sequence], mode: str | None = None) -> "PointSet":
        """The set of the given coordinate tuples, checked by ``_from_scaled``.
        Exact input keeps its tuples as the ``points`` view: as given when
        every coordinate is exactly a Fraction, else through _as_fraction.
        Bools and strings are refused in every mode."""
        rows = [tuple(r) for r in raw_points]
        if not rows:
            raise PreconditionFailed("a point set needs at least one point")
        dimension = len(rows[0])
        if dimension < 2:
            raise PreconditionFailed("ambient dimension must be at least 2")
        for r in rows:
            if len(r) != dimension:
                raise PreconditionFailed("all points must share one dimension")
        if mode not in (None, "exact", "float"):
            raise PreconditionFailed(f"unknown mode {mode!r}")
        types = set(map(type, itertools.chain.from_iterable(rows)))
        if types & {bool, np.bool_}:
            raise MixedMode("bool is not a coordinate type")
        if any(issubclass(t, str) for t in types):
            raise MixedMode("unsupported coordinate type str")
        if mode is None:
            mode = infer_mode(c for r in rows for c in r)
        try:
            pts = (np.array(rows, dtype=np.float64) if mode == "float" else tuple(rows) if types == {Fraction} else
                   tuple(tuple(map(_as_fraction, r)) for r in rows))
        except (TypeError, ValueError, OverflowError) as exc:  # None and other objects; NaN and inf as exact
            raise PreconditionFailed(f"coordinates must be finite numbers: {exc}") from exc
        if mode == "float":
            return cls._from_scaled(pts, 1.0)
        nums, dens = zip(*map(Fraction.as_integer_ratio, itertools.chain.from_iterable(pts)))
        flat, denom = _over_lcm(nums, dens)
        ps = cls._from_scaled(flat.reshape(len(pts), dimension), denom)
        ps._points = pts
        return ps

    @classmethod
    def _from_scaled(cls, rows: np.ndarray, denom) -> "PointSet":
        """The point set rows / denom; the one place points are checked.

        Float rows must be finite, below FLOAT_LIMIT in magnitude and distinct
        at DUPLICATE_RESOLUTION; they are stored divided by denom, over 1.0.
        Integer rows must be distinct: int64 rows within the bounds of
        scaled_integer(), Python-int (object) rows also past them.  One
        min/max decides the int64 check, and both are reduced by their common
        gcd with denom by _lowest_terms, so the denominator is the lcm of the
        coordinate denominators, and stored as int64 whenever the reduced rows
        fit.  Distinct rows are counted on the words _pack makes of them.
        """
        if rows.ndim != 2 or len(rows) == 0 or rows.shape[1] < 2:
            raise PreconditionFailed("need a nonempty array of points in dimension at least 2")
        mode = "float" if rows.dtype.kind == "f" else "exact"
        if mode == "float":
            rows, denom = _float_rows(rows, denom), 1.0
            keys = np.round(rows / DUPLICATE_RESOLUTION)
            distinct = len(_distinct_words(list(keys.T))[0])
        else:
            if rows.dtype.kind not in "iuO" or denom < 1:
                raise PreconditionFailed("need integer rows within the int64 bounds of scaled_integer()")
            lo, hi = rows.min(), rows.max()
            if rows.dtype != object and not _fits(denom, lo, hi):
                raise PreconditionFailed("need integer rows within the int64 bounds of scaled_integer()")
            rows, reduced = _lowest_terms(rows, denom, lo, hi)
            # the gcd divides every entry exactly, so it divides the largest |entry| too
            bound, denom = max(-int(lo), int(hi)) // (int(denom) // reduced), reduced
            keys = rows
            distinct = len(_distinct_words(_pack(rows, bound)[1])[0])
        ps = cls(dimension=rows.shape[1], mode=mode, _scaled=(rows, denom))
        if distinct < len(rows):
            seen = {}
            i = next(i for i, key in enumerate(map(tuple, keys.tolist())) if seen.setdefault(key, i) != i)
            where = f" at resolution {DUPLICATE_RESOLUTION}" if mode == "float" else ""
            raise PreconditionFailed(f"duplicate point {ps.points[i]}{where}")
        return ps

    def _take(self, index) -> "PointSet":
        """The set of the stored rows at index (distinct positions), already
        checked: exact rows only go back to lowest terms by _lowest_terms,
        so the result equals _from_scaled on them."""
        rows, denom = self._scaled
        rows = rows[index]
        scaled = (rows, denom) if self.mode == "float" else _lowest_terms(rows, denom, rows.min(), rows.max())
        return PointSet(dimension=self.dimension, mode=self.mode, _scaled=scaled)

    def _relabel(self, perm: list, flips: list) -> "PointSet":
        """The set with its columns in the order perm and the flipped ones
        reflected, x -> 1 - x (rows D - v).  Float rows are checked again by
        _from_scaled, since 1.0 - x rounds; exact rows stay distinct and, as
        gcd(D, v) = gcd(D, D - v), in lowest terms, so only their int64 form
        is decided again."""
        rows, denom = self._scaled
        rows = rows[:, perm]
        rows[:, flips] = denom - rows[:, flips]
        if self.mode == "float":
            return PointSet._from_scaled(rows, denom)
        rows = rows.astype(np.int64 if _fits(denom, rows.min(), rows.max()) else object, copy=False)
        return PointSet(dimension=self.dimension, mode=self.mode, _scaled=(rows, denom))

    @property
    def points(self) -> tuple:
        """Coordinate tuples, built on first use: floats for float sets, and
        for exact sets one shared Fraction per distinct value of a column."""
        if self._points is None:
            rows, denom = self._scaled
            if self.mode == "float":
                self._points = tuple(map(tuple, rows.tolist()))
            else:
                cols = []
                for col in rows.T:
                    values, inverse = np.unique(col, return_inverse=True)
                    shared = np.array([Fraction(v, denom) for v in values.tolist()], dtype=object)
                    cols.append(shared[inverse].tolist())
                self._points = tuple(zip(*cols))
        return self._points

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointSet) and self.mode == other.mode and self._scaled[1] == other._scaled[1]
                and np.array_equal(self._scaled[0], other._scaled[0]))

    def __len__(self) -> int:
        return len(self._scaled[0])

    def __iter__(self):
        return iter(self.points)

    def as_array(self) -> np.ndarray:
        """Float64 view rows / denominator by _float_rows, cached.  Each entry
        equals float() of its Fraction bit for bit: int64 entries and
        denominators are below 2^53, and Python-int division is correctly rounded."""
        if self._array is None:
            self._array = _float_rows(*self._scaled)
        return self._array

    def scaled_integer(self) -> tuple[np.ndarray, int] | None:
        """The stored ``(rows, denominator)`` when the rows are int64: rows =
        denominator * points, with the denominator the lcm of the coordinate
        denominators.  None for float sets and for exact sets past the bounds
        (denominator above MAX_DENOMINATOR or an entry above MAX_NUMERATOR in
        magnitude).
        """
        return self._scaled if self._scaled[0].dtype == np.int64 else None

    def _difference_plan(self) -> "_DifferencePlan":
        """This set's _DifferencePlan, made from the stored rows on first use
        and cached like ``points``."""
        if self._plan is None:
            rows, n = self._scaled[0], len(self)
            pairs, axes, span = n * (n - 1) // 2, _product_axes(rows), None
            # an axis of m values has at most m(m - 1) + 1 differences: below
            # the pairs whenever two axes hold several values; else count them
            distinct = math.prod(len(a) * (len(a) - 1) + 1 for a in axes) // 2 if axes else pairs
            if axes and distinct >= pairs:
                distinct = math.prod(len(_cross_diff_histogram(a, a)[0]) for a in axes) // 2
            if rows.dtype == np.int64:
                span = np.ptp(rows, axis=0).tolist()
                cells = math.prod(2 * s + 1 for s in span)
                span = span if cells <= _GRID_CELL_LIMIT and pairs > _GRID_PAIRS_PER_CELL * cells else None
            path, count = ("product", None) if distinct < pairs else ("grid", None) if span else ("pairs", pairs)
            self._plan = _DifferencePlan(path, count, axes, span)
        return self._plan


def _lowest_terms(rows: np.ndarray, denom, lo, hi) -> tuple[np.ndarray, int]:
    """Integer rows / denom, entries in [lo, hi], with their common gcd
    divided out, so denom is the lcm of the coordinate denominators; int64
    within the bounds of PointSet.scaled_integer(), Python ints (object)
    past them.

    The gcd starts from denom and the first row, then takes in the next
    rows, twice as many each time, only while it stays above 1; the rows
    are divided only by a gcd above 1, and lo and hi with them (exactly, as
    it divides every entry).  Rows not divided are returned as given when
    their dtype stays."""
    g, start, stop = int(denom), 0, 1
    while g > 1 and start < len(rows):
        g = math.gcd(g, int(np.gcd.reduce(rows[start:stop], axis=None)))
        start, stop = stop, 2 * stop
    if g > 1:
        rows, lo, hi = rows // g, lo // g, hi // g
    denom = int(denom) // g
    return rows.astype(np.int64 if _fits(denom, lo, hi) else object, copy=False), denom


# Target pair count for one block of pair differences.
_PAIR_BLOCK = 75_000
# The grid gate (PointSet._difference_plan): a box of differences of at most
# _GRID_CELL_LIMIT cells (8 MB a float64 array) and over _GRID_PAIRS_PER_CELL
# pairs a cell, where census and coverage broke even (README, "The cut-over").
_GRID_CELL_LIMIT = 1 << 20
_GRID_PAIRS_PER_CELL = 2


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Blocks submitted to the pool and not yet yielded, at most; so the blocks in
# flight never hold more than _IN_FLIGHT * _PAIR_BLOCK = 300,000 pairs.
_IN_FLIGHT = 4
# Threads that fill pair blocks: one per CPU, at most _IN_FLIGHT.
_WORKERS = min(_cpu_count(), _IN_FLIGHT)


class _Blocks:
    """A fixed partition of pair work: block t is fill(specs[t]), and the
    blocks hold ``pairs`` pairs in all.

    Iterating yields the blocks in order.  Past _PAIR_BLOCK pairs, with more
    than one worker, the caller and a pool of _WORKERS - 1 helper threads
    fill them (_ordered_map); otherwise the caller fills them one by one and
    no thread starts.  The partition never depends on the worker count, so
    neither do the blocks.
    """

    def __init__(self, fill, specs, pairs: int):
        self.fill, self.specs, self.pairs = fill, specs, pairs

    def __iter__(self):
        workers = min(_WORKERS, len(self.specs))
        if workers > 1 and self.pairs > _PAIR_BLOCK:
            return _ordered_map(self.fill, self.specs, workers)
        return map(self.fill, self.specs)


def _block_map(fn, blocks):
    """fn over each block, in block order: for _Blocks, the same partition
    with fn run by the worker that fills each block; inline for any other
    iterable of blocks."""
    if not isinstance(blocks, _Blocks):
        return map(fn, blocks)
    fill = blocks.fill
    return _Blocks(lambda spec: fn(fill(spec)), blocks.specs, blocks.pairs)


def _ordered_map(fill, specs, workers: int):
    """fill(spec) for each spec, yielded in order, on the caller and a pool of
    workers - 1 helper threads.

    At most _IN_FLIGHT blocks are submitted to the pool and not yet yielded.
    While the next block is not done, the caller cancels the first submitted
    block no helper has started and fills it itself; when none is left, it
    waits.  An exception from fill reaches the caller, unchanged, when its
    block's turn comes; the helpers finish the blocks they hold and stop
    before it propagates, as they do when the map is abandoned.
    """
    # imported here: only maps past one block start a thread
    from concurrent.futures import Future, ThreadPoolExecutor

    def fill_here(spec):
        done = Future()
        try:
            done.set_result(fill(spec))
        except BaseException as exc:  # re-raised in block order, like a helper's
            done.set_exception(exc)
        return done

    pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="dirlab-pairs")
    pending = []  # futures of blocks pos, pos + 1, ...
    try:
        for pos in range(len(specs)):
            for spec in specs[pos + len(pending):pos + _IN_FLIGHT]:
                pending.append(pool.submit(fill, spec))
            while not pending[0].done():
                i = next((i for i, future in enumerate(pending) if future.cancel()), None)
                if i is None:
                    break
                pending[i] = fill_here(specs[pos + i])
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def _product_axes(arr: np.ndarray) -> list | None:
    """Each column's sorted distinct values when the rows, distinct as in every
    PointSet, are exactly their Cartesian product; None otherwise."""
    axes = [_sorted_unique(col) for col in arr.T]
    return axes if math.prod(map(len, axes)) == len(arr) else None


def _cross_diff_histogram(v1: np.ndarray, v2: np.ndarray):
    """Sorted distinct differences a - b over distinct values a in v1, b in v2,
    with their pair counts.  Runs of rows of v1, at most _PAIR_BLOCK
    differences each, are counted by np.unique and folded by _fold_in, so
    memory scales with the distinct differences plus one block, never with
    the full pair count."""
    rows, held = max(1, _PAIR_BLOCK // len(v2)), []
    for i0 in range(0, len(v1), rows):
        _fold_in(held, np.unique(np.subtract.outer(v1[i0:i0 + rows], v2), return_counts=True))
    return _fold(held)


def _pair_loop(arr: np.ndarray, weights: np.ndarray | None, other: np.ndarray | None = None,
               other_weights: np.ndarray | None = None, block: int | None = None) -> _Blocks:
    """Blocks of about block (default _PAIR_BLOCK) pairs (y_j - x_i,
    multiplicity), x_i a row of arr, in (i, j) order: the cross form takes
    every row y_j of other, the plain form the rows x_j of arr with i < j.
    Multiplicity is a read-only broadcast of int64 1 without weights, else
    weights[i] * other_weights[j] (weights[j] in the plain form).

    Each block of rows i0 <= i < i1 subtracts only against the rows j it can
    pair with (j > i0 in the plain form) and masks the triangle inside that
    block.  Its differences fill a (d, m) buffer one coordinate at a time,
    and the block is that buffer's transpose: (m, d) with contiguous columns.
    Every block is a fresh buffer, which the caller may overwrite.
    """
    cross = other is not None
    if not cross:
        other, other_weights = arr, weights
    n, d = other.shape
    rows = max(1, (block or _PAIR_BLOCK) // max(1, n))
    stop = len(arr) if cross else n - 1

    def fill(i0):
        i1 = min(i0 + rows, stop)
        j0 = 0 if cross else i0 + 1
        pick = ... if cross else np.arange(j0, n)[None, :] > np.arange(i0, i1)[:, None]
        m = (i1 - i0) * (n - j0) if cross else int(np.count_nonzero(pick))
        buf = np.empty((d, m), dtype=other.dtype)
        for k in range(d):
            diff = other[None, j0:, k] - arr[i0:i1, None, k]
            buf[k] = diff[pick].ravel()
            del diff  # one coordinate's block is live at a time
        if weights is None:
            return buf.T, np.broadcast_to(np.int64(1), (m,))
        return buf.T, (weights[i0:i1, None] * other_weights[None, j0:])[pick].ravel()

    return _Blocks(fill, range(0, stop, rows), len(arr) * n if cross else n * (n - 1) // 2)


def _product_differences(hists: list) -> _Blocks:
    """Distinct differences with first nonzero entry positive, of a product
    set, in blocks with contiguous columns like _pair_loop's."""
    d = len(hists)
    axis_factors, specs = [], []
    for k in range(d):
        # zero on the axes before k, positive on axis k, anything after
        v, c = hists[k]
        factors = [(w[w == 0], m[w == 0]) for w, m in hists[:k]]
        factors += [(v[v > 0], c[v > 0])] + hists[k + 1 :]
        axis_factors.append(factors)
        total = math.prod(len(v) for v, _ in factors)
        specs += [(k, t0, min(t0 + _PAIR_BLOCK, total)) for t0 in range(0, total, _PAIR_BLOCK)]

    def fill(spec):
        k, t0, t1 = spec
        rem = np.arange(t0, t1)
        buf = np.empty((d, len(rem)), dtype=hists[0][0].dtype)
        mult = np.ones(len(rem), dtype=np.int64)
        for j in range(d - 1, -1, -1):
            v, c = axis_factors[k][j]
            rem, idx = np.divmod(rem, len(v))
            buf[j] = v[idx]
            mult *= c[idx]
        return buf.T, mult

    return _Blocks(fill, specs, sum(t1 - t0 for _, t0, t1 in specs))


def _fast_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length numpy's FFT transforms fast."""
    # each odd part p below 2n (a power of two lies in [n, 2n)), times the
    # least power of two that takes it to n
    odd = [3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length())]
    return min(p << ((n - 1) // p).bit_length() for p in odd if p < 2 * n)


def _grid_differences(rows: np.ndarray, span: list, denom=None) -> _Blocks | None:
    """Distinct differences with first nonzero entry positive, of distinct
    int64 rows whose axis k spans span[k], with their pair counts: the
    autocorrelation of the rows' 0/1 indicator, by one rfftn and irfftn on
    a fast length of at least 2 * span[k] + 1 per axis (so no difference
    wraps), rounded.  Differences are int64, or float64 over denom when one
    is given.

    Float64 errs by about n log2(cells) 2^-53 here, far below 1/2, yet the
    rounding is checked: every entry within 1/4 of its integer and none
    negative, n at the zero difference, n(n-1)/2 over the positive ones.
    None if any check fails.  The counts are shared read-only slices.
    """
    n, d = rows.shape
    lengths = [_fast_length(2 * s + 1) for s in span]
    box = np.zeros([s + 1 for s in span])
    box[tuple((rows - rows.min(axis=0)).T)] = 1.0
    axes = list(range(d))
    spectrum = np.fft.rfftn(box, lengths, axes)
    spectrum *= spectrum.conj()
    corr = np.fft.irfftn(spectrum, lengths, axes)
    del box, spectrum
    # difference delta sits at index delta mod length: centre each axis on 0,
    # so the flat order is the lexicographic order of the differences
    corr = corr[np.ix_(*[np.r_[m - s:m, :s + 1] for s, m in zip(span, lengths)])].ravel()
    counts = np.rint(corr)
    centre = len(counts) // 2
    if not (np.abs(corr - counts).max() <= 0.25 and counts.min() >= 0 and counts[centre] == n
            and counts[centre + 1:].sum() == n * (n - 1) // 2):
        return None
    del corr
    flat = np.flatnonzero(counts[centre + 1:]) + (centre + 1)
    mult = counts[flat].astype(np.int64)
    mult.flags.writeable = False
    shape, block = [2 * s + 1 for s in span], _PAIR_BLOCK

    def fill(t0):
        coords = np.unravel_index(flat[t0:t0 + block], shape)
        buf = np.empty((d, len(coords[0])), dtype=np.int64 if denom is None else np.float64)
        for k in range(d):
            np.subtract(coords[k], span[k], out=buf[k])
        if denom is not None:
            buf /= denom  # exact: a power of two, and integers below 2^53
        return buf.T, mult[t0:t0 + block]

    return _Blocks(fill, range(0, len(flat), block), len(flat))


@dataclass
class _DifferencePlan:
    """The path _pair_differences takes for a set's unweighted pairs: the
    product path on a product support with fewer distinct differences than
    pairs, else the grid path when int64 rows pass the grid gate, else the
    pair loop.  count is the differences its blocks hold: the n(n-1)/2 pairs
    on the pair loop; the distinct ones on the other paths, once a walk of
    the row differences has counted them (None before).  axes (each column's
    sorted distinct values) are kept whenever the rows are their Cartesian
    product, and span (each axis's span) whenever they pass the gate,
    whatever the path."""

    path: str
    count: int | None
    axes: list | None
    span: list | None


def _float_axes(P: PointSet) -> list | None:
    """The plan's axes over the denominator in float64 by _float_rows, each
    value that of P.as_array() and refused where it refuses; None off a
    product support, and where two values of an axis meet in float64
    (possible only for rows past int64)."""
    axes = P._difference_plan().axes
    axes = axes and [_float_rows(a, P._scaled[1]) for a in axes]
    return axes if axes and all((a[1:] > a[:-1]).all() for a in axes) else None


def _pair_differences(P: PointSet, weights: np.ndarray | None = None, floats: bool = False, grid: bool = True):
    """Blocks of (difference rows, multiplicity), one row per unordered pair
    of P's stored rows, or of P.as_array() when the caller needs its floats.

    A pair {x, y} gives x - y or y - x, with multiplicity 1 (int64) or
    weights[x] * weights[y].  Unweighted, P's plan may give each distinct
    difference once, first nonzero entry positive, with its pair count (and
    ``pairs`` counts them): on the product path, floats from the histograms
    of _float_axes while those too are fewer than the pairs; on the grid
    path, unless the caller refuses it (grid), floats only over int64 rows
    and a power-of-two denominator, the only ones over which every float
    difference is the row difference over the denominator bit for bit.  A
    failed FFT turns the plan to the pair loop.  Rows are bit-identical on
    every path, and every block is an (m, d) view with contiguous columns.
    """
    rows, denom = P._scaled
    arr, n = P.as_array() if floats else rows, len(rows)
    over = denom if floats and P.mode == "exact" else None  # the D floats divide by
    same_bits = over is None or (rows.dtype == np.int64 and not over & (over - 1))
    plan, blocks = P._difference_plan() if weights is None else None, None
    path = plan and plan.path
    if path == "product":
        hists = [_cross_diff_histogram(a, a) for a in (_float_axes(P) if floats else plan.axes) or []]
        if hists and math.prod(len(v) for v, _ in hists) // 2 < n * (n - 1) // 2:
            blocks = _product_differences(hists)
    elif path == "grid" and grid and same_bits:
        blocks = _grid_differences(rows, plan.span, over)
        if blocks is None:
            plan.path, plan.count = "pairs", n * (n - 1) // 2
    if blocks is None:
        return _pair_loop(arr, weights)
    if same_bits:
        plan.count = blocks.pairs
    return blocks


def _grouped_sum(keys: np.ndarray, values: np.ndarray):
    """Sorted distinct keys and per key the sum of values, exact in their
    dtype, with the sort: the order that sorts keys and where each run of
    equal sorted keys starts, so inverse[order] = cumsum(start) - 1 maps
    each key to its group.  The first two are a part, as the fold of
    coverage and energy blocks holds them.  Float values go through a
    stable sort and np.add.at in sorted order, so each key's values are
    added in their order; integer values (int64 or Python ints) by
    np.add.reduceat over the runs."""
    floats = values.dtype.kind == "f"
    order = np.argsort(keys, kind="stable" if floats else None)
    keys = keys[order]
    start = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    distinct = keys[start]
    del keys  # the sorted copy goes before the values are gathered
    if floats:
        sums = np.zeros(len(distinct), dtype=values.dtype)
        np.add.at(sums, np.cumsum(start) - 1, values[order])
    else:
        sums = np.add.reduceat(values[order], np.flatnonzero(start))
    return distinct, sums, order, start


def _fold_in(held: list, part: tuple) -> None:
    """Add a part to the held ones, folding them all into one whenever the
    later parts hold more rows than the first: held rows stay within twice
    the distinct keys plus one part."""
    held.append(part)
    if sum(len(keys) for keys, _ in held[1:]) > len(held[0][0]):
        _fold(held)


def _fold(held: list) -> tuple:
    """Fold the held parts, in place, into the one part that sums them, and
    return it."""
    if len(held) > 1:
        keys, sums = (np.concatenate(column) for column in zip(*held))
        held.clear()  # the parts go before their grouped sum is made
        held.append(_grouped_sum(keys, sums)[:2])
    return held[0]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array by sort and adjacent compare; on mostly
    distinct int64 values plain np.unique can take a much slower hash path."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct_words(words: list) -> list:
    """The distinct tuples (words[0][i], words[1][i], ...) in lexicographic
    order, as word arrays again: one word by sort and adjacent compare;
    several by a sort on the first word, then one lexsort over just the
    tuples whose first word ties (they stand in runs, so it sorts each run).
    Each word is replaced inside the list, so an old array is freed as its
    successor is made; the arrays themselves are never written."""
    if len(words) == 1:
        words[0] = _sorted_unique(words[0])
        return words
    order = np.argsort(words[0])
    first = words[0][order]
    tie = np.zeros(len(order) + 1, dtype=bool)
    np.equal(first[1:], first[:-1], out=tie[1:-1])
    run = np.flatnonzero(tie[1:] | tie[:-1])
    del first, tie
    if len(run):
        rows = order[run]
        order[run] = rows[np.lexsort([w[rows] for w in words[::-1]])]
        del rows, run
    # word 0 is gathered again rather than taken from first: reusing first
    # left the product workload's peak RSS 2.4 MB higher (heap layout)
    for i in range(len(words)):
        words[i] = words[i][order]
    del order
    keep = np.ones(len(words[0]), dtype=bool)
    np.not_equal(words[0][1:], words[0][:-1], out=keep[1:])
    for w in words[1:]:
        keep[1:] |= w[1:] != w[:-1]
    for i in range(len(words)):
        words[i] = words[i][keep]
    return words


def _pack(rows: np.ndarray, bound: int) -> tuple[list, list]:
    """Integer rows with |entry| <= bound as words of consecutive entries,
    signed digits in base 2*bound+1, so words compare as the entries they
    hold: one word for Python-int (object) rows, whose words are Python
    ints, and for int64 rows as few words as keep each within int64.  The
    column spans [lo, hi) of the words, and the words."""
    base, d = 2 * bound + 1, rows.shape[1]
    width = d
    while rows.dtype != object and width > 1 and base**width > 1 << 62:
        width -= 1
    spans = [(lo, min(lo + width, d)) for lo in range(0, d, width)]
    words = []
    for lo, hi in spans:
        word = rows[:, lo]
        for j in range(lo + 1, hi):
            word = word * base + rows[:, j]
        words.append(word)
    del word  # words holds the only reference, so _distinct_words frees it
    return spans, words


def _unique_rows(chunk_rows, bound: int, d: int) -> np.ndarray:
    """Distinct rows, in lexicographic order, over a stream of integer row
    chunks with |entry| <= bound.

    Each chunk is packed by _pack and deduplicated on its words (by the
    worker that fills it, for _Blocks), then, over several chunks, their
    union is, in chunk order, and the words unpack to the rows, each word
    the scratch of its own unpacking."""
    base = 2 * bound + 1

    def pack(rows):
        spans, words = _pack(rows, bound)
        return spans, _distinct_words(words)

    parts = list(_block_map(pack, chunk_rows))
    spans, words = parts[-1]
    if len(parts) > 1:
        # a column at a time, each part's word dropped once it is copied
        words = []
        for k in range(len(spans)):
            words.append(np.concatenate([part[k] for _, part in parts]))
            for _, part in parts:
                part[k] = None
        words = _distinct_words(words)
    out = np.empty((len(words[0]), d), dtype=words[0].dtype)
    for lo, hi in spans:
        rem = words.pop(0)  # scratch from here on, freed after its span
        for j in range(hi - 1, lo, -1):
            rem += bound
            # // and % rather than np.divmod, which has no object loop
            np.remainder(rem, base, out=out[:, j])
            out[:, j] -= bound
            rem //= base
        out[:, lo] = rem
    return out


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
    exact = _check_pair(x, y) == "exact"
    if exact:
        diff = [Fraction(a) - Fraction(b) for a, b in zip(x, y)]
        if all(v == 0 for v in diff):
            raise DegeneratePair("x == y has no direction")
        denom = math.lcm(*(v.denominator for v in diff))
        ints = [int(v * denom) for v in diff]
        g = math.gcd(*ints)
        key = [v // g for v in ints]  # the primitive vector
    else:
        diff = [float(a) - float(b) for a, b in zip(x, y)]
        norm = math.sqrt(sum(v * v for v in diff))
        if norm == 0.0:
            raise DegeneratePair("x == y has no direction")
        key = [round(v / norm / DIRECTION_RESOLUTION) for v in diff]  # the quantized unit vector
    if antipodal and next((v for v in key if v != 0), 0) < 0:
        key = [-v for v in key]
    rep = tuple(key) if exact else tuple(v * DIRECTION_RESOLUTION for v in key)
    return DirectionKey(rep=rep, antipodal_identified=antipodal, exact=exact)


def slope_of_pair(x: Sequence, y: Sequence) -> tuple:
    """Slopes ((x_i - y_i) / (x_d - y_d)) for i < d; symmetric under swap."""
    mode = _check_pair(x, y)
    d = len(x)
    if mode == "exact":
        dx = [Fraction(a) - Fraction(b) for a, b in zip(x, y)]
    else:
        dx = [float(a) - float(b) for a, b in zip(x, y)]
    if dx[d - 1] == 0:
        raise VerticalPair("equal final coordinates have no slope vector")
    return tuple(v / dx[d - 1] for v in dx[: d - 1])


def collinearity_rank(ps: PointSet) -> int:
    """Dimension of the affine hull of the point set.

    Exact sets use fraction-free elimination on their integer rows, so the
    answer is exact; float sets use an SVD with relative tolerance 1e-9.
    """
    n = len(ps)
    if n <= 1:
        return 0
    if ps.mode == "exact":
        base, *rest = ps._scaled[0].tolist()
        basis: list[list[int]] = []
        pivots: list[int] = []
        for p in rest:
            v = [a - b for a, b in zip(p, base)]
            for row, piv in zip(basis, pivots):
                if v[piv] != 0:
                    v = [a * row[piv] - v[piv] * b for a, b in zip(v, row)]
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
# ASCII text.  Line 1: "d n mode"; then n lines of d whitespace separated
# coordinates; blank lines are skipped but counted in line numbers.  Exact
# mode writes num/den tokens and round trips bit exactly; it reads any token
# Fraction(str) reads.  Float mode reads any token float() reads.

# exact tokens "[+-]digits/digits" with a nonzero denominator, joined by spaces
_RATIONALS = re.compile(r"[+-]?[0-9]+/0*[1-9][0-9]*(?: [+-]?[0-9]+/0*[1-9][0-9]*)*")
# The reader takes lines about this many bytes at a time, so the token
# strings held at once stay few whatever the size of the file.
_READ_BYTES = 1 << 16


def write_point_set(ps: PointSet, target) -> None:
    """Write ps in the format above to a path or an open text stream."""
    with nullcontext(target) if hasattr(target, "write") else open(target, "w", encoding="ascii") as fh:
        fh.write(f"{ps.dimension} {len(ps)} {ps.mode}\n")
        for p in ps.points:
            if ps.mode == "exact":
                fh.write(" ".join(f"{c.numerator}/{c.denominator}" for c in p))
            else:
                fh.write(" ".join(repr(c) for c in p))
            fh.write("\n")


def read_point_set(path) -> PointSet:
    """The point set in the file at path, in the format above.

    One pass turns the lines, block by block, into the stored (rows,
    denominator) for _from_scaled: float tokens by one float64 conversion
    per block, exact tokens of the form [+-]digits(/digits) by int() and
    each reduced to lowest terms (any other token by Fraction), then over
    the lcm of their denominators.  Exact sets build their ``points`` view
    on first use.  Only when that pass fails does a line-by-line loop read
    the file again, to report the first bad line.
    """
    try:
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
            blocks, found = [], 0
            for lines in iter(lambda: fh.readlines(_READ_BYTES), []):
                rows = list(filter(None, map(str.split, lines)))  # the tokens of each non-blank line
                if set(map(len, rows)) - {dimension}:
                    raise ValueError("a line with the wrong number of coordinates")
                if rows:
                    blocks.append(_parse_tokens(list(itertools.chain.from_iterable(rows)), mode))
                    found += len(rows)
    except UnicodeDecodeError as exc:
        raise FormatError(f"a point file is ASCII text, not byte {exc.object[exc.start]:#04x}") from exc
    except (ValueError, ZeroDivisionError):
        _raise_first_bad_line(path, dimension, mode)
        raise
    if found != count:
        raise FormatError(f"expected {count} points, found {found}")
    if not found:
        raise PreconditionFailed("a point set needs at least one point")
    if dimension < 2:
        raise PreconditionFailed("ambient dimension must be at least 2")
    if mode == "float":
        return PointSet._from_scaled(np.concatenate(blocks).reshape(found, dimension), 1.0)
    nums, dens = (list(itertools.chain.from_iterable(terms)) for terms in zip(*blocks))
    flat, denom = _over_lcm(nums, dens)
    return PointSet._from_scaled(flat.reshape(found, dimension), denom)


def _parse_tokens(tokens: list, mode: str):
    """Float tokens as a float64 array; exact tokens as lists of numerators
    and denominators, each pair in lowest terms."""
    if mode == "float":
        return np.array(tokens, dtype=np.float64)
    joined = " ".join(t if "/" in t else t + "/1" for t in tokens)
    if not _RATIONALS.fullmatch(joined):
        return tuple(map(list, zip(*(Fraction(t).as_integer_ratio() for t in tokens))))
    ints = list(map(int, joined.replace("/", " ").split()))
    nums, dens = ints[0::2], ints[1::2]
    gcds = list(map(math.gcd, nums, dens))
    return list(map(operator.floordiv, nums, gcds)), list(map(operator.floordiv, dens, gcds))


def _raise_first_bad_line(path, dimension: int, mode: str) -> None:
    """Raise FormatError for the first line after the header with a wrong
    number of tokens or a token that Fraction (exact) or float does not read."""
    parse = Fraction if mode == "exact" else float
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            tokens = line.split()
            if tokens and len(tokens) != dimension:
                raise FormatError(f"line {lineno}: expected {dimension} coordinates")
            try:
                list(map(parse, tokens))
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"line {lineno}: bad token") from exc
