"""Discrete measures on point sets: energies, cube splits, slope densities.

A weighted point set is a probability measure with finitely many atoms.
Exact masses are integer numerators over one denominator, which makes
energy values and cube-split bookkeeping exact; float masses fall back to
deterministic float64 summation (fixed chunk order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .directions import DENSE_CELL_LIMIT
from .errors import DepthExhausted, DirlabError, NotSeparated, PreconditionFailed, SizeLimit
from .fitting import FitResult, fit_power_law
from .geometry import _IN_FLIGHT, _PAIR_BLOCK, PointSet, _block_map, _cross_diff_histogram, _fold, _fold_in
from .geometry import _float_axes, _grouped_sum, _lowest_terms, _over_lcm, _pair_differences, _pair_loop

# Bits of lcm(r2)^(s/2), the common denominator an exact even-s energy forms;
# past this an energy is refused before any power is formed.
ENERGY_BIT_LIMIT = 1 << 17


class WeightedPointSet:
    """Atoms with nonnegative masses summing to one.

    Every measure holds one form, ``(weights, denominator)`` with masses
    weights / denominator, as a PointSet holds its rows: exact masses are
    integers over their common denominator (int64 within the bounds of
    PointSet.scaled_integer(), Python ints past them), float or mixed masses
    float64 over 1.0.  ``masses`` is a view built on first use; the public
    constructor keeps the tuple it was given.  thickening_radius is
    metadata: the ball radius at which the discrete measure stands in for a
    thickened continuous one.
    """

    def __init__(self, base: PointSet, masses, thickening_radius: float | None = None):
        masses = tuple(masses)
        if all(isinstance(m, (int, Fraction)) for m in masses):
            weights, denom = _over_lcm([m.numerator for m in masses], [m.denominator for m in masses])
        else:
            weights, denom = np.array([float(m) for m in masses], dtype=np.float64), 1.0
        vars(self).update(vars(self._from_weights(base, weights, denom, thickening_radius)), _masses=masses)

    @classmethod
    def _from_weights(cls, base: PointSet, weights: np.ndarray, denom, thickening_radius=None):
        """The measure weights / denom on base; the one place masses are checked.

        Float weights must be finite and are stored divided by denom, over
        1.0; integer weights are reduced by their common gcd with denom
        (_lowest_terms).  Both must be nonnegative and sum to one, float sums
        within 1e-12.  One min/max serves the lowest terms, the sign check
        and ``uniform``.
        """
        if len(weights) != len(base):
            raise PreconditionFailed("one mass per atom required")
        mu = cls.__new__(cls)
        mu.exact = weights.dtype.kind != "f"
        if not mu.exact:
            weights, denom = np.asarray(weights / denom, dtype=np.float64), 1.0
            if not np.isfinite(weights).all():
                raise PreconditionFailed("masses must be finite")
        lo, hi = weights.min(), weights.max()  # _lowest_terms keeps their signs and ties
        if lo < 0:
            raise PreconditionFailed("masses must be nonnegative")
        if mu.exact:
            weights, denom = _lowest_terms(weights, denom, lo, hi)
        mu.base, mu.thickening_radius, mu._weights = base, thickening_radius, (weights, denom)
        mu.uniform, mu._masses = bool(lo == hi), None
        # weights / D sums to one exactly when the weights sum to D (D > 0)
        if (int(weights.sum()) != denom) if mu.exact else abs(float(weights.sum()) - 1) > 1e-12:
            raise PreconditionFailed(f"masses sum to {mu.total_mass()}, not 1")
        return mu

    @property
    def masses(self) -> tuple:
        """The masses, built on first use, one shared Fraction (exact weights)
        or float per distinct value."""
        if self._masses is None:
            weights, denom = self._weights
            values, inverse = np.unique(weights, return_inverse=True)
            shared = [Fraction(v, denom) if self.exact else v for v in values.tolist()]
            self._masses = tuple(np.array(shared, dtype=object)[inverse].tolist())
        return self._masses

    def total_mass(self):
        weights, denom = self._weights
        return Fraction(int(weights.sum()), denom) if self.exact else float(weights.sum())

    def __len__(self) -> int:
        return len(self.base)

    def mass_array(self) -> np.ndarray:
        """Float64 masses weights / denominator; each entry equals float() of
        its mass bit for bit (see PointSet.as_array)."""
        weights, denom = self._weights
        return np.asarray(weights / denom, dtype=np.float64)


def _exponent(s) -> float:
    """s as a float, refused unless finite and positive."""
    value = float(s)
    if not (math.isfinite(value) and value > 0):
        raise PreconditionFailed(f"the exponent s must be finite and positive, not {s}")
    return value


def uniform_weights(P: PointSet, s=None) -> WeightedPointSet:
    """Equal masses 1/n; the radius n^(-1/s) is attached when s is given."""
    n = len(P)
    radius = None if s is None else float(n) ** (-1.0 / _exponent(s))
    ones = np.ones(n, dtype=np.int64 if P.mode == "exact" else np.float64)
    return WeightedPointSet._from_weights(P, ones, n, thickening_radius=radius)


def _separation(P: PointSet, s) -> tuple:
    """The radius n^(-1/s) and the first pair of points closer than it, as
    (j, i, distance), or None: the least i, then the least j < i, whose grid
    cells floor(x / radius) are neighbours and whose float64 distance
    np.linalg.norm(x_i - x_j) is below the radius.

    Points sorted on their first coordinate give each point its slab, the
    points within h = max(radius, 2^-500) (1 + 1e-9) of it there.  Slab
    pairs are screened in order of i, in blocks of _PAIR_BLOCK, on their
    squared distance at radius^2 (1 + 1e-9) plus 2^-1072 per coordinate.
    Only the pairs that pass are re-decided, in (i, j) order, by the cells
    and the norm.  A pair whose norm is below the radius passes both
    screens: no rounding of its sums of squares, subnormal ones included,
    moves them by those margins.  So the answer is the one a search of
    all pairs would give.

    Points are read as the float64 view P.as_array(), which refuses
    coordinates at or past 2^500, and a radius with max|x| / radius >= 2^62
    is refused: the cells would leave int64, and the float64 norms near such
    a radius underflow.
    """
    arr = P.as_array()
    n, d = arr.shape
    radius = float(n) ** (-1.0 / _exponent(s))
    if max(float(arr.max()), -float(arr.min())) >= radius * 2.0**62:
        raise PreconditionFailed(f"the separation radius {radius} is too small for points of this size")
    cell = np.floor(arr / radius).astype(np.int64)
    order = np.argsort(arr[:, 0], kind="stable")
    column = arr[order, 0]
    h = max(radius, 2.0**-500) * (1 + 1e-9)
    lo = column.searchsorted(arr[:, 0] - h, "left")
    counts = column.searchsorted(arr[:, 0] + h, "right") - lo
    ends = np.cumsum(counts)
    shift = lo - ends + counts  # slab pair p of point i is point order[p + shift[i]]
    screen = radius * radius * (1 + 1e-9) + d * 2.0**-1072
    i0 = 0
    while i0 < n:
        p0 = ends[i0] - counts[i0]
        i1 = max(i0 + 1, int(np.searchsorted(ends, p0 + _PAIR_BLOCK, "right")))
        i = np.repeat(np.arange(i0, i1), counts[i0:i1])
        j = order[np.arange(p0, ends[i1 - 1]) + np.repeat(shift[i0:i1], counts[i0:i1])]
        keep = j < i
        i, j = i[keep], j[keep]
        r2 = sum(np.square(arr[i, k] - arr[j, k]) for k in range(d))
        near = np.flatnonzero(r2 <= screen)
        for t in near[np.lexsort((j[near], i[near]))].tolist():
            a, b = int(i[t]), int(j[t])
            if all(abs(u - v) <= 1 for u, v in zip(cell[a].tolist(), cell[b].tolist())):
                dist = float(np.linalg.norm(arr[a] - arr[b]))
                if dist < radius:
                    return radius, (b, a, dist)
        i0 = i1
    return radius, None


def discrete_frostman(P: PointSet, s) -> WeightedPointSet:
    """Uniform measure on P with radius n^(-1/s), requiring that separation.

    Distances are checked in float64; the check is a gate on input quality,
    not part of any exact computation.
    """
    s = float(s)
    if not (0 < s <= P.dimension):
        raise PreconditionFailed(f"s={s} outside (0, {P.dimension}]")
    radius, violation = _separation(P, s)
    if violation is not None:
        raise NotSeparated(*violation, radius)
    return uniform_weights(P, s=s)


def _row_sums(cols: list):
    """The rowwise sum of the given columns, added in the order numpy's
    pairwise sum takes a contiguous row: left to right below 8 terms, eight
    interleaved partial sums up to 128, split in halves past that.  Float
    sums keep the bits of rows.sum(axis=1) on a row-major block."""
    n = len(cols)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(cols[:half]) + _row_sums(cols[half:])
    if n < 8:
        return sum(cols[1:], cols[0])
    acc = list(cols[:8])
    for i in range(8, n - n % 8):
        acc[i % 8] = acc[i % 8] + cols[i]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    return sum(cols[n - n % 8:], total)


def energy_integral(mu: WeightedPointSet, s):
    """Sum over ordered pairs of m_i * m_j * |p_i - p_j|^(-s).

    One pass over the pair differences of the stored rows (integers over D for
    exact bases), never on the grid path, whose blocks would move the pinned
    bits of float sums.  Exact rational arithmetic when the base and the masses are
    exact and s is a positive even integer: the integer squared distances
    r2 are grouped, and their weights summed over one common denominator,
    the lcm of the r2^(s/2), refused past ENERGY_BIT_LIMIT bits.  Float64 otherwise, from the squared distances
    divided by D^2, with a fixed summation order (block sums added in block
    order) so results are reproducible; coordinates at or past 2^500 are
    refused there, as by PointSet.as_array().
    """
    value = _exponent(s)
    if len(mu) < 2:
        return Fraction(0) if mu.base.mode == "exact" else 0.0
    rows, denom = mu.base._scaled
    even = mu.base.mode == "exact" and mu.exact and value % 2 == 0
    if not even:
        mu.base.as_array()  # refuses rows whose squared distances could overflow float64
    # Python ints wherever |x - y|^2 could overflow int64
    wide = mu.base.mode == "exact" and 4 * mu.base.dimension * int(np.abs(rows).max()) ** 2 >= 1 << 63
    # Exact masses enter as integer numerators (all 1 for uniform masses, which
    # keeps the product path open); pair weights stay below denominator^2.
    weights, mass_denom = mu._weights if even else (mu.mass_array(), 1.0)

    def block_energy(block):
        diffs, mult = block
        diffs = diffs.astype(object, copy=False) if wide else diffs
        r2 = _row_sums([col * col for col in diffs.T])
        if even:
            return _grouped_sum(r2, mult)[:2]
        return float((mult * (r2 / denom**2) ** (-value / 2.0)).sum())

    parts = _block_map(block_energy, _pair_differences(mu.base, None if mu.uniform else weights, grid=False))
    if even:
        held = []
        for part in parts:
            _fold_in(held, part)
        r2s, sums = (column.tolist() for column in _fold(held))
        k = int(value // 2)
        common = math.lcm(*r2s)  # lcm(r2^k) = lcm(r2)^k
        if k * common.bit_length() > ENERGY_BIT_LIMIT:
            raise SizeLimit(f"an exact s = {s} energy forms lcm(r^2)^{k} of {k * common.bit_length()} "
                            f"bits, past the {ENERGY_BIT_LIMIT}-bit limit")
        total = Fraction(sum(weight * (common // r2) ** k for r2, weight in zip(r2s, sums)), common**k)
        return 2 * Fraction(denom ** int(value), mass_denom**2) * total
    return 2.0 * sum(parts, 0.0) * (float(weights[0]) ** 2 if mu.uniform else 1.0)


def _float_energy(value) -> float:
    """An energy_integral value as a float, refused with SizeLimit when an
    exact energy lies past the float64 range."""
    try:
        return float(value)
    except OverflowError as exc:
        raise SizeLimit("the exact energy lies past the float64 range (about 1.8e308)") from exc


@dataclass(frozen=True)
class AdaptabilityReport:
    n: int
    s: float
    bound: float
    radius: float
    separated: bool
    energy: float
    passed: bool
    offending_pair: tuple | None = None


def default_energy_bound(d: int, s) -> float:
    """4d(1 + 1/(s - (d-1))); total only above the critical exponent d-1."""
    if math.isfinite(float(s)) and float(s) <= d - 1:
        raise PreconditionFailed(
            f"no default energy bound below the critical exponent {d - 1}; pass one"
        )
    return 4.0 * d * (1.0 + 1.0 / (_exponent(s) - (d - 1)))


def is_adaptable(P: PointSet, s, bound: float | None = None) -> AdaptabilityReport:
    """Separation at radius n^(-1/s) plus a bounded discrete s-energy."""
    s = _exponent(s)
    if bound is None:
        bound = default_energy_bound(P.dimension, s)
    if math.isnan(bound):
        raise PreconditionFailed("the energy bound must be a number, not nan")
    radius, violation = _separation(P, s)
    offending = None if violation is None else violation[:2]
    separated = offending is None
    energy = _float_energy(energy_integral(uniform_weights(P, s=s), s))
    return AdaptabilityReport(
        n=len(P),
        s=s,
        bound=float(bound),
        radius=radius,
        separated=separated,
        energy=energy,
        passed=separated and energy <= bound,
        offending_pair=offending,
    )


# --- stopping-time cube split ---------------------------------------------


def _child_step(code: np.ndarray, rel: np.ndarray, denom, base: int):
    """One level of both cube searches in base b (4 for the split, 2 for the
    Frostman constant), on the rows over D of PointSet._scaled.

    An atom keeps rel = D * b^(L-1) * (x - cube corner) in [0, D]^d.  Its
    child's digits are min(b * rel // D, b - 1), and _descend takes rel into
    the child.  Returns the child codes, code (one per atom or one for all)
    with the digits appended, int64 below 2^63 and Python ints past it, and
    the digits, in the dtype of rel."""
    digits = base * rel  # a fresh array, so the caller's rows stay as they are
    digits //= denom
    np.minimum(digits, base - 1, out=digits)
    if code.dtype != object and (int(code.max()) + 1) * base ** rel.shape[1] > 1 << 63:
        code = code.astype(object)
    for col in digits.T.astype(np.int64, copy=False):
        code = code * base + col
    return code, digits


def _descend(rel: np.ndarray, digits, denom, base: int) -> np.ndarray:
    """rel <- b * rel - digits * D: the atoms' rel in the child of those
    digits (one row per atom, or one row for all), exact on integer rows
    and, by Sterbenz's lemma, on float rows."""
    return base * rel - digits * denom


def _child_masses(code: np.ndarray, weights: np.ndarray, d: int, uniform: bool):
    """The sorted codes of the children holding atoms, and their masses
    summed exactly in the weights' dtype and in atom order: by one
    np.bincount of the codes, all in [0, 4^d), up to DENSE_CELL_LIMIT
    children (the counts times the one numerator of a uniform exact
    measure, else np.add.at into a dense array), by a grouped sum past it."""
    cells = 4**d
    if cells > DENSE_CELL_LIMIT:
        return _grouped_sum(code, weights)[:2]
    counts = np.bincount(code, minlength=cells)
    codes = np.flatnonzero(counts)
    if uniform:
        return codes, counts[codes] * weights[0]
    sums = np.zeros(cells, dtype=weights.dtype)
    np.add.at(sums, code, weights)
    return codes, sums[codes]


@dataclass
class CubeSplit:
    """Two heavy, coordinate-separated quarter-cube pieces of a measure.

    pieces are renormalized to probability measures; piece_masses keeps the
    masses they had inside the original measure.  sep_distance is the
    guaranteed coordinate gap (a quarter of the split cube's side).
    """

    pieces: tuple
    piece_masses: tuple
    level: int
    sep_coordinate: int
    sep_distance: float
    cube_origin: tuple
    cube_side: float
    parent_mass: float
    threshold: float
    child_indices: tuple


def stopping_time_split(
    mu: WeightedPointSet, c: float | None = None, max_depth: int = 8
) -> CubeSplit:
    """Recursive quarter-cube search for two heavy non-touching children.

    At each level the current cube splits into 4^d children of quarter
    side.  A child is heavy when its mass reaches c times the cube's mass;
    two heavy children qualify when some index coordinate differs by at
    least 2 (so the closed child cubes do not touch, giving a coordinate
    gap of a quarter side).  Among qualifying pairs the one separated in
    the most coordinates wins, then the heavier, then index order.  With
    no qualifying pair, recursion descends into the heaviest child.

    Children are found by _child_step in base 4 on the stored rows, and
    their masses by _child_masses: integer numerators over the measure's
    mass denominator for exact measures, floats in atom order otherwise, so
    the heavy-child test compares ints or floats.  Only the atoms of the
    child the search descends into are taken into it (_descend), and the
    pieces are subsets of a checked set (PointSet._take).
    """
    d = mu.base.dimension
    if c is None:
        c = 2.0 ** -(d + 1)
    if not (0 < float(c) < 1):
        raise PreconditionFailed("mass threshold must lie in (0, 1)")
    if max_depth < 1:
        raise PreconditionFailed("max_depth must be at least 1")
    exact = mu.base.mode == "exact" and mu.exact
    rows, denom = mu.base._scaled
    if rows.min() < 0 or rows.max() > denom:
        raise PreconditionFailed("the measure must live in the unit cube")
    # a child is heavy when mass * c_den >= c_num * cube_mass
    weights, total = mu._weights if exact else (mu.mass_array(), 1.0)
    c_num, c_den = Fraction(c).as_integer_ratio() if exact else (float(c), 1)

    # the current cube is corner * side + [0, side]^d, side = 4^(1-level); its mass
    corner, cube_mass = [0] * d, total
    index, rel = np.arange(len(rows)), rows  # atoms of mu inside the current cube

    for level in range(1, max_depth + 1):
        code = _child_step(np.zeros(1, dtype=np.int64), rel, denom, 4)[0]
        codes, sums = _child_masses(code, weights if level == 1 else weights[index], d, exact and mu.uniform)
        keys = codes[:, None] >> 2 * np.arange(d - 1, -1, -1) & 3  # digit rows, in lexicographic order
        heavy = np.flatnonzero([m * c_den >= c_num * cube_mass for m in sums.tolist()])
        a, b = heavy[np.array(np.triu_indices(len(heavy), 1))]  # heavy pairs, in (a, b) order
        gaps = np.abs(keys[a] - keys[b])
        wide = np.count_nonzero(gaps >= 2, axis=1)
        if wide.any():
            # the last pair in (wide, min mass, summed mass, -position) order
            best = np.lexsort((-np.arange(len(a)), sums[a] + sums[b], np.minimum(sums[a], sums[b]), wide))[-1]
            a, b = int(a[best]), int(b[best])
            side = Fraction(1, 4 ** (level - 1)) if exact else 4.0 ** (1 - level)
            return CubeSplit(
                pieces=tuple(WeightedPointSet._from_weights(mu.base._take(sel), weights[sel], sums.item(t))
                             for t in (a, b) for sel in [index[code == codes[t]]]),
                piece_masses=tuple(Fraction(sums.item(t), total) if exact else sums.item(t) for t in (a, b)),
                level=level,
                sep_coordinate=d - 1 - int(np.argmax(gaps[best, ::-1])),  # the last widest gap
                sep_distance=float(side / 4),
                cube_origin=tuple(v * side for v in corner),
                cube_side=float(side),
                parent_mass=cube_mass / total,
                threshold=c_num * cube_mass / (c_den * total),
                child_indices=(tuple(keys[a].tolist()), tuple(keys[b].tolist())),
            )

        top = int(np.argmax(sums))  # the heaviest child; the smallest code on ties
        corner, cube_mass = [4 * v + k for v, k in zip(corner, keys[top].tolist())], sums.item(top)
        keep = code == codes[top]
        index, rel = index[keep], _descend(rel[keep], keys[top].astype(rel.dtype), denom, 4)

    raise DepthExhausted(max_depth)


def orient_split_for_slopes(split: CubeSplit) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Relabel coordinates so the split pair feeds the slope chart.

    The separating coordinate moves to the last position and becomes the
    slope denominator; coordinates whose child-index offset disagrees in
    sign with the denominator offset are reflected (x -> 1-x, on the
    integer rows D - v, by PointSet._relabel) so expected slopes come out
    positive.  Reflections and permutations change no pairwise geometry.
    """
    a, b = split.child_indices
    k = split.sep_coordinate
    d = len(a)
    delta = [x - y for x, y in zip(a, b)]
    if delta[k] < 0:
        a, b = b, a
        delta = [-v for v in delta]
    perm = [i for i in range(d) if i != k] + [k]
    flips = [delta[i] < 0 for i in perm]

    def transform(piece: WeightedPointSet) -> WeightedPointSet:
        return WeightedPointSet._from_weights(piece.base._relabel(perm, flips), *piece._weights)

    first, second = split.pieces
    if split.child_indices != (a, b):
        first, second = second, first
    return transform(first), transform(second)


def frostman_constant(mu: WeightedPointSet, s, depth: int) -> float:
    """Max of cube mass / side^s over dyadic cubes down to side 2^(-depth).

    Atom x lies in cube clip(floor(x * 2^j), 0, 2^j - 1) at level j: rows
    clipped to the unit cube descend by _child_step in base 2, and a grouped
    sum per level adds mass_array() in atom order and renumbers the cubes,
    so no code overflows (README).
    """
    if depth < 1:
        raise PreconditionFailed("depth must be at least 1")
    s = _exponent(s)
    try:
        (2.0**depth) ** s  # the largest factor the descent forms
    except OverflowError:
        raise PreconditionFailed(f"(2^{depth})^{s} overflows float64; lower the depth") from None
    rows, denom = mu.base._scaled
    rel = np.clip(rows, 0, denom)
    w = mu.mass_array()
    worst = float(mu.total_mass())  # level 0: the unit cube itself
    cube = np.zeros(len(rows), dtype=np.int64)
    for j in range(1, depth + 1):
        code, digits = _child_step(cube, rel, denom, 2)
        rel = _descend(rel, digits, denom, 2)
        _, sums, order, start = _grouped_sum(code, w)
        cube = np.empty(len(code), dtype=np.int64)
        cube[order] = np.cumsum(start) - 1  # each atom's cube, numbered in code order
        worst = max(worst, float(sums.max()) * (2.0**j) ** s)
    return worst


# --- slope densities -------------------------------------------------------


@dataclass
class SlopeDensityField:
    """Windowed pair-mass density over a grid on the slope chart.

    values[j1,...,j_{d-2}, j] is the eps^-(d-1)-normalized mass of support
    pairs whose every slope coordinate lies within eps of the cell center.
    integral is the cell sum value * pitch^(d-1), the quadrature whose end
    cells carry full weight; open-ended rules shed O(pitch) mass at the
    chart edges and break the near-constancy of normalized integrals.
    """

    dimension: int
    epsilon: float
    pitch: float
    centers: np.ndarray
    values: np.ndarray
    integral: float
    min_denominator_gap: float


def _min_cross_gap(vals1: np.ndarray, vals2: np.ndarray) -> float:
    """The least |a - b| over a in vals1 and b in vals2: each a against its
    neighbours in sorted vals2."""
    b = np.sort(vals2)
    pos = np.searchsorted(b, vals1)
    left, right = b[np.maximum(pos - 1, 0)], b[np.minimum(pos, len(b) - 1)]
    return float(np.minimum(np.abs(left - vals1), np.abs(right - vals1)).min())


def _scaled_window(a, lo, hi):
    """Bounds a*[lo, hi] per denominator a of either sign, one row per a;
    a is sorted, so the rows a <= 0, which swap the ends, come first."""
    k = int(a.searchsorted(0, side="right"))
    a = a[:, None]
    low, high = np.empty((2, len(a), len(lo)))
    for rows, first, last in ((slice(None, k), hi, lo), (slice(k, None), lo, hi)):
        np.multiply(a[rows], first, out=low[rows])
        np.multiply(a[rows], last, out=high[rows])
    return low, high


def _interval_counts(values, prefix, lo, hi):
    """Pair counts in closed intervals [lo, hi], elementwise over arrays."""
    hi_idx = np.searchsorted(values, hi, side="right")
    lo_idx = np.searchsorted(values, lo, side="left")
    return prefix[hi_idx] - prefix[lo_idx]


_EINSUM = {1: "a,aj->j", 2: "a,aj,ak->jk", 3: "a,aj,ak,al->jkl"}


def _window_masses_product(axes1: list, axes2: list, w: float, windows) -> list:
    """Pair mass per window cell, one array per window (lo, hi), for uniform
    masses on product supports with float axes axes1 and axes2 (_float_axes)
    and pair weight w.

    On a product support a pair count factors over axes into per-axis
    value-pair counts, so histograms run on the distinct axis values, never
    the full columns.  The last-axis denominator histogram and the per-axis
    pair tables (sorted distinct cross differences, cumulative pair counts)
    are built once for every window.  The work per window is bounded by the
    distinct last-axis cross differences, which never outnumber the pairs."""
    d = len(axes1)
    den_vals, den_counts = _cross_diff_histogram(axes1[-1], axes2[-1])
    tables = [(values, np.concatenate([[0.0], np.cumsum(counts)]))
              for values, counts in map(_cross_diff_histogram, axes1[:-1], axes2[:-1])]
    spec = _EINSUM[d - 1]
    masses = []
    for lo, hi in windows:
        g = len(lo)
        total = np.zeros((g,) * (d - 1), dtype=np.float64)
        # each denominator expands into g windows per axis; this path runs one
        # chunk at a time, so a chunk may take the pairs the mapped kernels keep in flight
        chunk = max(1, _IN_FLIGHT * _PAIR_BLOCK // g)
        for a0 in range(0, len(den_vals), chunk):
            a = den_vals[a0 : a0 + chunk]
            cnt = den_counts[a0 : a0 + chunk].astype(np.float64)
            lo_eff, hi_eff = _scaled_window(a, lo, hi)
            factors = [
                _interval_counts(values, prefix, lo_eff, hi_eff).astype(np.float64)
                for values, prefix in tables
            ]
            total += np.einsum(spec, cnt, *factors)
        masses.append(total * w)
    return masses


def _edge_counts(a, x, t, edges, side):
    """Per row, how many of the nondecreasing edges e have a*e <= x (side
    "right") or a*e < x (side "left"), for a >= 0 and the slope t = x / a.

    Since a*e is monotone in e, those edges are a prefix.  Its length k is
    estimated from t as if the edges were evenly spaced, and stands when
    the multiply-through test holds at the edges on either side of it,
    which proves it by monotonicity.  The rows where it fails (slopes within
    rounding of an edge) are counted by that test over every edge."""
    counted = np.less_equal if side == "right" else np.less
    g, spread = len(edges), edges[-1] - edges[0]
    padded = np.concatenate([[-np.inf], edges, [np.inf]])
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.subtract(t, edges[0])
        u *= (g - 1) / spread if spread > 0 else 1.0
        if side == "right":
            np.floor(u, out=u)
            u += 1
        else:
            np.ceil(u, out=u)
        k = np.fmin(np.fmax(u, 0, out=u), g, out=u).astype(np.int64)
        del u
        # padded[k] is edge k - 1 and padded[1:][k] edge k, infinite past the ends
        bound = padded.take(k)
        bound *= a
        ok = counted(bound, x)
        np.take(padded[1:], k, out=bound)
        bound *= a
        ok &= ~counted(bound, x)
        del bound
        bad, step = np.flatnonzero(~ok), max(1, _PAIR_BLOCK // g)
        for r0 in range(0, len(bad), step):
            rows = bad[r0 : r0 + step]
            k[rows] = np.count_nonzero(counted(a[rows, None] * edges, x[rows, None]), axis=1)
    return k


def _add_boxes(total, flat, lengths, weights, g):
    """Add each row's weight to the cells flat + sum_k o_k g^(m-1-k) of the
    flat g^m grid total, over every offset 0 <= o_k < lengths[k] on each of
    the m = len(lengths) axes: one bincount per offset, only positive
    terms, rows dropped once their range on the leading axis runs out."""
    if not lengths:
        total += np.bincount(flat, weights=weights, minlength=len(total))
        return
    head, rest = lengths[0], lengths[1:]
    stride = g ** len(rest)
    for offset in range(g):
        keep = head > offset
        if not keep.all():
            flat, head, weights, *rest = (v.compress(keep) for v in (flat, head, weights, *rest))
        if not len(flat):
            return
        _add_boxes(total, flat + offset * stride if offset else flat, rest, weights, g)


def _window_masses_scan(mu1, mu2, windows) -> list:
    """Pair mass per window cell, one array per window (lo, hi), over the
    cross pairs y - x of one shared pair loop, x in mu1 and y in mu2, by
    range accumulation; each lo and hi is nondecreasing.  The window test is
    symmetric under the swap, so the window semantics are those of the
    product path.

    Rows whose denominator a = diffs[:, -1] is negative are negated, in
    place in the loop's fresh block: negation is exact, so the closed test
    a*lo <= x <= a*hi keeps its bits.  Each block then takes the slope
    x / a once per axis for every window.  The windows holding the slope on
    one axis are a run first <= j < stop, first counting the windows with
    a*hi_j < x and stop those with a*lo_j <= x (_edge_counts), and the pair
    adds its mass to every cell of its box of runs.  Membership is that of
    the multiply-through test against every window; only the summation
    order differs: each block adds its pairs into a mass array of its own
    per window, and each window adds its blocks' arrays in block order, so
    a window's masses do not depend on the other windows planned with it.
    Blocks hold half _PAIR_BLOCK pairs, which keeps their index and bound
    temporaries below those of the test against every window."""
    d = mu1.base.dimension
    grids = [len(lo) for lo, _ in windows]

    def block_masses(block):
        diffs, wp = block
        np.negative(diffs, out=diffs, where=diffs[:, -1:] < 0)
        a = diffs[:, -1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slopes = [np.divide(diffs[:, i], a) for i in range(d - 1)]
        masses = []
        for (lo, hi), g in zip(windows, grids):
            flat, lengths = None, []
            for i, t in enumerate(slopes):
                first = _edge_counts(a, diffs[:, i], t, hi, "left")
                stop = _edge_counts(a, diffs[:, i], t, lo, "right")
                stop -= first
                flat = first if flat is None else flat * g + first
                lengths.append(stop)
            mass = np.zeros(g ** (d - 1), dtype=np.float64)
            _add_boxes(mass, flat, lengths, wp, g)
            masses.append(mass)
        return masses

    blocks = _pair_loop(mu1.base.as_array(), mu1.mass_array(), mu2.base.as_array(), mu2.mass_array(),
                        block=_PAIR_BLOCK // 2)
    totals = [np.zeros(g ** (d - 1), dtype=np.float64) for g in grids]
    for masses in _block_map(block_masses, blocks):
        for total, mass in zip(totals, masses):
            total += mass
    return [total.reshape((g,) * (d - 1)) for total, g in zip(totals, grids)]


def _window_masses(mu1: WeightedPointSet, mu2: WeightedPointSet, windows) -> tuple[float, list]:
    """The least gap between the two supports' final coordinates, and the
    pair mass per window cell for each window (lo, hi), by one plan.

    The measures must share one dimension from 2 through 4, and the gap be
    positive.  When both are uniform, each support's float axes
    (_float_axes) are read once: a support on a product takes its final
    coordinates' distinct values from them, and when both are products the
    product path runs on them; else the scan.  A window's masses are those
    it gets planned alone."""
    if mu1.base.dimension != mu2.base.dimension:
        raise PreconditionFailed("both measures must share one dimension")
    if mu1.base.dimension - 1 not in _EINSUM:
        raise PreconditionFailed("slope densities support dimensions 2 through 4")
    axes = [mu1.uniform and mu2.uniform and _float_axes(mu.base) for mu in (mu1, mu2)]
    gap = _min_cross_gap(*(a[-1] if a else mu.base.as_array()[:, -1] for mu, a in zip((mu1, mu2), axes)))
    if gap <= 0:
        raise PreconditionFailed(
            "supports share a final coordinate; relabel the separated coordinate last"
        )
    if all(axes):
        w = float(mu1.mass_array()[0]) * float(mu2.mass_array()[0])
        return gap, _window_masses_product(*axes, w, windows)
    return gap, _window_masses_scan(mu1, mu2, windows)


def _slope_grid(eps, pitch, d: int) -> tuple[float, np.ndarray]:
    """The pitch 0.5 / g and the g centers of the window grid on [1/2, 1],
    g = max(1, round(0.5 / pitch)), with pitch eps / 2 when it is None.

    eps must be positive and finite and pitch lie in (0, eps]; a grid of
    more than DENSE_CELL_LIMIT cells g^(d-1) is refused before any array
    is made."""
    eps = float(eps)
    if eps <= 0:
        raise PreconditionFailed("the window half-width must be positive")
    if not math.isfinite(eps):
        raise PreconditionFailed(f"the window half-width must be finite, not {eps}")
    pitch = eps / 2 if pitch is None else float(pitch)
    if not (0 < pitch <= eps):
        raise PreconditionFailed("grid pitch must lie in (0, eps]")
    g = max(1, round(min(0.5 / pitch, 2.0 * DENSE_CELL_LIMIT)))
    if g ** (d - 1) > DENSE_CELL_LIMIT:
        raise SizeLimit(f"a slope grid at pitch {pitch} in dimension {d} passes the "
                        f"{DENSE_CELL_LIMIT} cell cap")
    pitch = 0.5 / g
    return pitch, 0.5 + (np.arange(g) + 0.5) * pitch


def _density(mass: np.ndarray, eps: float, pitch: float) -> tuple[np.ndarray, float]:
    """The normalized values mass * eps^-(d-1) of a window grid and their
    integral, the cell sum times pitch^(d-1)."""
    m = mass.ndim
    values = mass * eps**-m
    return values, float(values.sum()) * pitch**m


def slope_density(
    mu1: WeightedPointSet, mu2: WeightedPointSet, eps: float, pitch: float | None = None
) -> SlopeDensityField:
    """Windowed slope density between two final-coordinate-separated measures.

    Each grid cell center t in [1/2,1]^(d-1) gets the mass of support pairs
    whose slope vector lies in the closed box t +- eps, scaled by
    eps^-(d-1).  The window test multiplies through by the positive
    denominator, so no division occurs and closed boundaries are honored.
    """
    d = mu1.base.dimension
    eps = float(eps)
    pitch, centers = _slope_grid(eps, pitch, d)
    gap, (mass,) = _window_masses(mu1, mu2, [(centers - eps, centers + eps)])
    values, integral = _density(mass, eps, pitch)
    return SlopeDensityField(
        dimension=d,
        epsilon=eps,
        pitch=pitch,
        centers=centers,
        values=values,
        integral=integral,
        min_denominator_gap=gap,
    )


# The chart [1/2, 1]^(d-1) as one window cell
_CHART = (np.array([0.5]), np.array([1.0]))


def slope_chart_pair_mass(mu1: WeightedPointSet, mu2: WeightedPointSet) -> float:
    """Mass of support pairs whose slope vector lies in [1/2,1]^(d-1)."""
    _, (mass,) = _window_masses(mu1, mu2, [_CHART])
    return float(mass.reshape(-1)[0])


@dataclass
class SlopeBandReport:
    """Normalized slope-density integrals across a window sweep.

    integrals are divided by the in-chart pair mass; reference_level is the
    finest-window integral; band_constant is the smallest K with every
    integral inside reference_level*(1 +- K*eps^exponent_predicted).
    """

    epsilons: list
    integrals: list
    reference_level: float
    band_constant: float | None
    deviation_exponent: float | None
    exponent_predicted: float
    fit: FitResult | None
    chart_mass: float
    split_level: int
    denominator_gap: float


def slope_band_sweep(
    mu: WeightedPointSet,
    s,
    eps_list,
    c: float | None = None,
    max_depth: int = 8,
) -> SlopeBandReport:
    """Split mu, orient the pieces, and sweep the slope-density window.

    The chart window and every width's grid (pitch eps / 2) run as one
    window plan, so the pieces' supports are checked, binned and walked
    once for the whole sweep; each integral is the one slope_density gives.
    The split threshold defaults to 4^-d here (smaller than the raw split
    default) because self-similar measures spread mass near-uniformly over
    child cubes and need the laxer gate to split at level one.
    """
    d = mu.base.dimension
    s = _exponent(s)
    eps_values = sorted({float(e) for e in eps_list}, reverse=True)
    if not eps_values:
        raise PreconditionFailed("need at least one window width")
    if c is None:
        c = 4.0**-d
    split = stopping_time_split(mu, c=c, max_depth=max_depth)
    upper, lower = orient_split_for_slopes(split)
    try:
        grids = [(eps, *_slope_grid(eps, eps / 2, d)) for eps in eps_values]
    except DirlabError as exc:  # raised after the input and chart-mass refusals below
        grids, refusal = [], exc
    gap, (chart, *masses) = _window_masses(
        upper, lower, [_CHART] + [(centers - eps, centers + eps) for eps, _, centers in grids]
    )
    chart_mass = float(chart.reshape(-1)[0])
    if chart_mass <= 0:
        raise PreconditionFailed("no support pair slopes fall inside the chart")
    if not grids:
        raise refusal
    integrals = [_density(mass, eps, pitch)[1] / chart_mass for (eps, pitch, _), mass in zip(grids, masses)]

    reference = integrals[-1]
    predicted = s - (d - 1)
    deviations = [
        (eps, abs(value - reference))
        for eps, value in zip(eps_values[:-1], integrals[:-1])
    ]
    band_constant = None
    if reference > 0 and deviations:
        band_constant = max(
            dev / (reference * eps**predicted) for eps, dev in deviations
        )
    positive = [(eps, dev) for eps, dev in deviations if dev > 0]
    fit = fit_power_law([p[0] for p in positive], [p[1] for p in positive])
    return SlopeBandReport(
        epsilons=eps_values,
        integrals=integrals,
        reference_level=reference,
        band_constant=band_constant,
        deviation_exponent=None if fit is None else fit.slope,
        exponent_predicted=predicted,
        fit=fit,
        chart_mass=chart_mass,
        split_level=split.level,
        denominator_gap=gap,
    )
