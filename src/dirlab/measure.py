"""Discrete measures on point sets: energies, cube splits, slope densities.

A weighted point set is a probability measure with finitely many atoms.
Exact-mode bases keep masses as rationals, which makes energy values and
cube-split bookkeeping exact; float bases fall back to deterministic
float64 summation (fixed chunk order).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DepthExhausted, NotSeparated, PreconditionFailed
from .fitting import FitResult, fit_power_law
from .geometry import _PAIR_BLOCK, PointSet, _cross_diff_histogram, _group_sums
from .geometry import _is_product_support, _pair_differences, _sorted_unique


@dataclass
class WeightedPointSet:
    """Atoms with nonnegative masses summing to one.

    thickening_radius is metadata: the ball radius at which the discrete
    measure stands in for a thickened continuous one.
    """

    base: PointSet
    masses: tuple
    thickening_radius: float | None = None
    uniform: bool = field(init=False, repr=False, compare=False)
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.masses) != len(self.base):
            raise PreconditionFailed("one mass per atom required")
        # tuple.count tests identity first, so a shared mass is never hashed
        self.uniform = self.masses.count(self.masses[0]) == len(self.masses)
        distinct = self.masses[:1] if self.uniform else self.masses
        self.exact = all(isinstance(m, (int, Fraction)) for m in distinct)
        if not self.exact and not all(math.isfinite(m) for m in distinct):
            raise PreconditionFailed("masses must be finite")
        for m in distinct:
            if m < 0:
                raise PreconditionFailed("masses must be nonnegative")
        total = self.total_mass()
        if self.exact:
            if total != 1:
                raise PreconditionFailed(f"masses sum to {total}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise PreconditionFailed(f"masses sum to {total!r}, not 1")

    def total_mass(self):
        if self.uniform:
            return self.masses[0] * len(self.masses)
        return sum(self.masses)

    def __len__(self) -> int:
        return len(self.base)

    def mass_array(self) -> np.ndarray:
        return np.array([float(m) for m in self.masses], dtype=np.float64)

    def mass_numerators(self) -> tuple[np.ndarray, int]:
        """Exact masses as Python-int numerators (object array) over their
        common denominator."""
        common = math.lcm(*(Fraction(m).denominator for m in self.masses))
        return np.array([int(m * common) for m in self.masses], dtype=object), common


def uniform_weights(P: PointSet, s=None) -> WeightedPointSet:
    """Equal masses 1/n; the radius n^(-1/s) is attached when s is given."""
    n = len(P)
    if P.mode == "exact":
        mass = Fraction(1, n)
    else:
        mass = 1.0 / n
    radius = None if s is None else float(n) ** (-1.0 / float(s))
    return WeightedPointSet(base=P, masses=(mass,) * n, thickening_radius=radius)


def _separation_violation(arr: np.ndarray, radius: float):
    """First pair of points closer than radius, or None; grid-hash search."""
    n, d = arr.shape
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
            return hit[0], i, hit[1]
        buckets.setdefault(home, []).append(i)
    return None


def discrete_frostman(P: PointSet, s) -> WeightedPointSet:
    """Uniform measure on P with radius n^(-1/s), requiring that separation.

    Distances are checked in float64; the check is a gate on input quality,
    not part of any exact computation.
    """
    s = float(s)
    if not (0 < s <= P.dimension):
        raise PreconditionFailed(f"s={s} outside (0, {P.dimension}]")
    n = len(P)
    radius = float(n) ** (-1.0 / s)
    if n > 1:
        violation = _separation_violation(P.as_array(), radius)
        if violation is not None:
            raise NotSeparated(*violation, radius)
    return uniform_weights(P, s=s)


def energy_integral(mu: WeightedPointSet, s):
    """Sum over ordered pairs of m_i * m_j * |p_i - p_j|^(-s).

    Exact rational arithmetic when the base, the masses, and s/2 are all
    rational-friendly (s a positive even integer); float64 otherwise, with
    a fixed summation order so results are reproducible.
    """
    if float(s) <= 0:
        raise PreconditionFailed("the energy exponent must be positive")
    n = len(mu)
    if n < 2:
        return Fraction(0) if mu.base.mode == "exact" else 0.0

    s_int = int(s) if float(s) == int(s) else None
    if mu.base.mode == "exact" and mu.exact and s_int is not None and s_int % 2 == 0:
        # Integers over the common denominator, as Python ints or Fractions
        # where |x - y|^2 could overflow int64.
        arr, denom = mu.base.scaled_integer() or (np.array(mu.base.points, dtype=object), 1)
        if 4 * mu.base.dimension * int(np.abs(arr).max()) ** 2 >= 1 << 63:
            arr = arr.astype(object)
        # Non-uniform masses enter as integer numerators over their common
        # denominator, so every pair weight stays an exact integer.
        if mu.uniform:
            weights, scale = None, Fraction(mu.masses[0]) ** 2
        else:
            weights, common = mu.mass_numerators()
            scale = Fraction(1, common * common)
        grouped = Counter()
        for diffs, mult in _pair_differences(arr, weights):
            grouped.update(_group_sums((diffs * diffs).sum(axis=1), mult))
        total = sum(Fraction(weight) / r2 ** (s_int // 2) for r2, weight in grouped.items())
        return 2 * scale * denom**s_int * total

    weights = None if mu.uniform else mu.mass_array()
    exponent = -float(s) / 2.0
    total = 0.0
    for diffs, mult in _pair_differences(mu.base.as_array(), weights):
        total += float((mult * (diffs * diffs).sum(axis=1) ** exponent).sum())
    return 2.0 * total * (float(mu.masses[0]) ** 2 if mu.uniform else 1.0)


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
    s = float(s)
    if s <= d - 1:
        raise PreconditionFailed(
            f"no default energy bound below the critical exponent {d - 1}; pass one"
        )
    return 4.0 * d * (1.0 + 1.0 / (s - (d - 1)))


def is_adaptable(P: PointSet, s, bound: float | None = None) -> AdaptabilityReport:
    """Separation at radius n^(-1/s) plus a bounded discrete s-energy."""
    s = float(s)
    if bound is None:
        bound = default_energy_bound(P.dimension, s)
    n = len(P)
    radius = float(n) ** (-1.0 / s)
    offending = None
    if n > 1:
        violation = _separation_violation(P.as_array(), radius)
        if violation is not None:
            offending = violation[:2]
    separated = offending is None
    energy = float(energy_integral(uniform_weights(P, s=s), s))
    return AdaptabilityReport(
        n=n,
        s=s,
        bound=float(bound),
        radius=radius,
        separated=separated,
        energy=energy,
        passed=separated and energy <= bound,
        offending_pair=offending,
    )


# --- stopping-time cube split ---------------------------------------------


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


def _normalized_piece(mu, rows, denom, sel, total) -> WeightedPointSet:
    """Atoms sel of mu (rows / denom) renormalized to total mass one."""
    if isinstance(total, Fraction):
        if mu.uniform:
            scaled = (Fraction(mu.masses[0]) / total,) * len(sel)
        else:
            scaled = tuple(Fraction(mu.masses[i]) / total for i in sel.tolist())
    else:
        scaled = tuple(float(mu.masses[i]) / float(total) for i in sel.tolist())
    return WeightedPointSet(base=PointSet._from_scaled(rows[sel], denom), masses=scaled)


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

    Exact sets run on integer rows over their denominator D: at level L an
    atom keeps rel = D * 4^(L-1) * (x - cube origin) <= D, its child index is
    clip(4 * rel // D, 0, 3) and the descent sets rel to 4 * rel - index * D.
    Rows are int64 within the bounds of PointSet.scaled_integer() and Python
    ints past them.  Child masses are exact (counts times the shared mass,
    or integer numerators over a common denominator) or float sums in atom
    order.
    """
    d = mu.base.dimension
    if c is None:
        c = 2.0 ** -(d + 1)
    if not (0 < float(c) < 1):
        raise PreconditionFailed("mass threshold must lie in (0, 1)")
    if max_depth < 1:
        raise PreconditionFailed("max_depth must be at least 1")
    exact = mu.base.mode == "exact" and mu.exact
    c_value = Fraction(c) if exact else float(c)
    rows, denom = mu.base._scaled_rows()
    if rows.min() < 0 or rows.max() > denom:
        raise PreconditionFailed("the measure must live in the unit cube")
    if not exact:
        weights = mu.mass_array()
    elif not mu.uniform:
        weights, common = mu.mass_numerators()
    powers = 4 ** np.arange(d - 1, -1, -1, dtype=np.int64 if d < 32 else object)

    one = Fraction(1) if exact else 1.0
    origin, side, cube_mass = (0 * one,) * d, one, one
    index, rel = np.arange(len(rows)), rows  # atoms of mu inside the current cube

    for level in range(1, max_depth + 1):
        if mu.base.mode == "exact":
            child = np.clip((4 * rel) // denom, 0, 3).astype(np.int64)
        else:
            shifted = (rel - np.array(origin)) * (4.0 / side)
            child = np.clip(np.floor(shifted).astype(np.int64), 0, 3)
        code = child @ powers
        codes = _sorted_unique(code)
        inverse = np.searchsorted(codes, code)
        if not exact:
            sums = np.bincount(inverse, weights=weights[index]).tolist()
        elif mu.uniform:
            sums = [Fraction(mu.masses[0]) * k for k in np.bincount(inverse).tolist()]
        else:
            sums = [Fraction(v, common) for v in _group_sums(inverse, weights[index]).values()]
        keys = [tuple(v // 4**k % 4 for k in range(d - 1, -1, -1)) for v in codes.tolist()]
        child_mass = dict(zip(keys, sums))

        threshold = c_value * cube_mass
        heavy = sorted(key for key, m in child_mass.items() if m >= threshold)

        best = None
        for a, b in itertools.combinations(heavy, 2):
            gaps = [abs(x - y) for x, y in zip(a, b)]
            wide = sum(1 for g in gaps if g >= 2)
            if wide == 0:
                continue
            score = (wide, min(child_mass[a], child_mass[b]), child_mass[a] + child_mass[b])
            if best is None or score > best[0] or (score == best[0] and (a, b) < best[1]):
                best = (score, (a, b))
        if best is not None:
            a, b = best[1]
            gaps = [abs(x - y) for x, y in zip(a, b)]
            widest = max(gaps)
            sep_coordinate = max(k for k, g in enumerate(gaps) if g == widest)
            quarter = side / 4
            return CubeSplit(
                pieces=tuple(
                    _normalized_piece(mu, rows, denom, index[inverse == keys.index(key)], child_mass[key])
                    for key in (a, b)
                ),
                piece_masses=(child_mass[a], child_mass[b]),
                level=level,
                sep_coordinate=sep_coordinate,
                sep_distance=float(quarter),
                cube_origin=tuple(origin),
                cube_side=float(side),
                parent_mass=float(cube_mass),
                threshold=float(threshold),
                child_indices=(a, b),
            )

        heaviest = max(child_mass.items(), key=lambda kv: (kv[1], [-v for v in kv[0]]))
        key = heaviest[0]
        quarter = side / 4
        origin = tuple(o + k * quarter for o, k in zip(origin, key))
        side = quarter
        cube_mass = child_mass[key]
        keep = inverse == keys.index(key)
        index, rel = index[keep], rel[keep]
        if mu.base.mode == "exact":
            rel = 4 * rel - np.array(key, dtype=rel.dtype) * denom

    raise DepthExhausted(max_depth)


def orient_split_for_slopes(split: CubeSplit) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Relabel coordinates so the split pair feeds the slope chart.

    The separating coordinate moves to the last position and becomes the
    slope denominator; coordinates whose child-index offset disagrees in
    sign with the denominator offset are reflected (x -> 1-x, on the
    integer rows D - v) so expected slopes come out positive.  Reflections
    and permutations change no pairwise geometry.
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
        rows, denom = piece.base._scaled_rows()
        rows = rows[:, perm]
        rows[:, flips] = denom - rows[:, flips]
        return WeightedPointSet(base=PointSet._from_scaled(rows, denom), masses=piece.masses)

    first, second = split.pieces
    if split.child_indices != (a, b):
        first, second = second, first
    return transform(first), transform(second)


def frostman_constant(mu: WeightedPointSet, s, depth: int) -> float:
    """Max of cube mass / side^s over dyadic cubes down to side 2^(-depth)."""
    if depth < 1:
        raise PreconditionFailed("depth must be at least 1")
    s = float(s)
    arr = mu.base.as_array()
    w = mu.mass_array()
    d = arr.shape[1]
    worst = float(mu.total_mass())  # level 0: the unit cube itself
    for j in range(1, depth + 1):
        m = 1 << j
        idx = np.clip((arr * m).astype(np.int64), 0, m - 1)
        code = idx[:, 0]
        for k in range(1, d):
            code = code * m + idx[:, k]
        _, inverse = np.unique(code, return_inverse=True)
        sums = np.bincount(inverse, weights=w)
        worst = max(worst, float(sums.max()) * float(m) ** s)
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
    a = np.sort(vals1)
    b = np.sort(vals2)
    pos = np.searchsorted(b, a)
    best = math.inf
    right = pos < len(b)
    if right.any():
        best = min(best, float(np.min(np.abs(b[pos[right]] - a[right]))))
    left = pos > 0
    if left.any():
        best = min(best, float(np.min(np.abs(b[pos[left] - 1] - a[left]))))
    return best


def _axis_pair_table(col1: np.ndarray, col2: np.ndarray):
    """Sorted distinct cross differences with cumulative pair counts."""
    values, counts = _cross_diff_histogram(col1, col2)
    prefix = np.concatenate([[0.0], np.cumsum(counts)])
    return values, prefix


def _scaled_window(a, lo, hi):
    """Bounds a*[lo, hi] per denominator a of either sign, one row per a."""
    a = a[:, None]
    return np.where(a > 0, a * lo, a * hi), np.where(a > 0, a * hi, a * lo)


def _interval_counts(values, prefix, lo, hi):
    """Pair counts in closed intervals [lo, hi], elementwise over arrays."""
    hi_idx = np.searchsorted(values, hi, side="right")
    lo_idx = np.searchsorted(values, lo, side="left")
    return prefix[hi_idx] - prefix[lo_idx]


_EINSUM = {1: "a,aj->j", 2: "a,aj,ak->jk", 3: "a,aj,ak,al->jkl"}


def _window_mass_product(mu1, mu2, lo, hi) -> np.ndarray:
    """Pair mass per window cell for product supports with uniform masses.

    On a perfect product support a pair count factors over axes as a
    product of per-axis value-pair counts, so histograms run on the
    distinct per-axis values, never the full columns."""
    arr1 = mu1.base.as_array()
    arr2 = mu2.base.as_array()
    d = arr1.shape[1]
    w = float(mu1.masses[0]) * float(mu2.masses[0])
    axes1 = [np.unique(arr1[:, i]) for i in range(d)]
    axes2 = [np.unique(arr2[:, i]) for i in range(d)]
    den_vals, den_counts = _cross_diff_histogram(axes1[-1], axes2[-1])
    tables = [_axis_pair_table(axes1[i], axes2[i]) for i in range(d - 1)]
    g = len(lo)
    shape = (g,) * (d - 1)
    total = np.zeros(shape, dtype=np.float64)
    spec = _EINSUM[d - 1]
    chunk = max(1, 20_000_000 // max(1, g * (d - 1)))
    for a0 in range(0, len(den_vals), chunk):
        a = den_vals[a0 : a0 + chunk]
        cnt = den_counts[a0 : a0 + chunk].astype(np.float64)
        lo_eff, hi_eff = _scaled_window(a, lo, hi)
        factors = [
            _interval_counts(values, prefix, lo_eff, hi_eff).astype(np.float64)
            for values, prefix in tables
        ]
        total += np.einsum(spec, cnt, *factors)
    return total * w


def _window_mass_scan(mu1, mu2, lo, hi) -> np.ndarray:
    """Direct pair scan fallback; identical window semantics as the product path."""
    arr1 = mu1.base.as_array()
    arr2 = mu2.base.as_array()
    w1 = mu1.mass_array()
    w2 = mu2.mass_array()
    d = arr1.shape[1]
    g = len(lo)
    shape = (g,) * (d - 1)
    total = np.zeros(shape, dtype=np.float64)
    spec = _EINSUM[d - 1]
    n2 = len(arr2)
    rows = max(1, _PAIR_BLOCK // max(1, n2 * g))
    for i0 in range(0, len(arr1), rows):
        block = arr1[i0 : i0 + rows]
        diffs = (block[:, None, :] - arr2[None, :, :]).reshape(-1, d)
        wp = (w1[i0 : i0 + rows, None] * w2[None, :]).ravel()
        lo_eff, hi_eff = _scaled_window(diffs[:, -1], lo, hi)
        factors = [
            (diffs[:, i][:, None] >= lo_eff) & (diffs[:, i][:, None] <= hi_eff)
            for i in range(d - 1)
        ]
        total += np.einsum(spec, wp, *[f.astype(np.float64) for f in factors])
    return total


def _window_mass(mu1, mu2, lo, hi) -> np.ndarray:
    d = mu1.base.dimension
    if d - 1 not in _EINSUM:
        raise PreconditionFailed("slope densities support dimensions 2 through 4")
    if (
        mu1.uniform
        and mu2.uniform
        and len(mu1) * len(mu2) >= 250_000
        and _is_product_support(mu1.base.as_array())
        and _is_product_support(mu2.base.as_array())
    ):
        return _window_mass_product(mu1, mu2, lo, hi)
    return _window_mass_scan(mu1, mu2, lo, hi)


def _check_slope_inputs(mu1: WeightedPointSet, mu2: WeightedPointSet) -> float:
    if mu1.base.dimension != mu2.base.dimension:
        raise PreconditionFailed("both measures must share one dimension")
    gap = _min_cross_gap(mu1.base.as_array()[:, -1], mu2.base.as_array()[:, -1])
    if gap <= 0:
        raise PreconditionFailed(
            "supports share a final coordinate; relabel the separated coordinate last"
        )
    return gap


def slope_density(
    mu1: WeightedPointSet, mu2: WeightedPointSet, eps: float, pitch: float | None = None
) -> SlopeDensityField:
    """Windowed slope density between two final-coordinate-separated measures.

    Each grid cell center t in [1/2,1]^(d-1) gets the mass of support pairs
    whose slope vector lies in the closed box t +- eps, scaled by
    eps^-(d-1).  The window test multiplies through by the positive
    denominator, so no division occurs and closed boundaries are honored.
    """
    eps = float(eps)
    if eps <= 0:
        raise PreconditionFailed("the window half-width must be positive")
    if pitch is None:
        pitch = eps / 2
    pitch = float(pitch)
    if not (0 < pitch <= eps):
        raise PreconditionFailed("grid pitch must lie in (0, eps]")
    gap = _check_slope_inputs(mu1, mu2)
    d = mu1.base.dimension
    g = max(1, round(0.5 / pitch))
    pitch_eff = 0.5 / g
    centers = 0.5 + (np.arange(g) + 0.5) * pitch_eff
    mass = _window_mass(mu1, mu2, centers - eps, centers + eps)
    values = mass * eps ** -(d - 1)
    integral = float(values.sum()) * pitch_eff ** (d - 1)
    return SlopeDensityField(
        dimension=d,
        epsilon=eps,
        pitch=pitch_eff,
        centers=centers,
        values=values,
        integral=integral,
        min_denominator_gap=gap,
    )


def slope_chart_pair_mass(mu1: WeightedPointSet, mu2: WeightedPointSet) -> float:
    """Mass of support pairs whose slope vector lies in [1/2,1]^(d-1)."""
    _check_slope_inputs(mu1, mu2)
    mass = _window_mass(
        mu1, mu2, np.array([0.5]), np.array([1.0])
    )
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

    The split threshold defaults to 4^-d here (smaller than the raw split
    default) because self-similar measures spread mass near-uniformly over
    child cubes and need the laxer gate to split at level one.
    """
    d = mu.base.dimension
    s = float(s)
    eps_values = sorted({float(e) for e in eps_list}, reverse=True)
    if not eps_values:
        raise PreconditionFailed("need at least one window width")
    if c is None:
        c = 4.0**-d
    split = stopping_time_split(mu, c=c, max_depth=max_depth)
    upper, lower = orient_split_for_slopes(split)
    chart_mass = slope_chart_pair_mass(upper, lower)
    if chart_mass <= 0:
        raise PreconditionFailed("no support pair slopes fall inside the chart")
    gap = _check_slope_inputs(upper, lower)

    integrals = []
    for eps in eps_values:
        field = slope_density(upper, lower, eps, pitch=eps / 2)
        integrals.append(field.integral / chart_mass)

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
