"""Reference generators and affine rank with per-coordinate Fractions.

These are the IFS orbit, the two grid samplers and the exact affine rank
as they stood before they moved onto integer rows: orbit points as sets of
Fraction tuples, grid coordinates from a Fraction axis, sorted tuples
handed to PointSet.from_points, and rational elimination on the points
view.  grid_side is the grid side as it was found before the integer
root, one step at a time.  The point set and measure constructors at the
end are described there.  The oracle tests compare the library against
them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from dirlab import PointSet, PreconditionFailed, SizeLimit, WeightedPointSet, geometry
from dirlab.generators import DEFAULT_POINT_CAP, IfsSystem, _grid_side


def _ifs_orbit(system: IfsSystem, depth: int, cap: int) -> list[tuple]:
    """Sorted Fraction tuples of all depth-fold images of the origin."""
    if depth < 0:
        raise PreconditionFailed("depth must be nonnegative")
    if system.branching**depth > cap:
        raise SizeLimit(f"{system.branching}^{depth} exceeds the {cap} point cap")
    zero = tuple(Fraction(0) for _ in range(system.dimension))
    points = {zero}
    for _ in range(depth):
        points = {
            tuple(ratio * c + o for c, o in zip(p, offset))
            for p in points
            for ratio, offset in system.maps
        }
    return sorted(points)


def ifs_approximant(system: IfsSystem, depth: int) -> PointSet:
    return PointSet.from_points(_ifs_orbit(system, depth, DEFAULT_POINT_CAP), mode="exact")


def _axis_grid(g: int) -> list[Fraction]:
    if g == 1:
        return [Fraction(1, 2)]
    return [Fraction(i, g - 1) for i in range(g)]


def hyperplane_sample(d: int, n: int) -> PointSet:
    g = _grid_side(d, n)
    axis = _axis_grid(g)
    half = Fraction(1, 2)
    pts = [base + (half,) for base in itertools.product(axis, repeat=d - 1)]
    return PointSet.from_points(sorted(pts), mode="exact")


def lipschitz_graph_sample(d: int, n: int) -> PointSet:
    if d > 5:
        raise PreconditionFailed("graph heights leave the unit cube for d > 5")
    g = _grid_side(d, n)
    axis = _axis_grid(g)
    pts = []
    for base in itertools.product(axis, repeat=d - 1):
        height = sum(c * c for c in base) / 4
        pts.append(base + (height,))
    return PointSet.from_points(sorted(pts), mode="exact")


def collinearity_rank(ps: PointSet) -> int:
    """Affine rank of an exact set by rational elimination on its points."""
    if len(ps) <= 1:
        return 0
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


def grid_side(d: int, n: int) -> int:
    """Side g of the largest (d-1)-dimensional grid with at most n points,
    by stepping g up one at a time (preconditions left to the library)."""
    g = 1
    while (g + 1) ** (d - 1) <= n:
        g += 1
    return g


# --- constructors ------------------------------------------------------------
#
# PointSet.from_points, PointSet._from_scaled and WeightedPointSet._from_weights
# as they stood before each decided and checked its stored form in one pass:
# per-coordinate Fractions read through a flat list, _lowest_terms dividing
# by the gcd of every entry, distinct rows counted by unpacking _unique_rows,
# and the mass total checked as a Fraction.  Numpy integers enter from_points
# through int(), as they do now: Fraction() kept one as its numerator, whose
# products wrapped in int64 once they passed 2^63.


def lowest_terms(rows: np.ndarray, denom) -> tuple[np.ndarray, int]:
    g = math.gcd(int(denom), int(np.gcd.reduce(rows, axis=None)))
    rows, denom = rows // g, int(denom) // g
    return rows.astype(np.int64 if geometry._fits(denom, rows.min(), rows.max()) else object, copy=False), denom


def from_scaled(rows: np.ndarray, denom) -> PointSet:
    if rows.ndim != 2 or len(rows) == 0 or rows.shape[1] < 2:
        raise PreconditionFailed("need a nonempty array of points in dimension at least 2")
    mode = "float" if rows.dtype.kind == "f" else "exact"
    if mode == "float":
        rows, denom = geometry._float_rows(rows, denom), 1.0
        keys = np.round(rows / geometry.DUPLICATE_RESOLUTION)
        distinct = len(geometry._distinct_words(list(keys.T))[0])
    else:
        if rows.dtype.kind not in "iuO" or denom < 1 or (
                rows.dtype != object and not geometry._fits(denom, rows.min(), rows.max())):
            raise PreconditionFailed("need integer rows within the int64 bounds of scaled_integer()")
        rows, denom = lowest_terms(rows, denom)
        keys = rows
        distinct = len(geometry._unique_rows([rows], int(np.abs(rows).max()), rows.shape[1]))
    ps = PointSet(dimension=rows.shape[1], mode=mode, _scaled=(rows, denom))
    if distinct < len(rows):
        seen = {}
        i = next(i for i, key in enumerate(map(tuple, keys.tolist())) if seen.setdefault(key, i) != i)
        where = f" at resolution {geometry.DUPLICATE_RESOLUTION}" if mode == "float" else ""
        raise PreconditionFailed(f"duplicate point {ps.points[i]}{where}")
    return ps


def from_points(raw_points, mode: str | None = None) -> PointSet:
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
        mode = geometry.infer_mode(c for r in rows for c in r)
    elif mode not in ("exact", "float"):
        raise PreconditionFailed(f"unknown mode {mode!r}")
    try:
        pts = (np.array(rows, dtype=np.float64) if mode == "float" else
               tuple(tuple(v if isinstance(v, Fraction) else Fraction(int(v) if isinstance(v, np.integer) else v)
                           for v in r) for r in rows))
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionFailed(f"coordinates must be finite numbers: {exc}") from exc
    if mode == "float":
        return from_scaled(pts, 1.0)
    flat = [c for p in pts for c in p]
    flat, denom = geometry._over_lcm([c.numerator for c in flat], [c.denominator for c in flat])
    ps = from_scaled(flat.reshape(len(pts), dimension), denom)
    ps._points = pts
    return ps


def from_weights(base: PointSet, weights: np.ndarray, denom, thickening_radius=None) -> WeightedPointSet:
    if len(weights) != len(base):
        raise PreconditionFailed("one mass per atom required")
    mu = WeightedPointSet.__new__(WeightedPointSet)
    mu.exact = weights.dtype.kind != "f"
    if mu.exact:
        weights, denom = lowest_terms(weights, denom)
    else:
        weights, denom = np.asarray(weights / denom, dtype=np.float64), 1.0
        if not np.isfinite(weights).all():
            raise PreconditionFailed("masses must be finite")
    if weights.min() < 0:
        raise PreconditionFailed("masses must be nonnegative")
    mu.base, mu.thickening_radius, mu._weights = base, thickening_radius, (weights, denom)
    mu.uniform, mu._masses = bool(weights.min() == weights.max()), None
    total = Fraction(int(weights.sum()), denom) if mu.exact else float(weights.sum())
    if abs(total - 1) > (0 if mu.exact else 1e-12):
        raise PreconditionFailed(f"masses sum to {total}, not 1")
    return mu
