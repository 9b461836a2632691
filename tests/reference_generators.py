"""Reference generators and affine rank with per-coordinate Fractions.

These are the IFS orbit, the two grid samplers and the exact affine rank
as they stood before they moved onto integer rows: orbit points as sets of
Fraction tuples, grid coordinates from a Fraction axis, sorted tuples
handed to PointSet.from_points, and rational elimination on the points
view.  grid_side is the grid side as it was found before the integer
root, one step at a time.  The oracle tests compare the library against
them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from dirlab import PointSet, PreconditionFailed, SizeLimit
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
