"""Constructors for the example point configurations studied downstream.

Everything here emits exact rational PointSets inside the unit cube, in a
canonical (lexicographic) order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionFailed, SizeLimit
from .geometry import MAX_DENOMINATOR, PointSet

DEFAULT_POINT_CAP = 10**6


@dataclass(frozen=True)
class IfsSystem:
    """A finite list of contracting similarities x -> ratio*x + offset.

    Every map must send [0,1]^d into itself, which keeps all orbit points
    inside the unit cube with exact arithmetic.
    """

    dimension: int
    maps: tuple  # of (ratio: Fraction, offset: tuple of Fraction)

    def __post_init__(self):
        if self.dimension < 1:
            raise PreconditionFailed("dimension must be positive")
        if not self.maps:
            raise PreconditionFailed("an IFS needs at least one map")
        for ratio, offset in self.maps:
            if not (0 < ratio < 1):
                raise PreconditionFailed(f"ratio {ratio} outside (0, 1)")
            if len(offset) != self.dimension:
                raise PreconditionFailed("offset dimension mismatch")
            for c in offset:
                if c < 0 or ratio + c > 1:
                    raise PreconditionFailed(
                        f"map with ratio {ratio}, offset {tuple(offset)} leaves the unit cube"
                    )

    @property
    def branching(self) -> int:
        return len(self.maps)

    def similarity_dimension(self) -> float:
        """log(m)/log(1/r) when all ratios share one value r."""
        ratios = {ratio for ratio, _ in self.maps}
        if len(ratios) != 1:
            raise PreconditionFailed("similarity dimension needs a common ratio")
        r = ratios.pop()
        return math.log(len(self.maps)) / math.log(1 / Fraction(r))


def garnett_system() -> IfsSystem:
    """Four corner maps of ratio 1/4 on the unit square; similarity dimension 1."""
    r = Fraction(1, 4)
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    maps = tuple(
        (r, (Fraction(3, 4) * cx, Fraction(3, 4) * cy)) for cx, cy in corners
    )
    return IfsSystem(dimension=2, maps=maps)


def _ifs_orbit(system: IfsSystem, depth: int, cap: int) -> list[tuple]:
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


def ifs_approximant(system: IfsSystem, depth: int, cap: int = DEFAULT_POINT_CAP) -> PointSet:
    """Images of the origin under all depth-fold map compositions.

    Coincident images collapse, so the count is at most branching**depth
    (exactly that for non-overlapping systems like the corner Cantor one).
    """
    return PointSet.from_points(_ifs_orbit(system, depth, cap), mode="exact")


@dataclass(frozen=True)
class LatticeSpec:
    """Scaled integer lattice q^{-1}(Z^d restricted to [0,q]^d).

    The target dimension s only fixes the companion observation radius
    q^{-d/s}; the point list itself depends on q and d alone.
    """

    q: int
    d: int
    s: Fraction = None

    def __post_init__(self):
        if self.q < 1:
            raise PreconditionFailed("q must be at least 1")
        if self.d < 2:
            raise PreconditionFailed("dimension must be at least 2")
        if self.s is not None:
            s = Fraction(self.s)
            if not (0 < s <= self.d):
                raise PreconditionFailed(f"s={s} outside (0, {self.d}]")
            object.__setattr__(self, "s", s)

    def radius(self) -> float:
        if self.s is None:
            raise PreconditionFailed("no target dimension was given")
        return float(self.q) ** (-self.d / float(self.s))


def lattice_set(spec: LatticeSpec) -> PointSet:
    """All (q+1)^d rational grid points i/q, lexicographically ordered."""
    grid = np.indices((spec.q + 1,) * spec.d).reshape(spec.d, -1).T
    return PointSet._from_scaled(grid, spec.q)


def _axis_grid(g: int) -> list[Fraction]:
    if g == 1:
        return [Fraction(1, 2)]
    return [Fraction(i, g - 1) for i in range(g)]


def _grid_side(d: int, n: int) -> int:
    g = 1
    while (g + 1) ** (d - 1) <= n:
        g += 1
    return g


def hyperplane_sample(d: int, n: int) -> PointSet:
    """Uniform grid on the slab midplane {x_d = 1/2}, at most n points."""
    if d < 2 or n < 2:
        raise PreconditionFailed("need d >= 2 and n >= 2")
    if n < 2 ** (d - 1):
        raise PreconditionFailed(
            f"the largest {d - 1}-dimensional grid with at most {n} points "
            "is a single point; raise n"
        )
    g = _grid_side(d, n)
    axis = _axis_grid(g)
    half = Fraction(1, 2)
    pts = [base + (half,) for base in itertools.product(axis, repeat=d - 1)]
    return PointSet.from_points(sorted(pts), mode="exact")


def lipschitz_graph_sample(d: int, n: int) -> PointSet:
    """Grid samples of the paraboloid graph x_d = sum_i x_i^2 / 4.

    Height stays within [0, (d-1)/4], so d <= 5 keeps everything in the
    unit cube.
    """
    if d < 2 or n < 2:
        raise PreconditionFailed("need d >= 2 and n >= 2")
    if d > 5:
        raise PreconditionFailed("graph heights leave the unit cube for d > 5")
    if n < 2 ** (d - 1):
        raise PreconditionFailed(
            f"the largest {d - 1}-dimensional grid with at most {n} points "
            "is a single point; raise n"
        )
    g = _grid_side(d, n)
    axis = _axis_grid(g)
    pts = []
    for base in itertools.product(axis, repeat=d - 1):
        height = sum(c * c for c in base) / 4
        pts.append(base + (height,))
    return PointSet.from_points(sorted(pts), mode="exact")


# Middle-gap families with per-axis similarity dimension log(m)/log(1/r).
# product_cantor resolves a requested dimension against this list.
CANTOR_CATALOG = (
    (2, Fraction(1, 2)),
    (3, Fraction(1, 4)),
    (3, Fraction(1, 5)),
    (5, Fraction(1, 8)),
    (5, Fraction(1, 6)),
    (7, Fraction(1, 8)),
    (7, Fraction(1, 10)),
)


def cantor_line_system(m: int, ratio: Fraction) -> IfsSystem:
    """m maps of common ratio on [0,1], first at 0, last ending at 1."""
    if m < 2:
        raise PreconditionFailed("need at least two maps")
    ratio = Fraction(ratio)
    if ratio > Fraction(1, m):
        raise PreconditionFailed("maps overlap: ratio exceeds 1/m")
    step = (1 - ratio) / (m - 1)
    maps = tuple((ratio, (j * step,)) for j in range(m))
    return IfsSystem(dimension=1, maps=maps)


def _resolve_cantor(d: int, s) -> tuple[int, Fraction]:
    target = float(s) / d
    best = None
    for m, r in CANTOR_CATALOG:
        dim = math.log(m) / math.log(1 / r)
        gap = abs(dim - target)
        if best is None or gap < best[0]:
            best = (gap, m, r)
    if best[0] > 1e-9:
        raise PreconditionFailed(
            f"no catalogued family has per-axis dimension {target:.6f}; "
            "pass m and ratio explicitly"
        )
    return best[1], best[2]


def product_cantor(
    d: int,
    s=None,
    depth: int = 1,
    m: int | None = None,
    ratio=None,
    cap: int = DEFAULT_POINT_CAP,
) -> PointSet:
    """d-fold product of a depth-level middle-gap Cantor approximant.

    The one-dimensional factor has similarity dimension s/d, so the product
    carries target dimension s.  Either give s (resolved against the
    catalogue) or give m and ratio directly.
    """
    if d < 2:
        raise PreconditionFailed("dimension must be at least 2")
    if depth < 1:
        raise PreconditionFailed("depth must be at least 1")
    if m is not None or ratio is not None:
        if m is None or ratio is None:
            raise PreconditionFailed("m and ratio must be given together")
        ratio = Fraction(ratio)
        s_value = d * math.log(m) / math.log(1 / ratio)
    else:
        if s is None:
            raise PreconditionFailed("give either s or (m, ratio)")
        s_value = float(s)
        m, ratio = _resolve_cantor(d, s)
    if s_value <= d - 1:
        raise PreconditionFailed(
            f"target dimension {s_value:.4f} must exceed {d - 1}"
        )
    if s_value > d + 1e-12:
        raise PreconditionFailed(f"target dimension {s_value:.4f} exceeds {d}")
    line = _ifs_orbit(cantor_line_system(m, ratio), depth, cap)
    axis = [p[0] for p in line]
    if len(axis) ** d > cap:
        raise SizeLimit(f"{len(axis)}^{d} exceeds the {cap} point cap")
    denom = math.lcm(*(v.denominator for v in axis))
    ints = np.array([v.numerator * (denom // v.denominator) for v in axis],
                    dtype=np.int64 if denom <= MAX_DENOMINATOR else object)
    return PointSet._from_scaled(ints[np.indices((len(axis),) * d).reshape(d, -1).T], denom)
