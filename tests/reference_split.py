"""Reference cube split and orientation on per-coordinate Fractions.

This is the split as it stood before it moved onto integer arrays: child
indices from a Fraction (or lcm-scaled) floor per point, child masses from
a running sum in atom order, pieces and oriented pieces rebuilt point by
point with PointSet.from_points.  The oracle tests compare the library
against it field by field.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from dirlab import DepthExhausted, PointSet, PreconditionFailed, WeightedPointSet
from dirlab.measure import CubeSplit


def child_assignment(points, mode, origin, side):
    """Index in {0..3}^d of the quarter-cube child holding each point."""
    n = len(points)
    d = len(points[0])
    if mode == "float":
        arr = np.array(points, dtype=np.float64)
        o = np.array([float(c) for c in origin])
        idx = np.floor((arr - o) * (4.0 / float(side))).astype(np.int64)
        return np.clip(idx, 0, 3)
    denom = 1
    for p in points:
        for c in p:
            denom = math.lcm(denom, c.denominator)
            if denom > 1 << 40:
                break
    side_scaled = Fraction(side) * denom
    origin_scaled = [Fraction(c) * denom for c in origin]
    if denom <= 1 << 40 and side_scaled.denominator == 1 and all(
        c.denominator == 1 for c in origin_scaled
    ):
        arr = np.array(
            [[int(c * denom) for c in p] for p in points], dtype=np.int64
        )
        o = np.array([int(c) for c in origin_scaled], dtype=np.int64)
        idx = (4 * (arr - o)) // int(side_scaled)
        return np.clip(idx, 0, 3)
    out = np.empty((n, d), dtype=np.int64)
    for i, p in enumerate(points):
        for k in range(d):
            v = (Fraction(p[k]) - Fraction(origin[k])) * 4 / Fraction(side)
            out[i, k] = min(3, max(0, math.floor(v)))
    return out


def normalized_piece(points, masses, mode, total, parent) -> WeightedPointSet:
    if isinstance(total, Fraction):
        if parent.uniform:
            scaled = (Fraction(masses[0]) / total,) * len(masses)
        else:
            scaled = tuple(Fraction(m) / total for m in masses)
    else:
        scaled = tuple(float(m) / float(total) for m in masses)
    return WeightedPointSet(
        base=PointSet.from_points(points, mode=mode), masses=scaled
    )


def reference_split(
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
    """
    d = mu.base.dimension
    if c is None:
        c = 2.0 ** -(d + 1)
    if not (0 < float(c) < 1):
        raise PreconditionFailed("mass threshold must lie in (0, 1)")
    if max_depth < 1:
        raise PreconditionFailed("max_depth must be at least 1")
    mode = mu.base.mode
    exact = mode == "exact" and all(
        isinstance(m, (int, Fraction)) for m in mu.masses
    )
    c_value = Fraction(c) if exact else float(c)

    points = list(mu.base.points)
    masses = list(mu.masses)
    for p in mu.base.points:
        for coord in p:
            if coord < 0 or coord > 1:
                raise PreconditionFailed("the measure must live in the unit cube")

    zero = Fraction(0) if exact else 0.0
    origin = tuple(zero for _ in range(d))
    side = Fraction(1) if exact else 1.0
    cube_mass = Fraction(1) if exact else 1.0

    for level in range(1, max_depth + 1):
        child = child_assignment(points, mode, origin, side)
        codes = {}
        for i in range(len(points)):
            key = tuple(int(v) for v in child[i])
            codes.setdefault(key, []).append(i)
        child_mass = {}
        for key, idxs in codes.items():
            total = zero
            for i in idxs:
                total = total + masses[i]
            child_mass[key] = total

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
            piece_points_a = [points[i] for i in codes[a]]
            piece_masses_a = [masses[i] for i in codes[a]]
            piece_points_b = [points[i] for i in codes[b]]
            piece_masses_b = [masses[i] for i in codes[b]]
            return CubeSplit(
                pieces=(
                    normalized_piece(piece_points_a, piece_masses_a, mode, child_mass[a], mu),
                    normalized_piece(piece_points_b, piece_masses_b, mode, child_mass[b], mu),
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
        keep = codes[key]
        points = [points[i] for i in keep]
        masses = [masses[i] for i in keep]

    raise DepthExhausted(max_depth)


def reference_orientation(split: CubeSplit) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Relabel coordinates so the split pair feeds the slope chart.

    The separating coordinate moves to the last position and becomes the
    slope denominator; coordinates whose child-index offset disagrees in
    sign with the denominator offset are reflected (x -> 1-x) so expected
    slopes come out positive.  Reflections and permutations change no
    pairwise geometry.
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
        one = Fraction(1) if piece.base.mode == "exact" else 1.0
        pts = []
        for p in piece.base.points:
            coords = tuple(
                (one - p[i]) if flip else p[i] for i, flip in zip(perm, flips)
            )
            pts.append(coords)
        return WeightedPointSet(
            base=PointSet.from_points(pts, mode=piece.base.mode),
            masses=piece.masses,
        )

    first, second = split.pieces
    if split.child_indices != (a, b):
        first, second = second, first
    return transform(first), transform(second)
