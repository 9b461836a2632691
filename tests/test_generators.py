"""Lattices, IFS approximants, surface samples, and Cantor products."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirlab import (
    IfsSystem,
    LatticeSpec,
    PreconditionFailed,
    SizeLimit,
    collinearity_rank,
    garnett_system,
    hyperplane_sample,
    ifs_approximant,
    lattice_set,
    lipschitz_graph_sample,
    PointSet,
    cantor_line_system,
    product_cantor,
)
from dirlab import generators
from dirlab.generators import DEFAULT_POINT_CAP, _grid_side
from reference_generators import _ifs_orbit
import reference_generators


def in_unit_cube(ps):
    return all(0 <= c <= 1 for p in ps.points for c in p)


class TestLatticeSet:
    def test_unit_square_corners(self):
        ps = lattice_set(LatticeSpec(q=1, d=2))
        assert set(ps.points) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_q2_grid_coordinates(self):
        ps = lattice_set(LatticeSpec(q=2, d=2))
        assert len(ps) == 9
        values = {c for p in ps.points for c in p}
        assert values == {0, Fraction(1, 2), 1}

    def test_q3_d3_count(self):
        assert len(lattice_set(LatticeSpec(q=3, d=3))) == 64

    @given(st.integers(1, 6), st.integers(2, 3))
    def test_count_and_range(self, q, d):
        ps = lattice_set(LatticeSpec(q=q, d=d))
        assert len(ps) == (q + 1) ** d
        assert ps.mode == "exact"
        assert in_unit_cube(ps)

    @pytest.mark.parametrize("q, d", [(1000, 2), (100000, 3)])
    def test_point_cap(self, q, d):
        # refused before any grid is built: 100001^3 rows would not fit in memory
        with pytest.raises(SizeLimit, match=f"{q + 1}\\^{d} exceeds the {DEFAULT_POINT_CAP} point cap"):
            lattice_set(LatticeSpec(q=q, d=d))

    def test_invalid_spec(self):
        with pytest.raises(PreconditionFailed):
            LatticeSpec(q=0, d=2)
        with pytest.raises(PreconditionFailed):
            LatticeSpec(q=2, d=1)


class TestIfsApproximant:
    def test_garnett_depth_zero(self):
        ps = ifs_approximant(garnett_system(), 0)
        assert set(ps.points) == {(0, 0)}

    def test_garnett_depth_one(self):
        ps = ifs_approximant(garnett_system(), 1)
        assert set(ps.points) == {
            (0, 0),
            (Fraction(3, 4), 0),
            (0, Fraction(3, 4)),
            (Fraction(3, 4), Fraction(3, 4)),
        }

    def test_garnett_depth_three(self):
        ps = ifs_approximant(garnett_system(), 3)
        assert len(ps) == 64
        for p in ps.points:
            for c in p:
                assert 64 % Fraction(c).denominator == 0

    @given(st.integers(0, 4))
    def test_count_and_cube(self, depth):
        ps = ifs_approximant(garnett_system(), depth)
        assert len(ps) == 4**depth
        assert in_unit_cube(ps)

    @given(st.integers(0, 3))
    def test_refinement(self, depth):
        coarse = ifs_approximant(garnett_system(), depth)
        fine = set(ifs_approximant(garnett_system(), depth + 1).points)
        reach = Fraction(1, 4) ** depth
        for p in coarse.points:
            close = any(
                max(abs(a - b) for a, b in zip(p, q)) <= reach for q in fine
            )
            assert close

    def test_cap_enforced(self):
        # 4^10 > 10^6: refused before any level is built
        with pytest.raises(SizeLimit, match=f"4\\^10 exceeds the {DEFAULT_POINT_CAP} point cap"):
            ifs_approximant(garnett_system(), 10)

    def test_maps_must_stay_inside(self):
        with pytest.raises(PreconditionFailed):
            IfsSystem(
                dimension=2,
                maps=(
                    (Fraction(1, 2), (Fraction(3, 4), Fraction(0))),
                ),
            )

    def test_similarity_dimension_garnett(self):
        assert garnett_system().similarity_dimension() == pytest.approx(1.0)


class TestSurfaceSamples:
    def test_hyperplane_plane_case(self):
        ps = hyperplane_sample(2, 3)
        assert len(ps) == 3
        assert all(p[-1] == Fraction(1, 2) for p in ps.points)
        assert collinearity_rank(ps) == 1

    def test_hyperplane_space_case(self):
        ps = hyperplane_sample(3, 4)
        assert len(ps) == 4
        assert collinearity_rank(ps) == 2

    @given(st.integers(2, 4), st.integers(8, 64))
    def test_hyperplane_rank_bound(self, d, n):
        ps = hyperplane_sample(d, n)
        assert 2 <= len(ps) <= n
        assert collinearity_rank(ps) <= d - 1
        assert in_unit_cube(ps)

    def test_hyperplane_degenerate_budget_rejected(self):
        with pytest.raises(PreconditionFailed):
            hyperplane_sample(4, 3)

    def test_graph_plane_case(self):
        ps = lipschitz_graph_sample(2, 3)
        assert set(ps.points) == {
            (0, 0),
            (Fraction(1, 2), Fraction(1, 16)),
            (1, Fraction(1, 4)),
        }

    def test_graph_space_case(self):
        ps = lipschitz_graph_sample(3, 9)
        assert len(ps) == 9

    @pytest.mark.parametrize(
        "d,n", [(2, 3), (2, 7), (3, 9), (3, 30), (4, 27), (4, 80)]
    )
    def test_graph_full_rank(self, d, n):
        """Full affine rank needs three grid values per axis: on a two
        value axis the squared coordinate is an affine function."""
        ps = lipschitz_graph_sample(d, n)
        assert collinearity_rank(ps) == d
        assert in_unit_cube(ps)

    def test_graph_two_per_axis_sample_is_planar(self):
        ps = lipschitz_graph_sample(3, 8)
        assert len(ps) == 4
        assert collinearity_rank(ps) == 2

    def test_graph_dimension_cap(self):
        with pytest.raises(PreconditionFailed):
            lipschitz_graph_sample(6, 100)

    @pytest.mark.parametrize("sample", [hyperplane_sample, lipschitz_graph_sample])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [DEFAULT_POINT_CAP + 1, 10**8, 10**30])
    def test_point_cap_enforced(self, sample, d, n):
        with pytest.raises(SizeLimit, match=f"{n} exceeds the {DEFAULT_POINT_CAP} point cap"):
            sample(d, n)

    def test_point_cap_itself_allowed(self):
        assert _grid_side(3, DEFAULT_POINT_CAP) == 1000

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grid_side_matches_stepping(self, d):
        """Every perfect power up to 10^4, one either side, and the cap."""
        powers = {g**k for k in range(2, 14) for g in range(2, 101) if g**k <= 10**4}
        ns = {n + e for n in powers for e in (-1, 0, 1)} | {DEFAULT_POINT_CAP - 1, DEFAULT_POINT_CAP}
        for n in sorted(n for n in ns if n >= 2 ** (d - 1)):
            assert _grid_side(d, n) == reference_generators.grid_side(d, n), n


class TestProductCantor:
    def test_degenerate_full_grid(self):
        ps = product_cantor(2, s=2, depth=2)
        axis = {0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
        assert set(ps.points) == {(a, b) for a in axis for b in axis}

    def test_three_branch_depth_one(self):
        ps = product_cantor(2, m=3, ratio=Fraction(1, 4), depth=1)
        axis = {0, Fraction(3, 8), Fraction(3, 4)}
        assert set(ps.points) == {(a, b) for a in axis for b in axis}

    def test_resolves_catalogued_dimension(self):
        import math

        s = 2 * math.log(3) / math.log(4)
        ps = product_cantor(2, s=s, depth=2)
        assert len(ps) == 81

    def test_thin_dimension_rejected(self):
        with pytest.raises(PreconditionFailed):
            product_cantor(2, m=2, ratio=Fraction(1, 4), depth=1)

    def test_uncatalogued_dimension_rejected(self):
        with pytest.raises(PreconditionFailed):
            product_cantor(2, s=1.11, depth=1)

    def test_cap_enforced(self):
        # a 2,187-point line, whose square passes the cap, and a line past it
        with pytest.raises(SizeLimit, match=f"2187\\^2 exceeds the {DEFAULT_POINT_CAP} point cap"):
            product_cantor(2, m=3, ratio=Fraction(1, 4), depth=7)
        with pytest.raises(SizeLimit, match=f"3\\^13 exceeds the {DEFAULT_POINT_CAP} point cap"):
            product_cantor(2, m=3, ratio=Fraction(1, 4), depth=13)

    @given(st.integers(1, 3))
    def test_count_and_cube(self, depth):
        ps = product_cantor(2, m=3, ratio=Fraction(1, 4), depth=depth)
        assert len(ps) == 9**depth
        assert in_unit_cube(ps)


def assert_same_point_set(built, reference):
    """Same points, the same float64 bytes and the same scaled integers."""
    assert list(built.points) == list(reference.points)
    assert built.as_array().tobytes() == reference.as_array().tobytes()
    want = reference.scaled_integer()
    if want is None:
        assert built.scaled_integer() is None
    else:
        arr, denom = built.scaled_integer()
        assert arr.dtype == np.int64 and denom == want[1]
        assert np.array_equal(arr, want[0])
    rows, denom = built._scaled
    want_rows, want_denom = reference._scaled
    assert rows.dtype == want_rows.dtype and denom == want_denom
    assert rows.tolist() == want_rows.tolist()


class TestArrayBuiltSets:
    """lattice_set and product_cantor build their integer array directly."""

    @pytest.mark.parametrize("q, d", [(1, 2), (4, 2), (12, 2), (6, 3)])
    def test_lattice_matches_from_points(self, q, d):
        pts = [tuple(Fraction(i, q) for i in idx) for idx in itertools.product(range(q + 1), repeat=d)]
        assert_same_point_set(lattice_set(LatticeSpec(q=q, d=d)), PointSet.from_points(pts))

    @pytest.mark.parametrize(
        "d, m, ratio, depth",
        [
            (2, 3, Fraction(1, 4), 3),
            (3, 3, Fraction(1, 4), 2),
            (2, 2, Fraction(2, 5), 4),
            (2, 5, Fraction(1, 6), 2),
            # denominator 10^12, past the int64 form: Python-int rows
            (2, 2, Fraction(4999, 10000), 3),
        ],
    )
    def test_cantor_matches_from_points(self, d, m, ratio, depth):
        axis = [p[0] for p in _ifs_orbit(cantor_line_system(m, ratio), depth, 10**6)]
        reference = PointSet.from_points(list(itertools.product(axis, repeat=d)))
        assert_same_point_set(product_cantor(d, m=m, ratio=ratio, depth=depth), reference)


def sierpinski_system() -> IfsSystem:
    half = Fraction(1, 2)
    return IfsSystem(dimension=2, maps=tuple((half, off) for off in [(0, 0), (half, 0), (0, half)]))


# unequal ratios, maps of different denominators
UNEQUAL = IfsSystem(
    dimension=2,
    maps=(
        (Fraction(1, 3), (Fraction(0), Fraction(0))),
        (Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2))),
        (Fraction(1, 5), (Fraction(4, 5), Fraction(1, 7))),
    ),
)
# overlapping maps: distinct compositions send the origin to one point
OVERLAPPING = IfsSystem(
    dimension=3,
    maps=tuple((Fraction(1, 2), (Fraction(k, 4), Fraction(0), Fraction(k, 8))) for k in range(3)),
)
# S^2 > 2^63: the orbit rows leave int64 at the second level
HUGE = IfsSystem(
    dimension=2,
    maps=(
        (Fraction(1, 2**40 + 1), (Fraction(0), Fraction(0))),
        (Fraction(1, 2**40 + 1), (Fraction(1, 3), Fraction(5, 7))),
    ),
)


class TestGeneratorsAgainstReference:
    """Integer-row generators against the Fraction-tuple ones in reference_generators.py."""

    @pytest.mark.parametrize(
        "system, depth",
        [(garnett_system(), k) for k in range(6)]
        + [(sierpinski_system(), k) for k in range(8)]
        + [(UNEQUAL, k) for k in range(5)]
        + [(OVERLAPPING, k) for k in range(5)]
        + [(HUGE, k) for k in range(4)],
    )
    def test_ifs_approximant(self, system, depth):
        assert_same_point_set(ifs_approximant(system, depth), reference_generators.ifs_approximant(system, depth))

    def test_overlapping_system_collapses(self):
        assert len(ifs_approximant(OVERLAPPING, 3)) < 3**3

    @pytest.mark.parametrize(
        "m, ratio, depth",
        [
            (2, Fraction(1, 2), 10),
            (3, Fraction(1, 4), 6),
            (7, Fraction(1, 10), 4),
            (2, Fraction(2, 5), 5),
            # denominator 10^12, past the int64 form: Python-int rows
            (2, Fraction(4999, 10000), 3),
            # 10^21 before reduction: the orbit itself leaves int64
            (2, Fraction(4999999, 10000000), 3),
        ],
    )
    def test_cantor_line(self, m, ratio, depth):
        rows, denom = generators._ifs_orbit(cantor_line_system(m, ratio), depth)
        axis = [p[0] for p in _ifs_orbit(cantor_line_system(m, ratio), depth, 10**6)]
        want_denom = math.lcm(*(v.denominator for v in axis))
        assert denom == want_denom
        assert rows.dtype == (np.int64 if want_denom <= 2**31 else object)
        assert rows[:, 0].tolist() == [v.numerator * (want_denom // v.denominator) for v in axis]

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 50), (2, 1001), (3, 4), (3, 5), (3, 9),
                                      (3, 400), (4, 8), (4, 27), (4, 1000)])
    def test_hyperplane_sample(self, d, n):
        assert_same_point_set(hyperplane_sample(d, n), reference_generators.hyperplane_sample(d, n))

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 50), (2, 1001), (3, 4), (3, 9), (3, 400),
                                      (4, 8), (4, 27), (4, 1000), (5, 16), (5, 81), (5, 1300)])
    def test_graph_sample(self, d, n):
        assert_same_point_set(lipschitz_graph_sample(d, n), reference_generators.lipschitz_graph_sample(d, n))

    def test_graph_sample_on_python_int_rows(self):
        """d = 2 past about 23,000 points: the denominator 4(g-1)^2 passes 2^31."""
        built = lipschitz_graph_sample(2, 30_000)
        assert built.scaled_integer() is None
        assert_same_point_set(built, reference_generators.lipschitz_graph_sample(2, 30_000))

    @given(st.integers(2, 4), st.integers(1, 300))
    def test_grid_samples_hypothesis(self, d, extra):
        n = 2 ** (d - 1) + extra
        assert_same_point_set(hyperplane_sample(d, n), reference_generators.hyperplane_sample(d, n))
        assert_same_point_set(lipschitz_graph_sample(d, n), reference_generators.lipschitz_graph_sample(d, n))

    @pytest.mark.parametrize(
        "sample, d, n, error, message",
        [
            (hyperplane_sample, 1, 10, PreconditionFailed, "need d >= 2 and n >= 2"),
            (hyperplane_sample, 3, 1, PreconditionFailed, "need d >= 2 and n >= 2"),
            (hyperplane_sample, 4, 7, PreconditionFailed, "is a single point"),
            (hyperplane_sample, 4, 10**7, SizeLimit, "point cap"),
            (lipschitz_graph_sample, 6, 1, PreconditionFailed, "need d >= 2 and n >= 2"),
            (lipschitz_graph_sample, 1, 1, PreconditionFailed, "need d >= 2 and n >= 2"),
            (lipschitz_graph_sample, 6, 2, PreconditionFailed, "graph heights leave"),
            (lipschitz_graph_sample, 6, 10**7, PreconditionFailed, "graph heights leave"),
            (lipschitz_graph_sample, 5, 15, PreconditionFailed, "is a single point"),
            (lipschitz_graph_sample, 3, 10**7, SizeLimit, "point cap"),
        ],
    )
    def test_precondition_order(self, sample, d, n, error, message):
        with pytest.raises(error, match=message):
            sample(d, n)


class TestCantorParameters:
    """m and ratio are checked before the dimension log(m)/log(1/ratio) is taken."""

    @pytest.mark.parametrize(
        "m, ratio, message",
        [
            (3, Fraction(1), "overlap"),
            (3, Fraction(0), "outside"),
            (3, Fraction(-1, 2), "outside"),
            (0, Fraction(1, 4), "two maps"),
            (1, Fraction(1, 4), "two maps"),
        ],
    )
    def test_bad_family_rejected(self, m, ratio, message):
        with pytest.raises(PreconditionFailed, match=message):
            product_cantor(2, depth=1, m=m, ratio=ratio)

    def test_dimension_bits_unchanged(self):
        for m, r in [(3, Fraction(1, 4)), (2, Fraction(2, 5)), (7, Fraction(1, 10))]:
            assert generators._cantor_dimension(2, m, r) == 2 * math.log(m) / math.log(1 / r)
