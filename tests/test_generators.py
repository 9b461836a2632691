"""Lattices, IFS approximants, surface samples, and Cantor products."""

import itertools
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
from dirlab.generators import _ifs_orbit


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

    def test_invalid_spec(self):
        with pytest.raises(PreconditionFailed):
            LatticeSpec(q=0, d=2)
        with pytest.raises(PreconditionFailed):
            LatticeSpec(q=2, d=1)
        with pytest.raises(PreconditionFailed):
            LatticeSpec(q=2, d=2, s=Fraction(5, 2))

    def test_radius_matches_scale_rule(self):
        spec = LatticeSpec(q=4, d=2, s=Fraction(4, 5))
        assert spec.radius() == pytest.approx(4.0 ** (-2 / 0.8))


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
        with pytest.raises(SizeLimit):
            ifs_approximant(garnett_system(), 3, cap=63)

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
        with pytest.raises(SizeLimit):
            product_cantor(2, m=3, ratio=Fraction(1, 4), depth=4, cap=1000)

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
            # denominator 10^12, past the int64 form: built with from_points
            (2, 2, Fraction(4999, 10000), 3),
        ],
    )
    def test_cantor_matches_from_points(self, d, m, ratio, depth):
        axis = [p[0] for p in _ifs_orbit(cantor_line_system(m, ratio), depth, 10**6)]
        reference = PointSet.from_points(list(itertools.product(axis, repeat=d)))
        assert_same_point_set(product_cantor(d, m=m, ratio=ratio, depth=depth), reference)
