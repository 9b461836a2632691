"""Direction censuses, primitive counts, coverage grids, separation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    key_to_oracle_form,
    min_pairwise_gap,
    on_both_paths,
    oracle_census,
    product_point_sets,
    random_rational_points,
    refuse_pair_loop,
)
from dirlab import (
    geometry,
    LatticeSpec,
    PointSet,
    PreconditionFailed,
    WrongDimension,
    distinct_directions,
    hyperplane_sample,
    lattice_set,
    pps_check,
    primitive_count,
    separated_subset,
    sphere_coverage,
    sphere_coverage_sweep,
)

point_sets = st.lists(
    st.tuples(
        st.integers(0, 8).map(lambda n: Fraction(n, 8)),
        st.integers(0, 8).map(lambda n: Fraction(n, 8)),
    ),
    min_size=2,
    max_size=9,
    unique=True,
).map(lambda pts: PointSet.from_points(pts))


class TestDistinctDirections:
    def test_collinear_single_class(self):
        ps = PointSet.from_points([(0, 0), (1, 1), (2, 2)])
        assert distinct_directions(ps, antipodal=True).count == 1

    def test_unit_square(self):
        ps = lattice_set(LatticeSpec(q=1, d=2))
        census = distinct_directions(ps, antipodal=True)
        assert {k.rep for k in census.keys} == {
            (1, 0),
            (0, 1),
            (1, 1),
            (1, -1),
        }
        assert census.n_pairs == 6

    def test_three_grid(self):
        ps = lattice_set(LatticeSpec(q=2, d=2))
        census = distinct_directions(ps, antipodal=True)
        assert census.count == 8
        assert census.n_pairs == 36

    def test_signed_square(self):
        ps = lattice_set(LatticeSpec(q=1, d=2))
        census = distinct_directions(ps, antipodal=False)
        assert census.count == 8
        assert census.n_pairs == 12

    def test_signed_keys_close_under_negation(self):
        ps = lattice_set(LatticeSpec(q=2, d=2))
        reps = {k.rep for k in distinct_directions(ps, antipodal=False).keys}
        assert reps == {tuple(-v for v in r) for r in reps}

    def test_single_point_rejected(self):
        with pytest.raises(PreconditionFailed):
            distinct_directions(PointSet.from_points([(0, 0)]))

    def test_float_mode_census(self):
        ps = PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        census = distinct_directions(ps, antipodal=True)
        assert census.count == 4

    @given(point_sets)
    def test_matches_oracle_both_modes(self, ps):
        for antipodal in (True, False):
            census = distinct_directions(ps, antipodal=antipodal)
            got = {key_to_oracle_form(k) for k in census.keys}
            assert got == oracle_census(ps.points, antipodal)

    def test_seeded_oracle_suite(self):
        rng = random.Random(20260822)
        for _ in range(60):
            n = rng.randrange(2, 13)
            d = rng.choice((2, 3))
            pts = random_rational_points(rng, n, d, denom=12)
            ps = PointSet.from_points(pts)
            census = distinct_directions(ps, antipodal=True)
            assert {key_to_oracle_form(k) for k in census.keys} == oracle_census(
                pts, True
            )

    @given(point_sets)
    def test_antipodal_halving_band(self, ps):
        anti = distinct_directions(ps, antipodal=True).count
        signed = distinct_directions(ps, antipodal=False).count
        assert anti <= signed <= 2 * anti

    @given(point_sets, st.tuples(st.integers(0, 8), st.integers(0, 8)))
    def test_census_monotone_under_new_point(self, ps, extra):
        extra = (Fraction(extra[0], 8) + Fraction(1, 16), Fraction(extra[1], 8))
        base = distinct_directions(ps, antipodal=True).count
        grown = PointSet.from_points(list(ps.points) + [extra])
        assert distinct_directions(grown, antipodal=True).count >= base

    def test_pair_count_bookkeeping(self):
        ps = lattice_set(LatticeSpec(q=3, d=2))
        anti = distinct_directions(ps, antipodal=True)
        signed = distinct_directions(ps, antipodal=False)
        n = len(ps)
        assert anti.n_pairs == n * (n - 1) // 2
        assert signed.n_pairs == n * (n - 1)
        assert anti.count <= anti.n_pairs


class TestProductDifferencePath:
    """The product-support difference path against the pair loop."""

    @given(product_point_sets())
    def test_census_keys_agree(self, ps):
        for antipodal in (True, False):
            product, pair = on_both_paths(lambda P: distinct_directions(P, antipodal), ps)
            assert product == pair

    @given(product_point_sets())
    def test_coverage_cells_agree(self, ps):
        for antipodal in (True, False):
            product, pair = on_both_paths(
                lambda P: sphere_coverage_sweep(P, [0.5, 0.1, 0.03, 0.007], antipodal), ps
            )
            assert [g.cells for g in product] == [g.cells for g in pair]
            assert all(sum(g.cells.values()) == g.n_pairs for g in product)

    def test_lattice_never_starts_the_pair_loop(self, monkeypatch):
        from dirlab import energy_integral, uniform_weights

        ps = lattice_set(LatticeSpec(q=20, d=2))
        monkeypatch.setattr(geometry, "_pair_loop", refuse_pair_loop)
        for antipodal in (True, False):
            assert distinct_directions(ps, antipodal).count > 0
            (grid,) = sphere_coverage_sweep(ps, [0.05], antipodal)
            assert sum(grid.cells.values()) == grid.n_pairs
        mu = uniform_weights(ps)
        assert energy_integral(mu, 2) > 0
        assert energy_integral(mu, 1.5) > 0


class TestUniqueRows:
    @pytest.mark.parametrize("bound", [5, 1 << 40])
    @pytest.mark.parametrize("d", [2, 3])
    def test_both_branches_match_numpy(self, bound, d):
        # bound 5 packs rows into int64 codes; 2^40 leaves them to axis unique
        from dirlab.directions import _unique_rows

        rng = np.random.default_rng(bound + d)
        for trial in range(20):
            rows = rng.integers(-bound, bound + 1, size=(60, d))
            rows = np.vstack([rows, rows[rng.integers(0, 60, size=30)]])
            chunks = np.array_split(rows[rng.permutation(len(rows))], 1 + trial % 4)
            got = _unique_rows(chunks, bound, d)
            assert np.array_equal(got, np.unique(rows, axis=0))


class TestPrimitiveCount:
    def test_small_plane_values(self):
        assert primitive_count(1, 2) == 3
        assert primitive_count(2, 2) == 5

    def test_brute_force_agreement(self):
        import itertools

        for d in (2, 3):
            for q in (1, 2, 3, 5, 8):
                expect = sum(
                    1
                    for v in itertools.product(range(q + 1), repeat=d)
                    if math.gcd(*v) == 1
                )
                assert primitive_count(q, d) == expect

    def test_zeta_density_plane(self):
        density = primitive_count(100, 2) / 100**2
        assert abs(density - 6 / math.pi**2) <= 0.02 * 6 / math.pi**2

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            primitive_count(0, 2)
        with pytest.raises(PreconditionFailed):
            primitive_count(3, 1)


class TestPpsCheck:
    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            pps_check(lattice_set(LatticeSpec(q=1, d=2)))

    def test_coplanar_not_applicable(self):
        ps = PointSet.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        )
        report = pps_check(ps)
        assert not report.applicable
        assert report.rank == 2
        assert report.threshold is None and report.passed is None

    def test_five_point_full_rank(self):
        ps = PointSet.from_points(
            [
                (0, 0, 0),
                (1, 0, 0),
                (0, 1, 0),
                (0, 0, 1),
                (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
            ]
        )
        report = pps_check(ps)
        assert report.applicable
        assert report.threshold == 2 * 5 - 5
        assert report.count >= report.threshold
        assert report.passed

    def test_even_count_threshold(self):
        ps = lattice_set(LatticeSpec(q=1, d=3))
        pts = list(ps.points)[:6]
        report = pps_check(PointSet.from_points(pts))
        assert report.n == 6
        assert report.threshold == 2 * 6 - 7

    def test_seeded_property_sample(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            n = rng.randrange(5, 41)
            pts = random_rational_points(rng, n, 3, denom=10)
            report = pps_check(PointSet.from_points(pts))
            if not report.applicable:
                continue
            assert report.passed, (n, report.count, report.threshold)
            checked += 1


class TestSphereCoverage:
    def test_collinear_signed_two_cells(self):
        ps = PointSet.from_points([(0, 0), (1, 1), (2, 2)])
        grid = sphere_coverage(ps, 0.25, antipodal=False)
        assert grid.occupied() == 2

    def test_collinear_antipodal_one_cell(self):
        ps = PointSet.from_points([(0, 0), (1, 1), (2, 2)])
        assert sphere_coverage(ps, 0.25, antipodal=True).occupied() == 1

    def test_dense_grid_covers_half(self):
        ps = lattice_set(LatticeSpec(q=49, d=2))
        grid = sphere_coverage(ps, 0.05, antipodal=False)
        assert grid.coverage_fraction() >= 0.5

    def test_total_cells_formula(self):
        ps = lattice_set(LatticeSpec(q=2, d=3))
        grid = sphere_coverage(ps, 0.3, antipodal=True)
        m = math.ceil(2 / 0.3)
        assert grid.cells_per_side == m
        assert grid.total_cells == 2 * 3 * m**2

    def test_hits_account_for_every_pair(self):
        ps = lattice_set(LatticeSpec(q=3, d=2))
        n = len(ps)
        anti = sphere_coverage(ps, 0.2, antipodal=True)
        signed = sphere_coverage(ps, 0.2, antipodal=False)
        assert sum(anti.cells.values()) == anti.n_pairs == n * (n - 1) // 2
        assert sum(signed.cells.values()) == signed.n_pairs == n * (n - 1)

    def test_sweep_matches_single_runs(self):
        ps = lattice_set(LatticeSpec(q=4, d=2))
        sweep = sphere_coverage_sweep(ps, [0.2, 0.1], antipodal=True)
        for grid, eps in zip(sweep, [0.2, 0.1]):
            alone = sphere_coverage(ps, eps, antipodal=True)
            assert grid.cells == alone.cells

    def test_coverage_monotone_with_seam_allowance(self):
        ps = lattice_set(LatticeSpec(q=8, d=2))
        eps_list = [0.4, 0.2, 0.1, 0.05]
        grids = sphere_coverage_sweep(ps, eps_list, antipodal=False)
        for coarse, fine in zip(grids, grids[1:]):
            allowance = 1 + 4 * coarse.epsilon
            assert fine.coverage_fraction() <= coarse.coverage_fraction() * allowance

    def test_decode_cell_round_trip(self):
        ps = lattice_set(LatticeSpec(q=3, d=3))
        grid = sphere_coverage(ps, 0.15, antipodal=False)
        m = grid.cells_per_side
        for code in grid.cells:
            axis, sign, *idx = grid.decode_cell(code)
            assert 0 <= axis < 3 and sign in (-1, 1)
            assert all(0 <= v < m for v in idx)
            rebuilt = axis * 2 + (1 if sign == 1 else 0)
            for v in idx:
                rebuilt = rebuilt * m + v
            assert rebuilt == code

    def test_epsilon_validation(self):
        ps = lattice_set(LatticeSpec(q=1, d=2))
        with pytest.raises(PreconditionFailed):
            sphere_coverage(ps, 0.0)
        with pytest.raises(PreconditionFailed):
            sphere_coverage(ps, 1.5)
        with pytest.raises(PreconditionFailed):
            sphere_coverage_sweep(ps, [])


class TestSeparatedSubset:
    def test_single_key_kept(self):
        ps = PointSet.from_points([(0, 0), (1, 1)])
        census = distinct_directions(ps, antipodal=True)
        result = separated_subset(census, 0.3)
        assert [k.rep for k in result.keys] == [(1, 1)]

    def test_square_census_keeps_all_four(self):
        census = distinct_directions(lattice_set(LatticeSpec(q=1, d=2)), True)
        result = separated_subset(census, 0.1)
        assert len(result.keys) == 4
        assert result.occupied_cells == 4

    def test_pairwise_separation_exact(self):
        census = distinct_directions(lattice_set(LatticeSpec(q=5, d=2)), True)
        for delta in (0.05, 0.2, 0.6):
            result = separated_subset(census, delta)
            units = [k.unit_vector() for k in result.keys]
            if len(units) > 1:
                assert min_pairwise_gap(units) >= delta

    def test_pigeonhole_size_bound(self):
        for q, d in ((5, 2), (3, 3)):
            census = distinct_directions(lattice_set(LatticeSpec(q=q, d=d)), True)
            result = separated_subset(census, 0.1)
            need = math.ceil(result.occupied_cells / 2 ** (d - 1))
            assert len(result.keys) >= need

    def test_hyperplane_census_separation(self):
        census = distinct_directions(hyperplane_sample(3, 100), True)
        result = separated_subset(census, 0.15)
        units = [k.unit_vector() for k in result.keys]
        assert min_pairwise_gap(units) >= 0.15
        assert len(result.keys) >= math.ceil(result.occupied_cells / 4)

    def test_delta_validation(self):
        census = distinct_directions(lattice_set(LatticeSpec(q=1, d=2)), True)
        with pytest.raises(PreconditionFailed):
            separated_subset(census, 0.0)
        with pytest.raises(PreconditionFailed):
            separated_subset(census, 1.5)
