"""Weighted measures, energies, cube splits, and slope densities."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_chart_mass,
    brute_energy,
    brute_window_masses,
    on_both_paths,
    product_point_sets,
    random_rational_points,
)
from reference_split import reference_orientation, reference_split
from dirlab import (
    DepthExhausted,
    LatticeSpec,
    NotSeparated,
    PointSet,
    PreconditionFailed,
    WeightedPointSet,
    default_energy_bound,
    discrete_frostman,
    energy_integral,
    frostman_constant,
    is_adaptable,
    lattice_set,
    orient_split_for_slopes,
    product_cantor,
    slope_band_sweep,
    slope_chart_pair_mass,
    slope_density,
    stopping_time_split,
    uniform_weights,
)

CANTOR_S = 2 * math.log(3) / math.log(4)


def cantor_measure(depth):
    return uniform_weights(product_cantor(2, m=3, ratio=Fraction(1, 4), depth=depth))


def single_atom(*coords):
    return WeightedPointSet(
        base=PointSet.from_points([tuple(coords)]), masses=(Fraction(1),)
    )


def final_coordinate_gap(mu1, mu2):
    return min(
        abs(x[-1] - y[-1])
        for x in mu1.base.points
        for y in mu2.base.points
    )


class TestWeightedPointSet:
    def test_mass_count_must_match(self):
        ps = lattice_set(LatticeSpec(q=1, d=2))
        with pytest.raises(PreconditionFailed):
            WeightedPointSet(base=ps, masses=(Fraction(1, 2), Fraction(1, 2)))

    def test_negative_mass_rejected(self):
        ps = PointSet.from_points([(0, 0), (1, 1)])
        with pytest.raises(PreconditionFailed):
            WeightedPointSet(base=ps, masses=(Fraction(3, 2), Fraction(-1, 2)))

    def test_sum_must_be_one(self):
        ps = PointSet.from_points([(0, 0), (1, 1)])
        with pytest.raises(PreconditionFailed):
            WeightedPointSet(base=ps, masses=(Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(PreconditionFailed):
            WeightedPointSet(base=ps, masses=(0.5, 0.6))

    def test_uniform_weights(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=2, d=2)))
        assert mu.masses == (Fraction(1, 9),) * 9
        assert mu.total_mass() == 1
        assert mu.thickening_radius is None

    def test_uniform_flag(self):
        ps = PointSet.from_points([(0, 0), (1, 1), (2, 0)])
        assert uniform_weights(ps).uniform
        assert WeightedPointSet(base=ps, masses=(Fraction(1, 3), Fraction(2, 6), Fraction(1, 3))).uniform
        assert not WeightedPointSet(base=ps, masses=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))).uniform
        assert uniform_weights(ps).exact
        mixed = WeightedPointSet(base=ps, masses=(Fraction(1, 4), 0.25, 0.5))
        assert not mixed.uniform and not mixed.exact
        assert not uniform_weights(PointSet.from_points([(0.0, 0.0), (1.0, 1.0)])).exact

    @pytest.mark.parametrize(
        "masses",
        [
            (math.nan,) * 3,
            (float("nan"), float("nan"), float("nan")),
            (math.inf, 0.0, 0.0),
            (0.5, 0.5, math.nan),
        ],
    )
    def test_non_finite_masses_rejected(self, masses):
        ps = PointSet.from_points([(0, 0), (1, 1), (2, 0)])
        with pytest.raises(PreconditionFailed):
            WeightedPointSet(base=ps, masses=masses)

    def test_uniform_weights_radius(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=2, d=2)), s=1.5)
        assert mu.thickening_radius == pytest.approx(9.0 ** (-1 / 1.5))


class TestDiscreteFrostman:
    def test_nine_point_lattice(self):
        mu = discrete_frostman(lattice_set(LatticeSpec(q=2, d=2)), Fraction(3, 2))
        assert mu.masses == (Fraction(1, 9),) * 9
        assert mu.thickening_radius == pytest.approx(9.0 ** (-2 / 3))

    def test_single_atom(self):
        mu = discrete_frostman(PointSet.from_points([(0, 0)]), 1)
        assert mu.masses == (Fraction(1),)

    def test_close_pair_not_separated(self):
        ps = PointSet.from_points([(0.0, 0.0), (1e-6, 0.0)])
        with pytest.raises(NotSeparated):
            discrete_frostman(ps, 1)

    def test_line_spacing_not_separated(self):
        pts = [(Fraction(i, 4), Fraction(0)) for i in range(4)]
        with pytest.raises(NotSeparated):
            discrete_frostman(PointSet.from_points(pts), Fraction(3, 2))


class TestEnergyIntegral:
    def test_unit_distance_pair(self):
        ps = PointSet.from_points([(0, 0), (1, 0)])
        mu = uniform_weights(ps)
        value = energy_integral(mu, 2)
        assert value == Fraction(1, 2)
        assert isinstance(value, Fraction)
        assert energy_integral(mu, 1) == pytest.approx(0.5)

    def test_half_distance_pair(self):
        ps = PointSet.from_points([(0, 0), (Fraction(1, 2), 0)])
        assert energy_integral(uniform_weights(ps), 1) == pytest.approx(1.0)

    def test_right_triangle_exact(self):
        ps = PointSet.from_points([(0, 0), (1, 0), (0, 1)])
        assert energy_integral(uniform_weights(ps), 2) == Fraction(5, 9)

    def test_single_atom_zero(self):
        assert energy_integral(single_atom(Fraction(1, 2), Fraction(1, 2)), 3) == 0

    def test_lattice_matches_brute_force(self):
        ps = lattice_set(LatticeSpec(q=2, d=2))
        mu = uniform_weights(ps)
        got = energy_integral(mu, 1)
        want = brute_energy(list(ps.points), list(mu.masses), 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_float_mode_matches_brute_force(self):
        rng = random.Random(5)
        pts = [
            (rng.random(), rng.random(), rng.random()) for _ in range(40)
        ]
        mu = uniform_weights(PointSet.from_points(pts))
        got = energy_integral(mu, 1.7)
        want = brute_energy(pts, [1.0 / 40] * 40, 1.7)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), 2])
    def test_exact_scaling_law(self, lam):
        pts = [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(3, 4))]
        mu = uniform_weights(PointSet.from_points(pts))
        scaled = uniform_weights(
            PointSet.from_points([(lam * a, lam * b) for a, b in pts])
        )
        assert energy_integral(scaled, 2) == Fraction(lam) ** -2 * energy_integral(mu, 2)

    def test_float_scaling_law(self):
        rng = random.Random(11)
        pts = [(rng.random(), rng.random()) for _ in range(25)]
        mu = uniform_weights(PointSet.from_points(pts))
        scaled = uniform_weights(
            PointSet.from_points([(0.5 * a, 0.5 * b) for a, b in pts])
        )
        ratio = energy_integral(scaled, 1.3) / energy_integral(mu, 1.3)
        assert ratio == pytest.approx(0.5**-1.3, rel=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    def test_monotone_in_s_when_diameter_small(self, pts):
        pts = [(Fraction(a, 16), Fraction(b, 16)) for a, b in pts]
        mu = uniform_weights(PointSet.from_points(pts))
        values = [energy_integral(mu, s) for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestEnergyPaths:
    """Energies on the product difference path against the pair loop."""

    @given(product_point_sets())
    def test_float_energy_agrees(self, ps):
        product, pair = on_both_paths(lambda P: energy_integral(uniform_weights(P), 1.5), ps)
        assert product == pytest.approx(pair, rel=1e-12)

    @given(product_point_sets(modes=("exact",)))
    def test_exact_even_energies_agree(self, ps):
        for s in (2, 4):
            product, pair = on_both_paths(lambda P: energy_integral(uniform_weights(P), s), ps)
            assert isinstance(product, Fraction)
            assert product == pair

    @given(product_point_sets(max_axis=4, modes=("exact",)), st.integers(0, 2**16))
    def test_exact_non_uniform_energy_matches_brute_force(self, ps, seed):
        rng = random.Random(seed)
        units = [rng.randint(1, 5) for _ in range(len(ps))]
        masses = tuple(Fraction(u, sum(units)) for u in units)
        mu = WeightedPointSet(base=ps, masses=masses)
        for s in (2, 4):
            assert energy_integral(mu, s) == brute_energy(list(ps.points), list(masses), s)

    def test_huge_denominators_stay_exact(self):
        axis = [Fraction(0), Fraction(1, 2**61 - 1), Fraction(2, 3)]
        pts = list(itertools.product(axis, axis))
        ps = PointSet.from_points(pts)
        assert ps.scaled_integer() is None
        uniform = uniform_weights(ps)
        product, pair = on_both_paths(lambda P: energy_integral(uniform_weights(P), 2), ps)
        assert product == pair == brute_energy(pts, list(uniform.masses), 2)
        masses = tuple(Fraction(k, 45) for k in range(1, 10))
        mu = WeightedPointSet(base=ps, masses=masses)
        assert energy_integral(mu, 2) == brute_energy(pts, list(masses), 2)

    def test_wide_integer_coordinates_stay_exact(self):
        pts = [(0, 0, 0), (2**39, 1, 0), (0, 2**39, 3), (5, 7, 2**39)]
        mu = uniform_weights(PointSet.from_points(pts))
        assert energy_integral(mu, 4) == brute_energy(pts, list(mu.masses), 4)


class TestAdaptability:
    def test_unit_pair_passes(self):
        report = is_adaptable(PointSet.from_points([(0, 0), (1, 0)]), 1, bound=1.0)
        assert report.separated
        assert report.energy == pytest.approx(0.5)
        assert report.radius == pytest.approx(0.5)
        assert report.passed

    def test_tight_line_fails_separation(self):
        pts = [(Fraction(i, 4), Fraction(0)) for i in range(4)]
        report = is_adaptable(PointSet.from_points(pts), Fraction(3, 2))
        assert not report.separated
        assert report.offending_pair is not None
        assert not report.passed

    def test_default_bound_formula(self):
        assert default_energy_bound(2, 1.5) == pytest.approx(4 * 2 * (1 + 1 / 0.5))
        with pytest.raises(PreconditionFailed):
            default_energy_bound(2, 1.0)

    def test_cantor_set_is_adaptable(self):
        P = product_cantor(2, m=3, ratio=Fraction(1, 4), depth=2)
        report = is_adaptable(P, CANTOR_S)
        assert report.separated
        assert report.energy <= report.bound
        assert report.passed
        want = brute_energy(list(P.points), [Fraction(1, 81)] * 81, CANTOR_S)
        assert report.energy == pytest.approx(want, rel=1e-12)


class TestStoppingTimeSplit:
    def test_two_atom_split(self):
        mu = WeightedPointSet(
            base=PointSet.from_points([(0.1, 0.1), (0.9, 0.9)]),
            masses=(0.5, 0.5),
        )
        split = stopping_time_split(mu, c=0.3)
        assert split.level == 1
        assert split.piece_masses == (0.5, 0.5)
        assert split.sep_distance >= 0.25

    def test_lattice_split_contract(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=4, d=2)))
        split = stopping_time_split(mu, c=Fraction(1, 16))
        assert split.level == 1
        assert split.child_indices == ((0, 3), (3, 0))
        assert split.piece_masses == (Fraction(2, 25), Fraction(2, 25))
        assert split.sep_coordinate == 1
        assert split.sep_distance == 0.25
        assert sorted(split.pieces[0].base.points) == [
            (0, Fraction(3, 4)),
            (0, 1),
        ]
        assert sorted(split.pieces[1].base.points) == [
            (Fraction(3, 4), 0),
            (1, 0),
        ]
        for piece in split.pieces:
            assert piece.total_mass() == 1

    def test_cantor_split_contract(self):
        split = stopping_time_split(cantor_measure(2), c=Fraction(1, 16))
        assert split.level == 1
        assert split.child_indices == ((0, 0), (3, 3))
        assert split.piece_masses == (Fraction(1, 9), Fraction(1, 9))
        assert len(split.pieces[0]) == len(split.pieces[1]) == 9

    def test_concentrated_measure_exhausts_depth(self):
        mu = WeightedPointSet(
            base=PointSet.from_points([(0.5, 0.5), (0.500001, 0.500001)]),
            masses=(0.5, 0.5),
        )
        with pytest.raises(DepthExhausted):
            stopping_time_split(mu, c=0.2, max_depth=6)

    def test_threshold_validation(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=1, d=2)))
        with pytest.raises(PreconditionFailed):
            stopping_time_split(mu, c=0.0)
        with pytest.raises(PreconditionFailed):
            stopping_time_split(mu, c=1.0)
        with pytest.raises(PreconditionFailed):
            stopping_time_split(mu, max_depth=0)

    def test_support_must_stay_in_cube(self):
        mu = WeightedPointSet(
            base=PointSet.from_points([(0.5, 0.5), (1.5, 0.5)]),
            masses=(0.5, 0.5),
        )
        with pytest.raises(PreconditionFailed):
            stopping_time_split(mu)

    def test_seeded_postconditions(self):
        rng = random.Random(20260815)
        fixtures = [
            uniform_weights(lattice_set(LatticeSpec(q=q, d=d)))
            for q, d in ((3, 2), (5, 2), (7, 2), (3, 3), (4, 3))
        ] + [cantor_measure(2), cantor_measure(3)]
        for mu in fixtures:
            n = len(mu)
            raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
            total = sum(raw)
            scaled = [v / total for v in raw]
            scaled[-1] = 1.0 - sum(scaled[:-1])
            jittered = WeightedPointSet(
                base=mu.base, masses=tuple(scaled)
            )
            for candidate in (mu, jittered):
                d = candidate.base.dimension
                split = stopping_time_split(candidate, c=4.0**-d)
                assert 1 <= split.level <= 8
                for pm in split.piece_masses:
                    assert float(pm) >= split.threshold - 1e-12
                k = split.sep_coordinate
                gap = min(
                    abs(float(x[k]) - float(y[k]))
                    for x in split.pieces[0].base.points
                    for y in split.pieces[1].base.points
                )
                assert gap >= split.sep_distance - 1e-12
                assert split.sep_distance == pytest.approx(
                    split.cube_side / 4
                )


class TestOrientSplit:
    def test_lattice_orientation(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=4, d=2)))
        split = stopping_time_split(mu, c=Fraction(1, 16))
        upper, lower = orient_split_for_slopes(split)
        assert sorted(upper.base.points) == [(1, Fraction(3, 4)), (1, 1)]
        assert sorted(lower.base.points) == [(0, 0), (Fraction(1, 4), 0)]
        assert final_coordinate_gap(upper, lower) >= Fraction(1, 4)

    def test_orientation_preserves_masses(self):
        split = stopping_time_split(cantor_measure(2), c=Fraction(1, 16))
        upper, lower = orient_split_for_slopes(split)
        assert len(upper) == len(split.pieces[0])
        assert len(lower) == len(split.pieces[1])
        assert upper.total_mass() == 1 and lower.total_mass() == 1
        assert final_coordinate_gap(upper, lower) > 0


@st.composite
def split_measures(draw):
    """Small measures in the unit cube for the split oracle.

    Points k/den (den mostly not a power of 4, k = den giving x = 1) are
    packed into one cube of side 4^-zoom, so the split descends zoom levels
    before it can stop; points on the far face of that cube sit on a child
    boundary.  Masses are uniform exact, non-uniform exact (zeros allowed),
    float on an exact base, or float on a float base.
    """
    d = draw(st.sampled_from([2, 3]))
    den = draw(st.sampled_from([3, 5, 6, 7, 8, 10, 12, 16, 20, 24, 48]))
    zoom = draw(st.integers(0, 2))
    cell = [draw(st.integers(0, 4**zoom - 1)) for _ in range(d)]
    raw = draw(st.sets(st.tuples(*[st.integers(0, den)] * d), min_size=2, max_size=14))
    points = [
        tuple((c + Fraction(k, den)) / 4**zoom for c, k in zip(cell, p)) for p in sorted(raw)
    ]
    kind = draw(st.sampled_from(["uniform", "weighted", "float masses", "float"]))
    base = PointSet.from_points(
        [tuple(float(v) for v in p) for p in points] if kind == "float" else points
    )
    if kind == "uniform":
        mu = uniform_weights(base)
    else:
        units = draw(st.lists(st.integers(0, 9), min_size=len(points), max_size=len(points)))
        units[0] += 1
        total = sum(units)
        masses = [Fraction(u, total) if kind == "weighted" else u / total for u in units]
        mu = WeightedPointSet(base=base, masses=tuple(masses))
    c = draw(st.sampled_from([None, Fraction(1, 16), Fraction(1, 5), 0.1, 1 / 3]))
    return mu, c


def assert_identical(got, want):
    """Equal values of the same types, elementwise through tuples."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    else:
        assert got == want


def assert_same_measure(got, want):
    assert got.base.mode == want.base.mode
    assert_identical(tuple(got.base.points), tuple(want.base.points))
    assert got.base.as_array().tobytes() == want.base.as_array().tobytes()
    assert_identical(got.masses, want.masses)


def assert_matches_reference(mu, c, max_depth=8):
    try:
        want = reference_split(mu, c=c, max_depth=max_depth)
    except DepthExhausted:
        with pytest.raises(DepthExhausted):
            stopping_time_split(mu, c=c, max_depth=max_depth)
        return None
    got = stopping_time_split(mu, c=c, max_depth=max_depth)
    for name in ("level", "child_indices", "sep_coordinate", "piece_masses", "cube_origin",
                 "threshold", "sep_distance", "cube_side", "parent_mass"):
        assert_identical(getattr(got, name), getattr(want, name))
    for g, w in zip(got.pieces, want.pieces):
        assert_same_measure(g, w)
    for g, w in zip(orient_split_for_slopes(got), reference_orientation(want)):
        assert_same_measure(g, w)
    return got


class TestSplitAgainstReference:
    """The integer-array split and orientation against the Fraction reference."""

    @given(split_measures())
    def test_matches_reference(self, drawn):
        assert_matches_reference(*drawn)

    def test_descends_before_splitting(self):
        # the whole set sits in child (1, 2) of the unit square
        pts = [(Fraction(1, 4) + Fraction(i, 21), Fraction(1, 2) + Fraction(j, 21))
               for i in range(6) for j in range(6)]
        split = assert_matches_reference(uniform_weights(PointSet.from_points(pts)), Fraction(1, 16))
        assert split.level == 2

    def test_float_child_mass_sums_in_atom_order(self):
        # summed in atom order the first child holds 1.0000000000000002,
        # in reverse order 0.9999999999999999 (both scaled by 1/2)
        pts = [(0.01 * i, 0.01) for i in range(1, 5)] + [(0.99, 0.99 - 0.01 * i) for i in range(1, 5)]
        masses = (0.05, 0.1, 0.15, 0.2) * 2
        mu = WeightedPointSet(base=PointSet.from_points(pts), masses=masses)
        split = assert_matches_reference(mu, 0.25)
        assert split.piece_masses[0] == ((0.05 + 0.1) + 0.15) + 0.2 != ((0.2 + 0.15) + 0.1) + 0.05

    @pytest.mark.parametrize("kind", ["uniform", "weighted"])
    def test_denominator_beyond_int64_form(self, kind):
        big = (1 << 31) + 11
        ks = [0, 3, 7, big // 40, big // 20, big // 9, big // 8]
        base = PointSet.from_points([(Fraction(i, big), Fraction(j, big)) for i in ks for j in ks])
        assert base.scaled_integer() is None
        masses = [Fraction(1 + (i % 3), 2 * len(base)) for i in range(len(base))]
        masses[-1] = 1 - sum(masses[:-1])
        mu = uniform_weights(base) if kind == "uniform" else WeightedPointSet(base, tuple(masses))
        split = assert_matches_reference(mu, Fraction(1, 16))
        assert split.level > 1


class TestFrostmanConstant:
    def test_uniform_grid_exactly_one(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=3, d=2)))
        assert frostman_constant(mu, 2, 2) == 1.0

    def test_single_atom_growth(self):
        mu = single_atom(Fraction(1, 3), Fraction(1, 3))
        assert frostman_constant(mu, 1, 3) == pytest.approx(2.0**3)
        assert frostman_constant(mu, 2, 3) == pytest.approx(2.0**6)

    def test_lattice_constant_stays_bounded(self):
        mu = uniform_weights(lattice_set(LatticeSpec(q=8, d=2)))
        assert frostman_constant(mu, 2, 3) <= 4.0


class TestSlopeDensity:
    def boundary_pair(self):
        m1 = single_atom(Fraction(3, 4), 1)
        m2 = single_atom(Fraction(0), 0)
        return m1, m2

    def test_single_pair_window(self):
        m1, m2 = self.boundary_pair()
        field = slope_density(m1, m2, eps=1 / 16, pitch=1 / 16)
        assert field.values.tolist() == [0, 0, 0, 16, 16, 0, 0, 0]
        assert field.integral == 2.0

    def test_closed_boundary_counted(self):
        m1 = single_atom(Fraction(9, 16), 1)
        m2 = single_atom(Fraction(0), 0)
        field = slope_density(m1, m2, eps=1 / 8, pitch=1 / 8)
        assert field.centers.tolist() == [0.5625, 0.6875, 0.8125, 0.9375]
        assert field.values.tolist() == [8.0, 8.0, 0.0, 0.0]

    def test_off_chart_slope_empty(self):
        m1 = single_atom(Fraction(1, 4), 1)
        m2 = single_atom(Fraction(0), 0)
        field = slope_density(m1, m2, eps=1 / 16, pitch=1 / 16)
        assert field.values.tolist() == [0.0] * 8

    def test_swap_symmetry(self):
        split = stopping_time_split(cantor_measure(2), c=Fraction(1, 16))
        upper, lower = orient_split_for_slopes(split)
        a = slope_density(upper, lower, eps=1 / 8)
        b = slope_density(lower, upper, eps=1 / 8)
        assert a.values.tolist() == b.values.tolist()
        assert a.integral == b.integral

    def test_shared_final_coordinate_rejected(self):
        m1 = single_atom(Fraction(1, 4), Fraction(1, 2))
        m2 = single_atom(Fraction(3, 4), Fraction(1, 2))
        with pytest.raises(PreconditionFailed):
            slope_density(m1, m2, eps=1 / 8)

    def test_window_validation(self):
        m1, m2 = self.boundary_pair()
        with pytest.raises(PreconditionFailed):
            slope_density(m1, m2, eps=0.0)
        with pytest.raises(PreconditionFailed):
            slope_density(m1, m2, eps=1 / 16, pitch=1 / 4)

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16])
    def test_matches_brute_force_scan(self, eps):
        split = stopping_time_split(cantor_measure(2), c=Fraction(1, 16))
        upper, lower = orient_split_for_slopes(split)
        field = slope_density(upper, lower, eps=eps, pitch=eps)
        centers = [
            (Fraction(1, 2) + Fraction(2 * i + 1, 4 * len(field.centers)),)
            for i in range(len(field.centers))
        ]
        sup1 = list(upper.base.points)
        sup2 = list(lower.base.points)
        masses = brute_window_masses(
            sup1,
            list(upper.masses),
            sup2,
            list(lower.masses),
            centers,
            Fraction(eps).limit_denominator(1 << 30),
        )
        want = [float(m) / eps for m in masses]
        for got, expect in zip(field.values.tolist(), want):
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_consistency_with_chart_mass(self):
        split = stopping_time_split(cantor_measure(3), c=Fraction(1, 16))
        upper, lower = orient_split_for_slopes(split)
        chart = slope_chart_pair_mass(upper, lower)
        for eps in (1 / 8, 1 / 16):
            field = slope_density(upper, lower, eps=eps)
            ratio = field.integral / chart
            assert 2 * (1 - 4 * eps) - 0.05 <= ratio <= 2 * (1 + 4 * eps) + 0.05

    def test_chart_mass_matches_brute_force(self):
        split = stopping_time_split(cantor_measure(2), c=Fraction(1, 16))
        upper, lower = orient_split_for_slopes(split)
        got = slope_chart_pair_mass(upper, lower)
        want = brute_chart_mass(
            list(upper.base.points),
            list(upper.masses),
            list(lower.base.points),
            list(lower.masses),
        )
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_boundary_pair_chart_mass_exact(self):
        m1, m2 = self.boundary_pair()
        assert slope_chart_pair_mass(m1, m2) == 1.0


class TestSlopeBandSweep:
    def test_depth_four_cantor_report(self):
        report = slope_band_sweep(
            cantor_measure(4), CANTOR_S, [2.0**-k for k in range(3, 7)]
        )
        assert report.epsilons == [0.125, 0.0625, 0.03125, 0.015625]
        expected = [1.950330218, 1.967389612, 1.975126194, 1.969592917]
        for got, want in zip(report.integrals, expected):
            assert got == pytest.approx(want, abs=1e-9)
        assert report.reference_level == pytest.approx(1.969592917, abs=1e-9)
        assert report.band_constant == pytest.approx(0.0330076, rel=1e-4)
        assert report.split_level == 1
        assert report.chart_mass == pytest.approx(0.507717696, rel=1e-9)
        assert report.denominator_gap == pytest.approx(0.50390625)
        assert report.exponent_predicted == pytest.approx(CANTOR_S - 1)

    def test_duplicate_epsilons_deduplicated(self):
        report = slope_band_sweep(
            cantor_measure(3), CANTOR_S, [1 / 8, 0.125, 1 / 16]
        )
        assert report.epsilons == [0.125, 0.0625]

    def test_single_epsilon_no_fit(self):
        report = slope_band_sweep(cantor_measure(3), CANTOR_S, [1 / 8])
        assert report.band_constant is None
        assert report.deviation_exponent is None
        assert report.fit is None

    def test_empty_sweep_rejected(self):
        with pytest.raises(PreconditionFailed):
            slope_band_sweep(cantor_measure(3), CANTOR_S, [])

    def test_concentrated_measure_propagates(self):
        mu = WeightedPointSet(
            base=PointSet.from_points([(0.5, 0.5), (0.500001, 0.500001)]),
            masses=(0.5, 0.5),
        )
        with pytest.raises(DepthExhausted):
            slope_band_sweep(mu, 1.5, [1 / 8], max_depth=5)
