"""Weighted measures, energies, cube splits, and slope densities."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from conftest import (
    brute_chart_mass,
    brute_energy,
    brute_window_masses,
    on_both_paths,
    outcome,
    product_point_sets,
    random_rational_points,
)
from reference_split import reference_orientation, reference_split
import reference_generators
import reference_pairs
import reference_window
from dirlab import (
    DepthExhausted,
    LatticeSpec,
    NotSeparated,
    PointSet,
    PreconditionFailed,
    SizeLimit,
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
from dirlab import geometry, measure
from dirlab.directions import DENSE_CELL_LIMIT
from dirlab.geometry import MAX_DENOMINATOR

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


@st.composite
def weighted_sets(draw):
    """Measures of every mass form, with their kind: uniform on exact and
    float bases, non-uniform exact with denominators within and past 2^31,
    float masses, and masses mixing Fractions and floats."""
    n = draw(st.integers(1, 12))
    pts = [(Fraction(i, n), Fraction(i * i, n * n)) for i in range(n)]
    kind = draw(st.sampled_from(["uniform", "uniform float", "exact", "wide", "float", "mixed"]))
    if kind.startswith("uniform"):
        base = PointSet.from_points(pts, mode="float" if kind == "uniform float" else "exact")
        return uniform_weights(base), kind, None
    units = draw(st.lists(st.integers(0, 2**40 if kind == "wide" else 9), min_size=n, max_size=n))
    units[0] += 2**32 if kind == "wide" else 1
    total = sum(units)
    masses = tuple(u / total if kind == "float" or (kind == "mixed" and i % 2) else Fraction(u, total)
                   for i, u in enumerate(units))
    return WeightedPointSet(PointSet.from_points(pts), masses), kind, masses


class TestMassForm:
    """One stored form (weights, denominator) behind every mass view."""

    @given(weighted_sets())
    def test_mass_array_is_float_of_each_mass(self, drawn):
        mu, kind, given_masses = drawn
        want = np.array([float(m) for m in mu.masses], dtype=np.float64)
        assert mu.mass_array().tobytes() == want.tobytes()
        if given_masses is not None:
            assert mu.masses is given_masses
        weights, denom = mu._weights
        if kind in ("uniform float", "float") or (kind == "mixed" and len(mu) > 1):
            assert weights.dtype == np.float64 and denom == 1.0 and not mu.exact
        else:
            assert mu.exact and weights.sum() == denom
            assert math.gcd(denom, *weights.tolist()) == 1
            assert (weights.dtype == np.int64) == (denom <= MAX_DENOMINATOR)
            assert all(type(m) is Fraction for m in mu.masses)

    def test_forms_of_known_measures(self):
        exact = PointSet.from_points([(0, 0), (1, 1), (2, 0)])
        floats = PointSet.from_points([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        mu = uniform_weights(exact)
        assert mu._weights[0].tolist() == [1, 1, 1] and mu._weights[1] == 3
        assert mu.masses == (Fraction(1, 3),) * 3 and len({id(m) for m in mu.masses}) == 1
        mu = uniform_weights(floats)
        assert mu.masses == (1 / 3,) * 3 and all(type(m) is float for m in mu.masses)
        mu = WeightedPointSet(exact, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert mu._weights[0].tolist() == [2, 1, 1] and mu._weights[1] == 4
        big = 2**61 - 1
        mu = WeightedPointSet(exact, (Fraction(1, big), Fraction(2, big), Fraction(big - 3, big)))
        assert mu._weights[0].dtype == object and mu._weights[1] == big

    @pytest.mark.parametrize("kind", ["uniform", "weighted", "float masses", "float"])
    def test_split_pieces_keep_mass_types(self, kind):
        base = lattice_set(LatticeSpec(q=4, d=2))
        if kind == "float":
            base = PointSet.from_points([tuple(float(v) for v in p) for p in base.points])
        units = [1 + i % 3 for i in range(len(base))]
        total = sum(units)
        masses = tuple(Fraction(u, total) if kind == "weighted" else u / total for u in units)
        mu = uniform_weights(base) if kind == "uniform" else WeightedPointSet(base, masses)
        split = stopping_time_split(mu, c=Fraction(1, 16))
        want = reference_split(mu, c=Fraction(1, 16))
        piece_type = Fraction if kind in ("uniform", "weighted") else float
        for got_piece, want_piece, piece_mass in zip(split.pieces, want.pieces, split.piece_masses):
            assert type(piece_mass) is piece_type
            assert got_piece.masses == want_piece.masses
            assert all(type(m) is piece_type for m in got_piece.masses)
            assert (got_piece.uniform, got_piece.exact) == (want_piece.uniform, want_piece.exact)
            assert got_piece.exact == (piece_type is Fraction)


@st.composite
def raw_weights(draw):
    """Weights and a denominator for _from_weights: int64, Python ints past
    int64 and floats; negative entries, totals off one, empty atoms, and a
    factor shared by the denominator and every weight."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["int64", "object", "float"]))
    odd = draw(st.sampled_from([None] * 6 + [-1.0, math.inf, math.nan]))  # one bad weight, sometimes
    if kind == "float":
        weights = draw(st.lists(st.floats(0, 4) | st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        denom = draw(st.sampled_from([sum(weights), 1.0, 3.0]))
        weights[-1] = weights[-1] if odd is None else odd
        return np.array(weights, dtype=np.float64), denom or 1.0, n
    big = 1 << (70 if kind == "object" else 30)
    weights = draw(st.lists(st.integers(0, 5) | st.integers(0, big), min_size=n, max_size=n))
    weights[-1] = -weights[-1] - 1 if odd == -1 else weights[-1]
    factor = draw(st.sampled_from([1, 2, 6, 1 << 40]))
    off = draw(st.sampled_from([0, 0, 0, 1, -1]))
    denom = max(1, sum(weights) + off) * factor
    weights = [w * factor for w in weights]
    int64 = all(abs(w) < 1 << 63 for w in weights) and kind == "int64"
    return np.array(weights, dtype=np.int64 if int64 else object), denom, n


class TestWeightsAgainstReference:
    """WeightedPointSet._from_weights against its reference form (the
    gcd of every weight, min and max read after it, the total checked as a
    Fraction): the same stored weights, denominator and flags, and the same
    inputs refused with the same messages."""

    @given(raw_weights(), st.integers(0, 1))
    def test_matches_reference(self, drawn, extra):
        weights, denom, n = drawn
        base = PointSet._from_scaled(np.arange(2 * (n + extra)).reshape(-1, 2), 1)  # extra: one atom too many
        got = outcome(WeightedPointSet._from_weights, base, weights.copy(), denom)
        want = outcome(reference_generators.from_weights, base, weights.copy(), denom)
        if isinstance(want, tuple):
            assert got == want
            return
        (g, g_denom), (w, w_denom) = got._weights, want._weights
        assert g.dtype == w.dtype and type(g_denom) is type(w_denom) and g_denom == w_denom
        assert g.tolist() == w.tolist() and {type(v) for v in g.tolist()} == {type(v) for v in w.tolist()}
        assert (got.exact, got.uniform, got.base, got.thickening_radius) == (
            want.exact, want.uniform, want.base, want.thickening_radius)
        assert got.masses == want.masses


class TestBadExponent:
    """A non-finite or non-positive s is refused before any arithmetic."""

    @pytest.mark.parametrize("s", [0, -1, Fraction(-1, 2), math.nan, math.inf, -math.inf])
    def test_refused(self, s):
        P = lattice_set(LatticeSpec(q=2, d=2))
        calls = [
            lambda: uniform_weights(P, s=s),
            lambda: energy_integral(uniform_weights(P), s),
            lambda: is_adaptable(P, s, bound=5.0),
            lambda: is_adaptable(P, s),
            lambda: slope_band_sweep(cantor_measure(2), s, [1 / 8]),
            lambda: discrete_frostman(P, s),
        ]
        for call in calls:
            with pytest.raises(PreconditionFailed):
                call()

    @pytest.mark.parametrize("s", [0, -1, math.nan, math.inf, -math.inf])
    def test_frostman_constant_refuses(self, s):
        mu = uniform_weights(lattice_set(LatticeSpec(q=3, d=2)))
        with pytest.raises(PreconditionFailed, match="finite and positive"):
            frostman_constant(mu, s, 3)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_default_energy_bound_refuses_non_finite(self, s):
        with pytest.raises(PreconditionFailed, match="finite and positive"):
            default_energy_bound(2, s)

    @pytest.mark.parametrize("s", [1, 0, -1])
    def test_default_energy_bound_keeps_critical_message(self, s):
        with pytest.raises(PreconditionFailed, match="critical exponent"):
            default_energy_bound(2, s)


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

    def test_exact_power_past_the_bit_limit_refused(self):
        # lcm(r^2) has 119 bits here: s = 2202 forms 1101 * 119 = 131,019
        # bits, inside the limit; s = 2204 and s = 10^6 are refused unformed
        mu = cantor_measure(2)
        assert energy_integral(mu, 2202) > 0
        for s in (2204, 10**6):
            with pytest.raises(SizeLimit, match=f"{measure.ENERGY_BIT_LIMIT}-bit limit"):
                energy_integral(mu, s)

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


class TestFloatRangeRefusals:
    """Float work on exact points past geometry.FLOAT_LIMIT = 2^500 is refused,
    as coverage and the subset refuse it; exact even-s energies stay exact."""

    HUGE = [(10**400, 0), (0, 1), (1, 1)]
    LARGE = [(10**200, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("pts", [HUGE, LARGE], ids=["1e400", "1e200"])
    @pytest.mark.parametrize("s", [1, 1.5, 3])
    def test_float_energy_refuses(self, pts, s):
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            energy_integral(uniform_weights(PointSet.from_points(pts)), s)

    @pytest.mark.parametrize("pts", [HUGE, LARGE], ids=["1e400", "1e200"])
    def test_even_energy_stays_exact(self, pts):
        got = energy_integral(uniform_weights(PointSet.from_points(pts)), 2)
        assert got == brute_energy(pts, [Fraction(1, 3)] * 3, 2)

    def test_float_energy_just_below_the_limit(self):
        pts = [(2**499, 0), (0, 1), (1, 1)]
        got = energy_integral(uniform_weights(PointSet.from_points(pts)), 1.5)
        assert got == pytest.approx(brute_energy(pts, [1 / 3] * 3, 1.5), rel=1e-12)
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            energy_integral(uniform_weights(PointSet.from_points([(2**500, 0), (0, 1), (1, 1)])), 1.5)

    def test_separation_refuses(self):
        ps = PointSet.from_points(self.HUGE)
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            discrete_frostman(ps, 1)
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            is_adaptable(ps, 1.5, bound=5)

    def test_slope_windows_refuse(self):
        # the windows read the float view, which refuses coordinates at or past 2^500
        mu1 = uniform_weights(PointSet.from_points([(0, 0), (1, 10**400)]))
        mu2 = uniform_weights(PointSet.from_points([(0, -1), (1, -2)]))
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            slope_density(mu1, mu2, 0.1)
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            mu1.base.as_array()

    @pytest.mark.parametrize("axes", [([0, 2**600], [2, 3]), ([0, 1], [2, 2**500])], ids=["first", "last"])
    def test_slope_windows_refuse_on_product_supports(self, axes):
        # uniform product pairs read their plans' axes, never the float view
        mu1 = uniform_weights(PointSet.from_points(list(itertools.product(*axes))))
        mu2 = uniform_weights(PointSet.from_points(list(itertools.product([0, 1], [-1, 0]))))
        for call in (lambda: slope_chart_pair_mass(mu1, mu2), lambda: slope_density(mu1, mu2, 0.1)):
            with pytest.raises(PreconditionFailed, match="2\\^500"):
                call()


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

    @given(product_point_sets(max_axis=4, modes=("exact",)), st.integers(0, 2**16))
    def test_exact_base_float_energy_matches_brute_force(self, ps, seed):
        # weighted pairs always take the pair loop; uniform ones run on both paths
        rng = random.Random(seed)
        units = [rng.randint(1, 5) for _ in range(len(ps))]
        masses = [Fraction(u, sum(units)) for u in units]
        mu = WeightedPointSet(base=ps, masses=masses)
        want = brute_energy(list(ps.points), masses, 1.5)
        assert energy_integral(mu, 1.5) == pytest.approx(want, rel=1e-12)
        want = brute_energy(list(ps.points), [Fraction(1, len(ps))] * len(ps), 1.5)
        for got in on_both_paths(lambda P: energy_integral(uniform_weights(P), 1.5), ps):
            assert got == pytest.approx(want, rel=1e-12)

    def test_points_equal_in_float_stay_apart(self):
        ps = PointSet.from_points([(Fraction(1, 2), 0), (Fraction(1, 2) + Fraction(1, 2**80), 0)])
        assert ps.as_array()[0].tolist() == ps.as_array()[1].tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert energy_integral(uniform_weights(ps), 1) == 2.0**79
            report = is_adaptable(ps, 1, bound=5)
        assert report.energy == 2.0**79
        assert not report.passed


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

    def test_nan_bound_refused(self):
        with pytest.raises(PreconditionFailed, match="nan"):
            is_adaptable(PointSet.from_points([(0, 0), (1, 0)]), 1.5, bound=float("nan"))

    def test_energy_past_float64_refused(self):
        # two points 10^-6 apart: the exact s = 100 energy is 10^600 / 2
        ps = PointSet.from_points([(0, 0), (Fraction(1, 10**6), 0)])
        assert energy_integral(uniform_weights(ps), 100) == Fraction(10**600, 2)
        with pytest.raises(SizeLimit, match="float64"):
            is_adaptable(ps, 100, bound=5.0)
        assert is_adaptable(ps, 50, bound=5.0).energy == 5e299

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
def split_measures(draw, dims=(2, 3), max_zoom=2):
    """Small measures in the unit cube for the split oracle, of a dimension
    in dims.

    Points k/den (den mostly not a power of 4, k = den giving x = 1) are
    packed into one cube of side 4^-zoom, zoom <= max_zoom, so the split
    descends zoom levels before it can stop; points on the far face of that
    cube sit on a child boundary.  Masses are uniform exact, non-uniform
    exact (zeros allowed), float on an exact base, or float on a float base.
    """
    d = draw(st.sampled_from(dims))
    den = draw(st.sampled_from([3, 5, 6, 7, 8, 10, 12, 16, 20, 24, 48]))
    zoom = draw(st.integers(0, max_zoom))
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


@st.composite
def tied_children(draw):
    """Children of the unit cube at level one, all of one mass, so every
    pair of children that are wide in equally many coordinates ties on the
    split's full score; drawn until at least two qualifying pairs tie.
    Each child holds the atoms 1/4 and 3/4 of the way along its diagonal."""
    d = draw(st.sampled_from([2, 3]))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=3, max_size=8, unique=True))
    wide = [sum(abs(x - y) >= 2 for x, y in zip(a, b)) for a, b in itertools.combinations(cells, 2)]
    assume(max(wide) > 0 and wide.count(max(wide)) >= 2)
    return cells


class TestSplitTiesAgainstReference:
    """Qualifying pairs that tie on (wide, min mass, summed mass) go to the
    smallest (a, b), on every kind of mass array."""

    @pytest.mark.parametrize("kind, dtype", [("int64", np.int64), ("float", np.float64), ("object", object)])
    @given(tied_children())
    def test_ties_go_to_the_smallest_pair(self, kind, dtype, cells):
        # per child the masses 1/(kq) and (q-1)/(kq): q past 2^31 leaves the int64 form
        k, q = len(cells), (1 << 31) + 11 if kind == "object" else 3
        points = [tuple(Fraction(4 * c + t, 16) for c in cell) for cell in cells for t in (1, 3)]
        masses = [Fraction(1, k * q), Fraction(q - 1, k * q)] * k
        if kind == "float":
            points = [tuple(float(v) for v in p) for p in points]
            masses = [float(m) for m in masses]
        mu = WeightedPointSet(PointSet.from_points(points), tuple(masses))
        assert mu._weights[0].dtype == dtype
        split = assert_matches_reference(mu, Fraction(1, 4**len(cells[0])))
        assert split.level == 1


class TestChildMassesAgainstReference:
    """The split's child masses from dense counts, level by level against
    the grouped sum of the same codes and weights, and the whole split
    against the Fraction reference; past DENSE_CELL_LIMIT children the
    grouped sum itself runs."""

    @staticmethod
    def split_checking_levels(mu, c, max_depth=8):
        """assert_matches_reference(mu, c, max_depth) with every level's
        child masses checked; returns the split and the grouped sums the
        split ran itself."""
        grouped, child_masses = [], measure._child_masses

        def checked(code, weights, d, uniform):
            codes, sums = child_masses(code, weights, d, uniform)
            want_codes, want_sums = geometry._grouped_sum(code, weights)[:2]
            assert codes.dtype == want_codes.dtype and codes.tolist() == want_codes.tolist()
            assert sums.dtype == want_sums.dtype and sums.tolist() == want_sums.tolist()
            return codes, sums

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure, "_child_masses", checked)
            mp.setattr(measure, "_grouped_sum", lambda *args: grouped.append(args) or geometry._grouped_sum(*args))
            split = assert_matches_reference(mu, c, max_depth)
        return split, grouped

    @given(split_measures(dims=(2, 3, 4), max_zoom=3))
    def test_dense_counts_match(self, drawn):
        split, grouped = self.split_checking_levels(*drawn)
        assert grouped == []
        event(f"level {split and split.level}")

    @pytest.mark.parametrize("kind", ["uniform", "weighted", "float"])
    def test_descends_to_level_three(self, kind):
        # every atom sits in child (1, 2, 0) of the unit cube, then in child (2, 1, 3) of that
        corner = [Fraction(1, 4) + Fraction(2, 16), Fraction(2, 4) + Fraction(1, 16), Fraction(3, 16)]
        pts = [tuple(x + Fraction(k, 160) for x, k in zip(corner, p))
               for p in itertools.product(range(0, 10, 3), repeat=3)]
        mu = self.measure_of(pts, kind)
        split, _ = self.split_checking_levels(mu, Fraction(1, 64))
        assert split.level == 3

    @staticmethod
    def measure_of(pts, kind):
        if kind == "uniform":
            return uniform_weights(PointSet.from_points(pts))
        masses = [Fraction(1 + i % 4) for i in range(len(pts))]
        masses = [m / sum(masses) for m in masses]
        if kind == "float":
            return WeightedPointSet(PointSet.from_points([tuple(map(float, p)) for p in pts]), tuple(map(float, masses)))
        return WeightedPointSet(PointSet.from_points(pts), tuple(masses))

    @pytest.mark.parametrize("kind", ["uniform", "weighted", "float"])
    def test_eleven_dimensions_take_the_grouped_sum(self, kind):
        # 4^11 children pass DENSE_CELL_LIMIT; the atoms share child 0 at level one
        assert 4**10 <= DENSE_CELL_LIMIT < 4**11
        rng = random.Random(11)
        pts = sorted({tuple(Fraction(rng.randint(0, 7), 32) for _ in range(11)) for _ in range(12)})
        split, grouped = self.split_checking_levels(self.measure_of(pts, kind), Fraction(1, 64))
        assert split.level == 2 and len(grouped) == 2


class TestOrientedPieceForm:
    """Exact oriented pieces are built from checked pieces without a second
    check, yet hold the rows, dtype and denominator _from_scaled gives the
    same rows; float pieces are checked again."""

    @staticmethod
    def assert_checked_form(P):
        rows, denom = P._scaled
        want_rows, want_denom = PointSet._from_scaled(rows.copy(), denom)._scaled
        assert want_denom == denom and want_rows.dtype == rows.dtype
        assert want_rows.tolist() == rows.tolist()

    @given(split_measures(dims=(2, 3, 4)))
    def test_split_pieces(self, drawn):
        mu, c = drawn
        assume(mu.base.mode == "exact")
        try:
            split = stopping_time_split(mu, c=c)
        except DepthExhausted:
            assume(False)
        for piece in orient_split_for_slopes(split):
            self.assert_checked_form(piece.base)

    @pytest.mark.parametrize("mu", [cantor_measure(3), cantor_measure(4)], ids=["depth3", "depth4"])
    def test_cantor_pieces(self, mu):
        for piece in orient_split_for_slopes(stopping_time_split(mu, c=Fraction(1, 16))):
            self.assert_checked_form(piece.base)

    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.sampled_from([0, 1, 7, -(1 << 40), 1 << 40, (1 << 45) + 3])] * d),
                 min_size=1, max_size=8, unique=True),
        st.sampled_from([1, 3, 1 << 31, (1 << 31) + 11]),
        st.permutations(range(d)),
        st.lists(st.booleans(), min_size=d, max_size=d))))
    def test_relabel_any_exact_set(self, case):
        # reflections can take rows into or out of the int64 form
        raw, den, perm, flips = case
        P = PointSet.from_points([tuple(Fraction(v, den) for v in p) for p in raw])
        got = P._relabel(list(perm), flips)
        self.assert_checked_form(got)
        rows = P._scaled[0].astype(object)[:, list(perm)]  # Python ints: no entry wraps
        rows[:, flips] = P._scaled[1] - rows[:, flips]
        assert got == PointSet._from_scaled(rows, P._scaled[1])

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_only_float_pieces_are_checked_again(self, monkeypatch, mode):
        pts = [tuple(Fraction(k, 12) for k in p) for p in itertools.product(range(0, 13, 3), repeat=2)]
        mu = uniform_weights(PointSet.from_points(pts, mode=mode))
        split = stopping_time_split(mu, c=Fraction(1, 16))
        calls, build = [], PointSet._from_scaled
        monkeypatch.setattr(PointSet, "_from_scaled", classmethod(lambda cls, *args: calls.append(args) or build(*args)))
        orient_split_for_slopes(split)
        assert len(calls) == (2 if mode == "float" else 0)


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

    @pytest.mark.parametrize("s, depth", [(3, 341), (1.5, 682)])
    def test_overflowing_side_factor_refused(self, s, depth):
        # (2^depth)^s is 2^1023 at the deepest depth float64 holds, past it one level on
        mu = uniform_weights(lattice_set(LatticeSpec(q=3, d=2)))
        assert frostman_constant(mu, s, depth) == 2.0**1023 / 16
        for deeper in (depth + 1, 2000):
            with pytest.raises(PreconditionFailed, match="overflows float64"):
                frostman_constant(mu, s, deeper)


def oracle_frostman(mu, s, depth):
    """frostman_constant with Fraction coordinates: the cube of x at level j
    is clip(floor(x * 2^j), 0, 2^j - 1), masses summed as Fractions."""
    masses = [Fraction(m) for m in mu.masses]
    worst = float(sum(masses))
    for j in range(1, depth + 1):
        m = 1 << j
        cubes = {}
        for p, mass in zip(mu.base.points, masses):
            cube = tuple(min(m - 1, max(0, math.floor(Fraction(c) * m))) for c in p)
            cubes[cube] = cubes.get(cube, 0) + mass
        worst = max(worst, float(max(cubes.values())) * float(m) ** s)
    return worst


@st.composite
def dyadic_measures(draw):
    """Measures with masses k/64, so float sums are exact, on points at the
    dyadic cuts k/8, some outside the unit cube; exact points also get
    twins within 2^-80 of a cut, which float64 rounds onto it."""
    exact = draw(st.booleans())
    d = draw(st.integers(2, 3))
    coord = st.integers(-2, 10).map(lambda k: Fraction(k, 8))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8, unique=True))
    if exact:
        shifts = st.tuples(*[st.sampled_from([-1, 0, 1])] * d)
        twins = [tuple(c + e * Fraction(1, 1 << 80) for c, e in zip(p, draw(shifts))) for p in pts]
        pts = list(dict.fromkeys(pts + twins))
    else:
        pts = [tuple(float(c) for c in p) for p in pts]
    cuts = sorted(draw(st.lists(st.integers(0, 64), min_size=len(pts) - 1, max_size=len(pts) - 1)))
    masses = [Fraction(b - a, 64) for a, b in zip([0] + cuts, cuts + [64])]
    base = PointSet.from_points(pts, mode="exact" if exact else "float")
    return WeightedPointSet(base, masses if exact else [float(m) for m in masses])


class TestFrostmanAgainstReference:
    """Dyadic cubes read on the stored rows, checked against Fractions."""

    @given(dyadic_measures(), st.sampled_from([0.5, 1, 2.5]), st.integers(1, 6))
    def test_matches_fraction_oracle(self, mu, s, depth):
        assert frostman_constant(mu, s, depth) == oracle_frostman(mu, s, depth)

    def test_point_just_below_a_cut(self):
        # float64 rounds 1/2 - 2^-80 up to the cut 1/2
        pts = [(Fraction(1, 2) - Fraction(1, 1 << 80), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 8)),
               (Fraction(1, 4), Fraction(1, 8)), (Fraction(7, 8), Fraction(7, 8))]
        mu = WeightedPointSet(PointSet.from_points(pts), [Fraction(1, 4)] * 4)
        assert frostman_constant(mu, 1, 1) == 1.5

    @pytest.mark.parametrize("wide", [False, True], ids=["int64", "python-int"])
    def test_deep_levels_do_not_overflow(self, wide):
        # at depth 90 floor(x * 2^j) is past int64; Python-int rows past 2^40
        den = (1 << 61) - 1 if wide else 1 << 29
        pts = [(Fraction(1, 3), Fraction(k, den)) for k in (1, 2, 5)] + [(Fraction(1, 2), Fraction(1, 2))]
        mu = uniform_weights(PointSet.from_points(pts))
        assert (mu.base.scaled_integer() is None) == wide
        assert frostman_constant(mu, 1, 90) == oracle_frostman(mu, 1, 90)

    def test_cube_numbers_past_int64(self):
        # eight atoms in d = 62, in eight level-1 cubes: a cube number 4..7
        # with 62 bits appended passes int64, and wrapped would merge cubes
        pts = [tuple(Fraction((i >> k) & 1, 2) for k in range(3)) + (0,) * 59 for i in range(8)]
        mu = uniform_weights(PointSet.from_points(pts))
        assert frostman_constant(mu, 3, 2) == oracle_frostman(mu, 3, 2) == 8.0


@st.composite
def float_mass_measures(draw):
    """Measures with non-dyadic float masses on points k/10 packed into the
    cube [0, 2^-zoom]^d, several atoms to a cube, so the order in which a
    cube's masses are added shows."""
    d, zoom = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    coord = st.integers(0, 10).map(lambda k: Fraction(k, 10 << zoom))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=8, max_size=40, unique=True))
    if draw(st.booleans()):
        pts = [tuple(float(c) for c in p) for p in pts]
    units = draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
    return WeightedPointSet(PointSet.from_points(pts), [u / sum(units) for u in units])


def atom_order_frostman(mu, s, depth):
    """frostman_constant with each cube's float masses added in atom order,
    cubes found by a Fraction floor; level 0 is the measure's total mass."""
    worst = float(mu.total_mass())
    for j in range(1, depth + 1):
        m = 1 << j
        cubes = {}
        for p, mass in zip(mu.base.points, mu.mass_array().tolist()):
            cube = tuple(min(m - 1, max(0, math.floor(Fraction(c) * m))) for c in p)
            cubes[cube] = cubes.get(cube, 0.0) + mass
        worst = max(worst, max(cubes.values()) * (2.0**j) ** s)
    return worst


class TestFrostmanFloatSumsAgainstReference:
    """Float cube masses are sums in atom order, bit for bit."""

    @given(float_mass_measures(), st.sampled_from([0.5, 1, 2.5]), st.integers(1, 5))
    def test_matches_atom_order_sums(self, mu, s, depth):
        assert frostman_constant(mu, s, depth).hex() == atom_order_frostman(mu, s, depth).hex()


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


@st.composite
def separated_product_pairs(draw):
    """Two uniform measures on product supports, the first above the second
    on the last axis; exact or float, with axis sizes that are all powers of
    two or arbitrary."""
    d = draw(st.sampled_from((2, 3)))
    den = draw(st.integers(5, 24))
    dyadic = draw(st.booleans())
    size = st.sampled_from((1, 2, 4)) if dyadic else st.integers(1, 5)
    mode = draw(st.sampled_from(("exact", "float")))

    def support(last_lo, last_hi):
        axes = [draw(st.lists(st.integers(-den, den), min_size=k, max_size=k, unique=True))
                for k in (draw(size) for _ in range(d - 1))]
        k = draw(size)
        axes.append(draw(st.lists(st.integers(last_lo, last_hi), min_size=k, max_size=k, unique=True)))
        pts = [tuple(Fraction(v, den) for v in p) for p in itertools.product(*axes)]
        return uniform_weights(PointSet.from_points(pts, mode=mode))

    return support(1, den), support(-den, 0), dyadic


class TestWindowPaths:
    """The product window against the scan window it replaces."""

    @given(separated_product_pairs(), st.integers(1, 6), st.sampled_from((1 / 16, 1 / 4, 1)))
    def test_product_matches_scan(self, pair, g, eps):
        mu1, mu2, dyadic = pair
        centers = -1 + (np.arange(g) + 0.5) * (2 / g)
        product = measure._window_masses_product(mu1, mu2, [(centers - eps, centers + eps)])
        (scan,) = measure._window_masses_scan(mu1, mu2, [(centers - eps, centers + eps)])
        assert product is not None
        (product,) = product
        if dyadic:
            assert product.tolist() == scan.tolist()
        else:
            np.testing.assert_allclose(product, scan, rtol=1e-12, atol=0)

    def test_small_uniform_product_pair_takes_product_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scan window ran")

        quarter = [Fraction(0), Fraction(1, 4)]
        upper = uniform_weights(PointSet.from_points(itertools.product(quarter, [Fraction(3, 4), 1])))
        lower = uniform_weights(PointSet.from_points(itertools.product(quarter, quarter)))
        want = brute_chart_mass(list(upper.base.points), list(upper.masses),
                                list(lower.base.points), list(lower.masses))
        monkeypatch.setattr(measure, "_window_masses_scan", refuse)
        assert slope_chart_pair_mass(upper, lower) == float(want)
        weighted = WeightedPointSet(base=lower.base, masses=[Fraction(1, 8)] * 2 + [Fraction(3, 8)] * 2)
        with pytest.raises(AssertionError, match="scan window"):
            slope_chart_pair_mass(upper, weighted)


@st.composite
def window_cases(draw):
    """Two measures and a window grid for the scan window.

    d = 2..4; coordinates k/den with den a power of two, exact or float;
    the last coordinates of the first set are odd multiples of q/den and
    those of the second even multiples, so every denominator is nonzero
    and either sign occurs, and q = 8 puts many slopes on window edges at
    multiples of 1/8.  Masses are uniform or drawn units; windows have a
    dyadic half-width eps and pitch, from pitch = eps to pitch = eps/32,
    with the first center anywhere in [-3, 3], so slopes also miss every
    window."""
    d = draw(st.integers(2, 4))
    den = draw(st.sampled_from((8, 16, 64)))
    q = draw(st.sampled_from((1, 8)))
    mode = draw(st.sampled_from(("exact", "float")))

    def support(parity):
        last = st.integers(-4, 4).map(lambda k: Fraction(q * (2 * k + parity), den))
        row = st.tuples(*[st.integers(-den, den).map(lambda k: Fraction(k, den))] * (d - 1), last)
        return PointSet.from_points(draw(st.lists(row, min_size=1, max_size=10, unique=True)), mode=mode)

    def measure_on(P):
        if draw(st.booleans()):
            return uniform_weights(P)
        units = draw(st.lists(st.integers(1, 7), min_size=len(P), max_size=len(P)))
        return WeightedPointSet(base=P, masses=[u / sum(units) for u in units])

    mu1, mu2 = measure_on(support(1)), measure_on(support(0))
    return (mu1, mu2, *draw(window_grids(d)))


@st.composite
def window_grids(draw, d):
    """A window grid (lo, hi) for window_cases in dimension d."""
    eps = 2.0 ** -draw(st.integers(0, 4))
    pitch = eps * 2.0 ** -draw(st.integers(0, 5))
    g = draw(st.integers(1, {2: 40, 3: 16, 4: 8}[d]))
    start = draw(st.integers(-24, 24)) / 8
    centers = start + (np.arange(g) + 0.5) * pitch
    return centers - eps, centers + eps


@st.composite
def window_plans(draw, path):
    """Two measures and one to four window grids for one plan: uniform
    product pairs for the product path, window_cases' measures (uniform or
    weighted) for the scan."""
    if path == "product":
        mu1, mu2, _ = draw(separated_product_pairs())
    else:
        mu1, mu2, *_ = draw(window_cases())
    return mu1, mu2, draw(st.lists(window_grids(mu1.base.dimension), min_size=1, max_size=4))


class TestWindowPlan:
    """One plan over several windows gives each window the masses it gets
    planned alone, on either path and at any worker count."""

    @pytest.mark.parametrize("path", ["product", "scan"])
    @pytest.mark.parametrize("workers", [1, 2])
    @given(data=st.data())
    def test_each_window_as_planned_alone(self, path, workers, data):
        mu1, mu2, windows = data.draw(window_plans(path))
        plan = {"product": measure._window_masses_product, "scan": measure._window_masses_scan}[path]
        with pytest.MonkeyPatch.context() as mp:
            for module in (geometry, measure):
                mp.setattr(module, "_PAIR_BLOCK", 40)  # many blocks, and threads past 40 pairs
            mp.setattr(geometry, "_WORKERS", workers)
            planned = plan(mu1, mu2, windows)
            mp.setattr(geometry, "_WORKERS", 1)
            alone = [plan(mu1, mu2, [window])[0] for window in windows]
        assert [mass.tolist() for mass in planned] == [mass.tolist() for mass in alone]

    @staticmethod
    def count(monkeypatch, name, module=measure):
        calls = []
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs))
        return calls

    def test_product_sweep_builds_each_piece_once(self, monkeypatch):
        gaps, axes = self.count(monkeypatch, "_min_cross_gap"), self.count(monkeypatch, "_product_axes", geometry)
        monkeypatch.setattr(measure, "_pair_loop", None)  # the product path walks no pairs
        report = slope_band_sweep(cantor_measure(3), CANTOR_S, [1 / 8, 1 / 16, 1 / 32])
        assert len(gaps) == 1 and len(axes) == 2 and len(report.integrals) == 3

    def test_scan_sweep_walks_the_cross_pairs_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        P = PointSet.from_points(rng.random((300, 2)).tolist(), mode="float")
        w = rng.random(300)
        mu = WeightedPointSet(base=P, masses=(w / w.sum()).tolist())
        upper, lower = orient_split_for_slopes(stopping_time_split(mu, c=1 / 16))
        loops, blocks = [], []

        def pair_loop(*args, **kwargs):
            walk = geometry._pair_loop(*args, **kwargs)
            loops.append(walk.pairs)

            def fill(spec):
                diffs, wp = walk.fill(spec)
                blocks.append(len(diffs))
                return diffs, wp

            return geometry._Blocks(fill, walk.specs, walk.pairs)

        gaps = self.count(monkeypatch, "_min_cross_gap")
        monkeypatch.setattr(measure, "_pair_loop", pair_loop)
        monkeypatch.setattr(measure, "_PAIR_BLOCK", 400)
        report = slope_band_sweep(mu, 1.5, [1 / 8, 1 / 16, 1 / 32])
        assert len(gaps) == 1 and len(report.integrals) == 3
        assert loops == [len(upper) * len(lower)] and len(blocks) > 1 and sum(blocks) == loops[0]


class TestScaledWindowAndGap:
    """The window's scaled bounds from one split of the sorted denominators,
    and the final-coordinate gap from the pieces' plan axes, against the
    forms they replace; slope inputs past dimension 4 are refused first."""

    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

    @given(st.lists(finite.filter(bool), min_size=1, max_size=30),
           st.lists(finite, min_size=1, max_size=8), st.floats(0, 4))
    def test_bounds_match_the_where_form(self, denominators, lo, eps):
        a, lo = np.sort(np.array(denominators)), np.array(lo)
        hi = lo + eps
        col = a[:, None]
        want = np.where(col > 0, col * lo, col * hi), np.where(col > 0, col * hi, col * lo)
        for got, expected in zip(measure._scaled_window(a, lo, hi), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @given(separated_product_pairs())
    def test_gap_from_axes_matches_the_columns(self, pair):
        mu1, mu2, _ = pair
        want = measure._min_cross_gap(mu1.base.as_array()[:, -1], mu2.base.as_array()[:, -1])
        assert measure._check_slope_inputs(mu1, mu2).hex() == want.hex()

    def test_cantor_gap_reads_the_axes(self, monkeypatch):
        upper, lower = orient_split_for_slopes(stopping_time_split(cantor_measure(4), c=Fraction(1, 16)))
        want = measure._min_cross_gap(upper.base.as_array()[:, -1], lower.base.as_array()[:, -1])
        sizes = TestWindowPlan.count(monkeypatch, "_min_cross_gap")
        assert measure._check_slope_inputs(upper, lower) == want
        assert len(upper) == len(lower) == 729
        assert [tuple(map(len, args)) for args in sizes] == [(27, 27)]  # 27 final values a piece

    def test_non_uniform_sweep_builds_no_plan(self, monkeypatch):
        # like the float band of the benchmark's general workload, at 2,000 atoms
        rng = np.random.default_rng(3)
        units = rng.integers(1, 8, 2000)
        mu = WeightedPointSet(base=PointSet.from_points(rng.random((2000, 2)).tolist(), mode="float"),
                              masses=(units / units.sum()).tolist())
        axes = TestWindowPlan.count(monkeypatch, "_product_axes", geometry)
        report = slope_band_sweep(mu, 1.5, [1 / 8, 1 / 16])
        assert axes == [] and len(report.integrals) == 2

    def test_five_dimensions_refused_before_any_array(self, monkeypatch):
        # the supports share a final coordinate as well: the dimension is refused first
        upper = uniform_weights(PointSet.from_points([(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)]))
        lower = uniform_weights(PointSet.from_points([(0, 0, 0, 0, 0), (0, 1, 0, 0, 1)]))
        axes = TestWindowPlan.count(monkeypatch, "_product_axes", geometry)
        gaps = TestWindowPlan.count(monkeypatch, "_min_cross_gap")
        for call in (lambda: slope_chart_pair_mass(upper, lower), lambda: slope_density(upper, lower, 1 / 4)):
            with pytest.raises(PreconditionFailed, match="2 through 4"):
                call()
        assert axes == [] and gaps == []


class TestSlopeGridRefusals:
    """Non-finite widths and grids past the cell cap are refused, the cap
    before any array is made; the other refusals keep their order."""

    @pytest.mark.parametrize("eps, pitch", [(math.inf, None), (math.nan, None), (1 / 8, math.nan),
                                            (1 / 8, math.inf), (-1 / 8, None)])
    def test_density_refuses_widths(self, eps, pitch):
        with pytest.raises(PreconditionFailed):
            slope_density(single_atom(Fraction(3, 4), 1), single_atom(0, 0), eps, pitch)

    @pytest.mark.parametrize("pitch", [1e-300, 5e-324])
    def test_density_refuses_grids_past_the_cap(self, pitch):
        with pytest.raises(SizeLimit, match="cell cap"):
            slope_density(single_atom(Fraction(3, 4), 1), single_atom(0, 0), 1 / 8, pitch)

    @pytest.mark.parametrize("d, side", [(2, 1 << 20), (3, 1 << 10), (4, 101)])
    def test_cap_counts_every_cell(self, d, side):
        pitch, centers = measure._slope_grid(1.0, 0.5 / side, d)
        assert len(centers) == side and side ** (d - 1) <= DENSE_CELL_LIMIT
        with pytest.raises(SizeLimit):
            measure._slope_grid(1.0, 0.5 / (side + 1), d)

    @pytest.mark.parametrize("eps_list, error, message", [
        ([1 / 8, math.inf], PreconditionFailed, "finite"),
        ([1 / 8, 1e-300], SizeLimit, "cell cap"),
        ([1 / 8, -1 / 8], PreconditionFailed, "positive"),
        ([], PreconditionFailed, "at least one"),
    ])
    def test_sweep_refuses_widths(self, eps_list, error, message):
        with pytest.raises(error, match=message):
            slope_band_sweep(cantor_measure(3), CANTOR_S, eps_list)

    @pytest.mark.parametrize("eps", [math.inf, -1.0, 1e-300])
    def test_empty_chart_is_refused_first(self, eps):
        # the pieces lie one above the other: their only slope, 0, misses the chart
        mu = uniform_weights(PointSet.from_points([(Fraction(1, 8), Fraction(k, 8)) for k in (1, 7)]))
        with pytest.raises(PreconditionFailed, match="inside the chart"):
            slope_band_sweep(mu, 1.5, [1 / 8, eps])


class TestWindowAgainstReference:
    """The range-accumulation window against the scan that tests every pair
    against every window, kept in reference_window.py."""

    @staticmethod
    def check(mu1, mu2, lo, hi):
        (got,) = measure._window_masses_scan(mu1, mu2, [(lo, hi)])
        want = reference_window.scan(mu1, mu2, lo, hi)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got[want == 0] == 0.0).all()
        if all(mu.uniform and len(mu) & (len(mu) - 1) == 0 for mu in (mu1, mu2)):
            assert got.tolist() == want.tolist()  # dyadic masses sum exactly in any order
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        return got

    @given(window_cases())
    def test_matches_reference(self, case):
        self.check(*case)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("grid", ["dyadic", "decimal"])
    def test_slopes_on_and_one_ulp_off_every_edge(self, d, grid):
        # against one atom at the origin each pair difference is minus a row:
        # slope coordinates a*e / a on window edges e, or one ulp either side,
        # with denominators a of both signs.  Dyadic edges 1/8 apart keep
        # every estimate exact; slope_density's grid at pitch 1/20 and
        # decimal denominators round them onto either side of an edge.
        if grid == "dyadic":
            lo, hi, scales = np.arange(5) / 8, np.arange(5) / 8 + 0.25, (3.0, -5.0, 0.375, -1.25)
        else:
            centers = 0.5 + (np.arange(10) + 0.5) * (0.5 / 10)
            lo, hi, scales = centers - 0.1, centers + 0.1, (0.3, -0.7, 1.1, -2.9)
        edges = np.concatenate([lo, hi])
        rows = []
        for a0 in scales:
            for k in range(len(edges)):
                for shift in (-math.inf, 0.0, math.inf):
                    a = a0 * (1 + len(rows) / 64)  # one denominator per row keeps the rows distinct
                    xs = [a * edges[(k + 3 * j) % len(edges)] for j in range(d - 1)]
                    rows.append(tuple(-float(np.nextafter(x, shift) if shift else x) for x in xs) + (-a,))
        mu1 = uniform_weights(PointSet.from_points(rows, mode="float"))
        mu2 = uniform_weights(PointSet.from_points([(0.0,) * d], mode="float"))
        got = self.check(mu1, mu2, lo, hi)
        assert got.sum() > 0

    def test_ranges_across_many_windows(self):
        # pitch = eps/64: every slope in the chart lies in about 128 windows
        rng = np.random.default_rng(5)
        upper = PointSet.from_points(rng.random((40, 3)) + [0, 0, 2], mode="float")
        lower = PointSet.from_points(rng.random((30, 3)), mode="float")
        weights = rng.random(30)
        mu1, mu2 = uniform_weights(upper), WeightedPointSet(base=lower, masses=(weights / weights.sum()).tolist())
        centers = -1 + (np.arange(160) + 0.5) / 64
        got = self.check(mu1, mu2, centers - 1, centers + 1)
        assert got.max() > 0

    def test_slopes_outside_every_window_read_zero(self):
        upper = uniform_weights(PointSet.from_points([(5, 1), (6, 2), (-7, 3)]))
        lower = uniform_weights(PointSet.from_points([(0, 0), (1, -1)]))
        centers = 0.5 + (np.arange(8) + 0.5) / 16
        got = self.check(upper, lower, centers - 1 / 16, centers + 1 / 16)
        assert got.tolist() == [0.0] * 8

    def test_runs_without_the_window_expansion(self, monkeypatch):
        # a non-product weighted pair: the scan must neither scale every
        # window per pair nor call einsum
        rng = np.random.default_rng(11)
        upper = PointSet.from_points(rng.random((50, 3)) + [0, 0, 1.5], mode="float")
        lower = PointSet.from_points(rng.random((60, 3)), mode="float")
        weights = rng.random(60)
        mu1, mu2 = uniform_weights(upper), WeightedPointSet(base=lower, masses=(weights / weights.sum()).tolist())
        centers = 0.5 + (np.arange(16) + 0.5) / 32
        want = reference_window.scan(mu1, mu2, centers - 1 / 16, centers + 1 / 16)

        def refuse(*args, **kwargs):
            raise AssertionError("the window expanded every pair")

        monkeypatch.setattr(measure, "_scaled_window", refuse)
        monkeypatch.setattr(np, "einsum", refuse)
        field = slope_density(mu1, mu2, eps=1 / 16, pitch=1 / 32)
        np.testing.assert_allclose(field.values * (1 / 16) ** 2, want, rtol=1e-12, atol=0)
        with pytest.raises(AssertionError, match="expanded"):
            measure._window_masses_product(uniform_weights(lattice_set(LatticeSpec(q=2, d=3))),
                                           uniform_weights(lattice_set(LatticeSpec(q=2, d=3))),
                                           [(centers - 1 / 16, centers + 1 / 16)])


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


@st.composite
def separation_cases(draw):
    """Point sets for the separation search: d = 2..4, points on a grid of
    half the radius n^(-1/s), and one pair exactly at the radius or one ulp
    either side of it, all in a drawn order."""
    d = draw(st.integers(2, 4))
    s = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    n = draw(st.integers(2, 30))
    radius = float(n) ** (-1.0 / s)
    step = radius / 2
    grid = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=n - 2, max_size=n - 2, unique=True))
    pts = [tuple(k * step for k in cell) for cell in grid]
    gap = draw(st.sampled_from([np.nextafter(radius, 0.0), radius, np.nextafter(radius, 2.0)]))
    axis = draw(st.integers(0, d - 1))
    corner = [k * step for k in draw(st.tuples(*[st.integers(-5, 5)] * d))]
    corner[axis] = 0.0
    far = list(corner)
    far[axis] = float(gap)  # 0 + gap, so the pair's norm is exactly gap
    pts += [tuple(corner), tuple(far)]
    try:
        return PointSet.from_points(draw(st.permutations(pts)), mode="float"), s
    except PreconditionFailed:
        assume(False)


class TestSeparationAgainstReference:
    """The slab search against the grid-hash search of reference_pairs.py."""

    @given(separation_cases())
    def test_float_sets_match(self, case):
        P, s = case
        assert measure._separation(P, s) == reference_pairs.separation(P, s)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
                    min_size=1, max_size=40, unique=True),
           st.sampled_from([0.5, 1, 1.5, 2, 3]))
    def test_exact_sets_match(self, pts, s):
        P = PointSet.from_points([tuple(Fraction(v, 12) for v in p) for p in pts])
        assert measure._separation(P, s) == reference_pairs.separation(P, s)

    @pytest.mark.parametrize("s", [CANTOR_S, 1.0, 2.0, 3.0])
    def test_cantor_product_matches(self, s):
        P = product_cantor(2, m=3, ratio=Fraction(1, 4), depth=4)
        assert measure._separation(P, s) == reference_pairs.separation(P, s)

    def test_late_pair_past_many_blocks(self):
        # a 70 x 70 grid: every point's slab holds its column, so the slab
        # pairs fill many blocks before the close pair appended last
        pts = [(Fraction(a, 10), Fraction(b, 10)) for a in range(70) for b in range(70)]
        pts += [(Fraction(701, 100), Fraction(3)), (Fraction(7), Fraction(3))]
        P = PointSet.from_points(pts)
        got = measure._separation(P, 2)
        assert got == reference_pairs.separation(P, 2) and got[1][:2] == (4900, 4901)

    def test_pair_exactly_at_the_radius_is_separated(self):
        radius = 4.0 ** (-1 / 2)
        for gap, separated in ((np.nextafter(radius, 0.0), False), (radius, True)):
            P = PointSet.from_points([(5.0, 5.0), (0.0, 0.0), (-5.0, 5.0), (0.0, float(gap))])
            _, hit = measure._separation(P, 2)
            assert (hit is None) == separated
            assert hit is None or hit == (1, 3, float(gap))

    def test_radius_whose_square_underflows(self):
        # radius 4^(-1/s) = 2^-700: the grid cells floor(x / radius) of these
        # points leave int64 and the squares of gaps near the radius
        # underflow, so the search refuses the radius instead of answering
        s = 2 / 700
        for pts in ([(Fraction(1, 2**560), 0), (Fraction(2, 2**560), 0), (1, 1), (0, 0)],
                    [(0, 0), (Fraction(1, 2**560), 0), (1, 1), (2, 2)]):
            P = PointSet.from_points(pts)
            with pytest.raises(PreconditionFailed, match="too small"):
                measure._separation(P, s)
            with pytest.raises(PreconditionFailed, match="too small"):
                discrete_frostman(P, s)

    def test_refusal_starts_at_two_to_the_62_cells(self):
        # four points at s = 2: radius 1/2, so max|x| = 2^61 is the first refused size
        for top, refused in ((float(np.nextafter(2.0**61, 0.0)), False), (2.0**61, True)):
            P = PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (top, -top)], mode="float")
            if refused:
                with pytest.raises(PreconditionFailed, match="too small"):
                    measure._separation(P, 2)
            else:
                assert measure._separation(P, 2) == reference_pairs.separation(P, 2) == (0.5, None)


class TestEnergyAgainstRowMajor:
    """energy_integral on column blocks against the row-major loop of
    reference_pairs.py, bit for bit, on both difference paths."""

    @staticmethod
    def same(got, want):
        if isinstance(want, Fraction):
            return type(got) is Fraction and got == want
        return type(got) is float and got.hex() == want.hex()

    @given(product_point_sets(), st.sampled_from([1, 1.5, 2, 3]))
    def test_uniform_on_both_paths(self, ps, s):
        def both(P):
            mu = uniform_weights(P)
            return energy_integral(mu, s), reference_pairs.energy_integral(mu, s)

        for got, want in on_both_paths(both, ps):
            assert self.same(got, want)

    @given(product_point_sets(max_axis=5), st.integers(0, 2**16), st.sampled_from([1, 1.5, 2, 3]))
    def test_weighted(self, ps, seed, s):
        rng = random.Random(seed)
        units = [rng.randint(1, 5) for _ in range(len(ps))]
        for masses in ([Fraction(u, sum(units)) for u in units], [u / sum(units) for u in units]):
            mu = WeightedPointSet(base=ps, masses=masses)
            assert self.same(energy_integral(mu, s), reference_pairs.energy_integral(mu, s))

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 15, 16, 17, 128, 129, 300])
    def test_row_sums_keep_numpys_order(self, d):
        rows = np.random.default_rng(d).standard_normal((2000, d)) * 10.0 ** (np.arange(d) % 7 - 3)
        squares = rows * rows
        got = measure._row_sums([col * col for col in np.asfortranarray(rows).T])
        assert got.tobytes() == squares.sum(axis=1).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 7, 8, 9, 17])
    def test_float_sets_in_every_row_sum_order(self, d):
        # rows of 8 or more squares take numpy's eight partial sums
        rng = np.random.default_rng(d)
        P = PointSet.from_points(rng.standard_normal((60, d)).tolist(), mode="float")
        weights = rng.random(60)
        for mu in (uniform_weights(P), WeightedPointSet(base=P, masses=(weights / weights.sum()).tolist())):
            assert self.same(energy_integral(mu, 1.5), reference_pairs.energy_integral(mu, 1.5))


class TestFitPowerLaw:
    """Pairs that cannot be logged are dropped before the fit."""

    def test_infinite_entries_are_dropped(self):
        from dirlab import fit_power_law

        assert fit_power_law([1, 2, math.inf], [1, 1, 3]) is None  # two usable points left
        for xs, ys in (([1, 2, 4, math.inf], [3, 6, 12, 5]), ([1, 2, 4, 8], [3, 6, 12, math.inf]),
                       ([1, 2, 4, 8], [3, 6, 12, math.nan]), ([-1, 1, 2, 4], [5, 3, 6, 12])):
            fit = fit_power_law(xs, ys)
            assert fit.n_points == 3 and fit.slope == pytest.approx(1.0) and fit.r_squared == pytest.approx(1.0)
            assert fit.intercept == pytest.approx(math.log(3))
