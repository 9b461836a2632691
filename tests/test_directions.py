"""Direction censuses, primitive counts, coverage grids, separation."""

import collections
import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    counting_pair_loop,
    force_pair_loop,
    fresh_copy,
    key_to_oracle_form,
    min_pairwise_gap,
    on_both_paths,
    oracle_census,
    product_point_sets,
    random_rational_points,
    refuse_pair_loop,
    steer_plans,
)
import reference_census
import reference_pairs
import reference_subset
from dirlab import (
    directions,
    geometry,
    LatticeSpec,
    PointSet,
    PreconditionFailed,
    SizeLimit,
    WrongDimension,
    distinct_directions,
    energy_integral,
    hyperplane_sample,
    IfsSystem,
    ifs_approximant,
    lattice_set,
    lipschitz_graph_sample,
    measure,
    pps_check,
    primitive_count,
    product_cantor,
    separated_subset,
    sphere_coverage,
    sphere_coverage_sweep,
    uniform_weights,
    WeightedPointSet,
)
from dirlab.directions import DENSE_CELL_LIMIT, DirectionKeys, _face_decompose, _flip_to_canonical, _unit_rows
from dirlab.generators import DEFAULT_POINT_CAP
from dirlab.geometry import DirectionKey, _unique_rows

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
        # bound 5 packs each row into one int64 word; 2^40 into one word per entry
        from dirlab.directions import _unique_rows

        rng = np.random.default_rng(bound + d)
        for trial in range(20):
            rows = rng.integers(-bound, bound + 1, size=(60, d))
            rows = np.vstack([rows, rows[rng.integers(0, 60, size=30)]])
            chunks = np.array_split(rows[rng.permutation(len(rows))], 1 + trial % 4)
            got = _unique_rows(chunks, bound, d)
            assert np.array_equal(got, np.unique(rows, axis=0))

    @pytest.mark.parametrize("d", [2, 3])
    def test_python_int_rows(self, d):
        # object rows past int64 pack into Python-int codes
        from dirlab.directions import _unique_rows

        rng = random.Random(d)
        bound = 1 << 70
        rows = [tuple(rng.randrange(-bound, bound + 1) for _ in range(d)) for _ in range(40)]
        rows += [(bound,) * d, (-bound,) * d] + rng.choices(rows, k=25)
        rng.shuffle(rows)
        chunks = [np.array(rows[i : i + 16], dtype=object) for i in range(0, len(rows), 16)]
        got = _unique_rows(chunks, bound, d)
        assert got.dtype == object and len(got) == len(set(rows))
        assert {tuple(r) for r in got.tolist()} == set(rows)


@st.composite
def census_sets(draw):
    """Product sets, d in {2, 3}, on each row form of the census: int64 rows
    (numerators up to 12, or up to 2^31 over the prime 2^31 - 1), Python-int
    rows over the prime 2^61 - 1, and float rows."""
    kind = draw(st.sampled_from(("int64", "int64-wide", "object", "float")))
    den = {"int64": 12, "int64-wide": (1 << 31) - 1, "object": (1 << 61) - 1, "float": 12}[kind]
    d = draw(st.sampled_from((2, 3)))
    axes = [draw(st.lists(st.integers(-den, den), min_size=1, max_size=5, unique=True))
            for _ in range(d)]
    pts = [tuple(Fraction(k, den) for k in p) for p in itertools.product(*axes)]
    assume(len(pts) >= 2)
    ps = PointSet.from_points(pts, mode="float" if kind == "float" else "exact")
    assert (ps.scaled_integer() is None) == (kind in ("object", "float"))
    return ps


class TestKeysView:
    """census.keys against the eager frozenset of reference_census.py."""

    @given(census_sets())
    def test_keys_equal_reference_on_both_paths(self, ps):
        for antipodal in (True, False):
            want = reference_census.distinct_directions(ps, antipodal).keys
            for census in on_both_paths(lambda P: distinct_directions(P, antipodal), ps):
                assert census.count == len(want)
                assert set(census.keys) == want

    @pytest.mark.parametrize("antipodal", [True, False])
    @pytest.mark.parametrize("kind", ["int64", "object", "float"])
    def test_keys_equal_reference_off_product(self, kind, antipodal):
        rng = random.Random(31)
        if kind == "float":
            pts = [tuple(rng.random() for _ in range(3)) for _ in range(30)]
        else:
            den = 97 if kind == "int64" else (1 << 61) - 1
            pts = random_rational_points(rng, 30, 3, denom=den)
        ps = PointSet.from_points(pts)
        census = distinct_directions(ps, antipodal)
        assert set(census.keys) == reference_census.distinct_directions(ps, antipodal).keys

    def test_count_builds_no_key(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("DirectionKey built")

        monkeypatch.setattr(directions, "DirectionKey", refuse)
        rng = random.Random(5)
        for ps in (lattice_set(LatticeSpec(q=4, d=3)),
                   PointSet.from_points([tuple(rng.random() for _ in range(3)) for _ in range(40)])):
            for antipodal in (True, False):
                assert distinct_directions(ps, antipodal).count > 0

    def test_subset_builds_only_the_keys_it_keeps(self, monkeypatch):
        census = distinct_directions(lattice_set(LatticeSpec(q=6, d=2)), True)
        built = []
        monkeypatch.setattr(directions, "DirectionKey",
                            lambda **fields: built.append(fields) or DirectionKey(**fields))
        subset = separated_subset(census, 0.2)
        assert len(built) == len(subset.keys) < census.count


class TestCensusContract:
    """What the benchmark harness and callers do with a census and its keys."""

    @pytest.fixture
    def censuses(self):
        ps = lattice_set(LatticeSpec(q=3, d=2))
        return ps, distinct_directions(ps, True), distinct_directions(ps, False)

    def test_replace_keys_with_a_frozenset(self, censuses):
        _, _, signed = censuses
        fewer = dataclasses.replace(signed, keys=frozenset(list(signed.keys)[1:]))
        assert fewer.count == signed.count - 1

    def test_subset_keys_within_census(self, censuses):
        _, census, _ = censuses
        subset = separated_subset(census, 0.1)
        assert set(subset.keys) <= census.keys
        outside = dataclasses.replace(subset.keys[0], rep=tuple(7919 * v for v in subset.keys[0].rep))
        assert not set(subset.keys + [outside]) <= census.keys
        assert outside not in census.keys

    def test_equal_censuses_compare_equal(self, censuses):
        ps, census, signed = censuses
        again = distinct_directions(ps, True)
        assert again == census and hash(again) == hash(census)
        assert census.keys == frozenset(census.keys) and frozenset(census.keys) == census.keys
        assert census != signed


# bound per branch of _unique_rows: one int64 word per row, int64 words of
# two entries (one word per row in d = 2) or of one entry, one Python-int word
ROW_BOUNDS = {"one-word": 7, "two-per-word": 10**9 + 2, "one-per-word": 1 << 40, "python-int": 1 << 70}


@st.composite
def row_chunks(draw, branch):
    """Rows with entries within ROW_BOUNDS[branch], some repeated, in 1-4 chunks."""
    d = draw(st.integers(2, 5))
    bound = ROW_BOUNDS[branch]
    entries = st.integers(-bound, bound)
    rows = draw(st.lists(st.tuples(*[entries] * d), min_size=1, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    cuts = sorted(draw(st.lists(st.integers(1, len(rows) - 1), max_size=3)) if len(rows) > 1 else [])
    dtype = object if branch == "python-int" else np.int64
    chunks = [np.array(rows[a:b], dtype=dtype).reshape(-1, d)
              for a, b in zip([0] + cuts, cuts + [len(rows)]) if b > a]
    return rows, chunks, bound, d


class TestUniqueRowsOrder:
    @pytest.mark.parametrize("branch", ROW_BOUNDS)
    @given(data=st.data())
    def test_rows_distinct_and_lexicographic(self, branch, data):
        rows, chunks, bound, d = data.draw(row_chunks(branch))
        got = _unique_rows(chunks, bound, d)
        assert got.dtype == chunks[0].dtype
        assert [tuple(r) for r in got.tolist()] == sorted(set(rows))


class TestSlowPathCensus:
    """Exact sets past the int64 bounds of scaled_integer() take Python-int rows."""

    @pytest.mark.parametrize("antipodal", [True, False])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("wide", [False, True], ids=["denominator-2^61-1", "integers-past-2^40"])
    def test_keys_match_oracle(self, wide, d, antipodal):
        rng = random.Random(10 * d + wide)
        den = 1 if wide else (1 << 61) - 1
        step, top = ((1 << 41) + 3, 1 << 45) if wide else (rng.randrange(1, den // 8), den)
        shift = [rng.randrange(-top, top) for _ in range(d)]
        # a small grid keeps repeated directions; random points add unrelated ones
        pts = {tuple(Fraction(s + g * step, den) for s, g in zip(shift, cell))
               for cell in itertools.product(range(3), repeat=d)}
        pts |= {tuple(Fraction(rng.randrange(-top, top), den) for _ in range(d)) for _ in range(6)}
        ps = PointSet.from_points(sorted(pts))
        assert ps.scaled_integer() is None
        census = distinct_directions(ps, antipodal=antipodal)
        assert {key_to_oracle_form(k) for k in census.keys} == oracle_census(ps.points, antipodal)


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

    def test_point_cap(self):
        # (q+1)^d at the cap is counted, past it refused before any array;
        # the vectors with gcd k are k times those of [0, q // k]^d with gcd 1
        def coprime(q, d):
            return (q + 1) ** d - 1 - sum(coprime(q // k, d) for k in range(2, q + 1))

        assert primitive_count(999, 2) == coprime(999, 2)
        assert primitive_count(99, 3) == coprime(99, 3)
        for q, d in ((1000, 2), (100, 3), (5000, 3), (10**6, 3)):
            with pytest.raises(SizeLimit, match=f"{q + 1}\\^{d} exceeds the {DEFAULT_POINT_CAP} point cap"):
                primitive_count(q, d)

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            primitive_count(0, 2)
        with pytest.raises(PreconditionFailed):
            primitive_count(3, 1)


class TestChartPitchLimit:
    """Cells per face side must fit int64; finer pitches are refused, not clipped."""

    @pytest.fixture(scope="class")
    def lattice(self):
        ps = lattice_set(LatticeSpec(q=2, d=3))
        return ps, distinct_directions(ps, True)

    def test_fine_pitch_still_bins(self, lattice):
        ps, census = lattice
        assert census.count == 49
        assert sphere_coverage(ps, 1e-18).occupied() == 49
        assert separated_subset(census, 1e-18).occupied_cells == 49

    @pytest.mark.parametrize("eps", [1e-200, 5e-324])
    def test_too_fine_pitch_refused(self, lattice, eps):
        ps, census = lattice
        with pytest.raises(PreconditionFailed, match="too fine"):
            sphere_coverage(ps, eps)
        with pytest.raises(PreconditionFailed, match="too fine"):
            sphere_coverage_sweep(ps, [0.1, eps])
        with pytest.raises(PreconditionFailed, match="too fine"):
            separated_subset(census, eps)


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


def assert_subset_matches_reference(census, delta):
    got = separated_subset(census, delta)
    want = reference_subset.separated_subset(census, delta)
    assert [k.rep for k in got.keys] == [k.rep for k in want.keys]
    assert got.keys == want.keys
    assert (got.delta, got.pitch, got.occupied_cells, got.color_classes) == (
        want.delta, want.pitch, want.occupied_cells, want.color_classes)


@st.composite
def small_censuses(draw):
    """Census of 2-12 exact (k/den) or float points in d in {2, 3}, either sign."""
    d = draw(st.sampled_from((2, 3)))
    den = draw(st.integers(1, 12))
    cells = draw(st.lists(st.tuples(*[st.integers(0, den)] * d),
                          min_size=2, max_size=12, unique=True))
    pts = [tuple(Fraction(k, den) for k in cell) for cell in cells]
    if draw(st.booleans()):
        jitter = draw(st.lists(st.floats(0, 1e-3), min_size=len(pts) * d, max_size=len(pts) * d))
        pts = [tuple(float(c) + jitter[i * d + j] for j, c in enumerate(p))
               for i, p in enumerate(pts)]
    return distinct_directions(PointSet.from_points(pts), antipodal=draw(st.booleans()))


def assert_subset_matches_reference_at_gap(census, gap):
    """The subset at delta = gap and one ulp either side; one ulp past a gap
    of exactly 1 lies outside (0, 1] and is refused."""
    for delta in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 2.0)):
        if delta > 1:
            with pytest.raises(PreconditionFailed):
                separated_subset(census, float(delta))
        else:
            assert_subset_matches_reference(census, float(delta))


def unit_gaps(census):
    """Distinct gaps |u - v| between census units, computed as the greedy does."""
    units = np.array([k.unit_vector() for k in census.keys])
    return np.unique(np.concatenate(
        [np.linalg.norm(units[:i] - units[i], axis=1) for i in range(1, len(units))]))


class TestSubsetAgainstReference:
    """separated_subset against the per-key implementation in reference_subset.py."""

    @given(small_censuses(), st.sampled_from((0.01, 0.05, 0.1, 0.2, 0.35, 0.7, 1.0)))
    def test_matches_reference(self, census, delta):
        assert_subset_matches_reference(census, delta)

    @given(small_censuses(), st.data())
    def test_delta_at_a_unit_gap(self, census, data):
        """delta equal to a computed gap and one ulp either side of it."""
        assume(census.count > 1)
        gaps = unit_gaps(census)
        gaps = gaps[(gaps > 0) & (gaps <= 1)]
        assume(len(gaps))
        assert_subset_matches_reference_at_gap(census, data.draw(st.sampled_from(gaps.tolist())))

    @pytest.mark.parametrize("antipodal", [True, False])
    @pytest.mark.parametrize("q,d", [(6, 2), (3, 3)])
    def test_lattice_gaps(self, q, d, antipodal):
        census = distinct_directions(lattice_set(LatticeSpec(q=q, d=d)), antipodal)
        gaps = unit_gaps(census)
        for gap in gaps[gaps <= 1][:: max(1, len(gaps) // 12)]:
            assert_subset_matches_reference_at_gap(census, gap)

    def test_codes_past_int64(self):
        """d = 8 at delta 1e-4 has 16 * 2223^7 chart cells, past int64 codes."""
        rng = random.Random(8)
        census = distinct_directions(PointSet.from_points(random_rational_points(rng, 9, 8)), True)
        for delta in (1e-4, 0.05):
            assert_subset_matches_reference(census, delta)

    @pytest.mark.parametrize("d", [2, 3, 9])
    @pytest.mark.parametrize("kind", ["exact", "past-2^53", "float"])
    def test_unit_rows_equal_unit_vector(self, kind, d):
        rng = random.Random(d)
        if kind == "float":
            pts = [tuple(rng.random() for _ in range(d)) for _ in range(8)]
        else:
            top = 1 << 70 if kind == "past-2^53" else 50
            pts = [tuple(rng.randrange(-top, top) for _ in range(d)) for _ in range(8)]
        census = distinct_directions(PointSet.from_points(pts), False)
        keys = sorted(census.keys, key=lambda k: k.rep)
        if kind == "past-2^53":
            assert max(abs(v) for k in keys for v in k.rep) > 1 << 53
        got = _unit_rows(np.array([k.rep for k in keys], dtype=np.float64))
        want = np.array([k.unit_vector() for k in keys])
        assert got.tobytes() == want.tobytes()
        assert_subset_matches_reference(census, 0.05)



class TestSubsetOfAKeySet:
    """A census whose keys were replaced by a plain set of DirectionKeys."""

    @pytest.mark.parametrize("kind", ["exact", "float", "signed", "past-2^63"])
    def test_matches_reference(self, kind):
        rng = random.Random(17)
        if kind == "float":
            pts = [tuple(rng.random() for _ in range(3)) for _ in range(12)]
        elif kind == "past-2^63":
            pts = [tuple(rng.randrange(-(1 << 70), 1 << 70) for _ in range(3)) for _ in range(8)]
        else:
            pts = random_rational_points(rng, 12, 3, denom=7)
        census = distinct_directions(PointSet.from_points(pts), kind != "signed")
        plain = dataclasses.replace(census, keys=frozenset(census.keys))
        for delta in (0.05, 0.3):
            assert_subset_matches_reference(plain, delta)
            assert separated_subset(plain, delta) == separated_subset(census, delta)

    def test_empty_keys_refused(self):
        census = distinct_directions(lattice_set(LatticeSpec(q=2, d=2)), True)
        for empty in (frozenset(), DirectionKeys(np.empty((0, 2), dtype=np.int64), 1, True, True)):
            with pytest.raises(PreconditionFailed):
                separated_subset(dataclasses.replace(census, keys=empty), 0.1)


@st.composite
def greedy_cases(draw):
    """(units, delta, kept, candidates) for _greedy and reference_subset.greedy.

    d in 2..9 (numpy sums rows of 8 or more squares pairwise).  The rows
    are unit rows; or share one first coordinate, so every slab is the
    whole set; or take first coordinates on the slab edges of an anchor a:
    a, a +- delta and a +- h with h = delta (1 + 1e-9), each also one ulp
    either side (a = 0 or -delta/2 makes a +- delta exact), and the other
    coordinates all equal or not.  Other coordinates repeat a few values,
    so many gaps tie.  delta may then move
    to a computed gap between two rows or one ulp either side of it, no
    finer than separated_subset allows (2^-62 / (d + 1), from the chart
    side).  kept and candidates are distinct positions in random order.
    """
    d = draw(st.integers(2, 9))
    delta = draw(st.sampled_from((0.01, 0.1, 0.25, 0.5, 1.0)) | st.floats(1e-6, 1.0))
    k = draw(st.integers(1, 24))
    coord = st.sampled_from((0.0, 0.125, -0.5)) | st.floats(-1.0, 1.0)
    rows = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=k, max_size=k)))
    layout = draw(st.sampled_from(("unit", "shared-first", "slab-edges")))
    if layout == "unit":
        norms = np.linalg.norm(rows, axis=1)
        assume(norms.all())
        rows = rows / norms[:, None]
    elif layout == "shared-first":
        rows[:, 0] = draw(coord)
    else:
        a = draw(st.sampled_from((0.0, -delta / 2)) | st.floats(-1.0, 1.0))
        h = delta * (1 + 1e-9)
        edges = [a + t for t in (0.0, delta, -delta, h, -h)]
        edges += [float(np.nextafter(e, side)) for e in edges for side in (-np.inf, np.inf)]
        rows[:, 0] = draw(st.lists(st.sampled_from(edges), min_size=k, max_size=k))
        if draw(st.booleans()):
            rows[:, 1:] = rows[0, 1:]
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        gap = np.linalg.norm(rows[i] - rows[j])
        delta = float(draw(st.sampled_from((gap, np.nextafter(gap, 0.0), np.nextafter(gap, 2.0)))))
        assume(delta >= 2.0 ** -62 / (d + 1))
    kept = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k))
    candidates = draw(st.permutations(range(k)))[: draw(st.integers(0, k))]
    return rows, delta, kept, candidates


def subset_checking_every_greedy(monkeypatch, census, delta):
    """separated_subset, each greedy pass checked against reference_subset.greedy
    on the same units, kept prefix and candidates; also the kept count per pass."""
    slab_greedy = directions._greedy
    kept_per_pass = []

    def checked(slabs, kept, candidates, *flags):
        chosen = slab_greedy(slabs, kept, candidates, *flags)
        units = slabs.units[slabs.rank]
        assert chosen == reference_subset.greedy(units, kept, candidates, delta)
        kept_per_pass.append(len(chosen))
        return chosen

    monkeypatch.setattr(directions, "_greedy", checked)
    return separated_subset(census, delta), kept_per_pass


@pytest.fixture(scope="module")
def cantor_census():
    """The adaptable-cantor section's census (35,320 keys) and its delta."""
    ps = product_cantor(2, depth=4, m=3, ratio=Fraction(1, 4))
    s = 2 * math.log(3) / math.log(4)
    return distinct_directions(ps, True), float(len(ps)) ** (-1 / s)


class TestGreedyAgainstReference:
    """The slab greedy against the one-norm-per-candidate greedy of reference_subset.py."""

    @given(greedy_cases())
    def test_same_chosen(self, case):
        units, delta, kept, candidates = case
        got = directions._greedy(directions._Slabs(units, delta), kept, candidates)
        assert got == reference_subset.greedy(units, kept, candidates, delta)

    def test_adaptable_cantor_census(self, monkeypatch, cantor_census):
        census, delta = cantor_census
        assert census.count == 35320
        got, _ = subset_checking_every_greedy(monkeypatch, census, delta)
        want = reference_subset.separated_subset(census, delta)
        assert got == want and len(got.keys) == 610

    def test_float_census_in_3d(self, monkeypatch):
        rng = random.Random(300)
        ps = PointSet.from_points([tuple(rng.random() for _ in range(3)) for _ in range(300)])
        census = distinct_directions(ps, True)
        got, kept_per_pass = subset_checking_every_greedy(monkeypatch, census, 0.02)
        assert census.count == 44850 and kept_per_pass[-1] == len(got.keys)


class TestGreedyBlocksPerKeptUnit:
    def test_one_block_per_kept_unit(self, monkeypatch, cantor_census):
        """Each pass blocks a slab for each unit it keeps and for nothing
        else, so a loop that tests every candidate against the kept units
        fails here, not just by running slowly.  The extension pass starts
        from the flags the winning class pass left, so its kept prefix
        blocks nothing again."""
        census, delta = cantor_census
        blocked, reused = [], []
        block, greedy = directions._Slabs.block, directions._greedy
        monkeypatch.setattr(directions._Slabs, "block",
                            lambda slabs, r, flags: blocked.append(r) or block(slabs, r, flags))
        monkeypatch.setattr(directions, "_greedy", lambda slabs, kept, candidates, *flags:
                            reused.append(len(kept) if flags else 0) or greedy(slabs, kept, candidates, *flags))
        _, kept_per_pass = subset_checking_every_greedy(monkeypatch, census, delta)
        assert reused[-1] > 0 and sum(reused) == reused[-1]
        assert len(blocked) == sum(kept_per_pass) - reused[-1] < census.count // 10

def oracle_coverage(ps, eps, antipodal):
    """{cell code: hits} over pairs, one pair at a time in Python floats."""
    pts = ps.as_array().tolist()
    m = math.ceil(2 / eps)
    cells = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        diff = [a - b for a, b in zip(pts[i], pts[j])]
        lead = next(v for v in diff if v != 0)
        if antipodal and lead < 0:
            diff = [-v for v in diff]
        for sign in (1,) if antipodal else (1, -1):
            norm = math.sqrt(sum(v * v for v in diff))
            u = [sign * v / norm for v in diff]
            a = max(range(len(u)), key=lambda k: abs(u[k]))
            code = 2 * a + (u[a] > 0)
            for k, v in enumerate(u):
                if k != a:
                    code = code * m + min(m - 1, max(0, int((v / abs(u[a]) + 1) / eps)))
            cells[code] = cells.get(code, 0) + 1
    return cells


class TestCoverageAgainstOracle:
    """Both hit accumulators (dense array, folded sorted parts past
    DENSE_CELL_LIMIT cells) per pair."""

    @pytest.mark.parametrize("antipodal", [True, False])
    @pytest.mark.parametrize("kind", ["exact", "float", "product"])
    @pytest.mark.parametrize("eps", [5e-4, 0.05], ids=["sparse", "dense"])
    def test_cells_match_oracle(self, eps, kind, antipodal):
        rng = random.Random(25)
        if kind == "product":
            pts = [(Fraction(a, 4), Fraction(b, 4), Fraction(1, 2))
                   for a in range(5) for b in range(5)]
        elif kind == "exact":
            pts = random_rational_points(rng, 25, 3, denom=97)
        else:
            pts = [tuple(rng.random() for _ in range(3)) for _ in range(25)]
        ps = PointSet.from_points(pts)
        grid = sphere_coverage(ps, eps, antipodal=antipodal)
        assert (grid.total_cells > DENSE_CELL_LIMIT) == (eps < 0.01)
        assert grid.cells == oracle_coverage(ps, eps, antipodal)

    def test_codes_past_int64(self):
        """d = 8 at eps 0.005 has 16 * 400^7 cells: codes stay exact and decode."""
        ps = PointSet.from_points(random_rational_points(random.Random(88), 12, 8))
        grid = sphere_coverage(ps, 0.005, antipodal=False)
        assert grid.total_cells > 1 << 63
        assert grid.cells == oracle_coverage(ps, 0.005, False)
        for code in grid.cells:
            axis, sign, *idx = grid.decode_cell(code)
            assert 0 <= axis < 8 and sign in (-1, 1) and all(0 <= i < 400 for i in idx)


FOLD_BLOCK = 50
FOLD_GRID = [(Fraction(a, 8), Fraction(b, 8), Fraction(c, 3)) for a in range(8) for b in range(8) for c in range(3)]
FOLD_SETS = {
    "product-int64": lambda: PointSet.from_points(FOLD_GRID),
    "product-object": lambda: PointSet.from_points([tuple(v * 2**70 for v in p) for p in FOLD_GRID]),
    "exact": lambda: PointSet.from_points(random_rational_points(random.Random(31), 120, 3, denom=97)),
    "float": lambda: PointSet.from_points([tuple(random.Random(i).random() for _ in range(3)) for i in range(120)]),
}


class TestGroupedFold:
    """Sparse coverage and the exact s = 2 energy over blocks of about
    FOLD_BLOCK pairs, at one and two workers, on both difference paths: each block's
    sorted part folds into the held ones, which never hold more than twice
    the folded keys plus one block, and the result equals the per-pair
    oracles."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", sorted(FOLD_SETS))
    def test_cells_and_energies_match_oracles(self, kind, workers, monkeypatch):
        ps = FOLD_SETS[kind]()
        units = [1 + i % 5 for i in range(len(ps))]
        uniform = [uniform_weights(ps)] if ps.mode == "exact" else []  # only exact energies fold
        weighted = [WeightedPointSet(base=ps, masses=[Fraction(u, sum(units)) for u in units])] if uniform else []
        fold_in, folds = geometry._fold_in, []
        block = max(FOLD_BLOCK, len(ps))  # the pair loop takes at least one row a block

        def checked(held, part):
            if held:
                assert sum(len(keys) for keys, _ in held) <= 2 * len(held[0][0])
            assert len(part[0]) <= block
            before = len(held)
            fold_in(held, part)
            folds.append(len(held) < before + 1)

        monkeypatch.setattr(geometry, "_WORKERS", workers)
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", FOLD_BLOCK)
        monkeypatch.setattr(directions, "_fold_in", checked)
        monkeypatch.setattr(measure, "_fold_in", checked)

        def kernels(P):
            grids = [sphere_coverage(P, 5e-4, antipodal) for antipodal in (True, False)]
            assert all(grid.total_cells > DENSE_CELL_LIMIT for grid in grids)
            return [grid.cells for grid in grids], [energy_integral(mu, 2) for mu in uniform]

        runs = on_both_paths(kernels, ps) if kind.startswith("product") else [kernels(ps)]
        cells = [oracle_coverage(ps, 5e-4, antipodal) for antipodal in (True, False)]
        energies = [reference_pairs.energy_integral(mu, 2) for mu in uniform]
        for got_cells, got_energies in runs:
            assert got_cells == cells
            assert all(list(grid) == sorted(grid) for grid in got_cells)  # code order
            assert all(type(e) is Fraction for e in got_energies) and got_energies == energies
        for mu in weighted:  # pair weights take the pair loop
            got = energy_integral(mu, 2)
            assert type(got) is Fraction and got == reference_pairs.energy_integral(mu, 2)
        assert any(folds) and len(folds) > 4 * len(runs)


@st.composite
def face_rows(draw):
    """Nonzero rows in d = 2..6 with many ties |u_i| = |u_j|, +-0.0 and
    negative amplitudes, row-major or with contiguous columns, as units or
    not.  Units of rows whose squares underflow hold inf and NaN."""
    d = draw(st.integers(2, 6))
    entry = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.3, -0.7, 1e-300])
    rows = draw(st.lists(st.tuples(*[entry] * d).filter(lambda r: any(r)), min_size=1, max_size=40))
    rows = np.array(rows, dtype=np.float64)
    if draw(st.booleans()):
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = _unit_rows(rows)
    return np.asfortranarray(rows) if draw(st.booleans()) else rows


class TestFaceDecomposeAgainstReference:
    """The column-wise face split and sign fix against the argmax and
    masked-assignment forms of reference_pairs.py."""

    @given(face_rows())
    def test_faces_and_in_face_coordinates_match(self, rows):
        with np.errstate(invalid="ignore"):
            face, other = _face_decompose(rows)
            ref_face, ref_other = reference_pairs.face_decompose(rows)
        assert face.dtype == ref_face.dtype and face.tolist() == ref_face.tolist()
        assert other.shape == ref_other.shape and other.tobytes() == ref_other.tobytes()
        assert all(other[:, c].flags.c_contiguous for c in range(other.shape[1]))

    @given(face_rows())
    def test_flip_matches(self, rows):
        assume(np.isfinite(rows).all())
        # _flip_to_canonical flips in place, so it gets copies
        got, want = _flip_to_canonical(rows.copy()), reference_pairs.flip_to_canonical(rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        ints = np.rint(rows * 4).astype(np.int64)
        assert _flip_to_canonical(ints.copy()).tolist() == reference_pairs.flip_to_canonical(ints).tolist()

    def test_rows_with_inf_and_nan_match(self):
        # units of differences whose squares underflow: the first NaN, else
        # the first inf, is the axis, as for argmax
        nan, inf = np.nan, np.inf
        rows = np.array([[inf, nan, 1.0], [nan, inf, 1.0], [1.0, nan, nan], [0.5, inf, -inf],
                         [-inf, 0.0, inf], [1.0, 2.0, nan], [-0.0, nan, inf]])
        with np.errstate(divide="ignore", invalid="ignore"):
            for unit in (rows, rows[:, :2], _unit_rows(np.array([[1e-300, 0.0], [0.0, -1e-300]]))):
                face, other = _face_decompose(np.asfortranarray(unit))
                ref_face, ref_other = reference_pairs.face_decompose(unit)
                assert face.tolist() == ref_face.tolist() and other.tobytes() == ref_other.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_random_units_match(self, d):
        units = np.asfortranarray(_unit_rows(np.random.default_rng(d).standard_normal((5000, d))))
        face, other = _face_decompose(units)
        ref_face, ref_other = reference_pairs.face_decompose(units)
        assert face.tolist() == ref_face.tolist() and other.tobytes() == ref_other.tobytes()


def signed_rows(census):
    """The key rows of a signed census as tuples of their reps, in order."""
    return [tuple(r) for r in (census.keys.rows * census.keys.scale).tolist()]


def strictly_increasing(rows):
    return all(a < b for a, b in zip(rows, rows[1:]))


class TestSignedCensusAgainstReference:
    """The signed census is the identified rows R negated and reversed, then R."""

    @pytest.mark.parametrize("branch", ROW_BOUNDS)
    @given(data=st.data())
    def test_negations_sort_before_canonical_rows(self, branch, data):
        rows, chunks, bound, d = data.draw(row_chunks(branch))
        canon = [_flip_to_canonical(chunk) for chunk in chunks]
        canon = [chunk[np.any(chunk != 0, axis=1)] for chunk in canon]
        assume(sum(map(len, canon)))
        R = _unique_rows(canon, bound, d)
        signed = np.concatenate([-R[::-1], R])
        got = [tuple(r) for r in signed.tolist()]
        want = {tuple(r) for r in rows if any(r)} | {tuple(-v for v in r) for r in rows if any(r)}
        assert strictly_increasing(got) and got == sorted(want)

    @given(census_sets())
    def test_rows_equal_reference_on_both_paths(self, ps):
        want = sorted(key.rep for key in reference_census.distinct_directions(ps, False).keys)
        identified = distinct_directions(ps, True).keys.rows
        for census in on_both_paths(lambda P: distinct_directions(P, False), ps):
            assert census.keys.rows.dtype == identified.dtype
            assert census.keys.rows.tolist() == np.concatenate([-identified[::-1], identified]).tolist()
            got = signed_rows(census)
            assert strictly_increasing(got) and got == want
            assert census.n_pairs == len(ps) * (len(ps) - 1)

    @pytest.mark.parametrize("kind", ["int64", "object", "float"])
    def test_rows_equal_reference_off_product(self, kind):
        rng = random.Random(32)
        if kind == "float":
            pts = [tuple(rng.random() for _ in range(3)) for _ in range(30)]
        else:
            pts = random_rational_points(rng, 30, 3, denom=97 if kind == "int64" else (1 << 61) - 1)
        ps = PointSet.from_points(pts)
        got = signed_rows(distinct_directions(ps, False))
        want = sorted(key.rep for key in reference_census.distinct_directions(ps, False).keys)
        assert strictly_increasing(got) and got == want


class TestSignedByNegation:
    """Signed runs reduce each pair once, in canonical orientation."""

    @pytest.mark.parametrize("kind", ["lattice", "exact", "float"])
    def test_census_dedups_canonical_rows_in_one_pass(self, kind, monkeypatch):
        rng = random.Random(41)
        ps = {"lattice": lambda: lattice_set(LatticeSpec(q=4, d=3)),
              "exact": lambda: PointSet.from_points(random_rational_points(rng, 40, 3, denom=13)),
              "float": lambda: PointSet.from_points([tuple(rng.random() for _ in range(3)) for _ in range(40)])}[kind]()
        seen = []

        def recording(chunks, bound, d):
            chunks = list(chunks)
            seen.append(chunks)
            return _unique_rows(chunks, bound, d)

        monkeypatch.setattr(directions, "_unique_rows", recording)
        signed = distinct_directions(ps, False)
        assert len(seen) == 1 and sum(map(len, seen[0])) > 0
        for chunk in seen[0]:
            assert _flip_to_canonical(chunk.copy()).tolist() == chunk.tolist()
        assert signed.count == 2 * distinct_directions(ps, True).count

    @pytest.mark.parametrize("antipodal", [True, False])
    def test_coverage_decomposes_each_block_once(self, antipodal, monkeypatch):
        # 800 points make 319,600 pairs: several blocks of the pair loop
        rng = np.random.default_rng(8)
        ps = PointSet.from_points(rng.random((800, 3)).tolist())
        blocks, decomposed = [], []

        def pair_differences(P, *args, **kwargs):
            for diffs, mult in geometry._pair_differences(P, *args, **kwargs):
                blocks.append(len(diffs))
                yield diffs, mult

        def face_decompose(unit):
            decomposed.append(len(unit))
            return _face_decompose(unit)

        monkeypatch.setattr(directions, "_pair_differences", pair_differences)
        monkeypatch.setattr(directions, "_face_decompose", face_decompose)
        (grid,) = sphere_coverage_sweep(ps, [0.05], antipodal)
        assert len(blocks) > 1 and decomposed == blocks
        assert sum(grid.cells.values()) == grid.n_pairs == sum(blocks) * (1 if antipodal else 2)


MEMO_SETS = {
    "product": lambda: lattice_set(LatticeSpec(q=20, d=2)),  # 840 distinct differences
    "grid": lambda: PointSet._from_scaled(*sierpinski(5)._scaled),
    "pairs": lambda: PointSet.from_points(random_rational_points(random.Random(51), 60, 3, denom=13)),
    "float": lambda: PointSet.from_points(np.random.default_rng(52).random((60, 3)).tolist(), mode="float"),
}


class TestSignedCensusMemo:
    """A signed census reads the identified rows of its set through a weak
    reference while an identified census of the set is alive; else it walks."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", sorted(MEMO_SETS))
    def test_memo_equals_reference_and_walk(self, kind, workers, monkeypatch):
        monkeypatch.setattr(geometry, "_WORKERS", workers)
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 400)  # several blocks a walk
        ps = MEMO_SETS[kind]()
        assert ps._difference_plan().path == {"float": "pairs"}.get(kind, kind)
        want = sorted(key.rep for key in reference_census.distinct_directions(ps, False).keys)
        identified = distinct_directions(ps)
        walks, pair_differences = [], geometry._pair_differences
        monkeypatch.setattr(directions, "_pair_differences",
                            lambda P, *args, **kwargs: walks.append(len(P)) or pair_differences(P, *args, **kwargs))
        memo = distinct_directions(ps, False)
        assert walks == []
        walked = distinct_directions(fresh_copy(ps), False)
        assert walks == [len(ps)]
        assert memo.keys.rows.dtype == walked.keys.rows.dtype == identified.keys.rows.dtype
        assert memo.keys.rows.tolist() == walked.keys.rows.tolist()
        assert signed_rows(memo) == want
        assert memo == walked and memo.count == 2 * identified.count
        assert (memo.n_points, memo.n_pairs) == (len(ps), len(ps) * (len(ps) - 1))

    def test_walks_again_once_the_identified_census_is_dropped(self, monkeypatch):
        ps = MEMO_SETS["pairs"]()
        calls = counting_pair_loop(monkeypatch)
        identified = distinct_directions(ps)
        assert calls == [60]
        signed = [distinct_directions(ps, False) for _ in range(2)]
        assert calls == [60] and signed[0] == signed[1]
        del identified
        assert ps._census_rows() is None  # the weak reference kept nothing alive
        again = distinct_directions(ps, False)
        assert calls == [60, 60] and again == signed[0]
        identified = distinct_directions(ps)  # the newest identified census is the one read
        distinct_directions(ps, False)
        assert calls == [60, 60, 60] and ps._census_rows() is identified.keys.rows

    def test_shared_rows_are_read_only(self):
        ps = MEMO_SETS["product"]()
        rows = distinct_directions(ps).keys.rows
        assert ps._census_rows() is rows and not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            rows *= -1
        signed = distinct_directions(ps, False).keys.rows
        assert not np.shares_memory(signed, rows)
        assert signed[len(rows):].tolist() == rows.tolist()

    def test_identified_census_never_reads_the_memo(self, monkeypatch):
        ps = MEMO_SETS["pairs"]()
        calls = counting_pair_loop(monkeypatch)
        first = distinct_directions(ps)
        second = distinct_directions(ps)
        assert calls == [60, 60] and first.keys.rows is not second.keys.rows and first == second


@st.composite
def threshold_deltas(draw):
    """Separations: fixed and random floats down to the chart side's limit
    2^-62 / 4, or a computed gap between two rows in d = 2..9 and one ulp
    either side of it."""
    if draw(st.booleans()):
        return draw(st.sampled_from((2.0**-64, 1e-9, 0.01, 0.1, 0.2, 0.25, 0.5, 1.0)) | st.floats(2.0**-64, 1.0))
    d = draw(st.integers(2, 9))
    coord = st.sampled_from((0.0, 0.125, -0.5, 1.0)) | st.floats(-1.0, 1.0)
    a, b = (np.array(draw(st.lists(coord, min_size=d, max_size=d))) for _ in range(2))
    gap = float(np.linalg.norm(a - b))
    assume(gap >= 2.0**-64)
    return draw(st.sampled_from((gap, float(np.nextafter(gap, 0.0)), float(np.nextafter(gap, 2.0)))))


class TestSlabThreshold:
    """_Slabs compares squared norms with the least float t whose root
    reaches delta, which decides every float as comparing its root would."""

    @given(threshold_deltas())
    def test_threshold_splits_floats_as_their_roots(self, delta):
        t = directions._sqrt_threshold(delta)
        near = [t]
        for side in (0.0, np.inf):
            s = t
            for _ in range(4):
                s = float(np.nextafter(s, side))
                near.append(s)
        for s in near + [delta * delta, float(np.nextafter(delta * delta, 0.0)), float(np.nextafter(delta * delta, 1.0))]:
            assert (np.sqrt(np.float64(s)) < delta) == (s < t) == (math.sqrt(s) < delta)
        assert math.sqrt(t) >= delta > math.sqrt(float(np.nextafter(t, 0.0)))

    @given(threshold_deltas(), st.data())
    def test_block_decides_as_the_norm(self, delta, data):
        d = data.draw(st.integers(2, 9))
        coord = st.sampled_from((0.0, 0.125, -0.5)) | st.floats(-1.0, 1.0)
        units = np.array(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=20)))
        slabs = directions._Slabs(units, delta)
        for r in range(len(units)):
            blocked = np.zeros(len(units), dtype=bool)
            slabs.block(r, blocked)
            lo, hi = slabs.lo[r], slabs.hi[r]
            gaps = np.linalg.norm(slabs.units[lo:hi] - slabs.units[r], axis=1)
            assert blocked[lo:hi].tolist() == (gaps < delta).tolist()
            assert not blocked[:lo].any() and not blocked[hi:].any()


def small_like_sets(seed, count):
    """Sets like the small benchmark's: 5-40 points k/12 of the unit cube, d in {2, 3}."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.choice((2, 3))
        cells = rng.sample(list(itertools.product(range(13), repeat=d)), rng.randint(5, 40))
        yield PointSet.from_points([tuple(Fraction(k, 12) for k in cell) for cell in cells])


def greedy_passes_without_skipping(census, subset):
    """The greedy passes of a subset that ran every color class of every
    pitch up to the one it used, and then the extension pass."""
    keys = sorted(census.keys, key=lambda key: key.rep)
    units = np.array([key.unit_vector() for key in keys])
    pitch, passes = (units.shape[1] + 1) * subset.delta, 1
    while pitch <= subset.pitch:
        cells = set(reference_subset.chart_cells(units, pitch))
        passes += len({tuple(v % 2 for v in cell[1:]) for cell in cells})
        pitch *= 2
    return passes


class TestSubsetSkipsColorClasses:
    """A color class with no more cells than the largest kept class cannot
    win, so separated_subset runs no greedy for it."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_like_sets_match_reference_in_fewer_passes(self, d, monkeypatch):
        ran, full = [], []
        for ps in small_like_sets(90 + d, 120):
            if ps.dimension != d:
                continue
            for antipodal in (True, False):
                census = distinct_directions(ps, antipodal)
                with pytest.MonkeyPatch.context() as mp:
                    got, kept_per_pass = subset_checking_every_greedy(mp, census, 0.2)
                assert got == reference_subset.separated_subset(census, 0.2)
                ran.append(len(kept_per_pass))
                full.append(greedy_passes_without_skipping(census, got))
        assert len(ran) > 50 and all(r <= f for r, f in zip(ran, full))
        assert sum(ran) < sum(full)


class TestFloatChartRefusals:
    """Exact sets chart their float64 view; a norm of 0 or inf is refused."""

    HUGE = [(Fraction(10**200), 0), (0, 1), (1, 0)]
    TINY = [(0, 0), (Fraction(1, 10**300), 0), (1, 1)]

    @pytest.mark.parametrize("pts", [HUGE, TINY], ids=["huge", "tiny"])
    @pytest.mark.parametrize("antipodal", [True, False])
    def test_coverage_refuses(self, pts, antipodal):
        ps = PointSet.from_points(pts)
        with pytest.raises(PreconditionFailed):
            sphere_coverage(ps, 0.1, antipodal)

    @pytest.mark.parametrize("pts", [HUGE, TINY, [(0, 0), (1, Fraction(1, 10**300)), (2, 0)]],
                             ids=["huge", "tiny", "tiny-slope"])
    def test_subset_refuses_keys_past_the_float_limit(self, pts):
        census = distinct_directions(PointSet.from_points(pts), True)
        with pytest.raises(PreconditionFailed, match="2\\^500"):
            separated_subset(census, 0.1)

    def test_large_coordinates_with_small_keys_still_separate(self):
        ps = PointSet.from_points([(Fraction(10**200), 0), (Fraction(10**200), 10**200), (0, 0)])
        census = distinct_directions(ps, True)
        assert sorted(key.rep for key in separated_subset(census, 0.1).keys) == [(0, 1), (1, 0), (1, 1)]


@st.composite
def tied_parts(draw, branch):
    """Int64 rows within ROW_BOUNDS[branch] in 2-5 parts, their first two
    entries from a few values, so first words tie across parts."""
    d = draw(st.integers(2, 5))
    bound = ROW_BOUNDS[branch]
    few = st.sampled_from([-bound, -1, 0, 1, bound])
    rest = few | st.integers(-bound, bound)
    rows = draw(st.lists(st.tuples(few, few, *[rest] * (d - 2)), min_size=2, max_size=60))
    rows += draw(st.lists(st.sampled_from(rows), max_size=20))
    cuts = sorted(draw(st.lists(st.integers(1, len(rows) - 1), min_size=1, max_size=4)))
    return [np.array(rows[a:b], dtype=np.int64).reshape(-1, d)
            for a, b in zip([0] + cuts, cuts + [len(rows)]) if b > a], bound, d


class TestUniqueRowsUnion:
    """The union over several parts (concatenated a word at a time, first
    word sorted, ties lexsorted, words unpacked in place) against
    np.unique(axis=0); the parts themselves are left as they were."""

    @pytest.mark.parametrize("branch", ["one-word", "two-per-word", "one-per-word"])
    @given(data=st.data())
    def test_parts_with_first_word_ties(self, branch, data):
        parts, bound, d = data.draw(tied_parts(branch))
        before = [part.copy() for part in parts]
        got = _unique_rows(parts, bound, d)
        want = np.unique(np.concatenate(before), axis=0)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert all(np.array_equal(part, old) for part, old in zip(parts, before))

    def test_many_parts_of_many_ties(self):
        rng = np.random.default_rng(21)
        rows = rng.integers(-2, 3, size=(20_000, 4)) * (1 << 40)
        rows[:, 3] += rng.integers(-5, 6, size=len(rows))
        got = _unique_rows(np.array_split(rows, 7), 1 << 42, 4)
        assert np.array_equal(got, np.unique(rows, axis=0))


class TestCensusPeak:
    """A census peaks at about twice the key rows it holds: the union frees
    each part's words as it copies them and unpacks in place.  One worker,
    so the peak does not depend on how the threads interleave."""

    @pytest.mark.parametrize("kind", ["float", "exact"])
    def test_peak_over_held_rows(self, kind, monkeypatch):
        import tracemalloc

        rng = random.Random(3)
        if kind == "float":
            ps = PointSet.from_points([tuple(rng.random() for _ in range(3)) for _ in range(600)], mode="float")
        else:
            ps = PointSet.from_points(random_rational_points(rng, 600, 3, denom=997))
        assert geometry._product_axes(ps._scaled[0]) is None
        monkeypatch.setattr(geometry, "_WORKERS", 1)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            census = distinct_directions(ps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        held = census.keys.rows.nbytes
        assert census.count > 170_000  # nearly one key per each of the 179,700 pairs
        assert peak <= 2.2 * held  # 3.3 (float) and 3.0 (exact) before the union held less


def walk_refused(*args, **kwargs):
    raise AssertionError("the census walked its pairs")


@functools.lru_cache
def sierpinski(depth):
    """The Sierpinski gasket's depth-fold IFS orbit: 3^depth points of the
    2^depth grid, over 2^depth; not a product."""
    half = Fraction(1, 2)
    maps = tuple((half, (Fraction(a), Fraction(b))) for a, b in ((0, 0), (half, 0), (0, half)))
    return ifs_approximant(IfsSystem(dimension=2, maps=maps), depth)


class TestCensusBudget:
    """The census refuses, before its walk, a set whose pair differences
    (its bound on held keys) pass CENSUS_KEY_LIMIT."""

    def test_refused_before_the_walk(self, monkeypatch):
        ps = PointSet.from_points([(i, i * i % 7) for i in range(12)])  # 66 pairs, not a product
        want = distinct_directions(ps).count
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 66)
        assert distinct_directions(ps).count == want
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 65)
        monkeypatch.setattr(directions, "_unique_rows", walk_refused)
        for antipodal in (True, False):
            with pytest.raises(SizeLimit, match="66 pair differences passes the 65 key budget"):
                distinct_directions(ps, antipodal)

    def test_default_refuses_float_sets_from_11586_points(self, monkeypatch):
        assert directions.CENSUS_KEY_LIMIT == 1 << 26
        rows = np.random.default_rng(11).random((11_586, 3))
        assert geometry._pair_differences(PointSet._from_scaled(rows[:-1], 1.0)).pairs <= directions.CENSUS_KEY_LIMIT
        monkeypatch.setattr(directions, "_unique_rows", walk_refused)
        with pytest.raises(SizeLimit, match="67111905 pair differences"):
            distinct_directions(PointSet._from_scaled(rows, 1.0))

    def test_lattice_counts_its_distinct_differences(self, monkeypatch):
        # 125 points: 7,750 pairs but (9^3 - 1) / 2 = 364 distinct differences
        ps = lattice_set(LatticeSpec(q=4, d=3))
        want = [distinct_directions(ps, antipodal) for antipodal in (True, False)]
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 364)
        assert [distinct_directions(ps, antipodal) for antipodal in (True, False)] == want
        steer_plans(monkeypatch, ("grid", "pairs"))  # the grid path counts them too
        assert [distinct_directions(ps, antipodal) for antipodal in (True, False)] == want
        force_pair_loop(monkeypatch)
        with pytest.raises(SizeLimit, match="7750 pair differences"):
            distinct_directions(ps)

    def test_sierpinski_depth_9_counts_its_distinct_differences(self, monkeypatch):
        # 19,683 points: 193,700,403 pairs, past the budget, but 392,448
        # distinct differences (and 238,788 keys, both counted pair by pair
        # once, outside the suite)
        ps = sierpinski(9)
        assert 19_683 * 19_682 // 2 > directions.CENSUS_KEY_LIMIT
        census = distinct_directions(ps)
        assert census.count == 238_788 and distinct_directions(ps, False).count == 2 * 238_788
        monkeypatch.setattr(directions, "_unique_rows", walk_refused)
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 392_447)
        with pytest.raises(SizeLimit, match="392448 pair differences passes the 392447 key budget"):
            distinct_directions(ps)
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 1 << 26)
        force_pair_loop(monkeypatch)
        with pytest.raises(SizeLimit, match="193700403 pair differences"):
            distinct_directions(ps)


class TestReadOnlyMultiplicity:
    """Unweighted pair-loop blocks carry their multiplicity as a read-only
    broadcast of int64 1, which no kernel writes into."""

    def test_writing_raises(self):
        arr = np.random.default_rng(4).random((500, 3))
        blocks = list(geometry._pair_loop(arr, None))
        assert len(blocks) > 1
        for diffs, mult in blocks:
            assert mult.dtype == np.int64 and mult.shape == (len(diffs),) and mult.strides == (0,)
            assert not mult.flags.writeable and set(mult.tolist()) == {1}
            with pytest.raises(ValueError, match="read-only"):
                mult[0] = 2
            with pytest.raises(ValueError, match="read-only"):
                mult *= 2

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_kernels_on_both_paths(self, mode, monkeypatch):
        ps = lattice_set(LatticeSpec(q=3, d=3))
        if mode == "float":
            ps = PointSet.from_points(ps.as_array().tolist(), mode="float")
        loop, writeable = geometry._pair_loop, []

        def recording(*args, **kwargs):
            blocks = loop(*args, **kwargs)

            def fill(spec):
                diffs, mult = blocks.fill(spec)
                writeable.append(mult.flags.writeable)
                return diffs, mult

            return geometry._Blocks(fill, blocks.specs, blocks.pairs)

        def kernels(P):
            mu = uniform_weights(P)
            return ([distinct_directions(P, antipodal) for antipodal in (True, False)],
                    [[g.cells for g in sphere_coverage_sweep(P, [0.2, 0.05], antipodal)] for antipodal in (True, False)],
                    [(energy_integral(mu, s), reference_pairs.energy_integral(mu, s)) for s in (1.5, 2)])

        monkeypatch.setattr(geometry, "_pair_loop", recording)
        product, pair = on_both_paths(kernels, ps)
        assert writeable and not any(writeable)
        assert product[:2] == pair[:2]
        assert [set(c.keys) for c in pair[0]] == [reference_census.distinct_directions(ps, antipodal).keys
                                                 for antipodal in (True, False)]
        for _, _, energies in (product, pair):
            for got, want in energies:
                assert type(got) is type(want)
                assert got == want if isinstance(want, Fraction) else got.hex() == want.hex()



@st.composite
def dense_grid_sets(draw):
    """Random subsets of a shifted grid {0..side}^d over a power-of-two or
    other denominator, with more pairs than _GRID_PAIRS_PER_CELL a cell of
    their box of differences, so the grid path takes them."""
    d = draw(st.sampled_from((2, 3)))
    side = draw(st.integers(5, 7) if d == 2 else st.integers(3, 4))
    box = (2 * side + 1) ** d
    least = next(n for n in itertools.count(2) if n * (n - 1) // 2 > geometry._GRID_PAIRS_PER_CELL * box)
    cells = list(itertools.product(range(side + 1), repeat=d))
    rng = random.Random(draw(st.integers(0, 2**32)))
    picked = rng.sample(cells, rng.randint(least, min(least + 20, len(cells) - 1)))
    shift = [rng.randint(-side, side) for _ in range(d)]
    denom = draw(st.sampled_from((1, 2, 16, 3, 12, 10)))
    return PointSet.from_points([tuple(Fraction(c + s, denom) for c, s in zip(p, shift)) for p in picked])


class TestGridDifferences:
    """The grid path (one FFT autocorrelation of the indicator) against the
    pair loop, reference_census and oracle_coverage: census rows, cells and
    hits equal, signed and identified, at 1 and 2 workers over blocks of 40
    differences.  Census keys take the grid path at any denominator,
    coverage only at a power of two."""

    PITCHES = [0.05, 5e-4]  # a dense and, in d = 3, a sparse accumulator

    @given(dense_grid_sets())
    def test_against_pair_loop_and_oracles(self, ps):
        rows, denom = ps._scaled
        assume(geometry._product_axes(rows) is None)
        dyadic = denom & (denom - 1) == 0

        def kernels():
            return ([distinct_directions(ps, antipodal) for antipodal in (True, False)],
                    [[g.cells for g in sphere_coverage_sweep(ps, self.PITCHES, antipodal)]
                     for antipodal in (True, False)])

        runs = []
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geometry, "_WORKERS", workers)
                mp.setattr(geometry, "_PAIR_BLOCK", 40)
                calls = counting_pair_loop(mp)
                runs.append(kernels())
                assert len(calls) == (0 if dyadic else 2)
        with pytest.MonkeyPatch.context() as mp:
            force_pair_loop(mp)
            pair = kernels()
        for censuses, cells in runs:
            assert [c.keys.rows.tolist() for c in censuses] == [c.keys.rows.tolist() for c in pair[0]]
            assert cells == pair[1]
        for antipodal, census, grids in zip((True, False), *pair):
            assert set(census.keys) == reference_census.distinct_directions(ps, antipodal).keys
            assert grids == [oracle_coverage(ps, eps, antipodal) for eps in self.PITCHES]

    def test_blocks_hold_each_distinct_difference_once(self):
        ps = sierpinski(5)
        (rows, denom), view = ps._scaled, ps.as_array()
        span = np.ptp(rows, axis=0).tolist()
        blocks = geometry._grid_differences(rows, span)
        diffs, mult = (np.concatenate(column) for column in zip(*blocks))
        want, floats = collections.Counter(), set()
        for i, j in itertools.combinations(range(len(rows)), 2):
            delta, fdelta = tuple((rows[j] - rows[i]).tolist()), tuple((view[j] - view[i]).tolist())
            flip = delta < (0, 0)
            want[tuple(-v for v in delta) if flip else delta] += 1
            floats.add(tuple(-v for v in fdelta) if flip else fdelta)
        assert blocks.pairs == len(diffs) == len(want)
        assert dict(zip(map(tuple, diffs.tolist()), mult.tolist())) == want
        assert not any(m.flags.writeable for _, m in blocks)
        # over the power-of-two denominator, the float view's differences bit for bit
        fdiffs = np.concatenate([d for d, _ in geometry._grid_differences(rows, span, denom)])
        assert fdiffs.dtype == np.float64 and set(map(tuple, fdiffs.tolist())) == floats

    def test_fast_length_is_the_least_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 3000):
            assert geometry._fast_length(n) == next(m for m in itertools.count(n) if smooth(m))


class TestGridPath:
    """Which difference path runs, and the rounding guard of the grid path."""

    def test_sierpinski_never_starts_the_pair_loop(self, monkeypatch):
        ps = sierpinski(7)  # 2,187 points, 2,390,391 pairs, 24,384 distinct differences
        monkeypatch.setattr(geometry, "_pair_loop", refuse_pair_loop)
        census = distinct_directions(ps)
        grids = sphere_coverage_sweep(ps, [0.02, 0.01], antipodal=False)
        assert census.count == 14_874
        assert all(sum(g.cells.values()) == g.n_pairs == 2 * 2_390_391 for g in grids)

    def test_non_dyadic_coverage_and_lipschitz_walk_their_pairs(self, monkeypatch):
        calls = counting_pair_loop(monkeypatch)
        thirds = PointSet._from_scaled(sierpinski(5)._scaled[0], 3)  # the same rows over 3
        distinct_directions(thirds)
        assert calls == []
        sphere_coverage_sweep(thirds, [0.05])
        assert calls == [243]
        lip = lipschitz_graph_sample(3, 1500)  # box of 10,953^2 x 5,477 differences
        distinct_directions(lip)
        sphere_coverage_sweep(lip, [0.05])
        assert calls == [243, len(lip), len(lip)]

    @pytest.mark.parametrize("fault", ["rounding", "zero", "positive", "negative"])
    def test_guard_falls_back_to_the_pair_loop(self, fault, monkeypatch):
        # 243 points on the 32 x 32 grid: 29,403 pairs, a 63 x 63 box; a
        # fresh copy, since a failed FFT turns its set's plan to the pair loop
        ps = PointSet._from_scaled(*sierpinski(5)._scaled)

        def run():
            # each census is a list of rows once made, so none is alive when
            # the signed one is asked for and both walk the differences
            return ([distinct_directions(ps, antipodal).keys.rows.tolist() for antipodal in (True, False)],
                    [g.cells for g in sphere_coverage_sweep(ps, [0.05, 0.01], False)])

        want = run()
        irfftn = np.fft.irfftn

        def faulty(*args, **kwargs):
            corr = irfftn(*args, **kwargs)
            if fault == "rounding":
                return corr + 0.4
            # differences 0, (1, 0) (present) and (-31, -31) (absent, negative half)
            corr[{"zero": (0, 0), "positive": (1, 0), "negative": (-31, -31)}[fault]] += \
                -1 if fault == "negative" else 1
            return corr

        monkeypatch.setattr(np.fft, "irfftn", faulty)
        calls = counting_pair_loop(monkeypatch)
        assert geometry._grid_differences(ps._scaled[0], [31, 31]) is None
        got = run()
        assert calls == [243] * 3
        assert got == want


class TestDifferencePlan:
    """Each set's difference plan: the path it takes, read from the plan;
    the product test and grid gate run once per set; a failed FFT turns the
    plan to the pair loop; and steering a plan leaves the cached one as it is."""

    def test_lattice_plans_product(self):
        ps = lattice_set(LatticeSpec(q=8, d=3))  # 729 points, 265,356 pairs
        plan = ps._difference_plan()
        assert (plan.path, plan.count) == ("product", None)
        assert [a.tolist() for a in plan.axes] == [list(range(9))] * 3
        assert plan.span == [8, 8, 8]  # the grid gate passes too, but the product path comes first
        distinct_directions(ps)
        assert ps._difference_plan() is plan and plan.count == (17**3 - 1) // 2
        # on an axis-parallel line the bound on distinct differences meets the
        # pairs, so they are counted: 9 of 45, but 6 of 6 on the Sidon set 0, 1, 3, 7
        line = PointSet.from_points([(k, 0) for k in range(10)])
        sidon = PointSet.from_points([(k, 0) for k in (0, 1, 3, 7)])
        assert [line._difference_plan().path, sidon._difference_plan().path] == ["product", "pairs"]

    def test_sierpinski_depth_7_plans_grid(self):
        ps = PointSet._from_scaled(*sierpinski(7)._scaled)  # a fresh copy, planned here
        plan = ps._difference_plan()
        assert (plan.path, plan.count, plan.axes, plan.span) == ("grid", None, None, [127, 127])
        assert distinct_directions(ps).count == 14_874
        assert (plan.path, plan.count) == ("grid", 24_384)

    def test_float_sets_and_weighted_measures_walk_pairs(self, monkeypatch):
        rng = np.random.default_rng(17)
        floats = PointSet.from_points(rng.random((50, 3)).tolist(), mode="float")
        plan = floats._difference_plan()
        assert (plan.path, plan.count, plan.axes, plan.span) == ("pairs", 1225, None, None)
        lattice = lattice_set(LatticeSpec(q=3, d=2))
        assert lattice._difference_plan().path == "product"
        units = rng.integers(1, 5, size=len(lattice)).tolist()
        weighted = WeightedPointSet(base=lattice, masses=[Fraction(u, sum(units)) for u in units])
        calls = counting_pair_loop(monkeypatch)
        distinct_directions(floats)
        sphere_coverage_sweep(floats, [0.1])
        for s in (2, 1.5):
            energy_integral(weighted, s)
        assert calls == [50, 50, 16, 16]

    def test_each_set_tests_for_a_product_once(self, monkeypatch):
        from dirlab import slope_band_sweep

        calls, axes = [], geometry._product_axes
        monkeypatch.setattr(geometry, "_product_axes", lambda rows: calls.append(len(rows)) or axes(rows))
        cantor = product_cantor(2, m=3, ratio=Fraction(1, 4), depth=3)
        sets = [cantor, PointSet._from_scaled(*sierpinski(5)._scaled),
                PointSet.from_points(np.random.default_rng(18).random((40, 3)).tolist(), mode="float")]
        for P in sets:
            mu = uniform_weights(P)
            for antipodal in (True, False):
                distinct_directions(P, antipodal)
                sphere_coverage_sweep(P, [0.1, 0.01], antipodal)
            for s in (2, 1.5):
                energy_integral(mu, s)
        assert calls == [len(P) for P in sets]
        report = slope_band_sweep(uniform_weights(cantor), 1.58, [1 / 8, 1 / 16])
        assert len(report.integrals) == 2 and len(calls) == len(sets) + 2  # the two oriented pieces

    def test_failed_fft_turns_the_plan_to_pairs(self, monkeypatch):
        rows, denom = sierpinski(5)._scaled  # 243 points, 29,403 pairs; denominator 32
        want = distinct_directions(PointSet._from_scaled(rows, denom))
        ps = PointSet._from_scaled(rows, denom)
        irfftn, ffts = np.fft.irfftn, []
        monkeypatch.setattr(np.fft, "irfftn", lambda *args, **kwargs: irfftn(*args, **kwargs) + 0.4)
        grid_differences = geometry._grid_differences
        monkeypatch.setattr(geometry, "_grid_differences",
                            lambda *args: ffts.append(len(args[0])) or grid_differences(*args))
        calls = counting_pair_loop(monkeypatch)
        got = distinct_directions(ps)
        assert ffts == [243] and calls == [243]
        assert (ps._difference_plan().path, ps._difference_plan().count) == ("pairs", 243 * 242 // 2)
        assert got.keys.rows.tolist() == want.keys.rows.tolist()
        del got  # so the signed census walks its pairs
        distinct_directions(ps, False)
        sphere_coverage_sweep(ps, [0.05])  # a power-of-two denominator: the grid path, had the FFT held
        assert ffts == [243] and calls == [243] * 3

    def test_steering_walks_pairs_and_keeps_the_cached_plan(self, monkeypatch):
        ps = lattice_set(LatticeSpec(q=3, d=2))
        plan = ps._difference_plan()
        assert plan.path == "product"  # planned before either run
        calls = counting_pair_loop(monkeypatch)
        product, pair = on_both_paths(lambda P: [distinct_directions(P, a) for a in (True, False)], ps)
        # one walk: the pair run's signed census reads the identified rows it holds
        assert calls == [16] and product == pair
        with pytest.MonkeyPatch.context() as mp:
            force_pair_loop(mp)
            assert distinct_directions(ps).keys.rows.tolist() == product[0].keys.rows.tolist()
        assert calls == [16, 16]
        assert ps._difference_plan() is plan and plan.path == "product"
        with pytest.MonkeyPatch.context() as mp:
            steer_plans(mp, ("grid", "pairs"))
            assert ps._difference_plan().path == "grid"  # q = 3, d = 2: 120 pairs over a 49-cell box
        assert ps._difference_plan() is plan and plan.path == "product"
