"""Direction keys, slope vectors, affine rank, point sets, and files."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_direction, product_point_sets
import reference_generators
import reference_pairs
from dirlab import (
    DIRECTION_RESOLUTION,
    DegeneratePair,
    FormatError,
    MixedMode,
    PointSet,
    PreconditionFailed,
    VerticalPair,
    canonical_direction,
    collinearity_rank,
    distinct_directions,
    energy_integral,
    read_point_set,
    slope_of_pair,
    sphere_coverage,
    uniform_weights,
    write_point_set,
)
from dirlab import geometry

coord = st.integers(min_value=-9, max_value=9).map(
    lambda n: Fraction(n, 4)
)


def points_pair(d):
    return st.tuples(
        st.tuples(*[coord] * d), st.tuples(*[coord] * d)
    ).filter(lambda xy: xy[0] != xy[1])


class TestCanonicalDirection:
    def test_axis_direction(self):
        assert canonical_direction((2, 0), (0, 0), True).rep == (1, 0)

    def test_gcd_reduction(self):
        assert canonical_direction((2, 4), (0, 0), True).rep == (1, 2)

    def test_signed_keeps_sign(self):
        key = canonical_direction((0, 0, 0), (1, 1, 1), False)
        assert key.rep == (-1, -1, -1)

    def test_antipodal_sign_fix(self):
        key = canonical_direction((0, 0, 0), (1, 1, 1), True)
        assert key.rep == (1, 1, 1)

    def test_fraction_inputs_reduce(self):
        key = canonical_direction(
            (Fraction(1, 3), Fraction(1, 2)), (0, 0), True
        )
        assert key.rep == (2, 3)

    def test_identical_points_degenerate(self):
        with pytest.raises(DegeneratePair):
            canonical_direction((1, 2), (1, 2), True)

    def test_mixed_modes_rejected(self):
        with pytest.raises(MixedMode):
            canonical_direction((0.5, 0), (Fraction(1, 2), 1), True)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionFailed):
            canonical_direction((1, 2, 3), (0, 0), True)

    def test_one_dimension_rejected(self):
        with pytest.raises(PreconditionFailed):
            canonical_direction((1,), (0,), True)

    @given(points_pair(3))
    def test_antipodal_swap_symmetric(self, xy):
        x, y = xy
        assert canonical_direction(x, y, True) == canonical_direction(y, x, True)

    @given(points_pair(2))
    def test_signed_swap_negates(self, xy):
        x, y = xy
        fwd = canonical_direction(x, y, False).rep
        back = canonical_direction(y, x, False).rep
        assert tuple(-v for v in fwd) == back

    @given(
        points_pair(2),
        st.integers(1, 5),
        st.integers(1, 5),
        st.tuples(coord, coord),
    )
    def test_scale_translation_invariance(self, xy, num, den, shift):
        x, y = xy
        lam = Fraction(num, den)
        sx = tuple(lam * a + c for a, c in zip(x, shift))
        sy = tuple(lam * a + c for a, c in zip(y, shift))
        assert canonical_direction(sx, sy, True) == canonical_direction(x, y, True)

    @given(points_pair(3), st.permutations([0, 1, 2]))
    def test_permutation_equivariance(self, xy, perm):
        x, y = xy
        px = tuple(x[i] for i in perm)
        py = tuple(y[i] for i in perm)
        direct = canonical_direction(px, py, False).rep
        permuted = tuple(canonical_direction(x, y, False).rep[i] for i in perm)
        assert direct == permuted

    @given(points_pair(2))
    def test_matches_oracle_normal_form(self, xy):
        x, y = xy
        rep = canonical_direction(x, y, True).rep
        lead = next(v for v in rep if v != 0)
        normalized = tuple(Fraction(v, abs(lead)) for v in rep)
        assert normalized == oracle_direction(x, y, True)

    def test_float_mode_unit_and_quantized(self):
        key = canonical_direction((3.0, 4.0), (0.0, 0.0), True)
        assert not key.exact
        assert math.hypot(*key.rep) == pytest.approx(1.0, abs=1e-9)
        for component in key.rep:
            steps = component / DIRECTION_RESOLUTION
            assert abs(steps - round(steps)) < 1e-6

    def test_float_exact_agreement_on_square(self):
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        exact_keys = {
            canonical_direction(corners[i], corners[j], True).rep
            for i in range(4)
            for j in range(i + 1, 4)
        }
        float_keys = {
            canonical_direction(
                tuple(map(float, corners[i])), tuple(map(float, corners[j])), True
            ).rep
            for i in range(4)
            for j in range(i + 1, 4)
        }
        assert len(exact_keys) == len(float_keys) == 4


class TestSlopeOfPair:
    def test_plane_example(self):
        assert slope_of_pair((1, 3), (0, 1)).entries == (Fraction(1, 2),)

    def test_space_example(self):
        assert slope_of_pair((2, 3, 5), (0, 1, 1)).entries == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_vertical_pair(self):
        with pytest.raises(VerticalPair):
            slope_of_pair((1, 1), (0, 1))

    @given(points_pair(3))
    def test_swap_invariant(self, xy):
        x, y = xy
        if x[-1] == y[-1]:
            with pytest.raises(VerticalPair):
                slope_of_pair(x, y)
        else:
            assert slope_of_pair(x, y).entries == slope_of_pair(y, x).entries

    def test_float_mode(self):
        assert slope_of_pair((1.0, 2.0), (0.0, 0.0)).entries == (0.5,)


class TestCollinearityRank:
    def test_collinear(self):
        ps = PointSet.from_points([(0, 0), (1, 1), (2, 2)])
        assert collinearity_rank(ps) == 1

    def test_simplex(self):
        ps = PointSet.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        assert collinearity_rank(ps) == 3

    def test_coplanar_square(self):
        ps = PointSet.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        )
        assert collinearity_rank(ps) == 2

    def test_single_point(self):
        assert collinearity_rank(PointSet.from_points([(0, 0)])) == 0

    def test_float_agrees_with_exact(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
        exact = collinearity_rank(PointSet.from_points(pts))
        floated = collinearity_rank(
            PointSet.from_points([tuple(map(float, p)) for p in pts])
        )
        assert exact == floated == 3


@st.composite
def ranked_point_sets(draw):
    """Exact sets of affine rank at most r in dimension d, for r = 0..d: a
    base point plus small integer combinations of r integer directions, over
    a denominator that keeps int64 rows or forces Python-int rows."""
    d = draw(st.integers(2, 5))
    r = draw(st.integers(0, d))
    denom = draw(st.sampled_from([3, 12, 2**31 + 11, 2**61 - 1]))
    base = [draw(st.integers(-denom, denom)) for _ in range(d)]
    spread = draw(st.sampled_from([5, denom]))
    dirs = [[draw(st.integers(-spread, spread)) for _ in range(d)] for _ in range(r)]
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=1, max_size=12))
    pts = {tuple(Fraction(b + sum(c * v[k] for c, v in zip(cs, dirs)), denom) for k, b in enumerate(base))
           for cs in combos}
    return PointSet.from_points(sorted(pts))


class TestRankAgainstReference:
    """Fraction-free integer elimination against rational elimination on points."""

    @given(ranked_point_sets())
    def test_matches_rational_elimination(self, ps):
        assert collinearity_rank(ps) == reference_generators.collinearity_rank(ps)

    @pytest.mark.parametrize("denom", [3, 12, 2**31 + 11, 2**61 - 1])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_rank_reached(self, d, denom):
        for r in range(d + 1):
            pts = [tuple(Fraction(1 + (k == i) * (i + 2), denom) for k in range(d)) for i in range(r)]
            ps = PointSet.from_points([tuple(Fraction(1, denom) for _ in range(d))] + pts)
            assert collinearity_rank(ps) == reference_generators.collinearity_rank(ps) == r

    def test_does_not_build_points(self):
        ps = PointSet._from_scaled(np.array([[0, 0, 0], [3, 0, 1], [0, 5, 2], [3, 5, 4]]), 7)
        assert collinearity_rank(ps) == 3
        assert ps._points is None


class TestPointSet:
    def test_infers_exact_mode(self):
        ps = PointSet.from_points([(0, 0), (Fraction(1, 2), 1)])
        assert ps.mode == "exact"
        assert ps.dimension == 2
        assert len(ps) == 2

    def test_infers_float_mode(self):
        assert PointSet.from_points([(0.0, 0.5), (1.0, 0.25)]).mode == "float"

    def test_exact_duplicates_rejected(self):
        with pytest.raises(PreconditionFailed):
            PointSet.from_points([(0, 1), (Fraction(0), Fraction(1))])

    def test_float_near_duplicates_rejected(self):
        with pytest.raises(PreconditionFailed):
            PointSet.from_points([(0.0, 0.0), (0.0, 1e-14)])

    def test_mixed_modes_rejected(self):
        with pytest.raises(MixedMode):
            PointSet.from_points([(Fraction(0), 0), (0.5, 1.0)])

    def test_plain_ints_are_mode_neutral(self):
        assert PointSet.from_points([(0, 0), (0.5, 1.0)]).mode == "float"
        assert PointSet.from_points([(0, 0), (1, 2)]).mode == "exact"

    def test_ragged_dimensions_rejected(self):
        with pytest.raises(PreconditionFailed):
            PointSet.from_points([(0, 0), (1, 2, 3)])

    def test_as_array_values(self):
        ps = PointSet.from_points([(Fraction(1, 4), 1)])
        assert ps.as_array().tolist() == [[0.25, 1.0]]

    def test_duplicate_messages_name_the_point(self):
        with pytest.raises(PreconditionFailed, match=r"duplicate point \(0\.0, 1e-14\) at resolution 1e-12"):
            PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1e-14)])
        with pytest.raises(PreconditionFailed, match=r"duplicate point \(Fraction\(1, 2\), Fraction\(1, 1\)\)$"):
            PointSet.from_points([(Fraction(1, 2), 1), (0, 0), (Fraction(2, 4), 1)])

    def test_float_near_duplicates_across_zero_rejected(self):
        # -1e-14 and 1e-14 snap to -0.0 and 0.0, which must compare equal
        with pytest.raises(PreconditionFailed, match="duplicate"):
            PointSet.from_points([(0.0, -1e-14), (0.0, 1e-14)])

    @pytest.mark.parametrize(
        "bad, mode",
        [(math.nan, None), (math.inf, None), (-math.inf, None), (1e300, None), (math.nan, "exact"), (math.inf, "exact"),
         ("abc", "exact"), ("abc", "float")],
    )
    def test_bad_coordinates_rejected(self, bad, mode):
        # 1e300 lies past the float limit 2^500, where squared differences overflow
        with pytest.raises(PreconditionFailed, match="finite"):
            PointSet.from_points([(bad, 0.0), (2.0, 0.0)], mode=mode)

    def test_float_coordinates_from_2_to_the_500_rejected(self):
        # squared differences of 1e200 overflowed: one census key, coverage {0: 3}, energy 0.0
        with pytest.raises(PreconditionFailed, match="finite"):
            PointSet.from_points([(1e200, 0.0), (-1e200, 1.0), (0.0, 1e200)], mode="float")
        with pytest.raises(PreconditionFailed, match="finite"):
            PointSet.from_points([(2.0**500, 0.0), (0.0, 1.0)])
        ps = PointSet.from_points([(2.0**499, 0.0), (-(2.0**499), 1.0), (0.0, 2.0**499)])
        assert distinct_directions(ps, False).count == 6
        assert sphere_coverage(ps, 0.5, False).occupied() == 6
        assert 0 < energy_integral(uniform_weights(ps), 1) < math.inf

    def test_huge_denominators_build_without_hashing_fractions(self, monkeypatch):
        """A Fraction whose denominator is divisible by 2^61-1, the hash
        modulus, hashes like +-infinity, so a Fraction-keyed duplicate check
        is quadratic on them."""
        p = (1 << 61) - 1
        pts = [(Fraction(3 * i + 1, p), Fraction(i * i, p)) for i in range(200)]

        def no_hash(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", no_hash)
        ps = PointSet.from_points(pts)
        assert len(ps) == 200 and ps.scaled_integer() is None and ps._scaled_rows()[1] == p
        with pytest.raises(PreconditionFailed, match="duplicate"):
            PointSet.from_points(pts + [pts[17]])


class TestScaledConstructor:
    """PointSet._from_scaled validates as from_points does, plus int64 bounds."""

    def test_round_trip_and_reduced_denominator(self):
        ps = PointSet._from_scaled(np.array([[2, 4], [6, 0], [8, 8]]), 8)
        assert ps.mode == "exact" and len(ps) == 3
        assert ps.points == ((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), 0), (1, 1))
        arr, denom = ps.scaled_integer()
        assert denom == 4 and arr.tolist() == [[1, 2], [3, 0], [4, 4]]
        assert ps == PointSet.from_points(ps.points)

    def test_rejects_duplicate_rows(self):
        with pytest.raises(PreconditionFailed, match="duplicate"):
            PointSet._from_scaled(np.array([[0, 1], [2, 3], [0, 1]]), 4)
        # far-apart entries take the axis-unique branch of the row dedup
        with pytest.raises(PreconditionFailed, match="duplicate"):
            PointSet._from_scaled(np.array([[-(1 << 40), 1 << 40], [5, 7], [-(1 << 40), 1 << 40]]), 3)

    @pytest.mark.parametrize(
        "coord, fits",
        [
            (Fraction(1, 1 << 31), True),
            (Fraction(1, (1 << 31) + 1), False),
            (Fraction(1 << 40), True),
            (Fraction(-(1 << 40)), True),
            (Fraction((1 << 40) + 1), False),
            (Fraction(-(1 << 40) - 1), False),
        ],
    )
    def test_scaled_integer_bounds(self, coord, fits):
        ps = PointSet.from_points([(coord, 0), (0, 0)])
        assert (ps.scaled_integer() is not None) == fits
        if fits:
            arr, denom = ps.scaled_integer()
            assert PointSet._from_scaled(arr, denom) == ps
        else:
            with pytest.raises(PreconditionFailed):
                PointSet._from_scaled(np.array([[coord.numerator, 0], [0, 0]]), coord.denominator)

    @pytest.mark.parametrize("build", ["from_points", "_from_scaled"])
    def test_scaled_integer_is_the_cached_rows(self, build):
        rows = np.array([[3, -7], [1 << 40, 2], [0, 5]])
        ps = (PointSet._from_scaled(rows, 6) if build == "_from_scaled" else
              PointSet.from_points([[Fraction(int(v), 6) for v in r] for r in rows]))
        arr, denom = ps.scaled_integer()
        rows_again, denom_again = ps._scaled_rows()
        assert arr is rows_again and denom == denom_again == 6 and arr.dtype == np.int64
        assert ps.scaled_integer()[0] is arr
        assert np.array_equal(arr, rows)

    def test_object_rows_that_fit_are_stored_as_int64(self):
        ps = PointSet._from_scaled(np.array([[2, 4], [6, 0]], dtype=object), 1 << 32)
        arr, denom = ps.scaled_integer()
        assert arr.dtype == np.int64 and denom == 1 << 31 and arr.tolist() == [[1, 2], [3, 0]]
        assert ps == PointSet.from_points([(Fraction(1, 1 << 31), Fraction(1, 1 << 30)), (Fraction(3, 1 << 31), 0)])

    @pytest.mark.parametrize(
        "denom, span",
        [(3 * 7 * 11, 1 << 20), ((1 << 31) - 1, 1 << 40), ((1 << 61) - 1, 1 << 70), (10**30 + 7, 10**40)],
    )
    def test_as_array_equals_float_of_each_fraction(self, denom, span):
        rng = np.random.default_rng(denom % 1000)
        rows = [[int(v) * (span // 1000) + int(w) for v, w in zip(r, rng.integers(0, 997, 3))]
                for r in rng.integers(-1000, 1000, size=(40, 3))]
        ps = PointSet.from_points([[Fraction(v, denom) for v in r] for r in rows])
        assert (ps.scaled_integer() is None) == (denom > 1 << 31 or span > 1 << 40)
        want = np.array([[float(c) for c in p] for p in ps.points], dtype=np.float64)
        assert ps.as_array().tobytes() == want.tobytes()
        # a set made from its rows builds its own views
        again = PointSet._from_scaled(*ps._scaled_rows())
        assert again == ps and again.points == ps.points
        assert again.as_array().tobytes() == want.tobytes()

    def test_slow_path_rows_past_the_bounds(self):
        ps = PointSet.from_points([(Fraction(1, (1 << 31) + 1), 0), (0, Fraction(1 << 41))])
        rows, denom = ps._scaled_rows()
        assert ps.scaled_integer() is None and ps._scaled_rows()[0] is rows
        assert rows.dtype == object and denom == (1 << 31) + 1
        assert rows.tolist() == [[1, 0], [0, (1 << 41) * denom]]

    @pytest.mark.parametrize(
        "rows, denom",
        [
            (np.zeros((0, 2), dtype=np.int64), 1),
            (np.array([1, 2]), 1),
            (np.array([[1], [2]]), 1),
            (np.array([[0, 1]]), 0),
            (np.array([[0, 1]]), (1 << 31) + 1),
            (np.array([[0, (1 << 40) + 1]]), 1),
            (np.array([[-(1 << 40) - 1, 0]]), 1),
        ],
    )
    def test_rejects_bad_input(self, rows, denom):
        with pytest.raises(PreconditionFailed):
            PointSet._from_scaled(rows, denom)


class TestPointSetFiles:
    def test_exact_round_trip_bit_exact(self, tmp_path):
        ps = PointSet.from_points(
            [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(22, 7), 5)]
        )
        path = tmp_path / "pts.txt"
        write_point_set(ps, path)
        back = read_point_set(path)
        assert back.mode == "exact"
        assert list(back.points) == list(ps.points)

    def test_float_round_trip(self, tmp_path):
        ps = PointSet.from_points([(0.1, 0.2), (0.30000000001, 0.4)])
        path = tmp_path / "pts.txt"
        write_point_set(ps, path)
        back = read_point_set(path)
        assert back.mode == "float"
        assert list(back.points) == list(ps.points)

    def test_header_shape(self, tmp_path):
        ps = PointSet.from_points([(0, 0), (1, 1)])
        path = tmp_path / "pts.txt"
        write_point_set(ps, path)
        header = path.read_text().splitlines()[0].split()
        assert header == ["2", "2", "exact"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 two exact\n0 0\n1 1\n")
        with pytest.raises(FormatError):
            read_point_set(path)

    def test_wrong_point_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3 exact\n0 0\n1 1\n")
        with pytest.raises(FormatError):
            read_point_set(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 exact\n0 0\n1 x\n")
        with pytest.raises(FormatError):
            read_point_set(path)

    def test_zero_denominator_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 exact\n0 0\n1/0 1\n")
        with pytest.raises(FormatError, match="line 3"):
            read_point_set(path)

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 complex\n0 0\n1 1\n")
        with pytest.raises(FormatError):
            read_point_set(path)


def assert_same_blocks(got, want):
    """Block for block: shape, dtype and bits of the differences and the
    multiplicities, with every difference column contiguous."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for (diffs, mult), (ref_diffs, ref_mult) in zip(got, want):
        assert diffs.shape == ref_diffs.shape and diffs.dtype == ref_diffs.dtype
        assert all(diffs[:, k].flags.c_contiguous for k in range(diffs.shape[1]))
        if diffs.dtype == object:
            assert diffs.tolist() == ref_diffs.tolist()
            assert {type(v) for v in diffs.ravel()} <= {int}
        else:
            assert diffs.tobytes() == ref_diffs.tobytes()  # -0.0 and 0.0 differ here
        assert mult.dtype == ref_mult.dtype and mult.tobytes() == ref_mult.tobytes()


@st.composite
def pair_loop_inputs(draw):
    """Rows (int64, Python-int object or float64 with +-0.0), optional
    weights, an optional second row set and a block size, often below n."""
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["int64", "object", "float64"]))
    if kind == "float64":
        entry = st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 1e-300, -2.5e10, 0.1])
    else:
        entry = st.integers(-50, 50).map(lambda v: v << 70 if kind == "object" else v)

    def rows(n):
        values = draw(st.lists(st.tuples(*[entry] * d), min_size=n, max_size=n))
        return np.array(values, dtype=kind if kind != "float64" else np.float64).reshape(n, d)

    def weights(n):
        return np.array(draw(st.lists(st.floats(0, 4, allow_nan=False), min_size=n, max_size=n)))

    n = draw(st.integers(1, 12))
    arr = rows(n)
    w = weights(n) if draw(st.booleans()) else None
    other = other_w = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        other = rows(m)
        other_w = None if w is None else weights(m)
    block = draw(st.integers(1, 2 * n * n + 4))
    return arr, w, other, other_w, block


class TestPairBlocksAgainstReference:
    """The column-contiguous, upper-triangle pair blocks against the
    row-major loop of reference_pairs.py."""

    @given(pair_loop_inputs())
    def test_pair_loop_blocks_match(self, case):
        arr, w, other, other_w, block = case
        assert_same_blocks(geometry._pair_loop(arr, w, other, other_w, block=block),
                           reference_pairs.pair_loop(arr, w, other, other_w, block=block))

    @given(product_point_sets(max_axis=6), st.booleans())
    def test_product_blocks_match(self, ps, scaled):
        arr = ps._scaled_rows()[0] if scaled else ps.as_array()
        axes = geometry._product_axes(arr)
        hists = [geometry._cross_diff_histogram(a, a) for a in axes]
        assert_same_blocks(geometry._product_differences(hists),
                           reference_pairs.product_differences(hists))

    def test_blocks_past_one_block(self):
        # 900 float points in d = 3 walk several default-size blocks
        arr = np.random.default_rng(3).standard_normal((900, 3))
        w = np.random.default_rng(4).random(900)
        assert_same_blocks(geometry._pair_loop(arr, None), reference_pairs.pair_loop(arr, None))
        assert_same_blocks(geometry._pair_loop(arr, w, block=10_000), reference_pairs.pair_loop(arr, w, block=10_000))
        assert_same_blocks(geometry._pair_loop(arr[:40], w[:40], arr, w, block=5_000),
                           reference_pairs.pair_loop(arr[:40], w[:40], arr, w, block=5_000))

    def test_plain_form_subtracts_only_the_upper_triangle(self, monkeypatch):
        # every subtraction in a block reads the rows j > i0 of its first row
        arr = np.arange(60, dtype=np.int64).reshape(20, 3) ** 2
        seen = []
        real = np.ndarray.__sub__

        class Rows(np.ndarray):
            def __sub__(self, other):
                seen.append(self.shape)
                return real(np.asarray(self), np.asarray(other))

        rows = arr.view(Rows)
        blocks = list(geometry._pair_loop(rows, None, block=40))
        assert sum(len(diffs) for diffs, _ in blocks) == 20 * 19 // 2
        # rows per block = 40 // 20 = 2, so block i0 subtracts against the 19 - i0 rows after i0
        assert [shape[1] for shape in seen] == [19 - i0 for i0 in range(0, 19, 2) for _ in range(3)]
