"""Direction keys, slope vectors, affine rank, point sets, and files."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_direction, outcome, product_point_sets
import reference_generators
import reference_io
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
        slopes = slope_of_pair((1, 3), (0, 1))
        assert type(slopes) is tuple and slopes == (Fraction(1, 2),)

    def test_space_example(self):
        assert slope_of_pair((2, 3, 5), (0, 1, 1)) == (
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
            assert slope_of_pair(x, y) == slope_of_pair(y, x)

    def test_float_mode(self):
        assert slope_of_pair((1.0, 2.0), (0.0, 0.0)) == (0.5,)


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

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "np.bool_"])
    @pytest.mark.parametrize("mode", [None, "exact", "float"])
    def test_bool_coordinates_rejected(self, flag, mode):
        # exact and float mode once read True as 1 and 1.0
        with pytest.raises(MixedMode, match="^bool is not a coordinate type$"):
            PointSet.from_points([(flag, 0), (0, 1)], mode=mode)

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
        [(math.nan, None), (math.inf, None), (-math.inf, None), (1e300, None), (math.nan, "exact"), (math.inf, "exact")],
    )
    def test_bad_coordinates_rejected(self, bad, mode):
        # 1e300 lies past the float limit 2^500, where squared differences overflow
        with pytest.raises(PreconditionFailed, match="finite"):
            PointSet.from_points([(bad, 0.0), (2.0, 0.0)], mode=mode)

    @pytest.mark.parametrize("text", ["abc", "1/2", "1.5", np.str_("3")])
    @pytest.mark.parametrize("mode", [None, "exact", "float"])
    def test_str_coordinates_rejected(self, text, mode):
        # exact mode once read "1/2" through Fraction(str), float mode "1.5" through numpy
        with pytest.raises(MixedMode, match="^unsupported coordinate type str$"):
            PointSet.from_points([(text, 0), (1, Fraction(3, 4))], mode=mode)

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
        assert len(ps) == 200 and ps.scaled_integer() is None and ps._scaled[1] == p
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
        rows_again, denom_again = ps._scaled
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
        again = PointSet._from_scaled(*ps._scaled)
        assert again == ps and again.points == ps.points
        assert again.as_array().tobytes() == want.tobytes()

    def test_slow_path_rows_past_the_bounds(self):
        ps = PointSet.from_points([(Fraction(1, (1 << 31) + 1), 0), (0, Fraction(1 << 41))])
        rows, denom = ps._scaled
        assert ps.scaled_integer() is None and ps._scaled[0] is rows
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

    def test_non_ascii_byte_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("2 2 exact\n0 0\n1 \u00e9\n".encode("utf-8"))
        with pytest.raises(FormatError, match="ASCII"):
            read_point_set(path)


def fraction_reads(token):
    try:
        Fraction(token)
    except ValueError:
        return False
    return True


# Exact tokens: the writer's num/den form, integers with and without a sign,
# reducible fractions, and forms only Fraction(str) reads ("1_000" from
# Python 3.11 on).
EXACT_SPELLINGS = [t for t in ["3", "-3/4", "6/8", "+5", "-0", "007/014", "0.5", "1e3", "1_000", "-2.25"]
                   if fraction_reads(t)]
# 2^31 + 11 is prime, so k * WIDE / (j * WIDE) reduces to k / j only by WIDE
WIDE = (1 << 31) + 11


@st.composite
def exact_tokens(draw):
    kind = draw(st.sampled_from(["int", "frac", "spelling", "big", "reduces", "wide"]))
    if kind == "int":
        k = draw(st.integers(-20, 20))
        return draw(st.sampled_from([str(k), f"+{k}" if k >= 0 else f"-{-k}"]))
    if kind == "frac":
        return f"{draw(st.integers(-30, 30))}/{draw(st.integers(1, 12))}"
    if kind == "spelling":
        return draw(st.sampled_from(EXACT_SPELLINGS))
    if kind == "big":  # numerator past 2^40: object rows
        return f"{draw(st.sampled_from([-1, 1])) * draw(st.integers(1 << 40, 1 << 70))}/{draw(st.integers(1, 9))}"
    if kind == "reduces":  # denominator past 2^31 that reduces to a small one
        return f"{draw(st.integers(-9, 9)) * WIDE}/{draw(st.integers(1, 4)) * WIDE}"
    return f"{draw(st.integers(-9, 9))}/{WIDE}"  # denominator past 2^31: object rows


FLOAT_SPELLINGS = ["1e3", "+.5", "1_0", "-0.0", "0.5", "3", "-2.5E-3", "1.0000000000000002"]
float_tokens = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(FLOAT_SPELLINGS),
)


def float_key(token):
    return round(float(token) / geometry.DUPLICATE_RESOLUTION)


@st.composite
def point_files(draw):
    """The text of a well-formed point file: distinct points (at
    DUPLICATE_RESOLUTION for floats) written with mixed separators, CRLF or
    LF line ends, padding and blank lines."""
    mode = draw(st.sampled_from(["exact", "float"]))
    d = draw(st.integers(2, 4))
    token, key = (exact_tokens(), Fraction) if mode == "exact" else (float_tokens, float_key)
    rows = draw(st.lists(st.lists(token, min_size=d, max_size=d), min_size=1, max_size=8,
                         unique_by=lambda row: tuple(map(key, row))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{d} {len(rows)} {mode}"]
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=2)))
        seps = draw(st.lists(st.sampled_from([" ", "\t", "  ", " \t"]), min_size=d - 1, max_size=d - 1))
        lead, trail = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=2, max_size=2))
        lines.append(lead + row[0] + "".join(sep + t for sep, t in zip(seps, row[1:])) + trail)
    return end.join(lines) + draw(st.sampled_from(["", end, end + " " + end]))


def assert_same_set(got, want):
    """Mode, dimension, dtype, rows and denominator alike; exact rows of Python ints."""
    g_rows, g_denom = got._scaled
    w_rows, w_denom = want._scaled
    assert (got.mode, got.dimension) == (want.mode, want.dimension)
    assert g_rows.dtype == w_rows.dtype and g_rows.shape == w_rows.shape
    assert type(g_denom) is type(w_denom) and g_denom == w_denom
    if g_rows.dtype == object:
        assert g_rows.tolist() == w_rows.tolist() and {type(v) for v in g_rows.ravel()} == {int}
    else:
        assert g_rows.tobytes() == w_rows.tobytes()
    assert got.points == want.points


def assert_reads_alike(path, block=None):
    """The library reader, taking about block bytes of lines at a time, and
    the line-by-line reference give equal sets, or raise the same exception
    type with the same message."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(geometry, "_READ_BYTES", block)
        try:
            want = reference_io.read_point_set(path)
        except Exception as exc:  # noqa: BLE001 - any failure must be reproduced
            with pytest.raises(type(exc)) as got:
                read_point_set(path)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return None
        got = read_point_set(path)
    assert_same_set(got, want)
    return got


# bytes of lines the reader takes at a time: one line, a few lines, the default
read_blocks = st.sampled_from([1, 40, None])


class TestReaderAgainstReference:
    """read_point_set against the line-by-line Fraction reader it replaced."""

    @given(text=point_files(), block=read_blocks)
    def test_well_formed_files_read_alike(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("files") / "pts.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(geometry, "_READ_BYTES", block)
            got = read_point_set(path)
        if got.mode == "exact":
            assert got._points is None  # built on first use, from the rows
        assert_same_set(got, reference_io.read_point_set(path))

    @given(text=point_files(), block=read_blocks, data=st.data())
    def test_corrupted_files_fail_alike(self, tmp_path_factory, text, block, data):
        lines = text.split("\n")
        at = data.draw(st.integers(1, len(lines) - 1))
        how = data.draw(st.sampled_from(["drop", "add", "token", "zero", "nan", "count", "dup"]))
        tokens = lines[at].split() or ["0"]
        if how == "drop":
            lines[at] = " ".join(tokens[:-1])
        elif how == "add":
            lines[at] = " ".join(tokens + ["1"])
        elif how == "token":
            lines[at] = " ".join(tokens[:-1] + [data.draw(st.sampled_from(["x", "1/2/3", "3/-4", "/2", "1.2.3", "inf"]))])
        elif how == "zero":
            lines[at] = " ".join(tokens[:-1] + ["1/0"])
        elif how == "nan":
            lines[at] = " ".join(tokens[:-1] + ["nan"])
        elif how == "count":
            head = lines[0].split()
            lines[0] = " ".join([head[0], str(int(head[1]) + data.draw(st.sampled_from([-1, 1]))), head[2]])
        else:
            lines.append(lines[at])
            head = lines[0].split()
            lines[0] = " ".join([head[0], str(int(head[1]) + 1), head[2]])
        path = tmp_path_factory.mktemp("files") / "bad.txt"
        path.write_bytes("\n".join(lines).encode("ascii"))
        assert_reads_alike(path, block)

    @pytest.mark.parametrize(
        "text",
        [
            # header
            "", "2 2\n0 0\n1 1\n", "2 two exact\n0 0\n1 1\n", "2 2 complex\n0 0\n1 1\n",
            # line length, and which of two problems comes first
            "2 2 exact\n0 0\n1 1 1\n", "2 2 float\n0 0\n\n1\n", "2 3 exact\n0 x\n1 1 1\n0 1\n",
            "2 3 exact\n0 0 0\n1 x\n0 1\n", "0 1 exact\n1\n", "-1 1 float\n1\n",
            # bad token
            "2 2 exact\n0 0\n1 x\n", "2 2 exact\n0 0\n1/2/3 1\n", "2 2 exact\n0 0\n3/-4 1\n",
            "2 2 exact\n0 0\n/2 1\n", "2 2 exact\n0 0\ninf 1\n", "2 2 float\n0 0\n1.2.3 1\n",
            "2 2 float\n0 0\n1/2 1\n", "2 2 exact\n0 0\n1__0 1\n", "2 2 exact\n0 0\n3/6e1 1\n",
            # zero denominator
            "2 2 exact\n0 0\n1/0 1\n", "2 2 exact\n0 0\n0/0 1\n", "2 2 exact\n0 0\n5/00 1\n",
            # count
            "2 3 exact\n0 0\n1 1\n", "2 1 exact\n0 0\n1 1\n", "2 -1 float\n", "2 3 exact\n0 0\n1 x\n",
            # empty set
            "2 0 exact\n", "2 0 float\n\n \t\n", "0 0 exact\n",
            # dimension below 2
            "1 2 exact\n0\n1\n", "1 2 float\n0.5\n1.5\n",
            # duplicates, exact and at the float resolution
            "2 2 exact\n1/2 0\n2/4 -0\n", "2 2 float\n0.1 0.2\n0.1 0.2\n", "2 2 float\n0 1\n1e-13 1\n",
            # non-finite floats
            "2 2 float\n0 0\nnan 1\n", "2 2 float\n0 0\n1 inf\n", "2 2 float\n0 0\n1e400 1\n",
            "2 2 float\n0 0\n1e151 1\n",
            # a lone carriage return ends a line; a form feed does not
            "2 2 exact\r0 0\r1 x\r", "2 2 exact\r\n0 0\r\n\r\n1 1 1\r\n", "2 2 exact\n0 0\x0c\n1 x\n",
        ],
    )
    def test_malformed_files_fail_alike(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("ascii"))
        assert assert_reads_alike(path) is None
        assert assert_reads_alike(path, 1) is None

    @pytest.mark.parametrize("text", [
        "3 2 exact\n1/3 -2/7 0\n22/7 5 1e3\n",
        "2 2 exact\n%d/3 1\n0 0\n" % (1 << 70),
        "2 2 exact\n%d/%d 1\n0 1/%d\n" % (6 * WIDE, 8 * WIDE, WIDE),
        "2 3 float\n1e3 +.5\n1_0 -0.0\n\t0.1\t0.2 \n",
        "2 2 float\n0\x1c0\x0c\n1\x0b1\n",  # separators str.split knows
    ])
    def test_fixed_files_read_alike(self, tmp_path, text):
        path = tmp_path / "pts.txt"
        path.write_bytes(text.encode("ascii"))
        assert assert_reads_alike(path) is not None

    def test_exact_tokens_reduce_before_the_lcm(self):
        # reduced first, "k*WIDE/(j*WIDE)" tokens keep the lcm of the denominators small
        tokens = ["6/8", "-3/6", "+4", "0/5", f"{3 * WIDE}/{6 * WIDE}"]
        want = [[3, -1, 4, 0, 1], [4, 2, 1, 1, 2]]
        assert [list(t) for t in geometry._parse_tokens(tokens, "exact")] == want
        # one token outside the fast form sends the block through Fraction, with the same terms
        terms = geometry._parse_tokens(tokens + ["0.75"], "exact")
        assert [list(t) for t in terms] == [want[0] + [3], want[1] + [4]]

    @pytest.mark.parametrize("mode, token", [("exact", "1/3"), ("float", "0.25")])
    def test_files_past_one_block(self, tmp_path, mode, token):
        # 3,000 points, then a stretch of blank lines longer than a block
        rows = [f"{i} {token}" for i in range(3000)]
        text = "\n".join([f"2 3001 {mode}"] + rows + [" "] * 70_000 + [f"-1 {token}"]) + "\n"
        path = tmp_path / "pts.txt"
        path.write_bytes(text.encode("ascii"))
        assert len(assert_reads_alike(path)) == 3001
        path.write_bytes(text.replace("2999 ", "2999 x ").encode("ascii"))
        with pytest.raises(FormatError, match="line 3001: expected 2"):
            read_point_set(path)
        assert assert_reads_alike(path) is None


def reference_distinct_words(words):
    """The distinct word tuples by one full lexsort and an adjacent compare."""
    if not len(words[0]):
        return [w[:0] for w in words]
    order = np.lexsort(words[::-1])
    words = [w[order] for w in words]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = np.any([w[1:] != w[:-1] for w in words], axis=0)
    return [w[keep] for w in words]


WORD_VALUES = {
    "int64": st.sampled_from([-(1 << 63), -(1 << 62), -7, -1, 0, 1, 2, 3, 1 << 40, (1 << 63) - 1]),
    "object": st.sampled_from([-(1 << 80), -(1 << 63), -1, 0, 1, 2, 1 << 63, 1 << 80]),
    "float": st.sampled_from([-1e300, -2.5, -0.0, 0.0, 1e-300, 1.0, 3.0, 1e300]),
}


class TestDistinctWordsAgainstReference:
    """_distinct_words (sort on the first word, lexsort of its ties) against one full lexsort."""

    @given(kind=st.sampled_from(sorted(WORD_VALUES)), k=st.integers(1, 3), n=st.integers(0, 60), data=st.data())
    def test_matches_full_lexsort(self, kind, k, n, data):
        dtype = {"int64": np.int64, "object": object, "float": np.float64}[kind]
        words = [np.array(data.draw(st.lists(WORD_VALUES[kind], min_size=n, max_size=n)), dtype=dtype)
                 for _ in range(k)]
        got = geometry._distinct_words(words)
        want = reference_distinct_words(words)
        assert len(got) == k
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()  # -0.0 == 0.0 either way

    def test_many_ties_in_the_first_word(self):
        rng = np.random.default_rng(7)
        words = [rng.integers(0, 3, 5000), rng.integers(-50, 50, 5000), rng.integers(0, 2, 5000)]
        for g, w in zip(geometry._distinct_words(words), reference_distinct_words(words)):
            assert g.tolist() == w.tolist()


float_coords = st.sampled_from([0.0, -0.0, 1.0, 1e-13, -4e-13, 2.5e-12, 3.5e-12, 0.5, 1.0 + 1e-13])


class TestFloatDuplicatesAgainstReference:
    """The float duplicate check counts distinct rounded keys as np.unique(axis=0) does."""

    @given(d=st.integers(2, 3), data=st.data())
    def test_counts_as_axis_unique(self, d, data):
        rows = np.array(data.draw(st.lists(st.lists(float_coords, min_size=d, max_size=d), min_size=1, max_size=30)))
        keys = np.round(rows / geometry.DUPLICATE_RESOLUTION)
        distinct = len(np.unique(keys, axis=0))
        assert len(geometry._distinct_words(list(keys.T))[0]) == distinct
        if distinct < len(rows):
            with pytest.raises(PreconditionFailed, match="duplicate point"):
                PointSet._from_scaled(rows, 1.0)
        else:
            assert len(PointSet._from_scaled(rows, 1.0)) == len(rows)


class TestTakeAgainstReference:
    """PointSet._take (the split's pieces) equals _from_scaled on the same rows."""

    @given(mode=st.sampled_from(["int64", "object", "float"]), data=st.data())
    def test_matches_from_scaled(self, mode, data):
        if mode == "float":
            values = st.floats(-4, 4, allow_nan=False)
        else:  # one far denominator puts object rows back into int64 once it is left out
            values = st.sampled_from([Fraction(k, 6) for k in range(-6, 7)] + [Fraction(1, WIDE)] * (mode == "object"))
        rows = data.draw(st.lists(st.tuples(values, values), min_size=1, max_size=12,
                                  unique_by=lambda r: tuple(round(float(v) * 1e9) for v in r)))
        P = PointSet.from_points(rows, mode="float" if mode == "float" else "exact")
        sel = np.array(sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))))
        assert_same_set(P._take(sel), PointSet._from_scaled(P._scaled[0][sel], P._scaled[1]))



class Halves(Fraction):
    """A Fraction subclass: from_points converts its coordinates as it does
    ints, not as exactly-Fraction ones."""


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, PointSet)
        assert_same_set(got, want)


@st.composite
def scaled_exact_rows(draw):
    """Integer rows with a denominator for _from_scaled: int64 within the
    bounds (and past them, refused), Python-int rows past them, negative
    entries, repeated rows, and a factor shared by the denominator and every
    row, which _lowest_terms divides out."""
    d = draw(st.integers(2, 3))
    wide = draw(st.booleans())
    top = geometry.MAX_NUMERATOR << (3 if wide else 0)
    entry = st.one_of(st.integers(-13, 13), st.integers(-top, top))
    rows = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=12, unique=True))
    if draw(st.booleans()) and len(rows) > 1:  # a duplicate
        rows.insert(draw(st.integers(1, len(rows))), draw(st.sampled_from(rows)))
    bound = geometry.MAX_DENOMINATOR << (1 if wide else 0)
    denom = draw(st.one_of(st.integers(1, 24), st.integers(1, bound)))
    factor = draw(st.sampled_from([1, 2, 6, 35, 1 << 20]))
    rows = [[v * factor for v in r] for r in rows]
    int64 = all(abs(v) < 1 << 63 for r in rows for v in r) and draw(st.booleans())
    return np.array(rows, dtype=np.int64 if int64 else object), denom * factor


exact_coordinates = {
    "fraction": st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    "int": st.integers(-5, 5),
    "np.int64": st.integers(-5, 5).map(np.int64),
    "subclass": st.builds(Halves, st.integers(-6, 6), st.just(2)),
    "wide": st.builds(Fraction, st.integers(-9, 9), st.just(WIDE)),  # denominator past 2^31: object rows
}


def exact_value(v):
    """A from_points coordinate as the Fraction it stands for."""
    return Fraction(int(v) if isinstance(v, np.integer) else v)


@st.composite
def exact_point_lists(draw):
    """from_points input: each kind of exact coordinate alone, or mixed."""
    d = draw(st.integers(2, 3))
    kinds = draw(st.sampled_from([[k] for k in sorted(exact_coordinates)] + [sorted(exact_coordinates)]))
    coordinate = st.one_of([exact_coordinates[k] for k in kinds])
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=10,
                           unique_by=lambda p: tuple(map(exact_value, p))))
    if draw(st.booleans()) and len(points) > 1:  # a duplicate, maybe spelled otherwise
        p = draw(st.sampled_from(points))
        points.insert(draw(st.integers(1, len(points))), draw(st.sampled_from([p, tuple(map(exact_value, p))])))
    return points


class TestConstructorsAgainstReference:
    """PointSet._from_scaled and from_points against their reference forms
    (per-coordinate Fractions, the gcd of every entry, distinct rows unpacked
    by _unique_rows): the same rows, dtype, denominator and points, and the
    same inputs refused with the same messages."""

    @given(scaled_exact_rows())
    def test_from_scaled(self, case):
        rows, denom = case
        want = outcome(reference_generators.from_scaled, rows.copy(), denom)
        assert_same_outcome(outcome(PointSet._from_scaled, rows, denom), want)

    @given(exact_point_lists(), st.sampled_from([None, "exact"]))
    def test_from_points(self, points, mode):
        want = outcome(reference_generators.from_points, points, mode)
        got = outcome(PointSet.from_points, points, mode)
        assert_same_outcome(got, want)
        if isinstance(got, PointSet):
            assert [type(v) for p in got.points for v in p] == [type(v) for p in want.points for v in p]
            if all(type(v) is Fraction for p in points for v in p):
                assert all(kept is p for kept, p in zip(got.points, points))  # the given tuples themselves

    def test_numpy_integers_enter_as_ints(self):
        # Fraction(np.int64(3)) kept np.int64 numerators: 3 * 2^62 wrapped in int64
        ps = PointSet.from_points([(np.int64(3), Fraction(1, 1 << 62)), (np.int64(0), 0)], mode="exact")
        rows, denom = ps._scaled
        assert denom == 1 << 62 and rows.dtype == object and rows.tolist() == [[3 << 62, 1], [0, 0]]
        assert {type(v) for v in rows.ravel()} == {int}
        assert {type(c.numerator) for p in ps.points for c in p} == {int}

    @pytest.mark.parametrize("points", [
        [(Fraction(1, 2), 1), (np.int64(3), Halves(1, 2)), (Fraction(1, 2), Fraction(1))],
        [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 6), Fraction(4, 6))],
        [(Fraction(1, WIDE), 0), (0, Fraction(1 << 41))],
        [(Fraction(-7, 4), Fraction(5, 6)), (Fraction(7, 4), Fraction(-5, 6))],
    ])
    def test_examples(self, points):
        assert_same_outcome(outcome(PointSet.from_points, points, "exact"),
                            outcome(reference_generators.from_points, points, "exact"))


class TestLowestTermsAgainstGcd:
    """_lowest_terms divides by math.gcd of the denominator and every entry,
    though it stops reading rows once the gcd reaches 1."""

    @given(kind=st.sampled_from(["int64", "object"]), data=st.data())
    def test_matches_gcd_of_every_entry(self, kind, data):
        d = data.draw(st.integers(1, 3))
        big = 1 << (70 if kind == "object" else 40)
        entry = st.one_of(st.integers(-12, 12), st.integers(-big, big))
        flat = data.draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=20))
        factor = data.draw(st.sampled_from([1, 2, 12, 1 << 20]))
        denom = data.draw(st.integers(1, 1 << 31)) * factor
        rows = np.array([[v * factor for v in r] for r in flat], dtype=np.int64 if kind == "int64" else object)
        rows = rows[:, 0] if d == 1 else rows  # one column: a measure's weights
        g = math.gcd(denom, *rows.ravel().tolist())
        got, got_denom = geometry._lowest_terms(rows, denom, rows.min(), rows.max())
        assert got_denom == denom // g and type(got_denom) is int
        assert got.tolist() == (rows // g).tolist()
        assert got.dtype == (np.int64 if geometry._fits(denom // g, got.min(), got.max()) else object)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_first_row_shares_a_factor_the_set_does_not(self, dtype):
        # gcd(12, 6, 4) = 2 over the first row, 1 once the third row is in
        rows = np.array([[6, 4], [2, 8], [3, 0], [9, 12]], dtype=dtype)
        got, denom = geometry._lowest_terms(rows, 12, 0, 12)
        assert denom == 12 and got.tolist() == rows.tolist() and got.dtype == np.int64
        # and one the whole set shares: gcd 2 over all four rows
        rows = np.array([[6, 4], [2, 8], [10, 0], [4, 12]], dtype=dtype)
        got, denom = geometry._lowest_terms(rows, 12, 0, 12)
        assert denom == 6 and got.tolist() == [[3, 2], [1, 4], [5, 0], [2, 6]] and got.dtype == np.int64

    def test_stops_reading_rows_at_gcd_one(self):
        # the second row is never read: the first already brings the gcd to 1,
        # and the bounds past int64 keep the object rows as given
        rows = np.array([[1, 0], [None, None]], dtype=object)
        got, denom = geometry._lowest_terms(rows, 6, 0, 1 << 41)
        assert denom == 6 and got is rows


def old_grouped_sum(keys, values):
    """_grouped_sum as it stood: np.unique, the inverse by binary search,
    and np.add.at in the values' order."""
    distinct = np.unique(keys)
    inverse = np.searchsorted(distinct, keys)
    sums = np.zeros(len(distinct), dtype=values.dtype)
    np.add.at(sums, inverse, values)
    return distinct, sums, inverse


GROUP_KEYS = {
    "int64": st.integers(-(1 << 62), 1 << 62),
    "object": st.integers(-(1 << 80), 1 << 80),  # wide r2 keys of the exact energy
}
GROUP_VALUES = {
    "int64": (np.int64, st.integers(-(1 << 40), 1 << 40)),
    "object": (object, st.integers(-(1 << 80), 1 << 80)),
    "float": (np.float64, st.floats(-1e6, 1e6, allow_nan=False)),
}


class TestGroupedSumAgainstReference:
    """_grouped_sum against a dict of per-key sums, float sums bit for bit
    those of the old binary-search form, and the sort it returns inverting
    to each key's group."""

    @given(key_kind=st.sampled_from(sorted(GROUP_KEYS)), value_kind=st.sampled_from(sorted(GROUP_VALUES)),
           data=st.data())
    def test_matches_dict_and_old_sums(self, key_kind, value_kind, data):
        n = data.draw(st.integers(0, 60))
        pool = data.draw(st.lists(GROUP_KEYS[key_kind], min_size=1, max_size=8))
        keys = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                        dtype=np.int64 if key_kind == "int64" else object)
        dtype, value = GROUP_VALUES[value_kind]
        values = np.array(data.draw(st.lists(value, min_size=n, max_size=n)), dtype=dtype)
        distinct, sums, order, start = geometry._grouped_sum(keys, values)
        want = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            want[k] = want.get(k, 0) + v
        assert distinct.tolist() == sorted(want) and sums.dtype == values.dtype
        old = old_grouped_sum(keys, values)
        assert distinct.tolist() == old[0].tolist()
        if value_kind == "float":
            assert [v.hex() for v in sums.tolist()] == [v.hex() for v in old[1].tolist()]
        else:
            assert sums.tolist() == [want[k] for k in sorted(want)]
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(start) - 1
        assert inverse.tolist() == old[2].tolist() and start.sum() == len(distinct)

    def test_float_sums_keep_the_values_order(self):
        # each key's values added left to right: (1e16 + 1) + 1 = 1e16, not 1e16 + 2
        keys = np.array([5, 3, 5, 3, 5, 3])
        values = np.array([1e16, 1.0, 1.0, 1e16, 1.0, 1.0])
        _, sums, _, _ = geometry._grouped_sum(keys, values)
        assert sums.tolist() == [(1.0 + 1e16) + 1.0, (1e16 + 1.0) + 1.0] == old_grouped_sum(keys, values)[1].tolist()

    def test_many_keys(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 75_000, 75_000)
        for values in (rng.integers(1, 100, 75_000), rng.random(75_000)):
            got, old = geometry._grouped_sum(keys, values), old_grouped_sum(keys, values)
            assert got[0].tobytes() == old[0].tobytes() and got[1].tobytes() == old[1].tobytes()


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
        arr = ps._scaled[0] if scaled else ps.as_array()
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


@st.composite
def histogram_axes(draw):
    """Two distinct-valued axes as int64, float64 (k / 7) or Python ints
    past int64, and a block size from one difference to the whole outer."""
    kind = draw(st.sampled_from(("int64", "float", "object")))
    v1, v2 = (sorted(draw(st.lists(st.integers(-40, 40), min_size=1, max_size=50, unique=True))) for _ in range(2))
    block = draw(st.integers(1, len(v1) * len(v2) + 5))
    if kind == "float":
        return np.array(v1) / 7, np.array(v2) / 7, block
    if kind == "object":
        return (np.array([k << 70 for k in v1], dtype=object), np.array([k << 70 for k in v2], dtype=object),
                block)
    return np.array(v1, dtype=np.int64), np.array(v2, dtype=np.int64), block


class TestCrossDiffHistogram:
    """The cross-difference histogram in row blocks of at most _PAIR_BLOCK
    differences against np.unique of the whole outer difference."""

    @given(histogram_axes())
    def test_equals_the_outer_form(self, case):
        v1, v2, block = case
        want_values, want_counts = np.unique(np.subtract.outer(v1, v2), return_counts=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PAIR_BLOCK", block)
            values, counts = geometry._cross_diff_histogram(v1, v2)
        assert values.dtype == want_values.dtype and counts.dtype == want_counts.dtype
        assert values.tolist() == want_values.tolist() and counts.tolist() == want_counts.tolist()

    def test_line_of_3000_points_plans_in_bounded_memory(self):
        import tracemalloc

        line = PointSet.from_points([(k, 0) for k in range(3000)])  # 4,498,500 pairs
        tracemalloc.start()
        try:
            plan = line._difference_plan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole outer difference of the axis alone is 72 MB
        assert peak < 8 << 20
        values, counts = geometry._cross_diff_histogram(*plan.axes[:1] * 2)
        assert plan.path == "product" and values.tolist() == list(range(-2999, 3000))
        assert counts.tolist() == [3000 - abs(v) for v in range(-2999, 3000)]
