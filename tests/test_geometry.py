"""Direction keys, slope vectors, affine rank, point sets, and files."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_direction
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
    read_point_set,
    slope_of_pair,
    write_point_set,
)

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

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 complex\n0 0\n1 1\n")
        with pytest.raises(FormatError):
            read_point_set(path)
