"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's internal forms:
directions are normalized by dividing through by the first nonzero entry
instead of reducing to a primitive integer vector, energies are plain
double loops, and slope windows are tested with cross-multiplied Fraction
comparisons so no float division ever enters the expected values.
"""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from dirlab import DirlabError, PointSet, geometry

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)
# deep: more examples for the oracle tests, chosen on the command line
# with --hypothesis-profile=deep
settings.register_profile(
    "deep",
    deadline=None,
    max_examples=500,
    suppress_health_check=list(HealthCheck),
    derandomize=True,
)
settings.load_profile("suite")


def outcome(build, *args):
    """build(*args), or the type and message of the DirlabError it raised."""
    try:
        return build(*args)
    except DirlabError as exc:
        return type(exc), str(exc)


def first_nonzero(values):
    for v in values:
        if v != 0:
            return v
    return None


def oracle_direction(x, y, antipodal):
    """Direction class of x - y, scaled so the first nonzero entry is +-1.

    A different normal form from the library's primitive integer vector;
    the two agree exactly when both are well defined, which is what the
    equivalence tests check.
    """
    diff = [Fraction(a) - Fraction(b) for a, b in zip(x, y)]
    lead = first_nonzero(diff)
    assert lead is not None, "oracle fed a degenerate pair"
    scaled = [v / abs(lead) for v in diff]
    if antipodal and lead < 0:
        scaled = [-v for v in scaled]
    return tuple(scaled)


def oracle_census(points, antipodal):
    """Set of oracle direction classes over distinct pairs.

    Identified mode walks unordered pairs, signed mode both orders: the
    same pair conventions the library census documents.
    """
    keys = set()
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            keys.add(oracle_direction(points[i], points[j], antipodal))
            if not antipodal:
                keys.add(oracle_direction(points[j], points[i], antipodal))
    return keys


def key_to_oracle_form(key):
    """Map a library integer direction key onto the oracle normal form."""
    lead = first_nonzero(key.rep)
    return tuple(Fraction(v) / abs(Fraction(lead)) for v in key.rep)


def brute_energy(points, masses, s):
    """Double-loop s-energy over ordered pairs.

    Runs in Fractions when s is an even integer on rational points (the
    squared distances stay rational), in floats otherwise.
    """
    n = len(points)
    exact = (
        isinstance(s, int)
        and s % 2 == 0
        and all(isinstance(c, (int, Fraction)) for p in points for c in p)
    )
    total = Fraction(0) if exact else 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist_sq = sum(
                (Fraction(a) - Fraction(b)) ** 2
                for a, b in zip(points[i], points[j])
            )
            if exact:
                total += (
                    Fraction(masses[i]) * Fraction(masses[j]) / dist_sq ** (s // 2)
                )
            else:
                total += (
                    float(masses[i])
                    * float(masses[j])
                    * float(dist_sq) ** (-float(s) / 2.0)
                )
    return total


def brute_window_masses(sup1, m1, sup2, m2, centers, eps):
    """Pair mass per window center with every slope coordinate within eps.

    Closed inequalities, tested by multiplying through by the positive
    denominator magnitude, all in Fractions.  centers is a list of
    (d-1)-tuples of Fractions; eps a Fraction.
    """
    d = len(sup1[0])
    out = []
    for t in centers:
        acc = Fraction(0)
        for x, mx in zip(sup1, m1):
            for y, my in zip(sup2, m2):
                den = Fraction(x[d - 1]) - Fraction(y[d - 1])
                mag = abs(den)
                sign = 1 if den > 0 else -1
                ok = True
                for i in range(d - 1):
                    num = (Fraction(x[i]) - Fraction(y[i])) * sign
                    if not (t[i] - eps) * mag <= num <= (t[i] + eps) * mag:
                        ok = False
                        break
                if ok:
                    acc += Fraction(mx) * Fraction(my)
        out.append(acc)
    return out


def brute_chart_mass(sup1, m1, sup2, m2):
    """Pair mass with every slope coordinate inside [1/2, 1], exactly."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    centers = [tuple([half + quarter] * (len(sup1[0]) - 1))]
    return brute_window_masses(sup1, m1, sup2, m2, centers, quarter)[0]


def random_rational_points(rng: random.Random, n, d, denom=16):
    """n distinct points with coordinates j/denom in [0, 1], seeded."""
    pts = set()
    while len(pts) < n:
        pts.add(
            tuple(Fraction(rng.randrange(denom + 1), denom) for _ in range(d))
        )
    return sorted(pts)


def min_pairwise_gap(vectors):
    """Smallest Euclidean distance over distinct vector pairs."""
    best = None
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            gap = sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j])) ** 0.5
            if best is None or gap < best:
                best = gap
    return best


@st.composite
def product_point_sets(draw, max_axis=8, modes=("exact", "float")):
    """Cartesian products of 1..max_axis rationals k/den per axis.

    den <= 24, d in {2, 3}, one of the given modes, at least two points.
    """
    d = draw(st.sampled_from((2, 3)))
    den = draw(st.integers(1, 24))
    axes = [
        draw(st.lists(st.integers(-den, den), min_size=1, max_size=max_axis, unique=True))
        for _ in range(d)
    ]
    pts = [tuple(Fraction(k, den) for k in p) for p in itertools.product(*axes)]
    assume(len(pts) >= 2)
    return PointSet.from_points(pts, mode=draw(st.sampled_from(modes)))


class PairLoopCalled(Exception):
    pass


def refuse_pair_loop(*args, **kwargs):
    raise PairLoopCalled


def steer_plans(mp, paths):
    """From here on every set's difference plan takes the first of its own
    paths (product, grid, pairs) that paths allows.  Each call gets a copy
    of the set's cached plan, which stays as it was."""
    plan_of = PointSet._difference_plan

    def steered(P):
        plan = copy.copy(plan_of(P))
        if plan.path == "product" and "product" not in paths:
            plan.path = "grid"
        if plan.path == "grid" and ("grid" not in paths or plan.span is None):
            plan.path = "pairs"
        return plan

    mp.setattr(PointSet, "_difference_plan", steered)


def force_pair_loop(mp):
    """Steer every set's plan to the pair loop, so every set walks its pairs."""
    steer_plans(mp, ("pairs",))


def counting_pair_loop(mp):
    """Wrap geometry._pair_loop; the returned list counts its calls."""
    calls, loop = [], geometry._pair_loop

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return loop(*args, **kwargs)

    mp.setattr(geometry, "_pair_loop", counting)
    return calls


def fresh_copy(P):
    """A new set with P's stored rows: it shares no cached view, plan or
    census with P, so a census of it walks its pairs."""
    return PointSet._from_scaled(*P._scaled)


def on_both_paths(fn, P):
    """(fn on a distinct-difference path, fn on the pair loop), each run
    on its own fresh_copy of P, so neither reuses a census that P or the
    other run holds.

    The first run fails if the pair loop starts, the second if it never
    does.  A set whose plan still leaves fn on the pair loop (a product
    whose axis values meet in float64, where fn needs float bits) is
    discarded.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_pair_loop", refuse_pair_loop)
        try:
            product = fn(fresh_copy(P))
        except PairLoopCalled:
            assume(False)
    with pytest.MonkeyPatch.context() as mp:
        force_pair_loop(mp)
        calls = counting_pair_loop(mp)
        pair = fn(fresh_copy(P))
        assert calls, "the pair-loop run never walked its pairs"
    return product, pair
