"""The four benchmark workloads.

Each workload has four steps:

* ``prepare(seed, workdir)``: untimed; makes the seeded inputs and writes
  any point files.
* ``setup(prepared)``: timed as ``setup_s``; builds or reads the inputs
  and measures the program works on.
* ``ops(inputs)``: the operations timed as ``solve_s``, each an ``Op``
  whose ``run`` makes the program calls and whose ``check`` (untimed)
  checks what they returned.
* ``profile(inputs)``: untimed; describes the inputs (points, dimension,
  mode, product support, common denominator, pairs) so a later change can
  say what share of a workload has the property it relies on.

``product`` and ``cantor`` are fixed constructions: they record the seed
but do not use it.  ``general`` and ``small`` draw their inputs from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dirlab
from checks import (
    Checker,
    brute_energy,
    check_census_pair,
    check_coverage,
    check_split,
    check_subset,
    coverage_summary,
    digest,
    float_energy,
)

CANTOR_RATIO = Fraction(1, 4)
CANTOR_M = 3
# Same formula as the experiment runners, so the runs match the suite.
CANTOR_S = 2 * math.log(CANTOR_M) / math.log(1 / CANTOR_RATIO)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Checker, Any], None]


def input_profile(label: str, P) -> dict:
    """Describe one point set from its coordinates."""
    n, d = len(P), P.dimension
    axis_values = [len({p[k] for p in P.points}) for k in range(d)]
    denominator = None
    if P.mode == "exact":
        denominator = 1
        for p in P.points:
            for c in p:
                denominator = math.lcm(denominator, c.denominator)
    return {
        "input": label,
        "points": n,
        "dimension": d,
        "mode": P.mode,
        "product_support": math.prod(axis_values) == n,
        "denominator": denominator,
        "pairs": n * (n - 1) // 2,
    }


def summarize_profile(rows: list[dict]) -> dict:
    pairs = sum(r["pairs"] for r in rows)
    return {
        "inputs": rows,
        "points": sum(r["points"] for r in rows),
        "pairs": pairs,
        "product_pair_share": sum(r["pairs"] for r in rows if r["product_support"]) / pairs,
        "exact_pair_share": sum(r["pairs"] for r in rows if r["mode"] == "exact") / pairs,
    }


class Workload:
    name = ""
    why = ""
    # function name -> reducer, for results the checks read from inside a call
    capture: dict = {}

    def prepare(self, seed: int, workdir: Path):
        return None

    def setup(self, prepared):
        raise NotImplementedError

    def ops(self, inputs, tracer) -> list[Op]:
        raise NotImplementedError

    def profile(self, inputs) -> dict:
        raise NotImplementedError


# --- product ------------------------------------------------------------------

SCALING_Q = [8, 16, 32, 64]
GARNETT_DEPTHS = [2, 3, 4, 5]
ADAPTABLE_DEPTH = 4


class Product(Workload):
    name = "product"
    why = ("direction sections of the shipped suite; every input is a Cartesian "
           "product on the packed-int64 census path")
    capture = {
        "sphere_coverage_sweep": coverage_summary,
        "distinct_directions": None,
        "separated_subset": None,
    }

    def setup(self, prepared):
        return {"cantor": dirlab.product_cantor(2, depth=ADAPTABLE_DEPTH, m=CANTOR_M, ratio=CANTOR_RATIO)}

    def ops(self, inputs, tracer):
        P = inputs["cantor"]

        def check_report(name, coverage_calls):
            def check(chk, report):
                chk.expect(f"{name} verdicts pass", report.error is None and report.passed(),
                           str(report.verdicts))
                chk.record(f"{name}.series", report.series, seeded=False)
                grids = tracer.take("sphere_coverage_sweep")
                chk.expect(f"{name} coverage calls", len(grids) == coverage_calls, str(len(grids)))
                for summary in grids:
                    check_coverage(chk, name, summary)
            return check

        def check_adaptable(chk, report):
            check_report("adaptable-cantor", 0)(chk, report)
            census, signed = tracer.take("distinct_directions")
            check_census_pair(chk, "adaptable-cantor census", census, signed)
            (subset,) = tracer.take("separated_subset")
            check_subset(chk, "adaptable-cantor subset", subset, census)

        return [
            Op("scaling-thin",
               lambda: dirlab.run_scaling_lattice(d=2, s=0.8, q_list=SCALING_Q, tolerance=0.4),
               check_report("scaling-thin", len(SCALING_Q))),
            Op("scaling-full",
               lambda: dirlab.run_scaling_lattice(d=2, s=2.0, q_list=SCALING_Q, tolerance=0.4),
               check_report("scaling-full", len(SCALING_Q))),
            Op("garnett", lambda: dirlab.run_garnett_decay(GARNETT_DEPTHS),
               check_report("garnett", 2 * len(GARNETT_DEPTHS))),
            Op("adaptable-cantor",
               lambda: dirlab.run_adaptable_directions(P, CANTOR_S, label="adaptable-cantor"),
               check_adaptable),
        ]

    def profile(self, inputs):
        rows = [input_profile(f"lattice q={q}", dirlab.lattice_set(dirlab.LatticeSpec(q=q, d=2)))
                for q in SCALING_Q]
        for k in GARNETT_DEPTHS:
            rows.append(input_profile(f"garnett depth={k}",
                                      dirlab.ifs_approximant(dirlab.garnett_system(), k)))
            rows.append(input_profile(f"hyperplane n={4**k}", dirlab.hyperplane_sample(3, max(2, 4**k))))
        rows.append(input_profile(f"cantor depth={ADAPTABLE_DEPTH}", inputs["cantor"]))
        return summarize_profile(rows)


# --- cantor -------------------------------------------------------------------

BAND_DEPTH = 6
BAND_EPS = [2.0**-k for k in range(3, 8)]
BAND_C = 1 / 16
BAND_LIMIT = 10.0


def check_band(chk: Checker, name: str, band, split, seeded: bool) -> None:
    chk.expect(f"{name} integrals finite and positive",
               all(math.isfinite(v) and v > 0 for v in band.integrals), str(band.integrals))
    chk.expect(f"{name} split level agrees", band.split_level == split.level,
               f"{band.split_level} vs {split.level}")
    check_split(chk, f"{name} split", split)
    chk.record(f"{name}.band", {
        "epsilons": band.epsilons,
        "integrals": band.integrals,
        "reference_level": band.reference_level,
        "band_constant": band.band_constant,
        "deviation_exponent": band.deviation_exponent,
        "chart_mass": band.chart_mass,
        "denominator_gap": band.denominator_gap,
    }, seeded=seeded)
    chk.record(f"{name}.split", {
        "level": split.level,
        "piece_masses": split.piece_masses,
        "child_indices": split.child_indices,
        "sep_coordinate": split.sep_coordinate,
        "piece_sizes": [len(p) for p in split.pieces],
    }, seeded=seeded)


class Cantor(Workload):
    name = "cantor"
    why = ("band-cantor section (criterion 08): per-coordinate Fraction work in the "
           "generator, weights and split; no pair kernel runs")
    capture = {"stopping_time_split": None}

    def setup(self, prepared):
        P = dirlab.product_cantor(2, depth=BAND_DEPTH, m=CANTOR_M, ratio=CANTOR_RATIO)
        return {"cantor": P, "mu": dirlab.uniform_weights(P, s=CANTOR_S)}

    def ops(self, inputs, tracer):
        mu = inputs["mu"]

        def check(chk, band):
            (split,) = tracer.take("stopping_time_split")
            check_band(chk, "band-cantor", band, split, seeded=False)
            chk.expect("band-cantor band constant within limit",
                       band.band_constant is not None and band.band_constant <= BAND_LIMIT,
                       str(band.band_constant))

        return [Op("band-cantor",
                   lambda: dirlab.slope_band_sweep(mu, CANTOR_S, BAND_EPS, c=BAND_C), check)]

    def profile(self, inputs):
        return summarize_profile([input_profile(f"cantor depth={BAND_DEPTH}", inputs["cantor"])])


# --- general ------------------------------------------------------------------

LIPSCHITZ_N = 1500
LIPSCHITZ_PITCHES = [0.1, 0.05, 0.02, 0.01]
SIERPINSKI_DEPTH = 7
SIERPINSKI_PITCHES = [0.02, 0.01]
SIERPINSKI_DELTA = 0.05
FLOAT_CENSUS_N = 1000
FLOAT_ENERGY_N = 5000
FLOAT_ENERGY_S = 1.5
FLOAT_COVERAGE_EPS = 0.05
FLOAT_BAND_N = 20_000
FLOAT_BAND_EPS = [1 / 8, 1 / 16, 1 / 32]
FLOAT_BAND_S = 1.5
MASS_UNITS = 1 << 16


def sierpinski_system() -> dirlab.IfsSystem:
    half = Fraction(1, 2)
    offsets = [(0, 0), (half, 0), (0, half)]
    return dirlab.IfsSystem(
        dimension=2,
        maps=tuple((half, (Fraction(a), Fraction(b))) for a, b in offsets),
    )


def dyadic_masses(rng: random.Random, n: int) -> tuple:
    """Non-uniform masses k/2^16 with k in 1..5 summing to exactly one.

    Dyadic masses sum exactly in any order, so no summation order can move
    the total away from one."""
    units = [rng.randint(1, 4) for _ in range(n)]
    extra = MASS_UNITS - sum(units)
    for i in rng.sample(range(n), extra):
        units[i] += 1
    return tuple(u / MASS_UNITS for u in units)


def float_points(rng: random.Random, n: int, d: int) -> list[tuple]:
    return [tuple(rng.random() for _ in range(d)) for _ in range(n)]


class General(Workload):
    name = "general"
    why = ("non-product exact sets and seeded float sets: no product path, float "
           "census on the axis-unique branch, float split and scan window path")
    capture = {"stopping_time_split": None}
    FILES = ("lipschitz", "sierpinski", "float_census", "float_energy", "float_band")

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        sets = {
            "lipschitz": dirlab.lipschitz_graph_sample(3, LIPSCHITZ_N),
            "sierpinski": dirlab.ifs_approximant(sierpinski_system(), SIERPINSKI_DEPTH),
            "float_census": dirlab.PointSet.from_points(float_points(rng, FLOAT_CENSUS_N, 3), mode="float"),
            "float_energy": dirlab.PointSet.from_points(float_points(rng, FLOAT_ENERGY_N, 3), mode="float"),
            "float_band": dirlab.PointSet.from_points(float_points(rng, FLOAT_BAND_N, 2), mode="float"),
        }
        paths = {}
        for name, P in sets.items():
            paths[name] = workdir / f"{name}.txt"
            dirlab.write_point_set(P, paths[name])
        return {"paths": paths, "band_masses": dyadic_masses(rng, FLOAT_BAND_N)}

    def setup(self, prepared):
        sets = {name: dirlab.read_point_set(path) for name, path in prepared["paths"].items()}
        sets["energy_mu"] = dirlab.uniform_weights(sets["float_energy"])
        sets["band_mu"] = dirlab.WeightedPointSet(base=sets["float_band"], masses=prepared["band_masses"])
        return sets

    def ops(self, inputs, tracer):
        lip, sier = inputs["lipschitz"], inputs["sierpinski"]
        fcensus, fenergy = inputs["float_census"], inputs["float_energy"]
        energy_mu, band_mu = inputs["energy_mu"], inputs["band_mu"]

        def lipschitz():
            return dirlab.distinct_directions(lip), dirlab.sphere_coverage_sweep(lip, LIPSCHITZ_PITCHES)

        def check_lipschitz(chk, out):
            census, grids = out
            chk.expect("lipschitz census within pairs", census.count <= census.n_pairs)
            summary = coverage_summary(grids)
            check_coverage(chk, "lipschitz", summary)
            chk.record("lipschitz", {"census": census.count,
                                     "occupied": [g["occupied"] for g in summary]}, seeded=False)

        def sierpinski():
            census = dirlab.distinct_directions(sier)
            grids = dirlab.sphere_coverage_sweep(sier, SIERPINSKI_PITCHES, antipodal=False)
            return census, grids, dirlab.separated_subset(census, SIERPINSKI_DELTA)

        def check_sierpinski(chk, out):
            census, grids, subset = out
            summary = coverage_summary(grids)
            check_coverage(chk, "sierpinski", summary)
            check_subset(chk, "sierpinski subset", subset, census)
            chk.record("sierpinski", {
                "census": census.count,
                "occupied": [g["occupied"] for g in summary],
                "subset": sorted(key.rep for key in subset.keys),
            }, seeded=False)

        def check_float_census(chk, census):
            chk.expect("float census within pairs", 0 < census.count <= census.n_pairs)
            chk.record("float_census", census.count, seeded=True)

        def float_coverage_energy():
            grid = dirlab.sphere_coverage(fenergy, FLOAT_COVERAGE_EPS)
            return grid, dirlab.energy_integral(energy_mu, FLOAT_ENERGY_S)

        def check_float_coverage_energy(chk, out):
            grid, energy = out
            summary = coverage_summary([grid])
            check_coverage(chk, "float coverage", summary)
            expected = float_energy(fenergy.as_array(), energy_mu.mass_array(), FLOAT_ENERGY_S)
            chk.expect("float energy matches a row-by-row sum",
                       math.isclose(energy, expected, rel_tol=1e-9), f"{energy} vs {expected}")
            chk.record("float_coverage_energy",
                       {"occupied": summary[0]["occupied"], "energy": energy}, seeded=True)

        def check_float_band(chk, band):
            (split,) = tracer.take("stopping_time_split")
            check_band(chk, "float band", band, split, seeded=True)

        return [
            Op("lipschitz", lipschitz, check_lipschitz),
            Op("sierpinski", sierpinski, check_sierpinski),
            Op("float-census", lambda: dirlab.distinct_directions(fcensus), check_float_census),
            Op("float-coverage-energy", float_coverage_energy, check_float_coverage_energy),
            Op("float-band",
               lambda: dirlab.slope_band_sweep(band_mu, FLOAT_BAND_S, FLOAT_BAND_EPS), check_float_band),
        ]

    def profile(self, inputs):
        return summarize_profile([input_profile(name, inputs[name]) for name in self.FILES])


# --- small --------------------------------------------------------------------

SMALL_SETS = 1000
SMALL_N = (5, 40)
SMALL_DIMENSIONS = (2, 3)
SMALL_DENOMINATOR = 12
SMALL_PITCHES = [0.2, 0.1]
SMALL_DELTA = 0.2
SMALL_ENERGY_S = 2
SMALL_BRUTE_SAMPLE = 50


def splits_at_level_one(grid_points: list[tuple], d: int) -> bool:
    """Whether two heavy quarter cubes at the top level are apart.

    stopping_time_split(c=4^-d) then stops at level one, so no set can
    run out of depth.  Computed here in integers, without dirlab."""
    n = len(grid_points)
    counts: dict[tuple, int] = {}
    for p in grid_points:
        child = tuple(min(3, 4 * k // SMALL_DENOMINATOR) for k in p)
        counts[child] = counts.get(child, 0) + 1
    heavy = [c for c, m in counts.items() if m * 4**d >= n]
    return any(
        max(abs(x - y) for x, y in zip(a, b)) >= 2
        for i, a in enumerate(heavy) for b in heavy[i + 1:]
    )


def small_sets(seed: int) -> list[list[tuple]]:
    """Seeded exact sets with coordinates k/12 in the unit cube."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < SMALL_SETS:
        d = rng.choice(SMALL_DIMENSIONS)
        n = rng.randint(*SMALL_N)
        cells = rng.sample(range((SMALL_DENOMINATOR + 1) ** d), n)
        grid_points = [
            tuple((c // (SMALL_DENOMINATOR + 1) ** k) % (SMALL_DENOMINATOR + 1) for k in range(d))
            for c in cells
        ]
        if splits_at_level_one(grid_points, d):
            sets.append([tuple(Fraction(k, SMALL_DENOMINATOR) for k in p) for p in grid_points])
    return sets


class Small(Workload):
    name = "small"
    why = ("1,000 small exact sets: fixed per-call cost dominates; the only exact "
           "Fraction energy and pps_check/collinearity_rank workload")

    def prepare(self, seed, workdir):
        sample = random.Random(seed + 1).sample(range(SMALL_SETS), SMALL_BRUTE_SAMPLE)
        return {"sets": small_sets(seed), "brute": set(sample)}

    def setup(self, prepared):
        out = []
        for rows in prepared["sets"]:
            P = dirlab.PointSet.from_points(rows, mode="exact")
            out.append((P, dirlab.uniform_weights(P)))
        return {"sets": out, "brute": prepared["brute"]}

    def ops(self, inputs, tracer):
        return [self._op(i, P, mu, i in inputs["brute"]) for i, (P, mu) in enumerate(inputs["sets"])]

    @staticmethod
    def _op(i: int, P, mu, brute: bool) -> Op:
        d = P.dimension

        def run():
            out = {}
            if d == 3:
                out["pps"] = dirlab.pps_check(P)
            out["census"] = dirlab.distinct_directions(P)
            out["signed"] = dirlab.distinct_directions(P, antipodal=False)
            out["grids"] = dirlab.sphere_coverage_sweep(P, SMALL_PITCHES)
            out["subset"] = dirlab.separated_subset(out["census"], SMALL_DELTA)
            out["energy"] = dirlab.energy_integral(mu, SMALL_ENERGY_S)
            out["split"] = dirlab.stopping_time_split(mu, c=4.0**-d)
            return out

        def check(chk, out):
            name = f"set{i}"
            census, signed, split = out["census"], out["signed"], out["split"]
            check_census_pair(chk, name, census, signed)
            summary = coverage_summary(out["grids"])
            check_coverage(chk, name, summary)
            check_subset(chk, f"{name} subset", out["subset"], census)
            check_split(chk, f"{name} split", split)
            chk.expect(f"{name} split at level one", split.level == 1, str(split.level))
            chk.expect(f"{name} energy positive", out["energy"] > 0)
            if brute:
                expected = brute_energy(P.points, mu.masses, SMALL_ENERGY_S)
                chk.expect(f"{name} energy equals the brute double sum", out["energy"] == expected,
                           f"{out['energy']} vs {expected}")
            pps = out.get("pps")
            if pps is not None:
                rows = np.array([[float(c) for c in p] for p in P.points])
                rank = int(np.linalg.matrix_rank(rows[1:] - rows[0]))
                chk.expect(f"{name} pps rank", pps.rank == rank, f"{pps.rank} vs {rank}")
                chk.expect(f"{name} pps count", pps.count == census.count)
                if pps.applicable:
                    threshold = 2 * len(P) - (5 if len(P) % 2 else 7)
                    chk.expect(f"{name} pps verdict", pps.passed == (pps.count >= threshold))
            chk.record(name, digest({
                "pps": None if pps is None else [pps.rank, pps.count, pps.applicable, pps.passed],
                "census": census.count,
                "signed": signed.count,
                "occupied": [g["occupied"] for g in summary],
                "subset": sorted(key.rep for key in out["subset"].keys),
                "energy": out["energy"],
                "split": [split.level, split.piece_masses, split.child_indices, split.sep_coordinate],
            }), seeded=True)

        return Op(f"set{i}", run, check)

    def profile(self, inputs):
        rows = [input_profile(f"set{i}", P) for i, (P, _) in enumerate(inputs["sets"])]
        summary = summarize_profile(rows)
        summary["inputs"] = {
            "sets": len(rows),
            "points": [min(r["points"] for r in rows), max(r["points"] for r in rows)],
            "dimensions": {d: sum(1 for r in rows if r["dimension"] == d) for d in SMALL_DIMENSIONS},
            "mode": "exact",
            "product_support_sets": sum(1 for r in rows if r["product_support"]),
            "denominators": sorted({r["denominator"] for r in rows}),
        }
        return summary


WORKLOADS = {w.name: w for w in (Product(), Cantor(), General(), Small())}

SIZES = {
    "product": {"scaling_q": SCALING_Q, "garnett_depths": GARNETT_DEPTHS,
                "adaptable_depth": ADAPTABLE_DEPTH},
    "cantor": {"depth": BAND_DEPTH, "eps": BAND_EPS, "c": BAND_C},
    "general": {"lipschitz_n": LIPSCHITZ_N, "sierpinski_depth": SIERPINSKI_DEPTH,
                "float_census_n": FLOAT_CENSUS_N, "float_energy_n": FLOAT_ENERGY_N,
                "float_band_n": FLOAT_BAND_N},
    "small": {"sets": SMALL_SETS, "n": list(SMALL_N), "dimensions": list(SMALL_DIMENSIONS),
              "denominator": SMALL_DENOMINATOR},
}
