"""Output checks behind the benchmark's ``failed`` count.

Two kinds of check run on every output the benchmark times:

* invariants that hold for any seed (coverage hits sum to the pair count,
  separated subsets keep their gaps, split pieces are heavy and apart,
  exact energies equal a brute ``Fraction`` double sum, ...);
* comparison with ``reference.json``, values recorded from the program for
  the fixed constructions and for the reference seed.  Exact values must
  match exactly; floats within a relative 1e-9.

Every check counts as one attempt; a wrong value, a broken invariant or a
call that raised counts as one failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FLOAT_RTOL = 1e-9


def canonical(value):
    """JSON-ready form: Fractions as 'p/q' strings, tuples as lists."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def same(expected, observed) -> bool:
    """Equal, with floats compared to a relative FLOAT_RTOL."""
    if isinstance(expected, float) and type(observed) in (int, float):
        return math.isclose(expected, observed, rel_tol=FLOAT_RTOL)
    if isinstance(expected, dict) and isinstance(observed, dict):
        return expected.keys() == observed.keys() and all(
            same(expected[k], observed[k]) for k in expected
        )
    if isinstance(expected, list) and isinstance(observed, list):
        return len(expected) == len(observed) and all(
            same(a, b) for a, b in zip(expected, observed)
        )
    return type(expected) is type(observed) and expected == observed


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> tuple[dict, dict | None]:
    """(fixed values, seeded values or None) recorded for a workload."""
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}
    entry = data.get(workload, {})
    return entry.get("fixed", {}), entry.get("seeded", {}).get(str(seed))


class Checker:
    """Counts checks, compares recorded values and keeps failure messages."""

    def __init__(self, fixed: dict | None, seeded: dict | None):
        self.reference = {"fixed": fixed, "seeded": seeded}
        self.observed = {"fixed": {}, "seeded": {}}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}" if detail else name)
        return ok

    def record(self, name: str, value, seeded: bool) -> None:
        """Compare a value with the reference, when one is on file."""
        kind = "seeded" if seeded else "fixed"
        value = canonical(value)
        self.observed[kind][name] = value
        reference = self.reference[kind]
        if reference is None:
            return
        if name not in reference:
            self.expect(f"{name} matches reference", False, "no reference value recorded")
            return
        expected = reference[name]
        self.expect(f"{name} matches reference", same(expected, value),
                    f"expected {str(expected)[:200]}, got {str(value)[:200]}")

    def error(self, name: str, exc: BaseException) -> None:
        self.expect(f"{name} completed", False, f"{type(exc).__name__}: {exc}")


# --- invariants -------------------------------------------------------------


def coverage_summary(grids) -> list[dict]:
    """What the coverage checks need from a sweep, without its cell dicts."""
    return [
        {
            "eps": grid.epsilon,
            "n_pairs": grid.n_pairs,
            "hits": sum(grid.cells.values()),
            "occupied": grid.occupied(),
            "total_cells": grid.total_cells,
        }
        for grid in grids
    ]


def check_coverage(chk: Checker, name: str, summary) -> None:
    for grid in summary:
        chk.expect(f"{name} eps={grid['eps']} hits sum to n_pairs",
                   grid["hits"] == grid["n_pairs"],
                   f"{grid['hits']} hits for {grid['n_pairs']} pairs")
        chk.expect(f"{name} eps={grid['eps']} occupied within cells",
                   0 < grid["occupied"] <= grid["total_cells"])


def min_gap(units: np.ndarray) -> float:
    """Smallest Euclidean distance between two rows (inf for fewer than two)."""
    best = math.inf
    for i in range(len(units) - 1):
        best = min(best, float(np.linalg.norm(units[i + 1:] - units[i], axis=1).min()))
    return best


def check_subset(chk: Checker, name: str, subset, census) -> None:
    units = np.array([key.unit_vector() for key in subset.keys], dtype=np.float64)
    gap = min_gap(units)
    chk.expect(f"{name} gaps at least delta", gap >= subset.delta,
               f"gap {gap} below delta {subset.delta}")
    chk.expect(f"{name} keys come from the census", set(subset.keys) <= census.keys)
    need = math.ceil(subset.occupied_cells / subset.color_classes)
    chk.expect(f"{name} size reaches occupied/classes", len(subset.keys) >= need,
               f"{len(subset.keys)} < {need}")


def check_census_pair(chk: Checker, name: str, census, signed) -> None:
    chk.expect(f"{name} signed count is twice the antipodal count",
               signed.count == 2 * census.count, f"{signed.count} vs {census.count}")
    chk.expect(f"{name} count at most the pair count", census.count <= census.n_pairs)


def check_split(chk: Checker, name: str, split) -> None:
    """Both pieces heavy and apart by sep_distance along sep_coordinate."""
    for mass in split.piece_masses:
        chk.expect(f"{name} piece heavy", float(mass) >= split.threshold,
                   f"mass {mass} below threshold {split.threshold}")
    k = split.sep_coordinate
    a, b = ([p[k] for p in piece.base.points] for piece in split.pieces)
    gap = max(min(b) - max(a), min(a) - max(b))
    if isinstance(gap, Fraction):
        ok = gap >= Fraction(split.sep_distance)
    else:
        ok = gap >= split.sep_distance * (1 - 1e-12)
    chk.expect(f"{name} pieces separated", ok,
               f"gap {float(gap)} below {split.sep_distance} on coordinate {k}")


def brute_energy(points, masses, s: int) -> Fraction:
    """Sum over ordered pairs i != j of m_i m_j |p_i - p_j|^-s, in Fractions."""
    half = s // 2
    total = Fraction(0)
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i != j:
                r2 = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(p, q))
                total += Fraction(masses[i]) * Fraction(masses[j]) / r2**half
    return total


def float_energy(arr: np.ndarray, weights: np.ndarray, s: float) -> float:
    """Row-by-row float s-energy over ordered pairs, for comparison."""
    total = 0.0
    for i in range(len(arr) - 1):
        r2 = ((arr[i + 1:] - arr[i]) ** 2).sum(axis=1)
        total += float((weights[i] * weights[i + 1:] * r2 ** (-s / 2)).sum())
    return 2.0 * total
