"""End-to-end experiment recipes with JSON/CSV reporting.

Each runner builds its point configurations, measures them through the
library modules, fits exponents where a power law is predicted, and emits
a report whose verdicts carry the tolerance they were judged at.  Runs
are deterministic: identical parameters give identical reports except for
the timestamp field.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import re
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .directions import distinct_directions, separated_subset, sphere_coverage
from .errors import DirlabError, PreconditionFailed
from .fitting import FitResult, fit_power_law
from .generators import garnett_system, hyperplane_sample, ifs_approximant
from .generators import LatticeSpec, _cantor_dimension, lattice_set, product_cantor
from .geometry import PointSet, collinearity_rank
from .measure import is_adaptable, slope_band_sweep, uniform_weights

TOOL_VERSION = "0.1.0"


def _fit_dict(fit: FitResult | None):
    if fit is None:
        return None
    return {
        "slope": float(fit.slope),
        "intercept": float(fit.intercept),
        "r_squared": float(fit.r_squared),
        "n_points": fit.n_points,
    }


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    series: dict
    exponents: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    error: str | None = None
    version: str = TOOL_VERSION
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    def passed(self) -> bool:
        if self.error is not None:
            return False
        return all(v["passed"] for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def run_scaling_lattice(d: int, s, q_list, tolerance: float = 0.4) -> ExperimentReport:
    """Occupied-cell scaling of lattice directions at shrinking cell pitch.

    Above the critical exponent d-1 the direction set saturates its cells
    and the raw occupied count carries the predicted power d - d(d-1)/s.
    Below it the count saturates instead at the direction count, and the
    prediction applies to the occupied area count * eps^(d-1); the verdict
    fits whichever series the regime makes meaningful and reports both.
    """
    s = float(s)
    q_values = [int(q) for q in q_list]
    if not q_values:
        raise PreconditionFailed("need at least one lattice scale")
    if any(b <= a for a, b in zip(q_values, q_values[1:])):
        raise PreconditionFailed("lattice scales must increase strictly")
    if not (0 < s <= d):
        raise PreconditionFailed(f"s={s} outside (0, {d}]")

    eps_series, counts, fractions, proxies = [], [], [], []
    for q in q_values:
        P = lattice_set(LatticeSpec(q=q, d=d))
        eps = float(q) ** (-d / s)
        grid = sphere_coverage(P, eps, antipodal=False)
        eps_series.append(eps)
        counts.append(grid.occupied())
        fractions.append(grid.coverage_fraction())
        proxies.append(grid.occupied() * eps ** (d - 1))

    predicted = d - d * (d - 1) / s
    saturating = s >= d - 1
    fit_counts = fit_power_law(q_values, counts)
    fit_proxy = fit_power_law(q_values, proxies)
    fit_used = fit_counts if saturating else fit_proxy

    verdicts = {}
    if fit_used is not None:
        verdicts["exponent"] = {
            "passed": abs(fit_used.slope - predicted) <= tolerance,
            "observed": float(fit_used.slope),
            "expected": float(predicted),
            "tolerance": tolerance,
            "series": "occupied" if saturating else "occupied_area",
        }
    return ExperimentReport(
        experiment="scaling_lattice",
        parameters={"d": d, "s": s, "q_list": q_values, "tolerance": tolerance},
        series={
            "q": q_values,
            "eps": eps_series,
            "occupied": counts,
            "coverage_fraction": fractions,
            "occupied_area": proxies,
        },
        exponents={
            "occupied": _fit_dict(fit_counts),
            "occupied_area": _fit_dict(fit_proxy),
        },
        verdicts=verdicts,
    )


def run_garnett_decay(depth_list) -> ExperimentReport:
    """Coverage decay of the four-corner Cantor approximants.

    The observation scale is 16^-k, the square of the construction
    scale.  Depth-k directions are rational slopes with denominators up to
    about 4^k, so distinct ones sit at least ~9*16^-k apart: at this pitch
    occupancy equals the direction count, which grows like 9^k against
    16^k cells, and the fraction decays geometrically.  At the coarser
    construction scale 4^-k the chart saturates and the fraction rises.
    A planar-sample control with a matching point budget runs at the same
    scales as the baseline for a genuinely one-dimensional direction set.
    """
    depths = [int(k) for k in depth_list]
    if not depths:
        raise PreconditionFailed("need at least one depth")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise PreconditionFailed("depths must increase strictly")

    system = garnett_system()
    eps_series, fractions, controls, sizes = [], [], [], []
    for k in depths:
        P = ifs_approximant(system, k)
        eps = 16.0**-k
        grid = sphere_coverage(P, eps, antipodal=False)
        control = hyperplane_sample(3, max(2, 4**k))
        control_grid = sphere_coverage(control, eps, antipodal=False)
        eps_series.append(eps)
        sizes.append(len(P))
        fractions.append(grid.coverage_fraction())
        controls.append(control_grid.coverage_fraction())

    checked = [
        (a, b)
        for (ka, a), (kb, b) in zip(
            zip(depths, fractions), zip(depths[1:], fractions[1:])
        )
        if ka >= 2
    ]
    verdicts = {}
    if checked:
        verdicts["decay"] = {
            "passed": all(b < a for a, b in checked),
            "observed": [float(f) for f in fractions],
            "expected": "strictly decreasing beyond depth 2",
            "tolerance": 0.0,
        }
    return ExperimentReport(
        experiment="garnett_decay",
        parameters={"depths": depths},
        series={
            "depth": depths,
            "eps": eps_series,
            "points": sizes,
            "coverage_fraction": [float(f) for f in fractions],
            "control_fraction": [float(f) for f in controls],
        },
        verdicts=verdicts,
    )


def run_adaptable_directions(P: PointSet, s, label: str = "custom") -> ExperimentReport:
    """Adaptability, direction counts, and a separated direction subset.

    The count/n verdict only applies when the sample is full-rank and the
    target dimension exceeds d-1; degenerate controls get their numbers
    reported verdict-free.
    """
    s = float(s)
    n = len(P)
    d = P.dimension
    adapt = is_adaptable(P, s)
    census = distinct_directions(P, antipodal=True)
    signed = distinct_directions(P, antipodal=False)
    rank = collinearity_rank(P)
    delta = float(n) ** (-(d - 1) / s)
    subset = separated_subset(census, delta)
    need = math.ceil(subset.occupied_cells / subset.color_classes)

    verdicts = {
        "adaptable": {
            "passed": adapt.passed,
            "observed": float(adapt.energy),
            "expected": f"separated and energy <= {adapt.bound}",
            "tolerance": 0.0,
        },
        "separated_subset": {
            "passed": len(subset.keys) >= need,
            "observed": len(subset.keys),
            "expected": f">= {need}",
            "tolerance": 0.0,
        },
    }
    hypothesis = rank == d and s > d - 1
    if hypothesis:
        verdicts["direction_ratio"] = {
            "passed": census.count / n >= 0.5,
            "observed": census.count / n,
            "expected": ">= 0.5",
            "tolerance": 0.0,
        }
    return ExperimentReport(
        experiment="adaptable_directions",
        parameters={"label": label, "n": n, "d": d, "s": s, "delta": delta},
        series={
            "count_antipodal": census.count,
            "count_signed": signed.count,
            "count_ratio": census.count / n,
            "rank": rank,
            "energy": float(adapt.energy),
            "energy_bound": adapt.bound,
            "separated": adapt.separated,
            "subset_size": len(subset.keys),
            "subset_occupied_cells": subset.occupied_cells,
            "subset_pitch": subset.pitch,
        },
        verdicts=verdicts,
    )


def run_slope_band(
    d: int, m: int, ratio, depth: int, eps_list, c: float | None = None
) -> ExperimentReport:
    """Normalized slope-density integrals of a split product Cantor set.

    Verdict one: every integral sits inside the reference band with
    constant at most 10.  Verdict two, exponent agreement with
    s-(d-1), is judged only when the deviations genuinely exercise the
    predicted envelope: the fit must be clean (>= 3 positive deviations,
    r^2 >= 0.8) and the fitted band constant must reach 1, meaning some
    deviation is at least as large as the envelope allows.  Deviations
    that converge strictly inside the envelope satisfy the band with
    constant below 1, carry no envelope-scale signal to fit against, and
    leave the exponent reported verdict-free.
    """
    ratio = Fraction(ratio)
    s = _cantor_dimension(d, m, ratio)
    P = product_cantor(d, depth=depth, m=m, ratio=ratio)
    mu = uniform_weights(P, s=s)
    report = slope_band_sweep(mu, s, eps_list, c=c)

    verdicts = {
        "band": {
            "passed": report.band_constant is not None
            and report.band_constant <= 10.0,
            "observed": report.band_constant,
            "expected": "<= 10.0",
            "tolerance": 0.0,
        }
    }
    fit_clean = report.fit is not None and report.fit.r_squared >= 0.8
    envelope_reached = report.band_constant is not None and report.band_constant >= 1.0
    fit_permitted = fit_clean and envelope_reached
    if fit_permitted:
        verdicts["exponent"] = {
            "passed": abs(report.deviation_exponent - report.exponent_predicted)
            <= 0.5,
            "observed": float(report.deviation_exponent),
            "expected": float(report.exponent_predicted),
            "tolerance": 0.5,
        }
    return ExperimentReport(
        experiment="slope_band",
        parameters={
            "d": d,
            "m": m,
            "ratio": str(ratio),
            "depth": depth,
            "s": s,
            "eps_list": [float(e) for e in eps_list],
            "points": len(P),
        },
        series={
            "eps": [float(e) for e in report.epsilons],
            "normalized_integral": [float(v) for v in report.integrals],
            "reference_level": float(report.reference_level),
            "chart_mass": float(report.chart_mass),
            "split_level": report.split_level,
            "denominator_gap": float(report.denominator_gap),
            "exponent_fit_permitted": fit_permitted,
            "exponent_fit_note": "evaluated"
            if fit_permitted
            else "deviations stay inside the predicted envelope"
            if fit_clean
            else "no clean power-law fit",
        },
        exponents={"deviation": _fit_dict(report.fit)},
        verdicts=verdicts,
    )


# --- config-driven suite ---------------------------------------------------

_SECTION_NAME = re.compile(r"^[A-Za-z0-9_.:-]+$")
_MISSING = object()


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _section_plan(name: str, options: dict):
    """Turn one config section into a zero-argument runner.

    Shape problems (unknown kind, missing keys, unparsable values) raise
    here, before anything runs."""
    kind = options.get("kind")
    if kind is None:
        raise PreconditionFailed(f"section [{name}] is missing the key 'kind'")

    def take(key: str, convert, default=_MISSING):
        if key not in options:
            if default is not _MISSING:
                return default
            raise PreconditionFailed(f"section [{name}] is missing the key {key!r}")
        try:
            return convert(options[key])
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionFailed(
                f"section [{name}] key {key!r}: {exc}"
            ) from None

    if kind == "scaling_lattice":
        d = take("d", int)
        s = take("s", float)
        q_list = take("q_list", _ints)
        tol = take("tolerance", float, 0.4)
        return lambda: run_scaling_lattice(d=d, s=s, q_list=q_list, tolerance=tol)
    if kind == "garnett_decay":
        depths = take("depths", _ints)
        return lambda: run_garnett_decay(depths)
    if kind in ("adaptable_directions", "slope_band"):
        d = take("d", int)
        m = take("m", int)
        ratio = take("ratio", Fraction)
        depth = take("depth", int)
        try:
            s = _cantor_dimension(d, m, ratio)
        except PreconditionFailed as exc:
            raise PreconditionFailed(f"section [{name}]: {exc}") from None
        if kind == "adaptable_directions":

            def _adaptable():
                P = product_cantor(d, depth=depth, m=m, ratio=ratio)
                return run_adaptable_directions(P, s, label=name)

            return _adaptable
        eps_list = take("eps_list", _floats)
        c = take("c", float, None)
        return lambda: run_slope_band(
            d=d, m=m, ratio=ratio, depth=depth, eps_list=eps_list, c=c
        )
    raise PreconditionFailed(f"section [{name}] has unknown kind {kind!r}")


def run_all(config_path, out_dir=None) -> list[ExperimentReport]:
    """Run every experiment section of an INI config.

    Config-shape mistakes abort with a diagnostic naming the section and
    key; failures while an experiment runs are recorded in its report and
    the suite continues."""
    parser = configparser.ConfigParser()
    path = Path(config_path)
    if not path.exists():
        raise PreconditionFailed(f"config file {path} does not exist")
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise PreconditionFailed(f"config parse failure: {exc}") from None

    plans = []
    for section in parser.sections():
        if not _SECTION_NAME.match(section):
            raise PreconditionFailed(f"section name {section!r} has unusable characters")
        options = dict(parser.items(section))
        plans.append((section, options, _section_plan(section, options)))

    reports = []
    for section, options, plan in plans:
        try:
            report = plan()
        except DirlabError as exc:
            report = ExperimentReport(
                experiment=section,
                parameters=dict(options),
                series={},
                error=f"{type(exc).__name__}: {exc}",
            )
        report.parameters.setdefault("section", section)
        reports.append(report)

    if out_dir is not None:
        write_reports(reports, out_dir)
    return reports


def write_reports(reports, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        name = report.parameters.get("section", report.experiment)
        (out / f"{name}.json").write_text(report.to_json() + "\n", encoding="utf-8")
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "section",
                "experiment",
                "verdict",
                "passed",
                "observed",
                "expected",
                "tolerance",
            ]
        )
        for report in reports:
            name = report.parameters.get("section", report.experiment)
            if report.error is not None:
                writer.writerow(
                    [name, report.experiment, "completed", False, report.error, "", ""]
                )
                continue
            for vname, verdict in sorted(report.verdicts.items()):
                writer.writerow(
                    [
                        name,
                        report.experiment,
                        vname,
                        verdict["passed"],
                        json.dumps(verdict["observed"]),
                        verdict["expected"],
                        verdict["tolerance"],
                    ]
                )


def default_config_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "default.ini"
