"""Command line front end.

Exit codes: 0 success (and every verdict passed), 1 a verdict failed,
2 usage, config, or data errors with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .directions import distinct_directions, pps_check, separated_subset, sphere_coverage_sweep
from .errors import DirlabError
from .experiments import default_config_path, run_all
from .generators import IfsSystem, LatticeSpec, garnett_system, hyperplane_sample
from .generators import ifs_approximant, lattice_set, lipschitz_graph_sample
from .generators import product_cantor
from .geometry import read_point_set, write_point_set
from .measure import is_adaptable, _float_energy, energy_integral, slope_band_sweep, slope_density
from .measure import stopping_time_split, uniform_weights


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj, key=repr)
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return str(obj)


def _emit(args, name: str, payload: dict) -> None:
    if getattr(args, "seed", None) is not None:
        payload = {"seed": args.seed, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    print(text)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(text + "\n", encoding="utf-8")


def _number(text: str):
    """Integer when the text is integral, float otherwise; keeps the exact
    energy path reachable from the command line."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DirlabError(f"{text!r} is not a number a, a.b or a/b with b != 0") from None


def _write_points(args, P, kind: str) -> int:
    if args.to is None and getattr(args, "out", None):
        args.to = str(Path(args.out) / f"{kind}.txt")
    if args.to is None or args.to == "-":
        write_point_set(P, sys.stdout)
        return 0
    Path(args.to).parent.mkdir(parents=True, exist_ok=True)
    write_point_set(P, args.to)
    print(f"wrote {len(P)} points ({P.mode}, d={P.dimension}) to {args.to}")
    return 0


# --- generate ---------------------------------------------------------------


def _cmd_generate_lattice(args):
    return _write_points(args, lattice_set(LatticeSpec(q=args.q, d=args.d)), "lattice")


def _cmd_generate_garnett(args):
    return _write_points(args, ifs_approximant(garnett_system(), args.depth), "garnett")


def _cmd_generate_ifs(args):
    ratio = _fraction(args.ratio)
    offsets = []
    for block in args.offsets.split(";"):
        block = block.strip()
        if block:
            offsets.append(tuple(_fraction(tok) for tok in block.split(",")))
    if not offsets:
        raise DirlabError("need at least one offset, given as 'a,b;c,d;...'")
    d = len(offsets[0])
    system = IfsSystem(dimension=d, maps=tuple((ratio, off) for off in offsets))
    return _write_points(args, ifs_approximant(system, args.depth), "ifs")


def _cmd_generate_hyperplane(args):
    return _write_points(args, hyperplane_sample(args.d, args.n), "hyperplane")


def _cmd_generate_graph(args):
    return _write_points(args, lipschitz_graph_sample(args.d, args.n), "graph")


def _cmd_generate_cantor(args):
    ratio = _fraction(args.ratio) if args.ratio is not None else None
    P = product_cantor(args.d, s=args.s, depth=args.depth, m=args.m, ratio=ratio)
    return _write_points(args, P, "cantor")


# --- directions -------------------------------------------------------------


def _cmd_directions_count(args):
    census = distinct_directions(read_point_set(args.points), antipodal=not args.signed)
    _emit(
        args,
        "count",
        {
            "count": census.count,
            "n_points": census.n_points,
            "n_pairs": census.n_pairs,
            "antipodal_identified": census.antipodal_identified,
        },
    )
    return 0


def _cmd_directions_coverage(args):
    P = read_point_set(args.points)
    grids = sphere_coverage_sweep(P, args.eps, antipodal=not args.signed)
    rows = [
        {
            "eps": eps,
            "occupied": grid.occupied(),
            "total_cells": grid.total_cells,
            "fraction": grid.coverage_fraction(),
        }
        for eps, grid in zip(args.eps, grids)
    ]
    _emit(args, "coverage", {"n_points": len(P), "grids": rows})
    return 0


def _cmd_directions_pps(args):
    report = pps_check(read_point_set(args.points))
    _emit(args, "pps", dataclasses.asdict(report))
    if report.applicable and not report.passed:
        return 1
    return 0


def _cmd_directions_separate(args):
    census = distinct_directions(read_point_set(args.points), antipodal=not args.signed)
    subset = separated_subset(census, args.delta)
    payload = {
        "delta": subset.delta,
        "size": len(subset.keys),
        "occupied_cells": subset.occupied_cells,
        "color_classes": subset.color_classes,
        "pitch": subset.pitch,
    }
    if args.keys:
        payload["keys"] = sorted(
            [list(k.rep) for k in subset.keys], key=lambda r: [float(c) for c in r]
        )
    _emit(args, "separate", payload)
    return 0


# --- measure ----------------------------------------------------------------


def _cmd_measure_energy(args):
    mu = uniform_weights(read_point_set(args.points))
    value = energy_integral(mu, args.s)
    _emit(args, "energy", {"s": args.s, "n": len(mu), "energy": _float_energy(value)})
    return 0


def _cmd_measure_adaptable(args):
    report = is_adaptable(read_point_set(args.points), args.s, bound=args.bound)
    _emit(args, "adaptable", dataclasses.asdict(report))
    return 0 if report.passed else 1


def _cmd_measure_split(args):
    mu = uniform_weights(read_point_set(args.points))
    split = stopping_time_split(mu, c=args.c, max_depth=args.max_depth)
    _emit(
        args,
        "split",
        {
            "level": split.level,
            "cube_origin": [float(v) for v in split.cube_origin],
            "cube_side": float(split.cube_side),
            "parent_mass": float(split.parent_mass),
            "threshold": float(split.threshold),
            "child_indices": [list(ci) for ci in split.child_indices],
            "sep_coordinate": split.sep_coordinate,
            "sep_distance": split.sep_distance,
            "piece_sizes": [len(piece) for piece in split.pieces],
            "piece_masses": [float(m) for m in split.piece_masses],
        },
    )
    return 0


def _cmd_measure_density(args):
    mu1 = uniform_weights(read_point_set(args.upper))
    mu2 = uniform_weights(read_point_set(args.lower))
    field = slope_density(mu1, mu2, args.eps, pitch=args.pitch)
    payload = {
        "eps": field.epsilon,
        "pitch": field.pitch,
        "cells": int(field.values.size),
        "integral": field.integral,
        "min_denominator_gap": field.min_denominator_gap,
        "value_min": float(field.values.min()),
        "value_max": float(field.values.max()),
    }
    if args.full:
        payload["centers"] = field.centers.tolist()
        payload["values"] = field.values.tolist()
    _emit(args, "density", payload)
    return 0


def _cmd_measure_band(args):
    P = read_point_set(args.points)
    mu = uniform_weights(P, s=args.s)
    report = slope_band_sweep(mu, args.s, args.eps, c=args.c, max_depth=args.max_depth)
    _emit(
        args,
        "band",
        {
            "eps": report.epsilons,
            "normalized_integral": report.integrals,
            "reference_level": report.reference_level,
            "band_constant": report.band_constant,
            "deviation_exponent": report.deviation_exponent,
            "exponent_predicted": report.exponent_predicted,
            "chart_mass": report.chart_mass,
            "split_level": report.split_level,
            "denominator_gap": report.denominator_gap,
        },
    )
    return 0


# --- experiment -------------------------------------------------------------


def _cmd_experiment_run(args):
    config = args.config if args.config is not None else default_config_path()
    reports = run_all(config, out_dir=args.out)
    all_passed = True
    for report in reports:
        name = report.parameters.get("section", report.experiment)
        if report.error is not None:
            all_passed = False
            print(f"{name}: ERROR {report.error}")
            continue
        if not report.verdicts:
            print(f"{name}: no verdicts")
        for vname, verdict in sorted(report.verdicts.items()):
            status = "PASS" if verdict["passed"] else "FAIL"
            all_passed = all_passed and verdict["passed"]
            print(
                f"{name} {vname}: {status} "
                f"(observed={verdict['observed']} expected={verdict['expected']} "
                f"tolerance={verdict['tolerance']})"
            )
    return 0 if all_passed else 1


def _cmd_experiment_default_config(args):
    print(default_config_path())
    return 0


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirlab",
        description="Direction sets, sphere coverage, and slope densities "
        "of finite point configurations.",
    )
    parser.add_argument("--seed", type=int, default=None, help="recorded in outputs;"
                        " the built-in commands are deterministic")
    parser.add_argument("--out", default=None, help="directory for JSON/CSV artifacts")
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="write point configurations").add_subparsers(
        dest="kind"
    )
    g = gen.add_parser("lattice", help="scaled integer grid (q+1)^d points")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--to", default=None)
    g.set_defaults(handler=_cmd_generate_lattice)
    g = gen.add_parser("garnett", help="four corner Cantor approximant")
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--to", default=None)
    g.set_defaults(handler=_cmd_generate_garnett)
    g = gen.add_parser("ifs", help="custom equal-ratio iterated function system")
    g.add_argument("--ratio", required=True, help="contraction ratio, e.g. 1/4")
    g.add_argument("--offsets", required=True, help="semicolon separated offsets,"
                   " e.g. '0,0;3/4,0;0,3/4;3/4,3/4'")
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--to", default=None)
    g.set_defaults(handler=_cmd_generate_ifs)
    g = gen.add_parser("hyperplane", help="grid on a middle hyperplane slice")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--to", default=None)
    g.set_defaults(handler=_cmd_generate_hyperplane)
    g = gen.add_parser("graph", help="sample of a quadratic Lipschitz graph")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--to", default=None)
    g.set_defaults(handler=_cmd_generate_graph)
    g = gen.add_parser("cantor", help="product of middle-gap Cantor approximants")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--s", type=float, default=None, help="target dimension in (d-1, d]")
    g.add_argument("--m", type=int, default=None, help="branch count per axis")
    g.add_argument("--ratio", default=None, help="per-axis contraction, e.g. 1/4")
    g.add_argument("--to", default=None)
    g.set_defaults(handler=_cmd_generate_cantor)

    dirs = sub.add_parser("directions", help="direction censuses and coverage")
    dsub = dirs.add_subparsers(dest="kind")
    g = dsub.add_parser("count", help="distinct pair directions")
    g.add_argument("points")
    g.add_argument("--signed", action="store_true", help="keep u and -u distinct")
    g.set_defaults(handler=_cmd_directions_count)
    g = dsub.add_parser("coverage", help="occupied sphere-chart cells")
    g.add_argument("points")
    g.add_argument("--eps", type=float, nargs="+", required=True)
    g.add_argument("--signed", action="store_true")
    g.set_defaults(handler=_cmd_directions_coverage)
    g = dsub.add_parser("pps", help="point-pair direction count bound in R^3")
    g.add_argument("points")
    g.set_defaults(handler=_cmd_directions_pps)
    g = dsub.add_parser("separate", help="large delta-separated direction subset")
    g.add_argument("points")
    g.add_argument("--delta", type=float, required=True)
    g.add_argument("--signed", action="store_true")
    g.add_argument("--keys", action="store_true", help="list the kept directions")
    g.set_defaults(handler=_cmd_directions_separate)

    meas = sub.add_parser("measure", help="energies, splits, slope densities")
    msub = meas.add_subparsers(dest="kind")
    g = msub.add_parser("energy", help="discrete s-energy of uniform weights")
    g.add_argument("points")
    g.add_argument("--s", type=_number, required=True)
    g.set_defaults(handler=_cmd_measure_energy)
    g = msub.add_parser("adaptable", help="separation plus bounded-energy check")
    g.add_argument("points")
    g.add_argument("--s", type=float, required=True)
    g.add_argument("--bound", type=float, default=None)
    g.set_defaults(handler=_cmd_measure_adaptable)
    g = msub.add_parser("split", help="stopping-time quarter-cube split")
    g.add_argument("points")
    g.add_argument("--c", type=float, default=None, help="heavy-child fraction")
    g.add_argument("--max-depth", type=int, default=8)
    g.set_defaults(handler=_cmd_measure_split)
    g = msub.add_parser("density", help="windowed slope density of two point files")
    g.add_argument("upper")
    g.add_argument("lower")
    g.add_argument("--eps", type=float, required=True)
    g.add_argument("--pitch", type=float, default=None)
    g.add_argument("--full", action="store_true", help="include per-cell values")
    g.set_defaults(handler=_cmd_measure_density)
    g = msub.add_parser("band", help="split a measure and sweep the slope window")
    g.add_argument("points")
    g.add_argument("--s", type=float, required=True)
    g.add_argument("--eps", type=float, nargs="+", required=True)
    g.add_argument("--c", type=float, default=None)
    g.add_argument("--max-depth", type=int, default=8)
    g.set_defaults(handler=_cmd_measure_band)

    exp = sub.add_parser("experiment", help="config-driven experiment suites")
    esub = exp.add_subparsers(dest="kind")
    g = esub.add_parser("run", help="run an INI experiment config")
    g.add_argument("config", nargs="?", default=None,
                   help="INI path; omitted runs the shipped default suite")
    g.set_defaults(handler=_cmd_experiment_run)
    g = esub.add_parser("default-config", help="print the shipped config path")
    g.set_defaults(handler=_cmd_experiment_default_config)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return handler(args)
    except (DirlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
