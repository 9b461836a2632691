"""Self-test of the output checks: each corrupted output must make one fire.

Run with ``python3 perfbench/run.py --self-test``; exits 0 when the clean
outputs pass every check and every corruption is caught.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import dirlab
from checks import Checker
from workloads import CANTOR_M, CANTOR_RATIO, CANTOR_S, Small, check_band, small_sets


def _failures(check, out) -> tuple[int, int]:
    chk = Checker(None, None)
    check(chk, out)
    return chk.attempted, chk.failed


def _drop_one_hit(grid):
    cells = dict(grid.cells)
    code = next(iter(cells))
    cells[code] -= 1
    if not cells[code]:
        del cells[code]
    return dataclasses.replace(grid, cells=cells)


def _small_cases():
    rows = next(s for s in small_sets(seed=7) if len(s[0]) == 3)
    P = dirlab.PointSet.from_points(rows, mode="exact")
    mu = dirlab.uniform_weights(P)
    op = Small._op(0, P, mu, brute=True)
    out = op.run()

    def with_(key, value):
        return {**out, key: value}

    census, signed, split = out["census"], out["signed"], out["split"]
    subset = out["subset"]
    corrupted = {
        "coverage hit dropped": with_("grids", [_drop_one_hit(out["grids"][0])] + out["grids"][1:]),
        "signed census key lost": with_(
            "signed", dataclasses.replace(signed, keys=frozenset(list(signed.keys)[1:]))),
        "subset key repeated": with_(
            "subset", dataclasses.replace(subset, keys=subset.keys + subset.keys[:1])),
        "subset key outside census": with_(
            "subset", dataclasses.replace(subset, keys=[dataclasses.replace(
                subset.keys[0], rep=tuple(7919 * v for v in subset.keys[0].rep))] + subset.keys[1:])),
        "split piece light": with_(
            "split", dataclasses.replace(split, piece_masses=(Fraction(0), split.piece_masses[1]))),
        "split pieces touch": with_(
            "split", dataclasses.replace(split, pieces=(split.pieces[0], split.pieces[0]))),
        "energy off by 1e-12": with_("energy", out["energy"] + Fraction(1, 10**12)),
        "pps rank off": with_("pps", dataclasses.replace(out["pps"], rank=out["pps"].rank - 1)),
    }
    yield "small set clean", op.check, out, False
    for name, bad in corrupted.items():
        yield f"small set {name}", op.check, bad, True


def _band_cases():
    P = dirlab.product_cantor(2, depth=3, m=CANTOR_M, ratio=CANTOR_RATIO)
    mu = dirlab.uniform_weights(P)
    split = dirlab.stopping_time_split(mu, c=1 / 16)
    band = dirlab.slope_band_sweep(mu, CANTOR_S, [1 / 4, 1 / 8, 1 / 16], c=1 / 16)

    def check(chk, out):
        check_band(chk, "band", out[0], out[1], seeded=False)

    yield "band clean", check, (band, split), False
    yield "band integral negative", check, (
        dataclasses.replace(band, integrals=[-1.0] + band.integrals[1:]), split), True
    yield "band split level differs", check, (
        dataclasses.replace(band, split_level=band.split_level + 1), split), True


def _reference_cases():
    def check(chk, value):
        chk.reference["fixed"] = {"x": [3, 0.5, "1/3"]}
        chk.record("x", value, seeded=False)

    yield "reference equal", check, [3, 0.5, Fraction(1, 3)], False
    yield "reference float within tolerance", check, [3, 0.5 * (1 + 1e-12), Fraction(1, 3)], False
    yield "reference count differs", check, [4, 0.5, Fraction(1, 3)], True
    yield "reference float differs", check, [3, 0.5 * (1 + 1e-6), Fraction(1, 3)], True
    yield "reference fraction differs", check, [3, 0.5, Fraction(1, 4)], True


def run_self_test() -> int:
    ok = True
    for cases in (_small_cases(), _band_cases(), _reference_cases()):
        for name, check, out, should_fire in cases:
            attempted, failed = _failures(check, out)
            good = attempted > 0 and (failed > 0) == should_fire
            ok &= good
            verdict = "fires" if failed else "passes"
            print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict} ({failed}/{attempted} checks failed)")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1
