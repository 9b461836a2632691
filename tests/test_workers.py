"""Pair blocks mapped over worker threads give the same results on any core count.

The block size is patched small so that modest inputs walk many blocks;
every kernel then runs at one worker (inline) and at two or three (the
caller plus helper threads), and the results must agree bit for bit:
census rows, coverage cells in code order, float energies by hex and
window masses by bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import on_both_paths, product_point_sets
from dirlab import (
    LatticeSpec,
    PointSet,
    PreconditionFailed,
    WeightedPointSet,
    directions,
    distinct_directions,
    energy_integral,
    geometry,
    is_adaptable,
    lattice_set,
    measure,
    slope_density,
    sphere_coverage_sweep,
    uniform_weights,
)

SMALL_BLOCK = 300


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def at_workers(workers, fn, *args, block=SMALL_BLOCK):
    """fn(*args) with workers pair-block workers, blocks of block pairs, and
    the helper threads it started."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_WORKERS", workers)
        mp.setattr(geometry, "_PAIR_BLOCK", block)
        mp.setattr(measure, "_PAIR_BLOCK", block)
        mp.setattr(CountingThread, "started", 0)
        mp.setattr(threading, "Thread", CountingThread)
        result = fn(*args)
        return result, CountingThread.started


def on_every_core_count(fn, *args):
    """fn(*args) at one worker, asserting it started no thread, and the
    results at two and three workers, asserting they started helpers."""
    one, started = at_workers(1, fn, *args)
    assert started == 0
    many = []
    for workers in (2, 3):
        result, started = at_workers(workers, fn, *args)
        assert started == workers - 1
        many.append(result)
    return one, many


def census_form(census):
    rows = census.keys.rows
    return rows.dtype, rows.tolist(), census.n_pairs


def coverage_form(grids):
    return [(grid.cells_per_side, list(grid.cells.items()), grid.n_pairs) for grid in grids]


def exact_set(rng, n, d, shift=0):
    rows = {tuple(int(v) for v in rng.integers(-40, 40, d)) for _ in range(3 * n)}
    return PointSet.from_points([tuple(Fraction(v << shift, 7) for v in row) for row in sorted(rows)[:n]])


def float_set(rng, n, d):
    return PointSet.from_points(rng.random((n, d)).tolist(), mode="float")


SETS = {
    "int64": lambda rng: exact_set(rng, 60, 3),
    "object": lambda rng: exact_set(rng, 60, 3, shift=70),
    "float": lambda rng: float_set(rng, 60, 3),
    "plane": lambda rng: float_set(rng, 70, 2),
}


class TestWorkerCounts:
    """Every mapped kernel gives identical results at one, two and three workers."""

    @pytest.mark.parametrize("kind", sorted(SETS))
    @pytest.mark.parametrize("antipodal", [True, False])
    def test_census_rows(self, kind, antipodal):
        ps = SETS[kind](np.random.default_rng(1))
        one, many = on_every_core_count(lambda: census_form(distinct_directions(ps, antipodal)))
        assert one[0] == {"int64": np.int64, "object": object}.get(kind, np.int64)
        assert all(other == one for other in many)

    @pytest.mark.parametrize("kind", sorted(SETS))
    @pytest.mark.parametrize("antipodal", [True, False])
    def test_coverage_cells(self, kind, antipodal):
        # 0.1 keeps a dense accumulator; 0.003 in d = 3 (and 1e-7 in d = 2)
        # passes 2^20 cells and takes the fold of sorted parts
        ps = SETS[kind](np.random.default_rng(2))
        fine = 0.003 if ps.dimension == 3 else 1e-7
        pitches = [0.1, fine]
        grids_one, many = on_every_core_count(lambda: sphere_coverage_sweep(ps, pitches, antipodal))
        side = [directions._chart_side(eps) for eps in pitches]
        assert 2 * ps.dimension * side[0] ** (ps.dimension - 1) <= directions.DENSE_CELL_LIMIT
        assert 2 * ps.dimension * side[1] ** (ps.dimension - 1) > directions.DENSE_CELL_LIMIT
        assert all(coverage_form(grids) == coverage_form(grids_one) for grids in many)
        assert sum(grids_one[1].cells.values()) == grids_one[1].n_pairs

    @pytest.mark.parametrize("kind", sorted(SETS))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_float_energy_bits(self, kind, weighted):
        rng = np.random.default_rng(3)
        ps = SETS[kind](rng)
        w = rng.random(len(ps))
        mu = WeightedPointSet(base=ps, masses=(w / w.sum()).tolist()) if weighted else uniform_weights(ps)
        one, many = on_every_core_count(lambda: energy_integral(mu, 1.5).hex())
        assert all(other == one for other in many)

    def test_exact_energy(self):
        ps = SETS["int64"](np.random.default_rng(4))
        one, many = on_every_core_count(lambda: energy_integral(uniform_weights(ps), 2))
        assert isinstance(one, Fraction) and all(other == one for other in many)

    @pytest.mark.parametrize("d", [2, 3])
    def test_window_bytes(self, d):
        rng = np.random.default_rng(5)
        upper = PointSet.from_points((rng.random((40, d)) + np.eye(d)[-1] * 1.5).tolist(), mode="float")
        lower = PointSet.from_points(rng.random((50, d)).tolist(), mode="float")
        w = rng.random(50)
        mu1, mu2 = uniform_weights(upper), WeightedPointSet(base=lower, masses=(w / w.sum()).tolist())
        centers = 0.5 + (np.arange(8) + 0.5) / 16
        one, many = on_every_core_count(lambda: measure._window_masses_scan(mu1, mu2, [(centers - 0.1, centers + 0.1)])[0])
        assert one.sum() > 0 and all(other.tobytes() == one.tobytes() for other in many)

    @given(product_point_sets(max_axis=7), st.sampled_from([1, 1.5, 2]))
    def test_both_difference_paths(self, ps, s):
        def kernels(P):
            return (census_form(distinct_directions(P, False)),
                    coverage_form(sphere_coverage_sweep(P, [0.3, 0.05])),
                    repr(energy_integral(uniform_weights(P), s)))

        one = on_both_paths(lambda P: at_workers(1, kernels, P, block=40)[0], ps)
        two = on_both_paths(lambda P: at_workers(2, kernels, P, block=40)[0], ps)
        assert two == one


class TestWorkersInline:
    """No thread starts on one CPU or for input of at most one block's worth of pairs."""

    def run_kernels(self, ps):
        distinct_directions(ps, False)
        sphere_coverage_sweep(ps, [0.1, 0.003])
        energy_integral(uniform_weights(ps), 1.5)

    def test_lattice_blocks_stay_inline(self):
        # the product path yields several blocks even for 64 points
        ps = lattice_set(LatticeSpec(q=3, d=3))
        blocks = geometry._pair_differences(ps)
        assert len(blocks.specs) > 1 and blocks.pairs <= geometry._PAIR_BLOCK
        _, started = at_workers(2, self.run_kernels, ps, block=geometry._PAIR_BLOCK)
        assert started == 0

    def test_pairs_within_one_block_stay_inline(self):
        # 300 points make 44,850 pairs over 2 blocks of the default size
        ps = float_set(np.random.default_rng(6), 300, 3)
        blocks = geometry._pair_differences(ps)
        assert len(blocks.specs) > 1 and blocks.pairs <= geometry._PAIR_BLOCK
        _, started = at_workers(4, self.run_kernels, ps, block=geometry._PAIR_BLOCK)
        assert started == 0

    def test_one_cpu_stays_inline(self):
        _, started = at_workers(1, self.run_kernels, float_set(np.random.default_rng(7), 80, 3))
        assert started == 0

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures is imported only when a map starts threads
        code = "import sys, dirlab; assert 'concurrent.futures' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestOrderedMapStress:
    """More workers than cores and a short switch interval: every block is
    filled once, yielded in order, with at most _IN_FLIGHT in flight."""

    def test_many_workers(self):
        filled, running, peak = [], [0], [0]
        lock = threading.Lock()
        out = []

        def fill(spec):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            value = int(np.arange(spec % 7 * 1000).sum())  # some numpy work of varying length
            filled.append(spec)
            with lock:
                running[0] -= 1
            return spec, value

        def consume():
            out.extend(spec for spec, _ in geometry._ordered_map(fill, range(600), 8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer = threading.Thread(target=consume)
            consumer.start()
            consumer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        assert out == list(range(600)) and sorted(filled) == list(range(600))
        assert peak[0] <= geometry._IN_FLIGHT and not helpers_alive()

    def test_submitted_blocks_stay_within_in_flight(self):
        # blocks of uneven length: the caller and helpers run ahead of the
        # consumer only over submitted blocks
        got, ahead = [], []

        def fill(spec):
            ahead.append(spec - len(got))
            time.sleep(spec % 3 * 0.001)
            return spec

        for value in geometry._ordered_map(fill, range(200), 4):
            got.append(value)
        assert got == list(range(200)) and max(ahead) < geometry._IN_FLIGHT

    def test_caller_and_helper_both_fill(self):
        # the caller takes over blocks no helper has started, rather than
        # only waiting; helpers_alive() sees the helper that fills a block
        fillers, seen = set(), []

        def work(spec):
            return float(np.sort(np.random.default_rng(spec).random(20_000))[spec])

        def fill(spec):
            me = threading.current_thread()
            fillers.add(me)
            if me is not threading.main_thread():
                seen.append(me in helpers_alive())
            return work(spec)

        out = list(geometry._ordered_map(fill, range(120), 2))
        assert out == [work(spec) for spec in range(120)]
        assert threading.main_thread() in fillers and len(fillers) == 2
        assert seen and all(seen) and not helpers_alive()


def helpers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("dirlab-pairs")]


class TestWorkerFailures:
    """An exception in a worker reaches the caller unchanged, after the
    blocks in flight are finished."""

    def test_chart_refusal_at_every_worker_count(self):
        # the last pair, (0, 0) and (10^-300, 0), has a float64 norm of 0
        pts = [(Fraction(i), Fraction(i * i % 17)) for i in range(1, 70)] + [(0, 0), (Fraction(1, 10**300), 0)]
        ps = PointSet.from_points(pts)
        assert len(geometry._pair_loop(ps._scaled[0], None, block=SMALL_BLOCK).specs) > 1
        for workers in (1, 2):
            with pytest.raises(PreconditionFailed, match="too close"):
                at_workers(workers, sphere_coverage_sweep, ps, [0.1])
            assert not helpers_alive()

    def test_the_first_failing_block_raises_its_own_exception(self):
        fired = threading.Event()
        started, finished, raised = [], [], {}

        def fill(spec):
            started.append(spec)
            try:
                if threading.current_thread() is threading.main_thread():
                    fired.wait(30)  # let the helper fail first
                    return spec
                raised[spec] = exc = PreconditionFailed(f"block {spec}")
                fired.set()
                raise exc
            finally:
                finished.append(spec)

        got = []
        with pytest.raises(PreconditionFailed) as info:
            for value in geometry._ordered_map(fill, range(12), 2):
                got.append(value)
        first = min(raised)  # the first block a helper filled
        assert info.value is raised[first]
        assert got == list(range(first))
        assert sorted(started) == sorted(finished) and not helpers_alive()
        # the failing block was claimed and yielded too
        assert len(started) - len(got) <= geometry._IN_FLIGHT + 1

    def test_an_abandoned_map_stops_its_helpers(self):
        blocks = iter(geometry._ordered_map(lambda spec: spec, range(100), 3))
        assert next(blocks) == 0
        blocks.close()
        assert not helpers_alive()


class TestWorkersStayOffTheViews:
    """Workers call no public function and no public view of PointSet or
    WeightedPointSet: a tracer's span stack lives on the main thread."""

    def test_only_the_main_thread_reads_views(self, monkeypatch):
        off_main = []

        def note(name):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)

        def watch(owner, name, fn):
            def wrapper(*args, **kwargs):
                note(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def watch_property(owner, name):
            def get(self, fget=getattr(owner, name).fget):
                note(name)
                return fget(self)

            monkeypatch.setattr(owner, name, property(get))

        for name in ("as_array", "scaled_integer"):
            watch(PointSet, name, getattr(PointSet, name))
        watch(WeightedPointSet, "mass_array", WeightedPointSet.mass_array)
        watch(WeightedPointSet, "total_mass", WeightedPointSet.total_mass)
        watch_property(PointSet, "points")
        watch_property(WeightedPointSet, "masses")
        for module in (geometry, directions, measure):
            for name, fn in list(vars(module).items()):
                public = not name.startswith("_") and callable(fn) and not isinstance(fn, type)
                if public and getattr(fn, "__module__", "").startswith("dirlab"):
                    watch(module, name, fn)

        rng = np.random.default_rng(8)
        ps = float_set(rng, 90, 3)
        exact = SETS["int64"](rng)
        upper = PointSet.from_points((rng.random((40, 3)) + [0, 0, 1.5]).tolist(), mode="float")

        def everything():
            for P in (ps, exact):
                distinct_directions(P, False)
                sphere_coverage_sweep(P, [0.1, 0.003], False)
                energy_integral(uniform_weights(P), 1.5)
            energy_integral(uniform_weights(exact), 2)
            is_adaptable(ps, 2.5, bound=100)
            slope_density(uniform_weights(upper), uniform_weights(ps), 0.1)

        _, started = at_workers(2, everything)
        assert started > 0 and off_main == []
