"""dirlab benchmark: one workload per process, metrics as a JSON last line.

Run from the root of a dirlab checkout:

    python3 perfbench/run.py --workload product --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones; both check every output.  ``--self-test`` shows that
the checks fire on corrupted outputs.  ``--record-reference`` rewrites the
workload's entry in reference.json from the current program; use it only
when a change is meant to alter results, and say so.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS and OpenMP pools sized to one thread before numpy loads, so every
# workload is a single-threaded run whatever the host.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# Set-up runs at least SETUP_REPS times per run, and more while they take
# under SETUP_BUDGET_S in all; setup_s reports the median.
SETUP_REPS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPS = 15
# Importing dirlab is timed once in this process and this many more times in
# child processes; setup_s adds the median import time.
IMPORT_SAMPLES = 4
WORKLOAD_NAMES = ("product", "cantor", "general", "small")


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv), spec


def import_program() -> float:
    """Import dirlab from the checkout's src/ and return the seconds it took."""
    if not (SRC / "dirlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no dirlab sources under {SRC}")
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dirlab

    elapsed = time.perf_counter() - start
    if Path(dirlab.__file__).resolve().parent != SRC / "dirlab":
        raise SystemExit(f"error: imported dirlab from {dirlab.__file__}, not {SRC}")
    return elapsed


def import_samples(first: float) -> list[float]:
    """The in-process import time plus IMPORT_SAMPLES more from child processes."""
    import subprocess

    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import dirlab; print(time.perf_counter() - start)")
    samples = [first]
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    return samples


def quantile(values, q: float) -> float:
    """Inclusive quantile q in (0, 1); a single value is its own quantile."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "dirlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import platform

    import numpy

    from workloads import SIZES

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": SIZES[workload],
    }


def solve_pass(ops, chk, tracer) -> list[float]:
    """Run every op once; return the op latencies.  Checks are untimed."""
    import traceback

    latencies = []
    for index, op in enumerate(ops):
        tracer.op = index
        tracer.phase = "solve"
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, the run goes on
            latencies.append(time.perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            chk.error(op.name, exc)
        else:
            latencies.append(time.perf_counter() - start)
            tracer.phase = "check"
            try:
                op.check(chk, out)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                chk.error(f"{op.name} check", exc)
            del out
        for captured in tracer.captured.values():
            captured.clear()
    tracer.op = None
    return latencies


def run_workload(name: str, seed: int, seconds: float, trace: int, import_s: float):
    """Measure one workload; return (result dict, detail dict)."""
    import gc

    from checks import Checker, load_reference
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    run_id = f"{name}-seed{seed}-pid{os.getpid()}-{time.time_ns()}"
    chk = Checker(*load_reference(name, seed))

    prepared = wl.prepare(seed, workdir)
    setup_times = []
    inputs = None

    def fresh_inputs():
        nonlocal inputs
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = wl.setup(prepared)
        setup_times.append(time.perf_counter() - start)

    fresh_inputs()
    while not trace and len(setup_times) < SETUP_MAX_REPS and (
        len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_BUDGET_S
    ):
        fresh_inputs()
    profile = wl.profile(inputs)

    # Each pass works on inputs no earlier pass has touched, so views that
    # PointSet caches are built in every pass alike.
    capture = Tracer(run_id, spans=False, capture=wl.capture)
    capture.install()
    try:
        passes, latencies = [], []
        solve_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            if passes:
                fresh_inputs()
            lat = solve_pass(wl.ops(inputs, capture), chk, capture)
            passes.append(sum(lat))
            latencies.extend(lat)
            now = time.perf_counter()
            if trace or now - solve_start + (now - pass_start) > seconds:
                break
    finally:
        capture.remove()
    solve_s = statistics.median(passes)

    detail = {"setup_times": setup_times, "passes": passes, "profile": profile}
    detail["op_p50_ms"] = 1000.0 * quantile(latencies, 0.50)
    detail["op_p99_ms"] = 1000.0 * quantile(latencies, 0.99)
    detail["ops"] = len(latencies)
    if not trace:
        metrics = {
            "setup_s": statistics.median(import_samples(import_s)) + statistics.median(setup_times),
            "solve_s": solve_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        inputs = None
        gc.collect()
        tracer = Tracer(run_id, spans=True, capture=wl.capture)
        tracer.install()
        try:
            tracer.phase = "setup"
            inputs = wl.setup(prepared)
            traced = sum(solve_pass(wl.ops(inputs, tracer), chk, tracer))
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics(traced, solve_s)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
        detail["untraced_solve_s"] = solve_s

    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }
    detail["messages"] = chk.messages[:50]
    detail["observed"] = chk.observed
    return result, detail


def record_reference(name: str, seed: int, observed: dict) -> None:
    from checks import REFERENCE_PATH

    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}
    entry = data.setdefault(name, {"fixed": {}, "seeded": {}})
    entry["fixed"] = observed["fixed"]
    if observed["seeded"]:
        entry.setdefault("seeded", {})[str(seed)] = observed["seeded"]
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def print_result(name: str, result: dict, units: dict, detail: dict) -> None:
    print(f"# workload {name}: {result['attempted']} checks, {result['failed']} failed")
    failed_frac = result["failed"] / result["attempted"]
    rows = [(k, v, units[k]) for k, v in result["metrics"].items()]
    rows.append(("failed_frac", failed_frac, "ratio"))
    for key, value, unit in rows:
        print(f"{key:36s} {value:>16.6g} {unit}")
    for message in detail["messages"][:10]:
        print(f"# FAILED {message}")


def run_all(args) -> int:
    """Each workload in its own process; metrics keyed workload.metric."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    import_s = import_program()
    if args.self_test:
        from selftest import run_self_test

        return run_self_test()
    if args.workload == "all":
        return run_all(args)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace, import_s)
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(result['metrics']) ^ set(units))} "
                         "differ from BENCHMARK.json")
    if args.record_reference:
        record_reference(args.workload, args.seed, detail["observed"])

    info = stamp(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"stamp": info, "result": result, **detail}, indent=1,
                                   default=str) + "\n", encoding="utf-8")
    print(f"# stamp {json.dumps(info)}")
    print(f"# profile {json.dumps({k: v for k, v in detail['profile'].items() if k != 'inputs'})}")
    print(f"# setup runs {detail['setup_times']}, solve passes {detail['passes']}")
    print(f"# op latency over {detail['ops']} ops: p50 {detail['op_p50_ms']:.6g} ms, "
          f"p99 {detail['op_p99_ms']:.6g} ms")
    print_result(args.workload, result, units, detail)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
