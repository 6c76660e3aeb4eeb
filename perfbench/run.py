#!/usr/bin/env python3
"""Benchmark of the asas pipeline: end-to-end metrics, or per-layer ones with --trace 1.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload tune --seed 1 --seconds 20 --trace 0

Workloads (inputs generated from --seed by gen.py; the program always
gets --seed 7):

  tune   one prompt of short answers through tune -> predict -> ensemble
         --m 2 -> report. The only workload that trains the MLP and runs
         TPE; features go through the cached fit-and-threshold path.
  score  fit one prompt of long answers with train-features (set-up), then
         score fresh answers as one `asas predict` batch and one at a time.
         Nearly all time is fuzzy n-gram matching on the direct path.
  stack  ten prompts at public-dataset scale, one `ensemble --m 3` call per
         prompt and one `report`. No feature extraction and no MLP: the
         control on which feature and training changes should not show.

Each run is one fresh process. Its timed repetition is repeated while
--seconds allows, at least once. Timings are wall seconds scaled to a
reference machine speed measured on the benchmark's own thread
(speed.py), so the minutes-long slow spells of a shared host mostly
cancel out. The untraced run checks every output and prints the
end-to-end metrics; the traced run wraps the layers' public functions
(spans.py) and prints per-layer metrics, whose span times are unscaled
and include the speed clock's reference jobs (about 4% of a timed
segment). Informational lines (machine facts, artifact digests,
per-command times) come first; the last line of standard output is
the result as one JSON object.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy loads: two threads measured no faster on the MLP
# step, and one keeps the run within a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".perfbench_work")  # relative to ROOT: artifact headers embed input paths
IMPORT_SAMPLES = 5  # set-up repetitions of process start + import asas
SCORE_SETUPS = 3  # set-up repetitions of train-features + load on `score`

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "qwk": "kappa",
}


def time_import(clock) -> float:
    """Wall time at reference speed of a fresh interpreter that imports the program."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = clock.start(ticks=False)
    subprocess.run([sys.executable, "-c", "import asas.cli"], env=env, check=True, cwd=ROOT)
    return clock.stop(start)


def input_properties(layout: dict) -> dict[str, float]:
    """Token count and window sharing of every text the workload feeds the program."""
    from workloads import dataset_rows

    toks = [row[3].lower().split() for key in ("data", "test", "fresh") if key in layout
            for row in dataset_rows(layout[key])]
    out = {"input.tokens_per_response": sum(map(len, toks)) / len(toks)}
    for n in (1, 2, 3):
        windows = [" ".join(t[i:i + n]) for t in toks for i in range(len(t) - n + 1)]
        out[f"input.distinct_window_share.{n}"] = len(set(windows)) / len(windows)
    return out


def blas_threads(numpy_dir: Path) -> int | None:
    for lib in glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(Path(np.__file__).resolve().parent),
    }


def code_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "asas").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def compare_ledger(b, key: str) -> None:
    """Artifacts of the same code, workload, seed and size must match earlier runs."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    if key in ledger:
        for name, value in b.digests.items():
            b.op(ledger[key].get(name) == value, f"digest of {name} differs from an earlier run")
    else:
        ledger[key] = b.digests
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True))


def probe_metrics(reps: list[dict]) -> dict[str, float]:
    """One-answer latency percentiles (closed loop, one caller) and batch rows/s, at reference speed."""
    import numpy as np

    latencies = [x for r in reps for x in r["latencies"]]
    return {
        "probe.score_p50_ms": 1000.0 * float(np.percentile(latencies, 50)),
        "probe.score_p95_ms": 1000.0 * float(np.percentile(latencies, 95)),
        "probe.samples": len(latencies),
        "probe.batch_rps": statistics.median(r["rows_per_s"] for r in reps),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run: the tally, the metrics and informational extras."""
    from spans import Tracer, layer_metrics, patched
    from workloads import WORKLOADS, Bench

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, str(seed), size, str(work)],
                   check=True, cwd=ROOT)
    layout = json.loads((work / "layout.json").read_text())
    b = Bench(layout, work)
    setup, rep_fn, checks = WORKLOADS[workload]

    if trace:
        # Per-layer numbers cover one set-up (score only) and one repetition;
        # an untraced repetition just before gives the tracing overhead.
        tracer = Tracer()
        if setup:
            b.tracer = tracer
            with patched(tracer):
                setup(b)
            b.tracer = None
        untraced = rep_fn(b)
        b.tracer = tracer
        with patched(tracer):
            traced = rep_fn(b)
        metrics = layer_metrics(tracer) | input_properties(layout) | probe_metrics([untraced])
        metrics["trace.overhead_frac"] = traced["wall"] / untraced["wall"] - 1.0
        return {"attempted": b.attempted, "failed": b.failed, "problems": b.problems,
                "metrics": metrics, "info": {}}

    setups = [time_import(b.clock) for _ in range(IMPORT_SAMPLES)]
    if setup:
        setups = setups[:SCORE_SETUPS]
        for i in range(SCORE_SETUPS):
            setups[i] += setup(b)
            b.record_digests([work / "model" / "model.txt"])
        b.digests = None
    reps, rep_spans = [], []  # rep_spans: unscaled seconds of each repetition with its checks
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(rep_fn(b))
        quality = checks(b, reps[-1])
        rep_spans.append(time.perf_counter() - rep_start)
        if time.perf_counter() - start + statistics.median(rep_spans) > seconds:
            break
    compare_ledger(b, f"{workload}:{seed}:{size}:{code_digest()}")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall"] for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (b.attempted - b.failed) / b.attempted,
        "qwk": quality,
    }
    info = {
        "reps": len(reps),
        "probe": probe_metrics(reps),
        "setups_s": setups,
        "reference_job_s": statistics.median(b.clock.jobs),
        "commands_s": {k: statistics.median(r["commands"][k] for r in reps) for k in reps[0]["commands"]},
        "digests": b.digests,
    }
    return {"attempted": b.attempted, "failed": b.failed, "problems": b.problems,
            "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tune", "score", "stack"))
    parser.add_argument("--seed", type=int, required=True, help="input generator seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the timed work while it fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the layers and print per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "asas" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src' / 'asas'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from spans import PER_LAYER

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        result["info"]["moves"] = {name: moves for name, _, moves in PER_LAYER}
    else:
        units = END_TO_END
    for problem in result["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine_facts(), **result["info"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
