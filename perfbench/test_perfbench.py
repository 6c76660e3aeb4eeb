"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    a, _ = gen.generate(workload, 3, tmp_path / "a", gen.SIZES["smoke"])
    b, _ = gen.generate(workload, 3, tmp_path / "b", gen.SIZES["smoke"])
    c, _ = gen.generate(workload, 4, tmp_path / "c", gen.SIZES["smoke"])
    assert a.digests == b.digests
    assert a.digests != c.digests


def test_metric_names_are_well_formed():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(run.END_TO_END) + [name for name, _, _ in spans.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in config["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


def test_speed_clock_samples_inside_a_segment():
    clock = speed.SpeedClock()
    start = clock.start()
    end = time.perf_counter() + 4 * speed.TICK_S
    while time.perf_counter() < end:
        pass
    scaled = clock.stop(start)
    assert len(clock.jobs) >= 2 * speed.EDGE_JOBS + 2  # edges plus ticks inside
    assert scaled > 0 and clock.factor > 0
    start = clock.start(ticks=False)
    time.sleep(2 * speed.TICK_S)
    clock.stop(start)
    assert clock.ticks_s() == 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failures(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = [n for n, _, _ in spans.PER_LAYER] if trace else list(run.END_TO_END)
    assert list(result["metrics"]) == expected
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
