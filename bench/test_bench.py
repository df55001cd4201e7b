"""Smoke test of the benchmark harness on the smallest inputs.

Runs every workload untraced and traced on one small complex, checks the
shape of the result line against BENCHMARK.json, and checks that the entry
point refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

SMALLEST = {
    "solve": {"grid": 1, "generated": (), "seed_names": ("tetrahedron",)},
    "verify-packings": {"seed_names": ("tetrahedron",),
                        "with_cube_on_ellipsoid": False},
}


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_smallest_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = harness.run(workload, 7, 0.0, trace, str(tmp_path),
                             **SMALLEST[workload])
        line = json.loads(harness.report_line(result))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == _declared(kind)
        if trace == 0:
            assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_clock_times_net_of_probes():
    import speed
    clock = speed.SpeedClock()
    value, seconds = clock(sum, range(3_000_000))
    assert value == sum(range(3_000_000))
    net, scaled, probe_s, probes = clock.log[-1]
    assert probes >= 2 and net > 0 and probe_s > 0
    assert abs(scaled - net * speed.REF_SECONDS / probe_s) < 1e-12
    assert seconds == scaled
