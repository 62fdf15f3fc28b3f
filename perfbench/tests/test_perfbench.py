"""The benchmark's own tests, at the tiny size (a few seconds per run).

Each test drives ``perfbench/run.py`` as a subprocess, exactly as a
measuring run does, and reads its human lines and its final JSON line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
RUN = HERE / "run.py"
WORKLOADS = ("physio-leakage", "fleet-privacy", "attack-queue", "live-ward")

sys.path.insert(0, str(HERE))
from layers import LayerTrace  # noqa: E402


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _parse(lines: list[str]):
    result = json.loads(lines[-1])
    digests = {
        line.split()[1]: line.split()[2]
        for line in lines if line.startswith("digest ")
    }
    human = {
        line.split()[1]: (float(line.split()[2]), line.split()[3])
        for line in lines if line.startswith("metric ")
    }
    return result, digests, human


@pytest.fixture(scope="module")
def runs():
    """Every workload once untraced and once traced."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, lines = _run(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[workload, trace] = _parse(lines)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(runs, workload):
    result, digests, human = runs[workload, 0]
    spec = _benchmark_spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert human["error_rate"] == (0.0, "ratio")
    if workload == "attack-queue":
        assert human["warm_s"][1] == "s" and human["warm_s"][0] > 0
    if workload == "live-ward":
        assert human["events_per_s"][1] == "1/s"
    assert digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_and_self_times_sum_to_wall(runs, workload):
    result, _, _ = runs[workload, 1]
    spec = _benchmark_spec()
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == expected
    values = {name: v["value"] for name, v in result["metrics"].items()}
    attributed = sum(values[name] for name in LayerTrace.self_time_metrics())
    assert attributed + values["trace.unattributed_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9
    )
    assert values["trace.unattributed_s"] >= 0


def test_layers_reached(runs):
    def values(workload):
        return {
            name: v["value"]
            for name, v in runs[workload, 1][0]["metrics"].items()
        }

    physio = values("physio-leakage")
    assert physio["inference.records"] > 0 and physio["framing.packets"] > 0
    assert physio["store.gets"] == 0
    fleet = values("fleet-privacy")
    assert fleet["cohort.patients"] == 12 and fleet["jam.jammers"] >= 12
    queue = values("attack-queue")
    assert queue["queue.claims"] == queue["store.puts"] == queue["runner.units"]
    assert queue["store.hit_ratio"] == 0.5
    assert queue["sim.events"] > 0 and queue["mimo.attack_s"] > 0
    assert queue["inference.records"] == 0
    ward = values("live-ward")
    assert ward["ecg.walk_steps"] > 0 and ward["alarms.fired"] > 0
    assert ward["hub.flush_s"] > 0 and ward["hub.delivered_ratio"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digests_equal_untraced(runs, workload):
    assert runs[workload, 1][1] == runs[workload, 0][1]


def _copy_benchmark(tmp_path: Path) -> Path:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_text(path.read_text())
    return bench


def test_wrong_pinned_digest_exits_nonzero(tmp_path):
    bench = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins = json.loads((bench / "pins.json").read_text())
    pins["tiny"]["fleet-privacy"]["fleet-privacy-leakage"] = "0" * 64
    (bench / "pins.json").write_text(json.dumps(pins))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fleet-privacy",
         "--seed", "0", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    bench = _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "live-ward",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
