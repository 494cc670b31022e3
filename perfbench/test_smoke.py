"""Smoke test of the benchmark itself at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both modes and on every workload, and that the outputs pass their checks
(at seed 0 against fingerprints.json); that a different seed changes the inputs
but not the set of metric names; that the traced run rebuilds the same
sweep CSV as the untraced one; and that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    hashes = next(line for line in lines if line.startswith("output_sha256 ")).split()
    return result, dict(zip(hashes[0::2], hashes[1::2]))


@pytest.fixture(scope="module")
def results():
    return {(w, seed, trace): parse(run(w, seed, trace))
            for w in WORKLOADS for seed, trace in ((0, 0), (1, 0), (1, 1))}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed,trace,section",
                         [(0, 0, "end_to_end"), (1, 0, "end_to_end"), (1, 1, "per_layer")])
def test_every_metric_printed_with_unit(results, workload, seed, trace, section):
    result, _ = results[(workload, seed, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(results, workload):
    first, first_hashes = results[(workload, 0, 0)]
    second, second_hashes = results[(workload, 1, 0)]
    assert first_hashes["input_sha256"] != second_hashes["input_sha256"]
    assert set(first["metrics"]) == set(second["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_untraced(results, workload):
    _, untraced = results[(workload, 1, 0)]
    _, traced = results[(workload, 1, 1)]
    assert traced == untraced


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
