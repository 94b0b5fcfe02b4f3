"""The benchmark's own tests: schema, references, exact counts, refusal.

Run from the repository root: ``python3 -m pytest campaignbench -q``.
The run-based tests execute the real benchmark (about 35 s per run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from campaignbench import record, run, workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(wl.WORKLOADS)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "campaignbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert set(run.EXACT_COUNTS) <= set(run.LAYER_UNITS)


def test_reference_covers_every_pair():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.chem.generate import receptor_contains_mercury

    reference = wl.load_reference()
    for workload in WORKLOADS:
        variants = reference[workload]["variants"]
        assert len(variants) == record.KEEP
        for variant in variants:
            pairs = {
                wl.pair_key(r, lig)
                for r in variant["receptors"]
                for lig in variant["ligands"]
            }
            assert set(variant["expected"]) == pairs
            for key, outcome in variant["expected"].items():
                hg = receptor_contains_mercury(key.split("|")[0])
                assert outcome["status"] == ("BLOCKED" if hg else "FINISHED")


def test_compare_flags_each_differing_pair():
    expected = {
        "A|x": {"status": "FINISHED", "feb": -1.0, "rmsd": 2.0},
        "B|x": {"status": "BLOCKED"},
        "C|x": {"status": "FINISHED", "feb": -3.0, "rmsd": 1.0},
    }
    observed = {
        "A|x": {"status": "FINISHED", "feb": -1.0, "rmsd": 2.0},
        "B|x": {"status": "FINISHED", "feb": -2.0, "rmsd": 0.0},
        "C|x": {"status": "FINISHED", "feb": -3.001, "rmsd": 1.0},
    }
    assert wl.compare(expected, observed) == ["B|x", "C|x"]
    assert wl.compare(expected, {}) == ["A|x", "B|x", "C|x"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_declared_metrics(workload):
    result = _result(_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
    ))
    assert result["correct"] and result["failed"] == 0
    assert _units(result["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert result["metrics"]["pairs_ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_exact_counts_repeat(workload):
    results = [
        _result(_bench(
            "--workload", workload, "--seed", "2", "--seconds", "1",
            "--trace", "1",
        ))
        for _ in range(2)
    ]
    for result in results:
        assert result["correct"]
        assert _units(result["metrics"]) == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }
    first, second = (r["metrics"] for r in results)
    for name in run.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    if wl.WORKLOADS[workload].warm:
        assert first["maps.builds"]["value"] == 0
    else:
        assert first["maps.builds"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "campaignbench",
        tmp_path / "campaignbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _bench(
        "--workload", "sweep_cold", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
