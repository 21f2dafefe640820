"""Tests of the benchmark itself: smoke runs, gates, counts and the sum check.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = ("exact_mixed", "shots_mc", "coherent_sector", "profile_mesh")
COUNT_SUFFIXES = (".calls", ".blocks", ".useful_ratio", ".distinct_ratio", ".bytes")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 3, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_counts_repeat_for_a_seed_and_shape_repeats_across_seeds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second, other_seed = (result_of(bench("exact_mixed", seed, 1)) for seed in (5, 5, 6))
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = {k: v for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k] for k in counts}
    # another seed draws other states but must do the same work
    for key, value in counts.items():
        if not key.endswith(".bytes"):
            assert other_seed["metrics"][key] == value, key
    assert counts["tomography.choose_directions.calls"]["value"] == 21
    assert counts["tomography.choose_directions.distinct_ratio"]["value"] == pytest.approx(6 / 21)


def test_coherent_sector_counts_blocks_of_skipped_manifolds():
    metrics = result_of(bench("coherent_sector", 1, 1))["metrics"]
    assert metrics["tomography.outcome_distribution.blocks"]["value"] == 48 * 25
    assert metrics["tomography.outcome_distribution.useful_ratio"]["value"] == pytest.approx(6 / 25)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("shots_mc", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _gated(workload, items, outputs) -> worker.Run:
    run = worker.Run(workload)
    run.gate(items, outputs)
    return run


def test_perturbed_rho_trips_the_exact_gate_and_is_counted(tmp_path):
    workload = workloads.ExactMixed(tmp_path)
    items = workload.items(seed=1, phase=0, index=0)[:2]
    outputs = [worker.call(item.argv) for item in items]
    assert _gated(workload, items, outputs).failed == 0

    code, stdout, stderr = outputs[1]
    payload = json.loads(stdout)
    payload["manifolds"][0]["rho"][0][0][0] += 1e-5
    bad = [outputs[0], (code, json.dumps(payload), stderr)]
    run = _gated(workload, items, bad)
    assert (run.attempted, run.failed) == (2, 1)

    broken = [(0, "not json", ""), (1, "", "error: boom")]
    assert _gated(workload, items, broken).failed == 2


def test_shot_gates_count_unphysical_rho_and_a_failing_median(tmp_path):
    workload = workloads.ShotsMC(tmp_path)
    items = workload.items(seed=1, phase=0, index=0)
    outputs = [worker.call(item.argv) for item in items]
    run = _gated(workload, items, outputs)
    run.finish()
    assert run.failed == 0

    code, stdout, stderr = outputs[0]
    payload = json.loads(stdout)
    payload["manifolds"][0]["rho"][0][0][0] += 0.1  # trace is no longer 1
    run = _gated(workload, items, [(code, json.dumps(payload), stderr)] + outputs[1:])
    assert run.failed == 1

    run = _gated(workload, items, outputs)
    run.stats["by_group"]["noon:n=2"] = [0.5]
    run.finish()
    assert run.failed == 1  # the one noon:n=2 item fed the failing median


def test_scaled_mesh_trips_the_closed_form_gate(tmp_path):
    workload = workloads.ProfileMesh(tmp_path)
    item = workload.items(seed=2, phase=0, index=0)[2]
    code, stdout, stderr = worker.call(item.argv)
    assert _gated(workload, [item], [(code, stdout, stderr)]).failed == 0
    payload = json.loads(stdout)
    payload["values"] = [[v * (1 + 1e-6) + 1e-6 for v in row] for row in payload["values"]]
    assert _gated(workload, [item], [(code, json.dumps(payload), stderr)]).failed == 1


def test_layer_self_times_and_other_add_up_to_the_round():
    spans = [
        ["cli.main", 1.0, 4.0, None, {}],
        ["tomography.run_tomography", 1.5, 3.5, 0, {"reconstructed": frozenset({1})}],
        ["tomography.outcome_distribution", 2.0, 2.5, 1, {"blocks": (1, 2)}],
        ["serialize.dumps", 3.6, 3.9, 0, {"bytes": 10}],
    ]
    out = tracing.analyze_round(spans, 0.5, 4.5)
    assert out["self_s"]["cli.main"] == pytest.approx(3.0 - 2.0 - 0.3)
    assert out["self_s"]["tomography.run_tomography"] == pytest.approx(1.5)
    assert out["other_s"] == pytest.approx(1.0)
    assert sum(out["self_s"].values()) + out["other_s"] == pytest.approx(4.0)
    assert out["counts"]["tomography.outcome_distribution.blocks"] == 2
    assert out["counts"]["tomography.outcome_distribution.useful_blocks"] == 1
    assert out["counts"]["serialize.dumps.bytes"] == 10

    spans[2][3] = 3  # a child that lies outside its parent
    with pytest.raises(ValueError):
        tracing.analyze_round(spans, 0.5, 4.5)


def test_tracer_wraps_and_restores_every_layer():
    from stokes_lab import cli, tomography

    original = tomography.run_tomography
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_tomography is not original and tomography.run_tomography is not original
        code, stdout, _ = worker.call(["tomography", "--state", "noon:n=2", "--shots", "inf"])
        assert code == 0 and stdout
        names = [span[0] for span in tracer.spans]
        assert names[0] == "cli.main" and "tomography.reconstruct_density" in names
    finally:
        tracer.uninstall()
    assert cli.run_tomography is original and tomography.run_tomography is original
