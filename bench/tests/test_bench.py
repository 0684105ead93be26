"""Tests of the benchmark itself: the checker, the child and a smoke pass.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE = check.reference_values()


def _reference_fps(workload):
    """Fingerprints equal to the stored reference, fits converged."""
    fps = copy.deepcopy(REFERENCE[workload])
    if workload.startswith("rb_"):
        for fp in fps.values():
            fp["converged"] = True
    return fps


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checker_accepts_the_reference(workload):
    fps = _reference_fps(workload)
    assert check.check(workload, fps, workloads.DEFAULT_SEED) == {}
    assert check.check(workload, fps, seed=7) == {}


def test_checker_rejects_perturbed_process_fidelity():
    fps = _reference_fps("gates_exact")
    fps["qpt H"]["F_P"] += 1e-9
    failed = check.check("gates_exact", fps, workloads.DEFAULT_SEED)
    assert list(failed) == ["qpt H"]
    assert "stored" in failed["qpt H"]
    # away from the default seed only the band applies: 1e-9 passes, a mean
    # pulled below 0.993 fails every QPT gate
    assert check.check("gates_exact", fps, seed=7) == {}
    fps["qpt H"]["F_P"] = 0.9
    assert set(check.check("gates_exact", fps, seed=7)) == {
        f"qpt {g}" for g in workloads.GATES}


def test_checker_rejects_unconverged_fit():
    fps = _reference_fps("rb_exact")
    fps["Rx(pi)"]["converged"] = False
    failed = check.check("rb_exact", fps, seed=7)
    assert list(failed) == ["Rx(pi)"]
    assert "converge" in failed["Rx(pi)"]


def test_checker_rejects_missing_and_nonfinite_values():
    fps = _reference_fps("gates_exact")
    fps["synth H"]["geometric_phase"] = math.nan
    fps["qpt I"] = None
    assert set(check.check("gates_exact", fps, seed=7)) == {"synth H",
                                                            "qpt I"}


def test_checker_rejects_wrong_geometric_phase():
    fps = _reference_fps("gates_exact")
    fps["synth Rz(pi/2)"]["geometric_phase"] += 2e-6
    assert set(check.check("gates_exact", fps, seed=7)) == {
        "synth Rz(pi/2)"}


def test_shot_reference_tolerance_is_wider_than_exact():
    fps = _reference_fps("rb_shots")
    fps["reference"]["p"] += 1e-6
    assert check.check("rb_shots", fps, workloads.DEFAULT_SEED) == {}
    fps["reference"]["p"] += 1e-4
    assert set(check.check("rb_shots", fps, workloads.DEFAULT_SEED)) == {
        "reference"}


def test_nonzero_exit_fails_the_operations_of_that_invocation(tmp_path):
    paths = workloads.write_configs("gates_exact", 7, tmp_path)
    # a config without a qpt section loads, but `geomgate qpt` exits 2
    qpt = tmp_path / "qpt_gates.json"
    doc = json.loads(qpt.read_text())
    del doc["qpt"]
    qpt.write_text(json.dumps(doc))
    out, _ = run._spawn([f"--config={p}" for p in paths]
                        + ["--workload", "gates_exact", "--seed", "7",
                           "--randomizations", "50"],
                        tmp_path, time.monotonic() + 60)
    (rep,) = out["reps"]
    assert rep["failed"] == {f"qpt {g}": "exit code 2"
                             for g in workloads.GATES}


def test_normalized_removes_probe_time_and_scales_to_reference():
    slow = 2 * probe.REF_S
    # the first sample ran before the clock started; two ran inside it
    assert probe.normalized(1.0 + 2 * slow, [slow] * 3) == pytest.approx(0.5)
    assert probe.normalized(1.0, [probe.REF_S]) == pytest.approx(1.0)


def test_probe_samples_during_work_and_stops():
    p = probe.Probe()
    p.start()
    end = time.perf_counter() + 3.5 * probe.INTERVAL_S
    while time.perf_counter() < end:
        sum(range(1000))
    samples = p.stop()
    assert len(samples) >= 3
    assert all(0 < x < 1 for x in samples)
    time.sleep(2 * probe.INTERVAL_S)
    assert len(p.samples) == len(samples)


@pytest.fixture(scope="module")
def smoke():
    """Every workload once, traced, with RB shrunk to 2 randomizations."""
    return {w: run.run_workload(w, seed=7, seconds=0, trace=True,
                                randomizations=2, setup_samples=1)
            for w in workloads.NAMES}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_pass_runs_every_workload(smoke, workload):
    res = smoke[workload]["result"]
    assert res["correct"], smoke[workload]["reasons"]
    ops = sum(len(group) for group in check.operations(workload).values())
    assert res["attempted"] == 2 * ops
    # the untraced repetition ran under the probe
    assert smoke[workload]["probes"] and smoke[workload]["normalized"][0] > 0
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_compiles_per_repetition(smoke):
    # synthesis compiles no channel, so gates_exact compiles the 8 QPT gates;
    # rb_exact compiles 26, not 24: the named Rz(pi) and Rz(pi/2) specs miss
    # the cache keys of the equal Clifford elements
    expected = {"gates_exact": 8, "rb_exact": 26, "rb_shots": 24}
    got = {w: smoke[w]["result"]["metrics"]["channels.compiles"]["value"]
           for w in workloads.NAMES}
    assert got == expected


def test_lookups_are_derived_from_the_sequences(smoke):
    metrics = smoke["rb_shots"]["result"]["metrics"]
    # 2 curves x 2 randomizations x sum(m + 1), plus the interleaved target
    per_curve = 2 * sum(m + 1 for m in workloads.RB_LENGTHS)
    assert metrics["channels.lookups"]["value"] == 2 * per_curve + 1
    assert metrics["benchmarking.sequences"]["value"] == 2 * 2 * 50
    gates = smoke["gates_exact"]["result"]["metrics"]
    assert gates["channels.lookups"]["value"] == 8 * 5
    assert gates["evolution.rk4_steps"]["value"] == 8 * 3 * 1000


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gates_exact"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
