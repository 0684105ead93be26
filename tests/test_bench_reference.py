"""The benchmark's physics fingerprints, checked in the package's own suite.

``bench/check.py`` compares every fingerprint of the default-seed
gates_exact and rb_exact runs with ``bench/reference.json`` to 1e-12, and
those of rb_shots to 2e-5, which a redrawn set of shot counts (about 3.5e-4
on p) fails. The runs are cheap in-process, so a change that drifts a
fingerprint fails here and not only in the timed benchmark. The bench
modules are loaded read-only from their files.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from geomgate import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name,
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    workloads = _load("workloads", "bench_workloads")
    # check.py imports its sibling as a top-level module
    saved = sys.modules.get("workloads")
    sys.modules["workloads"] = workloads
    try:
        check = _load("check", "bench_check")
    finally:
        if saved is None:
            del sys.modules["workloads"]
        else:
            sys.modules["workloads"] = saved
    return workloads, check


@pytest.mark.parametrize("workload", ["gates_exact", "rb_exact", "rb_shots"])
def test_default_seed_matches_stored_fingerprints(bench, workload, tmp_path,
                                                  capsys):
    workloads, check = bench
    seed = workloads.DEFAULT_SEED
    paths = workloads.write_configs(workload, seed, tmp_path)
    for argv in workloads.invocations(paths, tmp_path / "out", seed):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    fps = check.fingerprints(workload, tmp_path / "out")
    assert set(fps) == set(check.reference_values()[workload])
    assert all(fp is not None for fp in fps.values())
    assert check.check(workload, fps, seed) == {}
