#!/usr/bin/env python3
"""geomgate benchmark: time the CLI workloads and check their physics.

    python3 bench/run.py --workload rb_exact --seed 2 --seconds 40 --trace 0

Each run writes the workload's configs for the seed, measures set-up in
fresh interpreters, then runs the workload in one more fresh child process
for ``--seconds`` seconds (see ``child.py``). One child runs at a time, with
OMP/OpenBLAS/MKL threads pinned to 1. Artifacts go to a temporary directory
under ``.bench_tmp/`` in the checkout, which is removed afterwards.
``wall_s`` (the median repetition) and ``setup_s`` (the median set-up) are
in seconds at the reference speed of ``probe.py``, which samples the
machine's speed during each repetition and after each set-up.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is 0
only when every operation passed its checks. ``--workload all`` runs every
workload in turn and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

# set-up is measured in this many fresh interpreters (after one warm-up) plus
# the workload's own child, and reported as the median at reference speed
SETUP_SAMPLES = 7
# a run must finish within 180 s; children share what is left of this
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_LAYERS = ("cli.import_s", "qcore.clifford_tables_s", "config.load_s")
PER_LAYER = (SETUP_LAYERS
             + tuple(f"{name}_s" for name in spans.SPANS)
             + spans.COUNTS
             + ("channels.hit_ratio", "trace.overhead_s"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.bytes_written":
        return "bytes"
    if metric == "channels.hit_ratio":
        return "ratio"
    return "count"


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` in the checkout, if there is one."""
    git = root / ".git"
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


class ChildFailed(RuntimeError):
    pass


def _spawn(args: list[str], tmp: Path, deadline: float) -> tuple[dict, float]:
    """Run one child to completion; return its result and spawn time."""
    fd, name = tempfile.mkstemp(dir=tmp, suffix=".json")
    os.close(fd)
    result = Path(name)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           **dict.fromkeys(THREAD_VARS, "1")}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "--root", str(ROOT), "--tmp",
             str(tmp), "--result", str(result), *args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child process timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child process exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text()), spawned


def _setup_sample(out: dict, spawned: float) -> dict:
    """Set-up time of one child, as measured and at reference speed."""
    measured = out["ready"] - spawned
    return {"measured": measured, "layers": out["setup"],
            "at_reference": probe.at_reference(measured, out["probe_s"])}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 randomizations: int = workloads.RANDOMIZATIONS,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; return the result object and run details."""
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        cfg_dir = tmp / "configs"
        cfg_dir.mkdir()
        paths = workloads.write_configs(workload, seed, cfg_dir,
                                        randomizations)
        common = [f"--config={p}" for p in paths] + [
            "--workload", workload, "--seed", str(seed),
            "--randomizations", str(randomizations)]
        setups = []
        for k in range(setup_samples + 1):
            out, spawned = _spawn(common + ["--setup-only"], tmp, deadline)
            if k:  # the first child only warms caches
                setups.append(_setup_sample(out, spawned))
        out, spawned = _spawn(common + ["--seconds", str(seconds),
                                        "--trace", str(int(trace))],
                              tmp, deadline)
        setups.append(_setup_sample(out, spawned))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    reps = out["reps"]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    untraced = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    normalized = [probe.normalized(r["wall_s"], r["probe_s"])
                  for r in untraced]
    if trace:
        layers = {k: statistics.median(layer[k] for layer in out["layers"])
                  for k in out["layers"][0]}
        for k in SETUP_LAYERS:
            layers[k] = statistics.median(s["layers"][k] for s in setups)
        lookups = layers["channels.lookups"]
        layers["channels.hit_ratio"] = (
            (lookups - layers["channels.compiles"]) / lookups
            if lookups else 0.0)
        traced = [r["wall_s"] for r in reps if r["traced"]]
        # untraced repetitions without their probe samples
        work = [r["wall_s"] - sum(r["probe_s"][1:]) for r in untraced]
        layers["trace.overhead_s"] = min(traced) - min(work)
        metrics = {k: {"value": layers[k], "unit": unit_of(k)}
                   for k in PER_LAYER}
    else:
        values = {"wall_s": statistics.median(normalized),
                  "setup_s": statistics.median(s["at_reference"]
                                               for s in setups),
                  "peak_rss_mb": out["maxrss_kb"] / 1024.0}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    reasons = sorted({reason for r in reps for reason in r["failed"].values()})
    return {"result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
            "walls": walls, "normalized": normalized,
            "setups": [s["measured"] for s in setups],
            "probes": [x for r in untraced for x in r["probe_s"]],
            "reasons": reasons,
            "versions": out["versions"]}


def _report(workload: str, run: dict) -> None:
    res = run["result"]
    walls, normalized = run["walls"], run["normalized"]
    print(f"{workload}: {len(walls)} untraced repetitions, measured wall min "
          f"{min(walls):.4g} s, median {statistics.median(walls):.4g} s, "
          f"max {max(walls):.4g} s; at reference speed min "
          f"{min(normalized):.4g} s, median "
          f"{statistics.median(normalized):.4g} s, max "
          f"{max(normalized):.4g} s; probe median "
          f"{statistics.median(run['probes']) * 1e3:.4g} ms "
          f"(reference {probe.REF_S * 1e3:.4g} ms); measured set-up "
          f"median {statistics.median(run['setups']):.4g} s")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {res['failed'] / res['attempted']:.6g} "
          f"(failed {res['failed']} of {res['attempted']} operations)")
    for reason in run["reasons"][:10]:
        print(f"  failure: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "geomgate" / "cli.py").is_file():
        print(f"error: no geomgate sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        try:
            runs[name] = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        except ChildFailed as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        _report(name, runs[name])
    first = next(iter(runs.values()))
    print("env: " + json.dumps({
        **first["versions"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "threads": dict.fromkeys(THREAD_VARS, "1"),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))

    if len(runs) == 1:
        result = first["result"]
    else:
        result = {"correct": all(r["result"]["correct"] for r in runs.values()),
                  "attempted": sum(r["result"]["attempted"]
                                   for r in runs.values()),
                  "failed": sum(r["result"]["failed"] for r in runs.values()),
                  "metrics": {f"{w}.{k}": m for w, r in runs.items()
                              for k, m in r["result"]["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
