"""Benchmark workloads: CLI invocations and their configs.

Every workload runs the reference Xmon device (``DeviceParams.default_xmon()``)
with T = 10 ns segments and dt = 0.01 ns. The seed is the only input that
varies between runs; it is written into every config and passed through
``--seed``. It changes the sampled RB sequences and shot draws, and leaves the
QPT and synthesis inputs unchanged, since those are deterministic in the CLI.

A config's file stem starts with the CLI command that runs it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

DEFAULT_SEED = 2

GATES = ("I", "H", "Rx(pi)", "Rx(pi/2)", "Ry(pi)", "Ry(pi/2)", "Rz(pi)",
         "Rz(pi/2)")

DEVICE = {"T1_us": 19.0, "T2_star_us": 10.0, "f10_GHz": 5.266,
          "readout_f0": 0.98, "readout_f1": 0.936}

RB_LENGTHS = tuple(range(2, 102, 2))
RANDOMIZATIONS = 50

NAMES = ("gates_exact", "rb_exact", "rb_shots")


def slug(name: str) -> str:
    """File-name slug of a gate name, as the CLI derives it."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _base(seed: int, mode: str) -> dict:
    return {"device": dict(DEVICE), "segment_duration_ns": 10.0,
            "dt_ns": 0.01, "mode": mode, "seed": seed}


def configs(workload: str, seed: int,
            randomizations: int = RANDOMIZATIONS) -> dict[str, dict]:
    """Config documents of one workload, keyed by file stem.

    ``randomizations`` shrinks the RB workloads for the benchmark's own
    smoke test; every measured run uses the default.
    """
    if workload == "gates_exact":
        docs = {f"synth_{slug(g)}": {**_base(seed, "exact"),
                                     "synth": {"gate": g}}
                for g in GATES}
        docs["qpt_gates"] = {**_base(seed, "exact"),
                             "qpt": {"gates": list(GATES)}}
        return docs
    if workload in ("rb_exact", "rb_shots"):
        exact = workload == "rb_exact"
        rb = {"lengths": list(RB_LENGTHS), "randomizations": randomizations,
              "interleaved": list(GATES) if exact else ["H"],
              "readout_correction": True}
        return {workload: {**_base(seed, "exact" if exact else "shots:1024"),
                           "rb": rb}}
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, directory: Path,
                  randomizations: int = RANDOMIZATIONS) -> list[Path]:
    """Write the workload's configs as JSON files; return their paths."""
    paths = []
    for stem, doc in configs(workload, seed, randomizations).items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def invocations(config_paths, outdir: Path, seed: int) -> list[list[str]]:
    """``geomgate.cli.main`` argument lists for one repetition."""
    return [[path.stem.split("_")[0], "--config", str(path),
             "--out", str(outdir / path.stem), "--seed", str(seed)]
            for path in config_paths]
