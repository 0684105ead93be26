"""Command-line harness: synth | qpt | rb | selftest.

Reads a JSON experiment config, runs the requested characterization, and
writes plot-ready CSV / JSON artifacts into the output directory (--out,
else $GEOMGATE_OUT if set and not empty, else ./geomgate_out), which each
command creates only after its computation has succeeded. Every report
embeds the fully resolved configuration. Exit codes: 0 success, 2 config
error or unwritable output directory, 3 fit divergence, 4 invariant failure
(including a compiled channel that is not finite, trace preserving and
completely positive). A command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import evolution, pulse
from .config import ExperimentConfig, config_to_dict, load_config
from .errors import ConfigError, GeomgateError
from .pulse import _write_json
from .qcore import axis_eigenstates

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_INVARIANT = 4


def gate_slug(name: str) -> str:
    """File-name slug of a gate name in the output files."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def cmd_synth(cfg: ExperimentConfig, outdir: Path) -> int:
    spec = cfg.synth.spec
    segments = pulse.synthesize(spec, cfg.segment_duration_ns)
    psi_plus, _ = axis_eigenstates(spec)
    traj = evolution.evolve_unitary(segments, psi_plus, dt=cfg.dt_ns)
    report = evolution.phase_decomposition(traj)

    outdir.mkdir(parents=True, exist_ok=True)
    pulse.save_schedule(spec, segments, outdir / "schedule.json")
    t_ns = list(evolution.spell(traj.times))  # text for both CSVs
    evolution.trajectory_to_csv(traj, outdir / "trajectory.csv", t_ns)
    evolution.bloch_path_to_csv(traj, outdir / "bloch_path.csv", t_ns)
    _write_json({"config": config_to_dict(cfg),
                 "total_phase": report.total,
                 "dynamical_phase": report.dynamical,
                 "geometric_phase": report.geometric,
                 "cyclicity_defect": report.cyclicity_defect},
                outdir / "phase_report.json")
    print(f"gate ({spec.theta:.6f}, {spec.phi:.6f}, {spec.gamma:.6f})")
    print(f"total phase      {report.total:+.9f} rad")
    print(f"dynamical phase  {report.dynamical:+.9f} rad")
    print(f"geometric phase  {report.geometric:+.9f} rad")
    print(f"cyclicity defect {report.cyclicity_defect:.3e}")
    return EXIT_OK


def cmd_qpt(cfg: ExperimentConfig, outdir: Path) -> int:
    from . import channels, tomography
    cache = channels.GateChannelCache(cfg.segment_duration_ns, cfg.dt_ns)
    cache.stack(tomography.qpt_specs(cfg.qpt), cfg.device)
    results = [tomography.run_qpt(name, device=cfg.device, shots=cfg.shots,
                                  seed=cfg.seed, channels=cache)
               for name in cfg.qpt]

    outdir.mkdir(parents=True, exist_ok=True)
    config = config_to_dict(cfg)
    for name, result in zip(cfg.qpt, results):
        payload = tomography.qpt_report(result, gate_name=name)
        payload["config"] = config
        slug = gate_slug(name)
        _write_json(payload, outdir / f"qpt_{slug}.json")
        tomography.chi_to_csv(result.chi, outdir / f"chi_{slug}.csv")
        print(f"{name:9s} F_P = {result.fidelity:.6f}")
    fidelities = [result.fidelity for result in results]
    avg = float(np.mean(fidelities))
    _write_json({"config": config,
                 "gates": list(cfg.qpt),
                 "fidelities": fidelities,
                 "average_fidelity": avg},
                outdir / "qpt_summary.json")
    print(f"average F_P over {len(fidelities)} gates = {avg:.6f}")
    return EXIT_OK


def cmd_rb(cfg: ExperimentConfig, outdir: Path) -> int:
    from . import benchmarking, channels
    cache = channels.GateChannelCache(cfg.segment_duration_ns, cfg.dt_ns)
    (curve, ref_fit, ref_result), *interleaved = benchmarking.run_rb(
        cfg.rb.config, cfg.rb.interleaved, cfg.device, channels=cache)

    outdir.mkdir(parents=True, exist_ok=True)
    config = config_to_dict(cfg)
    benchmarking.decay_to_csv(curve, outdir / "rb_reference.csv")
    payload = benchmarking.fit_report(ref_result)
    payload["config"] = config
    _write_json(payload, outdir / "rb_reference_fit.json")
    print(f"reference: p={ref_fit.p:.6f} r={ref_result.r:.6f} "
          f"F_avg={ref_result.F_avg:.6f} converged={ref_fit.converged}")

    diverged = not ref_fit.converged
    for target, (icurve, ifit, iresult) in zip(cfg.rb.interleaved,
                                                interleaved):
        slug = gate_slug(target)
        benchmarking.decay_to_csv(icurve, outdir / f"rb_interleaved_{slug}.csv")
        payload = benchmarking.fit_report(iresult)
        payload["config"] = config
        payload["target"] = target
        _write_json(payload, outdir / f"rb_interleaved_{slug}_fit.json")
        print(f"interleaved {target:9s} p_g={iresult.p_g:.6f} "
              f"F_g={iresult.F_g:.6f} converged={ifit.converged}")
        diverged = diverged or not ifit.converged
    return EXIT_FIT if diverged else EXIT_OK


def cmd_selftest(seed: int) -> int:
    from . import selftest
    report = selftest.run_selftest(seed=seed)
    sys.stdout.write(report.text)
    print(f"report sha256: {report.digest}")
    return EXIT_OK if report.all_passed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomgate",
        description="Synthesis and characterization of geometric single-qubit gates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "qpt", "rb", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None,
                       help="random seed, in place of the config's")
        if name != "selftest":
            p.add_argument("--config", required=True,
                           help="path to the JSON experiment config")
            p.add_argument("--out", default=None, help="output directory (default "
                           "$GEOMGATE_OUT if set and not empty, else ./geomgate_out)")
        if name in ("qpt", "rb"):
            p.add_argument("--mode", default=None,
                           help="override the config mode: exact | shots:<n>")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "selftest":
            return cmd_selftest(args.seed or 0)
        cfg = load_config(args.config, args.seed, getattr(args, "mode", None))
        if getattr(cfg, args.command) is None:
            raise ConfigError(f"config has no {args.command} section")
        outdir = Path(args.out or os.environ.get("GEOMGATE_OUT") or "geomgate_out")
        command = {"synth": cmd_synth, "qpt": cmd_qpt, "rb": cmd_rb}[args.command]
        return command(cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except GeomgateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
