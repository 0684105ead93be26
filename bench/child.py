"""One benchmark child process: set up geomgate, then run repetitions.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1
and ``src/`` on PYTHONPATH. The child records when it is ready (import of
``geomgate.cli``, Clifford tables built, configs loaded) and samples the
machine's speed with the probe kernel (``probe.py``), then, unless
``--setup-only``, runs the workload through ``geomgate.cli.main`` for
``--seconds`` seconds. Untraced repetitions run under the speed probe
(``probe.py``), which samples the machine's speed before and during each
one. With ``--trace 1`` repetitions alternate between untraced and traced,
so both wall times come from the same process; traced repetitions run
without the probe, so that no probe sample lands in a span. After each
repetition the artifacts are checked and deleted. The outcome goes to
``--result`` as JSON.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def _setup(root: Path, config_paths: list[Path]) -> dict:
    t0 = time.perf_counter()
    import geomgate.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from geomgate import config, qcore
    qcore.clifford_tables()
    t2 = time.perf_counter()
    for path in config_paths:
        config.load_config(path)
    t3 = time.perf_counter()
    import geomgate
    src = (root / "src").resolve()
    if src not in Path(geomgate.__file__).resolve().parents:
        raise SystemExit(f"geomgate imported from {geomgate.__file__}, "
                         f"not from {src}")
    return {"cli.import_s": t1 - t0, "qcore.clifford_tables_s": t2 - t1,
            "config.load_s": t3 - t2}


def _repetitions(args, config_paths: list[Path]) -> dict:
    import gc
    import resource
    import shutil

    import numpy
    import scipy
    from geomgate import (benchmarking, channels, cli, evolution, pulse,
                          tomography)

    import check
    import workloads
    from probe import Probe
    from spans import Tracer

    tracer = Tracer({"cli": cli, "pulse": pulse, "evolution": evolution,
                     "channels": channels, "tomography": tomography,
                     "benchmarking": benchmarking})
    ops_by_stem = check.operations(args.workload)
    ops = [op for group in ops_by_stem.values() for op in group]
    probe = Probe()
    reps = []
    layers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        outdir = args.tmp / f"rep{len(reps)}"
        argvs = workloads.invocations(config_paths, outdir, args.seed)
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        else:
            probe.start()
        codes, error, samples = [], None, []
        t0 = time.perf_counter()
        try:
            for argv in argvs:
                codes.append(cli.main(argv))
        except Exception as err:  # a crash fails the repetition, not the run
            error = f"{type(err).__name__}: {err}"
        if not traced:
            samples = probe.stop()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            layers.append(tracer.snapshot())

        failed = check.check(args.workload,
                             check.fingerprints(args.workload, outdir),
                             args.seed, args.randomizations)
        if error is not None:
            failed = dict.fromkeys(ops, error)
        for path, code in zip(config_paths, codes):
            if code != 0:
                failed.update(dict.fromkeys(ops_by_stem[path.stem],
                                            f"exit code {code}"))
        reps.append({"wall_s": wall, "probe_s": samples, "traced": traced,
                     "ops": len(ops), "failed": failed})
        shutil.rmtree(outdir, ignore_errors=True)

        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not args.trace or len(reps) >= 2):
            break
    return {"reps": reps, "layers": layers,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--config", type=Path, action="append", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--randomizations", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = {"setup": _setup(args.root, args.config)}
    out["ready"] = time.monotonic()
    import probe
    out["probe_s"] = probe.sample(probe.SETUP_SAMPLES)
    if not args.setup_only:
        out.update(_repetitions(args, args.config))
    args.result.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
