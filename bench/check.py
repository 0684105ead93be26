"""Physics-fingerprint checks on the artifacts one repetition writes.

An operation is one gate for QPT, one trajectory for synth, and one decay
curve and fit for RB. ``check`` returns a failure reason for every operation
that fails; the benchmark counts them toward ``fail_frac``.

Checks made for every seed (the acceptance-suite bands):

- 8-gate mean process fidelity F_P in [0.993, 0.999];
- reference RB decay p in [0.990, 0.998];
- mean interleaved gate fidelity F_g over the 8 targets in [0.994, 0.999];
- geometric phase of the synthesized loop equal to -gamma/2 within 1e-6 rad;
- every fingerprint finite and every decay fit converged.

The acceptance bands are for exact mode. In shot mode (rb_shots, interleaved
H only) p and F_g carry shot noise: over seeds 0-11 their standard
deviations are 3.5e-4 and 1.6e-4 around means of 0.9969 and 0.99852, so the
upper edges 0.998 and 0.999 sit only 3 standard deviations out, and a correct
program would fail one of the two on about one seed in 400. The shot bands are the acceptance
bands widened to 6 standard deviations about those means: p in [0.990,
0.999] and F_g(H) in [0.994, 0.9995].

For the default seed at full size, every fingerprint is also compared with
``reference.json``:

- exact mode to ``EXACT_TOL`` = 1e-12, the line past which a change counts as
  a behaviour change;
- shot mode to ``SHOT_TOL`` = 2e-5 on p, p_g and F_g. Shot mode is
  reproducible draw for draw: each sequence has its own Philox stream keyed
  by (seed, length index, randomization index). One flipped count among the
  2 x 2,500 binomial draws moves p by at most about 4e-6 (measured by
  perturbing one survival of the seed-2 curve by 1/(1024 (f0 + f1 - 1))), so
  the tolerance admits a few flips from changed rounding in the channel
  arithmetic. Redrawing the counts, as a changed stream or draw order does,
  moves p by its seed-to-seed spread of about 3.5e-4 and fails the check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, GATES, RANDOMIZATIONS, slug

EXACT_TOL = 1e-12
SHOT_TOL = 2e-5

QPT_MEAN_BAND = (0.993, 0.999)
RB_P_BAND = (0.990, 0.998)
RB_FG_BAND = (0.994, 0.999)
SHOT_P_BAND = (0.990, 0.999)
SHOT_FG_BAND = (0.994, 0.9995)
PHASE_TOL = 1e-6

# gamma of each named gate; the geometric phase of the |psi+> loop is -gamma/2
GAMMA = {"I": 0.0, "H": math.pi, "Rx(pi)": math.pi, "Rx(pi/2)": math.pi / 2,
         "Ry(pi)": math.pi, "Ry(pi/2)": math.pi / 2, "Rz(pi)": math.pi,
         "Rz(pi/2)": math.pi / 2}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def operations(workload: str) -> dict[str, list[str]]:
    """Operations of one repetition, keyed by the config stem running them."""
    if workload == "gates_exact":
        ops = {f"synth_{slug(g)}": [f"synth {g}"] for g in GATES}
        ops["qpt_gates"] = [f"qpt {g}" for g in GATES]
        return ops
    if workload == "rb_exact":
        return {workload: ["reference", *GATES]}
    if workload == "rb_shots":
        return {workload: ["reference", "H"]}
    raise ValueError(f"unknown workload {workload!r}")


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def fingerprints(workload: str, outdir: Path) -> dict[str, dict | None]:
    """Per-operation fingerprints read from the artifacts; None if missing."""
    if workload == "gates_exact":
        out = {}
        for g in GATES:
            doc = _load(outdir / f"synth_{slug(g)}" / "phase_report.json")
            out[f"synth {g}"] = None if doc is None else {
                key: doc.get(key) for key in
                ("geometric_phase", "dynamical_phase", "total_phase")}
        summary = _load(outdir / "qpt_gates" / "qpt_summary.json") or {}
        by_gate = dict(zip(summary.get("gates", []),
                           summary.get("fidelities", [])))
        for g in GATES:
            out[f"qpt {g}"] = {"F_P": by_gate[g]} if g in by_gate else None
        return out
    out = {}
    for op in operations(workload)[workload]:
        name = ("rb_reference_fit.json" if op == "reference"
                else f"rb_interleaved_{slug(op)}_fit.json")
        doc = _load(outdir / workload / name)
        if doc is None:
            out[op] = None
        elif op == "reference":
            out[op] = {"p": doc.get("p"), "converged": doc.get("converged")}
        else:
            out[op] = {"p_g": doc.get("p_g"), "F_g": doc.get("F_g"),
                       "converged": doc.get("interleaved_converged")}
    return out


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _finite(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _in_band(x: float, band: tuple[float, float]) -> bool:
    return band[0] <= x <= band[1]


def reference_values() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check(workload: str, fps: dict[str, dict | None], seed: int,
          randomizations: int = RANDOMIZATIONS) -> dict[str, str]:
    """Map each failed operation to the reason it failed.

    ``reference.json`` applies only to the default seed at full size.
    """
    failed: dict[str, str] = {}

    def fail(op, reason):
        failed.setdefault(op, reason)

    for op, fp in fps.items():
        if fp is None:
            fail(op, "artifact missing or unreadable")
            continue
        for key, value in fp.items():
            if key == "converged":
                if value is not True:
                    fail(op, "decay fit did not converge")
            elif not _finite(value):
                fail(op, f"{key} is not a finite number: {value!r}")

    ok = {op: fp for op, fp in fps.items() if op not in failed}
    if workload == "gates_exact":
        qpt = [f"qpt {g}" for g in GATES]
        if all(op in ok for op in qpt):
            mean = sum(ok[op]["F_P"] for op in qpt) / len(qpt)
            if not _in_band(mean, QPT_MEAN_BAND):
                for op in qpt:
                    fail(op, f"mean F_P {mean:.6f} outside {QPT_MEAN_BAND}")
        for g in GATES:
            fp = ok.get(f"synth {g}")
            if fp is None:
                continue
            err = abs(_wrap(fp["geometric_phase"] + 0.5 * GAMMA[g]))
            if err > PHASE_TOL:
                fail(f"synth {g}",
                     f"geometric phase off -gamma/2 by {err:.3e} rad")
    else:
        exact = workload == "rb_exact"
        p_band = RB_P_BAND if exact else SHOT_P_BAND
        fg_band = RB_FG_BAND if exact else SHOT_FG_BAND
        ref = ok.get("reference")
        if ref is not None and not _in_band(ref["p"], p_band):
            fail("reference", f"p {ref['p']:.6f} outside {p_band}")
        targets = [op for op in fps if op != "reference"]
        if all(op in ok for op in targets):
            mean = sum(ok[op]["F_g"] for op in targets) / len(targets)
            if not _in_band(mean, fg_band):
                for op in targets:
                    fail(op, f"mean F_g {mean:.6f} outside {fg_band}")

    if seed == DEFAULT_SEED and randomizations == RANDOMIZATIONS:
        stored = reference_values()[workload]
        tol = SHOT_TOL if workload == "rb_shots" else EXACT_TOL
        for op, fp in fps.items():
            if op in failed:
                continue
            for key, want in stored[op].items():
                got = fp.get(key)
                if not _finite(got) or abs(got - want) > tol:
                    fail(op, f"{key} = {got!r} differs from the stored "
                             f"{want!r} by more than {tol:g}")
    return failed
