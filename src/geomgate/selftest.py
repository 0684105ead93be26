"""Reduced-scale invariant suites for the ``selftest`` CLI command.

Each suite re-checks one module's core invariants in a few seconds total.
The report is deterministic for a fixed seed (identical text, identical
hash), so repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from . import (benchmarking, channels, config, evolution, pulse, qcore,
               tomography)


def _check(ok, msg: str) -> None:
    """``assert ok, msg`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(msg)


def _random_spec(rng) -> qcore.GateSpec:
    return qcore.GateSpec(rng.uniform(0.0, math.pi),
                          rng.uniform(-math.pi, math.pi),
                          rng.uniform(-2.0 * math.pi, 2.0 * math.pi))


def _suite_pauli(seed):
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for j in range(3):
            want = (qcore.I2 if i == j else 0.0 * qcore.I2)
            want = want + 1j * sum(eps[i, j, k] * qcore.PAULIS[k + 1]
                                   for k in range(3))
            got = qcore.PAULIS[i + 1] @ qcore.PAULIS[j + 1]
            _check(np.allclose(got, want, atol=1e-14), f"sigma_{i} sigma_{j}")


def _suite_axis_angle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        spec = _random_spec(rng)
        back = qcore.unitary_to_axis_angle(qcore.axis_angle_unitary(spec))
        d = qcore.phase_distance(qcore.axis_angle_unitary(back),
                                 qcore.axis_angle_unitary(spec))
        _check(d < 1e-10, f"round trip distance {d}")


def _suite_clifford(seed):
    group = qcore.clifford_group()
    _check(len(group) == 24, "group size")
    mats = np.array([qcore.axis_angle_unitary(spec) for spec in group])
    for i in range(24):
        # phase distance 1 - |Tr(P^dag M)| / 2 of every product P = M_i M_j
        # to every element M, nearest element per j
        overlap = abs(np.einsum("jab,kab->jk", (mats[i] @ mats).conj(), mats))
        d = 1.0 - overlap.max(axis=1) / 2.0
        j = int(np.argmax(~(d < 1e-9)))  # the first bad j, else 0
        _check(d[j] < 1e-9, f"closure fails at ({i}, {j})")
    for i, inv in enumerate(qcore.clifford_tables()[1]):
        d = qcore.phase_distance(mats[i] @ mats[inv], qcore.I2)
        _check(d < 1e-10, f"inverse fails at {i}")


def _suite_synthesis(seed):
    for name in qcore.GATE_NAMES:
        spec = qcore.named_gate(name)
        prop = evolution.schedule_propagator(pulse.synthesize(spec, 10.0))
        d = qcore.phase_distance(prop, qcore.axis_angle_unitary(spec))
        _check(d < 1e-10, f"{name}: distance {d}")


def _suite_integrator(seed):
    rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        spec = _random_spec(rng)
        sched = pulse.synthesize(spec, 10.0)
        u = evolution.schedule_propagator(sched)
        psi0, _ = qcore.axis_eigenstates(spec)
        traj = evolution.evolve_unitary(sched, psi0, dt=0.01)
        err = np.linalg.norm(traj.states[-1] - u @ psi0)
        _check(err < 1e-8, f"integrator error {err}")
        report = evolution.phase_decomposition(traj)
        _check(abs(report.dynamical) < 1e-6, "dynamical phase")
        geo_err = abs(evolution.wrap_angle(report.geometric + spec.gamma / 2.0))
        _check(geo_err < 1e-6, "geometric phase")


def _suite_lindblad(seed):
    device = evolution.DeviceParams.default_xmon()
    idle = [pulse.PulseSegment(duration=50.0, peak_amplitude=0.0,
                               phase_offset=0.0)]
    _, rhos = evolution.evolve_lindblad(idle, qcore.density_of(qcore.KET1),
                                        device, dt=0.05)
    want = math.exp(-50.0 / (device.T1_us * 1000.0))
    got = rhos[-1][1, 1].real
    _check(abs(got - want) < 1e-9, "T1 decay")
    traces = np.einsum("tii->t", rhos).real
    _check(np.abs(traces - 1.0).max() < 1e-9, "trace conservation")


def _suite_qpt(seed):
    for name in ("H", "Rx(pi/2)"):
        res = tomography.run_qpt(name)
        _check(abs(res.fidelity - 1.0) < 1e-6, f"{name}: F={res.fidelity}")


def _suite_rb(seed):
    cfg = config.RbConfig(sequence_lengths=(1, 2, 4, 8), randomizations=3,
                          seed=seed)
    _, fit = benchmarking.run_rb(cfg, (), None)[0]
    _check(1.0 - fit.p < 1e-6, "noiseless RB decay")
    lam = 0.05
    _, fit = benchmarking.run_rb(cfg, (), channels.DepolarizingNoise(lam))[0]
    _check(abs(fit.p - (1.0 - lam)) < 1e-4, "depolarizing equivalence")


def _suite_fitter(seed):
    m = tuple(range(1, 51))
    vals = 0.5 * np.power(0.99, m) + 0.5
    curve = benchmarking.DecayCurve(lengths=m, means=vals,
                                    stderrs=np.zeros(len(m)),
                                    samples=[np.array([v]) for v in vals])
    fit = benchmarking.fit_decay(curve)
    _check(abs(fit.p - 0.99) < 1e-6, "fitter recovery")


def _suite_readout(seed):
    readout = channels.confusion(evolution.DeviceParams.default_xmon())
    p = np.array([0.3, 0.7])
    round_trip = p @ readout @ np.linalg.inv(readout)
    _check(np.abs(round_trip - p).max() < 1e-12, "correction unbiased")


SUITES = (
    ("pauli-algebra", _suite_pauli),
    ("axis-angle-round-trip", _suite_axis_angle),
    ("clifford-group", _suite_clifford),
    ("gate-synthesis", _suite_synthesis),
    ("unitary-integrator", _suite_integrator),
    ("lindblad", _suite_lindblad),
    ("qpt-noiseless", _suite_qpt),
    ("rb-noiseless-depolarizing", _suite_rb),
    ("decay-fitter", _suite_fitter),
    ("readout-correction", _suite_readout),
)


def run_selftest(seed: int = 0) -> tuple[str, int]:
    """Run every suite; return the report, one line per suite and a summary
    line, and the number of suites that failed."""
    lines, failures = [], 0
    for name, fn in SUITES:
        try:
            fn(seed)
        except Exception as err:  # a suite that raises fails, the rest still run
            failures += 1
            what = (err if isinstance(err, AssertionError)
                    else f"{type(err).__name__}: {err}")
            lines.append(f"FAIL {name}: {what}")
        else:
            lines.append(f"PASS {name}")
    lines.append(
        f"{len(SUITES) - failures}/{len(SUITES)} suites passed (seed={seed})")
    return "\n".join(lines) + "\n", failures
