"""Quantum process tomography of a simulated gate channel.

Four informationally complete input states, |0>, |1>, |-i> and |+>, are
prepared by compiled gate pulses, pushed through the gate channel, and read
out as one stack by state tomography (exact expectations, or binomially
sampled shots through ``channels.confusion``, inverted once per gate). The
process matrix chi over the Pauli basis (I, sx, sy, sz) of
eps(rho) = sum_mn chi_mn E_m rho E_n^dag follows from the four outputs in
closed form (Nielsen & Chuang, Box 8.5), and is compared to the ideal
rank-1 chi via the process fidelity Tr(chi chi_ideal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GateChannelCache, confusion, sample_outcomes
from .errors import _seed, _shots, mode_string
from .evolution import DeviceParams, _write_csv
from .qcore import (GateSpec, I2, PAULIS, PAULI_LABELS, SIGMA_X,
                    axis_angle_unitary, named_gate)

# preparation pulses applied to |0>, in order: |0>, |1>, |-i>, |+>
PREP_GATE_NAMES = ("I", "Rx(pi)", "Rx(pi/2)", "Ry(pi/2)")
# D Lambda of Box 8.5; D maps the basis (I, X, -iY, Z) to (I, X, Y, Z)
_BOX = np.diag([1.0, 1.0, -1.0j, 1.0]) @ np.block([[I2, SIGMA_X],
                                                  [SIGMA_X, -I2]]) / 2.0


def qpt_specs(gates) -> list[GateSpec]:
    """Every gate a QPT run compiles: the targets (names or specs), then the
    preparation gates."""
    return ([named_gate(g) if isinstance(g, str) else g for g in gates]
            + [named_gate(n) for n in PREP_GATE_NAMES])


def measure_expectations(rho: np.ndarray, shots: int | None, readout,
                         rng=None) -> np.ndarray:
    """(<sx>, <sy>, <sz>) of each state of a ``(..., 2, 2)`` stack, exactly
    or from sampled measurements.

    Shot mode simulates basis-rotated binary measurements: for each axis the
    +1-eigenstate outcome maps to readout "0". Every state and axis is
    sampled by one ``sample_outcomes`` call, in (state, axis) order, through
    the confusion matrix ``readout`` (``confusion(None)`` is perfect
    readout), and corrected by its one inverse, so the estimate is unbiased
    in expectation.
    """
    exact = np.trace(np.asarray(rho)[..., None, :, :] @ PAULIS[1:],
                     axis1=-2, axis2=-1).real
    shots = _shots(shots)
    if shots is None:
        return exact
    est = sample_outcomes(np.stack([1.0 + exact, 1.0 - exact], -1) / 2.0,
                          shots, np.random.default_rng(rng), readout,
                          np.linalg.inv(readout))
    return est[..., 0] - est[..., 1]


def reconstruct_state(expectations) -> tuple[np.ndarray, bool]:
    """rho = (I + r.sigma)/2; overlong Bloch vectors are rescaled and flagged."""
    r = np.asarray(expectations, dtype=float)
    norm = float(np.linalg.norm(r))
    projected = norm > 1.0
    if projected:
        r = r / norm
    rho = 0.5 * (PAULIS[0] + r[0] * PAULIS[1] + r[1] * PAULIS[2]
                 + r[2] * PAULIS[3])
    return rho, projected


def reconstruct_chi(outputs) -> np.ndarray:
    """chi, in closed form, of the channel that maps the four inputs
    |0>, |1>, |-i>, |+> (``PREP_GATE_NAMES`` on |0>) to ``outputs``: with
    s = r0 + r1, p = 2 r+ - s and q = 2 r-i - s, eps(|0><1|) = (p - iq)/2,
    eps(|1><0|) = (p + iq)/2 and chi = D Lambda [[r0, eps01], [eps10, r1]]
    Lambda D^dag, hermitized by averaging with its conjugate transpose."""
    r0, r1, rm, rp = np.asarray(outputs, dtype=complex)
    s = r0 + r1
    p, q = 2.0 * rp - s, 2.0 * rm - s
    chi = _BOX @ np.block([[r0, (p - 1j * q) / 2.0],
                           [(p + 1j * q) / 2.0, r1]]) @ _BOX.conj().T
    return 0.5 * (chi + chi.conj().T)


def pauli_coefficients(u: np.ndarray) -> np.ndarray:
    """Expansion coefficients c_m with U = sum_m c_m E_m."""
    return np.array([np.trace(p.conj().T @ u) / 2.0 for p in PAULIS])


def ideal_chi(gate: GateSpec) -> np.ndarray:
    """Rank-1 process matrix c c^dag of the target unitary."""
    c = pauli_coefficients(axis_angle_unitary(gate))
    return np.outer(c, c.conj())


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr(chi chi_ideal)."""
    return float(np.trace(chi @ chi_ideal).real)


@dataclass
class QptResult:
    gate: GateSpec
    chi: np.ndarray
    chi_ideal: np.ndarray
    fidelity: float
    projected_count: int = 0
    shots: int | None = None
    seed: int | None = None


def run_qpt(gate, device: DeviceParams | None = None, shots: int | None = None,
            seed: int = 0, channels: GateChannelCache | None = None
            ) -> QptResult:
    """Full tomography pipeline for one gate.

    Preparation pulses compile like the gate, so on a device they incur its
    Lindblad noise. Readout is exact unless ``shots`` is given: then one
    ``measure_expectations`` call samples the four outputs through
    ``confusion(device)`` and corrects them with its one inverse. The draws
    come from a stream keyed by ``seed`` and the gate's angles, so a gate's
    result does not depend on the other gates of a run or on their order.
    The fidelity is that of the raw hermitized linear-inversion chi. Gates
    compile under ``device`` with the default T and dt unless ``channels``,
    a cache that may hold channels of any noise model, says otherwise.
    """
    seed = _seed(seed)
    shots = _shots(shots)
    spec, *prep_specs = qpt_specs([gate])
    channels = channels or GateChannelCache()
    sops = channels.stack([spec, *prep_specs], device)
    # a fixed-length key of the seed and the angles' bits; + 0.0 folds -0.0
    angles = np.array([spec.theta, spec.phi, spec.gamma]) + 0.0
    rng = (None if shots is None else np.random.default_rng(
        [seed, *angles.view(np.uint64).tolist()]))
    # S vec(|0><0|) is S's first column; (4, 1) operands keep matvec rounding
    rho_out = (sops[0] @ sops[1:, :, :1]).reshape(-1, 2, 2)
    expect = measure_expectations(rho_out, shots=shots,
                                  readout=confusion(device), rng=rng)
    outputs, flags = zip(*map(reconstruct_state, expect))

    chi = reconstruct_chi(outputs)
    chi_id = ideal_chi(spec)
    return QptResult(gate=spec, chi=chi, chi_ideal=chi_id,
                     fidelity=process_fidelity(chi, chi_id),
                     projected_count=sum(flags),
                     shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# reports

def qpt_report(result: QptResult, gate_name: str) -> dict:
    spec = result.gate
    return {
        "gate": gate_name,
        "theta": spec.theta,
        "phi": spec.phi,
        "gamma": spec.gamma,
        "mode": mode_string(result.shots),
        "shots": result.shots,
        "seed": result.seed,
        "chi_real": result.chi.real.tolist(),
        "chi_imag": result.chi.imag.tolist(),
        "chi_ideal_real": result.chi_ideal.real.tolist(),
        "chi_ideal_imag": result.chi_ideal.imag.tolist(),
        "fidelity": result.fidelity,
        "projected_reconstructions": result.projected_count,
    }


def chi_to_csv(chi: np.ndarray, path) -> None:
    """Bar-chart-ready rows: row label, col label, re, im."""
    _write_csv(path, ["row", "col", "re", "im"],
               ([r for r in PAULI_LABELS for _ in PAULI_LABELS],
                list(PAULI_LABELS) * 4, chi.real.ravel(), chi.imag.ravel()))
