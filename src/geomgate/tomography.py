"""Quantum process tomography of a simulated gate channel.

Four informationally complete input states are prepared by compiled gate
pulses, pushed through the gate channel, and read out by state tomography
(exact expectations, or binomially sampled shots with readout confusion and
confusion-matrix-inversion correction). The process matrix chi over the
Pauli basis (I, sx, sy, sz) is recovered by linear inversion from
eps(rho_i) = sum_mn chi_mn E_m rho_i E_n^dag, and compared to the ideal
rank-1 chi via the process fidelity Tr(chi chi_ideal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GateChannelCache, cache_for, unvec, vec
from .errors import SingularSystem, _seed, _shots
from .evolution import DeviceParams, _write_csv
from .qcore import (GateSpec, KET0, PAULIS, PAULI_LABELS, axis_angle_unitary,
                    density_of, named_gate)

# preparation pulses applied to |0>, in order
PREP_GATE_NAMES = ("I", "Rx(pi)", "Rx(pi/2)", "Ry(pi/2)")


@dataclass(frozen=True)
class ReadoutModel:
    """Binary readout confusion built from the 0/1 readout fidelities.

    ``matrix[j, k]`` is P(measured k | true j); rows sum to one and the
    diagonal carries (f0, f1).
    """

    f0: float
    f1: float

    def __post_init__(self):
        for name, f in (("f0", self.f0), ("f1", self.f1)):
            if not 0.5 < f <= 1.0:
                raise ValueError(f"{name}={f} outside (0.5, 1]")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.f0, 1.0 - self.f0],
                         [1.0 - self.f1, self.f1]])

    def apply(self, probs: np.ndarray) -> np.ndarray:
        """True outcome probabilities -> measured probabilities."""
        return np.asarray(probs) @ self.matrix

    def correct(self, measured: np.ndarray) -> np.ndarray:
        """Invert the confusion matrix (may leave [0, 1] under sampling noise)."""
        return np.asarray(measured) @ np.linalg.inv(self.matrix)

    @classmethod
    def from_device(cls, device: DeviceParams) -> "ReadoutModel":
        return cls(f0=device.readout_f0, f1=device.readout_f1)


def readout_model(device, shots: int | None) -> ReadoutModel | None:
    """Readout confusion of a sampled run on a device; None when the run is
    exact or the noise model is not a device."""
    if isinstance(device, DeviceParams) and shots:
        return ReadoutModel.from_device(device)
    return None


def qpt_specs(gates, device: DeviceParams | None) -> list[GateSpec]:
    """Every gate a QPT run compiles: the targets (names or specs), plus the
    preparation gates when the inputs are prepared on a noisy device."""
    specs = [named_gate(g) if isinstance(g, str) else g for g in gates]
    if device is not None:
        specs += [named_gate(n) for n in PREP_GATE_NAMES]
    return specs


def prepare_input_states() -> list[np.ndarray]:
    """The four tomography input states: prep gates applied to |0>."""
    return [axis_angle_unitary(named_gate(n)) @ KET0 for n in PREP_GATE_NAMES]


def sample_outcomes(p_true: np.ndarray, shots: int, rng,
                    readout: ReadoutModel | None,
                    correct: bool = True) -> np.ndarray:
    """Estimated (P(0), P(1)) of one binary measurement from ``shots`` shots.

    Readout confusion is applied before one binomial draw from ``rng`` and,
    when ``correct``, removed afterwards by matrix inversion.
    """
    p_meas = readout.apply(p_true) if readout is not None else p_true
    n0 = rng.binomial(shots, min(max(p_meas[0], 0.0), 1.0))
    est = np.array([n0 / shots, 1.0 - n0 / shots])
    if readout is not None and correct:
        est = readout.correct(est)
    return est


def measure_expectations(rho: np.ndarray, shots: int | None = None,
                         readout: ReadoutModel | None = None,
                         rng=None) -> np.ndarray:
    """(<sx>, <sy>, <sz>) of rho, exactly or from sampled measurements.

    Shot mode simulates basis-rotated binary measurements: for each axis the
    +1-eigenstate outcome maps to readout "0". Confusion is applied before
    binomial sampling and removed afterwards by matrix inversion, so the
    estimate is unbiased in expectation.
    """
    exact = np.array([np.trace(rho @ p).real for p in PAULIS[1:]])
    shots = _shots(shots)
    if shots is None:
        return exact
    rng = np.random.default_rng(rng)
    out = np.empty(3)
    for k, ev in enumerate(exact):
        est = sample_outcomes(np.array([(1.0 + ev) / 2.0, (1.0 - ev) / 2.0]),
                              shots, rng, readout)
        out[k] = est[0] - est[1]
    return out


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


def reconstruct_chi(inputs, outputs) -> np.ndarray:
    """Linear inversion of eps(rho_i) = sum_mn chi_mn E_m rho_i E_n^dag.

    Result is hermitized by averaging with its conjugate transpose. Raises
    SingularSystem when the inputs do not span the operator space.
    """
    inputs = list(inputs)
    outputs = list(outputs)
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must pair up")
    rows = []
    rhs = []
    for rho_in, rho_out in zip(inputs, outputs):
        basis_action = np.empty((4, 4, 2, 2), dtype=complex)
        for m in range(4):
            for n in range(4):
                basis_action[m, n] = PAULIS[m] @ rho_in @ PAULIS[n].conj().T
        for a in range(2):
            for b in range(2):
                rows.append(basis_action[:, :, a, b].reshape(16))
                rhs.append(rho_out[a, b])
    a_mat = np.array(rows)
    b_vec = np.array(rhs)
    if np.linalg.matrix_rank(a_mat, tol=1e-9) < 16:
        raise SingularSystem("tomography inputs are not informationally complete")
    chi = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0].reshape(4, 4)
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

    With a device, preparation pulses are compiled schedules and incur the
    same Lindblad noise as the gate itself; expectation readout is exact
    unless ``shots`` is given, in which case readout confusion from the
    device is applied and corrected. The fidelity is computed from the raw
    hermitized linear-inversion chi. Gates compile with the default T and
    dt unless ``channels``, a cache for the same ``device``, says otherwise.
    """
    seed = _seed(seed)
    shots = _shots(shots)
    spec, *prep_specs = qpt_specs([gate], device)
    channels = cache_for(device, channels)
    channels.prefetch([spec, *prep_specs])
    gate_sop = channels.for_spec(spec)

    ideal_inputs = [density_of(psi) for psi in prepare_input_states()]
    if device is not None:
        rho0 = vec(density_of(KET0))
        actual_inputs = [unvec(channels.for_spec(p) @ rho0)
                         for p in prep_specs]
    else:
        actual_inputs = ideal_inputs

    readout = readout_model(device, shots)
    rng = np.random.default_rng(seed)

    outputs = []
    projected = 0
    for rho_in in actual_inputs:
        rho_out = unvec(gate_sop @ vec(rho_in))
        expect = measure_expectations(rho_out, shots=shots, readout=readout, rng=rng)
        rho_rec, flag = reconstruct_state(expect)
        projected += int(flag)
        outputs.append(rho_rec)

    chi = reconstruct_chi(ideal_inputs, outputs)
    chi_id = ideal_chi(spec)
    return QptResult(gate=spec, chi=chi, chi_ideal=chi_id,
                     fidelity=process_fidelity(chi, chi_id),
                     projected_count=projected,
                     shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# reports

def qpt_report(result: QptResult, gate_name: str | None = None) -> dict:
    spec = result.gate
    return {
        "gate": gate_name or f"({spec.theta}, {spec.phi}, {spec.gamma})",
        "theta": spec.theta,
        "phi": spec.phi,
        "gamma": spec.gamma,
        "mode": "exact" if result.shots is None else f"shots:{result.shots}",
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
    labels = np.array(PAULI_LABELS)
    _write_csv(path, ["row", "col", "re", "im"],
               (np.repeat(labels, 4), np.tile(labels, 4), chi.real.ravel(),
                chi.imag.ravel()))
