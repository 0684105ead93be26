"""Pulse-level simulation and characterization of nonadiabatic geometric
single-qubit gates: three-segment slice-path synthesis, unitary and Lindblad
propagation, geometric-phase analysis, quantum process tomography, and
Clifford randomized benchmarking."""

from .benchmarking import (DecayCurve, DecayFit, RbConfig, RbResult,
                           fit_decay, run_rb)
from .channels import DepolarizingNoise, GateChannelCache
from .errors import GeomgateError
from .evolution import (DeviceParams, PhaseReport, Trajectory,
                        bloch_trajectory, enclosed_solid_angle,
                        evolve_lindblad, evolve_unitary, phase_decomposition,
                        schedule_propagator)
from .pulse import PulseSchedule, PulseSegment, synthesize
from .qcore import (CliffordElement, GateSpec, GATE_NAMES, axis_angle_unitary,
                    clifford_group, named_gate, phase_distance,
                    unitary_to_axis_angle)
from .tomography import QptResult, process_fidelity, reconstruct_chi, run_qpt

__version__ = "0.1.0"

__all__ = [
    "CliffordElement", "DecayCurve", "DecayFit", "DepolarizingNoise",
    "DeviceParams", "GATE_NAMES", "GateChannelCache", "GateSpec",
    "GeomgateError", "PhaseReport", "PulseSchedule", "PulseSegment",
    "QptResult", "RbConfig", "RbResult", "Trajectory",
    "axis_angle_unitary", "bloch_trajectory", "clifford_group",
    "enclosed_solid_angle", "evolve_lindblad", "evolve_unitary", "fit_decay",
    "named_gate", "phase_decomposition", "phase_distance", "process_fidelity",
    "reconstruct_chi", "run_qpt", "run_rb", "schedule_propagator",
    "synthesize",
]
