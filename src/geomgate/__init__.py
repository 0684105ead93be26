"""Pulse-level simulation and characterization of nonadiabatic geometric
single-qubit gates: three-segment slice-path synthesis, unitary and Lindblad
propagation, geometric-phase analysis, quantum process tomography, and
Clifford randomized benchmarking."""

import sys

__version__ = "0.1.0"

# every submodule and its public names, each imported on first use (PEP 562)
_EXPORTS = {
    "benchmarking": ("DecayCurve", "DecayFit", "fit_decay", "run_rb"),
    "channels": ("DepolarizingNoise", "GateChannelCache"),
    "cli": (), "config": ("RbConfig",), "errors": ("GeomgateError",),
    "evolution": ("DeviceParams", "PhaseReport", "Trajectory",
                  "bloch_trajectory", "enclosed_solid_angle",
                  "evolve_lindblad", "evolve_unitary", "phase_decomposition",
                  "schedule_propagator"),
    "pulse": ("PulseSegment", "synthesize"),
    "qcore": ("GateSpec", "GATE_NAMES", "axis_angle_unitary",
              "clifford_group", "named_gate", "phase_distance",
              "unitary_to_axis_angle"),
    "selftest": (),
    "tomography": ("QptResult", "process_fidelity", "reconstruct_chi",
                   "run_qpt"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # importlib's imports escape -X importtime
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)
