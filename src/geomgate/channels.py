"""Gate-level quantum channels as 4x4 superoperators.

Row-major vectorization: vec(rho) = rho.reshape(4), so vec(A rho B) =
(A kron B^T) vec(rho). A gate schedule under a fixed noise model is a linear
map on rho; compiling it once to a superoperator makes sequence execution a
chain of 4x4 products, exactly equivalent to concatenated master-equation
integration because the dynamics are time-local and linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (DeviceParams, _drive_matrix, _envelope_grid,
                        _segment_steps, _segments_of, schedule_propagator)
from .pulse import synthesize
from .qcore import (GateSpec, SIGMA_MINUS, SIGMA_Z, clifford_group,
                    unitary_to_axis_angle)

I4 = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class DepolarizingNoise:
    """Synthetic per-gate depolarizing channel of fixed strength.

    Applied after the ideal gate unitary: rho -> (1 - s) rho + s I/2.
    """

    strength: float

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("depolarizing strength must be in [0, 1]")


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(4)


def unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(2, 2)


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag."""
    return np.kron(u, u.conj())


def depolarizing_superop(strength: float) -> np.ndarray:
    trace_row = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    half_id = np.array([0.5, 0.0, 0.0, 0.5], dtype=complex)
    return (1.0 - strength) * I4 + strength * np.outer(half_id, trace_row)


def lindblad_generator(h: np.ndarray, gamma1: float, gamma_phi: float) -> np.ndarray:
    """4x4 generator L with d vec(rho)/dt = L vec(rho)."""
    sm = SIGMA_MINUS
    pe = sm.conj().T @ sm
    gen = -1j * (np.kron(h, np.eye(2)) - np.kron(np.eye(2), h.T))
    if gamma1:
        gen = gen + gamma1 * (np.kron(sm, sm.conj())
                              - 0.5 * (np.kron(pe, np.eye(2))
                                       + np.kron(np.eye(2), pe.T)))
    if gamma_phi:
        gen = gen + 0.5 * gamma_phi * (np.kron(SIGMA_Z, SIGMA_Z.conj()) - I4)
    return gen


def _rk4_segment(s: np.ndarray, segs, l_diss: np.ndarray,
                 dt: float) -> np.ndarray:
    """Advance the stacked superoperators s (G, 4, 4) across one segment each."""
    if len({seg.duration for seg in segs}) != 1:
        raise ValueError("stacked schedules need equal segment durations")
    n = _segment_steps(segs[0], dt, 1)
    h = segs[0].duration / n
    w_full = np.empty((len(segs), n + 1, 1, 1))
    w_half = np.empty((len(segs), n, 1, 1))
    for g, seg in enumerate(segs):
        w_full[g, :, 0, 0], w_half[g, :, 0, 0] = _envelope_grid(seg, n, h)
    # L(t) = w(t) * L_drive + L_diss
    l_drive = np.array([lindblad_generator(_drive_matrix(seg), 0.0, 0.0)
                        for seg in segs])
    for i in range(n):
        l0 = w_full[:, i] * l_drive + l_diss
        lh = w_half[:, i] * l_drive + l_diss
        l1 = w_full[:, i + 1] * l_drive + l_diss
        k1 = l0 @ s
        k2 = lh @ (s + 0.5 * h * k1)
        k3 = lh @ (s + 0.5 * h * k2)
        k4 = l1 @ (s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return s


def schedule_superops(schedules, device: DeviceParams | None = None,
                      dt: float = 0.01) -> np.ndarray:
    """Superoperators of a stack of schedules, shape (G, 4, 4).

    RK4 on dS/dt = L(t) S with the same stepping as the trajectory
    integrators, run on all G schedules at once. Every stacked operation
    acts on each schedule exactly as it would on that schedule alone, so the
    result is bit-equal to G separate integrations. Segment k must last
    equally long in every schedule. With no device this reduces to the exact
    unitary channels.
    """
    seg_lists = [_segments_of(schedule) for schedule in schedules]
    if device is None:
        return np.array([unitary_superop(schedule_propagator(segs))
                         for segs in seg_lists])
    l_diss = lindblad_generator(np.zeros((2, 2)), device.gamma1_per_ns,
                                device.gamma_phi_per_ns)
    s = np.repeat(I4[None], len(seg_lists), axis=0)
    for segs in zip(*seg_lists, strict=True):
        s = _rk4_segment(s, segs, l_diss, dt)
    return s


def schedule_superop(schedule, device: DeviceParams | None = None,
                     dt: float = 0.01) -> np.ndarray:
    """Superoperator of the full schedule under the device noise model."""
    return schedule_superops([schedule], device, dt)[0]


def gate_superops(specs, noise=None, segment_duration: float = 10.0,
                  dt: float = 0.01) -> np.ndarray:
    """Channels of several compiled gates under one noise model, (G, 4, 4).

    ``noise`` is None (ideal), DeviceParams (Lindblad over the schedules,
    integrated as one stack), or DepolarizingNoise (ideal unitary followed
    by depolarizing).
    """
    schedules = [synthesize(spec, segment_duration) for spec in specs]
    if isinstance(noise, DeviceParams):
        return schedule_superops(schedules, noise, dt)
    if noise is not None and not isinstance(noise, DepolarizingNoise):
        raise TypeError(f"unsupported noise model {noise!r}")
    ideal = schedule_superops(schedules, None)
    if noise is None:
        return ideal
    return depolarizing_superop(noise.strength) @ ideal


def gate_superop(spec: GateSpec, noise=None, segment_duration: float = 10.0,
                 dt: float = 0.01) -> np.ndarray:
    """Channel of one compiled gate under a noise model (see gate_superops)."""
    return gate_superops([spec], noise, segment_duration, dt)[0]


class GateChannelCache:
    """Memoized gate -> superoperator compilation for a fixed noise model.

    Channels are keyed by the rounded spec angles; the first spec compiled
    under a key supplies the channel for every later spec with that key.
    """

    def __init__(self, noise=None, segment_duration: float = 10.0,
                 dt: float = 0.01):
        self.noise = noise
        self.segment_duration = segment_duration
        self.dt = dt
        self._by_key: dict[tuple, np.ndarray] = {}

    @staticmethod
    def _key(spec: GateSpec) -> tuple:
        return (round(spec.theta, 12), round(spec.phi, 12), round(spec.gamma, 12))

    def prefetch(self, specs) -> None:
        """Compile every spec not yet cached, in order, as one stack."""
        missing: dict[tuple, GateSpec] = {}
        for spec in specs:
            key = self._key(spec)
            if key not in self._by_key:
                missing.setdefault(key, spec)
        if missing:
            sops = gate_superops(list(missing.values()), self.noise,
                                 self.segment_duration, self.dt)
            self._by_key.update(zip(missing, sops))

    def for_spec(self, spec: GateSpec) -> np.ndarray:
        self.prefetch([spec])
        return self._by_key[self._key(spec)]

    def for_unitary(self, u: np.ndarray) -> np.ndarray:
        return self.for_spec(unitary_to_axis_angle(u))

    def clifford_table(self, indices=range(24)) -> np.ndarray:
        """(24, 4, 4) channels of the Clifford group in canonical order.

        Only the elements in ``indices`` are compiled (as one stack) and
        filled in; the other rows are zero.
        """
        group = clifford_group()
        specs = [group[k].spec for k in indices]
        self.prefetch(specs)
        table = np.zeros((24, 4, 4), dtype=complex)
        for k, spec in zip(indices, specs):
            table[k] = self.for_spec(spec)
        return table
