"""Gate-level quantum channels as 4x4 superoperators.

Row-major vectorization: vec(rho) = rho.reshape(4), so vec(A rho B) =
(A kron B^T) vec(rho). A gate schedule under a fixed noise model is a linear
map on rho; compiling it once to a superoperator makes sequence execution a
chain of 4x4 products, exactly equivalent to concatenated master-equation
integration because the dynamics are time-local and linear. ``confusion``
and ``sample_outcomes`` are a noise model's readout, shared by QPT and RB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalChannel
from .evolution import (I4, DeviceParams, _lindblad_segments, rk4_steps,
                        schedule_propagator)
from .pulse import synthesize
from .qcore import GateSpec


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


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag."""
    return np.kron(u, u.conj())


def depolarizing_superop(strength: float) -> np.ndarray:
    trace_row = vec(np.eye(2))
    half_id = np.array([0.5, 0.0, 0.0, 0.5], dtype=complex)
    return (1.0 - strength) * I4 + strength * np.outer(half_id, trace_row)


def gate_superops(specs, noise=None, segment_duration: float = 10.0,
                  dt: float = 0.01) -> np.ndarray:
    """Channels of several compiled gates under one noise model, (G, 4, 4).

    ``noise`` is None (the exact unitary channels), DepolarizingNoise (ideal
    unitary followed by depolarizing) or DeviceParams: RK4 on dS/dt = L(t) S
    for all G schedules at once, by the kernel of ``evolve_lindblad`` on one
    rate grid per stacked segment, so bit-equal to G separate integrations.
    Rows step as they would alone, so each distinct first segment steps once.
    """
    seg_lists = [synthesize(spec, segment_duration).segments for spec in specs]
    if isinstance(noise, DeviceParams):
        # repr, unlike ==, tells a -0.0 from a 0.0 in a segment
        heads = {repr(segs[0]): segs[:1] for segs in seg_lists}
        index = [list(heads).index(repr(segs[0])) for segs in seg_lists]
        s = np.repeat(I4[None], len(heads), axis=0)
        # keep only the last step, so no per-step stack stays alive
        for s in rk4_steps(s, _lindblad_segments(
                list(heads.values()), noise, dt)):
            pass
        for s in rk4_steps(s[index], _lindblad_segments(
                [segs[1:] for segs in seg_lists], noise, dt)):
            pass
        return s
    if noise is not None and not isinstance(noise, DepolarizingNoise):
        raise TypeError(f"unsupported noise model {noise!r}")
    sops = np.array([unitary_superop(schedule_propagator(segs))
                     for segs in seg_lists], dtype=complex).reshape(-1, 4, 4)
    if noise is None:
        return sops
    return depolarizing_superop(noise.strength) @ sops


def gate_superop(spec: GateSpec, noise=None, segment_duration: float = 10.0,
                 dt: float = 0.01) -> np.ndarray:
    """Channel of one compiled gate under a noise model (see gate_superops)."""
    return gate_superops([spec], noise, segment_duration, dt)[0]


def confusion(noise) -> np.ndarray:
    """Readout confusion matrix of a noise model: ``[j, k]`` is P(measured k
    | true j), with diagonal (readout_f0, readout_f1) for a device and the
    identity (perfect readout) for any other model."""
    if isinstance(noise, DeviceParams):
        return np.array([[noise.readout_f0, 1.0 - noise.readout_f0],
                         [1.0 - noise.readout_f1, noise.readout_f1]])
    return np.eye(2)


def sample_outcomes(p_true: np.ndarray, shots: int, rng, readout,
                    unmix) -> np.ndarray:
    """Estimated (P(0), P(1)), from ``shots`` shots each, of every row of a
    ``(..., 2)`` stack of a binary measurement's outcome probabilities.

    The confusion matrix ``readout`` is applied before one binomial draw
    per row, in row order, from ``rng``; ``unmix``, the caller's
    ``np.linalg.inv(readout)``, removes it afterwards (which may leave
    [0, 1] under sampling noise); ``unmix=None`` keeps the raw estimate.
    """
    n0 = rng.binomial(shots, np.clip((p_true @ readout)[..., 0], 0.0, 1.0))
    # int / int rounds once, where float64 would round n0 past 2**53 first
    frac = np.asarray(np.asarray(n0, dtype=object) / shots, dtype=float)
    est = np.stack([frac, 1.0 - frac], axis=-1)
    return est if unmix is None else est @ unmix


PHYSICAL_TOL = 1e-10


def check_physical(sops: np.ndarray, specs) -> None:
    """Raise NonPhysicalChannel unless every superop of the (G, 4, 4) stack
    is finite, trace preserving and completely positive, each to
    ``PHYSICAL_TOL`` (CP by the LDL^H pivots of each Choi matrix J + tol I,
    by eigenvalues only if one fails); ``specs`` name the gates in errors."""
    def fail(bad, what):
        spec = specs[int(np.flatnonzero(bad)[0])]
        raise NonPhysicalChannel(
            f"compiled channel of gate ({spec.theta:.6f}, {spec.phi:.6f}, "
            f"{spec.gamma:.6f}) is {what}; dt_ns may be too coarse "
            "for the device rates")

    finite = np.isfinite(sops).all(axis=(1, 2))
    if not finite.all():
        fail(~finite, "not finite")
    # Tr(S rho) = Tr(rho): rows 0 and 3 of S sum to vec(I)
    trace_row = sops[:, 0, :] + sops[:, 3, :] - vec(np.eye(2))
    tp_defect = np.abs(trace_row).max(axis=1)
    if (tp_defect > PHYSICAL_TOL).any():
        fail(tp_defect > PHYSICAL_TOL,
             f"not trace preserving (defect {tp_defect.max():.1e})")
    # Choi matrix J[(i,k),(j,l)] = S[(i,j),(k,l)]; CP iff J >= 0
    choi = (sops.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
            .reshape(-1, 4, 4))
    choi = 0.5 * (choi + choi.conj().swapaxes(1, 2))
    # J >= -tol iff J + tol I has positive LDL^H pivots; if not, eigenvalues
    j = choi + PHYSICAL_TOL * I4
    while j.shape[1] and (j[:, 0, 0].real > 0).all():
        j = j[:, 1:, 1:] - j[:, 1:, :1] * j[:, :1, 1:] / j[:, :1, :1].real
    if j.shape[1]:
        choi_min = np.linalg.eigvalsh(choi)[:, 0]
        if (choi_min < -PHYSICAL_TOL).any():
            fail(choi_min < -PHYSICAL_TOL, "not completely positive "
                 f"(Choi eigenvalue {choi_min.min():.1e})")


class GateChannelCache:
    """Memoized gate -> superoperator compilation under any noise model.

    Channels are memoized by the noise model and the ``GateSpec`` itself, so
    a spec always gets the channel of its own pulse under that model,
    whatever the cache compiled before it; equal models share entries.
    """

    def __init__(self, segment_duration: float = 10.0, dt: float = 0.01):
        self.segment_duration = segment_duration
        self.dt = dt
        self._by_noise: dict[object, dict[GateSpec, np.ndarray]] = {}

    def stack(self, specs, noise) -> np.ndarray:
        """The (len(specs), 4, 4) channels of ``specs`` under ``noise``, in
        order; the specs not yet cached compile first, as one stack."""
        by_spec = self._by_noise.setdefault(noise, {})
        specs = list(specs)
        missing = list(dict.fromkeys(spec for spec in specs
                                     if spec not in by_spec))
        if missing:
            # a stiff device overflows the compile; check_physical says so
            # once instead of numpy warning at every step
            with np.errstate(over="ignore", invalid="ignore"):
                sops = gate_superops(missing, noise, self.segment_duration,
                                     self.dt)
            check_physical(sops, missing)
            by_spec.update(zip(missing, sops))
        return np.array([by_spec[spec] for spec in specs],
                        dtype=complex).reshape(-1, 4, 4)
