"""Schedule propagation and trajectory analysis.

Within one segment the rotating-frame Hamiltonian
H(t) = Omega(t) (cos(phi') sx + sin(phi') sy) commutes with itself at all
times, so the exact segment propagator depends only on the pulse area.
Numerical propagation uses fixed-step classical RK4, either for the pure
Schrodinger state (a cumulative product of complex step multipliers, see
``evolve_unitary``) or for vec(rho) under a Lindblad master
equation with relaxation (rate 1/T1) and pure dephasing (rate 1/T2*). The
Lindblad kernel steps a stack of 4-row arrays, so it also compiles channel
superoperators.

Trajectory analysis splits the cyclic total phase into dynamical and
geometric parts and measures the solid angle enclosed by the Bloch path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NotCyclic, PathNotClosed, StepTooLarge
from .pulse import PulseSchedule, PulseSegment, segment_area
from .qcore import I2, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z

I4 = np.eye(4, dtype=complex)
CYCLIC_TOL = 1e-6  # largest 1 - |<psi(0)|psi(tau)>| of a cyclic trajectory
CLOSURE_TOL = 1e-6  # largest endpoint gap of a closed Bloch path


@dataclass(frozen=True)
class DeviceParams:
    """Qubit decoherence and readout parameters.

    T1 and T2* are in microseconds (T2* is the pure dephasing time, used
    directly as Gamma_phi = 1/T2*); f10 is carried as metadata only, all
    dynamics live in the rotating frame.
    """

    T1_us: float
    T2_star_us: float
    f10_GHz: float = 5.266
    readout_f0: float = 0.980
    readout_f1: float = 0.936

    def __post_init__(self):
        if not self.T1_us > 0:
            raise ValueError("T1 must be positive")
        if not self.T2_star_us > 0:
            raise ValueError("T2* must be positive")
        for name, f in (("readout_f0", self.readout_f0),
                        ("readout_f1", self.readout_f1)):
            if not 0.5 < f <= 1.0:
                raise ValueError(f"{name}={f} outside (0.5, 1]")

    @property
    def gamma1_per_ns(self) -> float:
        return 1.0 / (self.T1_us * 1000.0)

    @property
    def gamma_phi_per_ns(self) -> float:
        return 1.0 / (self.T2_star_us * 1000.0)

    @classmethod
    def default_xmon(cls) -> "DeviceParams":
        """Reference Xmon-style device values used throughout the tests."""
        return cls(T1_us=19.0, T2_star_us=10.0, f10_GHz=5.266,
                   readout_f0=0.980, readout_f1=0.936)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-sampled evolution with the instantaneous Hamiltonian.

    ``states`` has shape (N, 2) for pure states or (N, 2, 2) for density
    matrices; ``hamiltonians`` has shape (N, 2, 2).
    """

    times: np.ndarray
    states: np.ndarray
    hamiltonians: np.ndarray

    @property
    def is_pure(self) -> bool:
        return self.states.ndim == 2


@dataclass(frozen=True)
class PhaseReport:
    """Cyclic-phase split: total = dynamical + geometric (mod 2 pi)."""

    total: float
    dynamical: float
    geometric: float
    cyclicity_defect: float


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _drive_matrix(segment: PulseSegment) -> np.ndarray:
    """Constant matrix K with H(t) = Omega(t) K inside the segment."""
    return (math.cos(segment.phase_offset) * SIGMA_X
            + math.sin(segment.phase_offset) * SIGMA_Y)


def segment_propagator_exact(segment: PulseSegment) -> np.ndarray:
    """cos(a) I - i sin(a) (cos(phi') sx + sin(phi') sy), a = pulse area."""
    a = segment_area(segment)
    return math.cos(a) * I2 - 1j * math.sin(a) * _drive_matrix(segment)


def _segments_of(schedule) -> tuple[PulseSegment, ...]:
    if isinstance(schedule, PulseSchedule):
        return schedule.segments
    return tuple(schedule)


def schedule_propagator(schedule) -> np.ndarray:
    """Ordered product U_3 U_2 U_1 of the exact segment propagators."""
    u = I2
    for seg in _segments_of(schedule):
        u = segment_propagator_exact(seg) @ u
    return u


# ---------------------------------------------------------------------------
# fixed-step RK4 propagation

def _segment_steps(segment: PulseSegment, dt: float, min_steps: int) -> int:
    if dt <= 0:
        raise StepTooLarge(f"dt must be positive, got {dt}")
    if dt > segment.duration / min_steps:
        raise StepTooLarge(
            f"dt={dt} exceeds duration/{min_steps}={segment.duration / min_steps}"
        )
    return max(min_steps, int(round(segment.duration / dt)))


def _envelope_grid(segment: PulseSegment, n: int, h: float):
    """Rabi rate at the n+1 grid points and the n midpoints of a segment."""
    t_full = np.arange(n + 1) * h
    t_half = (np.arange(n) + 0.5) * h
    if segment.envelope == "square":
        return (np.full(n + 1, segment.peak_amplitude),
                np.full(n, segment.peak_amplitude))
    w_full = segment.peak_amplitude * np.sin(np.pi * t_full / segment.duration) ** 2
    w_full[0] = 0.0
    w_full[-1] = 0.0
    w_half = segment.peak_amplitude * np.sin(np.pi * t_half / segment.duration) ** 2
    return w_full, w_half


def _step_samples(segments, counts):
    """Times and Hamiltonians at t = 0 (H = 0) and after every RK4 step."""
    times = [np.zeros(1)]
    hams = [np.zeros((1, 2, 2), dtype=complex)]
    t_off = 0.0
    for seg, n in zip(segments, counts):
        h = seg.duration / n
        w_full, _ = _envelope_grid(seg, n, h)
        times.append(t_off + np.arange(1, n + 1) * h)
        hams.append(w_full[1:, None, None] * _drive_matrix(seg))
        t_off += seg.duration
    return np.concatenate(times), np.concatenate(hams)


def lindblad_generator(h: np.ndarray, gamma1: float, gamma_phi: float) -> np.ndarray:
    """4x4 generator L with d vec(rho)/dt = L vec(rho) (row-major vec)."""
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


# RK4 steps whose generators are built at once
_CHUNK = 8


def lindblad_rk4_steps(y: np.ndarray, seg_lists, device: DeviceParams | None,
                       dt: float):
    """Fixed-step RK4 on dY/dt = L(t) Y for a stack of schedules.

    ``y`` has shape (G, 4, k); row g follows the segments ``seg_lists[g]``
    under L(t) = w(t) L_drive + L_diss, where L_diss is the device's
    dissipator (zero for ``device=None``). Yields a new stack after every
    step. Segment j must last equally long in every schedule. Every stacked
    operation acts on each row exactly as it would on that row alone.

    The generators of ``_CHUNK`` steps are built at once, step-major, and a
    step's end-point generator is the next step's start-point one. The
    stages run in preallocated buffers, with the same ufuncs on the same
    operands in the same order as the textbook expression
    ``y + h/6 (k1 + 2 (k2 + k3) + k4)``, so the result is bit-equal to it.
    """
    g1 = device.gamma1_per_ns if device is not None else 0.0
    gphi = device.gamma_phi_per_ns if device is not None else 0.0
    l_diss = lindblad_generator(np.zeros((2, 2)), g1, gphi)
    n_rows = len(seg_lists)
    l_full_buf = np.empty((_CHUNK + 1, n_rows, 4, 4), dtype=complex)
    l_half_buf = np.empty((_CHUNK, n_rows, 4, 4), dtype=complex)
    k1, k2, k3, k4, tmp = np.empty((5,) + np.shape(y), dtype=complex)
    for segs in zip(*seg_lists, strict=True):
        if len({seg.duration for seg in segs}) != 1:
            raise ValueError("stacked schedules need equal segment durations")
        n = _segment_steps(segs[0], dt, 1)
        h = segs[0].duration / n
        hh = 0.5 * h
        h6 = h / 6.0
        w_full = np.empty((n + 1, len(segs), 1, 1))
        w_half = np.empty((n, len(segs), 1, 1))
        for g, seg in enumerate(segs):
            w_full[:, g, 0, 0], w_half[:, g, 0, 0] = _envelope_grid(seg, n, h)
        # lindblad_generator's drive term for the stack of _drive_matrix
        cos = np.array([math.cos(seg.phase_offset) for seg in segs])
        sin = np.array([math.sin(seg.phase_offset) for seg in segs])
        ham = cos[:, None, None] * SIGMA_X + sin[:, None, None] * SIGMA_Y
        l_drive = -1j * (np.kron(ham, np.eye(2))
                         - np.kron(np.eye(2), ham.transpose(0, 2, 1)))
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            l_full = l_full_buf[:m + 1]
            l_half = l_half_buf[:m]
            np.multiply(w_full[start:start + m + 1], l_drive, out=l_full)
            np.add(l_full, l_diss, out=l_full)
            np.multiply(w_half[start:start + m], l_drive, out=l_half)
            np.add(l_half, l_diss, out=l_half)
            for i in range(m):
                np.matmul(l_full[i], y, out=k1)
                np.multiply(hh, k1, out=tmp)
                np.add(y, tmp, out=tmp)
                np.matmul(l_half[i], tmp, out=k2)
                np.multiply(hh, k2, out=tmp)
                np.add(y, tmp, out=tmp)
                np.matmul(l_half[i], tmp, out=k3)
                np.multiply(h, k3, out=tmp)
                np.add(y, tmp, out=tmp)
                np.matmul(l_full[i + 1], tmp, out=k4)
                np.add(k2, k3, out=k2)
                np.multiply(2.0, k2, out=k2)
                np.add(k1, k2, out=k1)
                np.add(k1, k4, out=k1)
                np.multiply(h6, k1, out=k1)
                y = y + k1
                yield y


def evolve_unitary(schedule, psi0: np.ndarray, dt: float = 0.01) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> over the schedule.

    Requires dt <= segment duration / 100; the actual step divides each
    segment exactly. Inside a segment d|psi>/dt = w(t) A |psi> with
    A = -iK, A^2 = -I and A |psi> = -i (e^{-i phi'} c1, e^{+i phi'} c0), so
    every RK4 step map is Re(z) I + Im(z) A, where z is the same RK4 step
    of u' = i w(t) u. The maps commute: after step j the state is
    Re(Z_j) psi_s + Im(Z_j) A psi_s, with Z the cumulative product of the
    multipliers z and psi_s the state at the segment start.
    """
    segments = _segments_of(schedule)
    counts = [_segment_steps(seg, dt, 100) for seg in segments]
    times, hams = _step_samples(segments, counts)
    states = np.empty((len(times), 2), dtype=complex)
    states[0] = np.asarray(psi0, dtype=complex)

    pos = 0
    for seg, n in zip(segments, counts):
        h = seg.duration / n
        w_full, w_half = _envelope_grid(seg, n, h)
        k1 = 1j * w_full[:-1]
        k2 = 1j * w_half * (1.0 + 0.5 * h * k1)
        k3 = 1j * w_half * (1.0 + 0.5 * h * k2)
        k4 = 1j * w_full[1:] * (1.0 + h * k3)
        d = h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        z = 1.0 + d
        # z - 1 is exact, so d - (z - 1) is the rounding of 1 + d; on a
        # constant envelope it repeats every step, so it is summed back
        zs = np.cumprod(z) * (1.0 + np.cumsum((d - (z - 1.0)) / z))
        em = -1j * complex(math.cos(seg.phase_offset), -math.sin(seg.phase_offset))
        ep = -1j * complex(math.cos(seg.phase_offset), math.sin(seg.phase_offset))
        a, b = states[pos].tolist()
        states[pos + 1:pos + n + 1, 0] = zs.real * a + zs.imag * (em * b)
        states[pos + 1:pos + n + 1, 1] = zs.real * b + zs.imag * (ep * a)
        pos += n
    return Trajectory(times=times, states=states, hamiltonians=hams)


def evolve_lindblad(schedule, rho0: np.ndarray,
                    device: DeviceParams | None = None,
                    dt: float = 0.01) -> Trajectory:
    """Integrate the master equation over the schedule.

    d rho/dt = -i[H, rho] + G1 D[s-] rho + (Gphi/2) D[sz] rho with
    G1 = 1/T1, Gphi = 1/T2*. ``device=None`` turns dissipation off.
    vec(rho) runs through ``lindblad_rk4_steps`` as a (1, 4, 1) stack.
    """
    segments = _segments_of(schedule)
    times, hams = _step_samples(segments,
                                [_segment_steps(seg, dt, 1) for seg in segments])
    y0 = np.asarray(rho0, dtype=complex).reshape(1, 4, 1)
    states = np.array([y0, *lindblad_rk4_steps(y0, [segments], device, dt)])
    return Trajectory(times=times, states=states.reshape(-1, 2, 2),
                      hamiltonians=hams)


# ---------------------------------------------------------------------------
# trajectory analysis

def phase_decomposition(traj: Trajectory) -> PhaseReport:
    """Split the cyclic phase of a pure trajectory.

    total = arg<psi(0)|psi(tau)>, dynamical = -integral <psi|H|psi> dt
    (composite trapezoid over the samples), geometric = total - dynamical
    wrapped to [-pi, pi).
    """
    if not traj.is_pure:
        raise ValueError("phase decomposition requires a pure-state trajectory")
    overlap = np.vdot(traj.states[0], traj.states[-1])
    defect = 1.0 - abs(overlap)
    if defect > CYCLIC_TOL:
        raise NotCyclic(f"cyclicity defect {defect:.3g} exceeds {CYCLIC_TOL}")
    total = float(np.angle(overlap))
    expect = np.einsum("ti,tij,tj->t", traj.states.conj(), traj.hamiltonians,
                       traj.states).real
    dynamical = -float(np.trapezoid(expect, traj.times))
    geometric = wrap_angle(total - dynamical)
    return PhaseReport(total=total, dynamical=dynamical, geometric=geometric,
                       cyclicity_defect=max(defect, 0.0))


def bloch_trajectory(traj: Trajectory) -> np.ndarray:
    """(N, 3) array of Bloch vectors (<sx>, <sy>, <sz>) of a pure trajectory."""
    if not traj.is_pure:
        raise ValueError("bloch trajectory requires a pure-state trajectory")
    c0 = traj.states[:, 0]
    c1 = traj.states[:, 1]
    cross = c0.conj() * c1
    return np.column_stack([2.0 * cross.real,
                            2.0 * cross.imag,
                            (abs(c0) ** 2 - abs(c1) ** 2)])


def enclosed_solid_angle(path: np.ndarray) -> float:
    """Signed solid angle enclosed by a closed path of unit vectors.

    Sums the signed spherical-triangle excesses of the fan anchored at the
    first path point (counterclockwise about the outward normal positive).
    """
    path = np.asarray(path, dtype=float)
    if np.linalg.norm(path[0] - path[-1]) > CLOSURE_TOL:
        raise PathNotClosed("path endpoints differ by more than the tolerance")
    v0 = path[0]
    a = path[:-1]
    b = path[1:]
    num = np.einsum("i,ti->t", v0, np.cross(a, b))
    den = 1.0 + a @ v0 + b @ v0 + np.einsum("ti,ti->t", a, b)
    return float(np.sum(2.0 * np.arctan2(num, den)))


# ---------------------------------------------------------------------------
# CSV export

# rows per write: joining a whole table at once costs 0.6 MB of peak RSS
_CSV_BLOCK = 512


def _write_csv(path, header, columns) -> None:
    # csv.writer spells the Python values of .tolist() with str and quotes
    # neither numbers nor plain labels, so joining them writes the same
    # bytes, faster; for numbers, repr is the same text and a faster call
    rows = map(",".join, zip(*(map(str if col.dtype.kind == "U" else repr,
                                   col.tolist()) for col in columns)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, _CSV_BLOCK)):
            fh.write("\r\n".join(block) + "\r\n")


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Pure: t_ns, re_c0, im_c0, re_c1, im_c1. Density: the 4 real dof."""
    st = traj.states
    if traj.is_pure:
        _write_csv(path, ["t_ns", "re_c0", "im_c0", "re_c1", "im_c1"],
                   (traj.times, st[:, 0].real, st[:, 0].imag,
                    st[:, 1].real, st[:, 1].imag))
    else:
        _write_csv(path, ["t_ns", "rho00", "re_rho01", "im_rho01", "rho11"],
                   (traj.times, st[:, 0, 0].real, st[:, 0, 1].real,
                    st[:, 0, 1].imag, st[:, 1, 1].real))


def bloch_path_to_csv(traj: Trajectory, path) -> None:
    """Columns t_ns, x, y, z of the Bloch path of a pure trajectory."""
    _write_csv(path, ["t_ns", "x", "y", "z"],
               (traj.times, *bloch_trajectory(traj).T))
