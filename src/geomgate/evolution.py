"""Schedule propagation and trajectory analysis.

Within one segment the rotating-frame Hamiltonian
H(t) = Omega(t) (cos(phi') sx + sin(phi') sy) commutes with itself at all
times, so the exact segment propagator depends only on the pulse area.
Numerical propagation uses fixed-step classical RK4, either for the pure
Schrodinger state (a cumulative product of complex step multipliers, see
``evolve_unitary``) or for vec(rho) under a Lindblad master
equation with relaxation (rate 1/T1) and pure dephasing (rate 1/T2*). The
RK4 kernel steps a stack of arrays under generator arrays it is given, so
it also compiles channel superoperators.

Trajectory analysis splits the cyclic total phase into dynamical and
geometric parts and measures the solid angle enclosed by the Bloch path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCyclic, PathNotClosed, StepTooLarge
from .pulse import PulseSegment, segment_area
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
        return cls(T1_us=19.0, T2_star_us=10.0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Pure-state evolution under ``segments``, sampled at t = 0 and after
    every step: ``states`` has shape (N, 2), and ``segments`` is the
    schedule's tuple of pulse segments.
    """

    times: np.ndarray
    states: np.ndarray
    segments: tuple[PulseSegment, ...]


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


def schedule_propagator(segments) -> np.ndarray:
    """Ordered product ... U_2 U_1 of the exact segment propagators."""
    u = I2
    for seg in segments:
        a = segment_area(seg)
        u = (math.cos(a) * I2 - 1j * math.sin(a) * _drive_matrix(seg)) @ u
    return u


# ---------------------------------------------------------------------------
# fixed-step RK4 propagation

# a trajectory takes at least this many steps per segment
MIN_TRAJECTORY_STEPS = 100


def _segment_grid(segs, dt: float, min_steps: int):
    """The step h = T / round(T / dt) of the equally long stacked segments
    ``segs`` and their Rabi rates at the n + 1 step ends and n midpoints,
    (n + 1, G, 1, 1) and (n, G, 1, 1): sin^2 times each segment's peak."""
    t_seg = segs[0].duration
    if any(seg.duration != t_seg for seg in segs):
        raise ValueError("stacked schedules need equal segment durations")
    if not (0 < dt <= t_seg / min_steps and math.isfinite(t_seg / dt)):
        raise StepTooLarge(f"dt={dt} outside (0, duration/{min_steps}] or too "
                           f"fine to count the steps of duration {t_seg}")
    n = round(t_seg / dt)
    h = t_seg / n
    t = np.arange(2 * n + 1) * (0.5 * h)
    sin2 = np.sin(np.pi * t / t_seg) ** 2
    sin2[0] = sin2[-1] = 0.0
    peaks = np.array([seg.peak_amplitude for seg in segs])[:, None, None]
    # step ends and midpoints held apart: one array of all 2n + 1 rows
    # raised rb_exact's peak RSS by about 0.25 MB
    return (h, sin2[::2, None, None, None] * peaks,
            sin2[1::2, None, None, None] * peaks)


def _sample_times(segments, grids):
    """t = 0 and every RK4 step end, each segment's last exactly at its end."""
    starts = np.cumsum([0.0] + [seg.duration for seg in segments])
    return np.concatenate([np.zeros(1)] + [
        t0 + np.linspace(0.0, seg.duration, len(w_full))[1:]
        for t0, seg, (_, w_full, *_) in zip(starts, segments, grids)])


def lindblad_generator(h: np.ndarray, gamma1: float, gamma_phi: float) -> np.ndarray:
    """4x4 generator L with d vec(rho)/dt = L vec(rho) (row-major vec); a
    (G, 2, 2) stack of Hamiltonians ``h`` gives a (G, 4, 4) stack."""
    sm = SIGMA_MINUS
    pe = sm.conj().T @ sm
    return (-1j * (np.kron(h, np.eye(2))
                   - np.kron(np.eye(2), np.swapaxes(h, -1, -2)))
            + gamma1 * (np.kron(sm, sm.conj())
                        - 0.5 * (np.kron(pe, np.eye(2))
                                 + np.kron(np.eye(2), pe.T)))
            + 0.5 * gamma_phi * (np.kron(SIGMA_Z, SIGMA_Z.conj()) - I4))


def _lindblad_segments(seg_lists, device: DeviceParams | None, dt: float):
    """``rk4_steps`` inputs of stacked schedules: each stacked segment's grid
    with the rows' L_drive (G, 4, 4) and the dissipator L_diss (4, 4)."""
    g1 = device.gamma1_per_ns if device is not None else 0.0
    gphi = device.gamma_phi_per_ns if device is not None else 0.0
    l_diss = lindblad_generator(np.zeros((2, 2)), g1, gphi)
    for segs in zip(*seg_lists, strict=True):
        l_drive = lindblad_generator(
            np.array([_drive_matrix(seg) for seg in segs]), 0.0, 0.0)
        yield *_segment_grid(segs, dt, 1), l_drive, l_diss


# RK4 steps whose generators are built at once: built per step, they made
# an 8-gate compile 7-23% slower
_CHUNK = 8


def rk4_steps(y: np.ndarray, segments):
    """Fixed-step RK4 on dY/dt = (w(t) A + B) Y for a stack of rows.

    ``y`` has shape (G, d, k); each entry of ``segments`` is ``(h, w_full,
    w_half, A, B)``: a step, the rates of ``_segment_grid``, the rows' drive
    generators A (G, d, d) and one constant generator B (d, d). Yields a new
    stack after every step, each row stepped exactly as it would be alone;
    the stack keeps the dtype its inputs give, so a real problem stays real.
    """
    for h, w_full, w_half, a, b in segments:
        hh, h6 = 0.5 * h, h / 6.0
        for start in range(0, len(w_half), _CHUNK):
            l_full = w_full[start:start + _CHUNK + 1] * a + b
            for i, l_half in enumerate(w_half[start:start + _CHUNK] * a + b):
                k1 = l_full[i] @ y
                k2 = l_half @ (y + hh * k1)
                k3 = l_half @ (y + hh * k2)
                k4 = l_full[i + 1] @ (y + h * k3)
                y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                yield y
        del w_full, w_half  # freed before the next grid is built


def evolve_unitary(segments, psi0: np.ndarray, dt: float = 0.01) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> over a sequence of segments.

    Requires dt <= segment duration / MIN_TRAJECTORY_STEPS; the actual step
    divides each segment exactly. Inside a segment d|psi>/dt = w(t) A |psi>
    with A = -iK, A^2 = -I and A |psi> = -i (e^{-i phi'} c1, e^{+i phi'} c0),
    so every RK4 step map is Re(z) I + Im(z) A, where z is the same RK4 step
    of u' = i w(t) u. The maps commute: after step j the state is
    Re(Z_j) psi_s + Im(Z_j) A psi_s, with Z the cumulative product of the
    multipliers z and psi_s the state at the segment start.
    """
    segments = tuple(segments)
    grids = [_segment_grid([seg], dt, MIN_TRAJECTORY_STEPS) for seg in segments]
    times = _sample_times(segments, grids)
    states = np.empty((len(times), 2), dtype=complex)
    states[0] = np.asarray(psi0, dtype=complex)

    pos = 0
    for seg, (h, w_full, w_half) in zip(segments, grids):
        n = len(w_half)
        k1 = 1j * w_full[:-1]
        k2 = 1j * w_half * (1.0 + 0.5 * h * k1)
        k3 = 1j * w_half * (1.0 + 0.5 * h * k2)
        k4 = 1j * w_full[1:] * (1.0 + h * k3)
        d = h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        zs = np.cumprod(1.0 + d)
        em, ep = (-1j * _drive_matrix(seg))[[0, 1], [1, 0]]
        a, b = states[pos].tolist()
        states[pos + 1:pos + n + 1, 0] = zs.real * a + zs.imag * (em * b)
        states[pos + 1:pos + n + 1, 1] = zs.real * b + zs.imag * (ep * a)
        pos += n
    return Trajectory(times=times, states=states, segments=segments)


def evolve_lindblad(segments, rho0: np.ndarray,
                    device: DeviceParams | None = None,
                    dt: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the master equation over a sequence of segments.

    d rho/dt = -i[H, rho] + G1 D[s-] rho + (Gphi/2) D[sz] rho, G1 = 1/T1,
    Gphi = 1/T2*, no dissipation for ``device=None``. Returns the sample
    times and the (N, 2, 2) density matrices at them; the samples and the
    ``rk4_steps`` run of vec(rho), a (1, 4, 1) stack, share one input list.
    """
    segments = tuple(segments)
    built = list(_lindblad_segments([segments], device, dt))
    y0 = np.asarray(rho0, dtype=complex).reshape(1, 4, 1)
    states = np.array([y0, *rk4_steps(y0, built)])
    return _sample_times(segments, built), states.reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# trajectory analysis

def phase_decomposition(traj: Trajectory) -> PhaseReport:
    """Split the cyclic phase of a trajectory.

    total = arg<psi(0)|psi(tau)>, dynamical = -integral <psi|H|psi> dt,
    geometric = total - dynamical wrapped to [-pi, pi). Inside segment k,
    H = w(t) K_k commutes with K_k, so the integral there is area_k times
    <psi_k|K_k|psi_k>, psi_k the state at the segment's start.
    """
    overlap = np.vdot(traj.states[0], traj.states[-1])
    defect = 1.0 - abs(overlap)
    if not defect <= CYCLIC_TOL:  # a NaN state fails too
        raise NotCyclic(f"cyclicity defect {defect:.3g} exceeds {CYCLIC_TOL}")
    total = float(np.angle(overlap))
    starts = np.cumsum([0.0] + [seg.duration for seg in traj.segments])
    psis = traj.states[np.searchsorted(traj.times, starts[:-1])]
    dynamical = -float(sum(segment_area(seg) * np.vdot(p, _drive_matrix(seg) @ p)
                           for seg, p in zip(traj.segments, psis)).real)
    geometric = wrap_angle(total - dynamical)
    return PhaseReport(total=total, dynamical=dynamical, geometric=geometric,
                       cyclicity_defect=max(defect, 0.0))


def bloch_trajectory(traj: Trajectory) -> np.ndarray:
    """(N, 3) array of Bloch vectors (<sx>, <sy>, <sz>) of a trajectory."""
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
    if not np.linalg.norm(path[0] - path[-1]) <= CLOSURE_TOL:  # NaN fails
        raise PathNotClosed("path endpoints differ by more than the tolerance")
    v0 = path[0]
    a = path[:-1]
    b = path[1:]
    num = np.einsum("i,ti->t", v0, np.cross(a, b))
    den = 1.0 + a @ v0 + b @ v0 + np.einsum("ti,ti->t", a, b)
    return float(np.sum(2.0 * np.arctan2(num, den)))


# ---------------------------------------------------------------------------
# CSV export

# rows per tolist() and write: whole columns cost about 0.5 MB of peak RSS
_CSV_BLOCK = 512


def spell(col):
    """An iterator over a number column's CSV text: repr of each value."""
    return map(repr, col.tolist())


def _write_csv(path, header, columns) -> None:
    # csv.writer spells .tolist() values with str, quoting no number, so
    # joining repr's text, the same as str's for numbers but faster, writes
    # the same bytes; a list column is text already. zip would stop at the
    # shortest column, so unequal ones are refused
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"unequal CSV columns: {[len(c) for c in columns]}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK):
            cells = (col[i:i + _CSV_BLOCK] if isinstance(col, list)
                     else spell(col[i:i + _CSV_BLOCK]) for col in columns)
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def trajectory_to_csv(traj: Trajectory, path, t_ns: list) -> None:
    """Columns t_ns, re_c0, im_c0, re_c1, im_c1 of a trajectory; ``t_ns``,
    here and in bloch_path_to_csv, is list(spell(traj.times))."""
    st = traj.states
    _write_csv(path, ["t_ns", "re_c0", "im_c0", "re_c1", "im_c1"],
               (t_ns, st[:, 0].real, st[:, 0].imag,
                st[:, 1].real, st[:, 1].imag))


def bloch_path_to_csv(traj: Trajectory, path, t_ns: list) -> None:
    """Columns t_ns, x, y, z of the Bloch path of a trajectory."""
    _write_csv(path, ["t_ns", "x", "y", "z"], (t_ns, *bloch_trajectory(traj).T))
