import csv
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from geomgate.benchmarking import DecayCurve, decay_to_csv
from geomgate.channels import gate_superops
from geomgate.config import MAX_SEGMENT_STEPS
from geomgate.errors import NotCyclic, PathNotClosed, StepTooLarge
from geomgate.evolution import (DeviceParams, Trajectory, _drive_matrix,
                                _lindblad_segments, _segment_grid,
                                bloch_path_to_csv, bloch_trajectory,
                                enclosed_solid_angle, evolve_lindblad,
                                evolve_unitary, phase_decomposition,
                                rk4_steps, schedule_propagator, spell,
                                trajectory_to_csv, wrap_angle)
from geomgate.pulse import PulseSegment, synthesize
from geomgate.qcore import (GATE_NAMES, GateSpec, I2, KET0, KET1, SIGMA_X,
                            SIGMA_Y, SIGMA_Z, axis_angle_unitary,
                            axis_eigenstates, density_of, named_gate,
                            phase_distance)
from geomgate.tomography import chi_to_csv

from conftest import random_spec

PI = math.pi
SQ2 = math.sqrt(2.0)


def _segment(area, phase, duration=10.0):
    return PulseSegment(duration=duration, peak_amplitude=2.0 * area / duration,
                        phase_offset=phase)


# ---------------------------------------------------------------------------
# exact propagators

def test_segment_propagator_half_pi_x():
    u = schedule_propagator([_segment(PI / 2, 0.0)])
    assert np.allclose(u, -1j * SIGMA_X, atol=1e-15)


def test_segment_propagator_zero_area():
    u = schedule_propagator([_segment(0.0, 1.2)])
    assert np.allclose(u, I2, atol=0)


def test_segment_propagator_quarter_pi_y():
    u = schedule_propagator([_segment(PI / 4, PI / 2)])
    want = math.cos(PI / 4) * I2 - 1j * math.sin(PI / 4) * SIGMA_Y
    assert np.allclose(u, want, atol=1e-15)


def test_segment_propagator_envelope_independent():
    # a longer, lower envelope of the same area gives the same propagator
    a = schedule_propagator([_segment(0.7, 0.3)])
    b = schedule_propagator([PulseSegment(duration=40.0, peak_amplitude=0.035,
                                          phase_offset=0.3)])
    assert np.allclose(a, b, atol=1e-15)


def test_schedule_propagator_rz_pi_hand_product():
    # segment products: (i sy)(-i sx)(I) = sy sx = -i sz
    sched = synthesize(GateSpec(0.0, 0.0, PI), 10.0)
    assert np.allclose(schedule_propagator(sched), -1j * SIGMA_Z, atol=1e-14)


def test_schedule_propagator_identity():
    sched = synthesize(GateSpec(0.0, 0.0, 0.0), 10.0)
    assert np.allclose(schedule_propagator(sched), I2, atol=1e-14)


def test_schedule_propagator_hadamard():
    sched = synthesize(GateSpec(PI / 4, 0.0, PI), 10.0)
    want = -1j * (SIGMA_X + SIGMA_Z) / SQ2
    assert np.allclose(schedule_propagator(sched), want, atol=1e-14)


def test_schedule_propagator_matches_axis_angle(rng):
    for _ in range(50):
        spec = random_spec(rng)
        sched = synthesize(spec, 10.0)
        assert phase_distance(schedule_propagator(sched),
                              axis_angle_unitary(spec)) < 1e-10


# ---------------------------------------------------------------------------
# unitary integration

def test_evolve_unitary_cyclic_eigenstate_phase(rng):
    for _ in range(5):
        spec = random_spec(rng)
        sched = synthesize(spec, 10.0)
        plus, minus = axis_eigenstates(spec)
        final = evolve_unitary(sched, plus, dt=0.01).states[-1]
        want = np.exp(-0.5j * spec.gamma) * plus
        assert np.linalg.norm(final - want) < 1e-8
        final = evolve_unitary(sched, minus, dt=0.01).states[-1]
        want = np.exp(+0.5j * spec.gamma) * minus
        assert np.linalg.norm(final - want) < 1e-8


def test_evolve_unitary_zero_amplitude_is_constant():
    segments = [PulseSegment(10.0, 0.0, 0.5) for _ in range(3)]
    psi0 = np.array([0.6, 0.8j])
    traj = evolve_unitary(segments, psi0, dt=0.05)
    assert np.abs(traj.states - psi0).max() < 1e-15


def scalar_rk4_states(segments, psi0, dt):
    """Classical RK4 on the two amplitudes, one step at a time, with the
    Rabi rate evaluated point by point; oracle for ``evolve_unitary``."""
    a, b = complex(psi0[0]), complex(psi0[1])
    states = [(a, b)]
    for seg in segments:
        n = max(100, int(round(seg.duration / dt)))
        h = seg.duration / n
        hh, h6 = 0.5 * h, h / 6.0
        # K |psi> = (e^{-i phi'} c1, e^{+i phi'} c0)
        em = -1j * complex(math.cos(seg.phase_offset), -math.sin(seg.phase_offset))
        ep = -1j * complex(math.cos(seg.phase_offset), math.sin(seg.phase_offset))

        def rabi(t):
            if t == 0.0 or t == seg.duration:
                return 0.0
            return seg.peak_amplitude * math.sin(math.pi * t / seg.duration) ** 2

        for i in range(n):
            w0, w1, w2 = rabi(i * h), rabi((i + 0.5) * h), rabi((i + 1) * h)
            k1a = w0 * em * b
            k1b = w0 * ep * a
            a2 = a + hh * k1a
            b2 = b + hh * k1b
            k2a = w1 * em * b2
            k2b = w1 * ep * a2
            a3 = a + hh * k2a
            b3 = b + hh * k2b
            k3a = w1 * em * b3
            k3b = w1 * ep * a3
            a4 = a + h * k3a
            b4 = b + h * k3b
            k4a = w2 * em * b4
            k4b = w2 * ep * a4
            a = a + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
            b = b + h6 * (k1b + 2.0 * (k2b + k3b) + k4b)
            states.append((a, b))
    return np.array(states)


def _random_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


# the default step, and two that leave the step count off a round number
_ORACLE_STEPS = (0.01, 10.0 / 137.0, 0.0137)


def _assert_matches_scalar_oracle(segments, psi0, dt):
    traj = evolve_unitary(segments, psi0, dt=dt)
    want = scalar_rk4_states(segments, psi0, dt)
    assert traj.states.shape == want.shape
    assert np.abs(traj.states - want).max() < 1e-13


def test_evolve_unitary_matches_scalar_oracle_named_gates(rng):
    for name in GATE_NAMES:
        spec = named_gate(name)
        segments = synthesize(spec, 10.0)
        plus, _ = axis_eigenstates(spec)
        for dt in _ORACLE_STEPS:
            _assert_matches_scalar_oracle(segments, plus, dt)
            _assert_matches_scalar_oracle(segments, _random_state(rng), dt)


def test_evolve_unitary_matches_scalar_oracle_random(rng):
    for _ in range(8):
        spec = random_spec(rng)
        segments = synthesize(spec, rng.uniform(8.0, 20.0))
        for dt in _ORACLE_STEPS:
            _assert_matches_scalar_oracle(segments, _random_state(rng), dt)


def test_evolve_unitary_zero_amplitude_middle_segment(rng):
    segments = [PulseSegment(10.0, 0.3, 0.4),
                PulseSegment(8.0, 0.0, 1.3),
                PulseSegment(10.0, 0.2, -2.0)]
    for dt in _ORACLE_STEPS:
        psi0 = _random_state(rng)
        _assert_matches_scalar_oracle(segments, psi0, dt)
        states = evolve_unitary(segments, psi0, dt=dt).states
        n1 = max(100, int(round(10.0 / dt)))
        n2 = max(100, int(round(8.0 / dt)))
        held = states[n1:n1 + n2 + 1]
        assert held.tobytes() == np.repeat(states[n1:n1 + 1], n2 + 1, axis=0).tobytes()
        # a sin^2 segment starts from rest, so its end shows the drive
        assert np.abs(states[-1] - states[n1]).max() > 1e-6


def test_evolve_unitary_long_segments_match_scalar_oracle(rng):
    # 6,000 and 60,000 steps: the cumulative product of the step multipliers
    # carries every step's rounding to the segment's end
    for duration in (60.0, 600.0):
        for amplitude in (0.05, 0.1, 0.2, 0.3, 0.5):
            segments = [PulseSegment(duration, amplitude, 0.7)]
            _assert_matches_scalar_oracle(segments, _random_state(rng), 0.01)


def test_evolve_unitary_fourth_order_convergence():
    spec = GateSpec(1.1, 0.3, 2.0)
    sched = synthesize(spec, 10.0)
    u = schedule_propagator(sched)
    psi0, _ = axis_eigenstates(spec)
    want = u @ psi0
    e1 = np.linalg.norm(evolve_unitary(sched, psi0, dt=0.08).states[-1] - want)
    e2 = np.linalg.norm(evolve_unitary(sched, psi0, dt=0.04).states[-1] - want)
    assert 10.0 < e1 / e2 < 24.0


def test_evolve_unitary_norm_preserved():
    spec = GateSpec(2.0, 1.0, -3.0)
    traj = evolve_unitary(synthesize(spec, 10.0), KET0, dt=0.01)
    norms = np.einsum("ti,ti->t", traj.states.conj(), traj.states).real
    assert np.abs(norms - 1.0).max() < 1e-9


def test_evolve_unitary_step_too_large():
    sched = synthesize(GateSpec(1.0, 0.0, 1.0), 10.0)
    with pytest.raises(StepTooLarge):
        evolve_unitary(sched, KET0, dt=0.2)
    with pytest.raises(StepTooLarge):
        evolve_unitary(sched, KET0, dt=0.0)


# ---------------------------------------------------------------------------
# Lindblad integration

def test_lindblad_noiseless_matches_unitary(device):
    spec = GateSpec(1.3, -0.8, 2.4)
    sched = synthesize(spec, 10.0)
    psi0, _ = axis_eigenstates(spec)
    rho_final = evolve_lindblad(sched, density_of(psi0), None, dt=0.01).states[-1]
    psi_final = evolve_unitary(sched, psi0, dt=0.01).states[-1]
    assert np.abs(rho_final - density_of(psi_final)).max() < 1e-8


def test_lindblad_idle_t1_decay(device):
    idle = [PulseSegment(duration=200.0, peak_amplitude=0.0, phase_offset=0.0)]
    traj = evolve_lindblad(idle, density_of(KET1), device, dt=0.05)
    g1 = device.gamma1_per_ns
    want = math.exp(-200.0 * g1)
    assert abs(traj.states[-1][1, 1].real - want) < 1e-10


def test_lindblad_idle_coherence_decay(device):
    plus = np.array([1.0, 1.0]) / SQ2
    idle = [PulseSegment(duration=200.0, peak_amplitude=0.0, phase_offset=0.0)]
    traj = evolve_lindblad(idle, density_of(plus), device, dt=0.05)
    rate = 0.5 * device.gamma1_per_ns + device.gamma_phi_per_ns
    want = 0.5 * math.exp(-200.0 * rate)
    assert abs(abs(traj.states[-1][0, 1]) - want) < 1e-10


def test_lindblad_trace_and_positivity(device):
    spec = GateSpec(1.0, 0.5, 1.5)
    traj = evolve_lindblad(synthesize(spec, 10.0), density_of(KET0), device,
                           dt=0.01)
    traces = np.einsum("tii->t", traj.states).real
    assert np.abs(traces - 1.0).max() < 1e-9
    eigs = np.linalg.eigvalsh(traj.states)
    assert eigs.min() > -1e-9


def test_lindblad_idle_purity_monotone(device):
    plus = np.array([1.0, 1.0]) / SQ2
    idle = [PulseSegment(duration=100.0, peak_amplitude=0.0, phase_offset=0.0)]
    traj = evolve_lindblad(idle, density_of(plus), device, dt=0.05)
    purity = np.einsum("tij,tji->t", traj.states, traj.states).real
    assert np.all(np.diff(purity) <= 1e-12)


def test_lindblad_step_too_large(device):
    idle = [PulseSegment(duration=10.0, peak_amplitude=0.0, phase_offset=0.0)]
    with pytest.raises(StepTooLarge):
        evolve_lindblad(idle, density_of(KET0), device, dt=20.0)


def test_step_count_must_be_finite(device):
    # at dt 5e-324 a 10 ns segment has no finite step count; every
    # integrator refuses it before it allocates a grid
    spec = GateSpec(1.0, 0.0, 1.0)
    sched = synthesize(spec, 10.0)
    with pytest.raises(StepTooLarge):
        evolve_unitary(sched, KET0, dt=5e-324)
    with pytest.raises(StepTooLarge):
        evolve_lindblad(sched, density_of(KET0), device, dt=5e-324)
    with pytest.raises(StepTooLarge):
        gate_superops([spec], device, 10.0, 5e-324)


def test_t1_long_idle_takes_more_steps_than_a_config_segment(device):
    # the integrators take any finite step count: a T1-long idle at dt 0.05
    # has 380,000 steps, past the 100,000 a config allows a segment
    t1 = 1.0 / device.gamma1_per_ns
    idle = [PulseSegment(duration=t1, peak_amplitude=0.0, phase_offset=0.0)]
    n = round(t1 / 0.05)
    assert n > MAX_SEGMENT_STEPS
    assert len(evolve_unitary(idle, KET1, dt=0.05).times) == n + 1
    # the kernel runs them too; its first 1,000 steps decay as T1 does (the
    # whole Lindblad run takes seconds)
    y0 = density_of(KET1).reshape(1, 4, 1)
    steps = rk4_steps(y0, _lindblad_segments([idle], device, 0.05))
    y = next(itertools.islice(steps, 999, None))
    want = math.exp(-1000 * (t1 / n) * device.gamma1_per_ns)
    assert abs(y[0, 3, 0].real - want) < 1e-12


def test_kernel_steps_any_square_generator():
    # the kernel reads only the arrays it is given: under A = -i K and
    # B = 0 it steps pure states, (3, 2, 1), as the Schrodinger equation
    schedules = [synthesize(named_gate(g), 10.0)
                 for g in ("H", "Rx(pi/2)", "Rz(pi)")]
    segments = [(*_segment_grid(segs, 0.01, 1),
                 np.array([-1j * _drive_matrix(seg) for seg in segs]),
                 np.zeros((2, 2)))
                for segs in zip(*schedules)]
    y = np.repeat(KET0.reshape(1, 2, 1), 3, axis=0)
    for y in rk4_steps(y, segments):
        pass
    for sched, psi in zip(schedules, y):
        want = schedule_propagator(sched) @ KET0
        assert np.abs(psi[:, 0] - want).max() < 1e-8


def test_kernel_keeps_real_problems_real(rng):
    # real generators and a real state make real stages: no step turns the
    # stack complex, and at constant rates the end is exp(L T) of each row
    a = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=(3, 3))
    plan = ((0.3, 1000), (-0.7, 75))
    segments = [(5e-4, np.full((n + 1, 2, 1, 1), w), np.full((n, 2, 1, 1), w),
                 a, b)
                for w, n in plan]
    y = rng.normal(size=(2, 3, 2))
    for s in rk4_steps(y, segments):
        assert s.dtype == np.float64
    for g in range(2):
        want = y[g]
        for w, n in plan:
            want = expm((w * a[g] + b) * (5e-4 * n)) @ want
        assert np.abs(s[g] - want).max() < 1e-12


# ---------------------------------------------------------------------------
# phase analysis

def test_phase_decomposition_eigenstates(rng):
    for _ in range(5):
        spec = random_spec(rng)
        sched = synthesize(spec, 10.0)
        plus, minus = axis_eigenstates(spec)
        rep = phase_decomposition(evolve_unitary(sched, plus, dt=0.01))
        assert abs(rep.dynamical) < 1e-6
        assert abs(wrap_angle(rep.geometric + 0.5 * spec.gamma)) < 1e-6
        assert abs(wrap_angle(rep.total - rep.dynamical - rep.geometric)) < 1e-9
        rep = phase_decomposition(evolve_unitary(sched, minus, dt=0.01))
        assert abs(rep.dynamical) < 1e-6
        assert abs(wrap_angle(rep.geometric - 0.5 * spec.gamma)) < 1e-6


def test_phase_decomposition_matches_sampled_trapezoid(rng):
    # oracle: the trapezoid of <psi|H(t)|psi> over the trajectory's own
    # samples, with H(t) = peak sin^2(pi t'/T) (cos phi sx + sin phi sy)
    # written out here, t' the time since the segment's start
    for _ in range(6):
        spec = random_spec(rng)
        segs = synthesize(spec, 10.0)
        for dt, psi0 in itertools.product((0.003, 0.01, 0.05),
                                          axis_eigenstates(spec)):
            traj = evolve_unitary(segs, psi0, dt=dt)
            k = np.minimum((traj.times // 10.0).astype(int), len(segs) - 1)
            t_in = traj.times - 10.0 * k
            peak = np.array([seg.peak_amplitude for seg in segs])[k]
            phi = np.array([seg.phase_offset for seg in segs])[k]
            w = peak * np.sin(PI * t_in / 10.0) ** 2
            c0, c1 = traj.states.T
            expect = w * 2.0 * (c0.conj() * c1 * np.exp(-1j * phi)).real
            rep = phase_decomposition(traj)
            assert abs(rep.dynamical + np.trapezoid(expect, traj.times)) <= 1e-14


def test_phase_decomposition_closed_form_half_turn(rng):
    # one segment of area pi maps every state to -psi (U = -I), so any
    # start is cyclic and the dynamical phase is -pi <psi0|K|psi0>
    for _ in range(5):
        phi, duration = rng.uniform(-PI, PI), rng.uniform(5.0, 40.0)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        seg = PulseSegment(duration, 2.0 * PI / duration, phi)
        rep = phase_decomposition(evolve_unitary([seg], psi0, dt=0.01))
        k = np.array([[0.0, np.exp(-1j * phi)], [np.exp(1j * phi), 0.0]])
        want = -PI * np.vdot(psi0, k @ psi0).real
        assert abs(rep.dynamical - want) <= 1e-12
        assert abs(wrap_angle(rep.total - PI)) < 1e-6


def test_segment_boundaries_land_on_a_sample():
    # 285 steps of h = T / 285 sum to 1 ulp short of T, so step ends taken
    # as arange(1, n + 1) * h put the next segment's start state a step late
    t_seg, dt = 14.763532717729133, 0.05173163902050624
    sched = synthesize(named_gate("H"), t_seg)
    psi0, _ = axis_eigenstates(named_gate("H"))
    starts = np.cumsum([0.0] + [seg.duration for seg in sched])
    for traj in (evolve_unitary(sched, psi0, dt=dt),
                 evolve_lindblad(sched, density_of(psi0), dt=dt)):
        assert len(traj.times) == 3 * 285 + 1
        assert np.array_equal(traj.times[[285, 570]], starts[1:3])


def test_phase_decomposition_zero_hamiltonian():
    segments = [PulseSegment(10.0, 0.0, 0.0)]
    traj = evolve_unitary(segments, KET0, dt=0.05)
    rep = phase_decomposition(traj)
    assert rep.total == rep.dynamical == rep.geometric == 0.0
    assert rep.cyclicity_defect < 1e-12


def test_phase_decomposition_not_cyclic():
    sched = synthesize(GateSpec(PI / 4, 0.0, PI), 10.0)  # Hadamard-like
    traj = evolve_unitary(sched, KET0, dt=0.01)          # |0> is not cyclic
    with pytest.raises(NotCyclic):
        phase_decomposition(traj)


def test_phase_decomposition_nan_state_is_not_cyclic():
    # a NaN defect is not greater than any tolerance, yet must fail the check
    traj = evolve_unitary([PulseSegment(10.0, 0.0, 0.0)], KET0, dt=0.05)
    traj.states[-1] = np.nan
    with pytest.raises(NotCyclic):
        phase_decomposition(traj)


# ---------------------------------------------------------------------------
# Bloch paths and solid angle

def test_bloch_trajectory_basics():
    segments = [PulseSegment(10.0, 0.0, 0.0)]
    traj = evolve_unitary(segments, KET0, dt=0.05)
    path = bloch_trajectory(traj)
    assert np.allclose(path, [0.0, 0.0, 1.0], atol=1e-12)


def test_bloch_trajectory_starts_at_axis(rng):
    spec = random_spec(rng)
    plus, _ = axis_eigenstates(spec)
    traj = evolve_unitary(synthesize(spec, 10.0), plus, dt=0.01)
    path = bloch_trajectory(traj)
    assert np.allclose(path[0], spec.axis, atol=1e-12)
    assert np.abs(np.linalg.norm(path, axis=1) - 1.0).max() < 1e-9


def test_bloch_path_cyclic_for_rx_pi():
    spec = GateSpec(PI / 2, 0.0, PI)
    plus, _ = axis_eigenstates(spec)
    traj = evolve_unitary(synthesize(spec, 10.0), plus, dt=0.01)
    path = bloch_trajectory(traj)
    assert np.allclose(path[0], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(path[-1] - path[0]) < 1e-8


def test_solid_angle_degenerate_path():
    point = np.tile([0.0, 0.0, 1.0], (5, 1))
    assert enclosed_solid_angle(point) == 0.0


def test_solid_angle_octant():
    path = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert enclosed_solid_angle(path) == pytest.approx(PI / 2, abs=1e-12)


def test_solid_angle_not_closed():
    path = np.array([[1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(PathNotClosed):
        enclosed_solid_angle(path)


def test_solid_angle_nan_endpoint_not_closed():
    path = np.array([[1, 0, 0], [0, 1, 0], [np.nan, 0, 0]], dtype=float)
    with pytest.raises(PathNotClosed):
        enclosed_solid_angle(path)


def test_solid_angle_matches_gamma(rng):
    # measured sign convention: the slice loop of psi_plus encloses +gamma
    for gamma in (PI, -1.3, 2.6):
        spec = GateSpec(1.1, 0.4, gamma)
        plus, _ = axis_eigenstates(spec)
        traj = evolve_unitary(synthesize(spec, 10.0), plus, dt=0.01)
        omega = enclosed_solid_angle(bloch_trajectory(traj))
        # signed: Omega = gamma (mod 4 pi), geometric = -Omega/2 (mod 2 pi)
        assert 2.0 * abs(wrap_angle(0.5 * (omega - gamma))) < 1e-8
        rep = phase_decomposition(traj)
        assert abs(wrap_angle(rep.geometric + 0.5 * omega)) < 1e-8


# ---------------------------------------------------------------------------
# CSV export

def test_trajectory_csv_pure(tmp_path):
    sched = synthesize(GateSpec(1.0, 0.0, 1.0), 10.0)
    traj = evolve_unitary(sched, KET0, dt=0.1)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, list(spell(traj.times)))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_ns", "re_c0", "im_c0", "re_c1", "im_c1"]
    assert len(rows) == len(traj.times) + 1
    assert float(rows[1][1]) == 1.0


def test_trajectory_csv_density(tmp_path, device):
    # the trajectory CSV holds state vectors; a Lindblad trajectory is
    # refused before the file is opened
    idle = [PulseSegment(10.0, 0.0, 0.0)]
    traj = evolve_lindblad(idle, density_of(KET1), device, dt=0.1)
    with pytest.raises(ValueError, match="trajectory CSV requires"):
        trajectory_to_csv(traj, tmp_path / "rho.csv", list(spell(traj.times)))
    assert list(tmp_path.iterdir()) == []


def test_bloch_csv(tmp_path):
    sched = synthesize(GateSpec(PI / 2, 0.0, PI), 10.0)
    plus = np.array([1.0, 1.0]) / SQ2
    traj = evolve_unitary(sched, plus, dt=0.1)
    path = tmp_path / "bloch.csv"
    bloch_path_to_csv(traj, path, list(spell(traj.times)))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_ns", "x", "y", "z"]
    assert float(rows[1][1]) == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["decay_without_samples", "short_t_ns",
                                  "short_chi", "empty_t_ns", "short_bloch_t_ns",
                                  "empty_bloch_t_ns"])
def test_csv_writers_refuse_unequal_columns(tmp_path, case):
    # zip stops at the shortest column, so unequal columns would drop rows
    # silently; they are refused before the file is opened
    traj = evolve_unitary(synthesize(named_gate("H"), 10.0), KET0, dt=0.1)
    with pytest.raises(ValueError, match="unequal CSV columns"):
        if case == "decay_without_samples":
            decay_to_csv(DecayCurve((1, 2, 4), np.array([0.9, 0.8, 0.7]),
                                    np.array([0.01, 0.02, 0.03])),
                         tmp_path / "rb.csv")
        elif case == "short_t_ns":
            trajectory_to_csv(traj, tmp_path / "traj.csv",
                              list(spell(traj.times))[:-1])
        elif case == "short_chi":
            chi_to_csv(np.eye(3, dtype=complex), tmp_path / "chi.csv")
        elif case == "empty_t_ns":
            trajectory_to_csv(traj, tmp_path / "traj.csv", [])
        elif case == "short_bloch_t_ns":
            bloch_path_to_csv(traj, tmp_path / "bloch.csv",
                              list(spell(traj.times))[1:])
        else:
            bloch_path_to_csv(traj, tmp_path / "bloch.csv", [])
    assert list(tmp_path.iterdir()) == []


def _repr_rows(path, header, rows):
    # per-row reference writer: every value spelled with repr(float(...))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _check_writers(tmp_path, times, states):
    traj = Trajectory(times, states, ())
    t_ns = list(spell(times))
    trajectory_to_csv(traj, tmp_path / "pure.csv", t_ns)
    _repr_rows(tmp_path / "pure_ref.csv",
               ["t_ns", "re_c0", "im_c0", "re_c1", "im_c1"],
               [(t, s[0].real, s[0].imag, s[1].real, s[1].imag)
                for t, s in zip(times, states)])
    bloch_path_to_csv(traj, tmp_path / "bloch.csv", t_ns)
    _repr_rows(tmp_path / "bloch_ref.csv", ["t_ns", "x", "y", "z"],
               [(t, *v) for t, v in zip(times, bloch_trajectory(traj))])
    for stem in ("pure", "bloch"):
        want = (tmp_path / f"{stem}_ref.csv").read_bytes()
        assert (tmp_path / f"{stem}.csv").read_bytes() == want, stem
    return (tmp_path / "pure.csv").read_text()


def test_csv_writers_match_per_row_repr(tmp_path, rng):
    # -0.0, values below 1e-4 and at or above 1e16 are spelled with a sign
    # or in exponent notation by repr, and nan / inf as words; the bulk
    # writers must keep them all
    times = np.array([-0.0, 0.0, 1e-5, 2.5e-300, 0.1, 1e16, 3.7e17, 12.25,
                      np.nan, np.inf, -np.inf])
    special = np.array([-0.0, 5e-5, -1e-4, 1e16, -2.5e20, 0.1 + 0.2,
                        9.999e-5, 0.0, np.inf, -np.inf, np.nan])
    n = len(times)
    with np.errstate(invalid="ignore"):  # 0 * inf in the complex products
        pure = special + 1j * special[::-1]
        states = np.column_stack([pure, rng.normal(size=n) * 1e-7 + 1j * pure])
        text = _check_writers(tmp_path, times, states)
    for spelled in ("-0.0", "1e-05", "2.5e-300", "1e+16", "3.7e+17", "-2.5e+20",
                    "nan", "inf", "-inf"):
        assert spelled in text
    # a one-row trajectory
    text = _check_writers(tmp_path, times[4:5], states[4:5])
    assert len(text.splitlines()) == 2
    # a full-size synthesis trajectory: 3,001 rows at the default step
    spec = named_gate("H")
    traj = evolve_unitary(synthesize(spec, 10.0), axis_eigenstates(spec)[0])
    assert len(traj.times) == 3001
    text = _check_writers(tmp_path, traj.times, traj.states)
    assert len(text.splitlines()) == 3002
    # a whole number of write blocks
    text = _check_writers(tmp_path, traj.times[:1024], traj.states[:1024])
    assert len(text.splitlines()) == 1025


def test_pure_state_analyses_refuse_a_density_matrix_trajectory():
    # the phase split and the Bloch path read state vectors; a Lindblad
    # trajectory holds density matrices
    traj = evolve_lindblad(synthesize(named_gate("H"), 10.0), density_of(KET0))
    assert not traj.is_pure
    with pytest.raises(ValueError, match="phase decomposition requires"):
        phase_decomposition(traj)
    with pytest.raises(ValueError, match="bloch trajectory requires"):
        bloch_trajectory(traj)


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(T1_us=0.0, T2_star_us=10.0)
    with pytest.raises(ValueError):
        DeviceParams(T1_us=19.0, T2_star_us=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(T1_us=19.0, T2_star_us=10.0, readout_f0=0.4)
