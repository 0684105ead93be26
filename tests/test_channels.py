import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from geomgate import channels, evolution
from geomgate.benchmarking import RbConfig, run_rb
from geomgate.channels import (PHYSICAL_TOL, DepolarizingNoise,
                               GateChannelCache, check_physical, depolarizing_superop, gate_superop,
                               gate_superops, unitary_superop, vec)
from geomgate.evolution import (DeviceParams, _drive_matrix,
                                _lindblad_segments, _segment_grid,
                                evolve_lindblad, lindblad_generator,
                                rk4_steps, schedule_propagator)
from geomgate.errors import NonPhysicalChannel
from geomgate.pulse import PulseSegment, synthesize
from geomgate.qcore import (GATE_NAMES, GateSpec, axis_angle_unitary,
                            clifford_group, clifford_index_of, named_gate)
from geomgate.tomography import run_qpt

from conftest import random_spec


def _random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_vec_round_trip(rng):
    rho = _random_density(rng)
    assert np.allclose(vec(rho).reshape(2, 2), rho, atol=0)


def test_unitary_superop_is_conjugation(rng):
    spec = random_spec(rng)
    u = axis_angle_unitary(spec)
    rho = _random_density(rng)
    assert np.allclose((unitary_superop(u) @ vec(rho)).reshape(2, 2),
                       u @ rho @ u.conj().T, atol=1e-14)


def test_depolarizing_superop_analytic(rng):
    lam = 0.17
    rho = _random_density(rng)
    got = (depolarizing_superop(lam) @ vec(rho)).reshape(2, 2)
    want = (1 - lam) * rho + lam * np.eye(2) / 2.0
    assert np.allclose(got, want, atol=1e-14)
    with pytest.raises(ValueError):
        DepolarizingNoise(1.5)


def test_schedule_superop_matches_direct_lindblad(rng, device):
    spec = random_spec(rng)
    sched = synthesize(spec, 10.0)
    (sop,) = gate_superops([spec], device, 10.0, dt=0.01)
    for _ in range(3):
        rho0 = _random_density(rng)
        direct = evolve_lindblad(sched, rho0, device, dt=0.01)[1][-1]
        assert np.abs((sop @ vec(rho0)).reshape(2, 2) - direct).max() < 1e-12


def test_schedule_superop_noiseless_is_unitary_channel(rng):
    spec = random_spec(rng)
    sched = synthesize(spec, 10.0)
    (sop,) = gate_superops([spec], None, 10.0)
    assert np.allclose(sop, unitary_superop(schedule_propagator(sched)),
                       atol=1e-14)


def test_lindblad_generator_traceless_action(rng, device):
    gen = lindblad_generator(axis_angle_unitary(random_spec(rng)) * 0.1,
                             device.gamma1_per_ns, device.gamma_phi_per_ns)
    rho = _random_density(rng)
    drho = (gen @ vec(rho)).reshape(2, 2)
    assert abs(np.trace(drho)) < 1e-14


@pytest.mark.parametrize("noise", [None, DepolarizingNoise(0.1),
                                   DeviceParams.default_xmon()],
                         ids=["exact", "depolarizing", "device"])
def test_no_gates_compile_to_an_empty_channel_stack(noise):
    assert gate_superops([], noise).shape == (0, 4, 4)
    cache = GateChannelCache()
    assert cache.stack([], noise).shape == (0, 4, 4)
    cache.stack([named_gate("H")], noise)
    assert cache.stack(iter([]), noise).shape == (0, 4, 4)


def test_gate_superop_dispatch(rng, device):
    spec = random_spec(rng)
    ideal = gate_superop(spec, None)
    noisy = gate_superop(spec, device)
    depol = gate_superop(spec, DepolarizingNoise(0.05))
    rho = _random_density(rng)
    assert abs(np.trace((noisy @ vec(rho)).reshape(2, 2)) - 1.0) < 1e-9
    want = (depolarizing_superop(0.05) @ ideal @ vec(rho)).reshape(2, 2)
    assert np.allclose((depol @ vec(rho)).reshape(2, 2), want, atol=1e-14)
    with pytest.raises(TypeError):
        gate_superop(spec, noise="bad")


def test_cache_compiles_each_spec_once(monkeypatch, device):
    calls = []

    def counting(specs, *args):
        calls.append(list(specs))
        return gate_superops(specs, *args)

    monkeypatch.setattr(channels, "gate_superops", counting)
    cache = GateChannelCache()
    spec, named_h = GateSpec(0.3, 0.2, 1.0), named_gate("H")
    first = cache.stack([spec, named_h, spec], device)
    assert first.shape == (3, 4, 4)
    assert calls == [[spec, named_h]]
    # a second stack of the same specs compiles nothing
    second = cache.stack([named_h, spec], device)
    assert calls == [[spec, named_h]]
    assert np.array_equal(second, first[[1, 0]])


def test_cache_stack_ignores_what_it_held(device):
    group = clifford_group()
    fresh = gate_superops(group, device)
    named_h = named_gate("H")
    # the H Clifford's angles differ from the named spec's by a few ulp;
    # each runs its own pulse, whichever the cache compiled first
    h = clifford_index_of(axis_angle_unitary(named_h))
    assert group[h] != named_h
    for held in ([], [named_h], group[:5] + [named_h]):
        cache = GateChannelCache()
        cache.stack(held, device)
        table = cache.stack(group + [named_h], device)
        assert table.shape == (25, 4, 4)
        assert np.array_equal(table[:24], fresh)
        assert np.array_equal(table[24], gate_superops([named_h], device)[0])
    assert not np.array_equal(table[h], table[24])


def test_results_do_not_depend_on_what_the_cache_ran_before(device):
    config = RbConfig(sequence_lengths=(1, 2, 4, 8), randomizations=4, seed=2)
    targets = ["H", "Rx(pi)"]
    fresh_rb = run_rb(config, targets, device, channels=GateChannelCache())
    shared = GateChannelCache()
    run_qpt("H", device=device, channels=shared)
    run_qpt("Rx(pi)", device=device, channels=shared)
    after_qpt = run_rb(config, targets, device, channels=shared)
    for (curve, fit), (want, want_fit) in zip(after_qpt, fresh_rb,
                                              strict=True):
        assert np.array_equal(curve.means, want.means)
        assert fit == want_fit
    fresh_qpt = run_qpt("H", device=device, channels=GateChannelCache())
    shared = GateChannelCache()
    run_rb(config, targets, device, channels=shared)
    after_rb = run_qpt("H", device=device, channels=shared)
    assert np.array_equal(after_rb.chi, fresh_qpt.chi)
    assert after_rb.fidelity == fresh_qpt.fidelity


# ---------------------------------------------------------------------------
# stacked compile

def _loop_steps(schedule, y, device, dt):
    """The RK4 recursion on one schedule, one 4x4 product at a time: ``y``
    (4, k) at the start and after every step."""
    l_diss = lindblad_generator(np.zeros((2, 2)), device.gamma1_per_ns,
                                device.gamma_phi_per_ns)
    steps = [y]
    for seg in schedule:
        n = int(round(seg.duration / dt))
        h = seg.duration / n
        _, w_full, w_half = _segment_grid([seg], dt, 1)
        w_full, w_half = w_full.ravel(), w_half.ravel()
        l_drive = lindblad_generator(_drive_matrix(seg), 0.0, 0.0)
        for i in range(n):
            l0 = w_full[i] * l_drive + l_diss
            lh = w_half[i] * l_drive + l_diss
            l1 = w_full[i + 1] * l_drive + l_diss
            k1 = l0 @ y
            k2 = lh @ (y + 0.5 * h * k1)
            k3 = lh @ (y + 0.5 * h * k2)
            k4 = l1 @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            steps.append(y)
    return steps


def _loop_superop(schedule, device, dt):
    """The RK4 superoperator recursion on one schedule."""
    return _loop_steps(schedule, np.eye(4, dtype=complex), device, dt)[-1]


def test_physical_channel_check(device):
    specs = clifford_group()[:3]
    for noise in (None, device, DepolarizingNoise(0.05),
                  DeviceParams(T1_us=0.05, T2_star_us=0.05)):
        check_physical(gate_superops(specs, noise), specs)
    good = gate_superops(specs, device)
    # each defect is caught and names the offending gate of the stack
    transpose = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # TP, not CP
    leaky = good[1] @ np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9])
    nan = np.where(np.eye(4, dtype=bool), np.nan, good[1])
    for sop, what in ((nan, "not finite"), (leaky, "not trace preserving"),
                      (transpose, "not completely positive")):
        stack = np.array([good[0], sop, good[2]])
        with pytest.raises(NonPhysicalChannel, match=what) as err:
            check_physical(stack, specs)
        assert f"{specs[1].theta:.6f}" in str(err.value)


def _spy_on_eigvalsh(monkeypatch):
    """Record the stacks numpy.linalg.eigvalsh is called on."""
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a) or eigvalsh(a))
    return calls


def test_physical_stacks_pass_on_pivots_alone(monkeypatch, device):
    # rank-1 Choi matrices (ideal channels) leave pivots of about tol; they
    # and the default Xmon's compiled channels pass without eigenvalues
    cliffords = clifford_group()
    named = [named_gate(name) for name in GATE_NAMES]
    stacks = [(specs, gate_superops(specs, noise))
              for specs in (cliffords, named) for noise in (None, device)]
    calls = _spy_on_eigvalsh(monkeypatch)
    for specs, sops in stacks:
        check_physical(sops, specs)
    assert calls == []


def test_one_non_cp_channel_refuses_its_stack(monkeypatch, device):
    # the pivots refuse the stack, and the eigenvalues name the gate
    specs = [named_gate(name) for name in GATE_NAMES]
    sops = gate_superops(specs, device)
    sops[5] = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # transpose: TP, not CP
    calls = _spy_on_eigvalsh(monkeypatch)
    with pytest.raises(NonPhysicalChannel) as err:
        check_physical(sops, specs)
    spec = specs[5]
    assert str(err.value) == (
        f"compiled channel of gate ({spec.theta:.6f}, {spec.phi:.6f}, "
        f"{spec.gamma:.6f}) is not completely positive (Choi eigenvalue "
        "-1.0e+00); dt_ns may be too coarse for the device rates")
    assert len(calls) == 1 and calls[0].shape == (8, 4, 4)


def _choi_min_eigenvalue(sop):
    """Smallest eigenvalue of sum_ij |i><j| (x) eps(|i><j|), by eigvalsh."""
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)  # |i><j|, row-major
    choi = sum(np.kron(e, (sop @ vec(e)).reshape(2, 2)) for e in units)
    return np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min()


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.0, math.pi),
       phi=st.floats(-math.pi, math.pi, exclude_max=True),
       gamma=st.floats(-2.0 * math.pi, 2.0 * math.pi, exclude_min=True),
       t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
# at gamma = 0 the smallest Choi eigenvalue is t/2 - s: just inside and
# just outside the tolerance
@example(theta=0.0, phi=0.0, gamma=0.0, t=0.5, s=0.25 + 0.5 * PHYSICAL_TOL)
@example(theta=0.0, phi=0.0, gamma=0.0, t=0.5, s=0.25 + 2.0 * PHYSICAL_TOL)
def test_check_physical_cp_matches_eigenvalue_oracle(theta, phi, gamma, t, s):
    # (1 - s - t) S_U + t S_dep + s S_T: every term is trace preserving, so
    # the CP test decides; the transpose map S_T is the non-CP part
    assume(s + t <= 1.0)
    spec = GateSpec(theta, phi, gamma)
    transpose = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    sop = ((1.0 - s - t) * unitary_superop(axis_angle_unitary(spec))
           + t * depolarizing_superop(1.0) + s * transpose)
    choi_min = _choi_min_eigenvalue(sop)
    assume(abs(choi_min + PHYSICAL_TOL) > 1e-13)
    if choi_min < -PHYSICAL_TOL:
        with pytest.raises(NonPhysicalChannel, match="not completely positive"):
            check_physical(sop[None], [spec])
    else:
        check_physical(sop[None], [spec])


def test_cache_refuses_diverged_compile():
    cache, stiff = GateChannelCache(), DeviceParams(T1_us=1e-6, T2_star_us=10.0)
    with np.errstate(all="ignore"), pytest.raises(NonPhysicalChannel):
        cache.stack([named_gate("H")], stiff)
    assert not any(cache._by_noise.values())


def test_one_cache_serves_every_noise_model(device):
    # interleaved, so a channel held under another model would show
    models = [device, DeviceParams(T1_us=5.0, T2_star_us=10.0), None,
              DepolarizingNoise(0.01), DeviceParams.default_xmon()]
    h = named_gate("H")
    cache = GateChannelCache()
    for noise in models + models[::-1]:
        assert np.array_equal(cache.stack([h], noise),
                              gate_superops([h], noise))
        assert (run_qpt("H", device=noise, channels=cache).fidelity
                == run_qpt("H", device=noise).fidelity)
    # equal devices share their entries
    assert len(cache._by_noise) == len(models) - 1


def test_protocols_compile_at_the_cache_dt(device):
    config = RbConfig(sequence_lengths=(1, 2, 3), randomizations=2)
    cache = GateChannelCache(10.0, 0.02)
    assert (run_qpt("H", device=device, channels=cache).fidelity
            != run_qpt("H", device=device).fidelity)
    run_rb(config, ["H"], device, channels=cache)


def test_one_rate_grid_per_stacked_segment(monkeypatch, device):
    # one grid serves every row of a stacked segment, and a trajectory's
    # grids serve both its samples and its kernel
    rows = []
    grid = evolution._segment_grid

    def counting(segs, dt, min_steps):
        rows.append(len(segs))
        return grid(segs, dt, min_steps)

    monkeypatch.setattr(evolution, "_segment_grid", counting)
    # I, H, Rx(pi), Rx(pi/2), Ry(pi): Rx(pi) and Rx(pi/2) share a first
    # segment, which steps once
    gate_superops([named_gate(g) for g in GATE_NAMES[:5]], device)
    assert rows == [4, 5, 5]
    rows.clear()
    evolve_lindblad(synthesize(named_gate("H"), 10.0), np.diag([1.0, 0.0]),
                    device)
    assert rows == [1, 1, 1]


def test_stacked_compile_bit_equal_to_single(rng, device):
    group = clifford_group()
    specs = [group[3], group[16], named_gate("Rz(pi)"),
             random_spec(rng)]
    # I, Rz(pi) and Rz(pi/2) share a zero-drive first segment, and Rx(pi)
    # and Rx(pi/2) share one: each distinct first segment steps once
    shared = [named_gate(g) for g in ("I", "Rz(pi)", "Rz(pi/2)", "Rx(pi)",
                                      "Rx(pi/2)")]
    assert len({synthesize(spec)[0] for spec in shared}) == 2
    # 10/37 gives 37 steps per segment, not a multiple of the kernel's chunk,
    # and 10/3 gives 3, fewer than one chunk
    for dt in (0.01, 10 / 37, 10 / 3):
        stack = gate_superops(specs, device, dt=dt)
        assert stack.shape == (len(specs), 4, 4)
        for spec, sop in zip(specs, stack):
            assert np.array_equal(sop, gate_superop(spec, device, dt=dt))
            assert np.array_equal(sop, _loop_superop(synthesize(spec), device,
                                                     dt))
        stack = gate_superops(shared, device, dt=dt)
        assert stack.shape == (len(shared), 4, 4)
        for spec, sop in zip(shared, stack):
            assert np.array_equal(sop, gate_superop(spec, device, dt=dt))
            assert np.array_equal(sop, _loop_superop(synthesize(spec), device,
                                                     dt))
    for noise in (None, DepolarizingNoise(0.05)):
        stack = gate_superops(specs, noise)
        for spec, sop in zip(specs, stack):
            assert np.array_equal(sop, gate_superop(spec, noise))
            # the unstacked expressions, written out
            ideal = unitary_superop(schedule_propagator(synthesize(spec)))
            want = (ideal if noise is None
                    else depolarizing_superop(noise.strength) @ ideal)
            assert np.array_equal(sop, want)


def test_evolve_lindblad_every_step_bit_equal_to_loop(rng, device):
    # a kernel that yielded one reused buffer would repeat its last state
    spec = random_spec(rng)
    rho0 = _random_density(rng)
    sched = synthesize(spec, 10.0)
    for dt in (0.01, 10 / 37, 10 / 3):
        _, rhos = evolve_lindblad(sched, rho0, device, dt=dt)
        want = np.array(_loop_steps(sched, vec(rho0).reshape(4, 1),
                                    device, dt)).reshape(-1, 2, 2)
        assert rhos.shape == want.shape
        assert np.array_equal(rhos, want), dt


def test_stacked_compile_rejects_unequal_durations():
    segs = [PulseSegment(10.0, 0.1, 0.0), PulseSegment(12.0, 0.1, 0.0)]
    with pytest.raises(ValueError, match="durations"):
        _segment_grid(segs, 0.01, 1)


# ---------------------------------------------------------------------------
# independent oracles: adaptive ODE solve and matrix exponential of the
# master equation, sharing no code with the RK4 kernel

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SM = np.array([[0, 1], [0, 0]], dtype=complex)

STRENGTHS = [(19.0, 10.0), (0.05, 0.03)]


def _master_rhs(seg, t1_ns, t2_ns, constant=False):
    """d rho/dt on one segment, for a flattened stack of density matrices.

    Written from the master equation alone: H(t) = Omega(t) (cos p sx +
    sin p sy) with Omega(t) = Omega0 sin^2(pi t / T), or Omega0 throughout
    if ``constant``, relaxation at 1/T1 and pure dephasing at 1/T2*.
    """
    g1, gphi = 1.0 / t1_ns, 1.0 / t2_ns
    sp = _SM.conj().T
    k = math.cos(seg.phase_offset) * _SX + math.sin(seg.phase_offset) * _SY

    def rhs(t, y):
        rho = y.reshape(-1, 2, 2)
        omega = seg.peak_amplitude
        if not constant:
            omega *= math.sin(math.pi * t / seg.duration) ** 2
        ham = omega * k
        out = -1j * (ham @ rho - rho @ ham)
        out += g1 * (_SM @ rho @ sp - 0.5 * (sp @ _SM @ rho + rho @ sp @ _SM))
        out += 0.5 * gphi * (_SZ @ rho @ _SZ - rho)
        return out.reshape(-1)
    return rhs


def _oracle_superop(schedule, t1_ns, t2_ns):
    """Superoperator from solve_ivp on d rho/dt in density-matrix form."""
    # the four matrix units |i><j|, evolved side by side
    y = np.eye(4, dtype=complex).reshape(-1)
    for seg in schedule:
        sol = solve_ivp(_master_rhs(seg, t1_ns, t2_ns), (0.0, seg.duration),
                        y, method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success
        y = sol.y[:, -1]
    # column k is vec of the image of the k-th matrix unit
    return y.reshape(4, 4).T


def _expm_superop(schedule, t1_ns, t2_ns):
    """Product of exp(L_k T_k) over the segments held at their peak rates,
    where each segment's generator L_k is constant; column j of L_k is vec
    of d rho/dt at the j-th matrix unit."""
    s = np.eye(4, dtype=complex)
    for seg in schedule:
        rhs = _master_rhs(seg, t1_ns, t2_ns, constant=True)
        gen = np.column_stack([rhs(0.0, e) for e in np.eye(4, dtype=complex)])
        s = expm(gen * seg.duration) @ s
    return s


@pytest.mark.parametrize("t1_us, t2_us", STRENGTHS)
def test_stacked_compile_matches_ode_oracle(t1_us, t2_us):
    device = DeviceParams(T1_us=t1_us, T2_star_us=t2_us)
    group = clifford_group()
    specs = [group[k] for k in (1, 9, 16, 23)]
    stack = gate_superops(specs, device)
    for spec, sop in zip(specs, stack):
        want = _oracle_superop(synthesize(spec, 10.0), t1_us * 1e3,
                               t2_us * 1e3)
        assert np.abs(sop - want).max() < 1e-8


@pytest.mark.parametrize("t1_us, t2_us", STRENGTHS)
def test_kernel_constant_rate_matches_expm_oracle(rng, t1_us, t2_us):
    # the kernel steps the rates it is given: held at each segment's peak,
    # the generators of _lindblad_segments are constant, and exp(L T) exact
    device = DeviceParams(T1_us=t1_us, T2_star_us=t2_us)
    for _ in range(3):
        sched = synthesize(random_spec(rng), 10.0)
        segments = [(h, np.full(w_full.shape, seg.peak_amplitude),
                     np.full(w_half.shape, seg.peak_amplitude), a, b)
                    for seg, (h, w_full, w_half, a, b) in zip(
                        sched,
                        _lindblad_segments([sched], device, 0.01))]
        for s in rk4_steps(np.eye(4, dtype=complex)[None], segments):
            pass
        want = _expm_superop(sched, t1_us * 1e3, t2_us * 1e3)
        assert np.abs(s[0] - want).max() < 1e-8


@pytest.mark.parametrize("t1_us, t2_us", STRENGTHS)
def test_evolve_lindblad_trajectory_matches_ode_oracle(rng, t1_us, t2_us):
    device = DeviceParams(T1_us=t1_us, T2_star_us=t2_us)
    sched = synthesize(random_spec(rng), 10.0)
    rho0 = _random_density(rng)
    times, rhos = evolve_lindblad(sched, rho0, device, dt=0.01)
    y = rho0.reshape(-1).astype(complex)
    t_off = 0.0
    checked = 0
    for seg in sched:
        # every quarter of the segment, its end included
        local = np.linspace(0.0, seg.duration, 5)[1:]
        sol = solve_ivp(_master_rhs(seg, t1_us * 1e3, t2_us * 1e3),
                        (0.0, seg.duration), y, method="DOP853",
                        t_eval=local, rtol=1e-12, atol=1e-14)
        assert sol.success
        for t, y_t in zip(local, sol.y.T):
            k = int(np.argmin(np.abs(times - (t_off + t))))
            assert abs(times[k] - (t_off + t)) < 1e-9
            assert np.abs(rhos[k] - y_t.reshape(2, 2)).max() < 1e-8
            checked += 1
        y = sol.y[:, -1]
        t_off += seg.duration
    assert checked == 12
