import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgate.benchmarking import _recoveries, sample_sequence
from geomgate.errors import NonUnitaryInput, UnknownGateName
from geomgate.qcore import (GateSpec, I2, KET0,
                            PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                            axis_angle_unitary, axis_eigenstates,
                            clifford_group, clifford_index_of,
                            clifford_tables, density_of, named_gate,
                            phase_distance, unitary_to_axis_angle)

from conftest import STANDARD_GATES, random_spec

SQ2 = math.sqrt(2.0)


def test_pauli_algebra_exhaustive():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for j in range(3):
            want = (I2 if i == j else np.zeros((2, 2))) + 1j * sum(
                eps[i, j, k] * PAULIS[k + 1] for k in range(3))
            got = PAULIS[i + 1] @ PAULIS[j + 1]
            assert np.allclose(got, want, atol=1e-15)


def test_pauli_predicates():
    for p in PAULIS:
        assert np.array_equal(p, p.conj().T)
        assert np.array_equal(p.conj().T @ p, I2)
    for p in PAULIS[1:]:
        assert np.trace(p) == 0


def test_axis_angle_zero_rotation_is_identity():
    assert np.allclose(axis_angle_unitary(GateSpec(0, 0, 0)), I2, atol=0)


def test_axis_angle_pauli_rotation():
    got = axis_angle_unitary(GateSpec(math.pi / 2, 0.0, math.pi))
    assert np.allclose(got, -1j * SIGMA_X, atol=1e-15)


def test_axis_angle_hadamard():
    # oracle: -i (sx + sz)/sqrt(2) times H^dag equals -i I
    m = -1j * (SIGMA_X + SIGMA_Z) / SQ2
    h = STANDARD_GATES["H"]
    assert np.allclose(m @ h.conj().T, -1j * I2, atol=1e-15)
    got = axis_angle_unitary(GateSpec(math.pi / 4, 0.0, math.pi))
    assert np.allclose(got, m, atol=1e-15)
    assert phase_distance(got, h) < 1e-12


def test_unitary_to_axis_angle_rz_pi():
    spec = unitary_to_axis_angle(-1j * SIGMA_Z)
    assert spec.theta == pytest.approx(0.0, abs=1e-12)
    assert spec.phi == pytest.approx(0.0, abs=1e-12)
    assert spec.gamma == pytest.approx(math.pi, abs=1e-12)


def test_unitary_to_axis_angle_strips_global_phase():
    u = np.exp(1j * math.pi / 7) * I2
    spec = unitary_to_axis_angle(u)
    assert (spec.theta, spec.phi, spec.gamma) == (0.0, 0.0, 0.0)


def test_unitary_to_axis_angle_hadamard_round_trip():
    spec = unitary_to_axis_angle(STANDARD_GATES["H"])
    assert spec.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert spec.phi == pytest.approx(0.0, abs=1e-12)
    assert spec.gamma == pytest.approx(math.pi, abs=1e-12)
    assert phase_distance(axis_angle_unitary(spec), STANDARD_GATES["H"]) < 1e-12


def test_unitary_to_axis_angle_rejects_nonunitary():
    with pytest.raises(NonUnitaryInput):
        unitary_to_axis_angle(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))


def test_round_trip_1000_random_specs(rng):
    for _ in range(1000):
        spec = random_spec(rng)
        u = axis_angle_unitary(spec)
        back = unitary_to_axis_angle(u)
        assert phase_distance(axis_angle_unitary(back), u) < 1e-10
        assert 0.0 <= back.theta <= math.pi
        assert -math.pi <= back.phi < math.pi
        assert -2 * math.pi < back.gamma <= 2 * math.pi


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.0, math.pi),
       phi=st.floats(-math.pi, math.pi, exclude_max=True),
       gamma=st.floats(-2 * math.pi, 2 * math.pi, exclude_min=True))
def test_round_trip_property(theta, phi, gamma):
    spec = GateSpec(theta, phi, gamma)
    u = axis_angle_unitary(spec)
    assert phase_distance(axis_angle_unitary(unitary_to_axis_angle(u)), u) < 1e-10


def test_axis_angle_of_a_rotation_about_minus_x_has_phi_minus_pi():
    # atan2 gives +pi for the axis (-1, +0, 0); GateSpec folds it to -pi
    for gamma in (0.5, math.pi / 2, math.pi, 3.0):
        u = math.cos(gamma / 2) * I2 + 1j * math.sin(gamma / 2) * SIGMA_X
        spec = unitary_to_axis_angle(u)
        assert (spec.theta, spec.phi) == (math.pi / 2, -math.pi)
        assert spec.gamma == pytest.approx(gamma, abs=1e-15)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(-0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        GateSpec(0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        GateSpec(0.0, 0.0, 7.0)
    # boundary folding: phi = pi wraps to -pi, gamma = -2*pi folds to +2*pi
    assert GateSpec(0.1, math.pi, 0.0).phi == pytest.approx(-math.pi)
    folded = GateSpec(0.1, 0.0, -2.0 * math.pi)
    assert folded.gamma == pytest.approx(2.0 * math.pi)


def test_named_gates_match_standard_matrices():
    for name, matrix in STANDARD_GATES.items():
        spec = named_gate(name)
        assert phase_distance(axis_angle_unitary(spec), matrix) < 1e-12


def test_named_gate_examples():
    spec = named_gate("Rx(pi/2)")
    assert (spec.theta, spec.phi, spec.gamma) == (math.pi / 2, 0.0, math.pi / 2)
    spec = named_gate("Ry(pi)")
    assert (spec.theta, spec.phi, spec.gamma) == (math.pi / 2, math.pi / 2, math.pi)


def test_named_gate_unknown():
    # a name is spelled exactly as in GATE_NAMES: no case or space folding
    for name in ("T", "h", "rx (pi)", "Rx (pi)", "RX(PI)"):
        with pytest.raises(UnknownGateName):
            named_gate(name)


def test_axis_eigenstates_are_eigenvectors(rng):
    for _ in range(50):
        spec = random_spec(rng)
        n = spec.axis
        ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
        plus, minus = axis_eigenstates(spec)
        assert abs(np.vdot(plus, plus) - 1.0) < 1e-12
        assert abs(np.vdot(minus, minus) - 1.0) < 1e-12
        assert np.allclose(ns @ plus, plus, atol=1e-12)
        assert np.allclose(ns @ minus, -minus, atol=1e-12)
        assert abs(np.vdot(plus, minus)) < 1e-12


def test_density_helpers(rng):
    assert np.array_equal(density_of(KET0), np.diag([1.0, 0.0]))
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    rho = density_of(psi)
    # a pure state: hermitian, unit trace, eigenvalues 0 and 1
    assert np.abs(rho - rho.conj().T).max() < 1e-15
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(np.linalg.eigvalsh(rho), [0.0, 1.0], atol=1e-12)


def test_phase_distance_examples():
    assert phase_distance(I2, I2) == 0.0
    assert phase_distance(I2, np.exp(1j * math.pi / 3) * I2) < 1e-15
    assert phase_distance(I2, SIGMA_X) == pytest.approx(1.0)
    with pytest.raises(NonUnitaryInput):
        phase_distance(I2, 2.0 * I2)


# ---------------------------------------------------------------------------
# Clifford group

def test_clifford_group_basics():
    group = clifford_group()
    assert len(group) == 24
    assert all(isinstance(e, GateSpec) for e in group)
    assert np.allclose(axis_angle_unitary(group[0]), I2, atol=0)
    # pairwise distinct up to phase
    for i in range(24):
        for j in range(i + 1, 24):
            assert phase_distance(axis_angle_unitary(group[i]),
                                  axis_angle_unitary(group[j])) > 1e-6


def test_clifford_closure_and_inverse_exhaustive():
    group = clifford_group()
    compose, inverse = clifford_tables()
    for i in range(24):
        for j in range(24):
            prod = axis_angle_unitary(group[i]) @ axis_angle_unitary(group[j])
            k = int(compose[i, j])
            assert phase_distance(prod, axis_angle_unitary(group[k])) < 1e-10
    for i in range(24):
        inv = int(inverse[i])
        assert phase_distance(axis_angle_unitary(group[i])
                              @ axis_angle_unitary(group[inv]), I2) < 1e-10
        assert compose[i, inv] == 0


def test_clifford_tables_match_pairwise_expansion():
    # the breadth-first expansion written pair by pair with phase_distance;
    # the group must come out bit-identical, in the same order
    half = math.pi / 2.0
    gens = [axis_angle_unitary(GateSpec(half, phi, gamma))
            for phi, gamma in ((0.0, half), (0.0, -half),
                               (half, half), (half, -half))]
    mats = [I2.copy()]
    i = 0
    while i < len(mats):
        for g in gens:
            w = g @ mats[i]
            if all(phase_distance(w, m) > 1e-9 for m in mats):
                mats.append(w)
        i += 1
    assert len(mats) == 24
    specs = [unitary_to_axis_angle(m) for m in mats]
    canon = [axis_angle_unitary(s) for s in specs]

    group = clifford_group()
    assert group == specs
    assert all(np.array_equal(axis_angle_unitary(e), u)
               for e, u in zip(group, canon))

    want_compose = np.array(
        [[int(np.argmin([phase_distance(a @ b, c) for c in canon]))
          for b in canon] for a in canon])
    want_inverse = np.array([int(np.flatnonzero(row == 0)[0])
                             for row in want_compose])
    compose, inverse = clifford_tables()
    assert np.array_equal(compose, want_compose)
    assert np.array_equal(inverse, want_inverse)


def test_clifford_index_of_round_trip():
    for k, e in enumerate(clifford_group()):
        assert clifford_index_of(np.exp(0.3j) * axis_angle_unitary(e)) == k
    with pytest.raises(ValueError):
        clifford_index_of(axis_angle_unitary(GateSpec(0.3, 0.2, 0.7)))


def _nearest_by_phase_distance(u):
    """Index and distance of the element nearest ``u``, one pair at a time."""
    dists = [phase_distance(u, axis_angle_unitary(e))
             for e in clifford_group()]
    k = int(np.argmin(dists))
    return k, dists[k]


def test_clifford_index_of_equals_phase_distance_loop(rng):
    # a rotation by 1e-4 rad moves an element by 1.25e-9, well inside 1e-6
    nudge = axis_angle_unitary(GateSpec(0.3, 0.2, 1e-4))
    for k, e in enumerate(clifford_group()):
        for phase in rng.uniform(-math.pi, math.pi, size=4):
            for u in (np.exp(1j * phase) * axis_angle_unitary(e),
                      np.exp(1j * phase) * nudge @ axis_angle_unitary(e)):
                assert (clifford_index_of(u)
                        == _nearest_by_phase_distance(u)[0] == k)
    for name, u in STANDARD_GATES.items():
        assert clifford_index_of(u) == _nearest_by_phase_distance(u)[0], name
    for _ in range(20):
        u = np.exp(1j * rng.uniform(-math.pi, math.pi)) * axis_angle_unitary(
            random_spec(rng))
        k, dist = _nearest_by_phase_distance(u)
        if dist <= 1e-6:
            assert clifford_index_of(u) == k
            continue
        with pytest.raises(ValueError, match=f"distance {dist:.3g}\\)"):
            clifford_index_of(u)
    with pytest.raises(NonUnitaryInput):
        clifford_index_of(2.0 * I2)


def _recovery(sequence):
    """Reference-RB recovery of one sequence, from the batch fold."""
    return int(_recoveries(np.array([sequence]), np.zeros(1, np.intp))[0, 0])


def test_recovery_identity_and_single():
    group = clifford_group()
    assert _recovery([0]) == 0
    for i in range(24):
        rec = group[_recovery([i])]
        assert phase_distance(axis_angle_unitary(rec)
                              @ axis_angle_unitary(group[i]), I2) < 1e-10
    with pytest.raises(ValueError):
        sample_sequence(0, 0)


def test_recovery_random_length_100(rng):
    group = clifford_group()
    for _ in range(20):
        seq = [int(k) for k in rng.integers(0, 24, size=100)]
        rec = group[_recovery(seq)]
        acc = I2
        for idx in seq:
            acc = axis_angle_unitary(group[idx]) @ acc
        assert phase_distance(axis_angle_unitary(rec) @ acc, I2) < 1e-10
