import copy
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgate.channels import DepolarizingNoise, GateChannelCache, vec
from geomgate.cli import _write_json
from geomgate.evolution import DeviceParams
from geomgate.qcore import (GATE_NAMES, KET0, PAULIS, SIGMA_X, GateSpec,
                            axis_angle_unitary, density_of, named_gate)
from geomgate.tomography import (PREP_GATE_NAMES, chi_to_csv, confusion,
                                 ideal_chi, measure_expectations,
                                 pauli_coefficients, process_fidelity,
                                 qpt_report, qpt_specs, reconstruct_chi,
                                 reconstruct_state, run_qpt, sample_outcomes)

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# input states

def _ideal_inputs():
    """The density matrices of the ideal preparation gates of
    ``PREP_GATE_NAMES`` applied to |0>: the four QPT inputs, in order."""
    return [density_of(axis_angle_unitary(named_gate(n)) @ KET0)
            for n in PREP_GATE_NAMES]


def test_prepare_input_states_values():
    # |0>, |1>, |-i>, |+> in this order: reconstruct_chi inverts on exactly
    # these four inputs
    want = [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [0, 1]]),
            np.array([[1, 1j], [-1j, 1]]) / 2, np.array([[1, 1], [1, 1]]) / 2]
    got = _ideal_inputs()
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-15


def test_prepare_input_states_informationally_complete():
    gram = np.empty((4, 4), dtype=complex)
    rhos = _ideal_inputs()
    for i in range(4):
        for j in range(4):
            gram[i, j] = np.trace(rhos[i].conj().T @ rhos[j])
    assert abs(np.linalg.det(gram)) > 1e-3


# ---------------------------------------------------------------------------
# measurement

def test_measure_expectations_exact():
    assert np.allclose(measure_expectations(density_of(KET0)), [0, 0, 1],
                       atol=1e-15)
    assert np.allclose(measure_expectations(np.eye(2, dtype=complex) / 2.0),
                       [0, 0, 0], atol=1e-15)


def test_measure_expectations_refuses_bad_shots():
    for shots in (2.5, True, 0):
        with pytest.raises(ValueError, match="shots") as err:
            measure_expectations(density_of(KET0), shots=shots, rng=1)
        assert repr(shots) in str(err.value)


def test_measure_expectations_shot_unbiased(device):
    readout = confusion(device)
    shots = 1_000_000
    got = measure_expectations(density_of(KET0), shots=shots, readout=readout,
                               rng=np.random.default_rng(5))
    # corrected <sz> estimate: sigma from binomial noise through the inverse
    p_meas0 = (np.array([1.0, 0.0]) @ readout)[0]
    sigma = 2.0 * math.sqrt(p_meas0 * (1 - p_meas0) / shots) / (
        readout[0, 0] + readout[1, 1] - 1.0)
    assert abs(got[2] - 1.0) < 3.0 * sigma
    assert abs(got[0]) < 5e-3 and abs(got[1]) < 5e-3


def test_sample_outcomes_one_draw_then_correction(device):
    readout = confusion(device)
    p_true = np.array([0.7, 0.3])
    raw = sample_outcomes(p_true, 1000, np.random.default_rng(4), readout,
                          None)
    # one binomial draw on the confused probabilities, nothing else
    n0 = np.random.default_rng(4).binomial(1000, (p_true @ readout)[0])
    assert raw.tolist() == [n0 / 1000, 1.0 - n0 / 1000]
    unmix = np.linalg.inv(readout)
    fixed = sample_outcomes(p_true, 1000, np.random.default_rng(4), readout,
                            unmix)
    assert np.array_equal(fixed, raw @ np.linalg.inv(readout))


@pytest.mark.parametrize("shots", [1, 64, 1024, 10_000, 2**40, 2**53 + 1])
def test_sample_outcomes_stack_equals_one_row_calls(device, shots):
    # one binomial draw per row, in row order: the same bits, and the same
    # final generator state, as one call per row on a copy of the stream
    readout = confusion(device)
    p0 = np.random.default_rng(3).random(12)
    p_true = np.stack([p0, 1.0 - p0], axis=-1)
    for unmix in (None, np.linalg.inv(readout)):
        stacked = np.random.default_rng(8)
        lone = copy.deepcopy(stacked)
        got = sample_outcomes(p_true.reshape(4, 3, 2), shots, stacked,
                              readout, unmix).reshape(12, 2)
        want = np.array([sample_outcomes(p, shots, lone, readout, unmix)
                         for p in p_true])
        assert got.tobytes() == want.tobytes()
        assert stacked.bit_generator.state == lone.bit_generator.state
    # the raw P(0) is Python's once-rounded n0 / shots; at 2**53 + 1 shots
    # float64(n0) / float64(shots) differs in all 12 rows
    hand = np.random.default_rng(8)
    n0 = [hand.binomial(shots, q) for q in (p_true @ readout)[:, 0]]
    raw = sample_outcomes(p_true, shots, np.random.default_rng(8), readout,
                          None)
    assert raw[:, 0].tolist() == [n / shots for n in n0]


def test_identity_confusion_is_exact():
    # perfect readout draws on p itself and corrects nothing, bit for bit
    assert np.array_equal(confusion(DepolarizingNoise(0.1)), np.eye(2))
    for p0 in (0.0, 1.0, 0.3, 0.5, 1.0 / 3.0, 1.0 - 1e-12):
        for n in (1, 7, 1000):
            n0 = np.random.default_rng(11).binomial(n, p0)
            want = [n0 / n, 1.0 - n0 / n]
            for unmix in (np.linalg.inv(confusion(None)), None):
                got = sample_outcomes(np.array([p0, 1.0 - p0]), n,
                                      np.random.default_rng(11),
                                      confusion(None), unmix)
                assert got.tolist() == want


def test_readout_model_invariants(device):
    mat = confusion(device)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-15)
    assert mat[0, 0] == 0.98 and mat[1, 1] == 0.936
    p = np.array([0.37, 0.63])
    assert np.allclose(p @ mat @ np.linalg.inv(mat), p, atol=1e-12)


def test_reconstruct_state_examples():
    rho, flag = reconstruct_state([0.0, 0.0, 1.0])
    assert not flag
    assert np.allclose(rho, density_of(KET0), atol=1e-15)
    rho, flag = reconstruct_state([0.0, 0.0, 0.0])
    assert not flag
    assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-15)
    rho, flag = reconstruct_state([1.02, 0.0, 0.0])
    assert flag
    want = 0.5 * (PAULIS[0] + PAULIS[1])
    assert np.allclose(rho, want, atol=1e-12)


FIDELITY = st.floats(0.5, 1.0, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(f0=FIDELITY, f1=FIDELITY, p0=st.floats(0.0, 1.0))
def test_readout_correction_inverts_confusion(f0, f1, p0):
    mat = confusion(DeviceParams(1.0, 1.0, readout_f0=f0, readout_f1=f1))
    p = np.array([p0, 1.0 - p0])
    # inverting the confusion amplifies rounding by 1 / det = 1 / (f0 + f1 - 1)
    tol = 4.0 * np.finfo(float).eps / (f0 + f1 - 1.0)
    assert np.abs(p @ mat @ np.linalg.inv(mat) - p).max() <= tol


@settings(max_examples=200, deadline=None)
@given(r=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_reconstruct_state_is_a_state(r):
    rho, flag = reconstruct_state(r)
    assert flag == (np.linalg.norm(r) > 1.0)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() == 0.0
    assert np.linalg.eigvalsh(rho).min() > -1e-12


# ---------------------------------------------------------------------------
# chi reconstruction

def _exact_channel_outputs(kraus, inputs):
    return [sum(k @ rho @ k.conj().T for k in kraus) for rho in inputs]


def _assert_process_matrix(chi):
    """Hermitian, unit trace and positive semidefinite, as the chi of a
    completely positive, trace-preserving channel is."""
    assert np.linalg.norm(chi - chi.conj().T) <= 1e-9
    assert abs(np.trace(chi).real - 1.0) <= 1e-6
    assert np.linalg.eigvalsh(chi).min() >= -1e-6


def test_reconstruct_chi_identity_channel():
    inputs = _ideal_inputs()
    chi = reconstruct_chi(inputs)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    assert np.abs(chi - want).max() < 1e-12


def test_reconstruct_chi_sigma_x_channel():
    inputs = _ideal_inputs()
    outputs = _exact_channel_outputs([SIGMA_X], inputs)
    chi = reconstruct_chi(outputs)
    want = np.zeros((4, 4), dtype=complex)
    want[1, 1] = 1.0
    assert np.abs(chi - want).max() < 1e-12


def test_reconstruct_chi_hadamard_rank_one():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
    inputs = _ideal_inputs()
    outputs = _exact_channel_outputs([h], inputs)
    chi = reconstruct_chi(outputs)
    v = np.array([0.0, 1.0 / SQ2, 0.0, 1.0 / SQ2], dtype=complex)
    assert np.abs(chi - np.outer(v, v.conj())).max() < 1e-12


def test_reconstruct_chi_kraus_pair_oracle():
    # amplitude damping: K0 = diag(1, sqrt(1-g)), K1 = sqrt(g) |0><1|
    g = 0.23
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(g)], [0.0, 0.0]], dtype=complex)
    inputs = _ideal_inputs()
    outputs = _exact_channel_outputs([k0, k1], inputs)
    chi = reconstruct_chi(outputs)
    want = np.zeros((4, 4), dtype=complex)
    for k in (k0, k1):
        c = pauli_coefficients(k)
        want += np.outer(c, c.conj())
    assert np.abs(chi - want).max() < 1e-9
    _assert_process_matrix(chi)


def test_reconstruct_chi_reproduces_outputs(rng):
    from conftest import random_spec
    from geomgate.qcore import axis_angle_unitary

    u = axis_angle_unitary(random_spec(rng))
    inputs = _ideal_inputs()
    outputs = _exact_channel_outputs([u], inputs)
    chi = reconstruct_chi(outputs)
    for rho_in, rho_out in zip(inputs, outputs):
        eps = sum(chi[m, n] * PAULIS[m] @ rho_in @ PAULIS[n].conj().T
                  for m in range(4) for n in range(4))
        assert np.abs(eps - rho_out).max() < 1e-9


def _loop_system(inputs, outputs):
    """The QPT linear system one entry at a time: row (i, a, b) holds
    (E_m rho_i E_n^dag)[a, b] over the 16 columns (m, n)."""
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
    return np.array(rows), np.array(rhs)


def test_reconstruct_chi_matches_least_squares_oracle(rng):
    # the closed form against lstsq of the 16 x 16 linear system, hermitized
    # as reconstruct_chi documents
    inputs = _ideal_inputs()
    for _ in range(20):
        physical = [density_of(v / np.linalg.norm(v)) for v in
                    rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))]
        arbitrary = list(rng.normal(size=(4, 2, 2))
                         + 1j * rng.normal(size=(4, 2, 2)))
        for outputs in (physical, arbitrary):
            a_mat, b_vec = _loop_system(inputs, outputs)
            want = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0].reshape(4, 4)
            want = 0.5 * (want + want.conj().T)
            assert np.abs(reconstruct_chi(outputs) - want).max() < 1e-13


def test_process_fidelity_examples():
    chi_h = ideal_chi(named_gate("H"))
    assert process_fidelity(chi_h, chi_h) == pytest.approx(1.0, abs=1e-12)
    chi_i = ideal_chi(named_gate("I"))
    chi_x = ideal_chi(named_gate("Rx(pi)"))
    assert process_fidelity(chi_i, chi_x) == pytest.approx(0.0, abs=1e-12)


def test_ideal_chi_phase_invariant(rng):
    from conftest import random_spec

    spec = random_spec(rng)
    from geomgate.qcore import axis_angle_unitary

    u = axis_angle_unitary(spec)
    c1 = pauli_coefficients(u)
    c2 = pauli_coefficients(np.exp(0.7j) * u)
    assert np.abs(np.outer(c1, c1.conj()) - np.outer(c2, c2.conj())).max() < 1e-12


# ---------------------------------------------------------------------------
# full pipeline

def test_run_qpt_noiseless_exact_all_gates():
    cache = GateChannelCache()
    for name in GATE_NAMES:
        res = run_qpt(name, channels=cache)
        assert abs(res.fidelity - 1.0) < 1e-6
        _assert_process_matrix(res.chi)


def test_qpt_device_free_inputs_are_the_ideal_states():
    # without a device the compiled preparations still supply the inputs,
    # and they are the ideal states to rounding
    cache = GateChannelCache()
    inputs = cache.stack(qpt_specs([]), None)[:, :, 0]
    ideal = [vec(rho) for rho in _ideal_inputs()]
    assert np.abs(inputs - ideal).max() <= 1e-15
    for name in GATE_NAMES:
        res = run_qpt(name, channels=cache)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.projected_count == 0


def test_qpt_gates_draw_independent_shot_noise(device):
    # each gate's shots come from its own stream, so across seeds the F_P
    # residuals of two gates are uncorrelated to within sampling error
    cache = GateChannelCache()
    cache.stack(qpt_specs(GATE_NAMES), device)
    seeds = range(40)
    fids = np.array([[run_qpt(g, device, 1024, seed, cache).fidelity
                      for seed in seeds] for g in GATE_NAMES])
    corr = np.corrcoef(fids)[np.triu_indices(len(GATE_NAMES), 1)]
    assert np.abs(corr).max() < 3.0 / math.sqrt(len(seeds))


@pytest.mark.parametrize("shots", [None, 64, 1024])
def test_run_qpt_equals_a_loop_over_preparations_and_axes(device, shots):
    # QPT's reports rest on this, bit for bit: one matrix-vector product per
    # preparation and, with shots, one one-row draw per (preparation, axis),
    # on the gate's keyed stream, corrected by the inverse of
    # confusion(device)
    cache = GateChannelCache()
    spec = named_gate("H")
    sops = cache.stack(qpt_specs([spec]), device)
    readout = confusion(device)
    unmix = np.linalg.inv(readout)
    angles = np.array([spec.theta, spec.phi, spec.gamma]) + 0.0
    rng = np.random.default_rng([7, *angles.view(np.uint64).tolist()])
    outputs = []
    for sop in sops[1:]:
        rho = (sops[0] @ sop[:, 0]).reshape(2, 2)
        expect = []
        for pauli in PAULIS[1:]:
            ev = np.trace(rho @ pauli).real
            if shots is not None:
                est = sample_outcomes(np.array([(1.0 + ev) / 2.0,
                                                (1.0 - ev) / 2.0]),
                                      shots, rng, readout, unmix)
                ev = est[0] - est[1]
            expect.append(ev)
        outputs.append(reconstruct_state(expect)[0])
    got = run_qpt(spec, device, shots, 7, cache)
    assert got.chi.tobytes() == reconstruct_chi(outputs).tobytes()


def test_run_qpt_shot_mode_reproducible():
    a = run_qpt("H", shots=2048, seed=9)
    b = run_qpt("H", shots=2048, seed=9)
    assert a.fidelity == b.fidelity
    assert np.array_equal(a.chi, b.chi)


def test_run_qpt_refuses_bad_seed():
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed") as err:
            run_qpt("H", shots=16, seed=seed)
        assert repr(seed) in str(err.value)


def test_run_qpt_refuses_bad_shots():
    # 2**63 is one more trial than Generator.binomial takes
    for shots in (2.5, True, "3", math.inf, 0, 2**63):
        with pytest.raises(ValueError, match="shots") as err:
            run_qpt("H", shots=shots, seed=1)
        assert repr(shots) in str(err.value)
    result = run_qpt("H", shots=2.0, seed=1)
    assert result.shots == 2 and type(result.shots) is int


def test_run_qpt_noisy_monotone_in_gamma1():
    fids = []
    for t1 in (40.0, 10.0, 2.5):
        dev = DeviceParams(T1_us=t1, T2_star_us=1e9)
        fids.append(run_qpt("I", device=dev).fidelity)
    assert fids[0] > fids[1] > fids[2]


def test_run_qpt_accepts_spec_and_name():
    a = run_qpt("H")
    b = run_qpt(named_gate("H"))
    assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
    # a spec equal to a named gate, -0.0 angle and all, draws its stream
    spec = GateSpec(0.0, -0.0, math.pi)
    assert spec == named_gate("Rz(pi)")
    assert np.array_equal(run_qpt(spec, shots=64, seed=2).chi,
                          run_qpt("Rz(pi)", shots=64, seed=2).chi)


def test_run_qpt_noisy_prep_uses_pulses(device):
    # with a device, even the identity gate shows SPAM-pulse infidelity
    res = run_qpt("I", device=device)
    assert 0.99 < res.fidelity < 0.9999


def test_qpt_report_round_trip(tmp_path):
    res = run_qpt("H", shots=1024, seed=3)
    path = tmp_path / "qpt.json"
    _write_json(qpt_report(res, gate_name="H"), path)
    data = json.loads(path.read_text())
    assert data["gate"] == "H"
    assert data["mode"] == "shots:1024"
    chi = np.array(data["chi_real"]) + 1j * np.array(data["chi_imag"])
    assert np.abs(chi - res.chi).max() < 1e-15
    assert data["fidelity"] == res.fidelity


def test_chi_csv(tmp_path):
    res = run_qpt("H")
    path = tmp_path / "chi.csv"
    chi_to_csv(res.chi, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "re", "im"]
    assert len(rows) == 17
    # chi_xx entry of the Hadamard channel is 1/2
    xx = [r for r in rows if r[0] == "X" and r[1] == "X"][0]
    assert float(xx[2]) == pytest.approx(0.5, abs=1e-9)
