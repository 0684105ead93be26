import csv
import json
import math
import warnings

import numpy as np
import pytest

from geomgate import benchmarking
from geomgate.benchmarking import (DecayCurve, DecayFit, RbConfig,
                                   _draw_sequences,
                                   _philox_words, _recoveries, _stream_keys,
                                   _stream_opener, decay_to_csv, fit_decay,
                                   fit_report, run_interleaved_rb, run_rb,
                                   run_reference_rb, sample_sequence)
from geomgate.channels import (DepolarizingNoise, GateChannelCache,
                               depolarizing_superop, unitary_superop)
from geomgate.cli import _write_json
from geomgate.config import MAX_RB_DRAWS
from geomgate.errors import NonPhysicalChannel
from geomgate.qcore import (GATE_NAMES, I2, KET0, axis_angle_unitary,
                            clifford_group, clifford_index_of,
                            clifford_tables, density_of, named_gate,
                            phase_distance)
from geomgate.tomography import confusion


def test_rb_config_validation():
    with pytest.raises(ValueError):
        RbConfig(sequence_lengths=())
    with pytest.raises(ValueError):
        RbConfig(sequence_lengths=(4, 2))
    with pytest.raises(ValueError):
        RbConfig(sequence_lengths=(1, 2), randomizations=1)
    # the decay fit has three parameters
    with pytest.raises(ValueError, match="at least 3 sequence lengths"):
        RbConfig(sequence_lengths=(1, 2))
    assert RbConfig(sequence_lengths=(1, 2, 3)).sequence_lengths == (1, 2, 3)
    with pytest.raises(ValueError):
        RbConfig(shots=0)
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed") as err:
            RbConfig(seed=seed)
        assert repr(seed) in str(err.value)
    assert RbConfig(seed=3.0).seed == 3
    # 2**63 is one more trial than Generator.binomial takes
    for shots in (2.5, True, "3", math.inf, 0, -4, 2**63):
        with pytest.raises(ValueError, match="shots") as err:
            RbConfig(shots=shots)
        assert repr(shots) in str(err.value)
    assert RbConfig(shots=2.0).shots == 2
    assert type(RbConfig(shots=2.0).shots) is int
    assert RbConfig(shots=None).shots is None
    assert RbConfig(shots=2**63 - 1).shots == 2**63 - 1


def _rb_shape(draws):
    """RbConfig settings of a run that draws exactly ``draws`` indices."""
    r = next(r for r in range(2, draws) if draws % r == 0 and draws // r >= 6)
    return {"sequence_lengths": (1, 2, draws // r - 3), "randomizations": r}


def test_rb_config_caps_the_drawn_indices():
    # randomizations x sum(lengths) bounds every array of a run; only the
    # settings are checked here, no run is made at the cap
    RbConfig(**_rb_shape(MAX_RB_DRAWS))
    with pytest.raises(ValueError, match=f"> {MAX_RB_DRAWS}"):
        RbConfig(**_rb_shape(MAX_RB_DRAWS + 1))
    # the seed-2 RB workload draws 127,500 indices, far inside the cap
    workload = RbConfig(sequence_lengths=tuple(range(2, 102, 2)),
                        randomizations=50)
    assert (5 * workload.randomizations * sum(workload.sequence_lengths)
            < MAX_RB_DRAWS)


# ---------------------------------------------------------------------------
# sequences

def _lone_stream(seed, li, ri):
    """Stream (seed, li, ri) built by NumPy alone, from its SeedSequence."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seed, li, ri))))


def test_sample_sequence_deterministic():
    a = sample_sequence(20, _lone_stream(7, 0, 0))
    b = sample_sequence(20, _lone_stream(7, 0, 0))
    assert a == b
    c = sample_sequence(20, _lone_stream(7, 0, 1))
    assert a != c


def test_sample_sequence_single():
    _, inverse = clifford_tables()
    for seed in range(10):
        (indices, recovery) = sample_sequence(1, _lone_stream(seed, 0, 0))
        assert recovery == inverse[indices[0]]


def test_sample_sequence_products_close(rng):
    group = clifford_group()
    for k in range(200):
        indices, recovery = sample_sequence(20, _lone_stream(k, 0, 0))
        acc = I2
        for idx in indices:
            acc = axis_angle_unitary(group[idx]) @ acc
        acc = axis_angle_unitary(group[recovery]) @ acc
        assert phase_distance(acc, I2) < 1e-10


def test_sample_sequence_pinned_draws():
    # draws and recoveries of the SeedSequence-keyed streams, recorded when
    # every stream was still built through np.random.SeedSequence
    assert sample_sequence(12, _lone_stream(7, 3, 4)) == (
        [8, 4, 22, 1, 14, 7, 20, 11, 3, 1, 4, 19], 8)
    assert sample_sequence(12, _lone_stream(2, 49, 49)) == (
        [7, 6, 1, 5, 3, 12, 17, 14, 21, 4, 21, 14], 10)
    assert sample_sequence(12, _lone_stream(2**64 + 1, 0, 0)) == (
        [20, 18, 16, 19, 11, 12, 10, 3, 8, 1, 11, 22], 1)


SEEDS = (0, 2, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 1, 2**100 + 3)


def _seeded_philox_state(seed, li, ri):
    return np.random.Philox(
        np.random.SeedSequence((seed, li, ri))).state


def _same_state(a, b):
    """Equal Philox states: counter, key, buffer and the buffered words."""
    return (a["state"]["counter"].tolist() == b["state"]["counter"].tolist()
            and a["state"]["key"].tolist() == b["state"]["key"].tolist()
            and a["buffer"].tolist() == b["buffer"].tolist()
            and [a[k] for k in ("bit_generator", "buffer_pos", "has_uint32",
                                "uinteger")]
            == [b[k] for k in ("bit_generator", "buffer_pos", "has_uint32",
                               "uinteger")])


def test_stream_keys_equal_seed_sequence():
    li = np.array([0, 1, 2, 7, 49, 2**31, 2**32 - 1])[:, None]
    ri = np.array([0, 1, 3, 50, 999, 2**32 - 1])
    for seed in SEEDS:
        keys = _stream_keys(seed, li, ri)
        assert keys.shape == (len(li), len(ri), 2)
        assert keys.dtype == np.uint64
        for a, row in zip(li[:, 0].tolist(), keys):
            for b, key in zip(ri.tolist(), row):
                want = np.random.SeedSequence((seed, a, b)).generate_state(
                    2, np.uint64)
                assert key.tolist() == want.tolist(), (seed, a, b)
        # scalars give one key; a re-keyed stream starts where
        # SeedSequence does, also after a stream that left a half word
        # buffered
        assert _stream_keys(seed, 7, 3).tolist() == keys[3, 2].tolist()
        stream = _stream_opener()
        stream(keys[0, 0]).integers(0, 24, size=3)
        rng = stream(keys[3, 2])
        assert _same_state(rng.bit_generator.state,
                           _seeded_philox_state(seed, 7, 3))
    for bad in ((-1, 0, 0), (0, -1, 0), (0, 0, 2**32), (1.0, 0, 0)):
        with pytest.raises((ValueError, TypeError)):
            _stream_keys(*bad)


def test_philox_words_equal_numpy_philox():
    # random keys; key words at or above 2**63 and at 2**64 - 1, whose
    # Weyl bumps wrap; and the stream with a true Lemire rejection
    keys = np.vstack([
        np.random.default_rng(11).integers(0, 2**64 - 1, size=(40, 2),
                                           dtype=np.uint64, endpoint=True),
        np.array([[2**64 - 1, 2**64 - 1], [2**63, 2**63], [2**64 - 1, 0],
                  [0, 2**63 + 12345], [2**63 - 1, 2**64 - 2], [0, 0]],
                 dtype=np.uint64),
        _stream_keys(217057, 0, 0)[None]])
    # block edges, and the 199 words of the rejection stream at m = 397
    for n in (*range(1, 10), 13, 50, 199):
        words = _philox_words(keys, -(-n // 4))
        assert words.shape == (len(keys), 4 * -(-n // 4))
        assert words.dtype == np.uint64
        for key, row in zip(keys, words):
            want = np.random.Philox(key=key).random_raw(n)
            assert row[:n].tolist() == want.tolist(), (key, n)


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


def _assert_draws_equal_lone_streams(config):
    """Every stream's batch draw equals ``integers(0, 24, size=m)`` on its
    lone stream; return the number of streams the batch drew again through
    ``integers``."""
    lengths, n_rand = config.sequence_lengths, config.randomizations
    keys = _stream_keys(config.seed, np.arange(len(lengths))[:, None],
                        np.arange(n_rand))
    rng = _CountingGenerator(np.random.Philox(0))

    def stream(key):
        rng.bit_generator.state = np.random.Philox(key=key).state
        return rng

    draws = list(_draw_sequences(lengths, keys, stream))
    assert len(draws) == len(lengths)
    for li, (m, idx) in enumerate(zip(lengths, draws)):
        assert idx.shape == (n_rand, m)
        for ri in range(n_rand):
            lone = _lone_stream(config.seed, li, ri)
            assert idx[ri].tolist() == lone.integers(0, 24, size=m).tolist()
    return rng.calls


def _assert_shot_samples_continue_lone_streams(config, device):
    """In shot mode every sample comes from its lone stream right after the
    stream's Clifford indices, as ``_plain_samples`` draws it."""
    if config.shots is None:
        return
    cache = GateChannelCache()
    curve, _ = run_reference_rb(config, device, channels=cache)
    _assert_curve_equals_plain(curve, _plain_samples(config, cache, device))


@pytest.mark.parametrize("shots", [None, 16])
def test_batch_draws_equal_lone_streams(device, shots):
    # odd and even lengths, a single draw, and seeds of one to three words
    for seed in (2**40 + 7, 2**64, 2**64 + 2**33 + 9):
        config = RbConfig(sequence_lengths=(1, 2, 3, 8, 13, 64),
                          randomizations=4, seed=seed, shots=shots)
        # a true rejection (p = 16/2**32 per draw) does not come up here
        assert _assert_draws_equal_lone_streams(config) == 0
        _assert_shot_samples_continue_lone_streams(config, device)


@pytest.mark.parametrize("shots", [None, 16])
def test_rejected_draws_redraw_their_stream(monkeypatch, device, shots):
    # with the threshold at 2**31 half of all draws count as rejected, so
    # about half the one-draw streams and most longer ones are drawn again
    # by Generator.integers from their start
    monkeypatch.setattr(benchmarking, "_LEMIRE_THRESHOLD", 2**31)
    config = RbConfig(sequence_lengths=(1, 2, 5), randomizations=12,
                      seed=2**64 + 1, shots=shots)
    redrawn = _assert_draws_equal_lone_streams(config)
    assert 0 < redrawn < 3 * config.randomizations
    _assert_shot_samples_continue_lone_streams(config, device)


@pytest.mark.parametrize("shots", [None, 16])
def test_true_rejection_redraws_its_stream(device, shots):
    # draw 393 of stream (217057, 0, 0) is a true Lemire rejection: its
    # uint32 word u has (24 u) mod 2**32 < 16, so Generator.integers takes
    # one extra draw. The stream's indices must come from its redraw and,
    # in shot mode, its sample from the stream position after them. At an
    # even length the extra draw takes one more raw word; binomial draws
    # whole words, so only then does the sample show a wrong position
    config = RbConfig(sequence_lengths=(394, 396, 397), randomizations=2,
                      seed=217057, shots=shots)
    assert _assert_draws_equal_lone_streams(config) == 1
    cache = GateChannelCache()
    curve, _ = run_reference_rb(config, device, channels=cache)
    _assert_curve_equals_plain(curve, _plain_samples(config, cache, device))


@pytest.mark.parametrize("m", [1, 2, 3, 64, 100])
def test_recoveries_equal_per_sequence_fold(m):
    idx = np.random.default_rng(m).integers(0, 24, size=(5, m))
    targets = np.arange(24, dtype=np.intp)
    recovery = _recoveries(idx, targets)
    assert recovery.shape == (24, 5)
    compose, _ = clifford_tables()
    for t in range(24):
        for r, row in enumerate(idx.tolist()):
            acc = 0
            for k in row:
                acc = int(compose[t, compose[k, acc]])
            assert compose[recovery[t, r], acc] == 0
    # target 0, the identity, closes the plain sequence: the product of
    # its unitaries is the identity up to phase
    group = clifford_group()
    for r, row in enumerate(idx.tolist()):
        acc = I2
        for k in row + [recovery[0, r]]:
            acc = axis_angle_unitary(group[k]) @ acc
        assert phase_distance(acc, I2) < 1e-10


# ---------------------------------------------------------------------------
# execution

def _survivals(lengths, noise, randomizations, seed=0):
    """Per-randomization survivals of a reference RB run, one row per length."""
    cfg = RbConfig(sequence_lengths=lengths, randomizations=randomizations,
                   seed=seed)
    curve, _ = run_reference_rb(cfg, noise)
    return dict(zip(lengths, curve.samples))


def test_execute_noiseless_survival_is_one():
    for vals in _survivals((1, 2, 30), None, 5).values():
        assert np.abs(vals - 1.0).max() < 1e-9


def test_execute_depolarizing_matches_closed_form():
    lam = 0.03
    survivals = _survivals((1, 2, 5, 10, 40), DepolarizingNoise(lam), 3)
    for m, vals in survivals.items():
        want = 0.5 + 0.5 * (1.0 - lam) ** (m + 1)
        assert np.abs(vals - want).max() < 1e-12


def test_execute_survival_bounds(device):
    survivals = _survivals((3, 4, 50), device, 5, seed=1)
    assert all(-1e-9 < p < 1.0 + 1e-9
               for vals in survivals.values() for p in vals)
    # a short noisy sequence loses a little, but not nothing
    assert 0.99 < survivals[3].min() and survivals[3].max() < 1.0


def test_execute_single_gate_error_scale(device):
    vals = _survivals((1, 2, 3), device, 10)[1]
    # two compiled gates of 30 ns each at the coherence-limited error scale
    assert 0.99 < min(vals) and max(vals) < 0.9999


# ---------------------------------------------------------------------------
# decay fitting

def _curve(lengths, values, stderrs=None):
    values = np.asarray(values, dtype=float)
    if stderrs is None:
        stderrs = np.zeros_like(values)
    return DecayCurve(lengths=tuple(lengths), means=values,
                      stderrs=np.asarray(stderrs),
                      samples=[np.array([v]) for v in values])


def test_fit_decay_exact_model_recovery():
    m = np.arange(1, 101)
    vals = 0.5 * np.power(0.99, m) + 0.5
    fit = fit_decay(_curve(m, vals))
    assert abs(fit.p - 0.99) < 1e-6
    assert abs(fit.A - 0.5) < 1e-6
    assert abs(fit.B - 0.5) < 1e-6
    assert fit.converged and not fit.degenerate


def test_fit_decay_constant_curve_degenerate():
    fit = fit_decay(_curve([1, 2, 4, 8], np.ones(4)))
    assert fit.degenerate
    assert fit.p == 1.0
    assert fit.A + fit.B == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_needs_three_lengths():
    with pytest.raises(ValueError):
        fit_decay(_curve([1, 2], [1.0, 0.9]))


def test_fit_decay_retries_a_singular_solve(monkeypatch):
    # a LinAlgError raises the damping and tries again
    solve = np.linalg.solve
    calls = []

    def flaky(a, b):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", flaky)
    m = [1, 2, 4, 8, 16, 32, 64]
    fit = fit_decay(_curve(m, 0.5 * np.power(0.97, m) + 0.5))
    assert len(calls) > 1
    assert fit.converged and abs(fit.p - 0.97) < 1e-12


def test_fit_decay_stops_when_no_step_lowers_the_cost():
    # a NaN mean makes every trial cost NaN, so no damped step is taken
    m = [1, 2, 4, 8, 16, 32, 64]
    vals = 0.5 * np.power(0.97, m) + 0.5
    vals[3] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_decay(_curve(m, vals))
    assert caught == []
    assert fit.converged is False and fit.iterations == 1


def test_fit_decay_diverges_on_pathological_data():
    vals = [0.99734343, 0.99586727, 0.99320957, 0.98744443]
    fit = fit_decay(_curve([1, 2, 4, 8], vals))
    assert fit.converged is False


def test_fit_decay_weighted_smoke(rng):
    m = np.arange(1, 51)
    truth = 0.45 * np.power(0.97, m) + 0.52
    noise = rng.normal(0.0, 0.004, size=m.size)
    stderr = np.full(m.size, 0.004)
    fit = fit_decay(_curve(m, truth + noise, stderr), weighted=True)
    assert abs(fit.p - 0.97) < 5e-3


def test_fit_decay_binomial_calibration(rng):
    m = np.arange(1, 101)
    truth = 0.5 * np.power(0.99, m) + 0.5
    hits = 0
    for _ in range(20):
        sampled = rng.binomial(1000, truth) / 1000.0
        fit = fit_decay(_curve(m, sampled))
        hits += abs(fit.p - 0.99) <= 0.002
    assert hits >= 18


# ---------------------------------------------------------------------------
# reference RB

def test_reference_rb_noiseless():
    cfg = RbConfig(sequence_lengths=(1, 2, 4, 8), randomizations=3, seed=1)
    curve, fit = run_reference_rb(cfg, None)
    assert np.allclose(curve.means, 1.0, atol=1e-9)
    assert 1.0 - fit.p < 1e-6
    assert fit_report(fit)["F_avg"] == pytest.approx(1.0, abs=1e-6)


def test_reference_rb_reproducible(device):
    cfg = RbConfig(sequence_lengths=(1, 4, 8), randomizations=4, seed=5)
    cache = GateChannelCache()
    a = run_reference_rb(cfg, device, channels=cache)
    b = run_reference_rb(cfg, device, channels=cache)
    assert np.array_equal(a[0].means, b[0].means)
    assert np.array_equal(a[0].stderrs, b[0].stderrs)
    assert a[1].p == b[1].p


def test_reference_rb_depolarizing_equivalence():
    lam = 0.02
    cfg = RbConfig(sequence_lengths=(1, 2, 4, 6, 8, 12, 16, 24, 32, 48),
                   randomizations=5, seed=3)
    _, fit = run_reference_rb(cfg, DepolarizingNoise(lam))
    assert abs(fit.p - (1.0 - lam)) < 1e-4
    assert fit_report(fit)["r"] == pytest.approx(lam / 2.0, abs=1e-4)


def test_rb_result_identities():
    ref = DecayFit(A=0.5, B=0.5, p=0.994, residual_norm=0.0, converged=True)
    report = fit_report(ref)
    assert report["r"] == pytest.approx(0.003, abs=1e-12)
    assert report["F_avg"] == pytest.approx(0.997, abs=1e-12)
    inter = DecayFit(A=0.5, B=0.5, p=0.992, residual_norm=0.0, converged=True)
    report = fit_report(ref, inter)
    assert report["p_g"] == 0.992
    assert report["F_g"] == pytest.approx(1.0 - (1.0 - 0.992 / 0.994) / 2.0,
                                          abs=1e-12)


def test_reference_rb_shot_mode_with_readout(device):
    cfg = RbConfig(sequence_lengths=(1, 2, 4), randomizations=4, seed=2,
                   shots=4096)
    curve, fit = run_reference_rb(cfg, device)
    assert np.all(curve.means > 0.9)
    assert np.all(curve.stderrs >= 0.0)
    # same seed reproduces bit-identically
    curve2, _ = run_reference_rb(cfg, device)
    assert np.array_equal(curve.means, curve2.means)


# ---------------------------------------------------------------------------
# interleaved RB

def test_interleaved_identity_noiseless():
    cfg = RbConfig(sequence_lengths=(1, 2, 4, 8), randomizations=3, seed=4)
    (_, ref), (_, fit) = run_rb(cfg, ["I"], None)
    assert fit_report(ref, fit)["F_g"] == pytest.approx(1.0, abs=1e-6)


def test_interleaved_depolarizing_target_recovers_half_lambda():
    lam = 0.01
    cfg = RbConfig(sequence_lengths=(1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96),
                   randomizations=6, seed=5)
    target_sop = (depolarizing_superop(lam)
                  @ unitary_superop(axis_angle_unitary(named_gate("H"))))
    (_, ref), (_, fit) = run_rb(cfg, [("H", target_sop)], None)
    report = fit_report(ref, fit)
    assert abs(report["F_g"] - (1.0 - lam / 2.0)) < 1e-3
    assert abs(report["p_g"] - (1.0 - lam)) < 1e-6


def test_interleaved_device_gate_fidelity(device):
    cfg = RbConfig(sequence_lengths=(2, 8, 16, 32, 64), randomizations=8,
                   seed=6)
    cache = GateChannelCache()
    (_, ref), (_, fit) = run_rb(cfg, ["H"], device, channels=cache)
    assert 0.99 < fit_report(ref, fit)["F_g"] <= 1.0


# ---------------------------------------------------------------------------
# batched execution against a plain per-sequence loop

def _plain_samples(config, channels, device, target=None):
    """Survival samples of every sequence, one sequence and one gate at a time.

    ``target`` is None for reference RB, or the (name, superop) pair of the
    gate interleaved after every Clifford. Clifford channels come from one
    ``stack`` of the group and act as one matvec each; the recovery is
    folded by scalar table lookups; the shot sample is drawn from the
    sequence's own stream right after its Clifford indices.
    """
    table = channels.stack(clifford_group(), device)
    compose, inverse = clifford_tables()
    if target is not None:
        name, target = target
        target_index = clifford_index_of(axis_angle_unitary(named_gate(name)))
    readout = confusion(device)
    samples = []
    for li, m in enumerate(config.sequence_lengths):
        vals = []
        for ri in range(config.randomizations):
            rng = _lone_stream(config.seed, li, ri)
            acc = 0
            v = density_of(KET0).reshape(4)
            for idx in rng.integers(0, 24, size=m):
                v = table[idx] @ v
                acc = int(compose[idx, acc])
                if target is not None:
                    v = target @ v
                    acc = int(compose[target_index, acc])
            v = table[int(inverse[acc])] @ v
            p0 = float(v[0].real)
            if config.shots is None:
                if -1e-9 < p0 < 0.0:
                    p0 = 0.0
                elif 1.0 < p0 < 1.0 + 1e-9:
                    p0 = 1.0
                vals.append(p0)
                continue
            probs = np.array([p0, 1.0 - p0]) @ readout
            n0 = rng.binomial(config.shots, min(max(probs[0], 0.0), 1.0))
            est = (np.array([n0 / config.shots, 1.0 - n0 / config.shots])
                   @ np.linalg.inv(readout))
            vals.append(float(est[0]))
        samples.append(np.array(vals))
    return samples


def _target_channel(channels, name, device):
    """The channel ``run_rb`` interleaves for target H or Rz(pi): H, a few
    ulp from its Clifford element, runs that element's channel; Rz(pi) is
    no element's angles and runs its own pulse."""
    spec = named_gate(name)
    if name == "H":
        k = clifford_index_of(axis_angle_unitary(spec))
        spec = clifford_group()[k]
        assert spec != named_gate(name)
    else:
        assert name == "Rz(pi)"
    return channels.stack([spec], device)[0]


def _assert_curve_equals_plain(curve, samples):
    assert len(curve.samples) == len(samples)
    for got, want in zip(curve.samples, samples):
        assert np.array_equal(got, want)
    assert np.array_equal(curve.means, [s.mean() for s in samples])


@pytest.mark.parametrize("shots", [None, 512])
def test_batched_rb_equals_per_sequence_loop(device, shots):
    cfg = RbConfig(sequence_lengths=(1, 2, 5, 9), randomizations=5, seed=11,
                   shots=shots)
    cache = GateChannelCache()
    curve, ref_fit = run_reference_rb(cfg, device, channels=cache)
    _assert_curve_equals_plain(curve, _plain_samples(cfg, cache, device))

    # by the target rule, H runs its Clifford's channel and Rz(pi) its own
    # pulse
    for name in ("H", "Rz(pi)"):
        icurve, _ = run_interleaved_rb(cfg, name, device, channels=cache)
        target = (name, _target_channel(cache, name, device))
        _assert_curve_equals_plain(
            icurve, _plain_samples(cfg, cache, device, target))

    override = (depolarizing_superop(0.01)
                @ unitary_superop(axis_angle_unitary(named_gate("Rx(pi/2)"))))
    # a given superop runs in place of the target's channel
    icurve, _ = run_interleaved_rb(cfg, "Rx(pi/2)", device,
                                   target_superop=override, channels=cache)
    _assert_curve_equals_plain(
        icurve, _plain_samples(cfg, cache, device, ("Rx(pi/2)", override)))

    # one run of every curve on shared draws equals each curve on its own
    targets = ["H", "Rz(pi)", ("Rx(pi/2)", override)]
    runs = run_rb(cfg, targets, device, channels=cache)
    assert len(runs) == 1 + len(targets)
    _assert_curve_equals_plain(runs[0][0], _plain_samples(cfg, cache, device))
    assert runs[0][1].p == ref_fit.p
    for target, (icurve, ifit) in zip(targets, runs[1:]):
        if isinstance(target, str):
            target = (target, _target_channel(cache, target, device))
        _assert_curve_equals_plain(
            icurve, _plain_samples(cfg, cache, device, target))
        report = fit_report(runs[0][1], ifit)
        assert report["p_g"] == ifit.p and report["p"] == ref_fit.p


def test_out_of_band_survival_is_non_physical():
    # a gain of 1.01 lifts survivals to 1.01-1.08, far past integrator dust:
    # the exact-mode clip must refuse them, not fold them into a fit, and
    # shot mode too, whose sampling would clamp them into [0, 1]
    h = unitary_superop(axis_angle_unitary(named_gate("H")))
    for shots in (None, 64):
        with pytest.raises(NonPhysicalChannel, match="outside"):
            run_rb(RbConfig(sequence_lengths=(1, 2, 4, 8), randomizations=3,
                            shots=shots), [("H", 1.01 * h)])


def test_interleaved_rb_equals_its_run_rb_entry(device):
    cfg = RbConfig(sequence_lengths=(1, 2, 4, 8, 16), randomizations=4,
                   seed=3)
    cache = GateChannelCache()
    (_, ref_fit), _, (curve, fit) = run_rb(
        cfg, ["Rz(pi)", "H"], device, channels=cache)
    icurve, ifit = run_interleaved_rb(cfg, "H", device, channels=cache)
    assert np.array_equal(icurve.means, curve.means)
    assert np.array_equal(icurve.stderrs, curve.stderrs)
    assert ifit == fit
    assert run_reference_rb(cfg, device, channels=cache)[1] == ref_fit


# ---------------------------------------------------------------------------
# sampled means against the exact ensemble average

def _average_survival(lengths, cliffords, target=None, target_index=0):
    """Mean survival over all 24**m Clifford sequences of each length m,
    after Magesan, Gambetta & Emerson, PRL 106, 180504 (2011); no sequence
    is drawn. ``v[g]`` sums the noisy vec(rho) of the sequences whose ideal
    product is g; one step applies the 96 x 96 transfer map
    M[(h, i), (g, j)] = sum_c [dest[c, g] = h] (T S_c)[i, j] / 24, with T
    the ``target`` channel (the identity if None) and dest[c, g] =
    compose[t, compose[c, g]], and the recovery of g is inverse[g]."""
    compose, inverse = clifford_tables()
    dest = compose[target_index][compose]  # dest[c, g]
    steps = cliffords if target is None else target @ cliffords  # T S_c
    hits = (dest[:, None, :] == np.arange(24)[:, None]).astype(float)
    transfer = np.einsum("chg,cij->higj", hits, steps).reshape(96, 96) / 24
    v = np.zeros(96, dtype=complex)
    v[:4] = density_of(KET0).reshape(4)  # v[g = 0]
    means, done = [], 0
    for m in lengths:
        for _ in range(m - done):
            v = transfer @ v
        done = m
        means.append(np.einsum("gj,gj->", cliffords[inverse, 0],
                               v.reshape(24, 4)).real)
    return np.array(means)


def _target_index(name):
    return clifford_index_of(axis_angle_unitary(named_gate(name)))


def test_sampled_rb_means_match_the_exact_ensemble_average(device):
    cache = GateChannelCache()
    cliffords = cache.stack(clifford_group(), device)
    # each target's channel is given, so the oracle runs the same one
    targets = [(name, cache.stack([named_gate(name)], device)[0])
               for name in GATE_NAMES]
    cfg = RbConfig(sequence_lengths=tuple(range(2, 102, 2)),
                   randomizations=50, seed=2)
    curves = [curve for curve, _ in run_rb(cfg, targets, device, cache)]
    exact = [_average_survival(cfg.sequence_lengths, cliffords)] + [
        _average_survival(cfg.sequence_lengths, cliffords, sop,
                          _target_index(name)) for name, sop in targets]
    for curve, want in zip(curves, exact):
        z = (curve.means - want) / curve.stderrs
        assert 0.7 <= math.sqrt(np.mean(z**2)) <= 1.3
        assert np.abs(z).max() < 4.0


def test_exact_ensemble_average_of_depolarizing_gates_is_closed_form():
    s = 0.03
    noise = DepolarizingNoise(s)
    cache = GateChannelCache()
    cliffords = cache.stack(clifford_group(), noise)
    (h,) = cache.stack([named_gate("H")], noise)
    m = np.arange(2, 102, 2)
    reference = _average_survival(m, cliffords)
    interleaved = _average_survival(m, cliffords, h, _target_index("H"))
    # every gate, the recovery included, depolarizes once
    assert np.abs(reference - (0.5 + 0.5 * (1 - s)**(m + 1))).max() < 1e-14
    assert np.abs(interleaved
                  - (0.5 + 0.5 * (1 - s)**(2 * m + 1))).max() < 1e-14


# ---------------------------------------------------------------------------
# reports

def test_decay_csv_round_trip(tmp_path):
    cfg = RbConfig(sequence_lengths=(1, 2, 4), randomizations=3, seed=0)
    curve, _ = run_reference_rb(cfg, None)
    path = tmp_path / "decay.csv"
    decay_to_csv(curve, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "mean_survival", "stderr", "n_random"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 4]
    assert all(float(r[1]) == pytest.approx(1.0, abs=1e-9) for r in rows[1:])


def test_fit_report_round_trip(tmp_path):
    ref = DecayFit(A=0.5, B=0.5, p=0.994, residual_norm=1e-8, converged=True)
    inter = DecayFit(A=0.49, B=0.5, p=0.990, residual_norm=2e-8, converged=True)
    path = tmp_path / "fit.json"
    _write_json(fit_report(ref, inter), path)
    data = json.loads(path.read_text())
    assert data["p"] == 0.994
    assert data["r"] == pytest.approx(0.003)
    assert data["F_avg"] == pytest.approx(0.997)
    assert data["p_g"] == 0.990
    assert data["F_g"] == 1.0 - (1.0 - 0.990 / 0.994) / 2.0
    assert data["converged"] is True
