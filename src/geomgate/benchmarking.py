"""Clifford randomized benchmarking over the compiled geometric gate set.

Reference RB drives |0> through m random Cliffords plus a recovery gate and
fits the mean survival to F(m) = A p^m + B; interleaved RB inserts a fixed
target after every random Clifford. Every Clifford (and the recovery) is
realized as a single three-segment schedule of duration 3T via axis-angle
extraction, so all gates cost the same wall-clock time under noise.
``run_rb`` runs the reference and every interleaved target as one batch;
``run_reference_rb`` and ``run_interleaved_rb`` are single-curve calls of it.

Execution composes per-gate channel superoperators, which is exactly
equivalent to concatenated master-equation integration (the dynamics are
time-local and linear) and keeps long sequences cheap. Each (length,
randomization) draws its Clifford indices once per run, as
``Generator.integers(0, 24)`` would from its Philox stream keyed by
``SeedSequence((seed, li, ri))``: vectorized passes compute the keys, the
Philox4x64-10 words and Lemire's method. ``numpy.random`` is loaded only
to redraw a stream with a rejected draw (p = 16/2**32 per draw) and for
shot sampling, where each sequence's stream is drawn past its indices
once and every curve samples from the position right after them, through
``channels.sample_outcomes`` with the confusion matrix's inverse that
``run_rb`` computes once per run (none without readout correction). All
curves and randomizations of a length run as one batch: channels come
from a (24, 4, 4) Clifford table by index, and one integer fold gives
the recoveries of every curve. So every curve is reproducible regardless
of execution order, does not depend on which other curves share its run,
and equals running its sequences one by one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import GateChannelCache, confusion, sample_outcomes, vec
from .config import RbConfig
from .errors import NonPhysicalChannel
from .evolution import DeviceParams, _write_csv
from .qcore import (KET0, axis_angle_unitary, clifford_group,
                    clifford_index_of, clifford_tables, density_of,
                    named_gate)

MAX_FIT_ITERATIONS = 200


@dataclass
class DecayCurve:
    """Per-length survival statistics plus the raw per-randomization values."""

    lengths: tuple[int, ...]
    means: np.ndarray
    stderrs: np.ndarray
    samples: list[np.ndarray] = field(default_factory=list)


@dataclass
class DecayFit:
    """Parameters of F(m) = A p^m + B with fit diagnostics."""

    A: float
    B: float
    p: float
    residual_norm: float
    converged: bool
    degenerate: bool = False
    iterations: int = 0


@dataclass
class RbResult:
    """Figures derived from the fits: r = (1 - p)/2, F_avg = 1 - r, and for
    an interleaved target p_g and F_g = 1 - (1 - p_g / p)/2."""

    reference: DecayFit
    interleaved: DecayFit | None = None
    r: float = field(init=False)
    F_avg: float = field(init=False)
    p_g: float | None = field(init=False, default=None)
    F_g: float | None = field(init=False, default=None)

    def __post_init__(self):
        self.r = (1.0 - self.reference.p) / 2.0
        self.F_avg = 1.0 - self.r
        if self.interleaved is not None:
            self.p_g = self.interleaved.p
            self.F_g = 1.0 - (1.0 - self.p_g / self.reference.p) / 2.0


# ---------------------------------------------------------------------------
# sequences

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word pool
# of uint32 words, run here on uint64 arrays masked to 32 bits
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _stream_keys(seed: int, length_index, rand_index) -> np.ndarray:
    """Philox keys of the streams (seed, length index, randomization index).

    The indices broadcast against each other; the result has their shape
    plus a last axis of 2 words, and each key equals
    ``SeedSequence((seed, li, ri)).generate_state(2, np.uint64)``. The hash
    constants evolve independently of the data, so one pass over arrays
    keys every stream at once.
    """
    seed = operator.index(seed)
    li, ri = np.broadcast_arrays(np.asarray(length_index),
                                 np.asarray(rand_index))
    shape = li.shape
    # flat arrays: uint64 arithmetic wraps silently on arrays, on scalars
    # it warns
    li, ri = li.ravel(), ri.ravel()
    if seed < 0 or not np.all((0 <= li) & (li <= _MASK32)
                              & (0 <= ri) & (ri <= _MASK32)):
        raise ValueError("stream seed and indices must be non-negative, "
                         "with indices below 2**32")
    # the seed's uint32 words, least significant first, then li and ri,
    # padded with zero words to the pool size
    entropy = [np.full(li.shape, (seed >> shift) & _MASK32, dtype=np.uint64)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [li.astype(np.uint64), ri.astype(np.uint64)]
    entropy += [np.zeros(li.shape, dtype=np.uint64)] * (_POOL_SIZE
                                                        - len(entropy))
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): the same hash, with its own constants,
    # over the 4 pool words
    const, mult = _INIT_B, _MULT_B
    state = [hashmix(value) for value in pool]
    # little-endian pairs of uint32 words form the two uint64 key words
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    axis=-1).reshape(shape + (2,))


def _stream_opener():
    """A function ``stream(key)`` that re-keys one shared Philox generator
    to the start of the stream with ``key`` and returns it.

    The generator, and with it ``numpy.random``, is built on the first
    call; its first state dict is reused with only the key swapped.
    """
    rng = start = None

    def stream(key):
        nonlocal rng, start
        if rng is None:
            rng = np.random.Generator(np.random.Philox(0))
            start = rng.bit_generator.state
        start["state"]["key"] = key
        rng.bit_generator.state = start
        return rng

    return stream


_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)
# (stream, block) pairs per pass: fewer calls against less peak memory
_PHILOX_PASS = 2048


def _philox_words(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """Row s is ``Philox(key=keys[s]).random_raw(4 * n_blocks)``.

    Philox4x64-10 (Salmon et al., SC11) on uint64 arrays: block b is the
    counter (b + 1, 0, 0, 0) after ten rounds of 128-bit products of its
    words 0 and 2 with the multipliers (high words from 32-bit halves),
    the key bumped by the Weyl constants between rounds.
    """
    key, mult = keys.T[:, None, :], _PHILOX_MULT[:, None, None]
    # counter words (0, 2) and (1, 3) of each block, alike in every stream
    even = np.zeros((2, n_blocks, 1), dtype=np.uint64)
    even[0, :, 0] = np.arange(1, n_blocks + 1)
    odd = np.zeros_like(even)
    mult_lo, mult_hi = mult & _MASK32, mult >> 32
    for _ in range(10):
        lo, hi = even & _MASK32, even >> 32
        mid = mult_hi * lo + (mult_lo * lo >> 32)
        mid_2 = mult_lo * hi + (mid & _MASK32)
        high = mult_hi * hi + (mid >> 32) + (mid_2 >> 32)
        even, odd = high[::-1] ^ odd ^ key, (mult * even)[::-1]
        key = key + _PHILOX_BUMP[:, None, None]
    # each block's words in counter order 0, 1, 2, 3
    return np.stack([even, odd], axis=1).transpose(3, 2, 0, 1).reshape(
        len(keys), -1)


# Generator.integers(0, 24) draws by Lemire's method: each uint32 word u
# gives the index (24 u) >> 32, and is rejected, to be followed by a fresh
# word, when the low half of 24 u falls below 2**32 % 24
_N_CLIFFORD = 24
_LEMIRE_THRESHOLD = 2**32 % _N_CLIFFORD


def sample_sequence(m: int, rng) -> tuple[list[int], int]:
    """m uniform Clifford indices plus the recovery index closing to I."""
    if m < 1:
        raise ValueError("sequence length must be >= 1")
    idx = np.random.default_rng(rng).integers(0, _N_CLIFFORD, size=(1, m))
    return idx[0].tolist(), int(_recoveries(idx, np.zeros(1, np.intp))[0, 0])


def _draw_sequences(lengths, keys: np.ndarray, stream):
    """Per sequence length, the (R, m) Clifford indices of its R streams.

    ``keys[li, ri]`` is the key of stream (seed, li, ri). The ceil(m/2)
    raw words that ``integers(0, 24, size=m)`` splits into m uint32 draws
    come from ``_philox_words``, one pass per run of consecutive lengths
    with at most ``_PHILOX_PASS`` blocks (or one length), and one Lemire
    pass per length turns them into indices. A stream with a rejected draw
    (p = 16/2**32 per draw) is redrawn by ``stream(key).integers``.
    """
    n_rand = keys.shape[1]
    blocks = [(m + 7) // 8 for m in lengths]  # ceil(ceil(m/2) / 4)
    start = 0
    while start < len(lengths):
        stop = start + 1
        while stop < len(lengths) and ((stop + 1 - start) * n_rand * max(
                blocks[start:stop + 1]) <= _PHILOX_PASS):
            stop += 1
        raw = np.ascontiguousarray(_philox_words(
            keys[start:stop].reshape(-1, 2), max(blocks[start:stop])),
            dtype="<u8").view("<u4")
        for m, row, words in zip(lengths[start:stop], keys[start:stop],
                                 raw.reshape(stop - start, n_rand, -1)):
            scaled = words[:, :m] * np.uint64(_N_CLIFFORD)  # 24 u in uint64
            idx = (scaled >> 32).astype(np.intp)
            rejected = ((scaled & _MASK32) < _LEMIRE_THRESHOLD).any(axis=1)
            for ri in np.flatnonzero(rejected):
                idx[ri] = stream(row[ri]).integers(0, _N_CLIFFORD, size=m)
            yield idx
        start = stop


def _recoveries(idx: np.ndarray, target_indices: np.ndarray) -> np.ndarray:
    """Recovery indices, shape (C, R), closing each row of ``idx`` (R, m)
    to the identity when target Clifford ``target_indices[c]`` follows
    every random one; target 0, the identity, gives the reference
    recovery."""
    compose, inverse = clifford_tables()
    n_curves = len(target_indices)
    # the fold's state s = 24 c + a is curve c with product a so far; one
    # step to Clifford k, flattened over (k, s), is
    # step[k, s] = 24 c + compose[t_c, compose[k, a]]
    curve = _N_CLIFFORD * np.arange(n_curves)[:, None]
    step = (compose[target_indices[None, :, None], compose[:, None, :]]
            + curve).ravel()
    acc = np.broadcast_to(curve, (n_curves, len(idx)))
    for offset in idx.T * (_N_CLIFFORD * n_curves):
        acc = step.take(offset + acc)
    return inverse[acc - curve]


def _apply_sequences(table: np.ndarray, idx: np.ndarray,
                     recovery: np.ndarray, targets=()) -> np.ndarray:
    """P(|0>), shape (C, R), after each row of ``idx`` and its recovery
    ``recovery[c, r]``, starting from |0>.

    The last ``len(targets)`` curves apply their target channel after every
    random Clifford; the others run plain. Channels act as ``T @ v`` on a
    (C, R, 4, 1) stack of state vectors, the same product a lone sequence
    computes, so each row is bit-equal to it.
    """
    v = np.tile(vec(density_of(KET0))[:, None], (*recovery.shape, 1, 1))
    plain = len(recovery) - len(targets)
    targets = np.reshape(targets, (-1, 1, 4, 4))
    for col in idx.T:
        v = np.matmul(table[col], v)
        v[plain:] = np.matmul(targets, v[plain:])
    v = np.matmul(table[recovery], v)
    return v[..., 0, 0].real


# ---------------------------------------------------------------------------
# decay fitting

def _model(m: np.ndarray, a: float, b: float, p: float) -> np.ndarray:
    return a * np.power(p, m) + b


def fit_decay(curve: DecayCurve, weighted: bool = False) -> DecayFit:
    """Damped Gauss-Newton least squares for (A, B, p).

    Start values: B0 = F(m_max), A0 = F(m_min) - B0, p0 from the two-point
    ratio of the first two lengths. Converged when the relative parameter
    change drops below 1e-10; after ``MAX_FIT_ITERATIONS``, or when no
    damped step lowers the cost, the best iterate comes back with
    ``converged=False``. A constant curve is degenerate: p is reported as 1
    with A = 0 and the fit flagged.
    """
    m = np.asarray(curve.lengths, dtype=float)
    f = np.asarray(curve.means, dtype=float)
    if len(m) < 3:
        raise ValueError("need at least 3 sequence lengths to fit")

    if float(np.ptp(f)) < 1e-12:
        return DecayFit(A=0.0, B=float(f.mean()), p=1.0, residual_norm=0.0,
                        converged=True, degenerate=True)

    if weighted and np.all(curve.stderrs > 0):
        w = 1.0 / np.asarray(curve.stderrs, dtype=float)
    else:
        w = np.ones_like(f)

    b0 = f[-1]
    a0 = f[0] - b0
    p0 = 0.95
    if abs(a0) > 1e-12 and abs(f[1] - b0) > 1e-15:
        ratio = (f[1] - b0) / (f[0] - b0)
        if ratio > 0:
            p0 = ratio ** (1.0 / (m[1] - m[0]))
    p0 = min(max(p0, 1e-6), 1.0 - 1e-9)
    if abs(a0) < 1e-12:
        a0 = math.copysign(1e-6, f[0] - f[-1] or 1.0)

    x = np.array([a0, b0, p0])

    def cost(params):
        return float(np.sum((w * (f - _model(m, *params))) ** 2))

    lam = 1e-3
    current = cost(x)
    converged = False
    its = 0
    for its in range(1, MAX_FIT_ITERATIONS + 1):
        a, b, p = x
        resid = w * (f - _model(m, a, b, p))
        pm = np.power(p, m)
        jac = np.column_stack([w * pm, w, w * a * m * np.power(p, m - 1.0)])
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        step = None
        for _ in range(25):
            damp = jtj + lam * (np.diag(np.diag(jtj)) + 1e-12 * np.eye(3))
            try:
                delta = np.linalg.solve(damp, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = x + delta
            trial[2] = min(max(trial[2], 1e-9), 1.0)
            if cost(trial) <= current:
                step = trial
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 10.0
        if step is None:
            break
        rel = float(np.max(np.abs(step - x) / (np.abs(x) + 1e-12)))
        x = step
        current = cost(x)
        if rel < 1e-10:
            converged = True
            break

    return DecayFit(A=float(x[0]), B=float(x[1]), p=float(x[2]),
                    residual_norm=math.sqrt(current), converged=converged,
                    iterations=its)


# ---------------------------------------------------------------------------
# benchmark drivers

def run_rb(config: RbConfig, targets=(), device: DeviceParams | None = None,
           channels: GateChannelCache | None = None
           ) -> list[tuple[DecayCurve, DecayFit, RbResult]]:
    """Reference RB plus one interleaved RB curve per target, fitted.

    Each target is a gate name, or a ``(name, superop)`` pair whose superop,
    when not None, overrides the gate's compiled channel (e.g. a synthetic
    depolarizing stub). A named target whose angles, rounded to 12
    decimals, are those of its own Clifford element (H, Rx(pi) and Ry(pi)
    are a few ulp off) runs that element's channel; any other runs its own
    pulse, as Rz(pi) = (0, 0, pi) does. Gates compile under ``device``
    with the default T and dt unless ``channels``, a cache that may hold
    channels of any noise model, says otherwise. Every curve runs the same
    sequences, drawn once per (length, randomization), and a sampled run
    reads each out through ``confusion(device)``, corrected by its inverse
    when ``readout_correction``. Returns ``(curve, fit, result)`` for the
    reference, then for each target in order.
    """
    channels = channels or GateChannelCache()
    targets = [(t, None) if isinstance(t, str) else tuple(t) for t in targets]
    specs = [named_gate(name) for name, _ in targets]
    # curve 0 is the reference, whose target Clifford 0 is the identity
    target_indices = np.array(
        [0] + [clifford_index_of(axis_angle_unitary(s)) for s in specs],
        dtype=np.intp)
    cliffords = [element.spec for element in clifford_group()]

    def rounded(spec):
        return [round(a, 12) for a in (spec.theta, spec.phi, spec.gamma)]
    runs = [cliffords[k] if rounded(spec) == rounded(cliffords[k]) else spec
            for spec, k in zip(specs, target_indices[1:])]
    sops = channels.stack(cliffords + runs, device)
    target_sops = [own if sop is None else sop
                   for own, (_, sop) in zip(sops[_N_CLIFFORD:], targets)]

    lengths, n_rand = config.sequence_lengths, config.randomizations
    keys = _stream_keys(config.seed, np.arange(len(lengths))[:, None],
                        np.arange(n_rand))
    stream = _stream_opener()
    p0 = np.empty((len(target_indices), len(lengths), n_rand))
    for li, idx in enumerate(_draw_sequences(lengths, keys, stream)):
        p0[:, li] = _apply_sequences(sops[:_N_CLIFFORD], idx,
                                     _recoveries(idx, target_indices),
                                     target_sops)
    # integrator dust at the boundaries is clipped; anything larger is a bug
    if not np.all((-1e-9 < p0) & (p0 < 1.0 + 1e-9)):
        raise NonPhysicalChannel("RB survival outside [0, 1] by more "
                                 "than 1e-9")
    if config.shots is None:
        survival = np.clip(p0, 0.0, 1.0)
    else:
        readout = confusion(device)
        unmix = np.linalg.inv(readout) if config.readout_correction else None
        survival = np.empty_like(p0)
        for li, ri in np.ndindex(p0.shape[1:]):
            # the sequence's stream, drawn past its indices once
            rng = stream(keys[li, ri])
            rng.integers(0, _N_CLIFFORD, size=lengths[li])
            past = rng.bit_generator.state
            for c, p in enumerate(p0[:, li, ri]):
                rng.bit_generator.state = past
                survival[c, li, ri] = sample_outcomes(
                    np.array([p, 1.0 - p]), config.shots, rng, readout,
                    unmix)[0]
    means = survival.mean(axis=2)
    stderrs = survival.std(axis=2, ddof=1) / math.sqrt(n_rand)
    curves = [DecayCurve(lengths=lengths, means=means[c], stderrs=stderrs[c],
                         samples=list(survival[c]))
              for c in range(len(target_indices))]
    weighted = config.shots is not None
    (curve, fit), *rest = [(c, fit_decay(c, weighted)) for c in curves]
    return [(curve, fit, RbResult(fit))] + [
        (icurve, ifit, RbResult(fit, ifit)) for icurve, ifit in rest]


def run_reference_rb(config: RbConfig, device: DeviceParams | None = None,
                     channels: GateChannelCache | None = None
                     ) -> tuple[DecayCurve, DecayFit, RbResult]:
    """Reference RB: sample, execute, average, and fit the decay."""
    (reference,) = run_rb(config, (), device, channels)
    return reference


def run_interleaved_rb(config: RbConfig, target: str,
                       device: DeviceParams | None = None,
                       target_superop: np.ndarray | None = None,
                       channels: GateChannelCache | None = None
                       ) -> tuple[DecayCurve, DecayFit, RbResult]:
    """Interleaved RB of gate ``target``: the ``run_rb`` entry of that one
    target, whose superop ``target_superop`` overrides when not None."""
    return run_rb(config, [(target, target_superop)], device, channels)[1]


# ---------------------------------------------------------------------------
# reports

def decay_to_csv(curve: DecayCurve, path) -> None:
    _write_csv(path, ["m", "mean_survival", "stderr", "n_random"],
               (np.array(curve.lengths), curve.means, curve.stderrs,
                np.array([len(vals) for vals in curve.samples])))


def fit_report(result: RbResult) -> dict:
    ref = result.reference
    out = {
        "A": ref.A, "B": ref.B, "p": ref.p,
        "r": result.r, "F_avg": result.F_avg,
        "converged": ref.converged, "degenerate": ref.degenerate,
        "residual": ref.residual_norm,
    }
    if result.interleaved is not None:
        out.update({
            "p_g": result.p_g, "F_g": result.F_g,
            "interleaved_A": result.interleaved.A,
            "interleaved_B": result.interleaved.B,
            "interleaved_converged": result.interleaved.converged,
            "interleaved_residual": result.interleaved.residual_norm,
        })
    return out
