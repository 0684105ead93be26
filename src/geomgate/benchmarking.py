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
time-local and linear) and keeps long sequences cheap. Randomness is drawn
from counter-based Philox streams keyed by (seed, length index,
randomization index): the key of each is NumPy's
``SeedSequence((seed, li, ri))`` hash, computed for every stream of a run in
one vectorized pass, and one generator is re-keyed to the start of each
stream in turn. Each stream draws its Clifford indices once per run, as
``Generator.integers(0, 24)`` does: the stream hands out raw 64-bit words,
each split into two uint32 draws, and one vectorized pass of Lemire's
bounded-integer method turns the draws of all streams of a length into
indices. A stream with a draw the method rejects (p = 16/2**32 per draw)
is drawn again by ``Generator.integers`` itself. The reference curve and
every interleaved curve run that same sequence: all curves and
randomizations of one length execute as one batch, with channels picked
from a (24, 4, 4) Clifford table by index and applied to a stack of state
vectors. An integer fold gives the recoveries of every curve, one table
lookup per sequence position: the lookup composes the random Clifford and
the curve's target with the product so far, the reference curve folding
with the identity as its target. In shot mode each curve re-keys the
sequence's stream and draws past its indices, so it samples from the
stream position right after them. So every curve is reproducible
regardless of execution order, does not depend on which other curves
share its run, and equals running its sequences one by one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import GateChannelCache, cache_for, vec
from .errors import _seed, _shots, _whole
from .evolution import DeviceParams, _write_csv
from .qcore import (KET0, axis_angle_unitary, clifford_group,
                    clifford_index_of, clifford_tables, density_of,
                    named_gate)
from .tomography import ReadoutModel, readout_model, sample_outcomes

DEFAULT_LENGTHS = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)
MAX_FIT_ITERATIONS = 200


@dataclass(frozen=True)
class RbConfig:
    """Benchmarking run parameters; ``shots=None`` means exact survival."""

    sequence_lengths: tuple[int, ...] = DEFAULT_LENGTHS
    randomizations: int = 50
    shots: int | None = None
    seed: int = 0
    readout_correction: bool = True

    def __post_init__(self):
        lengths = tuple(_whole(m, "sequence length")
                        for m in self.sequence_lengths)
        object.__setattr__(self, "sequence_lengths", lengths)
        object.__setattr__(self, "randomizations",
                           _whole(self.randomizations, "randomizations"))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "shots", _shots(self.shots))
        if not isinstance(self.readout_correction, bool):
            raise ValueError("readout_correction must be true or false, "
                             f"got {self.readout_correction!r}")
        if not lengths or any(m < 1 for m in lengths):
            raise ValueError("sequence lengths must be positive")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("sequence lengths must be strictly increasing")
        if self.randomizations < 2:
            raise ValueError("need at least 2 randomizations per length")


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
    """Derived figures: r = (1 - p)/2, F_avg = 1 - r, and optionally
    F_g = 1 - (1 - p_g / p)/2 for an interleaved target."""

    reference: DecayFit
    interleaved: DecayFit | None = None
    r: float = 0.0
    F_avg: float = 0.0
    p_g: float | None = None
    F_g: float | None = None

    @staticmethod
    def from_fits(reference: DecayFit, interleaved: DecayFit | None = None) -> "RbResult":
        r = (1.0 - reference.p) / 2.0
        res = RbResult(reference=reference, interleaved=interleaved,
                       r=r, F_avg=1.0 - r)
        if interleaved is not None:
            res.p_g = interleaved.p
            res.F_g = 1.0 - (1.0 - interleaved.p / reference.p) / 2.0
        return res


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

    One state dict, a fresh generator's, is reused with its key swapped:
    the setter copies it, and a fresh dict per stream costs about 1.4 us.
    """
    rng = np.random.Generator(np.random.Philox(0))
    start = rng.bit_generator.state

    def stream(key):
        start["state"]["key"] = key
        rng.bit_generator.state = start
        return rng

    return stream


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

    ``keys[li, ri]`` is the key of stream (seed, li, ri), and
    ``stream(key)`` the generator re-keyed to its start. Each stream hands
    out the ceil(m/2) raw words that ``integers(0, 24, size=m)`` splits
    into m uint32 draws, and one Lemire pass over the words of all streams
    of a length gives the indices. A stream with a rejected draw (p =
    16/2**32 per draw) is drawn again by ``integers`` itself.
    """
    for m, row in zip(lengths, keys):
        raw = np.empty((len(row), (m + 1) // 2), dtype=np.uint64)
        for ri, key in enumerate(row):
            raw[ri] = stream(key).bit_generator.random_raw(raw.shape[1])
        words = np.asarray(raw, dtype="<u8").view("<u4")[:, :m]
        scaled = words * np.uint64(_N_CLIFFORD)  # 24 u in uint64
        idx = (scaled >> 32).astype(np.intp)
        rejected = ((scaled & _MASK32) < _LEMIRE_THRESHOLD).any(axis=1)
        for ri in np.flatnonzero(rejected):
            idx[ri] = stream(row[ri]).integers(0, _N_CLIFFORD, size=m)
        yield idx


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
        if len(targets):
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

def _run_curves(config: RbConfig, table: np.ndarray,
                readout: ReadoutModel | None, sops,
                target_indices: np.ndarray) -> list[DecayCurve]:
    """Decay curves of reference RB and interleaved RB on shared sequences.

    Curve 0 is the reference, whose target Clifford ``target_indices[0]``
    is 0, the identity. Curve c > 0 interleaves the channel ``sops[c - 1]``
    of Clifford ``target_indices[c]`` after every random Clifford. Each
    (length, randomization) draws its Clifford indices once, from its own
    stream, and every curve runs them, all curves of a length as one
    batch. In shot mode each curve draws its sample from the stream
    position right after the indices, as a lone sequence does, so every
    curve equals executing it on its own.
    """
    lengths, n_rand = config.sequence_lengths, config.randomizations
    keys = _stream_keys(config.seed, np.arange(len(lengths))[:, None],
                        np.arange(n_rand))
    stream = _stream_opener()
    p0 = np.empty((len(target_indices), len(lengths), n_rand))
    for li, idx in enumerate(_draw_sequences(lengths, keys, stream)):
        p0[:, li] = _apply_sequences(
            table, idx, _recoveries(idx, target_indices), sops)
    if config.shots is None:
        # absorb integrator dust at the boundaries; anything larger is a bug
        # and must surface in the invariant checks
        survival = np.where((-1e-9 < p0) & (p0 < 0.0), 0.0, p0)
        survival = np.where((1.0 < survival) & (survival < 1.0 + 1e-9), 1.0,
                            survival)
    else:
        survival = np.empty_like(p0)
        for c, li, ri in np.ndindex(p0.shape):
            # the sequence's stream, drawn past its indices
            rng = stream(keys[li, ri])
            rng.integers(0, _N_CLIFFORD, size=lengths[li])
            p = p0[c, li, ri]
            survival[c, li, ri] = sample_outcomes(
                np.array([p, 1.0 - p]), config.shots, rng, readout,
                config.readout_correction)[0]
    means = survival.mean(axis=2)
    stderrs = survival.std(axis=2, ddof=1) / math.sqrt(n_rand)
    return [DecayCurve(lengths=lengths, means=means[c], stderrs=stderrs[c],
                       samples=list(survival[c]))
            for c in range(len(target_indices))]


def run_rb(config: RbConfig, targets=(), device: DeviceParams | None = None,
           channels: GateChannelCache | None = None
           ) -> list[tuple[DecayCurve, DecayFit, RbResult]]:
    """Reference RB plus one interleaved RB curve per target, fitted.

    Each target is a gate name, or a ``(name, superop)`` pair whose superop,
    when not None, overrides the gate's compiled channel (e.g. a synthetic
    depolarizing stub). Gates compile with the default T and dt unless
    ``channels``, a cache for the same ``device``, says otherwise. Every
    curve runs the same sampled sequences, drawn once per (length,
    randomization). Returns ``(curve, fit, result)`` for the reference,
    then for each target in order.
    """
    channels = cache_for(device, channels)
    targets = [(t, None) if isinstance(t, str) else tuple(t) for t in targets]
    specs = [named_gate(name) for name, _ in targets]
    # one stack, Cliffords first: a target that is a Clifford (H, Rx(pi),
    # Ry(pi)) then shares its element's channel through the rounded key
    channels.prefetch([element.spec for element in clifford_group()]
                      + [spec for spec, (_, sop) in zip(specs, targets)
                         if sop is None])
    sops = [channels.for_spec(spec) if sop is None else sop
            for spec, (_, sop) in zip(specs, targets)]
    target_indices = np.array(
        [0] + [clifford_index_of(axis_angle_unitary(s)) for s in specs],
        dtype=np.intp)
    curves = _run_curves(config, channels.clifford_table(),
                         readout_model(device, config.shots), sops,
                         target_indices)
    weighted = config.shots is not None
    (curve, fit), *rest = [(c, fit_decay(c, weighted)) for c in curves]
    return [(curve, fit, RbResult.from_fits(fit))] + [
        (icurve, ifit, RbResult.from_fits(fit, ifit)) for icurve, ifit in rest]


def run_reference_rb(config: RbConfig, device: DeviceParams | None = None,
                     channels: GateChannelCache | None = None
                     ) -> tuple[DecayCurve, DecayFit, RbResult]:
    """Reference RB: sample, execute, average, and fit the decay."""
    (reference,) = run_rb(config, (), device, channels)
    return reference


def run_interleaved_rb(config: RbConfig, target: str,
                       device: DeviceParams | None = None,
                       reference: DecayFit | None = None,
                       target_superop: np.ndarray | None = None,
                       channels: GateChannelCache | None = None
                       ) -> tuple[DecayCurve, DecayFit, RbResult]:
    """Interleaved RB of gate ``target``: the ``run_rb`` entry of that one
    target, whose superop ``target_superop`` overrides when not None.

    The result derives F_g from ``reference`` when given, and otherwise
    from the reference curve of the same batch.
    """
    _, (curve, fit, result) = run_rb(config, [(target, target_superop)],
                                     device, channels)
    if reference is not None:
        result = RbResult.from_fits(reference, fit)
    return curve, fit, result


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
