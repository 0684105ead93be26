"""Experiment configuration: JSON loading, validation, and materialization.

A config document is a single JSON object; unknown fields anywhere are
rejected and every embedded value is validated on load. Reports emitted by
the CLI embed the fully resolved configuration so no defaults stay hidden.
``RbConfig`` holds the RB settings, so reading a config loads no engine.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

from .errors import (ConfigError, UnknownGateName, _seed, _shots, _whole,
                     mode_string, parse_mode)
from .evolution import MIN_TRAJECTORY_STEPS, DeviceParams
from .qcore import GATE_NAMES, GateSpec, named_gate

DEFAULT_LENGTHS = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)
# Clifford indices a run draws, randomizations x sum(sequence_lengths); at
# the cap, lengths (1, 2, 3) and 8 targets peak near 650 MB
MAX_RB_DRAWS = 1_000_000


@dataclass(frozen=True)
class SynthSection:
    gate: str | None
    spec: GateSpec


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
        if len(lengths) < 3:
            raise ValueError("need at least 3 sequence lengths to fit")
        if self.randomizations < 2:
            raise ValueError("need at least 2 randomizations per length")
        if self.randomizations * sum(lengths) > MAX_RB_DRAWS:
            raise ValueError(f"randomizations x sum of lengths > {MAX_RB_DRAWS}")


@dataclass(frozen=True)
class RbSection:
    config: RbConfig
    interleaved: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceParams | None
    segment_duration_ns: float
    dt_ns: float
    shots: int | None
    seed: int
    synth: SynthSection | None
    qpt: tuple[str, ...] | None
    rb: RbSection | None


def _finite(value, what: str) -> float:
    """``value`` as a float; it must be a finite real number, not a bool or text."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _check_fields(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field {key!r} "
                              f"(allowed: {', '.join(sorted(allowed))})")


def _parse_device(data, where: str) -> DeviceParams | None:
    if data is None:
        return None
    _check_fields(data, {f.name for f in fields(DeviceParams)}, where)
    data = {key: _finite(value, f"{where}: {key}")
            for key, value in data.items()}
    try:
        return DeviceParams(**data)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None


def _parse_synth(data, where: str) -> SynthSection:
    """The synth gate, from a name or from all of (theta, phi, gamma)."""
    _check_fields(data, {"gate", "theta", "phi", "gamma"}, where)
    gate = data.get("gate")
    if gate is not None and not isinstance(gate, str):
        raise ConfigError(f"{where}: gate must be a gate name, got {gate!r}")
    angles = {key: _finite(data[key], f"{where}: {key}")
              for key in ("theta", "phi", "gamma") if data.get(key) is not None}
    if gate is None and len(angles) < 3:
        raise ConfigError(f"{where}: need a gate name or all of theta/phi/gamma")
    try:
        spec = named_gate(gate) if gate is not None else GateSpec(**angles)
    except (UnknownGateName, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None
    # a gate's report form states its angles too; other angles conflict
    if gate is not None and any(getattr(spec, key) != value
                                for key, value in angles.items()):
        raise ConfigError(f"{where}: give either a gate name or angles, not both")
    return SynthSection(gate, spec)


def _gate_list(names, what: str) -> tuple[str, ...]:
    """``names`` as a tuple of distinct known gate names."""
    if not isinstance(names, list) or not all(isinstance(name, str)
                                              for name in names):
        raise ConfigError(f"{what} must be a list of gate names, "
                          f"got {names!r}")
    for i, name in enumerate(names):
        try:
            named_gate(name)
        except UnknownGateName as err:
            raise ConfigError(f"{what}: {err}") from None
        if name in names[:i]:
            raise ConfigError(f"{what} lists {name!r} twice")
    return tuple(names)


def _parse_qpt(data, where: str) -> tuple[str, ...]:
    _check_fields(data, {"gates"}, where)
    gates = _gate_list(data.get("gates", list(GATE_NAMES)), f"{where}: gates")
    if not gates:
        raise ConfigError(f"{where}: gates list is empty")
    return gates


def _parse_rb(data, where: str, shots: int | None, seed: int) -> RbSection:
    _check_fields(data, {"lengths", "randomizations", "interleaved",
                         "readout_correction"}, where)
    # RbConfig holds the defaults of the settings the document leaves out
    given = {("sequence_lengths" if key == "lengths" else key): value
             for key, value in data.items() if key != "interleaved"}
    try:
        rb = RbConfig(shots=shots, seed=seed, **given)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None
    return RbSection(rb, _gate_list(data.get("interleaved", []),
                                    f"{where}: interleaved"))


# RK4's step factor |1 + z + z^2/2 + z^3/6 + z^4/24| is <= 1 on the
# half-disk Re z <= 0, |z| <= RK4_HALF_DISK (2.61558... by bisection)
RK4_HALF_DISK = 2.6155

# a config's segment takes at most this many steps (1,000 at T = 10 ns and
# dt_ns = 0.01); a finer dt_ns asks for a grid too large to allocate
MAX_SEGMENT_STEPS = 100_000

# a config's segment lasts at most 1 ms, about 50 times the reference T1; a
# 1e308 ns segment overflows its time grid and the trajectory turns NaN
MAX_SEGMENT_NS = 1e6
# and at least 1 fs; the peak Rabi rate pi / T of a 1e-310 ns segment is inf
MIN_SEGMENT_NS = 1e-6


def _check_step(device: DeviceParams, seg_t: float, dt: float,
                where: str) -> None:
    """Refuse a ``dt`` whose kernel step ``seg_t / round(seg_t / dt)`` is too
    coarse for RK4 on the Lindblad generator, whose eigenvalues lie in the
    left half-plane within its 2-norm of 0. That norm is at most 2 pi / T,
    the drive at the sin^2 envelope's peak Rabi rate pi / T, plus the
    dissipator's norm."""
    g1, gphi = device.gamma1_per_ns, device.gamma_phi_per_ns
    rate = 2.0 * math.pi / seg_t + max(math.sqrt(2.0) * g1, 0.5 * g1 + gphi)
    need = seg_t * rate / RK4_HALF_DISK
    largest = 0.0  # no step count in range is enough
    if need <= MAX_SEGMENT_STEPS:
        # the largest float dt_ns that the kernel rounds to >= need steps
        largest = seg_t / (math.ceil(need) - 0.5)
        while round(seg_t / largest) < need:
            largest = math.nextafter(largest, 0.0)
        while round(seg_t / math.nextafter(largest, math.inf)) >= need:
            largest = math.nextafter(largest, math.inf)
    if dt > largest:
        raise ConfigError(f"{where}: dt_ns = {dt} is too coarse for RK4 at "
                          "the device's decay rates; the largest dt_ns that "
                          f"passes is {largest}")


def config_from_dict(data: dict, where: str = "config") -> ExperimentConfig:
    _check_fields(data, {"device", "segment_duration_ns", "dt_ns", "mode",
                         "seed", "synth", "qpt", "rb"}, where)
    device = _parse_device(data.get("device"), f"{where}.device")
    seg_t = _finite(data.get("segment_duration_ns", 10.0),
                    f"{where}: segment_duration_ns")
    dt = _finite(data.get("dt_ns", 0.01), f"{where}: dt_ns")
    if not MIN_SEGMENT_NS <= seg_t <= MAX_SEGMENT_NS:
        raise ConfigError(f"{where}: segment_duration_ns must be in ["
                          f"{MIN_SEGMENT_NS:g}, {MAX_SEGMENT_NS:g}], "
                          f"got {seg_t}")
    lo, hi = seg_t / MAX_SEGMENT_STEPS, seg_t / MIN_TRAJECTORY_STEPS
    if not lo <= dt <= hi:
        raise ConfigError(f"{where}: dt_ns = {dt} is outside [{lo}, {hi}], "
                          f"segment_duration_ns/{MAX_SEGMENT_STEPS} to "
                          f"segment_duration_ns/{MIN_TRAJECTORY_STEPS}")
    shots = parse_mode(data.get("mode", "exact"))
    try:
        seed = _seed(data.get("seed", 0))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None
    synth = (_parse_synth(data["synth"], f"{where}.synth")
             if "synth" in data and data["synth"] is not None else None)
    qpt = (_parse_qpt(data["qpt"], f"{where}.qpt")
           if "qpt" in data and data["qpt"] is not None else None)
    rb = (_parse_rb(data["rb"], f"{where}.rb", shots, seed)
          if "rb" in data and data["rb"] is not None else None)
    if device is not None and (qpt is not None or rb is not None):
        _check_step(device, seg_t, dt, where)
    return ExperimentConfig(device=device, segment_duration_ns=seg_t,
                            dt_ns=dt, shots=shots, seed=seed,
                            synth=synth, qpt=qpt, rb=rb)


def load_config(path, seed: int | None = None,
                mode: str | None = None) -> ExperimentConfig:
    """The config at ``path``; ``seed`` and ``mode`` replace its own."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except OSError as err:
        raise ConfigError(f"{path}: cannot read: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8: {err.reason}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except (ValueError, RecursionError) as err:  # 4,301+ digits, deep nesting
        # int()'s message ends with a setting a config author cannot reach
        raise ConfigError(f"{path}: {str(err).split(';')[0]}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if seed is not None:
        data["seed"] = seed
    if mode is not None:
        data["mode"] = mode
    return config_from_dict(data, where=str(path))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully materialized configuration (explicit defaults included)."""
    out = {
        "device": None if cfg.device is None else asdict(cfg.device),
        "segment_duration_ns": cfg.segment_duration_ns,
        "dt_ns": cfg.dt_ns,
        "mode": mode_string(cfg.shots),
        "seed": cfg.seed,
    }
    if cfg.synth is not None:
        spec = cfg.synth.spec
        out["synth"] = {"gate": cfg.synth.gate, "theta": spec.theta,
                        "phi": spec.phi, "gamma": spec.gamma}
    if cfg.qpt is not None:
        out["qpt"] = {"gates": list(cfg.qpt)}
    if cfg.rb is not None:
        rb = cfg.rb.config
        out["rb"] = {"lengths": list(rb.sequence_lengths),
                     "randomizations": rb.randomizations,
                     "interleaved": list(cfg.rb.interleaved),
                     "readout_correction": rb.readout_correction}
    return out
