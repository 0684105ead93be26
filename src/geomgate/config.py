"""Experiment configuration: JSON loading, validation, and materialization.

A config document is a single JSON object; unknown fields anywhere are
rejected and every embedded value is validated on load. Reports emitted by
the CLI embed the fully resolved configuration so no defaults stay hidden.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, fields

from .benchmarking import DEFAULT_LENGTHS, RbConfig
from .errors import ConfigError, UnknownGateName, _seed
from .evolution import DeviceParams
from .qcore import GATE_NAMES, GateSpec, named_gate


@dataclass(frozen=True)
class SynthSection:
    gate: str | None
    spec: GateSpec


@dataclass(frozen=True)
class QptSection:
    gates: tuple[str, ...] = GATE_NAMES


@dataclass(frozen=True)
class RbSection:
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    randomizations: int = 50
    interleaved: tuple[str, ...] = ()
    readout_correction: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceParams | None = None
    segment_duration_ns: float = 10.0
    dt_ns: float = 0.01
    shots: int | None = None
    seed: int = 0
    synth: SynthSection | None = None
    qpt: QptSection | None = None
    rb: RbSection | None = None


DEFAULT_SHOTS = 4096


def parse_mode(text) -> int | None:
    """"exact" -> None; "shots:<n>" -> n; bare "shots" -> 4096."""
    if text == "exact":
        return None
    if text == "shots":
        return DEFAULT_SHOTS
    if isinstance(text, str) and text.startswith("shots:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"invalid shot count in mode {text!r}") from None
        if n < 1:
            raise ConfigError(f"shot count must be >= 1, got {n}")
        return n
    raise ConfigError(f"mode must be 'exact' or 'shots:<n>', got {text!r}")


def mode_string(shots: int | None) -> str:
    return "exact" if shots is None else f"shots:{shots}"


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


def gate_slug(name: str) -> str:
    """File-name slug of a gate name in the CLI's output files."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _gate_list(names, what: str) -> tuple[str, ...]:
    """``names`` as a tuple of known gate names with distinct file slugs."""
    if not isinstance(names, list) or not all(isinstance(name, str)
                                              for name in names):
        raise ConfigError(f"{what} must be a list of gate names, "
                          f"got {names!r}")
    seen = {}
    for name in names:
        named_gate(name)
        slug = gate_slug(name)
        if slug in seen:
            raise ConfigError(f"{what} lists {seen[slug]!r} and {name!r}, "
                              "which write the same output files")
        seen[slug] = name
    return tuple(names)


def _parse_qpt(data, where: str) -> QptSection:
    _check_fields(data, {"gates"}, where)
    gates = _gate_list(data.get("gates", list(GATE_NAMES)), f"{where}: gates")
    if not gates:
        raise ConfigError(f"{where}: gates list is empty")
    return QptSection(gates=gates)


def _parse_rb(data, where: str) -> RbSection:
    _check_fields(data, {"lengths", "randomizations", "interleaved",
                         "readout_correction"}, where)
    try:
        rb = RbConfig(sequence_lengths=data.get("lengths", DEFAULT_LENGTHS),
                      randomizations=data.get("randomizations", 50),
                      readout_correction=data.get("readout_correction", True))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None
    if len(rb.sequence_lengths) < 3:
        raise ConfigError(f"{where}: need at least 3 sequence lengths to fit")
    return RbSection(lengths=rb.sequence_lengths,
                     randomizations=rb.randomizations,
                     interleaved=_gate_list(data.get("interleaved", []),
                                            f"{where}: interleaved"),
                     readout_correction=rb.readout_correction)


def config_from_dict(data: dict, where: str = "config") -> ExperimentConfig:
    _check_fields(data, {"device", "segment_duration_ns", "dt_ns", "mode",
                         "seed", "synth", "qpt", "rb"}, where)
    device = _parse_device(data.get("device"), f"{where}.device")
    seg_t = _finite(data.get("segment_duration_ns", 10.0),
                    f"{where}: segment_duration_ns")
    dt = _finite(data.get("dt_ns", 0.01), f"{where}: dt_ns")
    if not seg_t > 0:
        raise ConfigError(f"{where}: segment_duration_ns must be positive")
    if not 0 < dt <= seg_t / 100.0:
        raise ConfigError(f"{where}: dt_ns must be in (0, segment_duration_ns/100]")
    shots = parse_mode(data.get("mode", "exact"))
    try:
        seed = _seed(data.get("seed", 0))
        synth = (_parse_synth(data["synth"], f"{where}.synth")
                 if "synth" in data and data["synth"] is not None else None)
        qpt = (_parse_qpt(data["qpt"], f"{where}.qpt")
               if "qpt" in data and data["qpt"] is not None else None)
        rb = (_parse_rb(data["rb"], f"{where}.rb")
              if "rb" in data and data["rb"] is not None else None)
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"{where}: {err}") from None
    return ExperimentConfig(device=device, segment_duration_ns=seg_t,
                            dt_ns=dt, shots=shots, seed=seed,
                            synth=synth, qpt=qpt, rb=rb)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except OSError as err:
        raise ConfigError(f"{path}: cannot read: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
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
        out["qpt"] = {"gates": list(cfg.qpt.gates)}
    if cfg.rb is not None:
        out["rb"] = {"lengths": list(cfg.rb.lengths),
                     "randomizations": cfg.rb.randomizations,
                     "interleaved": list(cfg.rb.interleaved),
                     "readout_correction": cfg.rb.readout_correction}
    return out
