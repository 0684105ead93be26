"""Three-segment slice-path pulse synthesis.

A target rotation (theta, phi, gamma) compiles to three equal-duration
resonant-drive segments. Segment pulse areas are (theta/2, pi/2,
pi/2 - theta/2) and the carrier phase offsets are (phi - pi/2,
phi - gamma/2 + pi/2, phi - pi/2); the middle segment changes the drive
plane so the driven state traces a closed slice-shaped loop through both
poles of the rotation axis. Every segment's envelope Omega0 sin^2(pi t / T)
turns on and off smoothly at the segment edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidDuration
from .qcore import GateSpec


@dataclass(frozen=True)
class PulseSegment:
    """One constant-phase drive interval under a sin^2 envelope.

    duration in ns, peak_amplitude in rad/ns, phase_offset in rad.
    """

    duration: float
    peak_amplitude: float
    phase_offset: float

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and positive, "
                             f"got {self.duration}")
        if not 0 <= self.peak_amplitude < math.inf:
            raise ValueError("peak_amplitude must be finite and nonnegative, "
                             f"got {self.peak_amplitude}")
        if not math.isfinite(self.phase_offset):
            raise ValueError("phase_offset must be finite, "
                             f"got {self.phase_offset}")


def segment_area(segment: PulseSegment) -> float:
    """Closed-form pulse area Omega0 T / 2 of the sin^2 envelope."""
    return 0.5 * segment.peak_amplitude * segment.duration


def _slice_path(spec: GateSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(areas, phase offsets) of the three segments realizing ``spec``."""
    areas = (0.5 * spec.theta, 0.5 * math.pi, 0.5 * math.pi - 0.5 * spec.theta)
    phases = (spec.phi - 0.5 * math.pi,
              spec.phi - 0.5 * spec.gamma + 0.5 * math.pi,
              spec.phi - 0.5 * math.pi)
    return areas, phases


def synthesize(spec: GateSpec,
               segment_duration: float = 10.0) -> tuple[PulseSegment, ...]:
    """Compile a rotation spec into its three slice-path segments.

    Every segment lasts ``segment_duration`` ns; the peak amplitude of
    segment k is scaled so its area matches the protocol. A zero-area
    segment (theta = 0 or pi) is emitted with zero amplitude so the total
    gate time is always 3 T.
    """
    unit_area = 0.5 * segment_duration
    # the middle segment's area pi/2 is the largest, and so is its peak
    if not 0 < unit_area < math.inf or 0.5 * math.pi / unit_area == math.inf:
        raise InvalidDuration("segment duration must be finite, > 0 and give "
                              f"finite peaks, got {segment_duration}")
    return tuple(
        PulseSegment(duration=segment_duration,
                     peak_amplitude=a / unit_area,
                     phase_offset=p)
        for a, p in zip(*_slice_path(spec))
    )


# ---------------------------------------------------------------------------
# schedule.json

def schedule_to_dict(spec: GateSpec, segments) -> dict:
    return {
        "theta": spec.theta,
        "phi": spec.phi,
        "gamma": spec.gamma,
        "T_ns": segments[0].duration,
        "segments": [
            {
                "duration_ns": s.duration,
                "peak_rad_per_ns": s.peak_amplitude,
                "phase_rad": s.phase_offset,
                "envelope": "sin2",
            }
            for s in segments
        ],
    }


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_schedule(spec: GateSpec, segments, path) -> None:
    _write_json(schedule_to_dict(spec, segments), path)
