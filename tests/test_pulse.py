import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from geomgate.errors import InvalidDuration
from geomgate.evolution import _segment_grid, schedule_propagator
from geomgate.pulse import (PulseSegment, save_schedule, schedule_to_dict,
                            segment_area, synthesize)
from geomgate.qcore import GateSpec, I2

from conftest import random_spec

PI = math.pi


def test_synthesize_rx_pi_example():
    sched = synthesize(GateSpec(PI / 2, 0.0, PI), 10.0)
    areas = [segment_area(s) for s in sched]
    assert areas == pytest.approx([PI / 4, PI / 2, PI / 4], abs=1e-15)
    phases = [s.phase_offset for s in sched]
    assert phases == pytest.approx([-PI / 2, 0.0, -PI / 2], abs=1e-15)
    peaks = [s.peak_amplitude for s in sched]
    assert peaks == pytest.approx([PI / 20, PI / 10, PI / 20], abs=1e-15)
    assert [s.duration for s in sched] == [10.0, 10.0, 10.0]


def test_synthesize_identity_example():
    sched = synthesize(GateSpec(0.0, 0.0, 0.0), 10.0)
    areas = [segment_area(s) for s in sched]
    assert areas == pytest.approx([0.0, PI / 2, PI / 2], abs=1e-15)
    phases = [s.phase_offset for s in sched]
    assert phases == pytest.approx([-PI / 2, PI / 2, -PI / 2], abs=1e-15)
    assert np.allclose(schedule_propagator(sched), I2, atol=1e-12)


def test_synthesize_hadamard_middle_phase():
    sched = synthesize(GateSpec(PI / 4, 0.0, PI), 10.0)
    assert sched[1].phase_offset == pytest.approx(0.0, abs=1e-15)


def test_synthesize_invalid_duration():
    # 0.5 * 5e-324 rounds to 0, and the peak pi / 1e-310 overflows to inf
    for duration in (0.0, -1.0, math.nan, math.inf, 5e-324, 1e-310):
        with pytest.raises(InvalidDuration):
            synthesize(GateSpec(0.1, 0.2, 0.3), duration)
    sched = synthesize(GateSpec(0.1, 0.2, 0.3), 1e-300)
    assert sched[1].peak_amplitude == PI / 1e-300


def test_synthesize_deterministic():
    a = synthesize(GateSpec(1.0, -0.5, 2.0), 10.0)
    b = synthesize(GateSpec(1.0, -0.5, 2.0), 10.0)
    assert a == b


def amplitude_at(segment: PulseSegment, t: float) -> float:
    """Instantaneous Rabi rate at local time t in [0, duration], one scalar
    at a time; oracle for the vectorized ``_segment_grid``."""
    if t == 0.0 or t == segment.duration:
        return 0.0
    s = math.sin(math.pi * t / segment.duration)
    return segment.peak_amplitude * s * s


def test_amplitude_examples():
    seg = PulseSegment(duration=10.0, peak_amplitude=0.1, phase_offset=0.0)
    assert amplitude_at(seg, 5.0) == pytest.approx(0.1, abs=1e-15)
    assert amplitude_at(seg, 0.0) == 0.0
    assert amplitude_at(seg, 10.0) == 0.0
    assert amplitude_at(seg, 2.5) == pytest.approx(0.05, abs=1e-15)


def test_envelope_grid_matches_scalar_oracle(rng):
    for _ in range(40):
        seg = PulseSegment(duration=rng.uniform(1.0, 20.0),
                           peak_amplitude=rng.uniform(0.0, 0.5),
                           phase_offset=0.0)
        n = int(rng.integers(1, 500))
        h, w_full, w_half = _segment_grid([seg], seg.duration / n, 1)
        assert h == seg.duration / n
        want_full = [amplitude_at(seg, k * h) for k in range(n + 1)]
        want_half = [amplitude_at(seg, (k + 0.5) * h) for k in range(n)]
        assert w_full.shape == (n + 1, 1, 1, 1)
        assert w_half.shape == (n, 1, 1, 1)
        w_full, w_half = w_full.ravel(), w_half.ravel()
        assert np.abs(w_full - want_full).max() < 1e-15
        assert np.abs(w_half - want_half).max() < 1e-15


def test_segment_validation():
    for duration in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            PulseSegment(duration=duration, peak_amplitude=0.1,
                         phase_offset=0.0)
    for peak in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="peak_amplitude"):
            PulseSegment(duration=1.0, peak_amplitude=peak, phase_offset=0.0)
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phase_offset"):
            PulseSegment(duration=1.0, peak_amplitude=0.1, phase_offset=phase)


def test_segment_area_closed_form():
    assert segment_area(PulseSegment(10.0, PI / 10, 0.0)) == pytest.approx(PI / 2)
    assert segment_area(PulseSegment(10.0, 0.0, 0.0)) == 0.0


def segment_area_quadrature(segment: PulseSegment) -> float:
    """Adaptive-quadrature pulse area; oracle for the closed form."""
    val, _ = quad(lambda t: amplitude_at(segment, t), 0.0, segment.duration,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def test_segment_area_quadrature_oracle(rng):
    for _ in range(100):
        seg = PulseSegment(duration=rng.uniform(1.0, 20.0),
                           peak_amplitude=rng.uniform(0.0, 0.5),
                           phase_offset=0.0)
        assert abs(segment_area_quadrature(seg) - segment_area(seg)) < 1e-10


def test_area_split_invariant(rng):
    for _ in range(50):
        spec = random_spec(rng)
        sched = synthesize(spec, 10.0)
        a1, a2, a3 = [segment_area(s) for s in sched]
        assert a2 == pytest.approx(PI / 2, abs=1e-12)
        assert a1 + a3 == pytest.approx(PI / 2, abs=1e-12)


def test_peaks_are_the_areas_over_the_envelope_areas(rng):
    # a sin^2 segment of area a and duration T peaks at 2a / T, bit for bit,
    # and each segment drives at its slice-path phase
    for _ in range(200):
        spec = random_spec(rng)
        duration = rng.uniform(0.1, 100.0)
        areas = (spec.theta / 2, PI / 2, PI / 2 - spec.theta / 2)
        phases = (spec.phi - PI / 2, spec.phi - spec.gamma / 2 + PI / 2,
                  spec.phi - PI / 2)
        sched = synthesize(spec, duration)
        assert [s.peak_amplitude for s in sched] == [
            2.0 * a / duration for a in areas]
        assert all(abs(s.phase_offset - p) <= 1e-12
                   for s, p in zip(sched, phases, strict=True))


def test_amplitude_vanishes_at_every_boundary(rng):
    spec = random_spec(rng)
    sched = synthesize(spec, 10.0)
    for seg in sched:
        assert amplitude_at(seg, 0.0) == 0.0
        assert amplitude_at(seg, seg.duration) == 0.0


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.0, PI),
       phi=st.floats(-PI, PI, exclude_max=True),
       gamma=st.floats(-2 * PI, 2 * PI, exclude_min=True),
       duration=st.floats(1.0, 100.0))
def test_synthesize_property(theta, phi, gamma, duration):
    sched = synthesize(GateSpec(theta, phi, gamma), duration)
    assert all(s.peak_amplitude >= 0.0 for s in sched)
    assert all(s.duration == duration for s in sched)
    total = sum(s.duration for s in sched)
    assert total == pytest.approx(3.0 * duration)


def test_schedule_json_round_trip(tmp_path):
    spec = GateSpec(1.2, -0.4, 2.2)
    sched = synthesize(spec, 10.0)
    data = schedule_to_dict(spec, sched)
    assert set(data) == {"theta", "phi", "gamma", "T_ns", "segments"}
    assert len(data["segments"]) == 3
    assert set(data["segments"][0]) == {"duration_ns", "peak_rad_per_ns",
                                        "phase_rad", "envelope"}
    path = tmp_path / "schedule.json"
    save_schedule(spec, sched, path)
    assert json.loads(path.read_text()) == data
