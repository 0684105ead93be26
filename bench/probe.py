"""Machine-speed probe sampled during each timed repetition.

The single-thread speed a shared host gives one process drifts by up to 2x
over seconds to minutes, so raw repetition times measure the neighbours as
much as the program. The probe samples that speed in the same process and
the same time window as the work it normalizes: a fixed kernel of small
numpy matrix steps and dict lookups, the kind of work geomgate spends its
time on, runs once before a repetition and then from a ``SIGALRM`` handler
every ``INTERVAL_S`` seconds while the repetition runs.

``normalized`` turns a repetition's wall time into seconds at the reference
speed, at which one kernel call takes ``REF_S``: the probe's time is taken
out of the wall time, and the rest is scaled by ``REF_S`` over the median
kernel time of that repetition. Set-up is scaled the same way, by kernel
calls made right after the interpreter is ready. The kernel never changes
with the program, so the scale is the same for every commit measured with
this file.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one kernel call takes about this long on a quiet core of the machine the
# benchmark was written on (Intel Xeon); wall_s is in seconds at that speed
REF_S = 0.003
INTERVAL_S = 0.1
# kernel calls made after set-up to scale it
SETUP_SAMPLES = 10
STEPS = 300

_H0 = np.array([[0.5, 0.1], [0.1, -0.5]], dtype=complex)
_H1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_NEXT = {i: (7 * i + 5) % 24 for i in range(24)}


def kernel() -> float:
    """Fixed work: midpoint steps of a driven 2x2 unitary, dict lookups."""
    u = np.eye(2, dtype=complex)
    dt = 0.01
    state = 0
    for k in range(STEPS):
        t = k * dt
        k1 = -1j * ((_H0 + np.cos(t) * _H1) @ u)
        u = u + dt * (-1j * ((_H0 + np.cos(t + dt / 2) * _H1)
                             @ (u + dt / 2 * k1)))
        for j in range(20):
            state = _NEXT[(state + j) % 24]
    return float(abs(u[0, 0])) + state


def sample(n: int) -> list[float]:
    """Durations of ``n`` kernel calls made now."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


class Probe:
    """Samples the kernel's duration before and during one repetition."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        self.samples += sample(1)

    def start(self) -> None:
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        return self.samples


def at_reference(seconds: float, samples: list[float]) -> float:
    """``seconds`` scaled to the speed at which the kernel takes REF_S."""
    return seconds * REF_S / statistics.median(samples)


def normalized(wall_s: float, samples: list[float]) -> float:
    """Seconds at the reference speed of a repetition timed with samples.

    ``samples[0]`` ran before the repetition's clock started; the others
    ran inside it and are subtracted from ``wall_s``.
    """
    return at_reference(wall_s - sum(samples[1:]), samples)
