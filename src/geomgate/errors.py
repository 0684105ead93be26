"""Exception types and input rules shared across the package."""

import math
import numbers


class GeomgateError(Exception):
    """Base class for all geomgate errors."""


class NonUnitaryInput(GeomgateError):
    """A matrix argument failed the unitarity check."""


class UnknownGateName(GeomgateError):
    """Gate identifier is not one of the supported named gates."""


class InvalidDuration(GeomgateError):
    """Segment duration must be strictly positive."""


class StepTooLarge(GeomgateError):
    """Integrator step too coarse for the requested evolution."""


class NotCyclic(GeomgateError):
    """Trajectory does not return to its initial ray."""


class PathNotClosed(GeomgateError):
    """Bloch path endpoints do not coincide."""


class SingularSystem(GeomgateError):
    """Tomography inputs are not informationally complete."""


class ConfigError(GeomgateError):
    """Experiment configuration failed to load or validate."""


class NonPhysicalChannel(GeomgateError):
    """A compiled gate channel is not finite, trace preserving or CP."""


def _whole(value, what: str) -> int:
    """``value`` as an int; it must be a whole number, not a bool or text."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or int(value) != value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """``value`` as a random seed: a whole number >= 0."""
    seed = _whole(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _shots(value) -> int | None:
    """``value`` as a shot count: ``None`` (exact) or a whole number >= 1."""
    if value is None:
        return None
    shots = _whole(value, "shots")
    if shots < 1:
        raise ValueError(f"shots must be >= 1 or None, got {shots}")
    return shots
