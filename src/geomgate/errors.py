"""Exception types and input rules shared across the package."""

import math
import numbers
import re

MAX_SHOTS = 2**63 - 1  # the most trials Generator.binomial takes, a C long


class GeomgateError(Exception):
    """Base class for all geomgate errors."""


class NonUnitaryInput(GeomgateError):
    """A matrix argument failed the unitarity check."""


class UnknownGateName(GeomgateError):
    """Gate identifier is not one of the supported named gates."""


class InvalidDuration(GeomgateError):
    """Segment duration must be finite, positive and give finite peaks."""


class StepTooLarge(GeomgateError):
    """Integrator step outside the range a segment allows."""


class NotCyclic(GeomgateError):
    """Trajectory does not return to its initial ray."""


class PathNotClosed(GeomgateError):
    """Bloch path endpoints do not coincide."""


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
    """``value`` as a shot count: ``None`` (exact) or 1 to ``MAX_SHOTS``."""
    if value is None:
        return None
    shots = _whole(value, "shots")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be 1..{MAX_SHOTS} or None, got {shots}")
    return shots


def parse_mode(text) -> int | None:
    """The shot count of a mode: "exact" -> None, "shots:<n>" -> n, where
    n is a shot count written in ASCII digits with no sign, space or 0 first."""
    if text == "exact":
        return None
    match = isinstance(text, str) and re.fullmatch(r"shots:([1-9][0-9]*)", text)
    if not match:
        raise ConfigError("mode must be 'exact' or 'shots:<n>' with n >= 1, "
                          f"got {text!r}")
    if len(match[1]) > len(str(MAX_SHOTS)):  # int() refuses 4,301+ digits
        raise ConfigError(f"mode: shots must be 1..{MAX_SHOTS}, got a "
                          f"{len(match[1])}-digit count")
    try:
        return _shots(int(match[1]))
    except ValueError as err:
        raise ConfigError(f"mode: {err}") from None


def mode_string(shots: int | None) -> str:
    return "exact" if shots is None else f"shots:{shots}"
