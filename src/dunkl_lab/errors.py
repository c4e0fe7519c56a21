"""Exception types shared across the package."""

from __future__ import annotations


class DunklLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(DunklLabError):
    """Vectors or matrices with incompatible dimensions."""


class InvalidRootError(DunklLabError):
    """A root vector that cannot be used (zero vector, bad data)."""


class UnsupportedFamilyError(DunklLabError):
    """Unknown family name or unsupported rank/parameter combination."""


class ExactModeError(DunklLabError):
    """Irrational or floating-point data fed to an exact-arithmetic path."""


class HyperplaneError(DunklLabError):
    """Evaluation point too close to a reflecting hyperplane."""


class SamplingError(DunklLabError):
    """Generic-point sampling failed (requested margin too large)."""


class DegreeCapError(DunklLabError):
    """Polynomial operation would exceed the configured degree cap."""


class PolynomialDivisionError(DunklLabError):
    """Exact polynomial division left a nonzero remainder."""


class StepUnderflowError(DunklLabError):
    """Adaptive time step fell below the floor near a collision.

    Attributes:
        time: simulation time at which the underflow occurred.
        path_index: ensemble index of the stuck path; ``replay_path`` with
            this index raises at the same time.
        state: the stuck path's coordinates, from which every floor
            proposal crossed a wall.
        root: live-root index (positive roots with k > 0, in root order) of
            the first wall the last floor proposal crossed or landed on.
        dt: the step h of that proposal.
    """

    def __init__(self, message: str, time: float, path_index: int, state: tuple, root: int,
                 dt: float):
        super().__init__(message)
        self.time = time
        self.path_index = path_index
        self.state = state
        self.root = root
        self.dt = dt


class ConfigError(DunklLabError):
    """Invalid run configuration (schema violation, bad flag values)."""
