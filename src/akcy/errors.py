"""Exception hierarchy shared by all akcy modules.

Exit-code mapping used by the CLI:
  PreconditionError (and subclasses)                -> 3 (precondition)
  NumericalError (and subclasses)                   -> 5 (numerical failure)
  every other AkcyError                             -> 2 (validation):
    ConfigurationError, RecipeError, StructureError, FrameError,
    SeedSearchError, DegreeError, ShapeMismatchError
"""


class AkcyError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AkcyError):
    """Bad grid/recipe/config parameters (wrong sizes, unknown keys)."""


class RecipeError(ConfigurationError):
    """Structure recipe violates its invariants (e.g. non-symplectic generator)."""


class StructureError(AkcyError):
    """A built structure fails a hard invariant (e.g. g not positive definite)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DegreeError(AkcyError):
    """Form degree out of range for the requested operation."""


class ShapeMismatchError(AkcyError):
    """Fields living on different charts were combined."""


class FrameError(AkcyError):
    """Frame construction failed (degenerate seed or discontinuity)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class PreconditionError(AkcyError):
    """A documented operation precondition does not hold."""


class NoSeedError(PreconditionError):
    """Seed selection on an integrable structure (tau vanishes identically)."""


class SeedSearchError(AkcyError):
    """No candidate potential produced a usable tau component."""


class NumericalError(AkcyError):
    """Generic numerical failure (solver stagnation, consistency trap)."""


class SearchFailure(NumericalError):
    """A parameter sweep (e.g. over bump radii R) found no admissible value."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class ConsistencyError(NumericalError):
    """Two redundant computation paths disagree beyond tolerance (bug trap)."""


class AmplitudeError(NumericalError):
    """Positivity amplitude search found no sign change (unbounded direction)."""


class SolverFailure(NumericalError):
    """Newton/continuation did not reach the requested tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
