"""Exception types shared across the package.

Plain precondition violations raise ValueError, or ArgumentError where one
argument carries the fault; the other classes below mark failures that
callers may want to catch and report individually.
"""


class ArgumentError(ValueError):
    """A precondition on one argument failed; `arg` names that argument."""

    def __init__(self, arg, message):
        super().__init__(message)
        self.arg = arg


class HeatLabError(Exception):
    """Base class for package-specific failures."""


class CoefficientRegularityError(HeatLabError):
    """Coefficient field violates positivity, SPD, or its declared Lipschitz bound."""


class EmptySetError(HeatLabError):
    """An observation set with no cells or points was requested."""


class InsufficientDataError(HeatLabError):
    """Not enough resolved data for the requested fit."""


class NumericalFailureError(HeatLabError):
    """A numerical routine (eigensolver, LP) did not converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SynthesisFailureError(HeatLabError):
    """Control synthesis cannot reach a mode from the given support."""

    def __init__(self, message, mode_index=None, step_index=None):
        super().__init__(message)
        self.mode_index = mode_index
        self.step_index = step_index


class SearchFailureError(HeatLabError):
    """A parameter search exhausted its budget; carries what was tried."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DegenerateChartError(HeatLabError):
    """Boundary chart map has a singular Jacobian at some boundary node."""


class UnsupportedGeometryError(HeatLabError):
    """Requested construction is outside the supported grid geometries."""


class ConfigError(HeatLabError):
    """Experiment configuration is invalid; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
