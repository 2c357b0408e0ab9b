"""Exception taxonomy shared across the package.

Every raised error carries enough context in its message to act on
(offending shapes, indices, field paths, a tensor by the name its
checkpoint file carries). Nothing here is recoverable state; callers
either fix the input or stop.
"""


class BranchclError(Exception):
    """Base class for all package errors."""


class DimensionError(BranchclError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(BranchclError):
    """A numeric argument is out of its valid range."""


class ContractError(BranchclError):
    """An internal pre/postcondition was violated by the caller."""


class DegenerateInputError(BranchclError):
    """Input is numerically unusable (e.g. zero-norm vector for cosine)."""


class NumericError(BranchclError):
    """A value became NaN or infinite: a training loss, a parameter after
    an optimizer step (named by its checkpoint name) or a test input."""


class RoutingError(BranchclError):
    """A router lookup or gate operation failed."""


class PolicyError(BranchclError):
    """The freeze policy was asked to do something inconsistent."""


class SelectorError(BranchclError):
    """Task-key selection could not be performed."""


class AnalysisError(BranchclError):
    """Post-hoc analysis received unusable inputs."""


class ConfigError(BranchclError):
    """Experiment configuration is malformed. Message names the field path."""
