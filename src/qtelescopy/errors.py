"""Exception types shared across the package.

The CLI maps :class:`ConfigError` to exit code 2 and any
:class:`NumericalInvariantError` to exit code 3.
"""


class QTelescopyError(Exception):
    """Base class for package-specific errors."""


class ConfigError(QTelescopyError, ValueError):
    """Malformed or out-of-range run configuration."""


class NumericalInvariantError(QTelescopyError):
    """A numerical invariant of the simulation was violated."""


class CutoffError(NumericalInvariantError, ValueError):
    """Occupation number outside the truncated Fock space."""


class LeakageError(NumericalInvariantError):
    """A gate pushed probability weight above the Fock cutoff."""


class InvalidSubspaceError(NumericalInvariantError):
    """Input state populates labels on which the gate is undefined."""


class FisherDivergenceError(NumericalInvariantError):
    """An outcome probability vanishes while its derivative does not."""


class KernelSupportError(NumericalInvariantError):
    """The state derivative has support on the kernel of the state."""


class GBoundaryError(NumericalInvariantError):
    """Visibility derivative requested at or beyond the g = 1 boundary."""


class EstimationError(QTelescopyError):
    """The requested estimate is not identifiable from the records."""


class QubitRegisterError(QTelescopyError, TypeError):
    """A gate or readout a QubitRegister cannot apply on its support."""
