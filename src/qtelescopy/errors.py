"""Exception types shared across the package, the numerical tolerances of
the guards that raise them, and the outcome-table guard.

The CLI maps :class:`ConfigError` to exit code 2 and any
:class:`NumericalInvariantError` to exit code 3.
"""

import math
import sys

# ---------------------------------------------------------------------------
# Numerical tolerances: each threshold at which a guard raises, or a check of the
# built-in validate suite passes, named once by what it bounds.

NORM_ATOL = 1e-10  # mass on undefined labels, squared norm a gate loses, readout weight below 0, Bell-pair norm off 1
SUM_ATOL = 1e-10  # an outcome table's total off 1, in the library and in validate
TABLE_ATOL = 1e-12  # outcome tables are exact to it: in validate, and a probability further below 0 is broken
CHOICE_ATOL = math.sqrt(sys.float_info.epsilon)  # a sampled table's total off 1, as Generator.choice allows
LIFT_ATOL = 1e-12  # probability a lifted two-mode column may lose past the cutoff and stay valid
# classical Fisher: an outcome below PROB_FLOOR leaves the sum unless its derivative reaches
# DERIVATIVE_FLOOR, or that fraction of the largest kept one (FisherDivergenceError)
PROB_FLOOR, DERIVATIVE_FLOOR = 1e-12, 1e-8
FD_STEP = 1e-5  # finite-difference step in phi and g
G_BOUNDARY = 1.0 - 1e-6  # g derivatives are refused from here on, where they diverge (GBoundaryError)
# SLD: eigenvalue pairs below KERNEL_TOL are the kernel of the state, and a derivative weight
# above SLD_ATOL there has no SLD (KernelSupportError); validate holds SLDs to SLD_ATOL
KERNEL_TOL, SLD_ATOL = 1e-12, 1e-10
PHASE_ATOL = 1e-9  # settings a multiple of pi apart within it leave the fringe sign ambiguous
PAIR_ATOL = 1e-9  # overlap off 1 with |Phi+> or |Phi-> that names a Bell pair in memory-demo


def check_table(p, what: str, negative_atol: float | None = None, sum_atol: float | None = None) -> None:
    """Refuse outcome probabilities ``p``, an array named ``what``, with an entry below ``-negative_atol``, a total off
    1 by more than ``sum_atol`` or a nan, by :class:`NumericalInvariantError`; a check with no tolerance is skipped."""
    if negative_atol is not None and not -p.min(initial=0.0) <= negative_atol:  # nan fails it too
        raise NumericalInvariantError(f"{what} has a negative probability {float(p.min())!r}")
    if sum_atol is not None and not abs(p.sum() - 1.0) <= sum_atol:
        raise NumericalInvariantError(f"{what} probabilities sum to {float(p.sum())!r}, not 1")


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
