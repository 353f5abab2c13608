"""Classical and quantum Fisher information over the (phi, g) parameter pair.

Classical information comes from finite differences of an outcome model;
quantum information from symmetric logarithmic derivatives (SLDs) solved by
eigendecomposition.  Parameter order is fixed to ``(phi, g)`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DERIVATIVE_FLOOR, FD_STEP, G_BOUNDARY, KERNEL_TOL, PROB_FLOOR, SLD_ATOL, SUM_ATOL, TABLE_ATOL
from .errors import FisherDivergenceError, GBoundaryError, KernelSupportError, NumericalInvariantError, check_table

PARAMETERS = ("phi", "g")


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Parameterized outcome distribution (phi, g) -> probability vector.

    ``distribution`` maps a parameter point to a dict keyed by outcome
    labels; the label set is frozen at construction so probability vectors
    are comparable across parameter points.
    """

    distribution: Callable[[float, float], dict]
    outcomes: tuple
    name: str = ""

    @cached_property
    def _position(self) -> dict:
        return {label: i for i, label in enumerate(self.outcomes)}

    def probs(self, phi: float, g: float) -> np.ndarray:
        table = self.distribution(phi, g)
        p = np.zeros(len(self.outcomes))
        try:
            p[[self._position[label] for label in table]] = list(table.values())
        except KeyError as exc:
            raise NumericalInvariantError(
                f"model {self.name or '?'} produced outcome {exc} outside its declared label set"
            ) from None
        check_table(p, f"model {self.name or '?'}", TABLE_ATOL, SUM_ATOL)
        return p


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """2x2 real symmetric information matrix over (phi, g)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def phi_phi(self) -> float:
        return float(self.matrix[0, 0])

    @property
    def g_g(self) -> float:
        return float(self.matrix[1, 1])

    @property
    def phi_g(self) -> float:
        return float(self.matrix[0, 1])


def _shift(at: tuple[float, float], param: str, h: float) -> tuple[float, float]:
    phi, g = at
    return (phi + h, g) if param == "phi" else (phi, g + h)


def _derivative(model: OutcomeModel, at: tuple[float, float], param: str, p0: np.ndarray) -> np.ndarray:
    """Central difference with one Richardson extrapolation level.

    Within ``FD_STEP`` of an end of g's domain [0, 1], where the central stencil
    would leave it, the g difference is one-sided towards the interior, from
    ``p0`` at ``at``, again with one Richardson level.
    """
    h = FD_STEP
    if param == "g" and not h <= at[1] <= 1.0 - h:
        side = 1.0 if at[1] < h else -1.0

        def one_sided(step: float) -> np.ndarray:
            return side * (model.probs(*_shift(at, param, side * step)) - p0) / step

        return 2.0 * one_sided(h / 2.0) - one_sided(h)

    def central(step: float) -> np.ndarray:
        hi = model.probs(*_shift(at, param, +step))
        lo = model.probs(*_shift(at, param, -step))
        return (hi - lo) / (2.0 * step)

    coarse = central(h)
    fine = central(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def classical_fisher(
    model: OutcomeModel,
    at: tuple[float, float],
    wrt: Sequence[str] = PARAMETERS,
) -> FisherMatrix:
    """Classical Fisher matrix of ``model`` at ``at = (phi, g)``.

    Entries outside ``wrt`` are left at zero.  Outcomes with probability
    below ``PROB_FLOOR`` are excluded from the sum, provided their derivative
    stays below ``DERIVATIVE_FLOOR``, and below that fraction of the largest
    kept one; otherwise the sum diverges, or would drop information on the
    scale of the kept outcomes (heralded ones at a tiny arrival probability),
    and a :class:`FisherDivergenceError` is raised.  Derivatives with respect
    to g are refused from ``G_BOUNDARY`` on, where they diverge.
    """
    wrt = tuple(wrt)
    for param in wrt:
        if param not in PARAMETERS:
            raise ValueError(f"unknown parameter {param!r}")
    phi, g = at
    if "g" in wrt and g >= G_BOUNDARY:
        raise GBoundaryError(
            f"visibility derivative requested at g = {g}, too close to the g = 1 boundary"
        )

    p0 = model.probs(phi, g)
    keep = p0 >= PROB_FLOOR
    grads: dict[str, np.ndarray] = {}
    for param in wrt:
        dp = _derivative(model, at, param, p0)
        floor = DERIVATIVE_FLOOR * min(1.0, np.abs(dp[keep]).max(initial=0.0))
        bad = ~keep & (np.abs(dp) >= floor) & (dp != 0.0)
        if np.any(bad):
            labels = [model.outcomes[i] for i in np.flatnonzero(bad)]
            raise FisherDivergenceError(
                f"outcomes {labels} have probability below {PROB_FLOOR} but a non-vanishing "
                f"{param} derivative; the Fisher information diverges, or would drop them"
            )
        grads[param] = dp

    mat = np.zeros((2, 2))
    for i, pi in enumerate(PARAMETERS):
        for j, pj in enumerate(PARAMETERS):
            if pi in grads and pj in grads:
                mat[i, j] = float(np.sum(grads[pi][keep] * grads[pj][keep] / p0[keep]))
    return FisherMatrix(mat)


# ---------------------------------------------------------------------------
# quantum side: SLDs and the QFI matrix


def _as_matrix(rho) -> np.ndarray:
    mat = np.asarray(rho, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    return mat


def sld(rho, drho) -> np.ndarray:
    """Symmetric logarithmic derivative: solves (L rho + rho L)/2 = drho.

    Solved in the eigenbasis of rho as L_mn = 2 <m|drho|n> / (lam_m + lam_n),
    skipping eigenvalue pairs below ``KERNEL_TOL``.  If the derivative has
    weight on such a kernel pair, the SLD does not exist and a
    :class:`KernelSupportError` is raised.
    """
    rho = _as_matrix(rho)
    drho = _as_matrix(drho)
    lam, vec = np.linalg.eigh(rho)
    mid = vec.conj().T @ drho @ vec
    denom = lam[:, None] + lam[None, :]
    live = denom >= KERNEL_TOL
    dead_weight = np.abs(mid[~live])
    if dead_weight.size and dead_weight.max() > SLD_ATOL:
        raise KernelSupportError(
            f"state derivative has weight {dead_weight.max():.3e} on the kernel "
            "of the state; the logarithmic derivative is undefined there"
        )
    l_eig = np.zeros_like(mid)
    l_eig[live] = 2.0 * mid[live] / denom[live]
    out = vec @ l_eig @ vec.conj().T
    return (out + out.conj().T) / 2.0


def qfi_matrix(rho, drho_phi=None, drho_g=None) -> FisherMatrix:
    """Quantum Fisher matrix h_ij = Tr[rho (L_i L_j + L_j L_i) / 2].

    Entries are computed only for the supplied derivatives; the rest stay
    zero.  Real and symmetric by construction.
    """
    return sld_fisher(rho, *(None if drho is None else sld(rho, drho) for drho in (drho_phi, drho_g)))


def sld_fisher(rho, l_phi=None, l_g=None) -> FisherMatrix:
    """:func:`qfi_matrix` from the SLDs themselves, so that a caller that also needs them solves each once."""
    rho = _as_matrix(rho)
    slds = {i: li for i, li in enumerate((l_phi, l_g)) if li is not None}
    mat = np.zeros((2, 2))
    for i, li in slds.items():
        for j, lj in slds.items():
            sym = (li @ lj + lj @ li) / 2.0
            mat[i, j] = float(np.real(np.trace(rho @ sym)))
    return FisherMatrix(mat)


def sld_commutation_trace(rho, l_a: np.ndarray, l_b: np.ndarray) -> complex:
    """The scalar Tr(rho [L_a, L_b]), kept for completeness.

    For the single-photon interferometric family this trace vanishes
    identically (the commutator is proportional to sigma_z while rho has a
    balanced diagonal), so it carries no saturability signal; see
    :func:`saturability_check` for the informative magnitude.
    """
    rho = _as_matrix(rho)
    return complex(np.trace(rho @ (l_a @ l_b - l_b @ l_a)))


def saturability_check(rho, l_phi: np.ndarray, l_g: np.ndarray) -> float:
    """Magnitude of the weak-commutativity violation rho [L_phi, L_g].

    Returns the trace norm of rho [L_phi, L_g].  It vanishes exactly when
    the SLDs commute on the support of the state, in which case the
    two-parameter quantum Cramer-Rao bound is jointly attainable; a value
    above ~1e-8 flags that phi and g cannot be estimated at their
    individual quantum limits simultaneously.  (The scalar trace of the
    same operator is identically zero for this family and is exposed
    separately as :func:`sld_commutation_trace`.)
    """
    rho = _as_matrix(rho)
    violation = rho @ (l_phi @ l_g - l_g @ l_phi)
    return float(np.linalg.svd(violation, compute_uv=False).sum())
