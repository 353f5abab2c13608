"""Weak thermal starlight collected at two distant sites.

Within one coherence-time window the light entering the two telescope
ports is modelled at the single-photon level: with probability
``1 - epsilon`` the window is empty, and with probability ``epsilon`` a
single photon arrives delocalized over the two ports.  The conditional
one-photon state in the ordered basis ``(|10>, |01>)`` is

    rho_c = (1/2) [[1, conj(nu)], [nu, 1]],      nu = g exp(-i phi),

where ``g`` is the fringe visibility (the modulus of the mutual coherence
of the two ports) and ``phi`` the interferometric phase carrying the
pointing information.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .state_engine import StateVector, fock


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, or anything without ``__index__``, is refused, not truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class StellarSource:
    """Two-port single-photon-level source with visibility ``g`` and phase ``phi``.

    ``epsilon`` is the mean photon arrival probability per window.
    """

    phi: float
    g: float
    epsilon: float
    n_max: int = 2

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phase phi must be finite, got {self.phi}")
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"visibility g must lie in [0, 1], got {self.g}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"arrival probability must lie in [0, 1], got {self.epsilon}")
        if _integer(self.n_max, "n_max") < 1:
            raise ValueError("the source needs at least a one-photon cutoff")

    @property
    def mutual_coherence(self) -> complex:
        return self.g * np.exp(-1j * self.phi)

    def pure_branches(self) -> list[tuple[float, StateVector]]:
        """Exact convex decomposition into vacuum and two fringe eigenstates.

        The one-photon part diagonalizes as (|10> +- e^{-i phi} |01>)/sqrt(2)
        with weights (1 +- g)/2, so the window state is the mixture

            (1 - eps) |00> + eps (1+g)/2 psi_+ + eps (1-g)/2 psi_-.
        """
        phase = np.exp(-1j * self.phi)
        one_l = fock((1, 0), self.n_max)
        one_r = fock((0, 1), self.n_max)
        psi_plus = StateVector(
            (one_l.amplitudes + phase * one_r.amplitudes) / np.sqrt(2.0), 2, self.n_max
        )
        psi_minus = StateVector(
            (one_l.amplitudes - phase * one_r.amplitudes) / np.sqrt(2.0), 2, self.n_max
        )
        return [
            (1.0 - self.epsilon, fock((0, 0), self.n_max)),
            (self.epsilon * (1.0 + self.g) / 2.0, psi_plus),
            (self.epsilon * (1.0 - self.g) / 2.0, psi_minus),
        ]

    def sample_branch(self, rng=None) -> tuple[str, StateVector]:
        """Draw one window: ('vacuum'|'plus'|'minus', two-mode pure state)."""
        rng = np.random.default_rng(rng)
        branches = self.pure_branches()
        weights = np.array([w for w, _ in branches])
        idx = int(rng.choice(3, p=weights / weights.sum()))
        return ("vacuum", "plus", "minus")[idx], branches[idx][1]


def single_photon_conditional(source: StellarSource) -> np.ndarray:
    """The window state conditioned on a photon having arrived,
    (1/2)[[1, nu*], [nu, 1]] in the basis (|10>, |01>)."""
    if source.epsilon == 0.0:
        raise ValueError("cannot condition on a photon arrival when epsilon = 0")
    nu = source.mutual_coherence
    return 0.5 * np.array([[1.0, np.conj(nu)], [nu, 1.0]])


def conditional_phi_derivative(phi: float, g: float) -> np.ndarray:
    """d/dphi of the conditional one-photon state, basis (|10>, |01>)."""
    e = np.exp(1j * phi)
    return 0.5 * g * np.array([[0.0, 1j * e], [-1j * np.conj(e), 0.0]])


def conditional_g_derivative(phi: float, g: float) -> np.ndarray:
    """d/dg of the conditional one-photon state, basis (|10>, |01>)."""
    e = np.exp(1j * phi)
    return 0.5 * np.array([[0.0, e], [np.conj(e), 0.0]])


# ---------------------------------------------------------------------------
# per-window arrival draw

NO_PHOTON = None  # the arrival bin of a window without a photon


def sample_arrival(epsilon: float, rng: np.random.Generator) -> bool:
    """Draw one collection window: whether a photon arrived, with probability
    ``epsilon``.  At most one photon per window by construction."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"arrival probability must lie in [0, 1], got {epsilon}")
    return rng.random() < epsilon
