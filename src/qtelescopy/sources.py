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
from functools import lru_cache

import numpy as np

from .state_engine import StateVector, fock


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, or anything without ``__index__``, is refused, not truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@lru_cache(maxsize=None)
def _two_mode_kets(n_max: int) -> np.ndarray:
    """Read-only amplitudes of |00>, |10> and |01> at the cutoff ``n_max``, one row each."""
    kets = np.stack([fock(occupations, n_max).amplitudes for occupations in ((0, 0), (1, 0), (0, 1))])
    kets.setflags(write=False)
    return kets


@dataclass(frozen=True)
class StellarSource:
    """The star: two-port single-photon-level light with visibility ``g``
    and phase ``phi``.

    ``epsilon`` is the mean photon arrival probability per window.
    """

    phi: float
    g: float
    epsilon: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phase phi must be finite, got {self.phi}")
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"visibility g must lie in [0, 1], got {self.g}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"arrival probability must lie in [0, 1], got {self.epsilon}")

    @property
    def mutual_coherence(self) -> complex:
        return self.g * np.exp(-1j * self.phi)

    def pure_branches(self, n_max: int) -> list[tuple[float, StateVector]]:
        """Exact convex decomposition into vacuum and two fringe eigenstates,
        as two-mode states at the photon-number cutoff ``n_max`` of the
        circuit that reads them.

        The one-photon part diagonalizes as (|10> +- e^{-i phi} |01>)/sqrt(2)
        with weights (1 +- g)/2, so the window state is the mixture

            (1 - eps) |00> + eps (1+g)/2 psi_+ + eps (1-g)/2 psi_-.
        """
        phase = np.exp(-1j * self.phi)
        vacuum, one_l, one_r = _two_mode_kets(n_max)
        psi_plus = StateVector((one_l + phase * one_r) / np.sqrt(2.0), 2, n_max)
        psi_minus = StateVector((one_l - phase * one_r) / np.sqrt(2.0), 2, n_max)
        return [
            (1.0 - self.epsilon, StateVector(vacuum, 2, n_max)),
            (self.epsilon * (1.0 + self.g) / 2.0, psi_plus),
            (self.epsilon * (1.0 - self.g) / 2.0, psi_minus),
        ]


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
# arrival draw, one window or a block of windows

NO_PHOTON = None  # the arrival bin of a window without a photon
ARRIVAL_CHUNK = 1 << 16  # uniforms per block of a many-window draw: 512 KiB, whatever the window count


def sample_arrival(epsilon: float, rng: np.random.Generator, size=None):
    """Draw one collection window: whether a photon arrived, with probability
    ``epsilon``.  At most one photon per window by construction.

    ``size`` windows give each window's outcome uniform, or nan where no photon arrived: the stream of ``size``
    single draws, each followed by ``rng.random()`` on an arrival, drawn in blocks of at most ``ARRIVAL_CHUNK``
    uniforms.  Within a run of uniforms below epsilon the even offsets are arrival draws, each followed by its
    outcome uniform.  Past the last window the generator may have drawn more than single draws would."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"arrival probability must lie in [0, 1], got {epsilon}")
    if size is None:
        return rng.random() < epsilon
    if (n := _integer(size, "size")) < 0:
        raise ValueError(f"size must be a non-negative integer, got {size}")
    out, filled, pending = np.empty(n), 0, False  # pending: the last window filled arrived on its block's end
    while filled < n or pending:
        u = rng.random(min(ARRIVAL_CHUNK, pending + 2 * (n - filled)))
        if pending:
            out[filled - 1], u = u[0], u[1:]
        if filled == n:
            break
        below, position = u < epsilon, np.arange(u.size)
        run_head = below & np.insert(~below[:-1], 0, True)
        arrival = below & ((position - np.maximum.accumulate(np.where(run_head, position, 0))) % 2 == 0)
        draws = np.flatnonzero(np.insert(~arrival[:-1], 0, True))[: n - filled]
        # a window that arrived on the block's last uniform takes a clipped placeholder until the next block
        out[filled : filled + draws.size] = np.where(arrival[draws], u.take(draws + 1, mode="clip"), math.nan)
        filled += draws.size
        pending = bool(arrival[draws[-1]]) and draws[-1] == u.size - 1
    return out
