"""Photonic gate library and projective measurement bases.

Two families of operations act on the truncated Fock register:

* passive linear optics (beam splitters, phase shifts), lifted exactly to
  the bosonic space by expanding creation-operator polynomials, and
* Fock-qubit gates (NOT, CNOT, CZ, Z) defined on the dual-rail occupation
  subspace {0, 1} per mode; labels with two or more photons on a target
  mode are flagged invalid rather than silently mapped.

The beam splitter convention is ``u = [[1, i], [i, 1]] / sqrt(2)``: the
reflected amplitude picks up the factor ``i``, so a single photon entering
the first port exits as ``(|10> + i|01>) / sqrt(2)`` and two photons
entering opposite ports bunch as ``i (|20> + |02>) / sqrt(2)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, factorial, isfinite, sqrt
from typing import Sequence

import numpy as np

from .errors import LIFT_ATOL, NORM_ATOL, QubitRegisterError, check_table
from .state_engine import (
    ModeUnitary,
    QubitRegister,
    StateVector,
    _apply_block,
    _apply_one_mode,
    _check_modes,
    basis_index,
    check_support,
    labels_array,
    space_dim,
)


# ---------------------------------------------------------------------------
# passive linear optics


def _lift_matrix(u: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Bosonic lift of a 2x2 mode unitary with per-column cutoff masks.

    Input labels whose image would spill past ``n_max`` photons on either
    mode get a zero column and ``valid_mask`` False; all other columns are
    exactly norm-preserving because photon number is conserved.
    """
    d = n_max + 1
    dim = d * d
    mat = np.zeros((dim, dim), dtype=complex)
    mask = np.ones(dim, dtype=bool)
    for j, (m, n) in enumerate(labels_array(2, n_max)):
        m, n = int(m), int(n)
        amp: dict[tuple[int, int], complex] = defaultdict(complex)
        for p in range(m + 1):
            for q in range(n + 1):
                k, l = p + q, (m - p) + (n - q)
                coeff = (
                    comb(m, p)
                    * comb(n, q)
                    * u[0, 0] ** p
                    * u[1, 0] ** (m - p)
                    * u[0, 1] ** q
                    * u[1, 1] ** (n - q)
                    * sqrt(factorial(k) * factorial(l) / (factorial(m) * factorial(n)))
                )
                amp[(k, l)] += coeff
        kept = sum(abs(a) ** 2 for (k, l), a in amp.items() if k <= n_max and l <= n_max)
        if kept < 1.0 - LIFT_ATOL:
            mask[j] = False
            continue
        for (k, l), a in amp.items():
            if k <= n_max and l <= n_max:
                mat[k * d + l, j] = a
    return mat, mask


def two_mode_unitary(
    u: np.ndarray, mode_a: int, mode_b: int, n_max: int, name: str = ""
) -> ModeUnitary:
    """Lift an arbitrary 2x2 passive unitary onto a pair of modes."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    mat, mask = _lift_matrix(u, n_max)
    return ModeUnitary((mode_a, mode_b), mat, n_max, mask, name or "two_mode_unitary")


@lru_cache(maxsize=1024)
def beam_splitter(mode_a: int, mode_b: int, n_max: int) -> ModeUnitary:
    """Balanced beam splitter with the i-on-reflection convention."""
    return two_mode_unitary(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0), mode_a, mode_b, n_max, "beam_splitter")


def phase_shift(mode: int, theta: float, n_max: int) -> ModeUnitary:
    """Single-mode phase shift |n> -> exp(i n theta) |n>, for finite n_max * theta."""
    if not isfinite(float(theta) * n_max):
        raise ValueError(f"phase shift {theta!r} times {n_max} photons is not a finite angle")
    phases = np.exp(1j * theta * np.arange(n_max + 1))
    return ModeUnitary((mode,), np.diag(phases), n_max, None, "phase_shift")


# ---------------------------------------------------------------------------
# Fock-qubit gates (dual-rail occupation subspace)


def _qubit_mask(k_modes: int, n_max: int) -> np.ndarray:
    labs = labels_array(k_modes, n_max)
    return np.all(labs <= 1, axis=1)


def _qubit_gate(
    perm_phase: dict[tuple[int, ...], tuple[tuple[int, ...], complex]],
    modes: Sequence[int],
    n_max: int,
    name: str,
) -> ModeUnitary:
    k = len(modes)
    dim = space_dim(k, n_max)
    mat = np.zeros((dim, dim), dtype=complex)
    mask = _qubit_mask(k, n_max)
    for label, (image, phase) in perm_phase.items():
        mat[basis_index(image, n_max), basis_index(label, n_max)] = phase
    return ModeUnitary(tuple(modes), mat, n_max, mask, name)


@lru_cache(maxsize=1024)
def not_fock(mode: int, n_max: int) -> ModeUnitary:
    """Create or destroy the photon on a dual-rail mode: |0> <-> |1>."""
    table = {(0,): ((1,), 1.0), (1,): ((0,), 1.0)}
    return _qubit_gate(table, (mode,), n_max, "not_fock")


@lru_cache(maxsize=1024)
def z_fock(mode: int, n_max: int) -> ModeUnitary:
    """Phase flip on a dual-rail mode: |1> -> -|1>."""
    table = {(0,): ((0,), 1.0), (1,): ((1,), -1.0)}
    return _qubit_gate(table, (mode,), n_max, "z_fock")


@lru_cache(maxsize=1024)
def cnot_fock(control: int, target: int, n_max: int) -> ModeUnitary:
    """Photon created or destroyed in ``target`` iff ``control`` holds one.

    Defined on occupations {0, 1} of both modes; two or more photons on
    either mode is outside the gate's domain.
    """
    table = {
        (0, 0): ((0, 0), 1.0),
        (0, 1): ((0, 1), 1.0),
        (1, 0): ((1, 1), 1.0),
        (1, 1): ((1, 0), 1.0),
    }
    return _qubit_gate(table, (control, target), n_max, "cnot_fock")


@lru_cache(maxsize=1024)
def cz_fock(mode_a: int, mode_b: int, n_max: int) -> ModeUnitary:
    """Controlled phase flip: |11> -> -|11> on a dual-rail mode pair."""
    table = {
        (0, 0): ((0, 0), 1.0),
        (0, 1): ((0, 1), 1.0),
        (1, 0): ((1, 0), 1.0),
        (1, 1): ((1, 1), -1.0),
    }
    return _qubit_gate(table, (mode_a, mode_b), n_max, "cz_fock")


# ---------------------------------------------------------------------------
# projective measurement bases


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Complete set of orthogonal projectors on a subset of modes.

    ``projectors[i]`` acts on the local space of ``target_modes`` and
    corresponds to ``outcomes[i]``.  ``valid_mask`` plays the same role as
    for gates: local labels outside it must carry no probability.  Both are
    read-only copies, so one basis may be shared by many circuits.
    """

    target_modes: tuple[int, ...]
    projectors: tuple[np.ndarray, ...]
    outcomes: tuple
    n_max: int
    valid_mask: np.ndarray
    name: str = ""

    def __post_init__(self):
        if len(set(self.target_modes)) != len(self.target_modes):
            raise ValueError(f"repeated target modes {self.target_modes}")
        dloc = space_dim(len(self.target_modes), self.n_max)
        projectors = tuple(np.array(proj, dtype=complex) for proj in self.projectors)
        mask = np.array(self.valid_mask, dtype=bool)
        for array in projectors + (mask,):
            array.setflags(write=False)
        if any(proj.shape != (dloc, dloc) for proj in projectors):
            raise ValueError("projector shape does not match the target modes")
        if mask.shape != (dloc,):
            raise ValueError("valid_mask length does not match the local dimension")
        if len(projectors) != len(self.outcomes):
            raise ValueError("one outcome per projector required")
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "valid_mask", mask)


def rotated_basis(mode: int, delta: float, n_max: int) -> MeasurementBasis:
    """Dual-rail superposition basis |+-_delta> = (|0> +- e^{i delta} |1>)/sqrt(2).

    Defined on the qubit subspace only; outcomes are the eigenvalues +1/-1.
    """
    if not isfinite(delta):
        raise ValueError(f"readout phase {delta!r} is not a finite angle")
    d = n_max + 1
    projs = []
    for sign in (+1.0, -1.0):
        p = np.zeros((d, d), dtype=complex)
        p[0, 0] = p[1, 1] = 0.5
        p[1, 0] = sign * 0.5 * np.exp(1j * delta)
        p[0, 1] = sign * 0.5 * np.exp(-1j * delta)
        projs.append(p)
    mask = _qubit_mask(1, n_max)
    return MeasurementBasis((mode,), tuple(projs), (+1, -1), n_max, mask, "rotated")


@lru_cache(maxsize=1024)
def x_basis(mode: int, n_max: int) -> MeasurementBasis:
    """Dual-rail X measurement, the delta = 0 rotated basis."""
    return replace(rotated_basis(mode, 0.0, n_max), name="x")


def parity_basis(mode_a: int, mode_b: int, n_max: int) -> MeasurementBasis:
    """Total photon-number parity of a mode pair: outcomes 0 (even), 1 (odd)."""
    totals = labels_array(2, n_max).sum(axis=1)
    projs = tuple(np.diag((totals % 2 == par).astype(complex)) for par in (0, 1))
    mask = np.ones(len(totals), dtype=bool)
    return MeasurementBasis((mode_a, mode_b), projs, (0, 1), n_max, mask, "parity")


def measurement_distribution(state, basis: MeasurementBasis) -> np.ndarray:
    """Outcome probabilities of a projective measurement."""
    state, modes = _readout(state, basis)
    return np.array([np.vdot(state.amplitudes, _projected(state, modes, p)) for p in basis.projectors]).real


def measure_in_basis(state, basis: MeasurementBasis, rng=None):
    """Sample one outcome and collapse. Returns ``(outcome, post_state)``.
    A weight at most ``NORM_ATOL`` below zero is round-off and counts as zero."""
    rng = np.random.default_rng(rng)
    weights = measurement_distribution(state, basis)
    check_table(weights, f"{basis.name or 'basis'} readout", negative_atol=NORM_ATOL)
    weights = np.maximum(weights, 0.0)
    outcome = basis.outcomes[int(rng.choice(len(weights), p=weights / weights.sum()))]
    return outcome, project(state, basis, outcome)[1]


def project(state, basis: MeasurementBasis, outcome):
    """Project onto one declared outcome without sampling.

    Returns ``(probability, normalized post-measurement state)``; the state
    is ``None`` when the outcome has zero weight.  Useful for enumerating
    measurement branches deterministically.
    """
    state, modes = _readout(state, basis)
    try:
        idx = basis.outcomes.index(outcome)
    except ValueError:
        raise ValueError(f"{outcome!r} is not an outcome of {basis.name or 'this basis'}")
    projected = _projected(state, modes, basis.projectors[idx])
    weight = float(np.vdot(state.amplitudes, projected).real)
    if weight <= 0.0:
        return 0.0, None
    projected /= np.sqrt(weight)
    return weight, replace(state, amplitudes=projected)


def _readout(state, basis: MeasurementBasis):
    """The state a readout of ``basis`` reads, and the modes it reads there: a
    :class:`QubitRegister` is read in its ``paired`` layout, where the measured mode leads."""
    if not isinstance(state, (StateVector, QubitRegister)):
        raise TypeError("a readout acts on a StateVector or a QubitRegister")
    _check_modes(basis.target_modes, state.mode_count)
    check_support(basis, state, f"{basis.name or 'basis'} measurement")
    if not isinstance(state, QubitRegister):
        return state, basis.target_modes
    if basis.n_max != 1 or len(basis.target_modes) != 1:
        raise QubitRegisterError(f"{basis.name or 'basis'} on {basis.target_modes} is not a one-mode readout at cutoff 1")
    return state.paired(basis.target_modes[0]), (0,)


def _projected(state, target_modes: tuple[int, ...], proj: np.ndarray) -> np.ndarray:
    """Amplitudes of ``proj`` applied on ``target_modes``; one mode needs no copy."""
    if len(target_modes) == 1:
        return _apply_one_mode(proj, target_modes[0], state.amplitudes, state.n_max + 1)
    return _apply_block(proj, target_modes, state)
