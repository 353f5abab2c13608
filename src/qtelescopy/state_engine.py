"""Truncated multimode Fock-space states and exact linear evolution.

A register of ``mode_count`` optical modes with per-mode photon cutoff
``n_max`` lives in a dense Hilbert space of dimension
``(n_max + 1) ** mode_count``.  Basis labels are enumerated in row-major
order with mode 0 as the most significant digit: the flat index of the
occupation tuple ``(n_0, ..., n_{M-1})`` is
``sum(n_m * (n_max + 1) ** (M - 1 - m))``, which is exactly the order
produced by :func:`numpy.ndindex`.  Both registers build their input
from one support product of placed factor states: :func:`tensor_at`
scatters it into a dense vector, :meth:`QubitRegister.place` keeps it.

A :class:`QubitRegister` (a cutoff-1 state held on its support) takes a gate
whose matrix is a signed permutation of its local labels (the Fock-qubit
gates and phase shifts at ``n_max = 1``): the image and phase of each label
are read off the matrix once per gate and placement, and applied as XORs and
phases of the register's labels.  Every gate or readout on a dense register
gathers its modes once through ``_gather``, a cached table of flat indices
with those modes leading: the support guard reads the block outside the valid
labels, and the gate's matrix or each projector multiplies the block, which
is scattered back through the table.  A rank-1 one-mode projection leaves the
product of its vector and a state of the other modes, so a caller that never
gates the measured mode again may keep that factor, the mode in vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Sequence

import numpy as np

from .errors import NORM_ATOL, CutoffError, InvalidSubspaceError, LeakageError, QubitRegisterError

MAX_QUBIT_MODES = 62  # int64 labels: a bit per mode below a spare bit and the sign bit


# ---------------------------------------------------------------------------
# basis bookkeeping


def space_dim(mode_count: int, n_max: int) -> int:
    return (n_max + 1) ** mode_count


def basis_index(occupations: Sequence[int], n_max: int) -> int:
    """Flat index of an occupation tuple (mode 0 most significant)."""
    idx = 0
    for n in occupations:
        if not 0 <= n <= n_max:
            raise CutoffError(
                f"occupation {n} outside [0, {n_max}] in label {tuple(occupations)}"
            )
        idx = idx * (n_max + 1) + int(n)
    return idx


def basis_label(index: int, mode_count: int, n_max: int) -> tuple[int, ...]:
    """Occupation tuple for a flat basis index."""
    d, dim = n_max + 1, space_dim(mode_count, n_max)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} is outside [0, {dim}) on a {dim}-dimensional register")
    digits = []
    for _ in range(mode_count):
        digits.append(index % d)
        index //= d
    return tuple(reversed(digits))


@lru_cache(maxsize=None)
def labels_array(mode_count: int, n_max: int) -> np.ndarray:
    """All occupation labels as a read-only ``(dim, mode_count)`` int array."""
    d = n_max + 1
    grids = np.indices((d,) * mode_count).reshape(mode_count, -1).T
    grids = np.ascontiguousarray(grids)
    grids.setflags(write=False)
    return grids


@lru_cache(maxsize=None)
def _label_tuples(mode_count: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, labels_array(mode_count, n_max).tolist()))


def basis_labels(mode_count: int, n_max: int) -> list[tuple[int, ...]]:
    """All occupation tuples in flat-index order (a fresh list of cached tuples)."""
    return list(_label_tuples(mode_count, n_max))


# ---------------------------------------------------------------------------
# state containers


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state over the truncated Fock register."""

    amplitudes: np.ndarray
    mode_count: int
    n_max: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (space_dim(self.mode_count, self.n_max),):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({space_dim(self.mode_count, self.n_max)},)"
            )
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class QubitRegister:
    """Pure state of ``mode_count`` modes at cutoff 1, held on its support.

    ``labels`` are the flat indices of ``amplitudes``, distinct int64 bitmasks
    with mode ``m`` at bit ``mode_count - 1 - m``: the register is the
    :class:`StateVector` with ``amplitudes`` at ``labels`` and zeros elsewhere.
    Its arrays are never changed in place.
    """

    labels: np.ndarray
    amplitudes: np.ndarray
    mode_count: int
    n_max: ClassVar[int] = 1

    def __post_init__(self):
        labels, amps = np.asarray(self.labels, np.int64), np.asarray(self.amplitudes, complex)
        if not 0 <= self.mode_count <= MAX_QUBIT_MODES or labels.ndim != 1 or labels.shape != amps.shape:
            raise ValueError(f"need one label per amplitude on 0 to {MAX_QUBIT_MODES} modes, not "
                             f"{labels.shape} labels, {amps.shape} amplitudes, {self.mode_count} modes")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def place(cls, factors: Sequence[tuple[StateVector, Sequence[int]]], mode_count: int):
        """:func:`tensor_at` onto a register: each ``(state, modes)`` factor is a
        cutoff-1 state placed at ``modes``; every mode no factor names holds vacuum."""
        cls([], [], mode_count)  # refuses a mode count outside 0..62 before any stride is formed
        return cls(*_support_product(factors, mode_count, 1), mode_count)

    def _local_index(self, modes: Sequence[int]) -> np.ndarray:
        """Each amplitude's local label on ``modes``, in range, as a flat index (first mode most significant)."""
        index = 0
        for m in modes:
            index = (index << 1) | ((self.labels >> (self.mode_count - 1 - m)) & 1)
        return index


def fock(occupations: Sequence[int], n_max: int) -> StateVector:
    """Product Fock state |n_0, n_1, ..., n_{M-1}>."""
    occupations = tuple(int(n) for n in occupations)
    amps = np.zeros(space_dim(len(occupations), n_max), dtype=complex)
    amps[basis_index(occupations, n_max)] = 1.0
    return StateVector(amps, len(occupations), n_max)


def _check_modes(modes: Sequence[int], mode_count: int) -> None:
    if any(not 0 <= m < mode_count for m in modes):
        raise ValueError(f"modes {tuple(modes)} out of range for {mode_count} modes")


def _support_product(factors, mode_count: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and amplitudes of the nonzero entries of a product state.

    Each ``(state, modes)`` factor is a cutoff-``n_max`` state placed at
    ``modes``; mode ``m`` has stride ``(n_max + 1) ** (mode_count - 1 - m)``,
    and every mode no factor names holds vacuum.  Amplitudes multiply in
    factor order, as in a Kronecker product of the factors.
    """
    index, amps, named = np.zeros(1, np.int64), np.ones(1, complex), []
    for factor, modes in factors:
        modes = [int(m) for m in modes]
        if factor.n_max != n_max or len(modes) != factor.mode_count:
            raise ValueError(f"a factor must be a cutoff-{n_max} state with one mode per listed mode")
        _check_modes(modes, mode_count)
        nz, named = np.flatnonzero(factor.amplitudes), named + modes
        strides = (n_max + 1) ** (mode_count - 1 - np.array(modes, np.int64))
        index = (index[:, None] + labels_array(len(modes), n_max)[nz] @ strides).reshape(-1)
        amps = (amps[:, None] * factor.amplitudes[nz]).reshape(-1)
    if len(set(named)) != len(named):
        raise ValueError(f"factor modes {named} repeat a mode")
    return index, amps


def tensor_at(factors: Sequence[tuple[StateVector, Sequence[int]]]) -> StateVector:
    """Compose disjoint factors placed at explicit register modes.

    ``factors`` is a sequence of ``(state, modes)`` pairs whose mode lists
    together partition the register.
    """
    if not factors:
        raise ValueError("no factors given")
    n_max, mode_count = factors[0][0].n_max, sum(state.mode_count for state, _ in factors)
    amps = np.zeros(space_dim(mode_count, n_max), dtype=complex)
    index, support = _support_product(factors, mode_count, n_max)
    amps[index] = support
    return StateVector(amps, mode_count, n_max)


# ---------------------------------------------------------------------------
# local unitaries


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """Unitary block acting on an ordered subset of modes.

    ``matrix`` has shape ``(d**k, d**k)`` with ``d = n_max + 1`` and ``k``
    the number of target modes; its tensor factors follow ``target_modes``
    order.  ``valid_mask`` flags the local input labels on which the block
    is defined; columns for invalid labels must be zero.  States carrying
    more than ``NORM_ATOL`` probability on invalid labels are rejected.
    Both arrays are read-only, so one gate may be shared by many circuits.
    """

    target_modes: tuple[int, ...]
    matrix: np.ndarray
    n_max: int
    valid_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = ""

    def __post_init__(self):
        targets = tuple(int(m) for m in self.target_modes)
        if len(set(targets)) != len(targets):
            raise ValueError(f"repeated target modes {targets}")
        mat = np.array(self.matrix, dtype=complex)
        dloc = space_dim(len(targets), self.n_max)
        if mat.shape != (dloc, dloc):
            raise ValueError(f"matrix shape {mat.shape} does not match {len(targets)} modes")
        mask = np.ones(dloc, dtype=bool) if self.valid_mask is None else np.array(self.valid_mask, dtype=bool)
        if mask.shape != (dloc,):
            raise ValueError("valid_mask length does not match the local dimension")
        mat.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "target_modes", targets)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "valid_mask", mask)

    def invalid_labels(self) -> list[tuple[int, ...]]:
        """Local labels outside ``valid_mask`` as int tuples; also read off a measurement basis."""
        return list(map(tuple, labels_array(len(self.target_modes), self.n_max)[~self.valid_mask].tolist()))


@lru_cache(maxsize=256)
def _gather(modes: tuple[int, ...], d: int, mode_count: int) -> np.ndarray:
    """Read-only ``(d**k, d**(mode_count - k))`` table of flat indices with the
    ``k`` modes ``modes`` leading: ``amps[table]`` moves them to the front, and
    assigning through the table moves them back."""
    t = np.arange(d**mode_count).reshape((d,) * mode_count)
    table = np.moveaxis(t, modes, range(len(modes))).reshape(d ** len(modes), -1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def _flip_table(gate: ModeUnitary, mode_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per local label of ``gate`` on a register of ``mode_count`` modes: the XOR
    that takes a label to its image, and the phase, read off a matrix with one
    nonzero entry in each column and each row.  Any other gate, or one at a
    cutoff above 1, is refused with :class:`QubitRegisterError`."""
    local, images = np.nonzero(gate.matrix.T)
    dim = len(gate.matrix)
    if gate.n_max != 1 or not np.array_equal(local, range(dim)) or len(set(images.tolist())) != dim:
        raise QubitRegisterError(f"{gate.name or 'gate'} is not a signed permutation at cutoff 1")
    moved = (local ^ images)[:, None] >> np.arange(len(gate.target_modes) - 1, -1, -1) & 1
    bits = 1 << (mode_count - 1 - np.array(gate.target_modes, np.int64))
    flips, phases = moved @ bits, gate.matrix[images, local]
    flips.setflags(write=False)
    phases.setflags(write=False)
    return flips, phases


def check_support(op, outside: np.ndarray, what: str) -> None:
    """Refuse by :class:`InvalidSubspaceError` a state whose amplitudes ``outside`` ``op.valid_mask``, read in the
    caller's layout, carry over ``NORM_ATOL`` probability; ``op``, a gate or a measurement basis, is named ``what``."""
    mass = float(np.vdot(outside, outside).real)
    if mass > NORM_ATOL:
        raise InvalidSubspaceError(
            f"{what} on modes {op.target_modes} is undefined for labels "
            f"{ModeUnitary.invalid_labels(op)}; input carries probability {mass:.3e} there"
        )


def apply_unitary(state, gate: ModeUnitary):
    """Apply a local unitary to a :class:`StateVector` or a :class:`QubitRegister`.

    Raises :class:`InvalidSubspaceError` by :func:`check_support`, and :class:`LeakageError` if the
    application loses more than ``NORM_ATOL`` of squared norm (weight pushed past the cutoff), or the
    input's norm is not finite, before any gate arithmetic.  A register refuses a gate that is not a
    signed permutation at cutoff 1 (:class:`QubitRegisterError`).
    """
    qubits = isinstance(state, QubitRegister)
    if not qubits and not isinstance(state, StateVector):
        raise TypeError("gates act on a StateVector or a QubitRegister; mix over branches instead")
    _check_modes(gate.target_modes, state.mode_count)
    if qubits:
        flips, phases = _flip_table(gate, state.mode_count)
        local = state._local_index(gate.target_modes)
        outside = state.amplitudes[~gate.valid_mask[local]]
    elif gate.n_max != state.n_max:
        raise ValueError("gate and state cutoffs differ")
    else:
        table = _gather(gate.target_modes, state.n_max + 1, state.mode_count)
        block = state.amplitudes[table]
        outside = block[~gate.valid_mask]

    check_support(gate, outside, gate.name or "gate")
    before = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if not np.isfinite(before):
        new = state  # refused below as not finite, before the gate's arithmetic warns on it
    elif qubits:
        new = QubitRegister(state.labels ^ flips[local], state.amplitudes * phases[local], state.mode_count)
    else:
        amps = np.empty_like(state.amplitudes)
        amps[table] = gate.matrix @ block
        new = StateVector(amps, state.mode_count, state.n_max)
    after = float(np.vdot(new.amplitudes, new.amplitudes).real)
    if not before - after <= NORM_ATOL:  # a nan norm, or inf - inf, fails this test too
        raise LeakageError(
            f"{gate.name or 'gate'} on modes {gate.target_modes} took the squared norm from "
            f"{before!r} to {after!r}: lost past the cutoff n_max={state.n_max}, or not finite"
        )
    return new


# ---------------------------------------------------------------------------
# measurement


def number_measurement_distribution(state) -> dict[tuple[int, ...], float]:
    """Photon-number distribution of the whole register: a map from occupation
    tuples to probabilities; exact zeros are omitted."""
    probs = state.probabilities()
    labs = _label_tuples(state.mode_count, state.n_max)
    seen = np.flatnonzero(probs > 0.0)
    return dict(zip([labs[i] for i in seen.tolist()], probs[seen].tolist()))

