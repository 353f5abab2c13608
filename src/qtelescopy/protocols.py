"""Executable models of the interferometric measurement protocols.

Four measurement schemes over the same two-port stellar source:

* direct two-basis readout of the shared photon (one lab measures X, the
  other a delta-rotated basis);
* the Gottesman-style single-ancilla-photon baseline with tunable local
  optics, plus a numerical search over random passive local unitaries for
  its information ceiling;
* the six-mode entangled-ancilla protocol built from photon-number
  controlled gates, in two operationally equivalent wirings (a coherent
  CNOT sequence, or local parity readout with a fed-forward NOT), with
  heralding on the outer modes and an ancilla-loss error model;
* time-bin quantum-memory protocols that stamp the photon's arrival bin
  into Bell pairs, in the original (memory-qubit) and the halved-resource
  variants.

Every distribution here is produced by running the corresponding circuit through the state
engine; closed-form outcome tables live only in the test oracles.  Each wiring of the six-mode
circuit, the four-mode baseline and the direct readout is written once as a tuple of gates and
readouts: :func:`_walk` enumerates its readout outcomes into a table, or samples one outcome each
for a window.  Each window state is linear in nu = g e^{-i phi} and each circuit a fixed linear map,
so :func:`_compile` walks a circuit four times per setting into its law, rows (V, K, X, Y) over its
support, which every distribution function reads (:func:`_read_laws`); the batch sampler draws each
six-mode window's branch and flat outcome index from walked branch tables, as arrays.  The local X
readouts that decode a Bell pair are the direct readout at delta = 0, drawn from the same enumeration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import NORM_ATOL, SUM_ATOL, TABLE_ATOL, check_table
from .gates import (
    MeasurementBasis,
    beam_splitter,
    cnot_fock,
    cz_fock,
    measure_in_basis,
    measurement_distribution,
    not_fock,
    parity_basis,
    phase_shift,
    project,
    rotated_basis,
    two_mode_unitary,
    x_basis,
    z_fock,
)
from .sources import NO_PHOTON, StellarSource, _integer
from .state_engine import (
    ModeUnitary,
    QubitRegister,
    StateVector,
    apply_unitary,
    basis_index,
    basis_label,
    fock,
    number_measurement_distribution,
    tensor_at,
)

# photon-number cutoff of the six-mode, four-mode and direct circuits (the
# memory registers use 1): a window holds at most one stellar and one
# ancilla photon, so no mode ever holds more than two and it is exact
N_MAX = 2


class Herald(enum.Enum):
    PHOTON_ARRIVED = "photon_arrived"
    VACUUM = "vacuum"
    INVALID = "invalid"


class Variant(enum.Enum):
    """The two equivalent wirings of the entangled-ancilla protocol."""

    CNOT_SEQUENCE = "cnot_sequence"
    PARITY_FEED_FORWARD = "parity_feed_forward"

    @classmethod
    def parse(cls, value) -> "Variant":
        if isinstance(value, cls):
            return value
        # accept both snake_case and the CamelCase names used in configs
        key = str(value).replace("-", "_").lower().replace("__", "_")
        for member in cls:
            if key in (member.value, member.value.replace("_", "")):
                return member
        raise ValueError(f"unknown protocol variant {value!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of the entangled-ancilla protocol.

    ``delta`` is the tunable readout phase, ``eta`` the probability that
    the entangled ancilla pair is actually supplied for a window (the
    sole modeled error mechanism), and ``variant`` selects the wiring.
    """

    delta: float
    eta: float = 1.0
    variant: Variant = Variant.CNOT_SEQUENCE

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        object.__setattr__(self, "variant", Variant.parse(self.variant))


@dataclass(frozen=True)
class DetectionRecord:
    """One window's measurement record of the six-mode circuit.

    ``counts`` holds per-mode photon numbers.  The herald says whether the
    outer-mode comparison flags a stellar photon.
    """

    herald: Herald
    counts: tuple | None = None


# six-mode register of the entangled-ancilla protocol
EXTRA_L, STAR_L, ANC_L, STAR_R, ANC_R, EXTRA_R = range(6)


def classify_herald(counts: Sequence[int]) -> Herald:
    """Herald rule: the outer modes agree iff the stellar photon arrived."""
    c0, c5 = counts[EXTRA_L], counts[EXTRA_R]
    if c0 not in (0, 1) or c5 not in (0, 1):
        return Herald.INVALID
    return Herald.PHOTON_ARRIVED if c0 == c5 else Herald.VACUUM


def _cnot_input_state(star: StateVector, ancilla_present: bool) -> StateVector:
    """Tensor the two-mode stellar state into the six-mode register.

    The outer modes always carry one photon each.  When the entangled
    ancilla is supplied, a single extra photon is shared coherently
    between the two inner ancilla modes; when it is lost those modes are
    left in vacuum.
    """
    anc = _ancilla_factor(ancilla_present, star.n_max)
    return tensor_at([(anc, (EXTRA_L, ANC_L, ANC_R, EXTRA_R)), (star, (STAR_L, STAR_R))])


@lru_cache(maxsize=4)
def _ancilla_factor(present: bool, n_max: int) -> StateVector:
    """The read-only state of modes (EXTRA_L, ANC_L, ANC_R, EXTRA_R) of :func:`_cnot_input_state`."""
    labels = ((1, 1, 0, 1), (1, 0, 1, 1)) if present else ((1, 0, 0, 1),)
    amps = sum(fock(label, n_max).amplitudes for label in labels) / np.sqrt(len(labels))
    amps.setflags(write=False)
    return StateVector(amps, 4, n_max)


@lru_cache(maxsize=64)
def _cnot_steps(delta: float, variant: Variant) -> tuple:
    """One wiring of the six-mode circuit, as :func:`_walk` steps.

    After the ancilla phase, each lab ties its (star, ancilla) pair to its
    outer mode: by a coherent CNOT chain, or by reading the pair's
    photon-number parity and feeding forward a NOT, onto the ancilla mode
    after even parity and onto the outer mode after odd parity.  A CZ and
    the two beam splitters close both wirings.
    """

    def lab(star: int, anc: int, extra: int) -> tuple:
        if variant is Variant.CNOT_SEQUENCE:
            return tuple(cnot_fock(c, t, N_MAX) for c, t in ((star, extra), (anc, extra), (extra, anc)))
        then = ((not_fock(anc, N_MAX),), (not_fock(extra, N_MAX),))
        return ((parity_basis(star, anc, N_MAX), then),)

    phase = (phase_shift(ANC_L, delta, N_MAX),)
    closing = (cz_fock(EXTRA_L, STAR_L, N_MAX), beam_splitter(STAR_L, ANC_L, N_MAX), beam_splitter(STAR_R, ANC_R, N_MAX))
    return phase + lab(STAR_L, ANC_L, EXTRA_L) + lab(STAR_R, ANC_R, EXTRA_R) + closing


def _walk(state, steps, rng=None, weight=1.0):
    """Run a wiring on ``state``: yield ``(outcomes, weight, state)`` per readout path.

    A step is a gate, or a readout ``(basis, then)`` whose ``then[i]`` holds
    the gates that follow ``basis.outcomes[i]``.  Without ``rng`` every
    outcome of nonzero weight is followed through :func:`project`, its
    weight multiplied into ``weight`` left to right; with ``rng`` each
    readout samples one outcome, and the one path keeps ``weight``.
    """
    for i, step in enumerate(steps):
        if isinstance(step, ModeUnitary):
            state = apply_unitary(state, step)
            continue
        basis, then = step
        if rng is None:
            reads = ((outcome, *project(state, basis, outcome)) for outcome in basis.outcomes)
        else:
            outcome, post = measure_in_basis(state, basis, rng)
            reads = ((outcome, 1.0, post),)
        for outcome, w, post in reads:
            if post is not None:
                rest = then[basis.outcomes.index(outcome)] + steps[i + 1 :]
                for tail, leaf_weight, leaf in _walk(post, rest, rng, weight * w):
                    yield (outcome,) + tail, leaf_weight, leaf
        return
    yield (), weight, state


def _count_table(state, steps) -> dict:
    """Photon-count table of every mode after a wiring, summed over its readout paths."""
    table: dict = {}
    for _, w, leaf in _walk(state, steps):
        for label, p in number_measurement_distribution(leaf).items():
            table[label] = table.get(label, 0.0) + w * p
    return table


def _mixture(rows, register: str) -> dict:
    """Sum ``(weight, outcome table)`` rows of a source mixture; the total must be one, and no entry below zero."""
    merged: dict = {}
    for weight, table in rows:
        for label, p in table.items():
            merged[label] = merged.get(label, 0.0) + weight * p
    values = np.fromiter(merged.values(), float, len(merged))
    check_table(values, f"{register} outcome table", sum_atol=SUM_ATOL)
    check_table(values, f"{register} outcome table", negative_atol=TABLE_ATOL)
    return merged


def _compile(table) -> tuple[tuple, np.ndarray]:
    """A circuit's law: its support labels and read-only rows (V, K, X, Y) over them, ``table(star)`` its outcome
    table of a two-mode star.  V is the vacuum's table; the plus branch's, linear in e^{-i phi}, is K + cos phi X
    + sin phi Y, walked at phi = 0, pi/2 and pi (the minus branch is the plus branch at phi + pi).  V's labels lead
    in walk order, the rest follow in flat order: as the walked branches' mixture lists them at a generic phase."""
    stars = [fock((0, 0), N_MAX)]
    stars += [StellarSource(phi, 1.0, 1.0).pure_branches(N_MAX)[1][1] for phi in (0.0, math.pi / 2.0, math.pi)]
    tables = [table(star) for star in stars]
    labels = (*tables[0], *sorted({label for t in tables[1:] for label in t} - tables[0].keys()))
    vacuum, at_0, at_half_pi, at_pi = (np.array([t.get(label, 0.0) for label in labels]) for t in tables)
    mean = (at_0 + at_pi) / 2.0
    rows = np.array([vacuum, mean, (at_0 - at_pi) / 2.0, at_half_pi - mean])
    rows.setflags(write=False)
    return labels, rows


def _fringe_mixing(epsilon: float, conditioned: bool = False) -> np.ndarray:
    """The map from a law's rows (V, K, X, Y) to the coefficients (A, B, C) of its table at arrival probability
    ``epsilon``, p(phi, g) = A + g cos(phi) B + g sin(phi) C: weighing the fringe branches by eps (1 +- g) / 2,
    A = (1 - eps) V + eps K, B = eps X and C = eps Y; conditioned on an arrival, K, X and Y, and none at eps = 0."""
    if conditioned:
        return np.eye(4)[1:] * (epsilon > 0.0)
    return np.array([[1.0 - epsilon, epsilon, 0.0, 0.0], [0.0, 0.0, epsilon, 0.0], [0.0, 0.0, 0.0, epsilon]])


def _read_laws(source: StellarSource, laws, register: str, conditioned: bool = False) -> dict:
    """The table at ``source`` of a mixture of compiled laws, ``(weight, labels, rows)`` each, through the table
    guard of :func:`_mixture`.  Exact zeros are dropped, and round-off below zero is set to zero after the guard."""
    fringe = np.array([1.0, source.g * math.cos(source.phi), source.g * math.sin(source.phi)])
    coefficients = fringe @ _fringe_mixing(source.epsilon, conditioned)
    rows = ((weight, dict(zip(labels, (coefficients @ law).tolist()))) for weight, labels, law in laws)
    return {label: max(p, 0.0) for label, p in _mixture(rows, register).items() if p != 0.0}


@lru_cache(maxsize=256)
def _law(circuit, *setting) -> tuple[tuple, np.ndarray]:
    """The compiled law of ``circuit(*setting)``, a circuit's table of a two-mode star, once per setting."""
    return _compile(circuit(*setting))


def _cnot_circuit(delta: float, variant: Variant, present: bool):
    """One ancilla flag of a six-mode setting, as :func:`_compile` reads it."""
    steps = _cnot_steps(delta, variant)
    return lambda star: _count_table(_cnot_input_state(star, present), steps)


def _cnot_laws(delta: float, eta: float, variant: Variant) -> list:
    """A six-mode setting's laws for :func:`_read_laws`: the ancilla flags weighted by eta and 1 - eta."""
    return [(w, *_law(_cnot_circuit, delta, variant, present)) for present, w in ((True, eta), (False, 1 - eta)) if w]


def cnot_branches(source: StellarSource, config: ProtocolConfig) -> list[tuple[str, bool, float, Mapping]]:
    """Per-branch outcome tables: (source branch, ancilla present, weight, table).

    The window state is an exact mixture of three pure source branches (vacuum and the two fringe
    eigenstates) crossed with the ancilla present/lost alternative; each fringe combination is walked
    separately, and each vacuum one is the nonzero entries of its setting's V row (:func:`_compile`).
    """
    names = ("vacuum", "plus", "minus")
    rows = []
    for name, (w_src, star) in zip(names, source.pure_branches(N_MAX)):
        for present, w_anc in ((True, config.eta), (False, 1.0 - config.eta)):
            weight = w_src * w_anc
            if weight == 0.0:
                continue
            labels, law = _law(_cnot_circuit, config.delta, config.variant, present)
            table = ({label: p for label, p in zip(labels, law[0].tolist()) if p != 0.0} if name == "vacuum"
                     else _cnot_circuit(config.delta, config.variant, present)(star))
            rows.append((name, present, weight, table))
    return rows


def cnot_distribution(source: StellarSource, config: ProtocolConfig) -> dict:
    """Window outcome distribution over six-mode count tuples, read from the compiled laws of the two ancilla
    flags (:func:`_cnot_laws`); :func:`cnot_branches` walks the same mixture."""
    return _read_laws(source, _cnot_laws(config.delta, config.eta, config.variant), "six-mode")


class CnotWindows(Sequence):
    """The windows of :func:`sample_cnot_windows`: read-only arrays of each window's (source branch, ancilla present)
    row, ``branch``, and the flat basis index of its counts, ``outcome``; item ``w`` is its ``(source branch,
    ancilla present, DetectionRecord)``, built once per (branch row, outcome) and shared."""

    def __init__(self, rows: list[tuple[str, bool]], branch: np.ndarray, outcome: np.ndarray):
        self._rows, self.branch, self.outcome = rows, branch, outcome
        for array in (branch, outcome):
            array.setflags(write=False)

    @staticmethod
    @lru_cache(maxsize=None)  # at most 6 rows times 729 outcomes
    def _item(row: tuple[str, bool], o: int) -> tuple[str, bool, DetectionRecord]:
        counts = basis_label(o, 6, N_MAX)
        return (*row, DetectionRecord(classify_herald(counts), counts=counts))

    def __len__(self) -> int:
        return len(self.outcome)

    def __getitem__(self, w):
        if isinstance(w, slice):
            return [self._item(self._rows[b], o) for b, o in zip(self.branch[w].tolist(), self.outcome[w].tolist())]
        return self._item(self._rows[int(self.branch[w])], int(self.outcome[w]))


def sample_cnot_windows(source: StellarSource, config: ProtocolConfig, n_windows: int, rng=None) -> CnotWindows:
    """Batch window sampler: (source branch, ancilla present, record) per window.

    Each window draws its branch, then its outcome given the branch, the same law as collapsing one
    window's circuit, from pure-branch tables simulated once: one ``rng.choice`` picks every branch,
    then one per branch drawn from picks its outcomes, in that table's own key order.
    """
    rng = np.random.default_rng(rng)
    branches = cnot_branches(source, config)
    weights = np.array([w for _, _, w, _ in branches])
    picks = rng.choice(len(branches), size=n_windows, p=weights / weights.sum())
    pick_counts = np.bincount(picks, minlength=len(branches))
    outcome = np.empty(n_windows, dtype=np.int64)
    for b, (_, _, _, table) in enumerate(branches):
        if pick_counts[b]:
            flat = np.array([basis_index(label, N_MAX) for label in table])
            probs = np.array(list(table.values()))
            outcome[picks == b] = flat[rng.choice(len(flat), size=int(pick_counts[b]), p=probs / probs.sum())]
    return CnotWindows([(name, present) for name, present, _, _ in branches], picks, outcome)


# ---------------------------------------------------------------------------
# direct two-basis readout


def _fringe_branches(source: StellarSource, n_max: int) -> list[tuple[float, StateVector]]:
    """The two one-photon fringe eigenstates at cutoff ``n_max`` with their
    conditional weights (1 +- g)/2."""
    _, (_, psi_plus), (_, psi_minus) = source.pure_branches(n_max)
    return [((1.0 + source.g) / 2.0, psi_plus), ((1.0 - source.g) / 2.0, psi_minus)]


@lru_cache(maxsize=64)
def _direct_steps(delta: float, n_max: int, swap_bases: bool) -> tuple:
    """The direct readout as :func:`_walk` steps: X in one lab, the
    delta-rotated basis in the other, left lab first."""
    if swap_bases:
        left, right = rotated_basis(0, delta, n_max), x_basis(1, n_max)
    else:
        left, right = x_basis(0, n_max), rotated_basis(1, delta, n_max)
    return (left, ((), ())), (right, ((), ()))


def _direct_circuit(delta: float, swap_bases: bool):
    """The direct readout of a two-mode star, as :func:`_compile` reads it: its four outcome pairs."""
    steps = _direct_steps(delta, N_MAX, swap_bases)
    return lambda star: {outcomes: p for outcomes, p, _ in _walk(star, steps)}


def direct_distribution(
    source: StellarSource, delta: float, swap_bases: bool = False
) -> dict[tuple[int, int], float]:
    """Joint (left, right) outcome distribution of the direct readout.

    Conditioned on a photon arrival: the left lab measures its port in the
    X basis and the right lab in the delta-rotated basis (swappable).
    All four outcomes are listed, labeled by the +-1 eigenvalues, left first.
    The two single-photon fringe branches weigh (1 +- g)/2 for every
    epsilon > 0, read from the compiled law as K + g (cos phi X + sin phi Y);
    at epsilon = 0 no photon arrives and the table is empty.
    """
    labels, rows = _law(_direct_circuit, delta, swap_bases)
    if source.epsilon == 0.0:
        return {}
    return dict.fromkeys(labels, 0.0) | _read_laws(source, [(1.0, labels, rows)], "direct", conditioned=True)


def run_direct_window(
    source: StellarSource, delta: float, rng=None, swap_bases: bool = False
) -> tuple[int, int]:
    """Sample one conditioned direct-readout outcome pair."""
    rng = np.random.default_rng(rng)
    fringe = _fringe_branches(source, N_MAX)
    psi = fringe[int(rng.choice(2, p=np.array([w for w, _ in fringe])))][1]
    ((outcomes, _, _),) = _walk(psi, _direct_steps(delta, N_MAX, swap_bases), rng)
    return outcomes


# ---------------------------------------------------------------------------
# single-ancilla-photon baseline (four modes)

STAR_L4, ANC_L4, STAR_R4, ANC_R4 = range(4)


def _gottesman_circuit(delta: float, optics: tuple = ()):
    """The baseline on a two-mode star, as :func:`_compile` reads it: one ancilla photon split between the labs
    with relative phase delta; ``optics``, gates on each lab's (star, ancilla) pair; then each lab's balanced
    beam splitter and photon counting."""
    if not math.isfinite(delta):
        raise ValueError(f"ancilla phase {delta!r} is not a finite angle")
    one = fock((1, 0), N_MAX)
    other = fock((0, 1), N_MAX)
    anc = StateVector((one.amplitudes + np.exp(1j * delta) * other.amplitudes) / np.sqrt(2.0), 2, N_MAX)
    steps = optics + (beam_splitter(STAR_L4, ANC_L4, N_MAX), beam_splitter(STAR_R4, ANC_R4, N_MAX))
    return lambda star: _count_table(tensor_at([(star, (STAR_L4, STAR_R4)), (anc, (ANC_L4, ANC_R4))]), steps)


def gottesman_distribution(source: StellarSource, delta: float) -> dict:
    """Count distribution of the shared-single-photon baseline protocol
    (:func:`_gottesman_circuit`, no local optics), read from its compiled law."""
    return _read_laws(source, [(1.0, *_law(_gottesman_circuit, delta))], "four-mode")


def linear_bound_search(n_trials: int, rng_seed) -> float:
    """Max phase Fisher information of the baseline over random local optics.

    Draws ``n_trials`` pairs of Haar-random passive 2x2 unitaries, one per
    lab, evaluates the classical phase information of the resulting count
    distribution at phi = 0.7, g = 1, epsilon = 0.1 and ancilla phase
    delta = 0.3, and returns the largest value found.  Each trial's circuit
    is compiled once.
    """
    from scipy.stats import unitary_group

    from .fisher import OutcomeModel, classical_fisher
    from .state_engine import basis_labels

    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng_seed)
    all_labels = tuple(basis_labels(4, N_MAX))
    best = -np.inf
    for _ in range(n_trials):
        optics = tuple(
            two_mode_unitary(unitary_group.rvs(2, random_state=rng), a, b, N_MAX, name)
            for a, b, name in ((STAR_L4, ANC_L4, "u_left"), (STAR_R4, ANC_R4, "u_right"))
        )
        law = (1.0, *_compile(_gottesman_circuit(0.3, optics)))
        model = OutcomeModel(
            lambda phi, g, law=law: _read_laws(StellarSource(phi, g, 0.1), [law], "four-mode"), all_labels)
        info = classical_fisher(model, (0.7, 1.0), wrt=("phi",)).phi_phi
        best = max(best, info)
    return float(best)


# ---------------------------------------------------------------------------
# time-bin memory protocols

BELL_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
BELL_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class BellRegister:
    """Bell pairs split between the labs, one 4-vector per pair.

    Basis order per pair: |0_L 0_R>, |0_L 1_R>, |1_L 0_R>, |1_L 1_R>.
    """

    pairs: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for vec in self.pairs:
            arr = np.array(vec, dtype=complex)
            if arr.shape != (4,):
                raise ValueError("each pair state must be a 4-vector")
            if abs(np.linalg.norm(arr) - 1.0) > NORM_ATOL:
                raise ValueError("pair states must be normalized")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "pairs", tuple(frozen))

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def pairs_for_bins(n_bins: int) -> int:
    """Number of Bell pairs needed to code bins 1..N plus the no-photon case.

    Equals ceil(log2(N + 1)), computed exactly as the bit length of N.
    """
    n_bins = _integer(n_bins, "n_bins")
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    return n_bins.bit_length()


def bell_register(n_pairs: int) -> BellRegister:
    if n_pairs < 1:
        raise ValueError("a register needs at least one pair")
    return BellRegister(tuple(BELL_PLUS.copy() for _ in range(n_pairs)))


def bin_digits(n: int, n_pairs: int) -> tuple[int, ...]:
    """Binary digits of ``n``, most significant first, padded to ``n_pairs``."""
    if not 0 <= n < 2**n_pairs:
        raise ValueError(f"bin {n} is not codable on {n_pairs} pairs")
    return tuple((n >> (n_pairs - 1 - i)) & 1 for i in range(n_pairs))


def encode_time_bin_modified(register: BellRegister, arrival) -> BellRegister:
    """Stamp an arrival bin into the register by phase-flipping digit-1 pairs.

    A photon in bin n applies Z to one half of pair i exactly when the i-th
    binary digit of n is 1, turning that pair's |Phi+> into |Phi->.  No
    photon leaves the register untouched.
    """
    if arrival is NO_PHOTON:
        return register
    n = _integer(arrival, "arrival bin")
    if not 1 <= n < 2**register.n_pairs:
        raise ValueError(f"arrival bin {n} is out of range for {register.n_pairs} pairs")
    digits = bin_digits(n, register.n_pairs)
    flipper = np.array([1.0, 1.0, -1.0, -1.0])  # Z on the left half
    new_pairs = [
        pair * flipper if digit else pair for digit, pair in zip(digits, register.pairs)
    ]
    return BellRegister(tuple(new_pairs))


def _sample_pair_x_outcomes(pair: np.ndarray, rng) -> tuple[int, int]:
    """Joint X-basis outcomes (left, right) for one Bell pair 4-vector, drawn
    with one ``rng.choice`` from the engine's readout paths."""
    paths = list(_walk(StateVector(pair, 2, 1), _direct_steps(0.0, 1, False)))
    weights = np.array([w for _, w, _ in paths])
    return paths[int(rng.choice(len(paths), p=weights / weights.sum()))][0]


def _decoded_bin(x_outcomes):
    """Fold per-pair X results ``(left, right)``, most significant pair first,
    into the decoded bin as :func:`decode_time_bin` describes."""
    n = 0
    for x_l, x_r in x_outcomes:
        n = (n << 1) | int(x_l != x_r)
    return NO_PHOTON if n == 0 else n


def decode_time_bin(register: BellRegister, rng=None):
    """Read the stamped bin back out with local X measurements.

    Each pair is measured in the X basis in both labs; equal results mean
    the pair is still |Phi+> (digit 0), opposite results mean |Phi->
    (digit 1).  Returns the decoded bin, or ``None`` when every digit is 0.
    """
    rng = np.random.default_rng(rng)
    return _decoded_bin(_sample_pair_x_outcomes(pair, rng) for pair in register.pairs)


@dataclass(frozen=True)
class MemoryRunResult:
    """Outcome of one memory-protocol window.

    ``decoded`` is the bin read back from the Bell pairs (None for no
    photon); ``outcome`` the final fringe measurement result (+1/-1 labels,
    a pair for the halved protocol's two-basis readout, a single value for
    the original protocol; None when no photon arrived); ``n_minus`` the
    number of -1 results among the X measurements that fix the fringe sign
    (original protocol only); ``final_distribution`` the exact conditional
    distribution the final outcome was drawn from, given every earlier
    sampled result.
    """

    decoded: object
    outcome: object
    n_minus: int | None
    final_distribution: dict | None


def _validate_arrival(n_bins: int, arrival, delta: float):
    """The arrival bin as an int (or NO_PHOTON), after checking it, ``n_bins``
    and the readout phase ``delta``, which a window without a photon never reads."""
    pairs_for_bins(n_bins)
    if not math.isfinite(delta):
        raise ValueError(f"readout phase {delta!r} is not a finite angle")
    if arrival is NO_PHOTON:
        return arrival
    n = _integer(arrival, "arrival bin")
    if not 1 <= n <= n_bins:
        raise ValueError(f"arrival bin {n} is outside 1..{n_bins}")
    return n


def run_memory_modified(
    n_bins: int,
    arrival,
    source: StellarSource,
    delta: float,
    rng_seed=None,
    swap_bases: bool = False,
) -> MemoryRunResult:
    """Halved-resource protocol: stamp, decode, then measure the photon directly.

    The arrival bin is stamped into ceil(log2(N+1)) Bell pairs and decoded
    by local X measurements; because either lab's phase flip produces the
    same |Phi-> state, the stellar photon is left untouched and its two
    ports are then measured exactly as in the direct readout.
    """
    arrival = _validate_arrival(n_bins, arrival, delta)
    rng = np.random.default_rng(rng_seed)
    register = bell_register(pairs_for_bins(n_bins))
    register = encode_time_bin_modified(register, arrival)
    decoded = decode_time_bin(register, rng)
    if arrival is NO_PHOTON:
        return MemoryRunResult(decoded, None, None, None)
    outcome = run_direct_window(source, delta, rng, swap_bases)
    return MemoryRunResult(
        decoded, outcome, None, direct_distribution(source, delta, swap_bases)
    )


def _read(state: QubitRegister, modes: list, mode: int, rng, basis: MeasurementBasis | None = None):
    """Sample a one-mode readout of register mode ``mode``, then drop the mode.

    ``modes`` lists the register mode held at each position of ``state``;
    ``basis`` acts at ``mode``'s position, and is X by default.  Every readout
    here is a rank-1 projector ``|v><v|``, which leaves ``|v> (x) phi``; no
    gate acts on a measured mode afterwards, so only ``phi`` is kept, read
    off the mode's slice at the largest entry ``v_j``.
    """
    m = modes.index(mode)
    basis = x_basis(m, 1) if basis is None else basis
    outcome, post = measure_in_basis(state, basis, rng)
    proj = basis.projectors[basis.outcomes.index(outcome)]
    j = int(np.argmax(proj.diagonal().real))
    phi = post.slice(m, j)
    modes.remove(mode)
    return outcome, replace(phi, amplitudes=phi.amplitudes / np.sqrt(proj[j, j].real))


def run_memory_unmodified(
    n_bins: int,
    arrival,
    source: StellarSource,
    delta: float,
    rng_seed=None,
    swap_bases: bool = False,
) -> MemoryRunResult:
    """Original memory protocol, simulated on the full qubit register.

    Each lab holds one memory qubit per Bell pair.  The incoming photon
    (coherently shared between the labs' star modes) writes its bin's
    binary digits into the memory qubits via photon-controlled NOTs; CZ
    gates transfer the digits onto the Bell pairs, which are decoded by
    local X measurements.  The star modes and all written memory qubits
    except one are then measured in X; the number of -1 results, n_minus,
    fixes the fringe sign of the last qubit, which is read in the
    delta-rotated basis.

    The window is one pure state on a :class:`QubitRegister`: at most
    2 * 2^n_pairs amplitudes.  The two fringe branches of the source differ
    only by a Z on the right star mode, which commutes with the gate stage
    and the pair readouts, so those run on the plus branch alone.  Before
    the star modes are read, one leading ancilla mode purifies the mixture
    as ``sqrt(w+)|0>psi + sqrt(w-)|1>Z psi``; it is never read.
    """
    arrival = _validate_arrival(n_bins, arrival, delta)
    rng = np.random.default_rng(rng_seed)
    n_pairs = pairs_for_bins(n_bins)

    if arrival is NO_PHOTON:
        # every controlled gate is vacuum-controlled identity: the pairs
        # stay |Phi+> and decode to the no-photon code word
        decoded = decode_time_bin(bell_register(n_pairs), rng)
        return MemoryRunResult(decoded, None, 0, None)

    digits = bin_digits(arrival, n_pairs)
    affected = [i for i, d in enumerate(digits) if d == 1]
    last = affected[-1]

    # mode layout: stars, then per-lab memory qubits, then pair qubits
    n_max = 1
    star_l, star_r = 0, 1
    mem_l = [2 + i for i in range(n_pairs)]
    mem_r = [2 + n_pairs + i for i in range(n_pairs)]
    pair_l = [2 + 2 * n_pairs + 2 * i for i in range(n_pairs)]
    pair_r = [3 + 2 * n_pairs + 2 * i for i in range(n_pairs)]

    (w_plus, star), (w_minus, _) = _fringe_branches(source, n_max)
    # the memory qubits, named by no factor, start in vacuum
    factors = [(star, (star_l, star_r))]
    factors += [(StateVector(BELL_PLUS, 2, n_max), (pair_l[i], pair_r[i])) for i in range(n_pairs)]
    state = QubitRegister.place(factors, 2 + 4 * n_pairs)
    for i in affected:
        state = apply_unitary(state, cnot_fock(star_l, mem_l[i], n_max))
        state = apply_unitary(state, cnot_fock(star_r, mem_r[i], n_max))
    for i in range(n_pairs):
        state = apply_unitary(state, cz_fock(mem_l[i], pair_l[i], n_max))
        state = apply_unitary(state, cz_fock(mem_r[i], pair_r[i], n_max))
    modes = list(range(state.mode_count))
    x_outcomes = []
    for i in range(n_pairs):
        x_l, state = _read(state, modes, pair_l[i], rng)
        x_r, state = _read(state, modes, pair_r[i], rng)
        x_outcomes.append((x_l, x_r))
    decoded = _decoded_bin(x_outcomes)

    # purify the fringe mixture: psi_- is psi_+ with a Z on star_r
    minus = apply_unitary(state, z_fock(modes.index(star_r), n_max))
    state = QubitRegister(
        np.concatenate([state.labels, minus.labels | (1 << state.mode_count)]),
        np.concatenate([np.sqrt(w_plus) * state.amplitudes, np.sqrt(w_minus) * minus.amplitudes]),
        state.mode_count + 1,
    )
    modes.insert(0, None)

    final_mode = mem_l[last] if swap_bases else mem_r[last]
    x_modes = [star_l, star_r]
    x_modes += [mem_l[i] for i in affected if mem_l[i] != final_mode]
    x_modes += [mem_r[i] for i in affected if mem_r[i] != final_mode]

    n_minus = 0
    for mode in x_modes:
        x, state = _read(state, modes, mode, rng)
        n_minus += x == -1

    final_basis = rotated_basis(modes.index(final_mode), delta, n_max)
    probs = measurement_distribution(state, final_basis)
    final_distribution = {
        outcome: float(p) for outcome, p in zip(final_basis.outcomes, probs / probs.sum())
    }
    outcome, _ = _read(state, modes, final_mode, rng, final_basis)
    return MemoryRunResult(decoded, outcome, n_minus, final_distribution)


@dataclass(frozen=True)
class MemoryResources:
    """Ancilla budget of one memory-protocol window."""

    n_pairs: int
    bell_qubits: int
    memory_qubits: int
    encode_gates_per_lab: int

    @property
    def total_ancilla_qubits(self) -> int:
        return self.bell_qubits + self.memory_qubits


def memory_resources(n_bins: int, modified: bool) -> MemoryResources:
    """Per-window ancilla counts; the halved protocol drops the memory layer.

    The original protocol needs, per lab, one controlled-NOT slot onto each
    memory qubit and one CZ per pair (2 * n_pairs gate slots); the halved
    protocol needs only the phase-flip slot per pair (n_pairs).
    """
    n_pairs = pairs_for_bins(n_bins)
    if modified:
        return MemoryResources(n_pairs, 2 * n_pairs, 0, n_pairs)
    return MemoryResources(n_pairs, 2 * n_pairs, 2 * n_pairs, 2 * n_pairs)
