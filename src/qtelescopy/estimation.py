"""Protocol registry, Monte-Carlo experiment runner, maximum-likelihood phase
estimation and Cramer-Rao accounting.

Every protocol has one entry in :data:`PROTOCOLS`: its circuit call, its
outcome labels, its herald rule, whether its table is conditioned on a
photon arrival, and its window sampler.  Each protocol setting is compiled
once, from three circuit runs of the state engine, into the exact law of its
heralded outcomes, p_o(phi, g) = A_o + g cos(phi) B_o + g sin(phi) C_o,
rather than simulating the circuit again for every phase it is scored at.
The estimator maximizes the log-likelihood of the heralded records under
that law on a dense phase grid and then refines by golden-section search on
the same closed form.  The Cramer-Rao bound 1/(M * fisher-per-window) takes
its Fisher information from finite differences of the setting's circuit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import analytic
from .errors import EstimationError, NumericalInvariantError
from .fisher import FisherMatrix, OutcomeModel, classical_fisher
from .protocols import (
    DetectionRecord,
    Herald,
    ProtocolConfig,
    Variant,
    classify_herald,
    cnot_distribution,
    direct_distribution,
    gottesman_distribution,
    sample_cnot_windows,
)
from .sources import StellarSource, TimeBinConfig, sample_arrival
from .state_engine import basis_labels

PHI_GRID_POINTS = 1024
GOLDEN_TOL = 1e-10
# compiled probabilities below this are a broken circuit, not round-off
NEGATIVE_PROB_TOL = 1e-12


def wrap_phase(phi: float) -> float:
    """Wrap to the principal interval [-pi, pi)."""
    return float((phi + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class ExperimentPlan:
    """One estimation campaign: a protocol, a source, and a setting schedule.

    The readout phases in ``delta_schedule`` are cycled across windows
    (window w uses entry w mod len(schedule)).
    """

    protocol: str
    source: StellarSource
    delta_schedule: tuple[float, ...]
    n_windows: int
    seed: int | None = None
    eta: float = 1.0
    variant: Variant = Variant.CNOT_SEQUENCE
    swap_bases: bool = False

    def __post_init__(self):
        get_protocol(self.protocol)
        if self.n_windows < 1:
            raise ValueError("a plan needs at least one window")
        schedule = tuple(float(d) for d in self.delta_schedule)
        if not schedule:
            raise ValueError("the delta schedule must not be empty")
        object.__setattr__(self, "delta_schedule", schedule)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        object.__setattr__(self, "variant", Variant.parse(self.variant))

    def setting_for(self, window: int) -> float:
        return self.delta_schedule[window % len(self.delta_schedule)]


DEFAULT_SCHEDULE = (0.0, np.pi / 2.0)


@dataclass(frozen=True)
class EstimateReport:
    """MLE result for one dataset.

    ``empirical_mse`` is the squared wrapped distance between the estimate
    and the plan's true phase; ``crb`` the Cramer-Rao bound 1/(M * f) for
    the plan's window count and schedule-averaged per-window Fisher
    information ``fisher_per_window``.
    """

    phi_hat: float
    empirical_mse: float
    crb: float
    n_heralded: int
    n_vacuum: int
    fisher_per_window: float


def _sample_cnot(plan: ExperimentPlan, rng) -> list[DetectionRecord]:
    n_settings = len(plan.delta_schedule)
    slots: list[DetectionRecord | None] = [None] * plan.n_windows
    for s, delta in enumerate(plan.delta_schedule):
        positions = range(s, plan.n_windows, n_settings)
        n_s = len(positions)
        if n_s == 0:
            continue
        config = ProtocolConfig(delta, plan.eta, plan.variant)
        sampled = sample_cnot_windows(plan.source, config, n_s, rng)
        for pos, (_, _, record) in zip(positions, sampled):
            slots[pos] = record
    return slots  # type: ignore[return-value]


def _choice_tables(tables: list[dict]) -> list[tuple[list, np.ndarray]]:
    """(labels, normalized probabilities) of each outcome table."""
    out = []
    for table in tables:
        labels = list(table.keys())
        probs = np.array([table[k] for k in labels])
        out.append((labels, probs / probs.sum()))
    return out


def _sample_direct(plan: ExperimentPlan, rng) -> list[DetectionRecord]:
    window = TimeBinConfig(1)
    tables = _choice_tables(
        [direct_distribution(plan.source, delta, plan.swap_bases) for delta in plan.delta_schedule]
    )
    slots = []
    for w in range(plan.n_windows):
        if sample_arrival(window, plan.source.epsilon, rng) is None:
            slots.append(DetectionRecord(Herald.VACUUM))
            continue
        labels, probs = tables[w % len(tables)]
        idx = int(rng.choice(len(labels), p=probs))
        slots.append(DetectionRecord(Herald.PHOTON_ARRIVED, labels=labels[idx]))
    return slots


def _two_photons(counts) -> bool:
    """Herald rule of the baseline: any photon beyond the ancilla's shows up."""
    return sum(counts) == 2


def _sample_gottesman(plan: ExperimentPlan, rng) -> list[DetectionRecord]:
    tables = _choice_tables([gottesman_distribution(plan.source, d) for d in plan.delta_schedule])
    slots = []
    for w in range(plan.n_windows):
        labels, probs = tables[w % len(tables)]
        counts = labels[int(rng.choice(len(labels), p=probs))]
        herald = Herald.PHOTON_ARRIVED if _two_photons(counts) else Herald.VACUUM
        slots.append(DetectionRecord(herald, counts=counts))
    return slots


@dataclass(frozen=True)
class Protocol:
    """Registry entry of one measurement protocol.

    ``run(source, delta, eta, variant, swap_bases)`` is the circuit's outcome
    table, ``outcomes(n_max)`` the label set of its outcome model,
    ``heralded`` the herald rule.  A ``conditioned`` table is conditioned on a photon arrival; a
    circuit that ``models_loss`` has a law that depends on eta.
    ``reference`` is the closed-form table, if any; ``sample`` draws records.
    """

    name: str
    run: Callable[..., dict]
    outcomes: Callable[[int], tuple]
    heralded: Callable[[tuple], bool]
    sample: Callable[[ExperimentPlan, np.random.Generator], list]
    conditioned: bool = False
    models_loss: bool = False
    reference: Callable[..., dict] | None = None


PROTOCOLS = {
    entry.name: entry
    for entry in (
        Protocol(
            "cnot",
            run=lambda source, delta, eta, variant, swap: cnot_distribution(
                source, ProtocolConfig(delta, eta, variant)
            ),
            outcomes=lambda n_max: tuple(basis_labels(6, n_max)),
            heralded=lambda label: classify_herald(label) is Herald.PHOTON_ARRIVED,
            sample=_sample_cnot,
            models_loss=True,
            reference=lambda source, delta, eta, swap: analytic.cnot_outcome_table(
                source.phi, source.g, source.epsilon, delta, eta
            ),
        ),
        Protocol(
            "direct",
            run=lambda source, delta, eta, variant, swap: direct_distribution(source, delta, swap),
            outcomes=lambda n_max: ((1, 1), (1, -1), (-1, 1), (-1, -1)),
            heralded=lambda label: True,
            sample=_sample_direct,
            conditioned=True,
            reference=lambda source, delta, eta, swap: analytic.direct_outcome_table(
                source.phi, source.g, delta, swap
            ),
        ),
        Protocol(
            "gottesman",
            run=lambda source, delta, eta, variant, swap: gottesman_distribution(source, delta),
            outcomes=lambda n_max: tuple(basis_labels(4, n_max)),
            heralded=_two_photons,
            sample=_sample_gottesman,
        ),
    )
}


def get_protocol(name: str) -> Protocol:
    """The registry entry of ``name``; a ValueError names the known ones."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; expected one of {tuple(PROTOCOLS)}") from None


def run_experiment(plan: ExperimentPlan) -> list[DetectionRecord]:
    """Sample ``plan.n_windows`` independent windows, deterministic per seed."""
    return get_protocol(plan.protocol).sample(plan, np.random.default_rng(plan.seed))


# ---------------------------------------------------------------------------
# likelihood machinery


def _phi_grid() -> np.ndarray:
    return np.linspace(-np.pi, np.pi, PHI_GRID_POINTS, endpoint=False)


# the three (g, phi) points that fix the affine law of every outcome
_COMPILE_POINTS = ((0.0, 0.0), (1.0, 0.0), (1.0, np.pi / 2.0))


def _fringe_basis(phi, g) -> np.ndarray:
    """Rows (1, g cos phi, g sin phi), one per phase."""
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.ones_like(phi), g * np.cos(phi), g * np.sin(phi)], axis=-1)


@dataclass(frozen=True, eq=False)
class FringeTable:
    """Heralded outcome law of one protocol setting, exact in (phi, g).

    The window state is linear in nu = g exp(-i phi) and every circuit is a
    fixed linear map, so each heralded outcome probability is

        p_o(phi, g) = A_o + g cos(phi) B_o + g sin(phi) C_o.

    ``coefficients`` holds the rows (A, B, C) over ``labels``; ``herald``
    the same three coefficients of the heralded-class total.
    """

    labels: tuple
    coefficients: np.ndarray
    herald: np.ndarray

    def joint(self, phi, g: float, columns=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized probabilities of the ``columns`` outcomes and the
        heralded-class total, at one phase or along an array of phases."""
        basis = _fringe_basis(phi, g)
        probs = basis @ self.coefficients[:, columns]
        total = basis @ self.herald
        if np.any(probs < -NEGATIVE_PROB_TOL):
            raise NumericalInvariantError(
                f"compiled outcome probability {probs.min()!r} is negative"
            )
        if np.any(total <= 0.0):
            raise NumericalInvariantError(
                "the heralded class has no probability at some phase; "
                "the likelihood cannot be conditioned on it"
            )
        return np.maximum(probs, 0.0), total

    def conditional(self, phi, g: float) -> np.ndarray:
        """P(label | heralded) over ``labels``, one row per phase."""
        probs, total = self.joint(phi, g)
        return probs / total[..., None]


@lru_cache(maxsize=64)
def _fringe_table(protocol: str, setting) -> FringeTable:
    """Compile the setting (delta, epsilon, eta, variant, swap, n_max) from
    three circuit runs, at (g, phi) = (0, 0), (1, 0) and (1, pi/2).

    Outcomes that vanish exactly at all three points vanish everywhere and
    are dropped.  A subnormal epsilon is refused: the heralded probabilities
    are of order epsilon and keep no relative precision to condition on.
    """
    entry = get_protocol(protocol)
    delta, epsilon, eta, variant, swap, n_max = setting
    if 0.0 < epsilon < sys.float_info.min:
        raise NumericalInvariantError(
            f"arrival probability {epsilon!r} is subnormal; the heralded class "
            "cannot be conditioned on"
        )
    runs = []
    for g, phi in _COMPILE_POINTS:
        table = entry.run(StellarSource(phi, g, epsilon, n_max), delta, eta, variant, swap)
        runs.append({k: v for k, v in table.items() if entry.heralded(k)})
    labels = tuple(
        sorted(k for k in set().union(*runs) if any(run.get(k, 0.0) != 0.0 for run in runs))
    )
    at = np.array([[run.get(k, 0.0) for k in labels] for run in runs]).reshape(3, len(labels))
    points = np.array(_COMPILE_POINTS)
    coefficients = np.linalg.solve(_fringe_basis(points[:, 1], points[:, 0]), at)
    coefficients.setflags(write=False)
    return FringeTable(labels, coefficients, coefficients.sum(axis=1))


@lru_cache(maxsize=64)
def _grid_tables(protocol: str, setting, g: float) -> tuple[tuple, np.ndarray]:
    """Per-setting conditional probabilities on the phase grid.

    Returns (labels, matrix) with matrix[i, j] = P(labels[j] | heralded,
    phi_grid[i]).  The likelihood reads the setting's fringe table, compiled
    from three circuit runs, not a simulation per phase: the matrix is one
    product of the phase grid with that table, conditioned on the heralded
    class.  Cached so repeated estimations with the same physical
    parameters (for example Monte-Carlo repetitions) reuse it.
    """
    table = _fringe_table(protocol, setting)
    matrix = table.conditional(_phi_grid(), g)
    matrix.setflags(write=False)
    return table.labels, matrix


def _golden_max(fn, lo: float, hi: float, tol: float = GOLDEN_TOL) -> float:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _check_schedule_identifiable(settings) -> None:
    """The sign of the fringe is ambiguous unless two settings differ by
    something other than a multiple of pi."""
    distinct = sorted(set(settings))
    for i, di in enumerate(distinct):
        for dj in distinct[i + 1 :]:
            if abs(math.sin(di - dj)) > 1e-9:
                return
    raise EstimationError(
        "the delta schedule cannot distinguish phi from -phi; add a second "
        "setting offset by pi/2"
    )


def mle_phase(records: list[DetectionRecord], plan: ExperimentPlan) -> EstimateReport:
    """Maximum-likelihood phase estimate from the heralded records.

    Builds the exact conditional likelihood of every heralded record,
    scores it on a dense phase grid, and refines the peak by
    golden-section search.  Vacuum windows carry no phase information and
    are counted but never scored.
    """
    n_settings = len(plan.delta_schedule)
    n_heralded = 0
    n_vacuum = 0
    counted: dict[tuple[int, object], int] = {}
    for w, record in enumerate(records):
        if record.herald is Herald.PHOTON_ARRIVED:
            n_heralded += 1
            outcome = record.counts if record.counts is not None else record.labels
            key = (w % n_settings, outcome)
            counted[key] = counted.get(key, 0) + 1
        elif record.herald is Herald.VACUUM:
            n_vacuum += 1
    if n_heralded == 0:
        raise EstimationError("no heralded windows: the likelihood is flat in phi")
    _check_schedule_identifiable(plan.delta_schedule)

    source = plan.source
    settings = [
        (delta, source.epsilon, plan.eta, plan.variant, plan.swap_bases, source.n_max)
        for delta in plan.delta_schedule
    ]

    # grid scoring, vectorized per setting
    grid = _phi_grid()
    total_ll = np.zeros(len(grid))
    observed: list[tuple[FringeTable, np.ndarray, np.ndarray]] = []
    for s, setting in enumerate(settings):
        labels, matrix = _grid_tables(plan.protocol, setting, source.g)
        index = {label: j for j, label in enumerate(labels)}
        k = np.zeros(len(labels))
        for (s_obs, outcome), count in counted.items():
            if s_obs != s:
                continue
            if outcome not in index:
                raise EstimationError(
                    f"observed outcome {outcome!r} is impossible under the model"
                )
            k[index[outcome]] = count
        with np.errstate(divide="ignore"):
            log_matrix = np.log(matrix)
        log_matrix = np.where(np.isfinite(log_matrix), log_matrix, -1e30)
        total_ll += log_matrix @ k
        seen = np.flatnonzero(k)
        if seen.size:
            observed.append((_fringe_table(plan.protocol, setting), seen, k[seen]))

    peak = int(np.argmax(total_ll))
    step = grid[1] - grid[0]
    center = grid[peak]

    def loglik(phi: float) -> float:
        out = 0.0
        for table, seen, k in observed:
            probs, total = table.joint(phi, source.g, seen)
            with np.errstate(divide="ignore"):
                logs = np.log(probs / total)
            out += float(np.where(np.isfinite(logs), logs, -1e30) @ k)
        return out

    phi_hat = wrap_phase(_golden_max(loglik, center - step, center + step))
    err = wrap_phase(phi_hat - source.phi)
    info = crb_report(
        plan.protocol,
        source,
        plan.delta_schedule,
        plan.eta,
        variant=plan.variant,
        swap_bases=plan.swap_bases,
    )
    crb = info.crb_for(plan.n_windows)
    return EstimateReport(phi_hat, err * err, crb, n_heralded, n_vacuum, info.fisher_per_window)


# ---------------------------------------------------------------------------
# Cramer-Rao accounting


@dataclass(frozen=True)
class CrbReport:
    """Schedule-averaged per-window phase information and its bound.

    ``fisher_per_window`` uses the accounting convention for ancilla loss:
    eta scales the number of usable windows, so the per-window figure is
    eta times the clean-protocol information.  The exact information of
    the loss-contaminated record (slightly lower, because lost-ancilla
    windows can mimic the heralded class) is reported alongside as
    ``contaminated_fisher_per_window``.
    """

    per_setting: dict[float, float]
    fisher_per_window: float
    contaminated_fisher_per_window: float | None = None

    def crb_for(self, n_windows: int) -> float:
        if self.fisher_per_window <= 0.0:
            return math.inf
        return 1.0 / (n_windows * self.fisher_per_window)


def window_fisher(protocol: str, setting, at: tuple[float, float], wrt=("phi",)) -> FisherMatrix:
    """Per-window classical Fisher matrix at ``at = (phi, g)`` of the circuit
    of one setting (delta, epsilon, eta, variant, swap, n_max); a table
    conditioned on arrival is scaled by epsilon."""
    entry = get_protocol(protocol)
    delta, epsilon, eta, variant, swap, n_max = setting

    def dist(phi: float, g: float) -> dict:
        return entry.run(StellarSource(phi, g, epsilon, n_max), delta, eta, variant, swap)

    units = "per_event" if entry.conditioned else "per_window"
    model = OutcomeModel(dist, entry.outcomes(n_max), units=units, name=f"{protocol}(delta={delta})")
    info = classical_fisher(model, at, wrt)
    return FisherMatrix(epsilon * info.matrix) if entry.conditioned else info


def crb_report(
    protocol: str,
    source: StellarSource,
    delta_schedule,
    eta: float = 1.0,
    include_contaminated: bool = False,
    *,
    variant: Variant = Variant.CNOT_SEQUENCE,
    swap_bases: bool = False,
) -> CrbReport:
    """Average the per-window phase information over the setting schedule;
    ``variant`` and ``swap_bases`` complete the setting as in a plan."""
    entry = get_protocol(protocol)
    at = (source.phi, source.g)
    per_setting: dict[float, float] = {}
    contaminated: list[float] = []
    for delta in delta_schedule:
        setting = (delta, source.epsilon, 1.0, variant, swap_bases, source.n_max)
        per_setting[float(delta)] = eta * window_fisher(protocol, setting, at).phi_phi
        if include_contaminated and entry.models_loss and eta < 1.0:
            lossy = (delta, source.epsilon, eta, variant, swap_bases, source.n_max)
            contaminated.append(window_fisher(protocol, lossy, at).phi_phi)
    mean = float(np.mean(list(per_setting.values())))
    lossy_mean = float(np.mean(contaminated)) if contaminated else None
    return CrbReport(per_setting, mean, lossy_mean)
