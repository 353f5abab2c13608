"""Protocol registry, Monte-Carlo experiment runner, maximum-likelihood phase
estimation and Cramer-Rao accounting.

Every protocol has one entry in :data:`PROTOCOLS`: its circuit call, the compiled law of a setting
(:class:`~qtelescopy.protocols.Law`), its outcome labels, its herald rule and its window sampler.  The
heralded outcomes of a setting follow the exact law p_o(phi, g) = A_o + g cos(phi) B_o + g sin(phi) C_o,
which the law reads off its rows instead of simulating the circuit again at every phase.  A window is the
index of its outcome in the protocol's declared labels; for cnot, whose labels are in flat basis order,
the sampler's flat outcome index.  The estimator counts the heralded outcomes of each setting and
maximizes their log-likelihood under that law on a dense phase grid, then refines the peak by Newton
steps on the exact score of the same law.  The Cramer-Rao bound 1/(M * fisher-per-window) takes its
Fisher information from finite differences of the setting's outcome table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import analytic
from .errors import PHASE_ATOL, TABLE_ATOL, EstimationError, NumericalInvariantError, check_table
from .fisher import FisherMatrix, OutcomeModel, classical_fisher
from .protocols import (
    DIRECT_LABELS,
    N_MAX,
    Herald,
    Law,
    ProtocolConfig,
    Variant,
    _cnot_circuit,
    _draw,
    _direct_circuit,
    _gottesman_circuit,
    _law,
    classify_herald,
    cnot_distribution,
    direct_distribution,
    gottesman_distribution,
    sample_cnot_windows,
)
from .sources import StellarSource, _integer, sample_arrival
from .state_engine import basis_labels

PHI_GRID_POINTS = 1024
# the refine stops at a step of one ulp of a phase, or after enough halvings to get there
NEWTON_TOL, NEWTON_ITERATIONS = math.ulp(math.pi), 64


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
        if _integer(self.n_windows, "n_windows") < 1:
            raise ValueError("a plan needs at least one window")
        schedule = tuple(float(d) for d in self.delta_schedule)
        if not schedule:
            raise ValueError("the delta schedule must not be empty")
        if not all(map(math.isfinite, schedule)):
            raise ValueError(f"the delta schedule {schedule} holds a non-finite phase")
        object.__setattr__(self, "delta_schedule", schedule)
        _check_eta(self.protocol, self.eta)
        if self.seed is not None and _integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        object.__setattr__(self, "variant", Variant.parse(self.variant))


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


def _sample_cnot(plan: ExperimentPlan, rng) -> np.ndarray:
    n_settings = len(plan.delta_schedule)
    outcomes = np.empty(plan.n_windows, dtype=np.int64)
    # settings beyond the last window draw nothing; a flat basis index is the declared index
    for s, delta in enumerate(plan.delta_schedule[: plan.n_windows]):
        config = ProtocolConfig(delta, plan.eta, plan.variant)
        outcomes[s::n_settings] = sample_cnot_windows(plan.source, config, len(outcomes[s::n_settings]), rng).outcome
    return outcomes


def _sample_table(plan: ExperimentPlan, rng) -> np.ndarray:
    """One uniform per window, resolved against its setting's outcome table
    as ``Generator.choice`` would, one setting at a time.  A table
    conditioned on arrival is drawn from only after a photon arrived, at the
    same point in the RNG stream; a window without one keeps the index -1."""
    entry = get_protocol(plan.protocol)
    laws = [entry.law(delta, plan.eta, plan.variant, plan.swap_bases) for delta in plan.delta_schedule]
    n, n_settings = plan.n_windows, len(plan.delta_schedule)
    uniforms = sample_arrival(plan.source.epsilon, rng, n) if laws[0].conditioned else rng.random(n)  # nan: no arrival
    outcomes = np.full(n, -1, dtype=np.int64)
    for s, (delta, law) in enumerate(zip(plan.delta_schedule, laws)):
        table = entry.run(plan.source, delta, plan.eta, plan.variant, plan.swap_bases)
        u = uniforms[s::n_settings]
        drawn = ~np.isnan(u)
        if drawn.any():
            outcomes[s::n_settings][drawn] = law.positions(table)[_draw(np.array(list(table.values())), u[drawn])]
    return outcomes


@dataclass(frozen=True)
class Protocol:
    """Registry entry of one measurement protocol.

    ``run(source, delta, eta, variant, swap_bases)`` is the circuit's outcome table, read from the
    setting's compiled :class:`Law`, ``law(delta, eta, variant, swap_bases)``; ``outcomes()`` its declared
    labels, ``herald`` the herald class of one label.  Only a circuit that ``models_loss`` has an ancilla
    pair for eta < 1 to lose.  ``reference`` is the closed-form table, if any, which ``qtelescopy probs``
    prints next to the circuit's; ``sample`` draws the outcome index of every window.
    """

    name: str
    run: Callable[..., dict]
    law: Callable[..., Law]
    outcomes: Callable[[], tuple]
    herald: Callable[[tuple], Herald]
    sample: Callable[[ExperimentPlan, np.random.Generator], np.ndarray]
    models_loss: bool = False
    reference: Callable[..., dict] | None = None


PROTOCOLS = {
    entry.name: entry
    for entry in (
        Protocol(
            "cnot",
            run=lambda s, delta, eta, variant, swap: cnot_distribution(s, ProtocolConfig(delta, eta, variant)),
            law=lambda delta, eta, variant, swap: _law(_cnot_circuit, delta, eta, Variant.parse(variant)),
            outcomes=lambda: tuple(basis_labels(6, N_MAX)),
            herald=classify_herald,
            sample=_sample_cnot,
            models_loss=True,
            reference=lambda s, delta, eta, swap: analytic.cnot_outcome_table(s.phi, s.g, s.epsilon, delta, eta),
        ),
        Protocol(
            "direct",
            run=lambda source, delta, eta, variant, swap: direct_distribution(source, delta, swap),
            law=lambda delta, eta, variant, swap: _law(_direct_circuit, delta, swap),
            outcomes=lambda: DIRECT_LABELS,
            herald=lambda label: Herald.PHOTON_ARRIVED,
            sample=_sample_table,
            reference=lambda source, delta, eta, swap: analytic.direct_outcome_table(source.phi, source.g, delta, swap),
        ),
        Protocol(
            "gottesman",
            run=lambda source, delta, eta, variant, swap: gottesman_distribution(source, delta),
            law=lambda delta, eta, variant, swap: _law(_gottesman_circuit, delta),
            outcomes=lambda: tuple(basis_labels(4, N_MAX)),
            # any photon beyond the ancilla's shows up in the counts
            herald=lambda counts: Herald.PHOTON_ARRIVED if sum(counts) == 2 else Herald.VACUUM,
            sample=_sample_table,
        ),
    )
}


def get_protocol(name: str) -> Protocol:
    """The registry entry of ``name``; a ValueError names the known ones."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; expected one of {tuple(PROTOCOLS)}") from None


def _check_eta(protocol: str, eta: float) -> None:
    """Refuse an unknown protocol, an eta outside [0, 1], and an eta other
    than 1 for a protocol whose circuit has no ancilla pair to lose."""
    entry = get_protocol(protocol)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if eta != 1.0 and not entry.models_loss:
        raise ValueError(f"eta = {eta} needs an ancilla pair to lose; the {protocol} protocol has none")


def run_experiment(plan: ExperimentPlan) -> np.ndarray:
    """Sample ``plan.n_windows`` independent windows, deterministic per seed.

    Returns the index of each window's outcome in the protocol's declared
    labels ``outcomes()``, or -1 when no photon arrived.
    """
    return get_protocol(plan.protocol).sample(plan, np.random.default_rng(plan.seed))


def outcome_heralds(protocol: str) -> list[Herald]:
    """Herald class of each declared outcome, then VACUUM, the class of
    index -1 (no photon arrived), so that index -1 reads the last entry."""
    entry = get_protocol(protocol)
    return [entry.herald(label) for label in entry.outcomes()] + [Herald.VACUUM]


@lru_cache(maxsize=None)
def _herald_masks(protocol: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only masks of the PHOTON_ARRIVED and the VACUUM entries of :func:`outcome_heralds`."""
    heralds = np.array(outcome_heralds(protocol))
    masks = heralds == Herald.PHOTON_ARRIVED, heralds == Herald.VACUUM
    for mask in masks:
        mask.setflags(write=False)
    return masks


# ---------------------------------------------------------------------------
# likelihood machinery


def _phi_grid() -> np.ndarray:
    return np.linspace(-np.pi, np.pi, PHI_GRID_POINTS, endpoint=False)


@dataclass(frozen=True, eq=False)
class FringeTable:
    """Heralded outcome law of one protocol setting, exact in (phi, g):
    p_o(phi, g) = A_o + g cos(phi) B_o + g sin(phi) C_o, the rows (A, B, C)
    of ``coefficients`` over the protocol's declared labels (zero outside
    the heralded class), and ``herald`` those of the heralded-class total;
    a :func:`_stack` law has one herald column per setting.
    """

    coefficients: np.ndarray
    herald: np.ndarray

    @cached_property
    def varies(self) -> np.ndarray:
        """Whether each outcome's heralded law p_o / T depends on phi at g > 0:
        its (A, B, C) is not proportional to the total's, to TABLE_ATOL of their norms."""
        cross = np.linalg.norm(np.cross(self.coefficients.T, self.herald), axis=1)
        return cross > TABLE_ATOL * np.linalg.norm(self.coefficients, axis=0) * np.linalg.norm(self.herald)

    def joint(self, phi, g: float) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized probabilities of the outcomes and the heralded-class
        total, or of one per herald column, at one phase or along an array of phases."""
        phi = np.asarray(phi, dtype=float)
        basis = np.stack([np.ones_like(phi), g * np.cos(phi), g * np.sin(phi)], axis=-1)
        probs = basis @ self.coefficients
        total = basis @ self.herald
        check_table(probs, "compiled outcome law", negative_atol=TABLE_ATOL)
        if np.any(total <= 0.0):
            raise NumericalInvariantError(
                "the heralded class has no probability at some phase; "
                "the likelihood cannot be conditioned on it"
            )
        return np.maximum(probs, 0.0), total


@lru_cache(maxsize=64)
def _fringe_table(protocol: str, setting) -> FringeTable:
    """The read-only :meth:`Law.heralded` of a setting (delta, epsilon, eta, variant, swap), and its total."""
    delta, epsilon, eta, variant, swap = setting
    law = get_protocol(protocol).law(delta, eta, variant, swap)
    coefficients = law.heralded(epsilon, _herald_masks(protocol)[0][:-1])
    coefficients.setflags(write=False)
    return FringeTable(coefficients, coefficients.sum(axis=1))


def _stack(settings) -> tuple[FringeTable, np.ndarray, np.ndarray]:
    """One law of the observed settings, each its (table, seen columns, counts k): their seen columns side by
    side and one herald column per setting, then all the counts k and each setting's heralded total K."""
    tables, seen, counts = zip(*settings)
    coefficients = np.concatenate([table.coefficients[:, cols] for table, cols in zip(tables, seen)], axis=1)
    law = FringeTable(coefficients, np.stack([table.herald for table in tables], axis=1))
    return law, np.concatenate(counts), np.array([k.sum() for k in counts])


def _log_likelihood(phi, g: float, observed) -> np.ndarray:
    """Sum over settings of sum_o k_o log P(o | heralded, phi), at one phase
    or along an array of phases, of the :func:`_stack` law ``observed``:
    log P @ k - log T @ K.  An impossible phase scores -inf."""
    table, k, heralded = observed
    probs, total = table.joint(phi, g)
    with np.errstate(divide="ignore"):
        return np.log(probs) @ k - np.log(total) @ heralded


def _score(phi: float, g: float, observed) -> tuple[float, float, float]:
    """Log-likelihood, score and curvature in phi at one phase of the :func:`_stack` law ``observed``; an
    impossible phase gives non-finite values and no warning.  Each observed outcome and each setting's
    heralded total T have p = A + g cos(phi) B + g sin(phi) C, so p' = g (-B sin phi + C cos phi) and
    p'' = -g (B cos phi + C sin phi); a setting of K heralded windows scores sum_o k_o p'_o / p_o - K T' / T."""
    c, s = g * math.cos(phi), g * math.sin(phi)
    slopes = np.array([[0.0, -s, c], [0.0, -c, -s]])
    table, k, heralded = observed
    with np.errstate(all="ignore"):
        probs, total = table.joint(phi, g)
        d1, d2 = slopes @ table.coefficients / probs
        t1, t2 = slopes @ table.herald / total
        value = np.log(probs) @ k - np.log(total) @ heralded
        return value, d1 @ k - t1 @ heralded, (d2 - d1 * d1) @ k - (t2 - t1 * t1) @ heralded


def _newton_max(terms, center: float, step: float) -> float:
    """The maximum in [center - step, center + step] of a log-likelihood whose
    grid peak is ``center``; ``terms(phi)`` is its value, score and curvature.

    Newton steps on the score keep a bracket [a, b], the score positive at a
    and negative at b, and bisect when a step would leave it, the curvature
    is not negative or a value is not finite.  A point scoring below the
    peak, or impossible, has a zero of an observed probability or a valley
    between it and the peak: the bracket keeps the peak's side of it.
    """
    a, b, x = center - step, center + step, center
    peak, score, curvature = terms(x)
    value = peak
    for _ in range(NEWTON_ITERATIONS):
        if not value >= peak:
            a, b = (x, b) if x < center else (a, x)
        elif score > 0.0:
            a = x
        elif score < 0.0:
            b = x
        else:
            return x
        with np.errstate(invalid="ignore"):  # inf / inf at an impossible phase
            new = x - score / curvature if curvature < 0.0 else math.nan
        # a step within NEWTON_TOL is taken even onto an end of the bracket
        if not (a < new < b or abs(new - x) <= NEWTON_TOL):  # nan fails both
            new = (a + b) / 2.0
        if abs(new - x) <= NEWTON_TOL:
            return new
        x = new
        value, score, curvature = terms(x)
    return x


def _check_schedule_identifiable(settings) -> None:
    """The sign of the fringe is ambiguous unless two settings differ by other than a multiple of pi."""
    distinct = set(settings)
    if not any(abs(math.sin(a - b)) > PHASE_ATOL for a in distinct for b in distinct):
        raise EstimationError(
            "the delta schedule cannot distinguish phi from -phi; add a second setting offset by pi/2"
        )


def mle_phase(outcomes: np.ndarray, plan: ExperimentPlan) -> EstimateReport:
    """Maximum-likelihood phase estimate from the outcome index of every
    window, as :func:`run_experiment` returns them.

    Counts each setting's outcomes, scores the log-likelihood of the
    heralded counts on a dense phase grid, and refines the peak by Newton
    steps on the exact score of the compiled law, within the grid cell
    around it (:func:`_newton_max`).  Vacuum windows carry no phase
    information and are counted but never scored.  When no observed
    outcome's heralded law depends on phi (at g = 0, or with every ancilla
    lost), the likelihood is flat and the estimate is refused.
    """
    source = plan.source
    heralded, vacuum = _herald_masks(plan.protocol)
    n_settings, n_classes = len(plan.delta_schedule), len(heralded)
    outcomes = np.asarray(outcomes)
    if outcomes.shape != (plan.n_windows,) or outcomes.dtype.kind not in "iu":
        raise EstimationError(
            f"expected a 1-D integer array of {plan.n_windows} outcome indices, "
            f"got shape {outcomes.shape} of {outcomes.dtype}"
        )
    if not -1 <= outcomes.min() <= outcomes.max() < n_classes - 1:
        raise EstimationError(f"outcome indices must lie in [-1, {n_classes - 1})")
    # window w uses setting w mod n_settings; index -1 (no photon) lands in
    # the last column, the VACUUM class
    counts = np.roll([np.bincount(np.add(outcomes[s::n_settings], 1, dtype=np.int64), minlength=n_classes)
                      for s in range(n_settings)], -1, axis=1)
    n_heralded = int(counts[:, heralded].sum())
    n_vacuum = int(counts[:, vacuum].sum())
    if n_heralded == 0:
        raise EstimationError("no heralded windows: the likelihood is flat in phi")

    observed = []
    for s, delta in enumerate(plan.delta_schedule):
        k = np.where(heralded, counts[s], 0)[:-1]
        seen = np.flatnonzero(k)
        if not seen.size:
            continue
        table = _fringe_table(plan.protocol, (delta, source.epsilon, plan.eta, plan.variant, plan.swap_bases))
        if not table.coefficients[:, seen].any(axis=0).all():
            raise EstimationError("an observed outcome is impossible under the model")
        observed.append((table, seen, k[seen].astype(float)))
    if not (source.g > 0.0 and any(table.varies[seen].any() for table, seen, _ in observed)):
        raise EstimationError("the heralded law carries no phase (as at g = 0): the likelihood is flat in phi")
    _check_schedule_identifiable(plan.delta_schedule)

    observed = _stack(observed)
    grid = _phi_grid()
    center = grid[int(np.argmax(_log_likelihood(grid, source.g, observed)))]
    phi_hat = wrap_phase(_newton_max(lambda phi: _score(phi, source.g, observed), center, grid[1] - grid[0]))
    err = wrap_phase(phi_hat - source.phi)
    info = crb_report(
        plan.protocol, source, plan.delta_schedule, plan.eta, variant=plan.variant, swap_bases=plan.swap_bases
    )
    if not info.fisher_per_window > 0.0:  # a law too nearly flat for the finite differences to see
        raise EstimationError(f"no phase information per window at g = {source.g!r}: the Cramer-Rao bound is infinite")
    crb = info.crb_for(plan.n_windows)
    return EstimateReport(phi_hat, err * err, crb, n_heralded, n_vacuum, info.fisher_per_window)


# ---------------------------------------------------------------------------
# Cramer-Rao accounting


@dataclass(frozen=True)
class CrbReport:
    """Schedule-averaged per-window phase information and its bound.

    ``fisher_per_window`` uses the accounting convention for ancilla loss,
    which only ``cnot`` models: eta scales the number of usable windows, so
    the per-window figure is eta times the clean-protocol information.
    """

    per_setting: dict[float, float]
    fisher_per_window: float

    def crb_for(self, n_windows: int) -> float:
        if self.fisher_per_window <= 0.0:
            return math.inf
        return 1.0 / (n_windows * self.fisher_per_window)


def window_fisher(protocol: str, setting, at: tuple[float, float], wrt=("phi",)) -> FisherMatrix:
    """Per-window classical Fisher matrix at ``at = (phi, g)`` of the circuit
    of one setting (delta, epsilon, eta, variant, swap); a table
    conditioned on arrival is scaled by epsilon."""
    entry = get_protocol(protocol)
    delta, epsilon, eta, variant, swap = setting
    conditioned = entry.law(delta, eta, variant, swap).conditioned  # refuses a readout phase that is not finite
    if conditioned and epsilon == 0.0:  # no photon arrives, and the table is empty
        StellarSource(*at, epsilon)  # refuses a phase that is not finite or a visibility outside [0, 1]
        return FisherMatrix(np.zeros((2, 2)))
    model = OutcomeModel(lambda phi, g: entry.run(StellarSource(phi, g, epsilon), delta, eta, variant, swap),
                         entry.outcomes(), name=f"{protocol}(delta={delta})")
    info = classical_fisher(model, at, wrt)
    return FisherMatrix(epsilon * info.matrix) if conditioned else info


def crb_report(
    protocol: str,
    source: StellarSource,
    delta_schedule,
    eta: float = 1.0,
    *,
    variant: Variant = Variant.CNOT_SEQUENCE,
    swap_bases: bool = False,
) -> CrbReport:
    """Average the per-window phase information over the entries of the
    setting schedule, so a repeated delta counts once per entry; each
    distinct delta is computed once.  ``variant`` and ``swap_bases``
    complete the setting as in a plan."""
    _check_eta(protocol, eta)
    at = (source.phi, source.g)
    schedule = [float(delta) for delta in delta_schedule]
    if not schedule:
        raise ValueError("the delta schedule must not be empty")
    per_setting: dict[float, float] = {}
    for delta in dict.fromkeys(schedule):
        setting = (delta, source.epsilon, 1.0, variant, swap_bases)
        per_setting[delta] = eta * window_fisher(protocol, setting, at).phi_phi
    return CrbReport(per_setting, float(np.mean([per_setting[d] for d in schedule])))
