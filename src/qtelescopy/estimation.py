"""Protocol registry, Monte-Carlo experiment runner, maximum-likelihood phase
estimation and Cramer-Rao accounting.

Every protocol has one entry in :data:`PROTOCOLS`: its circuit call, its
outcome labels, its herald rule, whether its table is conditioned on a
photon arrival, and its window sampler.  Each protocol setting is compiled
once, from three circuit runs of the state engine, into the exact law of its
heralded outcomes, p_o(phi, g) = A_o + g cos(phi) B_o + g sin(phi) C_o,
rather than simulating the circuit again for every phase it is scored at.
A window is the index of its outcome in the protocol's declared labels.
The estimator counts the heralded outcomes of each setting and maximizes
their log-likelihood under that law on a dense phase grid, then refines by
golden-section search on the same function.  The Cramer-Rao bound
1/(M * fisher-per-window) takes its Fisher information from finite
differences of the setting's circuit.
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
    N_MAX,
    Herald,
    ProtocolConfig,
    Variant,
    classify_herald,
    cnot_distribution,
    direct_distribution,
    gottesman_distribution,
    sample_cnot_windows,
)
from .sources import StellarSource, _integer, sample_arrival
from .state_engine import basis_labels

PHI_GRID_POINTS = 1024
GOLDEN_TOL = 1e-10
# compiled probabilities below this are a broken circuit, not round-off
NEGATIVE_PROB_TOL = 1e-12
# how far a sampled table may sum from 1, as numpy's Generator.choice allows
CHOICE_ATOL = math.sqrt(np.finfo(float).eps)


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


def _outcome_index(plan: ExperimentPlan) -> dict:
    """Position of each declared outcome label of the plan's protocol."""
    labels = get_protocol(plan.protocol).outcomes()
    return {label: o for o, label in enumerate(labels)}


def _sample_cnot(plan: ExperimentPlan, rng) -> np.ndarray:
    index = _outcome_index(plan)
    n_settings = len(plan.delta_schedule)
    outcomes = np.empty(plan.n_windows, dtype=np.int64)
    # settings beyond the last window draw nothing
    for s, delta in enumerate(plan.delta_schedule[: plan.n_windows]):
        config = ProtocolConfig(delta, plan.eta, plan.variant)
        sampled = sample_cnot_windows(plan.source, config, len(outcomes[s::n_settings]), rng)
        outcomes[s::n_settings] = [index[record.counts] for _, _, record in sampled]
    return outcomes


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice`` draws from, after its checks:
    the normalized table must be finite, nonnegative and sum to 1 within
    sqrt(eps)."""
    with np.errstate(all="ignore"):
        p = probs / probs.sum()
    if not (
        p.size
        and np.isfinite(p).all()
        and (p >= 0.0).all()
        and abs(math.fsum(p) - 1.0) <= CHOICE_ATOL
    ):
        raise NumericalInvariantError(
            f"outcome table {probs.tolist()!r} is not a probability distribution"
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _sample_table(plan: ExperimentPlan, rng) -> np.ndarray:
    """One uniform per window, resolved against its setting's outcome table
    as ``Generator.choice`` would, one setting at a time.  A table
    conditioned on arrival is drawn from only after a photon arrived, at the
    same point in the RNG stream; a window without one keeps the index -1."""
    entry = get_protocol(plan.protocol)
    index = _outcome_index(plan)
    tables = []
    for delta in plan.delta_schedule:
        table = entry.run(plan.source, delta, plan.eta, plan.variant, plan.swap_bases)
        ids = np.array([index[label] for label in table])
        tables.append((ids, np.array(list(table.values()))))
    if entry.conditioned:
        epsilon, draw = plan.source.epsilon, rng.random
        uniforms = np.fromiter(
            (
                draw() if sample_arrival(epsilon, rng) else math.nan
                for _ in range(plan.n_windows)
            ),
            dtype=float,
            count=plan.n_windows,
        )
    else:
        uniforms = rng.random(plan.n_windows)
    outcomes = np.full(plan.n_windows, -1, dtype=np.int64)
    n_settings = len(tables)
    for s, (ids, probs) in enumerate(tables):
        u = uniforms[s::n_settings]
        drawn = ~np.isnan(u)
        if drawn.any():
            cdf = _choice_cdf(probs)
            outcomes[s::n_settings][drawn] = ids[cdf.searchsorted(u[drawn], side="right")]
    return outcomes


@dataclass(frozen=True)
class Protocol:
    """Registry entry of one measurement protocol.

    ``run(source, delta, eta, variant, swap_bases)`` is the circuit's outcome
    table, ``outcomes()`` its declared labels, ``herald`` the herald class of
    one label.  A ``conditioned`` table is conditioned on a photon arrival.
    Only a circuit that ``models_loss`` has an ancilla pair for eta < 1 to
    lose.  ``reference`` is the closed-form table, if any; ``sample`` draws
    the outcome index of every window.
    """

    name: str
    run: Callable[..., dict]
    outcomes: Callable[[], tuple]
    herald: Callable[[tuple], Herald]
    sample: Callable[[ExperimentPlan, np.random.Generator], np.ndarray]
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
            outcomes=lambda: tuple(basis_labels(6, N_MAX)),
            herald=classify_herald,
            sample=_sample_cnot,
            models_loss=True,
            reference=lambda source, delta, eta, swap: analytic.cnot_outcome_table(
                source.phi, source.g, source.epsilon, delta, eta
            ),
        ),
        Protocol(
            "direct",
            run=lambda source, delta, eta, variant, swap: direct_distribution(source, delta, swap),
            outcomes=lambda: ((-1, -1), (-1, 1), (1, -1), (1, 1)),
            herald=lambda label: Herald.PHOTON_ARRIVED,
            sample=_sample_table,
            conditioned=True,
            reference=lambda source, delta, eta, swap: analytic.direct_outcome_table(
                source.phi, source.g, delta, swap
            ),
        ),
        Protocol(
            "gottesman",
            run=lambda source, delta, eta, variant, swap: gottesman_distribution(source, delta),
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

    ``coefficients`` holds the rows (A, B, C) over the protocol's declared
    ``labels`` (zero outside the heralded class); ``herald`` the same three
    coefficients of the heralded-class total.
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


@lru_cache(maxsize=64)
def _fringe_table(protocol: str, setting) -> FringeTable:
    """Compile the setting (delta, epsilon, eta, variant, swap) from
    three circuit runs, at (g, phi) = (0, 0), (1, 0) and (1, pi/2).

    Outcomes outside the heralded class, and outcomes that vanish exactly at
    all three points (and so everywhere), keep zero coefficients.  A
    subnormal epsilon is refused: the heralded probabilities are of order
    epsilon and keep no relative precision to condition on.
    """
    entry = get_protocol(protocol)
    delta, epsilon, eta, variant, swap = setting
    if 0.0 < epsilon < sys.float_info.min:
        raise NumericalInvariantError(
            f"arrival probability {epsilon!r} is subnormal; the heralded class "
            "cannot be conditioned on"
        )
    labels = entry.outcomes()
    runs = [
        entry.run(StellarSource(phi, g, epsilon), delta, eta, variant, swap)
        for g, phi in _COMPILE_POINTS
    ]
    at = np.array([[run.get(k, 0.0) for k in labels] for run in runs])
    heralded = np.array([entry.herald(k) is Herald.PHOTON_ARRIVED for k in labels])
    keep = np.flatnonzero(heralded & np.any(at != 0.0, axis=0))
    points = np.array(_COMPILE_POINTS)
    solved = np.linalg.solve(_fringe_basis(points[:, 1], points[:, 0]), at[:, keep])
    coefficients = np.zeros_like(at)
    coefficients[:, keep] = solved
    coefficients.setflags(write=False)
    return FringeTable(labels, coefficients, solved.sum(axis=1))


def _log_likelihood(phi, g: float, observed) -> np.ndarray:
    """Sum over settings of sum_o k_o log P(o | heralded, phi), at one phase
    or along an array of phases.  ``observed`` holds (table, seen columns,
    counts) per setting; an impossible phase scores -inf."""
    out = 0.0
    for table, seen, k in observed:
        probs, total = table.joint(phi, g, seen)
        with np.errstate(divide="ignore"):
            out = out + np.log(probs / total[..., None]) @ k
    return out


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


def mle_phase(outcomes: np.ndarray, plan: ExperimentPlan) -> EstimateReport:
    """Maximum-likelihood phase estimate from the outcome index of every
    window, as :func:`run_experiment` returns them.

    Counts each setting's outcomes, scores the log-likelihood of the
    heralded counts on a dense phase grid, and refines the peak by
    golden-section search on the same function.  Vacuum windows carry no
    phase information and are counted but never scored.
    """
    source = plan.source
    heralds = outcome_heralds(plan.protocol)
    n_settings, n_classes = len(plan.delta_schedule), len(heralds)
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
    cells = np.arange(outcomes.size) % n_settings * n_classes + outcomes % n_classes
    counts = np.bincount(cells, minlength=n_settings * n_classes).reshape(n_settings, n_classes)
    heralded = np.array([h is Herald.PHOTON_ARRIVED for h in heralds])
    vacuum = np.array([h is Herald.VACUUM for h in heralds])
    n_heralded = int(counts[:, heralded].sum())
    n_vacuum = int(counts[:, vacuum].sum())
    if n_heralded == 0:
        raise EstimationError("no heralded windows: the likelihood is flat in phi")
    _check_schedule_identifiable(plan.delta_schedule)

    observed = []
    for s, delta in enumerate(plan.delta_schedule):
        k = np.where(heralded, counts[s], 0)[:-1]
        seen = np.flatnonzero(k)
        if not seen.size:
            continue
        setting = (delta, source.epsilon, plan.eta, plan.variant, plan.swap_bases)
        table = _fringe_table(plan.protocol, setting)
        if not table.coefficients[:, seen].any(axis=0).all():
            raise EstimationError("an observed outcome is impossible under the model")
        observed.append((table, seen, k[seen].astype(float)))

    def loglik(phi):
        return _log_likelihood(phi, source.g, observed)

    grid = _phi_grid()
    center = grid[int(np.argmax(loglik(grid)))]
    step = grid[1] - grid[0]
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

    def dist(phi: float, g: float) -> dict:
        return entry.run(StellarSource(phi, g, epsilon), delta, eta, variant, swap)

    model = OutcomeModel(dist, entry.outcomes(), name=f"{protocol}(delta={delta})")
    info = classical_fisher(model, at, wrt)
    return FisherMatrix(epsilon * info.matrix) if entry.conditioned else info


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
