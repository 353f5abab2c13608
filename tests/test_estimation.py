"""Monte-Carlo runner and maximum-likelihood estimator tests."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtelescopy import analytic, cli, estimation
from qtelescopy.errors import EstimationError, FisherDivergenceError, NumericalInvariantError
from qtelescopy.fisher import DERIVATIVE_FLOOR, FD_STEP, G_BOUNDARY, PROB_FLOOR
from qtelescopy.estimation import (
    DEFAULT_SCHEDULE,
    ExperimentPlan,
    crb_report,
    mle_phase,
    run_experiment,
    wrap_phase,
)
from qtelescopy.protocols import (
    Herald,
    ProtocolConfig,
    Variant,
    classify_herald,
    cnot_distribution,
    direct_distribution,
    gottesman_distribution,
    run_memory_modified,
    run_memory_unmodified,
)
from qtelescopy.sources import StellarSource, sample_arrival

HALF_PI = math.pi / 2.0


def _plan(protocol="cnot", phi=0.7, g=1.0, epsilon=0.1, n_windows=2000, seed=31,
          schedule=(0.0, HALF_PI), eta=1.0):
    src = StellarSource(phi=phi, g=g, epsilon=epsilon)
    return ExperimentPlan(
        protocol=protocol,
        source=src,
        delta_schedule=schedule,
        n_windows=n_windows,
        seed=seed,
        eta=eta,
    )


def test_wrap_phase():
    assert wrap_phase(0.0) == 0.0
    np.testing.assert_allclose(wrap_phase(2.0 * math.pi + 0.3), 0.3, atol=1e-12)
    np.testing.assert_allclose(wrap_phase(-2.0 * math.pi - 0.3), -0.3, atol=1e-12)
    for x in np.linspace(-20.0, 20.0, 101):
        assert -math.pi <= wrap_phase(x) <= math.pi


def test_plan_validation():
    src = StellarSource(phi=0.1, g=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        ExperimentPlan("cnot", src, (), 100, seed=1)
    with pytest.raises(ValueError):
        ExperimentPlan("cnot", src, (0.0,), 0, seed=1)
    with pytest.raises(ValueError):
        ExperimentPlan("unknown", src, (0.0,), 100, seed=1)
    with pytest.raises(ValueError, match="seed"):
        ExperimentPlan("direct", src, (0.0,), 100, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("n_windows", True), ("n_windows", 2.5), ("n_windows", 10.0), ("n_windows", "10"),
    ("seed", True), ("seed", 1.5), ("seed", 1.0), ("seed", "1"),
])
def test_plan_refuses_a_non_integer_window_count_or_seed(field, value):
    # True ran as one window or seed 1; 2.5 and 1.5 failed inside numpy
    fields = {"n_windows": 10, "seed": 1, field: value}
    with pytest.raises(TypeError, match=field):
        ExperimentPlan("cnot", StellarSource(0.1, 0.5, 0.1), (0.0, HALF_PI), **fields)
    plan = ExperimentPlan("cnot", StellarSource(0.1, 0.5, 0.1), (0.0,), np.int64(10), seed=np.int32(3))
    assert run_experiment(plan).shape == (10,)
    assert ExperimentPlan("cnot", StellarSource(0.1, 0.5, 0.1), (0.0,), 10, seed=None).seed is None


# every entry point a phase, a readout phase or an arrival probability reaches
_GUARDED_RUNS = {
    "cnot": lambda protocol, src, delta: cnot_distribution(src, ProtocolConfig(delta, 0.8)),
    "cnot parity": lambda protocol, src, delta: cnot_distribution(
        src, ProtocolConfig(delta, 0.8, Variant.PARITY_FEED_FORWARD)
    ),
    "direct": lambda protocol, src, delta: direct_distribution(src, delta),
    "direct swapped": lambda protocol, src, delta: direct_distribution(src, delta, swap_bases=True),
    "gottesman": lambda protocol, src, delta: gottesman_distribution(src, delta),
    "crb_report": lambda protocol, src, delta: crb_report(protocol, src, (delta,)),
    "run_experiment": lambda protocol, src, delta: run_experiment(
        ExperimentPlan(protocol, src, (0.0, delta), 10, seed=1)
    ),
    "memory modified": lambda protocol, src, delta: run_memory_modified(3, 2, src, delta, rng_seed=1),
    "memory unmodified": lambda protocol, src, delta: run_memory_unmodified(3, 2, src, delta, rng_seed=1),
    "memory modified, no photon": lambda protocol, src, delta: run_memory_modified(3, None, src, delta),
    "memory unmodified, no photon": lambda protocol, src, delta: run_memory_unmodified(3, None, src, delta),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    run=st.sampled_from(sorted(_GUARDED_RUNS)),
    protocol=st.sampled_from(sorted(estimation.PROTOCOLS)),
    bad=st.sampled_from(["phi", "delta", "epsilon"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    phi=st.floats(-math.pi, math.pi),
    g=st.floats(0.0, 1.0),
    epsilon=st.floats(0.0, 0.3),
    delta=st.floats(-math.pi, math.pi),
)
def test_a_non_finite_input_raises_value_error(run, protocol, bad, value, phi, g, epsilon, delta):
    # a nan phase used to reach the circuits: an all-nan direct table, a
    # LeakageError blaming the cutoff from cnot, zero information from crb_report
    args = {"phi": phi, "epsilon": epsilon, "delta": delta, bad: value}
    with pytest.raises(ValueError) as caught:
        _GUARDED_RUNS[run](protocol, StellarSource(args["phi"], g, args["epsilon"]), args["delta"])
    assert not isinstance(caught.value, NumericalInvariantError)


def _heralds(plan, outcomes):
    """Herald class of every window, read from its outcome index."""
    classes = estimation.outcome_heralds(plan.protocol)
    return [classes[o] for o in outcomes]


def test_run_experiment_deterministic():
    plan = _plan(n_windows=500)
    a = run_experiment(plan)
    b = run_experiment(plan)
    assert len(a) == 500
    assert _heralds(plan, a) == _heralds(plan, b)
    np.testing.assert_array_equal(a, b)


def test_run_experiment_seed_changes_data():
    a = run_experiment(_plan(seed=1, n_windows=400))
    b = run_experiment(_plan(seed=2, n_windows=400))
    assert np.any(a != b)


def test_zero_epsilon_gives_all_vacuum():
    plan = _plan(epsilon=0.0, n_windows=300)
    assert all(h is Herald.VACUUM for h in _heralds(plan, run_experiment(plan)))


def test_herald_fraction_within_three_sigma():
    n = 20_000
    plan = _plan(n_windows=n, seed=8)
    frac = _heralds(plan, run_experiment(plan)).count(Herald.PHOTON_ARRIVED) / n
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(frac - 0.1) < 3 * sigma


def _per_window_outcomes(plan):
    """Per-window oracle of the table sampler: ``sample_arrival`` first when
    the table is conditioned on arrival, then one ``Generator.choice``."""
    entry = estimation.PROTOCOLS[plan.protocol]
    index = {label: o for o, label in enumerate(entry.outcomes())}
    tables = [
        entry.run(plan.source, delta, plan.eta, plan.variant, plan.swap_bases)
        for delta in plan.delta_schedule
    ]
    rng = np.random.default_rng(plan.seed)
    outcomes = []
    for w in range(plan.n_windows):
        if entry.conditioned and not sample_arrival(plan.source.epsilon, rng):
            outcomes.append(-1)
            continue
        table = tables[w % len(tables)]
        probs = np.array(list(table.values()))
        outcomes.append(index[list(table)[rng.choice(len(table), p=probs / probs.sum())]])
    return np.array(outcomes)


@pytest.mark.parametrize(
    "protocol,swap,epsilon",
    [
        ("direct", False, 0.1),
        ("direct", False, 0.5),
        ("direct", False, 1.0),
        ("direct", True, 0.1),
        ("direct", True, 0.5),
        ("direct", True, 1.0),
        ("gottesman", False, 0.3),
    ],
)
@pytest.mark.parametrize("n_windows", [2, 3001])
def test_table_sampler_matches_per_window_choice(protocol, swap, epsilon, n_windows):
    # three settings: 3001 windows end mid-cycle, 2 never reach the last one
    plan = ExperimentPlan(
        protocol, StellarSource(phi=0.9, g=0.7, epsilon=epsilon), (0.2, 1.1, 2.5),
        n_windows, seed=n_windows + int(100 * epsilon), swap_bases=swap,
    )
    np.testing.assert_array_equal(run_experiment(plan), _per_window_outcomes(plan))


@pytest.mark.parametrize(
    "table",
    [
        {(1, 1): -0.1, (1, -1): 1.1},
        {(1, 1): math.nan, (1, -1): 1.0},
        # the total overflows, so the normalized table sums to 0
        {(1, 1): 1e308, (1, -1): 1e308},
        {},
    ],
    ids=["negative", "nan", "overflow", "empty"],
)
def test_table_sampler_refuses_a_table_that_is_not_a_distribution(monkeypatch, table):
    entry = dataclasses.replace(estimation.PROTOCOLS["direct"], run=lambda *args: dict(table))
    monkeypatch.setitem(estimation.PROTOCOLS, "direct", entry)
    with pytest.raises(NumericalInvariantError):
        run_experiment(_plan(protocol="direct", n_windows=100))
    # a table that is never drawn from is never checked
    no_photon = run_experiment(_plan(protocol="direct", epsilon=0.0, n_windows=100))
    np.testing.assert_array_equal(no_photon, np.full(100, -1))


def test_mle_recovers_phase_cnot():
    plan = _plan(n_windows=20_000, seed=12)
    report = mle_phase(run_experiment(plan), plan)
    assert abs(wrap_phase(report.phi_hat - 0.7)) < 0.05
    assert report.n_heralded + report.n_vacuum <= plan.n_windows
    assert report.crb == pytest.approx(1.0 / (plan.n_windows * 0.1), rel=1e-6)


def test_mle_recovers_phase_direct():
    plan = _plan(protocol="direct", g=0.8, n_windows=40_000, seed=13)
    report = mle_phase(run_experiment(plan), plan)
    assert abs(wrap_phase(report.phi_hat - 0.7)) < 0.1


def test_mle_recovers_phase_gottesman():
    plan = _plan(protocol="gottesman", n_windows=40_000, seed=14)
    report = mle_phase(run_experiment(plan), plan)
    assert abs(wrap_phase(report.phi_hat - 0.7)) < 0.1


def test_mle_deterministic():
    plan = _plan(n_windows=5000, seed=21)
    outcomes = run_experiment(plan)
    assert mle_phase(outcomes, plan).phi_hat == mle_phase(outcomes, plan).phi_hat


def test_mle_ignores_vacuum_windows():
    # appending vacuum windows must not move the estimate
    plan = _plan(n_windows=4000, seed=9)
    outcomes = run_experiment(plan)
    base = mle_phase(outcomes, plan)
    vacuum = [h is Herald.VACUUM for h in _heralds(plan, outcomes)]
    extra_vacuum = outcomes[vacuum][:200]
    longer = ExperimentPlan(
        protocol="cnot",
        source=plan.source,
        delta_schedule=plan.delta_schedule,
        n_windows=plan.n_windows + len(extra_vacuum),
        seed=plan.seed,
    )
    padded = mle_phase(np.concatenate([outcomes, extra_vacuum]), longer)
    assert padded.phi_hat == base.phi_hat
    assert padded.n_heralded == base.n_heralded


def test_mle_requires_heralded_data():
    plan = _plan(epsilon=0.0, n_windows=200)
    outcomes = run_experiment(plan)
    with pytest.raises(EstimationError):
        mle_phase(outcomes, plan)


def test_single_setting_schedule_is_ambiguous():
    plan = _plan(schedule=(0.4,), n_windows=2000, seed=3)
    outcomes = run_experiment(plan)
    with pytest.raises(EstimationError):
        mle_phase(outcomes, plan)


def test_antipodal_schedule_is_ambiguous():
    # {0, pi} still cannot split phi from -phi
    plan = _plan(schedule=(0.0, math.pi), n_windows=2000, seed=3)
    outcomes = run_experiment(plan)
    with pytest.raises(EstimationError):
        mle_phase(outcomes, plan)


def test_estimator_consistency_rate():
    # MSE should fall off like 1/M; fit the log-log slope across three decades
    sizes = (1_000, 10_000, 100_000)
    reps = (60, 40, 20)
    mse = []
    for m, r in zip(sizes, reps):
        errors = []
        for k in range(r):
            plan = _plan(protocol="direct", g=0.8, n_windows=m, seed=5000 + 17 * k + m)
            report = mle_phase(run_experiment(plan), plan)
            errors.append(wrap_phase(report.phi_hat - 0.7) ** 2)
        mse.append(float(np.mean(errors)))
    slope = np.polyfit(np.log10(sizes), np.log10(mse), 1)[0]
    assert -1.15 < slope < -0.85


def test_crb_report_cnot_unit_visibility():
    src = StellarSource(phi=0.7, g=1.0, epsilon=0.1)
    rep = crb_report("cnot", src, (0.0, HALF_PI))
    np.testing.assert_allclose(rep.fisher_per_window, 0.1, atol=1e-8)
    np.testing.assert_allclose(rep.crb_for(10_000), 1.0 / (10_000 * 0.1), rtol=1e-6)


def test_crb_report_detector_loss_scales_fisher():
    src = StellarSource(phi=0.7, g=1.0, epsilon=0.1)
    full = crb_report("cnot", src, (0.0, HALF_PI), eta=1.0)
    half = crb_report("cnot", src, (0.0, HALF_PI), eta=0.5)
    np.testing.assert_allclose(half.fisher_per_window, 0.5 * full.fisher_per_window, atol=1e-12)
    np.testing.assert_allclose(half.fisher_per_window, 0.05, atol=1e-8)


def test_crb_report_gottesman_half_quota():
    src = StellarSource(phi=0.7, g=1.0, epsilon=0.1)
    rep = crb_report("gottesman", src, (0.0, HALF_PI))
    np.testing.assert_allclose(rep.fisher_per_window, 0.05, atol=1e-8)


def test_crb_monotonicity_cnot_dominates_baseline():
    for phi in (0.4, 1.2, 2.1):
        for g in (0.3, 0.7, 1.0):
            for delta in (0.2, 0.9):
                src = StellarSource(phi=phi, g=g, epsilon=0.1)
                f_cnot = crb_report("cnot", src, (delta,)).fisher_per_window
                f_base = crb_report("gottesman", src, (delta,)).fisher_per_window
                assert f_cnot >= f_base - 1e-9


def test_crb_report_averages_over_schedule_entries(monkeypatch):
    # a repeated delta weighs once per entry but runs the circuit once
    src = StellarSource(phi=0.7, g=0.8, epsilon=0.1)
    calls = []
    window_fisher = estimation.window_fisher

    def counted(protocol, setting, at, wrt=("phi",)):
        calls.append(setting[0])
        return window_fisher(protocol, setting, at, wrt)

    monkeypatch.setattr(estimation, "window_fisher", counted)
    rep = crb_report("direct", src, (0.0, 0.0, HALF_PI))
    f = {d: 0.1 * analytic.fringe_fisher(0.7 + d, 0.8) for d in (0.0, HALF_PI)}
    assert sorted(calls) == [0.0, HALF_PI]
    assert rep.per_setting == pytest.approx(f, abs=1e-8)
    assert rep.fisher_per_window == pytest.approx((2 * f[0.0] + f[HALF_PI]) / 3, abs=1e-8)


@pytest.mark.parametrize("eta", [2.0, -0.1, math.nan])
def test_crb_report_refuses_an_eta_outside_the_unit_interval(eta):
    # eta = 2 reported twice the QFI bound, eta = nan a nan bound
    with pytest.raises(ValueError, match="eta"):
        crb_report("cnot", StellarSource(0.7, 1.0, 0.1), (0.0, HALF_PI), eta=eta)


@pytest.mark.parametrize("protocol", ["direct", "gottesman"])
def test_plan_refuses_eta_without_an_ancilla_pair(protocol):
    # neither circuit has an ancilla pair to lose: at eta = 0.5 a plan drew
    # the outcomes of eta = 1, yet reported twice its bound
    with pytest.raises(ValueError, match="ancilla pair"):
        _plan(protocol=protocol, eta=0.5)
    assert _plan(protocol=protocol, eta=1.0).eta == 1.0


@pytest.mark.parametrize("protocol", ["direct", "gottesman"])
def test_crb_report_refuses_eta_without_an_ancilla_pair(protocol):
    with pytest.raises(ValueError, match="ancilla pair"):
        crb_report(protocol, StellarSource(0.7, 0.8, 0.1), (0.0, HALF_PI), eta=0.5)


def test_crb_report_refuses_an_empty_schedule():
    # the mean over no entries was nan, with a numpy warning
    with pytest.raises(ValueError, match="schedule"):
        crb_report("direct", StellarSource(0.7, 1.0, 0.1), ())


def _exact_window_fisher(protocol, setting, phi, g):
    """Fisher matrix of one setting with exact derivatives of the affine law
    p = A + g cos(phi) B + g sin(phi) C, fitted to three circuit runs."""
    entry = estimation.PROTOCOLS[protocol]
    delta, epsilon, eta, variant, swap = setting

    def run(at_phi, at_g):
        table = entry.run(StellarSource(at_phi, at_g, epsilon), delta, eta, variant, swap)
        return np.array([table.get(k, 0.0) for k in entry.outcomes()])

    a = run(0.0, 0.0)
    b, c = run(0.0, 1.0) - a, run(HALF_PI, 1.0) - a
    grads = (g * (c * math.cos(phi) - b * math.sin(phi)), b * math.cos(phi) + c * math.sin(phi))
    p = run(phi, g)
    keep = p >= PROB_FLOOR
    if any(np.any(~keep & (np.abs(dp) >= DERIVATIVE_FLOOR)) for dp in grads):
        return None
    mat = np.array([[np.sum(di[keep] * dj[keep] / p[keep]) for dj in grads] for di in grads])
    return epsilon * mat if entry.conditioned else mat


@settings(max_examples=40, deadline=None)
@given(
    protocol=st.sampled_from(sorted(estimation.PROTOCOLS)),
    variant=st.sampled_from(list(Variant)),
    swap=st.booleans(),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    # the interior, and the two ends where the g stencil turns one-sided
    g=st.one_of(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=FD_STEP),
        st.floats(min_value=1.0 - FD_STEP, max_value=G_BOUNDARY, exclude_max=True),
    ),
    epsilon=st.floats(min_value=1e-3, max_value=1.0),
    delta=st.floats(min_value=-math.pi, max_value=math.pi),
    eta=st.floats(min_value=0.0, max_value=1.0),
)
def test_window_fisher_matches_exact_derivatives_of_the_circuit(
    protocol, variant, swap, phi, g, epsilon, delta, eta
):
    # Richardson differences of the circuit, with the full setting, against
    # the exact derivatives of its affine law in (g cos phi, g sin phi)
    setting = (delta, epsilon, eta, variant, swap)
    exact = _exact_window_fisher(protocol, setting, phi, g)
    if exact is None:
        with pytest.raises(FisherDivergenceError):
            estimation.window_fisher(protocol, setting, (phi, g), ("phi", "g"))
        return
    numeric = estimation.window_fisher(protocol, setting, (phi, g), ("phi", "g")).matrix
    np.testing.assert_allclose(numeric, exact, rtol=0.0, atol=1e-8 * max(1.0, np.abs(exact).max()))


def test_crb_for_zero_fisher_is_infinite():
    rep = estimation.CrbReport(per_setting=(0.0,), fisher_per_window=0.0)
    assert rep.crb_for(1000) == math.inf


def test_default_schedule_has_quadrature_pair():
    assert len(DEFAULT_SCHEDULE) == 2
    assert abs(abs(DEFAULT_SCHEDULE[0] - DEFAULT_SCHEDULE[1]) - HALF_PI) < 1e-12


def _circuit_conditional(protocol, source, delta, eta, variant, swap):
    """Heralded-class outcome table at one (phi, g), straight from the circuit."""
    if protocol == "cnot":
        full = cnot_distribution(source, ProtocolConfig(delta, eta, variant))
        kept = {k: v for k, v in full.items() if classify_herald(k) is Herald.PHOTON_ARRIVED}
    elif protocol == "direct":
        kept = direct_distribution(source, delta, swap)
    else:
        full = gottesman_distribution(source, delta)
        kept = {k: v for k, v in full.items() if sum(k) == 2}
    total = sum(kept.values())
    return {k: v / total for k, v in kept.items()} if total > 0.0 else None


@pytest.mark.parametrize(
    "protocol,eta,variant,swap",
    [
        ("cnot", 1.0, Variant.CNOT_SEQUENCE, False),
        ("cnot", 1.0, Variant.PARITY_FEED_FORWARD, False),
        ("cnot", 0.6, Variant.CNOT_SEQUENCE, False),
        ("cnot", 0.3, Variant.PARITY_FEED_FORWARD, False),
        ("direct", 1.0, Variant.CNOT_SEQUENCE, False),
        ("direct", 1.0, Variant.CNOT_SEQUENCE, True),
        ("gottesman", 1.0, Variant.CNOT_SEQUENCE, False),
    ],
)
@settings(max_examples=25, deadline=None)
@given(
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    g=st.floats(min_value=0.0, max_value=1.0),
    epsilon=st.floats(min_value=0.0, max_value=1.0),
    delta=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_compiled_fringe_table_matches_circuit(protocol, eta, variant, swap, phi, g, epsilon, delta):
    # the likelihood reads the compiled table; it must be the state engine's law
    setting = (delta, epsilon, eta, variant, swap)
    if 0.0 < epsilon < sys.float_info.min:
        with pytest.raises(NumericalInvariantError):
            estimation._fringe_table(protocol, setting)
        return
    table = estimation._fringe_table(protocol, setting)
    expected = _circuit_conditional(
        protocol, StellarSource(phi=phi, g=g, epsilon=epsilon), delta, eta, variant, swap
    )
    if expected is None:
        with pytest.raises(NumericalInvariantError):
            table.joint(phi, g)
        return
    probs, total = table.joint(phi, g)
    compiled = dict(zip(table.labels, probs / total))
    assert {k for k, v in expected.items() if v > 0.0} <= set(compiled)
    worst = max(abs(compiled.get(k, 0.0) - expected.get(k, 0.0)) for k in set(compiled) | set(expected))
    assert worst < 1e-12


def test_log_likelihood_on_the_grid_is_the_compiled_law():
    setting = (0.4, 0.1, 1.0, Variant.CNOT_SEQUENCE, False)
    table = estimation._fringe_table("cnot", setting)
    seen = np.flatnonzero(table.coefficients.any(axis=0))
    observed = [(table, seen, np.arange(1.0, seen.size + 1.0))]
    grid = estimation._phi_grid()
    scores = estimation._log_likelihood(grid, 0.8, observed)
    assert scores.shape == grid.shape
    probs, total = table.joint(grid, 0.8)
    conditional = probs / total[:, None]
    np.testing.assert_allclose(conditional.sum(axis=1), 1.0, atol=1e-12)
    for i in (0, 311, 1000):
        # the grid is the per-phase function evaluated along an array
        single = estimation._log_likelihood(grid[i], 0.8, observed)
        assert scores[i] == pytest.approx(single, rel=1e-12, abs=0.0)
        row = _circuit_conditional(
            "cnot", StellarSource(phi=grid[i], g=0.8, epsilon=0.1), 0.4, 1.0,
            Variant.CNOT_SEQUENCE, False,
        )
        np.testing.assert_allclose(
            conditional[i], [row.get(k, 0.0) for k in table.labels], rtol=0.0, atol=1e-12
        )


def test_log_likelihood_of_an_impossible_phase_is_minus_infinity():
    # p_a = (1 + cos phi) / 2 vanishes at phi = pi, where a was observed
    table = estimation.FringeTable(
        ("a", "b"), np.array([[0.5, 0.5], [0.5, -0.5], [0.0, 0.0]]), np.array([1.0, 0.0, 0.0])
    )
    observed = [(table, np.array([0]), np.array([3.0]))]
    scores = estimation._log_likelihood(np.array([0.0, math.pi]), 1.0, observed)
    assert scores[0] == pytest.approx(0.0, abs=1e-15)
    assert scores[1] == -math.inf


@pytest.mark.parametrize("protocol", sorted(estimation.PROTOCOLS))
def test_outcome_indices_carry_the_herald_rule(tmp_path, protocol):
    # a window is an index into outcomes(n_max), or -1 without a photon; the
    # registry's herald rule gives the MLE's counts and the simulate trace
    config = {
        "schema_version": 1, "protocol": protocol, "phi": 0.7, "g": 1.0, "epsilon": 0.1,
        "delta_schedule": [0.0, HALF_PI], "n_windows": 3000, "seed": 17,
    }
    plan = _plan(protocol=protocol, n_windows=3000, seed=17)
    outcomes = run_experiment(plan)
    assert outcomes.shape == (3000,) and outcomes.dtype.kind == "i"
    entry = estimation.PROTOCOLS[protocol]
    labels = entry.outcomes()
    assert outcomes.min() >= (-1 if entry.conditioned else 0) and outcomes.max() < len(labels)
    heralds = [entry.herald(labels[o]) if o >= 0 else Herald.VACUUM for o in outcomes]
    report = mle_phase(outcomes, plan)
    assert report.n_heralded == heralds.count(Herald.PHOTON_ARRIVED)
    assert report.n_vacuum == heralds.count(Herald.VACUUM)

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [line["window"] for line in lines] == list(range(3000))
    assert [line["herald"] for line in lines] == [h.value for h in heralds]
    assert [line["record"] for line in lines] == [
        list(labels[o]) if o >= 0 else None for o in outcomes
    ]


def test_mle_rejects_out_of_range_outcome_indices():
    plan = _plan(n_windows=10)
    n_labels = len(estimation.PROTOCOLS["cnot"].outcomes())
    for bad in (-2, n_labels):
        with pytest.raises(EstimationError):
            mle_phase(np.array([0] * 9 + [bad]), plan)


def test_mle_refuses_outcomes_of_the_wrong_length_or_type():
    # three outcomes against ten windows reported the CRB of ten windows
    plan = _plan(n_windows=10)
    outcomes = run_experiment(plan)
    for bad in (outcomes[:3], np.concatenate([outcomes, outcomes]), outcomes.reshape(2, 5),
                outcomes.astype(float), outcomes.astype(bool), list(map(str, outcomes))):
        with pytest.raises(EstimationError, match="10 outcome indices"):
            mle_phase(bad, plan)
    assert mle_phase(outcomes.astype(np.int32), plan) == mle_phase(list(outcomes), plan)


def test_fringe_table_guards():
    labels = ("a", "b")
    # p_b = -1e-15 g cos(phi) dips to round-off level below zero at phi = 0
    roundoff = estimation.FringeTable(
        labels, np.array([[1.0, 0.0], [0.0, -1e-15], [0.0, 0.0]]), np.array([1.0, -1e-15, 0.0])
    )
    probs, _ = roundoff.joint(0.0, 1.0)
    assert probs[1] == 0.0
    broken = estimation.FringeTable(
        labels, np.array([[1.0, 0.0], [0.0, -1e-9], [0.0, 0.0]]), np.array([1.0, -1e-9, 0.0])
    )
    with pytest.raises(NumericalInvariantError):
        broken.joint(0.0, 1.0)
    empty = estimation.FringeTable(labels, np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(NumericalInvariantError):
        empty.joint(np.linspace(0.0, 1.0, 5), 0.5)
