"""Monte-Carlo runner and maximum-likelihood estimator tests."""

import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walks
from qtelescopy import analytic, cli, estimation, protocols
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
    DetectionRecord,
    Herald,
    ProtocolConfig,
    Variant,
    classify_herald,
    cnot_branches,
    cnot_distribution,
    direct_distribution,
    gottesman_distribution,
    run_memory_modified,
    run_memory_unmodified,
    sample_cnot_windows,
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
    conditioned = entry.law(plan.delta_schedule[0], plan.eta, plan.variant, plan.swap_bases).conditioned
    rng = np.random.default_rng(plan.seed)
    outcomes = []
    for w in range(plan.n_windows):
        if conditioned and not sample_arrival(plan.source.epsilon, rng):
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


def test_direct_block_draw_matches_the_per_window_oracle_on_random_plans():
    # the block arrival draw keeps the stream of one sample_arrival call per window
    cases = np.random.default_rng(20261021)
    edges = (0.0, 1.0, 1e-12, 1.0 - 1e-12)
    for i in range(200):
        epsilon = edges[i // 2] if i < 2 * len(edges) else float(cases.uniform())
        phi, g = float(cases.uniform(-math.pi, math.pi)), float(cases.uniform())
        schedule = tuple(cases.uniform(-math.pi, math.pi, size=int(cases.integers(1, 4))).tolist())
        plan = ExperimentPlan(
            "direct", StellarSource(phi, g, epsilon), schedule, int(cases.integers(1, 300)),
            seed=int(cases.integers(2**32)), swap_bases=bool(i % 2),
        )
        np.testing.assert_array_equal(run_experiment(plan), _per_window_outcomes(plan))


# the walked oracles in the registry's call form, for the table sampler
_WALKED_RUNS = {
    "direct": lambda source, delta, eta, variant, swap: walks.walked_direct(source, delta, swap),
    "gottesman": lambda source, delta, eta, variant, swap: walks.walked_gottesman(source, delta),
}


def test_compiled_tables_draw_the_stream_of_the_walked_tables(monkeypatch):
    # the table sampler draws in its table's key order: the compiled law must list
    # the labels as the walked mixture does, at delta = 0 and at the fringe ends too
    rng = np.random.default_rng(20251019)
    plans = []
    for i, (phi, g, epsilon, d1, d2) in enumerate(rng.uniform(size=(240, 5)).tolist()):
        protocol, swap = (("direct", False), ("direct", True), ("gottesman", False))[i % 3]
        d1, d2 = 2.0 * math.pi * d1 - math.pi, 2.0 * math.pi * d2 - math.pi
        schedule = ((0.0, HALF_PI), (0.0, d1), (d1, d2))[i // 3 % 3]
        source = StellarSource(2.0 * math.pi * phi - math.pi, (0.0, 1.0, g)[i // 9 % 3], 0.05 + 0.95 * epsilon)
        plans.append(ExperimentPlan(protocol, source, schedule, 500, seed=i, swap_bases=swap))
    compiled = [estimation._sample_table(plan, np.random.default_rng(plan.seed)) for plan in plans]
    for name, run in _WALKED_RUNS.items():
        monkeypatch.setitem(estimation.PROTOCOLS, name, dataclasses.replace(estimation.PROTOCOLS[name], run=run))
    for plan, drawn in zip(plans, compiled):
        np.testing.assert_array_equal(estimation._sample_table(plan, np.random.default_rng(plan.seed)), drawn)


def _cnot_record_list(source, config, n_windows, rng):
    """Reference of ``sample_cnot_windows``: the same two ``rng.choice`` calls
    over ``cnot_branches``, then one (branch, present, record) slot per window."""
    branches = cnot_branches(source, config)
    weights = np.array([w for _, _, w, _ in branches])
    picks = rng.choice(len(branches), size=n_windows, p=weights / weights.sum())
    windows = [None] * n_windows
    for b, (name, present, _, table) in enumerate(branches):
        n_b = int((picks == b).sum())
        if n_b:
            labels = list(table)
            probs = np.array([table[label] for label in labels])
            drawn = rng.choice(len(labels), size=n_b, p=probs / probs.sum())
            for w, k in zip(np.flatnonzero(picks == b), drawn):
                windows[w] = (name, present, DetectionRecord(classify_herald(labels[k]), counts=labels[k]))
    return windows


def _per_window_cnot(plan):
    """Per-window oracle of the cnot sampler: each setting's record list,
    every window's counts looked up among the declared labels."""
    index = {label: o for o, label in enumerate(estimation.PROTOCOLS["cnot"].outcomes())}
    rng = np.random.default_rng(plan.seed)
    n_settings = len(plan.delta_schedule)
    outcomes = np.empty(plan.n_windows, dtype=np.int64)
    for s, delta in enumerate(plan.delta_schedule[: plan.n_windows]):
        config = ProtocolConfig(delta, plan.eta, plan.variant)
        windows = _cnot_record_list(plan.source, config, len(outcomes[s::n_settings]), rng)
        outcomes[s::n_settings] = [index[record.counts] for _, _, record in windows]
    return outcomes


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
def test_cnot_sampler_matches_per_window_record_list(variant, eta):
    # 34 seeded plans per wiring and eta, 204 in all: epsilon and g at both
    # ends and inside, one to three settings, and window counts that end mid-cycle
    rng = np.random.default_rng([list(Variant).index(variant), int(10 * eta)])
    for plan_seed in range(34):
        epsilon = (0.0, 1.0, rng.uniform())[plan_seed % 3]
        g = (0.0, 1.0, rng.uniform())[plan_seed // 3 % 3]
        schedule = tuple(rng.uniform(-math.pi, math.pi, size=3 - plan_seed // 9 % 3))
        # the first plans, of three settings, stop before the last one draws a window
        n_windows = int(rng.integers(1, 3 if plan_seed < 4 else 400))
        n_windows += len(schedule) > 1 and n_windows % len(schedule) == 0
        plan = ExperimentPlan("cnot", StellarSource(rng.uniform(-math.pi, math.pi), g, epsilon), schedule,
                              n_windows, seed=plan_seed, eta=eta, variant=variant)
        np.testing.assert_array_equal(run_experiment(plan), _per_window_cnot(plan))


@pytest.mark.parametrize("variant", list(Variant))
def test_cnot_window_sequence_reads_as_the_record_list(variant):
    source, config = StellarSource(0.9, 0.7, 0.4), ProtocolConfig(0.3, 0.6, variant)
    windows = sample_cnot_windows(source, config, 3001, np.random.default_rng(5))
    reference = _cnot_record_list(source, config, 3001, np.random.default_rng(5))
    assert len(windows) == len(reference) == 3001
    assert list(windows) == reference
    for w in (0, 7, -1, -3001):
        assert windows[w] == reference[w]
    for cut in (slice(2, 9), slice(None, None, -2), slice(-5, None), slice(4, 4)):
        assert windows[cut] == reference[cut]
    with pytest.raises(IndexError):
        windows[3001]
    # one record per (branch, outcome), shared by the windows that drew it
    assert len({id(item) for item in windows}) == len(set(zip(windows.branch.tolist(), windows.outcome.tolist())))
    for array in (windows.branch, windows.outcome):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# (1, 1) and (1, -1) entries; the total of the third overflows, so its normalized table sums to 0, and
# the last normalizes to a distribution, which Generator.choice(p=table / table.sum()) would draw from
_NOT_DISTRIBUTIONS = [(-0.1, 1.1), (math.nan, 1.0), (1e308, 1e308), (), (-0.25, -0.75)]
_NOT_DISTRIBUTION_IDS = ["negative", "nan", "overflow", "empty", "all-negative"]


@pytest.mark.parametrize(
    "table",
    [dict(zip([(1, 1), (1, -1)], entries)) for entries in _NOT_DISTRIBUTIONS],
    ids=_NOT_DISTRIBUTION_IDS,
)
def test_table_sampler_refuses_a_table_that_is_not_a_distribution(monkeypatch, table):
    entry = dataclasses.replace(estimation.PROTOCOLS["direct"], run=lambda *args: dict(table))
    monkeypatch.setitem(estimation.PROTOCOLS, "direct", entry)
    with pytest.raises(NumericalInvariantError):
        run_experiment(_plan(protocol="direct", n_windows=100))
    # a table that is never drawn from is never checked
    no_photon = run_experiment(_plan(protocol="direct", epsilon=0.0, n_windows=100))
    np.testing.assert_array_equal(no_photon, np.full(100, -1))


@pytest.mark.parametrize("entries", _NOT_DISTRIBUTIONS, ids=_NOT_DISTRIBUTION_IDS)
@pytest.mark.parametrize("where", ["branch weights", "branch table"])
def test_cnot_sampler_refuses_a_table_that_is_not_a_distribution(monkeypatch, entries, where):
    # numpy's own Generator.choice raised a ValueError here; simulate maps this error to exit 3
    labels = [(1, 0, 1, 0, 0, 1), (0, 0, 1, 1, 0, 0)]
    good = dict(zip(labels, (0.25, 0.75)))
    if where == "branch weights":
        branches = [("plus", True, w, good) for w in entries]
    else:
        branches = [("plus", True, 0.5, good), ("minus", True, 0.5, dict(zip(labels, entries)))]
    monkeypatch.setattr(protocols, "cnot_branches", lambda source, config: branches)
    with pytest.raises(NumericalInvariantError, match="not a probability distribution"):
        sample_cnot_windows(StellarSource(0.7, 1.0, 0.1), ProtocolConfig(0.0), 100, np.random.default_rng(3))


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


@pytest.mark.parametrize("protocol", sorted(estimation.PROTOCOLS))
def test_crb_report_at_zero_arrival_probability_reports_no_information(protocol):
    # direct's conditioned table is empty at epsilon = 0: it raised an invariant error
    report = crb_report(protocol, StellarSource(0.7, 0.8, 0.0), DEFAULT_SCHEDULE)
    assert list(report.per_setting.values()) == [0.0, 0.0]
    assert report.fisher_per_window == 0.0 and report.crb_for(1000) == math.inf
    for delta in (math.nan, math.inf):  # a readout phase that is not finite is still refused
        with pytest.raises(ValueError) as caught:
            crb_report(protocol, StellarSource(0.7, 0.8, 0.0), (0.0, delta))
        assert not isinstance(caught.value, NumericalInvariantError)
    for at in ((math.nan, 0.8), (0.7, 2.0)):  # and so is a phase or visibility out of range
        with pytest.raises(ValueError):
            estimation.window_fisher(protocol, (0.3, 0.0, 1.0, Variant.CNOT_SEQUENCE, False), at)


def _exact_window_fisher(protocol, setting, phi, g):
    """Fisher matrix of one setting with exact derivatives of the affine law
    p = A + g cos(phi) B + g sin(phi) C, fitted to three circuit runs, over the
    outcomes at or above PROB_FLOOR; and whether the floor refuses the point:
    True, False, or None where finite differences of the circuit may decide
    either way within their round-off."""
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
    # a dropped outcome may carry no derivative on the floor's scale, nor on the largest
    # kept one's; a finite difference of outcome o is off by up to slack[o]
    slack = 1e3 * np.finfo(float).eps * p / FD_STEP
    surely, maybe = False, False
    for dp in grads:
        low, high = np.abs(dp) - slack, np.abs(dp) + slack
        floors = [DERIVATIVE_FLOOR * min(1.0, ends[keep].max(initial=0.0)) for ends in (low.clip(0.0), high)]
        surely |= bool(np.any(~keep & (low >= floors[1]) & (low > 0.0)))
        maybe |= bool(np.any(~keep & (high >= floors[0]) & (high > 0.0)))
    mat = np.array([[np.sum(di[keep] * dj[keep] / p[keep]) for dj in grads] for di in grads])
    conditioned = entry.law(delta, eta, variant, swap).conditioned
    return (epsilon * mat if conditioned else mat), (True if surely else None if maybe else False)


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
    exact, refused = _exact_window_fisher(protocol, setting, phi, g)
    if refused:
        with pytest.raises(FisherDivergenceError):
            estimation.window_fisher(protocol, setting, (phi, g), ("phi", "g"))
        return
    try:
        numeric = estimation.window_fisher(protocol, setting, (phi, g), ("phi", "g")).matrix
    except FisherDivergenceError:
        assert refused is None, "refused where every dropped derivative is clear of the floor"
        return
    np.testing.assert_allclose(numeric, exact, rtol=0.0, atol=1e-8 * max(1.0, np.abs(exact).max()))


def test_crb_for_zero_fisher_is_infinite():
    rep = estimation.CrbReport(per_setting=(0.0,), fisher_per_window=0.0)
    assert rep.crb_for(1000) == math.inf


def test_default_schedule_has_quadrature_pair():
    assert len(DEFAULT_SCHEDULE) == 2
    assert abs(abs(DEFAULT_SCHEDULE[0] - DEFAULT_SCHEDULE[1]) - HALF_PI) < 1e-12


def _circuit_conditional(protocol, source, delta, eta, variant, swap):
    """Heralded-class outcome table at one (phi, g), walked through the circuit branch by branch."""
    if protocol == "cnot":
        full = walks.walked_cnot(source, ProtocolConfig(delta, eta, variant))
        kept = {k: v for k, v in full.items() if classify_herald(k) is Herald.PHOTON_ARRIVED}
    elif protocol == "direct":
        kept = walks.walked_direct(source, delta, swap)
    else:
        full = walks.walked_gottesman(source, delta)
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
    compiled = dict(zip(estimation.PROTOCOLS[protocol].outcomes(), probs / total))
    assert {k for k, v in expected.items() if v > 0.0} <= set(compiled)
    worst = max(abs(compiled.get(k, 0.0) - expected.get(k, 0.0)) for k in set(compiled) | set(expected))
    assert worst < 1e-12


def test_log_likelihood_on_the_grid_is_the_compiled_law():
    setting = (0.4, 0.1, 1.0, Variant.CNOT_SEQUENCE, False)
    table = estimation._fringe_table("cnot", setting)
    seen = np.flatnonzero(table.coefficients.any(axis=0))
    observed = estimation._stack([(table, seen, np.arange(1.0, seen.size + 1.0))])
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
            conditional[i], [row.get(k, 0.0) for k in estimation.PROTOCOLS["cnot"].outcomes()], rtol=0.0, atol=1e-12
        )


def test_stacked_law_scores_each_setting_against_its_own_heralded_total():
    # every protocol's heralded total is flat in phi and alike across settings; these are neither
    rng = np.random.default_rng(28)
    settings = []
    for n in (3, 2, 4):
        coefficients = np.vstack([rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, (2, n))])
        table = estimation.FringeTable(coefficients, coefficients.sum(axis=1))
        seen = np.arange(1, n)
        settings.append((table, seen, rng.integers(1, 50, seen.size).astype(float)))
    observed = estimation._stack(settings)

    def per_setting(phi):
        terms = [(table.joint(phi, 0.7), seen, k) for table, seen, k in settings]
        return sum(np.log(probs[..., seen] / total[..., None]) @ k for (probs, total), seen, k in terms)

    grid = estimation._phi_grid()
    np.testing.assert_allclose(estimation._log_likelihood(grid, 0.7, observed), per_setting(grid), rtol=1e-12)
    h = 1e-4
    for phi in (-2.0, 0.3, 1.9):
        value, score, curvature = estimation._score(phi, 0.7, observed)
        below, at, above = (per_setting(phi + d) for d in (-h, 0.0, h))
        assert value == pytest.approx(at, rel=1e-12)
        assert score == pytest.approx((above - below) / (2 * h), rel=1e-6)
        assert curvature == pytest.approx((above - 2 * at + below) / h**2, rel=1e-5)


def test_log_likelihood_of_an_impossible_phase_is_minus_infinity():
    # p_a = (1 + cos phi) / 2 vanishes at phi = pi, where a was observed
    table = estimation.FringeTable(np.array([[0.5, 0.5], [0.5, -0.5], [0.0, 0.0]]), np.array([1.0, 0.0, 0.0]))
    observed = estimation._stack([(table, np.array([0]), np.array([3.0]))])
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
    conditioned = entry.law(0.0, plan.eta, plan.variant, plan.swap_bases).conditioned
    assert conditioned == (protocol == "direct")
    assert outcomes.min() >= (-1 if conditioned else 0) and outcomes.max() < len(labels)
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
    # uint64 indices pass the dtype check; their tally once mixed int64 and uint64 into float64 cells
    assert mle_phase(outcomes.astype(np.int32), plan) == mle_phase(list(outcomes), plan)
    assert mle_phase(outcomes.astype(np.uint64), plan) == mle_phase(outcomes, plan)


def test_fringe_table_guards():
    # p_b = -1e-15 g cos(phi) dips to round-off level below zero at phi = 0
    roundoff = estimation.FringeTable(
        np.array([[1.0, 0.0], [0.0, -1e-15], [0.0, 0.0]]), np.array([1.0, -1e-15, 0.0])
    )
    probs, _ = roundoff.joint(0.0, 1.0)
    assert probs[1] == 0.0
    broken = estimation.FringeTable(
        np.array([[1.0, 0.0], [0.0, -1e-9], [0.0, 0.0]]), np.array([1.0, -1e-9, 0.0])
    )
    with pytest.raises(NumericalInvariantError):
        broken.joint(0.0, 1.0)
    empty = estimation.FringeTable(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(NumericalInvariantError):
        empty.joint(np.linspace(0.0, 1.0, 5), 0.5)


# ---------------------------------------------------------------------------
# the Newton refine of the grid peak


def _observed(plan, outcomes):
    """The (table, seen columns, counts) of every setting, as mle_phase scores them."""
    heralded, _ = estimation._herald_masks(plan.protocol)
    n_settings, n_classes = len(plan.delta_schedule), len(heralded)
    cells = np.arange(outcomes.size) % n_settings * n_classes + outcomes % n_classes
    counts = np.bincount(cells, minlength=n_settings * n_classes).reshape(n_settings, n_classes)
    observed = []
    for s, delta in enumerate(plan.delta_schedule):
        k = np.where(heralded, counts[s], 0)[:-1]
        seen = np.flatnonzero(k)
        setting = (delta, plan.source.epsilon, plan.eta, plan.variant, plan.swap_bases)
        observed.append((estimation._fringe_table(plan.protocol, setting), seen, k[seen].astype(float)))
    return observed


def _mp_score_root(observed, g, near, width=1e-6):
    """The zero of the score within ``width`` of ``near``, by bisection at 40
    digits on the compiled coefficients (None if the score does not change
    sign there)."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    terms = []
    for table, seen, k in observed:
        columns = [table.coefficients[:, o] for o in seen] + [table.herald]
        weights = list(k) + [-float(k.sum())]
        terms.append([([mp.mpf(float(v)) for v in col], mp.mpf(w)) for col, w in zip(columns, weights)])
    g = mp.mpf(g)

    def score(phi):
        c, s = mp.cos(phi), mp.sin(phi)
        return sum(w * g * (C * c - B * s) / (A + g * (B * c + C * s)) for t in terms for (A, B, C), w in t)

    lo, hi = mp.mpf(near) - width, mp.mpf(near) + width
    if not score(lo) > 0 > score(hi):
        return None
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if score(mid) > 0 else (lo, mid)
    return float((lo + hi) / 2)


@pytest.mark.parametrize(
    "protocol, extra",
    [
        ("cnot", {}),
        ("cnot", {"variant": Variant.PARITY_FEED_FORWARD}),
        ("cnot", {"eta": 0.7}),
        ("cnot", {"eta": 0.8, "variant": Variant.PARITY_FEED_FORWARD}),
        ("direct", {}),
        ("direct", {"swap_bases": True}),
        ("gottesman", {}),
    ],
)
def test_newton_refine_lands_on_the_exact_score_root(protocol, extra):
    # a search on log-likelihood values alone stops about 1e-7 rad from the root
    rng = np.random.default_rng(len(protocol) + 7 * len(extra))
    for seed in range(3):
        source = StellarSource(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.3, 1.0)), 0.2)
        delta = float(rng.uniform(0.0, math.pi))
        plan = ExperimentPlan(protocol, source, (delta, delta + HALF_PI), 2000, seed=seed, **extra)
        outcomes = run_experiment(plan)
        phi_hat = mle_phase(outcomes, plan).phi_hat
        root = _mp_score_root(_observed(plan, outcomes), source.g, phi_hat)
        assert root is not None and abs(wrap_phase(phi_hat - root)) < 1e-12


def _fringe(shift, weight, sign=1.0):
    """The outcome law w (1 + sign cos(phi - shift)) / 2 as a one-label table
    with a constant heralded total."""
    coefficients = weight * np.array([[0.5], [0.5 * sign * math.cos(shift)], [0.5 * sign * math.sin(shift)]])
    return estimation.FringeTable(coefficients, np.array([1.0, 0.0, 0.0]))


def _refine(settings, g=1.0):
    """mle_phase's grid scan and refine on the (table, seen columns, counts) ``settings``; also the grid peak."""
    observed = estimation._stack(settings)
    grid = estimation._phi_grid()
    center = grid[int(np.argmax(estimation._log_likelihood(grid, g, observed)))]
    terms = lambda phi: estimation._score(phi, g, observed)  # noqa: E731
    return estimation._newton_max(terms, center, grid[1] - grid[0]), center


def test_newton_refine_finds_a_maximum_at_the_cell_edge():
    grid = estimation._phi_grid()
    step = grid[1] - grid[0]
    peak = 0.3
    observed = estimation._stack([(_fringe(peak, 1.0), np.array([0]), np.array([50.0]))])
    terms = lambda phi: estimation._score(phi, 1.0, observed)  # noqa: E731
    # the search interval ends at the maximum, on either side
    assert abs(estimation._newton_max(terms, peak - step, step) - peak) < 1e-12
    assert abs(estimation._newton_max(terms, peak + step, step) - peak) < 1e-12
    # halfway between two grid points, both score alike
    halfway = (grid[600] + grid[601]) / 2.0
    settings = [(_fringe(halfway, 1.0), np.array([0]), np.array([50.0]))]
    phi_hat, center = _refine(settings)
    assert center in (grid[600], grid[601])
    assert abs(phi_hat - halfway) < 1e-12


@pytest.mark.parametrize("offset", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_newton_refine_steps_around_an_observed_outcome_that_vanishes_in_the_cell(offset):
    # p_a = (1 + cos(phi - s)) / 2 seen 1e6 times and p_b = (1 - cos(phi - s)) / 2
    # seen once: the maxima sit 2e-3 rad either side of s, where p_b vanishes,
    # and s lies inside the grid cell of the peak
    grid = estimation._phi_grid()
    step = grid[1] - grid[0]
    s = grid[700] + offset * step
    table = estimation.FringeTable(
        np.array([[0.5, 0.5], [0.5 * math.cos(s), -0.5 * math.cos(s)], [0.5 * math.sin(s), -0.5 * math.sin(s)]]),
        np.array([1.0, 0.0, 0.0]),
    )
    settings = [(table, np.array([0, 1]), np.array([1e6, 1.0]))]
    observed = estimation._stack(settings)
    assert table.joint(s, 1.0)[0][1] < 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi_hat, center = _refine(settings)
    assert math.isfinite(phi_hat) and abs(phi_hat - center) <= step
    assert abs(center - s) < step
    root = _mp_score_root(settings, 1.0, phi_hat)
    assert root is not None and abs(phi_hat - root) < 1e-12
    # a maximum, no worse than the grid peak
    assert estimation._score(phi_hat, 1.0, observed)[0] >= estimation._score(center, 1.0, observed)[0]
    assert abs(abs(phi_hat - s) - 2.0 * math.atan(1e-3)) < 1e-9


@pytest.mark.parametrize(
    "beyond",
    [
        (-10.0, -1.0, -1.0),
        (-10.0, -1.0, 0.0),
        (-math.inf, math.nan, math.nan),
        (np.float64(-np.inf), np.float64(np.inf), np.float64(-np.inf)),
    ],
)
def test_newton_refine_keeps_the_peak_side_of_a_worse_or_impossible_point(beyond):
    # -(phi - 0.1)^2 for phi >= 0, reported as not concave so every step
    # bisects; below 0 a point scores under the peak with its score pointing
    # away from it, or is impossible.  Following that sign would end at -1.5.
    def terms(phi):
        return (-((phi - 0.1) ** 2), -2.0 * (phi - 0.1), 1.0) if phi >= 0.0 else beyond

    assert abs(estimation._newton_max(terms, 0.5, 2.0) - 0.1) < 1e-12


def test_score_at_an_impossible_phase_is_not_finite_and_warns_nothing():
    # p_a = (1 + cos phi) / 2 is exactly zero at phi = pi
    observed = estimation._stack([(_fringe(0.0, 1.0), np.array([0]), np.array([3.0]))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, score, curvature = estimation._score(math.pi, 1.0, observed)
    assert value == -math.inf and not (math.isfinite(score) and math.isfinite(curvature))


@pytest.mark.parametrize("protocol", sorted(estimation.PROTOCOLS))
def test_mle_refuses_g_zero(protocol):
    # at g = 0 the likelihood is flat in phi, with no maximum to report
    plan = _plan(protocol=protocol, g=0.0, n_windows=2000, seed=1)
    outcomes = run_experiment(plan)
    with pytest.raises(EstimationError, match="g = 0"):
        mle_phase(outcomes, plan)


@pytest.mark.parametrize("variant", list(Variant))
def test_mle_refuses_a_flat_law_with_every_ancilla_lost(variant):
    # at eta = 0 the lost-ancilla windows still herald, but no heralded outcome depends on phi
    plan = dataclasses.replace(_plan(g=0.8, n_windows=4000, seed=3), eta=0.0, variant=variant)
    outcomes = run_experiment(plan)
    assert (outcomes >= 0).sum() > 0
    with pytest.raises(EstimationError, match="flat in phi"):
        mle_phase(outcomes, plan)


_PHASES = st.one_of(
    st.sampled_from([0.0, HALF_PI, -HALF_PI, math.pi / 4.0, -math.pi / 4.0, -math.pi, math.pi]),
    st.floats(-math.pi, math.pi),
)
_UNIT = st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    protocol=st.sampled_from(sorted(estimation.PROTOCOLS)),
    variant=st.sampled_from(list(Variant)),
    swap=st.booleans(),
    phi=_PHASES,
    g=_UNIT,
    epsilon=_UNIT,
    eta=_UNIT,
    schedule=st.one_of(st.just(DEFAULT_SCHEDULE), st.lists(_PHASES, min_size=1, max_size=3).map(tuple)),
    n_windows=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_estimate_is_finite_with_a_finite_bound_or_refused(
    protocol, variant, swap, phi, g, epsilon, eta, schedule, n_windows, seed
):
    # over the whole parameter box, g = 1 face included: a flat or unidentifiable
    # likelihood is refused by a typed error, never reported as phi_hat with crb = inf
    eta = eta if estimation.PROTOCOLS[protocol].models_loss else 1.0
    plan = ExperimentPlan(
        protocol, StellarSource(phi, g, epsilon), schedule, n_windows,
        seed=seed, eta=eta, variant=variant, swap_bases=swap,
    )
    try:
        report = mle_phase(run_experiment(plan), plan)
    except (EstimationError, NumericalInvariantError):
        return
    assert math.isfinite(report.phi_hat) and -math.pi <= report.phi_hat < math.pi
    assert 0.0 < report.crb < math.inf


def test_constant_tables_are_built_once_and_read_only():
    for protocol in estimation.PROTOCOLS:
        heralded, vacuum = estimation._herald_masks(protocol)
        assert estimation._herald_masks(protocol) == (heralded, vacuum)
        assert estimation._herald_masks(protocol)[0] is heralded
        heralds = estimation.outcome_heralds(protocol)
        assert heralded.tolist() == [h is Herald.PHOTON_ARRIVED for h in heralds]
        assert vacuum.tolist() == [h is Herald.VACUUM for h in heralds]
        for mask in (heralded, vacuum):
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = not mask[0]
        # a setting's law holds the declared labels and their positions, mapped once per law
        law = estimation.PROTOCOLS[protocol].law(0.3, 1.0, Variant.CNOT_SEQUENCE, False)
        assert estimation.PROTOCOLS[protocol].law(0.3, 1.0, Variant.CNOT_SEQUENCE, False) is law
        # a config's variant name reads the law of the wiring it names, as ``run`` does
        assert estimation.PROTOCOLS[protocol].law(0.3, 1.0, "cnot_sequence", False) is law
        with pytest.raises(dataclasses.FrozenInstanceError):
            law.outcomes = ()
        assert law.outcomes == estimation.PROTOCOLS[protocol].outcomes()
        index = law._index
        with pytest.raises(TypeError):
            index[None] = 0
        assert law.positions(law.outcomes).tolist() == list(range(len(law.outcomes)))
        assert law._index is index and list(index) == list(law.outcomes)
