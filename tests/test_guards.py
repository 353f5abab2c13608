"""The guard layer: one named tolerance per bound, one support guard and one
table guard, each holding at its tolerance and refusing just past it at every
call site; and the guard sites nothing else reaches."""

import ast
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qtelescopy import analytic, cli, errors, estimation, fisher, gates, protocols
from qtelescopy import state_engine as se
from qtelescopy.errors import (
    NORM_ATOL,
    SUM_ATOL,
    TABLE_ATOL,
    EstimationError,
    FisherDivergenceError,
    InvalidSubspaceError,
    NumericalInvariantError,
)
from qtelescopy.estimation import DEFAULT_SCHEDULE, ExperimentPlan, crb_report, mle_phase, run_experiment
from qtelescopy.protocols import BellRegister, ProtocolConfig, Variant
from qtelescopy.sources import StellarSource

PACKAGE = Path(errors.__file__).parent


def _tiny_float_literals(path: Path, outside_block: bool) -> list[tuple[int, float]]:
    """Float literals in (0, 1e-3) in one module; with ``outside_block``, those
    not on the right of a module-level assignment (the tolerance block)."""
    tree = ast.parse(path.read_text())
    allowed = set()
    if outside_block:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                allowed |= {id(n) for n in ast.walk(node.value)}
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value < 1e-3
        and id(node) not in allowed
    ]


def test_every_tolerance_literal_sits_in_the_block_of_errors():
    # analytic.py is the test oracle, not the library
    found = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "analytic.py"
        if (hits := _tiny_float_literals(path, outside_block=path.name == "errors.py"))
    }
    assert found == {}
    assert _tiny_float_literals(PACKAGE / "errors.py", outside_block=False)


def test_tolerances_keep_their_values_and_names_stay_importable():
    assert (errors.NORM_ATOL, errors.SUM_ATOL, errors.TABLE_ATOL, errors.LIFT_ATOL) == (1e-10, 1e-10, 1e-12, 1e-12)
    assert errors.CHOICE_ATOL == math.sqrt(np.finfo(float).eps)
    assert (errors.PROB_FLOOR, errors.DERIVATIVE_FLOOR, errors.FD_STEP) == (1e-12, 1e-8, 1e-5)
    assert errors.G_BOUNDARY == 1.0 - 1e-6
    assert (errors.KERNEL_TOL, errors.SLD_ATOL, errors.PHASE_ATOL, errors.PAIR_ATOL) == (1e-12, 1e-10, 1e-9, 1e-9)
    assert se.NORM_ATOL is errors.NORM_ATOL
    for name in ("G_BOUNDARY", "PROB_FLOOR", "DERIVATIVE_FLOOR", "KERNEL_TOL", "FD_STEP"):
        assert getattr(fisher, name) == getattr(errors, name)


# ---------------------------------------------------------------------------
# support guard: apply_unitary and every readout, on both registers


def _amplitudes_around(tol):
    """Amplitudes whose squares lie just within and just past ``tol``."""
    return math.sqrt(tol * (1.0 - 1e-6)), math.sqrt(tol * (1.0 + 1e-6))


def _dense_with(amplitude, mode_count):
    """A cutoff-2 dense register holding ``amplitude`` on label (0, .., 0, 2) only."""
    amps = np.zeros(3**mode_count, dtype=complex)
    amps[2] = amplitude
    return se.StateVector(amps, mode_count, 2)


def _half_not():
    return se.ModeUnitary((0,), [[0, 1], [1, 0]], 1, [True, False], "half_not")


def _half_x():
    return gates.MeasurementBasis((0,), gates.x_basis(0, 1).projectors, (+1, -1), 1, np.array([True, False]), "half_x")


@pytest.mark.parametrize("register", ["dense", "qubits"])
def test_support_guard_of_apply_unitary_holds_at_its_tolerance(register):
    within, past = _amplitudes_around(NORM_ATOL)
    if register == "dense":
        # the whole state sits on an undefined label: the norm it loses is the mass there
        gate = gates.cnot_fock(0, 1, 2)
        states = [_dense_with(a, 2) for a in (within, past)]
    else:
        gate = _half_not()
        states = [se.QubitRegister([0, 1], [1.0, a], 1) for a in (within, past)]
    se.apply_unitary(states[0], gate)
    with pytest.raises(InvalidSubspaceError, match=r"input carries probability 1\.000e-10 there"):
        se.apply_unitary(states[1], gate)


@pytest.mark.parametrize("register", ["dense", "qubits"])
@pytest.mark.parametrize("readout", ["measurement_distribution", "project", "measure_in_basis"])
def test_support_guard_of_every_readout_holds_at_its_tolerance(register, readout):
    within, past = _amplitudes_around(NORM_ATOL)
    if register == "dense":
        basis = gates.x_basis(0, 2)
        states = [se.StateVector(np.array([1.0, 0.0, a], dtype=complex), 1, 2) for a in (within, past)]
    else:
        basis = _half_x()
        states = [se.QubitRegister([0, 1], [1.0, a], 1) for a in (within, past)]
    read = {
        "measurement_distribution": lambda state: gates.measurement_distribution(state, basis),
        "project": lambda state: gates.project(state, basis, +1),
        "measure_in_basis": lambda state: gates.measure_in_basis(state, basis, rng=0),
    }[readout]
    read(states[0])
    with pytest.raises(InvalidSubspaceError) as caught:
        read(states[1])
    assert str(caught.value).endswith("; input carries probability 1.000e-10 there")
    undefined = 2 if register == "dense" else 1
    assert f"measurement on modes (0,) is undefined for labels [({undefined},)]" in str(caught.value)


def test_readouts_refuse_what_is_not_a_register():
    for read in (gates.measurement_distribution, gates.measure_in_basis):
        with pytest.raises(TypeError, match="StateVector or a QubitRegister"):
            read(np.eye(2), gates.x_basis(0, 1))
    with pytest.raises(TypeError, match="StateVector or a QubitRegister"):
        gates.project(np.eye(2), gates.x_basis(0, 1), +1)


# ---------------------------------------------------------------------------
# table guard: OutcomeModel.probs, _mixture, FringeTable.joint, measure_in_basis


def _below(tol):
    """The first float below ``-tol``."""
    return math.nextafter(-tol, -math.inf)


def test_table_guard_of_outcome_model_holds_at_its_tolerances():
    def model(table):
        return fisher.OutcomeModel(lambda phi, g: table, ("a", "b"), "edge")

    model({"a": -TABLE_ATOL, "b": 1.0 + TABLE_ATOL}).probs(0.0, 0.5)
    with pytest.raises(NumericalInvariantError, match="model edge has a negative probability"):
        model({"a": _below(TABLE_ATOL), "b": 1.0 + TABLE_ATOL}).probs(0.0, 0.5)
    model({"a": 0.5, "b": 0.5 + SUM_ATOL * (1.0 - 1e-4)}).probs(0.0, 0.5)
    with pytest.raises(NumericalInvariantError, match="model edge probabilities sum to"):
        model({"a": 0.5, "b": 0.5 + SUM_ATOL * (1.0 + 1e-4)}).probs(0.0, 0.5)


def test_table_guard_of_a_source_mixture_holds_at_its_tolerance():
    # the circuit mixtures sum to 1 within round-off: no circuit reaches the refusal
    for sign in (+1.0, -1.0):
        within = {"a": 0.5, "b": 0.5 + sign * SUM_ATOL * (1.0 - 1e-4)}
        assert protocols._mixture([(1.0, within)], "edge") == within
        with pytest.raises(NumericalInvariantError, match="edge outcome table probabilities sum to"):
            protocols._mixture([(1.0, {"a": 0.5, "b": 0.5 + sign * SUM_ATOL * (1.0 + 1e-4)})], "edge")


def test_table_guard_prints_plain_floats():
    # the messages printed numpy scalars as np.float64(...) reprs
    with pytest.raises(NumericalInvariantError) as caught:
        errors.check_table(np.zeros(4), "direct", sum_atol=SUM_ATOL)
    assert str(caught.value) == "direct probabilities sum to 0.0, not 1"
    with pytest.raises(NumericalInvariantError) as caught:
        errors.check_table(np.array([1.5, -0.5]), "edge", negative_atol=TABLE_ATOL)
    assert str(caught.value) == "edge has a negative probability -0.5"


def test_table_guard_of_a_compiled_law_holds_at_its_tolerance():
    def table(dip):
        # p_b = dip * g cos(phi), which is dip at phi = 0, g = 1
        return estimation.FringeTable(np.array([[1.0, 0.0], [0.0, dip], [0.0, 0.0]]), np.array([1.0, dip, 0.0]))

    probs, _ = table(-TABLE_ATOL).joint(0.0, 1.0)
    assert probs[1] == 0.0
    with pytest.raises(NumericalInvariantError, match="compiled outcome law has a negative probability"):
        table(_below(TABLE_ATOL)).joint(0.0, 1.0)


def test_table_guard_of_a_sampled_readout_holds_at_its_tolerance(monkeypatch):
    state, basis = se.fock((1,), 1), gates.x_basis(0, 1)
    monkeypatch.setattr(gates, "_weights", lambda *a: np.array([1.0, -NORM_ATOL]))
    assert gates.measure_in_basis(state, basis, rng=0)[0] == +1
    monkeypatch.setattr(gates, "_weights", lambda *a: np.array([1.0, _below(NORM_ATOL)]))
    with pytest.raises(NumericalInvariantError, match="x readout has a negative probability"):
        gates.measure_in_basis(state, basis, rng=0)


def test_table_guard_of_the_last_memory_readout_holds_at_its_tolerance(monkeypatch):
    # the last readout draws from the weights it reports, through the guard of measure_in_basis
    source = StellarSource(0.7, 0.9, 0.1)
    monkeypatch.setattr(protocols, "measurement_distribution", lambda *a: np.array([1.0, -NORM_ATOL]))
    assert protocols.run_memory_unmodified(3, 1, source, 0.3, rng_seed=1).outcome == +1
    for weight in (_below(NORM_ATOL), math.nan):
        monkeypatch.setattr(protocols, "measurement_distribution", lambda *a: np.array([1.0, weight]))
        with pytest.raises(NumericalInvariantError, match="rotated readout has a negative probability"):
            protocols.run_memory_unmodified(3, 1, source, 0.3, rng_seed=1)


def test_table_guard_refuses_nan_at_every_site(monkeypatch):
    # nan is neither above nor below a tolerance: each check is written to fail on it
    with pytest.raises(NumericalInvariantError, match="model edge has a negative probability"):
        fisher.OutcomeModel(lambda phi, g: {"a": math.nan, "b": 1.0}, ("a", "b"), "edge").probs(0.0, 0.5)
    with pytest.raises(NumericalInvariantError, match="edge outcome table probabilities sum to .*nan"):
        protocols._mixture([(1.0, {"a": math.nan})], "edge")
    law = estimation.FringeTable(np.array([[1.0, 0.0], [0.0, math.nan], [0.0, 0.0]]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NumericalInvariantError, match="compiled outcome law has a negative probability"):
        law.joint(0.0, 1.0)
    monkeypatch.setattr(gates, "_weights", lambda *a: np.array([1.0, math.nan]))
    with pytest.raises(NumericalInvariantError, match="x readout has a negative probability"):
        gates.measure_in_basis(se.fock((1,), 1), gates.x_basis(0, 1), rng=0)
    for tolerance in ({"negative_atol": TABLE_ATOL}, {"sum_atol": SUM_ATOL}):
        with pytest.raises(NumericalInvariantError):
            errors.check_table(np.array([0.5, math.nan, 0.5]), "table", **tolerance)
    errors.check_table(np.array([math.nan]), "table")  # no tolerance, no check


# ---------------------------------------------------------------------------
# guard sites no other test reaches


def test_bell_register_refuses_a_pair_of_the_wrong_shape_or_norm():
    with pytest.raises(ValueError, match="4-vector"):
        BellRegister((np.ones(3) / math.sqrt(3.0),))
    for sign in (+1.0, -1.0):
        BellRegister((np.array([1.0 + sign * NORM_ATOL * (1.0 - 1e-4), 0.0, 0.0, 0.0]),))
        with pytest.raises(ValueError, match="normalized"):
            BellRegister((np.array([1.0 + sign * NORM_ATOL * (1.0 + 1e-4), 0.0, 0.0, 0.0]),))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_bell_register_refuses_a_nan_or_inf_pair(value):
    # abs(nan - 1) > NORM_ATOL is False: the guard is written to fail on nan
    with pytest.raises(ValueError, match="normalized"):
        BellRegister((np.array([value, 0.0, 0.0, 0.0]),))
    with pytest.raises(ValueError, match="normalized"):
        protocols.encode_time_bin_modified(BellRegister((np.array([value, 0.0, 0.0, 0.0]) + protocols.BELL_PLUS,)), 1)


def _readouts(basis, outcome):
    """Each readout of ``basis``, as a function of the state it reads."""
    return [
        lambda state: gates.measurement_distribution(state, basis),
        lambda state: gates.project(state, basis, outcome),
        lambda state: gates.measure_in_basis(state, basis, rng=0),
    ]


@pytest.mark.parametrize("register", ["dense", "qubits"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_readouts_refuse_a_state_of_non_finite_norm(register, value):
    if register == "dense":
        state, basis = se.StateVector(np.array([1.0, value, 0.0], dtype=complex), 1, 2), gates.x_basis(0, 2)
    else:
        state, basis = se.QubitRegister([0, 1], [1.0, value], 1), gates.x_basis(0, 1)
    for read in _readouts(basis, +1):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalInvariantError, match="x readout of a state whose squared norm is not finite"):
                read(state)


@pytest.mark.parametrize(
    "labels, amplitudes", [([1, 1], [0.6, 0.8]), ([5], [1.0]), ([-1], [1.0])], ids=["repeated", "above", "negative"]
)
@pytest.mark.parametrize("mode", [0, 1])
def test_register_readouts_refuse_a_repeated_or_out_of_range_label(labels, amplitudes, mode):
    # the register takes such labels; the readout, the first place they yield a number, refuses them
    state = se.QubitRegister(labels, amplitudes, 2)
    for read in _readouts(gates.x_basis(mode, 1), +1):
        with pytest.raises(ValueError, match=r"register labels must be distinct and in \[0, 2\*\*2\)"):
            read(state)


def test_mle_refuses_an_observed_outcome_the_model_calls_impossible():
    plan = ExperimentPlan("cnot", StellarSource(0.7, 0.8, 0.1), DEFAULT_SCHEDULE, 4, seed=1)
    heralded, _ = estimation.PROTOCOLS["cnot"].masks
    table = estimation._fringe_table("cnot", ProtocolConfig(DEFAULT_SCHEDULE[0], 1.0, Variant.CNOT_SEQUENCE), 0.1)
    impossible = [o for o in np.flatnonzero(heralded[:-1]) if not table.coefficients[:, o].any()]
    assert impossible
    with pytest.raises(EstimationError, match="impossible"):
        mle_phase(np.array([impossible[0], -1, -1, -1]), plan)


def test_mle_skips_a_setting_without_heralded_windows(monkeypatch):
    plan = ExperimentPlan("cnot", StellarSource(0.7, 0.8, 0.1), (0.0, 0.3, math.pi / 2.0), 3000, seed=3)
    outcomes = run_experiment(plan)
    outcomes[1::3] = -1  # the 0.3 setting saw no photon
    compiled = []
    real = estimation._fringe_table

    def spy(protocol, config, epsilon):
        compiled.append(config.delta)
        return real(protocol, config, epsilon)

    monkeypatch.setattr(estimation, "_fringe_table", spy)
    report = mle_phase(outcomes, plan)
    assert compiled == [0.0, math.pi / 2.0]
    assert abs(estimation.wrap_phase(report.phi_hat - 0.7)) < 5.0 * math.sqrt(report.crb)


# ---------------------------------------------------------------------------
# the Fisher floor: a dropped outcome with a derivative on the kept scale is refused


@pytest.mark.parametrize("protocol", ["cnot", "gottesman"])
@pytest.mark.parametrize("epsilon", [1e-11, 3e-12, 1e-100])
def test_fisher_refuses_to_drop_heralded_outcomes_at_a_tiny_arrival_probability(protocol, epsilon):
    # these heralded outcomes fall below PROB_FLOOR with derivatives of order epsilon
    # too; summing the rest gave 0.0375 epsilon at 1e-11 and 0 below, for 0.1215 epsilon
    with pytest.raises(FisherDivergenceError, match="would drop them"):
        crb_report(protocol, StellarSource(0.7, 0.5, epsilon), (0.0,))
    config = ProtocolConfig(0.0, 1.0, Variant.CNOT_SEQUENCE, False)
    with pytest.raises(FisherDivergenceError):
        estimation.window_fisher(protocol, config, epsilon, (0.7, 0.5), ("phi", "g"))


@pytest.mark.parametrize("epsilon", [1e-8, 1e-7])
def test_fisher_refuses_to_drop_a_dark_fringe_outcome_near_g_1(epsilon):
    # 0.01 rad off the dark fringe the heralded outcome falls below PROB_FLOOR with half the
    # information: summing the rest gave 0.5000 epsilon, for the closed form's 0.9808 epsilon
    source = StellarSource(0.855, 0.999998, epsilon)
    with pytest.raises(FisherDivergenceError):
        crb_report("cnot", source, (0.845,))
    source = StellarSource(0.855, 0.999998, 1e-6)
    info = crb_report("cnot", source, (0.845,)).fisher_per_window
    assert info == pytest.approx(analytic.cnot_fisher_phi(0.855, 0.999998, 1e-6, 0.845), rel=1e-8)


@pytest.mark.parametrize("epsilon", [3e-11, 1e-10, 1e-3])
def test_fisher_keeps_the_closed_form_above_the_floor(epsilon):
    info = crb_report("cnot", StellarSource(0.7, 0.5, epsilon), (0.0,)).fisher_per_window
    assert info == pytest.approx(analytic.cnot_fisher_phi(0.7, 0.5, epsilon, 0.0), rel=1e-8)
    # the direct table is conditioned on arrival: no outcome of it is ever dropped
    for tiny in (epsilon, 1e-100):
        info = crb_report("direct", StellarSource(0.7, 0.5, tiny), (0.0,)).fisher_per_window
        assert info == pytest.approx(tiny * analytic.direct_fisher_phi(0.7, 0.5, 0.0), rel=1e-8)


def test_fisher_cli_exits_3_with_one_error_line_at_a_tiny_arrival_probability(tmp_path):
    path = tmp_path / "tiny.json"
    config = {"schema_version": 1, "protocol": "cnot", "epsilon": 1e-11}
    path.write_text(json.dumps(dict(config, phi_values=[0.7], g_values=[0.5], delta_values=[0.0])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["fisher", "--config", str(path), "--format", "json"])
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue().startswith("numerical invariant violated: outcomes [") and err.getvalue().count("\n") == 1
