"""Gate-lift and measurement-basis tests.

The central oracle here is matrix-exponential evolution: a passive 2x2
transformation u = exp(i h) lifts to exp(i dGamma(h)) with
dGamma(h) = sum_ij h_ij adag_i a_j.  On every total-photon-number sector
that fits below the cutoff the truncated exponential is exact, so the
combinatorial lift must agree there to machine precision.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qtelescopy import gates, state_engine as se
from qtelescopy.errors import (
    InvalidSubspaceError,
    LeakageError,
    NumericalInvariantError,
    QubitRegisterError,
)

N_MAX = 2


def _ladder(n_max):
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def _second_quantized(h, n_max):
    """dGamma(h) on the (n_max+1)^2-dimensional two-mode space."""
    d = n_max + 1
    a = _ladder(n_max)
    eye = np.eye(d)
    mode_ops = [np.kron(a, eye), np.kron(eye, a)]
    gen = np.zeros((d * d, d * d), dtype=complex)
    for i in range(2):
        for j in range(2):
            gen += h[i, j] * mode_ops[i].conj().T @ mode_ops[j]
    return gen


def _u2(alpha, beta, gamma, theta):
    c, s = math.cos(theta), math.sin(theta)
    u = np.array(
        [
            [c * np.exp(1j * beta), s * np.exp(1j * gamma)],
            [-s * np.exp(-1j * gamma), c * np.exp(-1j * beta)],
        ]
    )
    return np.exp(1j * alpha) * u


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lift_matches_matrix_exponential(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (w + w.conj().T) / 2.0
    gate = gates.two_mode_unitary(expm(1j * h), 0, 1, N_MAX)
    oracle = expm(1j * _second_quantized(h, N_MAX))
    mask = gate.valid_mask
    np.testing.assert_allclose(
        gate.matrix[:, mask], oracle[:, mask], atol=1e-13, rtol=0.0
    )


def test_beam_splitter_equals_exponential_of_sigma_x():
    # u = (1/sqrt2) [[1, i], [i, 1]] = exp(i (pi/4) sigma_x)
    h = (math.pi / 4.0) * np.array([[0.0, 1.0], [1.0, 0.0]])
    gate = gates.beam_splitter(0, 1, N_MAX)
    oracle = expm(1j * _second_quantized(h, N_MAX))
    mask = gate.valid_mask
    np.testing.assert_allclose(gate.matrix[:, mask], oracle[:, mask], atol=1e-13)


def test_hong_ou_mandel_bunching():
    state = se.apply_unitary(se.fock((1, 1), N_MAX), gates.beam_splitter(0, 1, N_MAX))
    amp = state.amplitudes
    np.testing.assert_allclose(amp[se.basis_index((1, 1), N_MAX)], 0.0, atol=1e-14)
    np.testing.assert_allclose(
        amp[se.basis_index((2, 0), N_MAX)], 1j / math.sqrt(2.0), atol=1e-14
    )
    np.testing.assert_allclose(
        amp[se.basis_index((0, 2), N_MAX)], 1j / math.sqrt(2.0), atol=1e-14
    )


def test_lift_columns_orthonormal_on_valid_subspace():
    gate = gates.beam_splitter(0, 1, N_MAX)
    cols = gate.matrix[:, gate.valid_mask]
    np.testing.assert_allclose(
        cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-13
    )


def test_invalid_columns_are_zeroed():
    gate = gates.beam_splitter(0, 1, N_MAX)
    bad = ~gate.valid_mask
    assert bad.any()
    np.testing.assert_allclose(gate.matrix[:, bad], 0.0, atol=0.0)


def test_phase_shift_applies_occupation_phase():
    theta = 0.83
    gate = gates.phase_shift(1, theta, N_MAX)
    for occ in [(0, 0), (1, 2), (2, 1)]:
        out = se.apply_unitary(se.fock(occ, N_MAX), gate)
        idx = se.basis_index(occ, N_MAX)
        np.testing.assert_allclose(
            out.amplitudes[idx], np.exp(1j * occ[1] * theta), atol=1e-14
        )


def test_phase_shift_valid_everywhere():
    assert gates.phase_shift(0, 1.0, N_MAX).valid_mask.all()


@pytest.mark.parametrize(
    "occ_in,occ_out",
    [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))],
)
def test_cnot_truth_table(occ_in, occ_out):
    out = se.apply_unitary(se.fock(occ_in, N_MAX), gates.cnot_fock(0, 1, N_MAX))
    np.testing.assert_allclose(
        out.amplitudes, se.fock(occ_out, N_MAX).amplitudes, atol=1e-14
    )


def test_not_fock_is_self_inverse():
    gate = gates.not_fock(0, N_MAX)
    state = se.StateVector(
        amplitudes=(se.fock((0,), N_MAX).amplitudes * 0.6
                    + se.fock((1,), N_MAX).amplitudes * 0.8),
        mode_count=1,
        n_max=N_MAX,
    )
    back = se.apply_unitary(se.apply_unitary(state, gate), gate)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-14)


def test_z_and_cz_phases():
    z = gates.z_fock(0, N_MAX)
    out = se.apply_unitary(se.fock((1,), N_MAX), z)
    np.testing.assert_allclose(out.amplitudes[1], -1.0, atol=1e-14)
    out0 = se.apply_unitary(se.fock((0,), N_MAX), z)
    np.testing.assert_allclose(out0.amplitudes[0], 1.0, atol=1e-14)

    cz = gates.cz_fock(0, 1, N_MAX)
    for occ, sign in [((0, 0), 1.0), ((0, 1), 1.0), ((1, 0), 1.0), ((1, 1), -1.0)]:
        out = se.apply_unitary(se.fock(occ, N_MAX), cz)
        np.testing.assert_allclose(
            out.amplitudes[se.basis_index(occ, N_MAX)], sign, atol=1e-14
        )


def test_single_rail_gates_reject_occupation_two():
    with pytest.raises(InvalidSubspaceError):
        se.apply_unitary(se.fock((2,), N_MAX), gates.not_fock(0, N_MAX))
    with pytest.raises(InvalidSubspaceError):
        se.apply_unitary(se.fock((2, 1), N_MAX), gates.cnot_fock(0, 1, N_MAX))


def test_beam_splitter_rejects_state_past_cutoff():
    # (2,1) would scatter into (3,0), which the register cannot hold
    with pytest.raises(InvalidSubspaceError):
        se.apply_unitary(se.fock((2, 1), N_MAX), gates.beam_splitter(0, 1, N_MAX))


@pytest.mark.parametrize("theta", [1e308, -1e308, math.inf, math.nan])
def test_phase_shift_refuses_a_non_finite_phase(theta):
    # 1e308 overflows only on the two-photon entry of the phase table
    with pytest.raises(ValueError, match="not a finite angle"):
        gates.phase_shift(0, theta, N_MAX)


def test_gate_construction_rejects_bad_modes():
    with pytest.raises(ValueError):
        gates.beam_splitter(0, 0, N_MAX)


def _conserves_total_number(gate, mode_count):
    for occ in se.basis_labels(mode_count, N_MAX):
        if sum(occ) > N_MAX:
            continue
        try:
            out = se.apply_unitary(se.fock(occ, N_MAX), gate)
        except InvalidSubspaceError:
            continue
        for lab, p in se.number_measurement_distribution(out).items():
            if p > 1e-20 and sum(lab) != sum(occ):
                return False
    return True


def test_passive_gates_conserve_photon_number():
    assert _conserves_total_number(gates.beam_splitter(0, 1, N_MAX), 2)
    assert _conserves_total_number(gates.phase_shift(0, 0.7, N_MAX), 1)
    assert _conserves_total_number(gates.cz_fock(0, 1, N_MAX), 2)
    assert _conserves_total_number(gates.z_fock(0, N_MAX), 1)


def test_flip_gates_do_not_conserve_photon_number():
    assert not _conserves_total_number(gates.not_fock(0, N_MAX), 1)
    assert not _conserves_total_number(gates.cnot_fock(0, 1, N_MAX), 2)


def test_rotated_basis_at_zero_is_x_basis():
    rot = gates.rotated_basis(0, 0.0, N_MAX)
    x = gates.x_basis(0, N_MAX)
    assert rot.outcomes == x.outcomes == (1, -1)
    for p, q in zip(rot.projectors, x.projectors):
        np.testing.assert_allclose(p, q, atol=1e-14)


def test_rotated_basis_projectors_resolve_single_rail_subspace():
    basis = gates.rotated_basis(0, 1.1, N_MAX)
    total = sum(basis.projectors)
    expected = np.zeros((N_MAX + 1, N_MAX + 1))
    expected[0, 0] = expected[1, 1] = 1.0
    np.testing.assert_allclose(total, expected, atol=1e-14)
    for p in basis.projectors:
        np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
        np.testing.assert_allclose(p @ p, p, atol=1e-14)


def test_rotated_measurement_fringe():
    # |psi> = (|0> + e^{i phi} |1>)/sqrt2 measured at angle delta gives
    # P(+) = (1 + cos(phi - delta))/2
    phi, delta = 0.9, 0.4
    amp = np.zeros(3, dtype=complex)
    amp[0] = 1.0 / math.sqrt(2.0)
    amp[1] = np.exp(1j * phi) / math.sqrt(2.0)
    state = se.StateVector(amplitudes=amp, mode_count=1, n_max=N_MAX)
    basis = gates.rotated_basis(0, delta, N_MAX)
    probs = gates.measurement_distribution(state, basis)
    np.testing.assert_allclose(
        probs[0], (1.0 + math.cos(phi - delta)) / 2.0, atol=1e-12
    )


def test_parity_basis_outcomes():
    basis = gates.parity_basis(0, 1, N_MAX)
    assert basis.outcomes == (0, 1)
    even = gates.measurement_distribution(se.fock((1, 1), N_MAX), basis)
    np.testing.assert_allclose(even, [1.0, 0.0], atol=1e-14)
    odd = gates.measurement_distribution(se.fock((1, 0), N_MAX), basis)
    np.testing.assert_allclose(odd, [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize(
    "build",
    [
        lambda: gates.x_basis(0, N_MAX),
        lambda: gates.rotated_basis(1, 0.3, N_MAX),
        lambda: gates.parity_basis(0, 1, N_MAX),
    ],
    ids=["x_basis", "rotated_basis", "parity_basis"],
)
def test_measurement_bases_are_read_only(build):
    # cached wirings share bases: a write would change every later readout
    basis = build()
    with pytest.raises(ValueError):
        basis.valid_mask[0] = False
    for proj in basis.projectors:
        with pytest.raises(ValueError):
            proj[0, 0] = 0.0
    mask, projectors = basis.valid_mask.copy(), [p.copy() for p in basis.projectors]
    copied = gates.MeasurementBasis(basis.target_modes, tuple(projectors), basis.outcomes, N_MAX, mask)
    mask[0], projectors[0][0, 0] = False, 7.0
    assert copied.valid_mask[0] and copied.projectors[0][0, 0] != 7.0
    with pytest.raises(ValueError, match="valid_mask length"):
        gates.MeasurementBasis(basis.target_modes, basis.projectors, basis.outcomes, N_MAX, mask[:-1])


def test_project_enumerates_branches():
    phi = 0.9
    amp = np.zeros(3, dtype=complex)
    amp[0] = 1.0 / math.sqrt(2.0)
    amp[1] = np.exp(1j * phi) / math.sqrt(2.0)
    state = se.StateVector(amplitudes=amp, mode_count=1, n_max=N_MAX)
    before = state.amplitudes.copy()
    basis = gates.x_basis(0, N_MAX)
    total = 0.0
    for outcome in basis.outcomes:
        p, post = gates.project(state, basis, outcome)
        total += p
        if post is not None:
            np.testing.assert_allclose(
                np.linalg.norm(post.amplitudes), 1.0, atol=1e-10
            )
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    # the post-measurement state is normalized in place, never the input
    assert np.array_equal(state.amplitudes, before)


def test_project_onto_null_branch_returns_none():
    basis = gates.x_basis(0, N_MAX)
    plus = np.zeros(3, dtype=complex)
    plus[0] = plus[1] = 1.0 / math.sqrt(2.0)
    state = se.StateVector(amplitudes=plus, mode_count=1, n_max=N_MAX)
    p, post = gates.project(state, basis, -1)
    assert p == pytest.approx(0.0, abs=1e-14)
    assert post is None


def test_measure_in_basis_deterministic_per_seed():
    amp = np.zeros(9, dtype=complex)
    amp[se.basis_index((1, 0), N_MAX)] = 0.6
    amp[se.basis_index((0, 1), N_MAX)] = 0.8j
    state = se.StateVector(amplitudes=amp, mode_count=2, n_max=N_MAX)
    basis = gates.parity_basis(0, 1, N_MAX)
    runs_a = [gates.measure_in_basis(state, basis, rng=np.random.default_rng(s))[0]
              for s in range(20)]
    runs_b = [gates.measure_in_basis(state, basis, rng=np.random.default_rng(s))[0]
              for s in range(20)]
    assert runs_a == runs_b


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.sampled_from([0.0, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda pair: pair if pair[0] or pair[1] else (0.0, 1.0)
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_measure_in_basis_picks_the_outcome_that_generator_choice_picks(weights, seed, register):
    """One uniform through :func:`gates._draw`, the samplers' draw rule: the outcome that ``Generator.choice``
    picks from the readout's weights at the same seed, a zero weight included, on either register."""
    if seed % 2:
        weights = weights[::-1]
    number = gates.MeasurementBasis((0,), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), (0, 1), 1, [True, True])
    amps = np.sqrt(np.array(weights) / sum(weights)).astype(complex)
    state = se.QubitRegister([0, 1], amps, 1) if register else se.StateVector(amps, 1, 1)
    probs = gates.measurement_distribution(state, number)
    chosen = np.random.default_rng(seed).choice(2, p=probs / probs.sum())
    outcome, post = gates.measure_in_basis(state, number, rng=np.random.default_rng(seed))
    assert outcome == number.outcomes[chosen]
    # both layouts hold occupation 0, then 1: the post-state is the drawn outcome's
    assert post.amplitudes[1 - outcome] == 0.0 and abs(post.amplitudes[outcome]) == pytest.approx(1.0)


def test_measure_in_basis_clamps_round_off_and_refuses_negative_weights(monkeypatch):
    state = se.fock((1,), 1)
    basis = gates.x_basis(0, 1)
    # a round-off negative on an impossible outcome counts as zero
    monkeypatch.setattr(gates, "_weights", lambda *a, **k: np.array([1.0, -1e-17]))
    assert all(gates.measure_in_basis(state, basis, rng=s)[0] == +1 for s in range(20))
    monkeypatch.setattr(gates, "_weights", lambda *a, **k: np.array([1.0, -1e-6]))
    with pytest.raises(NumericalInvariantError, match="negative"):
        gates.measure_in_basis(state, basis, rng=0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.5),
)
def test_random_passive_lift_is_isometric_and_number_conserving(
    alpha, beta, gamma, theta
):
    gate = gates.two_mode_unitary(_u2(alpha, beta, gamma, theta), 0, 1, N_MAX)
    cols = gate.matrix[:, gate.valid_mask]
    np.testing.assert_allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-12)
    # block structure: no amplitude connects different total photon numbers
    labels = se.basis_labels(2, N_MAX)
    for j, lab_in in enumerate(labels):
        if not gate.valid_mask[j]:
            continue
        for i, lab_out in enumerate(labels):
            if abs(gate.matrix[i, j]) > 1e-12:
                assert sum(lab_out) == sum(lab_in)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-7.0, max_value=7.0))
def test_phase_shift_composition(theta):
    # two shifts on the same mode compose additively
    one = gates.phase_shift(0, theta, N_MAX)
    half = gates.phase_shift(0, theta / 2.0, N_MAX)
    state = se.StateVector(
        amplitudes=np.ones(3, dtype=complex) / math.sqrt(3.0),
        mode_count=1,
        n_max=N_MAX,
    )
    once = se.apply_unitary(state, one)
    twice = se.apply_unitary(se.apply_unitary(state, half), half)
    np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# kernels against dense operators


def _dense_apply(op, targets, psi, mode_count, n_max):
    """``op`` on ``targets`` applied to the register state ``psi`` by the dense
    matrix ``kron(op, I)``, which acts with the targets as the leading modes:
    ``psi`` is reordered into that layout and the result back out of it."""
    rest = [m for m in range(mode_count) if m not in targets]
    front = np.kron(op, np.eye((n_max + 1) ** len(rest)))
    order = _flat_index(se.labels_array(mode_count, n_max)[:, [*targets, *rest]], n_max)
    leading = np.empty_like(psi)
    leading[order] = psi
    return (front @ leading)[order]


def _guarded_mass(op, state):
    """The probability that the support guard reads outside ``op.valid_mask`` as the gate or basis ``op``
    acts on ``state``: the squared norm of the ``outside`` amplitudes it is handed."""
    seen, guard = [], se.check_support

    def spy(op, outside, what):
        seen.append(float(np.vdot(outside, outside).real))
        return guard(op, outside, what)

    with mock.patch.object(se, "check_support", spy), mock.patch.object(gates, "check_support", spy):
        with contextlib.suppress(InvalidSubspaceError):
            se.apply_unitary(state, op) if isinstance(op, se.ModeUnitary) else gates.measurement_distribution(state, op)
    (mass,) = seen
    return mass


def _flat_index(labels, n_max):
    """Flat index of every row of occupation labels (first column most significant)."""
    return np.ravel_multi_index(labels.T, (n_max + 1,) * labels.shape[1])


# name: (number of target modes, constructor call on targets, n_max and a generator)
_KERNEL_GATES = {
    "not_fock": (1, lambda t, n, rng: gates.not_fock(t[0], n)),
    "z_fock": (1, lambda t, n, rng: gates.z_fock(t[0], n)),
    "cnot_fock": (2, lambda t, n, rng: gates.cnot_fock(t[0], t[1], n)),
    "cz_fock": (2, lambda t, n, rng: gates.cz_fock(t[0], t[1], n)),
    "beam_splitter": (2, lambda t, n, rng: gates.beam_splitter(t[0], t[1], n)),
    "phase_shift": (1, lambda t, n, rng: gates.phase_shift(t[0], rng.uniform(-4, 4), n)),
}
_KERNEL_BASES = {
    "x_basis": (1, lambda t, n, rng: gates.x_basis(t[0], n)),
    "rotated_basis": (1, lambda t, n, rng: gates.rotated_basis(t[0], rng.uniform(-4, 4), n)),
    "parity_basis": (2, lambda t, n, rng: gates.parity_basis(t[0], t[1], n)),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kernels_match_dense_operators(n_max, mode_count, seed):
    # 3^8 amplitudes would need a 0.7 GB dense operator: n_max = 2 stops at 6 modes
    mode_count = min(mode_count, 8 if n_max == 1 else 6)
    rng = np.random.default_rng(seed)
    dim = se.space_dim(mode_count, n_max)
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    raw /= np.linalg.norm(raw)
    labs = se.labels_array(mode_count, n_max)
    raw_state = se.StateVector(raw, mode_count, n_max)
    for name, (arity, build) in {**_KERNEL_GATES, **_KERNEL_BASES}.items():
        # one-mode operators on every mode, the last one included; pairs in
        # random order, adjacent or not
        choices = [(m,) for m in range(mode_count)] if arity == 1 else [
            tuple(int(m) for m in rng.choice(mode_count, size=2, replace=False)) for _ in range(3)
        ]
        for targets in choices:
            op = build(targets, n_max, rng)
            valid = op.valid_mask[_flat_index(labs[:, list(targets)], n_max)]
            assert abs(_guarded_mass(op, raw_state) - np.sum(np.abs(raw[~valid]) ** 2)) < 1e-12
            psi = np.where(valid, raw, 0.0)
            psi /= np.linalg.norm(psi)
            state = se.StateVector(psi, mode_count, n_max)
            if name in _KERNEL_GATES:
                if np.sum(np.abs(raw[~valid]) ** 2) > se.NORM_ATOL:
                    with pytest.raises(InvalidSubspaceError):
                        se.apply_unitary(raw_state, op)
                out = se.apply_unitary(state, op)
                expected = _dense_apply(op.matrix, targets, psi, mode_count, n_max)
                np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)
                continue
            if np.sum(np.abs(raw[~valid]) ** 2) > se.NORM_ATOL:
                with pytest.raises(InvalidSubspaceError):
                    gates.measurement_distribution(raw_state, op)
                with pytest.raises(InvalidSubspaceError):
                    gates.project(raw_state, op, op.outcomes[0])
            projected = [_dense_apply(p, targets, psi, mode_count, n_max) for p in op.projectors]
            weights = [np.vdot(psi, p_psi).real for p_psi in projected]
            probs = gates.measurement_distribution(state, op)
            np.testing.assert_allclose(probs, weights, rtol=0, atol=1e-12)
            for outcome, p_psi, w in zip(op.outcomes, projected, weights):
                p_out, post = gates.project(state, op, outcome)
                assert abs(p_out - w) < 1e-12
                if post is None:
                    assert w < 1e-12
                else:
                    np.testing.assert_allclose(
                        post.amplitudes * np.sqrt(p_out), p_psi, rtol=0, atol=1e-12
                    )


# ---------------------------------------------------------------------------
# the support-indexed qubit register against the dense engine


def _sparse_qubit_state(mode_count, rng):
    """A random cutoff-1 state with about half its amplitudes exactly zero, as
    a StateVector and as a QubitRegister placed from it."""
    dim = 2**mode_count
    amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * (rng.random(dim) < 0.5)
    amps[rng.integers(dim)] = 1.0
    dense = se.StateVector(amps / np.linalg.norm(amps), mode_count, 1)
    return dense, se.QubitRegister.place([(dense, range(mode_count))], mode_count)


def _densified(register):
    labels = register.labels
    assert len(np.unique(labels)) == len(labels)
    amps = np.zeros(2**register.mode_count, dtype=complex)
    amps[labels] = register.amplitudes
    return amps


_PERM_GATES = ("not_fock", "z_fock", "cnot_fock", "cz_fock", "phase_shift")


@pytest.mark.parametrize("mode_count", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_qubit_register_matches_the_dense_engine(mode_count, seed):
    rng = np.random.default_rng(seed)
    dense, register = _sparse_qubit_state(mode_count, rng)
    np.testing.assert_array_equal(_densified(register), dense.amplitudes)
    # every signed-permutation gate on every mode placement, pairs in both orders;
    # a phase shift at cutoff 1 is diagonal, so it is one too
    for name in _PERM_GATES:
        arity, build = _KERNEL_GATES[name]
        placements = [(m,) for m in range(mode_count)] if arity == 1 else [
            (a, b) for a in range(mode_count) for b in range(mode_count) if a != b
        ]
        for targets in placements:
            gate = build(targets, 1, rng)
            out = se.apply_unitary(register, gate)
            expected = se.apply_unitary(dense, gate).amplitudes
            np.testing.assert_allclose(_densified(out), expected, rtol=0, atol=1e-12)
    # X and rotated readouts on every mode: weights, both post-states, and the
    # sampled outcome and post-state on one seed
    for name in ("x_basis", "rotated_basis"):
        for mode in range(mode_count):
            basis = _KERNEL_BASES[name][1]((mode,), 1, rng)
            np.testing.assert_allclose(
                gates.measurement_distribution(register, basis),
                gates.measurement_distribution(dense, basis),
                rtol=0,
                atol=1e-12,
            )
            for outcome in basis.outcomes:
                p_sparse, post_sparse = gates.project(register, basis, outcome)
                p_dense, post_dense = gates.project(dense, basis, outcome)
                assert abs(p_sparse - p_dense) < 1e-12
                if post_dense is None or post_sparse is None:
                    assert post_dense is None and post_sparse is None
                    continue
                np.testing.assert_allclose(
                    _densified(post_sparse), post_dense.amplitudes, rtol=0, atol=1e-12
                )
            x_sparse, post_sparse = gates.measure_in_basis(register, basis, mode)
            x_dense, post_dense = gates.measure_in_basis(dense, basis, mode)
            assert x_sparse == x_dense
            np.testing.assert_allclose(
                _densified(post_sparse), post_dense.amplitudes, rtol=0, atol=1e-12
            )


def test_qubit_register_refuses_what_it_cannot_hold_exactly():
    _, register = _sparse_qubit_state(3, np.random.default_rng(4))
    refused_gates = [
        gates.beam_splitter(0, 1, 1),
        gates.cnot_fock(0, 1, 2),
        gates.not_fock(2, 2),
        # two labels onto one, a label onto two, a label onto none
        se.ModeUnitary((0,), [[1, 1], [0, 0]], 1),
        se.ModeUnitary((0,), [[1, 0], [1, 1]], 1),
        se.ModeUnitary((0,), [[1, 0], [0, 0]], 1),
    ]
    for gate in refused_gates:
        with pytest.raises(QubitRegisterError, match="not a signed permutation at cutoff 1"):
            se.apply_unitary(register, gate)
    for basis in (gates.x_basis(0, 2), gates.parity_basis(0, 1, 1)):
        with pytest.raises(QubitRegisterError, match="not a one-mode readout at cutoff 1"):
            gates.measurement_distribution(register, basis)
        with pytest.raises(QubitRegisterError, match="not a one-mode readout at cutoff 1"):
            gates.project(register, basis, basis.outcomes[0])


def test_qubit_register_keeps_the_support_and_norm_guards():
    one = se.QubitRegister([1], [1.0], 1)  # |1>
    half = se.ModeUnitary((0,), [[0, 1], [1, 0]], 1, [True, False], "half_not")
    with pytest.raises(InvalidSubspaceError, match="half_not"):
        se.apply_unitary(one, half)
    basis = gates.MeasurementBasis(
        (0,), gates.x_basis(0, 1).projectors, (+1, -1), 1, np.array([True, False]), "half_x"
    )
    with pytest.raises(InvalidSubspaceError, match="half_x"):
        gates.measurement_distribution(one, basis)
    with pytest.raises(LeakageError):
        se.apply_unitary(se.QubitRegister([1], [math.nan], 1), gates.not_fock(0, 1))


def test_readouts_refuse_modes_outside_the_register():
    # a dense register read mode -1 as its last mode, or failed inside numpy
    dense = se.fock((0, 1), 2)
    _, register = _sparse_qubit_state(2, np.random.default_rng(0))
    cases = [
        (dense, gates.parity_basis(0, -1, 2)),
        (dense, gates.x_basis(-1, 2)),
        (dense, gates.x_basis(5, 2)),
        (register, gates.x_basis(-1, 1)),
        (register, gates.x_basis(2, 1)),
    ]
    for state, basis in cases:
        with pytest.raises(ValueError, match="out of range for 2 modes"):
            gates.measurement_distribution(state, basis)
        with pytest.raises(ValueError, match="out of range for 2 modes"):
            gates.project(state, basis, basis.outcomes[0])
        with pytest.raises(ValueError, match="out of range for 2 modes"):
            gates.measure_in_basis(state, basis, 0)


def test_measurement_basis_refuses_repeated_modes():
    # the parity of a mode with itself failed inside numpy's moveaxis
    with pytest.raises(ValueError, match="repeated target modes"):
        gates.parity_basis(0, 0, 2)
