"""Tests for the truncated multimode Fock register."""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtelescopy import gates, protocols
from qtelescopy import state_engine as se
from qtelescopy.errors import InvalidSubspaceError, LeakageError


def test_space_dim_counts_occupation_patterns():
    assert se.space_dim(1, 2) == 3
    assert se.space_dim(2, 2) == 9
    assert se.space_dim(6, 2) == 729
    assert se.space_dim(4, 1) == 16


def test_basis_index_row_major_mode_zero_most_significant():
    # flat index of (n0, n1) is n0*(n_max+1) + n1
    assert se.basis_index((0, 0), 2) == 0
    assert se.basis_index((0, 1), 2) == 1
    assert se.basis_index((1, 0), 2) == 3
    assert se.basis_index((2, 1), 2) == 7


def test_basis_label_round_trip_all_indices():
    for idx in range(se.space_dim(3, 2)):
        assert se.basis_index(se.basis_label(idx, 3, 2), 2) == idx


@pytest.mark.parametrize("index", [9, -1, 100])
def test_basis_label_refuses_out_of_range_index(index):
    with pytest.raises(ValueError, match=rf"basis index {index} .*\[0, 9\)"):
        se.basis_label(index, 2, 2)


def test_basis_labels_enumeration_order():
    assert se.basis_labels(2, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    labels = se.basis_labels(3, 2)
    assert len(labels) == 27
    assert labels[0] == (0, 0, 0)
    assert labels[-1] == (2, 2, 2)
    assert all(isinstance(n, int) for lab in labels for n in lab)


def test_fock_state_has_single_amplitude():
    state = se.fock((1, 1), 2)
    amp = state.amplitudes
    assert amp[se.basis_index((1, 1), 2)] == 1.0
    assert np.count_nonzero(amp) == 1
    np.testing.assert_allclose(np.linalg.norm(amp), 1.0)


def test_vacuum_is_first_basis_vector():
    vac = se.fock((0,) * 4, 2)
    assert vac.amplitudes[0] == 1.0
    assert np.count_nonzero(vac.amplitudes) == 1


def test_fock_rejects_occupation_beyond_cutoff():
    with pytest.raises(Exception):
        se.fock((3, 0), 2)


def test_tensor_at_builds_product_state():
    left = se.fock((1,), 2)
    right = se.fock((0, 2), 2)
    combined = se.tensor_at([(left, (0,)), (right, (1, 2))])
    expected = se.fock((1, 0, 2), 2)
    np.testing.assert_allclose(combined.amplitudes, expected.amplitudes)


def test_tensor_at_respects_mode_assignment():
    # placing the same factors on permuted modes permutes the occupations
    a = se.fock((1,), 2)
    b = se.fock((2,), 2)
    s = se.tensor_at([(a, (1,)), (b, (0,))])
    expected = se.fock((2, 1), 2)
    np.testing.assert_allclose(s.amplitudes, expected.amplitudes)


def test_tensor_at_superposition_factor():
    plus = se.StateVector(
        amplitudes=(se.fock((1, 0), 1).amplitudes + se.fock((0, 1), 1).amplitudes)
        / np.sqrt(2.0),
        mode_count=2,
        n_max=1,
    )
    full = se.tensor_at([(plus, (0, 2)), (se.fock((1,), 1), (1,))])
    expected = (
        se.fock((1, 1, 0), 1).amplitudes + se.fock((0, 1, 1), 1).amplitudes
    ) / np.sqrt(2.0)
    np.testing.assert_allclose(full.amplitudes, expected)


def test_number_distribution_sums_to_one(rng):
    amp = rng.normal(size=27) + 1j * rng.normal(size=27)
    amp /= np.linalg.norm(amp)
    state = se.StateVector(amplitudes=amp, mode_count=3, n_max=2)
    dist = state.probabilities()
    assert dist.shape == (27,)
    np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)
    assert (dist >= 0).all()


def test_number_measurement_distribution_omits_zero_entries():
    state = se.fock((1, 0), 2)
    dist = se.number_measurement_distribution(state)
    assert set(dist) == {(1, 0)}


def test_apply_unitary_refuses_a_non_finite_result():
    # a nan norm fails every comparison, so the guard must not read "lost > atol"
    gate = se.ModeUnitary((0,), np.diag([1.0, np.nan, 1.0]), 2, name="broken")
    with pytest.raises(LeakageError, match="broken"):
        se.apply_unitary(se.fock((1,), 2), gate)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=728))
def test_basis_round_trip_property(idx):
    label = se.basis_label(idx, 6, 2)
    assert len(label) == 6
    assert all(0 <= n <= 2 for n in label)
    assert se.basis_index(label, 2) == idx


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=4))
def test_fock_index_matches_positional_weight(occ):
    state = se.fock(tuple(occ), 2)
    idx = int(np.flatnonzero(state.amplitudes)[0])
    # weight of mode m is (n_max+1)^(M-1-m)
    assert idx == sum(n * 3 ** (len(occ) - 1 - m) for m, n in enumerate(occ))


# ---------------------------------------------------------------------------
# support-indexed qubit register


def _random_factor(mode_count, rng, n_max=1):
    dim = se.space_dim(mode_count, n_max)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps[rng.random(dim) < 0.4] = 0.0
    amps[0] = 1.0
    return se.StateVector(amps / np.linalg.norm(amps), mode_count, n_max)


def _kron_oracle(factors):
    """Dense product state: ``np.kron`` of the factors in order, then each
    factor's tensor axes moved to its register modes."""
    amps, modes = np.ones(1, dtype=complex), []
    for state, where in factors:
        amps, modes = np.kron(amps, state.amplitudes), modes + [int(m) for m in where]
    d = factors[0][0].n_max + 1
    return np.moveaxis(amps.reshape((d,) * len(modes)), range(len(modes)), modes).reshape(-1)


def _densified(register):
    amps = np.zeros(2**register.mode_count, dtype=complex)
    amps[register.labels] = register.amplitudes
    return amps


@pytest.mark.parametrize("seed", range(4))
def test_qubit_register_placement_matches_tensor_at(seed):
    """Both placements, ``tensor_at`` and ``QubitRegister.place``, equal the
    Kronecker-product oracle exactly, on randomly permuted modes."""
    rng = np.random.default_rng(seed)
    for n_max in (3, 2, 1):
        modes = [int(m) for m in rng.permutation(6)]
        factors = [
            (_random_factor(2, rng, n_max), modes[:2]),
            (_random_factor(1, rng, n_max), modes[2:3]),
            (_random_factor(3, rng, n_max), modes[3:]),
        ]
        oracle = _kron_oracle(factors)
        dense = se.tensor_at(factors)
        assert (dense.mode_count, dense.n_max) == (6, n_max)
        np.testing.assert_array_equal(dense.amplitudes, oracle)
    # the last factors, at cutoff 1, placed on a register
    register = se.QubitRegister.place(factors, 6)
    assert register.amplitudes.size == np.count_nonzero(oracle)
    np.testing.assert_array_equal(_densified(register), oracle)
    # modes no factor names hold vacuum
    partial = se.QubitRegister.place(factors[:2], 6)
    vacuum = (se.fock((0,) * 3, 1), factors[2][1])
    np.testing.assert_array_equal(_densified(partial), _kron_oracle(factors[:2] + [vacuum]))
    # a factor's occupations land on its listed modes, in order
    state = se.tensor_at([(se.fock((0, 1, 2), 2), (2, 0, 1))])
    np.testing.assert_array_equal(state.amplitudes, se.fock((1, 2, 0), 2).amplitudes)


def test_tensor_at_placement_checks():
    pair = se.fock((1, 0), 2)
    with pytest.raises(ValueError, match="no factors given"):
        se.tensor_at([])
    with pytest.raises(ValueError, match="repeat a mode"):
        se.tensor_at([(pair, (0, 1)), (pair, (1, 2))])
    with pytest.raises(ValueError, match="out of range"):
        se.tensor_at([(pair, (0, 2))])
    with pytest.raises(ValueError, match="cutoff-2 state"):
        se.tensor_at([(pair, (0, 1)), (se.fock((1,), 1), (2,))])
    with pytest.raises(ValueError, match="one mode per listed mode"):
        se.tensor_at([(pair, (0,))])


@pytest.mark.parametrize("mode", range(5))
@pytest.mark.parametrize("index", [0, 1])
def test_qubit_register_slice_drops_the_mode(mode, index):
    """An X readout of a register mode, by the memory protocol's ``_read``, leaves the read mode at 0 and the other
    modes holding the combination of its two slices that the outcome read, normalized, on the same 5 modes."""
    dense = _random_factor(5, np.random.default_rng(mode))
    register = se.QubitRegister.place([(dense, range(5))], 5)
    basis = gates.x_basis(mode, 1)
    outcome = basis.outcomes[index]
    slices = dense.amplitudes.reshape(2**mode, 2, -1)
    expected = np.zeros_like(slices)
    expected[:, 0] = slices[:, 0] + outcome * slices[:, 1]
    seed = next(s for s in range(100) if gates.measure_in_basis(register, basis, s)[0] == outcome)
    read, part = protocols._read(register, mode, seed)
    assert read == outcome and part.mode_count == 5
    assert not (part.labels & (1 << (4 - mode))).any()
    np.testing.assert_allclose(_densified(part), expected.reshape(-1) / np.linalg.norm(expected), rtol=1e-14, atol=0)


def test_qubit_register_mode_count_and_placement_checks():
    assert se.QubitRegister.place([], se.MAX_QUBIT_MODES).labels.tolist() == [0]
    with pytest.raises(ValueError, match="0 to 62 modes"):
        se.QubitRegister([0], [1.0], se.MAX_QUBIT_MODES + 1)
    with pytest.raises(ValueError, match="0 to 62 modes"):
        se.QubitRegister.place([], 63)
    # refused before a stride past int64 is formed
    with pytest.raises(ValueError, match="0 to 62 modes"):
        se.QubitRegister.place([(se.fock((1, 0), 1), (0, 63))], 64)
    pair = se.fock((1, 0), 1)
    with pytest.raises(ValueError, match="repeat a mode"):
        se.QubitRegister.place([(pair, (0, 1)), (pair, (1, 2))], 3)
    with pytest.raises(ValueError, match="out of range"):
        se.QubitRegister.place([(pair, (0, 3))], 3)
    with pytest.raises(ValueError, match="cutoff-1 state"):
        se.QubitRegister.place([(se.fock((1, 0), 2), (0, 1))], 3)
    with pytest.raises(ValueError, match="one label per amplitude"):
        se.QubitRegister([0, 1], [1.0], 2)


# ---------------------------------------------------------------------------
# the support guard, read from the layout each operation gathers


def _dense(state):
    """A register's dense amplitude vector; a dense state's own."""
    if isinstance(state, se.QubitRegister):
        amps = np.zeros(se.space_dim(state.mode_count, 1), dtype=complex)
        amps[state.labels] = state.amplitudes
        return amps
    return state.amplitudes


def _mass(outside):
    return float(np.vdot(outside, outside).real)


def _mass_from_gather(gate, amps, mode_count):
    """Probability outside ``gate.valid_mask``, read through the gather table."""
    table = se._gather(gate.target_modes, gate.n_max + 1, mode_count)
    return _mass(amps[table[~gate.valid_mask]])


def _guarded(op, state, seen):
    """The probability that the support guard, spied on into ``seen``, reads outside ``op.valid_mask``
    as the gate or basis ``op`` acts on ``state``."""
    start = len(seen)
    with contextlib.suppress(InvalidSubspaceError):
        se.apply_unitary(state, op) if isinstance(op, se.ModeUnitary) else gates.measurement_distribution(state, op)
    ((_, outside),) = seen[start:]
    return _mass(outside)


def test_cached_invalid_mass_is_the_mass_outside_the_valid_labels(monkeypatch):
    from qtelescopy.protocols import ProtocolConfig, Variant
    from qtelescopy.sources import StellarSource

    seen, states = [], []
    guard = se.check_support

    def spy(op, outside, what):
        seen.append((op, outside))
        return guard(op, outside, what)

    def entered(original):
        def run(state, op, *args):
            states.append(state)
            return original(state, op, *args)

        return run

    # the one support guard, of gates and readouts alike, is handed the amplitudes outside the
    # valid labels; a protocol gates through protocols.apply_unitary and reads through
    # gates._readout.  Each circuit walks once per compiled law, so the laws are compiled afresh
    for module in (se, gates):
        monkeypatch.setattr(module, "check_support", spy)
    monkeypatch.setattr(protocols, "apply_unitary", entered(protocols.apply_unitary))
    monkeypatch.setattr(gates, "_readout", entered(gates._readout))
    protocols._law.cache_clear()
    source = StellarSource(0.7, 0.8, 0.1)
    for variant in Variant:
        protocols.cnot_distribution(source, ProtocolConfig(0.3, 0.9, variant))
    protocols.gottesman_distribution(source, 0.3)
    for swap in (False, True):
        protocols.direct_distribution(source, 0.3, swap)
    protocols.run_memory_unmodified(3, 2, source, 0.3, rng_seed=1)
    guarded = list(zip(states, seen, strict=True))
    registers = sum(isinstance(state, se.QubitRegister) for state, _ in guarded)
    assert registers and len(guarded) > registers

    rng = np.random.default_rng(5)
    for state, (gate, outside) in guarded:
        amps, mass = _dense(state), _mass(outside)
        if isinstance(state, se.QubitRegister):
            assert mass == pytest.approx(_mass_from_gather(gate, amps, state.mode_count), abs=1e-15)
            dense = se.StateVector(amps, state.mode_count, 1)
            assert _guarded(gate, dense, seen) == _mass_from_gather(gate, amps, state.mode_count)
        else:
            assert mass == _mass_from_gather(gate, amps, state.mode_count)
        # a state with weight on every label, the invalid ones included
        raw = rng.normal(size=amps.size) + 1j * rng.normal(size=amps.size)
        noisy = se.StateVector(raw / np.linalg.norm(raw), state.mode_count, state.n_max)
        assert _guarded(gate, noisy, seen) == _mass_from_gather(gate, noisy.amplitudes, state.mode_count)


def test_invalid_support_message_is_unchanged():
    from qtelescopy import gates

    state = se.StateVector(np.sqrt([0.5, 0, 0, 0, 0, 0, 0.25, 0.25, 0]).astype(complex), 2, 2)
    gate = gates.cnot_fock(0, 1, 2)
    labels = gate.invalid_labels()
    assert labels == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert all(type(n) is int for label in labels for n in label)
    with pytest.raises(InvalidSubspaceError) as caught:
        se.apply_unitary(state, gate)
    # plain ints, not numpy scalars printed as np.int64(0)
    assert str(caught.value) == (
        "cnot_fock on modes (0, 1) is undefined for labels [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]; "
        "input carries probability 5.000e-01 there"
    )


# ---------------------------------------------------------------------------
# the guards of a gate on the six-mode dense register


def _six_mode_with(amplitude, at):
    """A six-mode cutoff-2 register: 1e-3 on a label the gate takes, ``amplitude`` at flat index ``at``.
    The small first entry keeps the rounding of the lost norm far below 1e-6 of ``NORM_ATOL``."""
    amps = np.zeros(3**6, dtype=complex)
    amps[se.basis_index((1, 0, 1, 0, 0, 1), 2)] = 1e-3
    amps[at] = amplitude
    return se.StateVector(amps, 6, 2)


def test_a_cnot_chain_gate_keeps_the_support_guard_at_its_tolerance():
    from qtelescopy import gates
    from qtelescopy.errors import NORM_ATOL

    gate = gates.cnot_fock(2, 4, 2)  # a gate of the six-mode CNOT chain
    at = se._gather(gate.target_modes, 3, 6)[~gate.valid_mask].ravel()[0]
    within, past = (np.sqrt(NORM_ATOL * (1.0 + s)) for s in (-1e-6, 1e-6))
    se.apply_unitary(_six_mode_with(within, at), gate)
    with pytest.raises(InvalidSubspaceError) as caught:
        se.apply_unitary(_six_mode_with(past, at), gate)
    assert str(caught.value) == (
        "cnot_fock on modes (2, 4) is undefined for labels [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]; "
        "input carries probability 1.000e-10 there"
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_apply_unitary_refuses_amplitudes_that_are_not_finite(bad):
    from qtelescopy import gates

    # inf times a zero matrix entry, or a zero imaginary part, is nan and
    # warns in the block product, so the norm is checked first
    for gate in (gates.cnot_fock(2, 4, 2), gates.z_fock(0, 2), gates.beam_splitter(1, 2, 2)):
        state = _six_mode_with(bad, se.basis_index((1, 0, 0, 0, 0, 1), 2))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(LeakageError, match="or not finite"):
                se.apply_unitary(state, gate)
