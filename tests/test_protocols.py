"""Protocol-level tests: interferometer circuits, heralding, memory encoding.

The frozen reference tables in qtelescopy.analytic were derived by hand from
the circuit description and spot-checked against an independent
matrix-exponential simulation before being committed, so circuit-vs-table
agreement here is a genuine two-sided check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

import walks
from qtelescopy import analytic, protocols, sources, state_engine
from qtelescopy.gates import two_mode_unitary
from qtelescopy.protocols import (
    DetectionRecord,
    Herald,
    MemoryRunResult,
    ProtocolConfig,
    Variant,
    bell_register,
    bin_digits,
    classify_herald,
    cnot_branches,
    cnot_distribution,
    decode_time_bin,
    direct_distribution,
    encode_time_bin_modified,
    gottesman_distribution,
    linear_bound_search,
    memory_resources,
    pairs_for_bins,
    run_direct_window,
    run_memory_modified,
    run_memory_unmodified,
    sample_cnot_windows,
)
from qtelescopy.sources import NO_PHOTON, StellarSource


def _maxdiff(d1, d2):
    keys = set(d1) | set(d2)
    return max(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) for k in keys)


def _collapse_cnot_window(source, config, rng) -> DetectionRecord:
    """One window of the six-mode circuit, run end to end with collapse: the
    reference the batched sampler is held against.

    Draws the source branch, then whether the ancilla pair is supplied, walks
    the wiring (the parity wiring collapses at each lab's readout), and
    collapses the photon counts of every mode.
    """
    branches = source.pure_branches(protocols.N_MAX)
    weights = np.array([w for w, _ in branches])
    star = branches[int(rng.choice(3, p=weights / weights.sum()))][1]
    present = bool(rng.random() < config.eta)
    steps = protocols._cnot_steps(config.delta, config.variant)
    ((_, _, state),) = protocols._walk(protocols._cnot_input_state(star, present), steps, rng)
    probs = state.probabilities()
    index = int(rng.choice(len(probs), p=probs / probs.sum()))
    counts = state_engine.basis_label(index, state.mode_count, state.n_max)
    return DetectionRecord(classify_herald(counts), counts=counts)


# ---------------------------------------------------------------------------
# CNOT-chain interferometer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("phi", [0.0, 0.7, 2.2])
@pytest.mark.parametrize("delta", [0.3, 1.0])
@pytest.mark.parametrize("g", [0.25, 1.0])
def test_cnot_distribution_matches_reference_table(phi, delta, g):
    src = StellarSource(phi=phi, g=g, epsilon=0.1)
    sim = cnot_distribution(src, ProtocolConfig(delta=delta))
    ref = analytic.cnot_outcome_table(phi, g, 0.1, delta)
    assert _maxdiff(sim, ref) < 1e-12


def test_cnot_distribution_with_ancilla_loss():
    src = StellarSource(phi=0.9, g=0.8, epsilon=0.1)
    sim = cnot_distribution(src, ProtocolConfig(delta=0.4, eta=0.6))
    ref = analytic.cnot_outcome_table(0.9, 0.8, 0.1, 0.4, eta=0.6)
    assert _maxdiff(sim, ref) < 1e-12


def test_cnot_distribution_normalized_and_single_rail():
    src = StellarSource(phi=1.3, g=0.5, epsilon=0.2)
    dist = cnot_distribution(src, ProtocolConfig(delta=0.8))
    np.testing.assert_allclose(sum(dist.values()), 1.0, atol=1e-10)
    # every surviving outcome is a 0/1 pattern: the interferometer never
    # leaves bunched photons on the detectors
    assert all(max(lab) <= 1 for lab in dist)
    assert all(len(lab) == 6 for lab in dist)


def test_herald_mass_split():
    # outer detectors agree exactly when the window held a photon
    phi, g, eps, eta = 0.6, 0.9, 0.1, 0.85
    src = StellarSource(phi=phi, g=g, epsilon=eps)
    dist = cnot_distribution(src, ProtocolConfig(delta=0.2, eta=eta))
    p00 = sum(p for lab, p in dist.items() if lab[0] == 0 and lab[5] == 0)
    p11 = sum(p for lab, p in dist.items() if lab[0] == 1 and lab[5] == 1)
    np.testing.assert_allclose(p00, eta * eps / 2.0, atol=1e-12)
    np.testing.assert_allclose(
        p11, eta * eps / 2.0 + (1.0 - eta) * (1.0 - eps), atol=1e-12
    )


def test_photon_outcome_mass_sums_to_arrival_probability():
    src = StellarSource(phi=0.6, g=0.9, epsilon=0.1)
    dist = cnot_distribution(src, ProtocolConfig(delta=0.2))
    agree = sum(p for lab, p in dist.items() if lab[0] == lab[5])
    np.testing.assert_allclose(agree, 0.1, atol=1e-12)


@pytest.mark.parametrize(
    "phi,delta,g,eta",
    [(0.3, 0.2, 1.0, 1.0), (1.1, 0.7, 0.6, 1.0), (2.2, 0.3, 0.8, 0.6), (0.0, 1.0, 0.25, 1.0)],
)
def test_variant_wirings_agree(phi, delta, g, eta):
    src = StellarSource(phi=phi, g=g, epsilon=0.1)
    seq = cnot_distribution(src, ProtocolConfig(delta=delta, eta=eta))
    ff = cnot_distribution(
        src, ProtocolConfig(delta=delta, eta=eta, variant=Variant.PARITY_FEED_FORWARD)
    )
    assert _maxdiff(seq, ff) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_cnot_distribution_parity_symmetry(phi, delta):
    # joint sign flip of both phases leaves every outcome unchanged
    left = cnot_distribution(
        StellarSource(phi=phi, g=0.8, epsilon=0.1), ProtocolConfig(delta=delta)
    )
    right = cnot_distribution(
        StellarSource(phi=-phi, g=0.8, epsilon=0.1), ProtocolConfig(delta=-delta)
    )
    assert _maxdiff(left, right) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_cnot_distribution_phase_periodicity(phi):
    src_a = StellarSource(phi=phi, g=0.7, epsilon=0.1)
    src_b = StellarSource(phi=phi + 2.0 * math.pi, g=0.7, epsilon=0.1)
    cfg = ProtocolConfig(delta=0.4)
    assert _maxdiff(cnot_distribution(src_a, cfg), cnot_distribution(src_b, cfg)) < 1e-12


def test_branch_decomposition_weights():
    src = StellarSource(phi=0.3, g=0.8, epsilon=0.1)
    cfg = ProtocolConfig(delta=0.2, eta=0.6)
    branches = cnot_branches(src, cfg)
    total = sum(w for _, _, w, _ in branches)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    present = sum(w for _, ok, w, _ in branches if ok)
    np.testing.assert_allclose(present, 0.6, atol=1e-12)
    for _, _, _, table in branches:
        np.testing.assert_allclose(sum(table.values()), 1.0, atol=1e-10)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("eta", [1.0, 0.6, 0.0])
def test_vacuum_branch_is_one_read_only_table_per_setting(variant, eta):
    # the vacuum branch is the V row of its setting's compiled law: one read-only row per
    # (setting, ancilla flag), whose labels lead the law's and whose entries are a walk's bits
    cfg = ProtocolConfig(delta=0.3, eta=eta, variant=variant)
    vacuum = state_engine.fock((0, 0), protocols.N_MAX)
    steps = protocols._cnot_steps(0.3, variant)
    rows = [row for row in cnot_branches(StellarSource(0.7, 0.8, 0.1), cfg) if row[0] == "vacuum"]
    assert [present for _, present, _, _ in rows] == [present for present, w in ((True, eta), (False, 1 - eta)) if w]
    for _, present, _, table in rows:
        # another star at the same setting reads the same table
        other = cnot_branches(StellarSource(-2.0, 0.1, 0.9), cfg)
        assert list(table.items()) == list(next(t for name, p, _, t in other if name == "vacuum" and p == present).items())
        # equal, in its order, to a fresh walk of the |00> branch
        fresh = protocols._count_table(protocols._cnot_input_state(vacuum, present), steps)
        assert list(table.items()) == list(fresh.items())
        labels, law = protocols._law(protocols._cnot_circuit, 0.3, variant, present)
        assert protocols._law(protocols._cnot_circuit, 0.3, variant, present)[1] is law
        assert labels[: len(table)] == tuple(table)
        with pytest.raises(ValueError, match="read-only"):
            law[0, 0] = 1.0
        anc = protocols._ancilla_factor(present, protocols.N_MAX)
        assert protocols._ancilla_factor(present, protocols.N_MAX) is anc
        with pytest.raises(ValueError, match="read-only"):
            anc.amplitudes[0] = 1.0


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
_ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 2.0]), st.floats(min_value=-math.pi, max_value=math.pi))


@settings(max_examples=80, deadline=None)
@given(
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    g=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    epsilon=_UNIT,
    eta=_UNIT,
    delta=_ANGLE,
    variant=st.sampled_from(list(Variant)),
)
def test_cnot_distribution_is_the_walked_mixture(phi, g, epsilon, eta, delta, variant):
    source, config = StellarSource(phi, g, epsilon), ProtocolConfig(delta, eta, variant)
    compiled, walked = cnot_distribution(source, config), walks.walked_cnot(source, config)
    assert min(compiled.values()) >= 0.0
    assert max(abs(compiled.get(k, 0.0) - walked.get(k, 0.0)) for k in compiled.keys() | walked.keys()) <= 1e-15


def test_warm_cnot_distribution_reads_read_only_rows_and_walks_no_circuit(monkeypatch):
    config = ProtocolConfig(0.3, 0.6, Variant.PARITY_FEED_FORWARD)
    cnot_distribution(StellarSource(0.7, 0.8, 0.1), config)  # compiles both ancilla flags
    for present in (True, False):
        labels, rows = protocols._law(protocols._cnot_circuit, 0.3, config.variant, present)
        assert rows.shape == (4, len(labels)) == (4, len(set(labels)))
        with pytest.raises(ValueError, match="read-only"):
            rows[1, 0] = 0.0
    calls = []
    walk_gate = protocols.apply_unitary
    monkeypatch.setattr(protocols, "apply_unitary", lambda *args: calls.append(args) or walk_gate(*args))
    assert cnot_distribution(StellarSource(-1.2, 0.3, 0.9), config)
    assert calls == []
    cnot_branches(StellarSource(-1.2, 0.3, 0.9), config)  # the sampler's tables still walk
    assert calls


def _haar_optics(seed):
    rng = np.random.default_rng(seed)
    labs = ((protocols.STAR_L4, protocols.ANC_L4), (protocols.STAR_R4, protocols.ANC_R4))
    return tuple(two_mode_unitary(unitary_group.rvs(2, random_state=rng), a, b, protocols.N_MAX) for a, b in labs)


# direct and gottesman: (the compiled table, its walked oracle) at (source, delta, seed); the
# six-mode circuit is held to its walk by test_cnot_distribution_is_the_walked_mixture
_COMPILED_AND_WALKED = {
    **{
        f"direct swap={swap}": lambda source, delta, seed, swap=swap: (
            direct_distribution(source, delta, swap), walks.walked_direct(source, delta, swap)
        )
        for swap in (False, True)
    },
    "gottesman": lambda source, delta, seed: (
        gottesman_distribution(source, delta), walks.walked_gottesman(source, delta)
    ),
    "gottesman, Haar optics": lambda source, delta, seed: (
        protocols._read_laws(
            source, [(1.0, *protocols._compile(protocols._gottesman_circuit(delta, _haar_optics(seed))))], "four-mode"
        ),
        walks.walked_gottesman(source, delta, _haar_optics(seed)),
    ),
}


@settings(max_examples=120, deadline=None)
@given(
    circuit=st.sampled_from(sorted(_COMPILED_AND_WALKED)),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    g=_UNIT,
    epsilon=_UNIT,
    delta=_ANGLE,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_direct_and_gottesman_tables_are_their_walks(circuit, phi, g, epsilon, delta, seed):
    # the law of each circuit, read at a source, is the mixture of its branches walked there
    compiled, walked = _COMPILED_AND_WALKED[circuit](StellarSource(phi, g, epsilon), delta, seed)
    assert min(compiled.values(), default=0.0) >= 0.0
    gaps = [abs(compiled.get(k, 0.0) - walked.get(k, 0.0)) for k in compiled.keys() | walked.keys()]
    assert max(gaps, default=0.0) <= 1e-15
    if circuit.startswith("direct"):
        assert list(compiled) == list(walked)


def test_warm_direct_and_gottesman_distributions_walk_no_circuit(monkeypatch):
    source = StellarSource(0.7, 0.8, 0.1)
    for swap in (False, True):
        direct_distribution(source, 0.3, swap)
    gottesman_distribution(source, 0.3)  # compiles each law once
    calls = []
    for name in ("apply_unitary", "project"):
        real = getattr(protocols, name)
        monkeypatch.setattr(protocols, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    other = StellarSource(-1.2, 0.3, 0.9)
    for swap in (False, True):
        assert direct_distribution(other, 0.3, swap)
    assert gottesman_distribution(other, 0.3)
    assert calls == []
    walks.walked_direct(other, 0.3)
    walks.walked_gottesman(other, 0.3)  # the walks themselves still reach both
    assert set(calls) == {"apply_unitary", "project"}


def test_validate_heralds_sound_reads_the_cached_vacuum_table():
    from qtelescopy import cli

    check = dict(cli._validate_checks())["heralds_sound"]
    assert check()[0]  # the first run may fill the table, the second reads it
    assert check() == (True, "photon windows agree, vacuum windows disagree")


def test_classify_herald_cases():
    assert classify_herald((1, 1, 0, 1, 0, 1)) is Herald.PHOTON_ARRIVED
    assert classify_herald((0, 0, 1, 1, 0, 0)) is Herald.PHOTON_ARRIVED
    assert classify_herald((1, 0, 1, 1, 0, 0)) is Herald.VACUUM
    assert classify_herald((0, 1, 0, 0, 1, 1)) is Herald.VACUUM
    assert classify_herald((2, 1, 0, 1, 0, 0)) is Herald.INVALID


@pytest.mark.parametrize("variant", list(Variant))
def test_window_sampler_agrees_with_per_window_circuit(variant):
    # the batched sampler draws from the same law as running the circuit
    # window by window, whose parity wiring collapses at each lab's readout;
    # compare herald rates between the two
    src = StellarSource(phi=0.7, g=1.0, epsilon=0.1)
    cfg = ProtocolConfig(delta=0.3, variant=variant)
    rng = np.random.default_rng(77)
    slow = [_collapse_cnot_window(src, cfg, rng) for _ in range(1200)]
    fast = sample_cnot_windows(src, cfg, 20_000, rng=np.random.default_rng(78))
    p_slow = sum(r.herald is Herald.PHOTON_ARRIVED for r in slow) / len(slow)
    p_fast = sum(rec.herald is Herald.PHOTON_ARRIVED for _, _, rec in fast) / len(fast)
    sigma = math.sqrt(0.1 * 0.9 * (1 / len(slow) + 1 / len(fast)))
    assert abs(p_slow - p_fast) < 4 * sigma


def test_sampled_heralds_match_branch_truth():
    src = StellarSource(phi=0.4, g=0.9, epsilon=0.2)
    cfg = ProtocolConfig(delta=0.5)
    for name, present, rec in sample_cnot_windows(src, cfg, 5000, rng=np.random.default_rng(5)):
        assert present  # eta = 1
        photon = name in ("plus", "minus")
        assert (rec.herald is Herald.PHOTON_ARRIVED) == photon


@pytest.mark.parametrize("variant", list(Variant))
def test_cnot_distribution_refuses_a_non_finite_readout_phase(variant):
    source = StellarSource(0.7, 1.0, 0.1)
    with pytest.raises(ValueError, match="not a finite angle"):
        cnot_distribution(source, ProtocolConfig(1e308, variant=variant))


def test_cached_gate_sequence_is_shared_and_read_only():
    # every call of a setting walks the same cached wiring, so no gate or
    # readout projector in it may be written to
    wirings = [(protocols._cnot_steps, (0.3, variant)) for variant in Variant]
    wirings += [(protocols._direct_steps, (0.3, 2, swap)) for swap in (False, True)]
    for build, args in wirings:
        steps = build(*args)
        assert build(*args) is steps
        gates = [step for step in steps if isinstance(step, state_engine.ModeUnitary)]
        readouts = [step for step in steps if not isinstance(step, state_engine.ModeUnitary)]
        for basis, then in readouts:
            assert len(then) == len(basis.outcomes)
            gates += [gate for after in then for gate in after]
            for proj in basis.projectors:
                with pytest.raises(ValueError, match="read-only"):
                    proj[0, 0] = 2.0
        for gate in gates:
            with pytest.raises(ValueError, match="read-only"):
                gate.matrix[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                gate.valid_mask[0] = False
    parity = protocols._cnot_steps(0.3, Variant.PARITY_FEED_FORWARD)
    assert [step[0].name for step in parity if isinstance(step, tuple)] == ["parity", "parity"]


def test_memory_window_builds_no_gather_table():
    # a gather table of the 18-mode register would hold 2 MiB of indices;
    # its gates are signed permutations and its readouts one-mode views
    misses = state_engine._gather.cache_info().misses
    run_memory_unmodified(15, 11, StellarSource(0.4, 0.9, 0.1), 0.3, rng_seed=2)
    assert state_engine._gather.cache_info().misses == misses


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(delta=0.1, eta=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(delta=0.1, eta=-0.1)
    assert Variant.parse("parity_feed_forward") is Variant.PARITY_FEED_FORWARD
    assert Variant.parse("cnot_sequence") is Variant.CNOT_SEQUENCE


# ---------------------------------------------------------------------------
# direct readout and the passive baseline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("swap", [False, True])
def test_direct_distribution_matches_reference(swap):
    phi, g, delta = 1.1, 0.75, 0.4
    src = StellarSource(phi=phi, g=g, epsilon=0.3)
    sim = direct_distribution(src, delta, swap_bases=swap)
    ref = analytic.direct_outcome_table(phi, g, delta, swap_bases=swap)
    assert _maxdiff(sim, ref) < 1e-12
    np.testing.assert_allclose(sum(sim.values()), 1.0, atol=1e-12)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-321])
def test_direct_distribution_at_subnormal_epsilon(epsilon):
    # the fringe branches weigh (1 +- g)/2 however rarely a photon arrives
    phi, g, delta = 1.1, 0.3, 0.4
    sim = direct_distribution(StellarSource(phi=phi, g=g, epsilon=epsilon), delta)
    ref = analytic.direct_outcome_table(phi, g, delta)
    assert set(sim) == set(ref)
    assert _maxdiff(sim, ref) < 1e-12
    assert direct_distribution(StellarSource(phi=phi, g=g, epsilon=0.0), delta) == {}


def test_direct_distribution_flat_at_zero_visibility():
    src = StellarSource(phi=0.9, g=0.0, epsilon=0.3)
    for p in direct_distribution(src, 0.6).values():
        np.testing.assert_allclose(p, 0.25, atol=1e-12)


def test_run_direct_window_deterministic(rng):
    src = StellarSource(phi=0.9, g=0.8, epsilon=0.3)
    a = [run_direct_window(src, 0.2, rng=np.random.default_rng(s)) for s in range(15)]
    b = [run_direct_window(src, 0.2, rng=np.random.default_rng(s)) for s in range(15)]
    assert a == b
    assert all(x in (-1, 1) and r in (-1, 1) for x, r in a)


@pytest.mark.parametrize("swap", [False, True])
def test_direct_window_frequencies_match_the_distribution(swap):
    # the sampled readout and the enumerated table walk the same wiring
    src = StellarSource(phi=0.9, g=0.8, epsilon=0.3)
    table = direct_distribution(src, 0.2, swap_bases=swap)
    rng = np.random.default_rng(41)
    n = 4000
    draws = [run_direct_window(src, 0.2, rng=rng, swap_bases=swap) for _ in range(n)]
    assert set(draws) <= set(table)
    for label, p in table.items():
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(draws.count(label) / n - p) < 4 * sigma


def test_gottesman_distribution_normalized():
    src = StellarSource(phi=0.7, g=1.0, epsilon=0.1)
    dist = gottesman_distribution(src, 0.3)
    np.testing.assert_allclose(sum(dist.values()), 1.0, atol=1e-10)


def test_gottesman_depends_on_phase_sum_only():
    g = 0.8
    d1 = gottesman_distribution(StellarSource(phi=0.9, g=g, epsilon=0.1), 0.4)
    d2 = gottesman_distribution(StellarSource(phi=1.3, g=g, epsilon=0.1), 0.0)
    assert _maxdiff(d1, d2) < 1e-12


def test_bound_search_never_beats_half_quota():
    # 25 random local passive dressings; the acceptance suite runs 1000
    best = linear_bound_search(25, rng_seed=4242)
    assert best <= 0.1 / 2.0 + 1e-6


# ---------------------------------------------------------------------------
# time-bin memory
# ---------------------------------------------------------------------------


def test_pairs_for_bins():
    assert pairs_for_bins(1) == 1
    assert pairs_for_bins(3) == 2
    assert pairs_for_bins(7) == 3
    assert pairs_for_bins(15) == 4
    assert pairs_for_bins(8) == 4


def test_bin_digits_most_significant_first():
    assert bin_digits(3, 3) == (0, 1, 1)
    assert bin_digits(4, 3) == (1, 0, 0)
    assert bin_digits(0, 2) == (0, 0)
    assert bin_digits(15, 4) == (1, 1, 1, 1)


def test_encode_flips_pairs_for_set_digits():
    reg = encode_time_bin_modified(bell_register(3), 3)
    overlaps = []
    for pair in reg.pairs:
        plus = abs(np.vdot(protocols.BELL_PLUS, pair))
        minus = abs(np.vdot(protocols.BELL_MINUS, pair))
        overlaps.append("+" if plus > minus else "-")
    assert overlaps == ["+", "-", "-"]


def test_encode_rejects_out_of_range_bin():
    with pytest.raises(ValueError):
        encode_time_bin_modified(bell_register(2), 4)
    with pytest.raises(ValueError):
        encode_time_bin_modified(bell_register(2), -1)


def test_encode_no_photon_leaves_register_untouched():
    reg = encode_time_bin_modified(bell_register(2), NO_PHOTON)
    for pair in reg.pairs:
        np.testing.assert_allclose(pair, protocols.BELL_PLUS, atol=1e-14)


@pytest.mark.parametrize("n_bins", [3, 7])
def test_modified_memory_round_trip(n_bins):
    rng = np.random.default_rng(11)
    for arrival in [NO_PHOTON] + list(range(1, n_bins + 1)):
        reg = encode_time_bin_modified(bell_register(pairs_for_bins(n_bins)), arrival)
        assert decode_time_bin(reg, rng=rng) == arrival


def _pair_formula_decode(register, rng):
    """Oracle decoder: each pair's joint X outcome probabilities written out
    from its amplitudes, one ``rng.choice`` per pair."""
    combos = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    n = 0
    for pair in register.pairs:
        amps = [(pair[0] + x_r * pair[1] + x_l * pair[2] + x_l * x_r * pair[3]) / 2.0 for x_l, x_r in combos]
        probs = np.abs(amps) ** 2
        x_l, x_r = combos[int(rng.choice(4, p=probs / probs.sum()))]
        n = (n << 1) | int(x_l != x_r)
    return NO_PHOTON if n == 0 else n


@pytest.mark.parametrize("n_bins", [1, 3, 7, 15])
def test_decode_time_bin_matches_the_pair_amplitude_formula(n_bins):
    for arrival in [NO_PHOTON] + list(range(1, n_bins + 1)):
        reg = encode_time_bin_modified(bell_register(pairs_for_bins(n_bins)), arrival)
        for seed in range(20):
            engine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            assert decode_time_bin(reg, engine) == _pair_formula_decode(reg, oracle)
            assert engine.random() == oracle.random()


def test_run_memory_modified_full_window():
    src = StellarSource(phi=0.4, g=1.0, epsilon=0.1)
    res = run_memory_modified(7, 3, src, delta=0.3, rng_seed=2)
    assert isinstance(res, MemoryRunResult)
    assert res.decoded == 3
    assert res.outcome[0] in (-1, 1) and res.outcome[1] in (-1, 1)
    ref = analytic.direct_outcome_table(0.4, 1.0, 0.3)
    assert _maxdiff(res.final_distribution, ref) < 1e-12


def test_run_memory_modified_no_photon():
    src = StellarSource(phi=0.4, g=1.0, epsilon=0.1)
    res = run_memory_modified(7, NO_PHOTON, src, delta=0.3, rng_seed=2)
    assert res.decoded is NO_PHOTON
    assert res.outcome is None
    assert res.final_distribution is None


@pytest.mark.parametrize("arrival", [NO_PHOTON, 1, 4, 7])
def test_unmodified_memory_round_trip(arrival):
    src = StellarSource(phi=0.4, g=0.9, epsilon=0.1)
    res = run_memory_unmodified(7, arrival, src, delta=0.3, rng_seed=5)
    assert res.decoded == arrival


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("n_bins", [3, 7, 15])
def test_unmodified_final_distribution_obeys_sign_rule(n_bins, swap):
    # P(+/-) = (1 +/- (-1)^{n_minus} g cos(phi +/- delta)) / 2, where the
    # swapped readout measures the left memory qubit and flips delta; every
    # measured mode leaves the register, so a wrong remap of the remaining
    # modes shows up here, and g in {0, 0.9, 1} pins the weights of the
    # fringe mixture, which an ancilla purifies after the pair readouts
    for g in (0.0, 0.9, 1.0):
        src = StellarSource(phi=0.4, g=g, epsilon=0.1)
        for arrival in range(1, n_bins + 1):
            res = run_memory_unmodified(n_bins, arrival, src, 0.3, rng_seed=arrival, swap_bases=swap)
            ref = analytic.memory_final_probs(res.n_minus, 0.4, g, -0.3 if swap else 0.3)
            assert res.decoded == arrival
            assert set(res.final_distribution) == set(ref)
            assert _maxdiff(res.final_distribution, ref) < 1e-12


def test_samplers_draw_a_deterministic_fringe():
    # at g = 1 and delta = -phi the fringe is deterministic: the impossible
    # outcome's weight can come out as a round-off negative, which the
    # readouts count as zero instead of passing it to rng.choice
    for phi in np.linspace(-math.pi, math.pi, 31):
        src = StellarSource(phi=phi, g=1.0, epsilon=0.1)
        for seed in range(3):
            left, right = run_direct_window(src, -phi, rng=seed)
            assert left == right
            left, right = run_memory_modified(3, 2, src, -phi, rng_seed=seed).outcome
            assert left == right
            for arrival in (1, 2, 3):
                res = run_memory_unmodified(3, arrival, src, -phi, rng_seed=seed)
                assert res.outcome == (-1) ** res.n_minus


def test_unmodified_swap_bases_flips_fringe_sign():
    src = StellarSource(phi=0.4, g=0.9, epsilon=0.1)
    res = run_memory_unmodified(7, 2, src, delta=0.3, rng_seed=9, swap_bases=True)
    ref = analytic.memory_final_probs(res.n_minus, 0.4, 0.9, -0.3)
    assert _maxdiff(res.final_distribution, ref) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 1023).flatmap(
        lambda n: st.tuples(st.just(n), st.one_of(st.just(NO_PHOTON), st.integers(1, n)))
    ),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_unmodified_memory_over_the_parameter_box(bins_and_arrival, phi, g, delta, swap, seed):
    n_bins, arrival = bins_and_arrival
    res = run_memory_unmodified(
        n_bins, arrival, StellarSource(phi, g, 0.1), delta, rng_seed=seed, swap_bases=swap
    )
    assert res.decoded == arrival
    if arrival is NO_PHOTON:
        assert res.outcome is None and res.final_distribution is None
        return
    ref = analytic.memory_final_probs(res.n_minus, phi, g, -delta if swap else delta)
    assert set(res.final_distribution) == set(ref)
    assert _maxdiff(res.final_distribution, ref) < 1e-12
    assert res.outcome in ref


_NON_INTEGRAL = [(7, 2.5), (7, True), (7, "3"), (7, 3.0), (7.9, 3), (7.0, 3), ("7", 3), (True, NO_PHOTON)]


@pytest.mark.parametrize("run", [run_memory_unmodified, run_memory_modified])
@pytest.mark.parametrize("n_bins, arrival", _NON_INTEGRAL)
def test_memory_protocols_refuse_non_integral_bins(run, n_bins, arrival):
    # int() would truncate: 2.5 ran as bin 2, True as bin 1, 7.9 bins as 7
    with pytest.raises((TypeError, ValueError)):
        run(n_bins, arrival, StellarSource(0.4, 0.9, 0.1), 0.3, rng_seed=1)


@pytest.mark.parametrize("n_bins", [7.9, 7.0, "7", True])
def test_memory_resources_refuse_non_integral_bins(n_bins):
    with pytest.raises((TypeError, ValueError)):
        memory_resources(n_bins, modified=False)
    with pytest.raises((TypeError, ValueError)):
        pairs_for_bins(n_bins)


def test_memory_protocols_take_numpy_integers():
    src = StellarSource(0.4, 0.9, 0.1)
    for run in (run_memory_unmodified, run_memory_modified):
        assert run(np.int64(7), np.int32(3), src, 0.3, rng_seed=1).decoded == 3
    assert memory_resources(np.int64(7), modified=True).n_pairs == 3


def test_memory_resources_halved():
    for n_bins in (3, 7, 15):
        mod = memory_resources(n_bins, modified=True)
        unmod = memory_resources(n_bins, modified=False)
        assert mod.n_pairs == unmod.n_pairs == pairs_for_bins(n_bins)
        assert mod.memory_qubits == 0
        assert unmod.memory_qubits == 2 * unmod.n_pairs
        assert 2 * mod.total_ancilla_qubits == unmod.total_ancilla_qubits
        assert 2 * mod.encode_gates_per_lab == unmod.encode_gates_per_lab
