"""Acceptance suite: ten go/no-go checks for the full toolkit.

Each test is one criterion; the session-level reporter in conftest.py
prints one PASS/FAIL line per criterion at the end of the run.  Tolerances
are pinned here and must not be loosened: 1e-12 for circuit-vs-reference
agreement, 1e-8 for Fisher-information identities, 1e-10 for closed-form
SLDs, 3-sigma for empirical frequencies.

Grid notes.  The distribution checks (criteria 1 and 10) run on the full
phase grid including fringe extrema.  The Fisher checks (criteria 2 and 3)
run on a grid that avoids sin(phi + delta) = 0 and sin(phi - delta) = 0:
at those isolated points every fringe readout is first-order insensitive
to phi and its pointwise Fisher information genuinely drops to zero, so
the constant-information identity is a statement about the regular points
only.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qtelescopy import analytic, estimation, fisher, protocols, sources
from qtelescopy.estimation import ExperimentPlan, crb_report, mle_phase, run_experiment, wrap_phase
from qtelescopy.fisher import classical_fisher, qfi_matrix, saturability_check, sld
from qtelescopy.protocols import (
    Herald,
    ProtocolConfig,
    Variant,
    bell_register,
    cnot_distribution,
    decode_time_bin,
    encode_time_bin_modified,
    gottesman_distribution,
    linear_bound_search,
    memory_resources,
    pairs_for_bins,
    run_memory_modified,
    run_memory_unmodified,
    sample_cnot_windows,
)
from qtelescopy.sources import NO_PHOTON, StellarSource

PHASE_GRID = (0.0, 0.3, 1.0, 2.2, math.pi)
VISIBILITY_GRID = (0.25, 0.5, 1.0)
EPSILON = 0.1
HALF_PI = math.pi / 2.0

# regular points only: phi +/- delta stays away from every multiple of pi
FISHER_PHI_GRID = (0.4, 0.7, 1.9, 2.8)
FISHER_DELTA_GRID = (0.2, 0.3, 1.1)


def _maxdiff(d1, d2):
    keys = set(d1) | set(d2)
    return max(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) for k in keys)


def _cnot_model(delta, eta=1.0):
    def dist(phi, g):
        src = StellarSource(phi=phi, g=g, epsilon=EPSILON)
        return cnot_distribution(src, ProtocolConfig(delta=delta, eta=eta))

    return fisher.OutcomeModel(dist, tuple(sorted(dist(0.7, 1.0))))


def _gottesman_model(delta):
    def dist(phi, g):
        return gottesman_distribution(StellarSource(phi=phi, g=g, epsilon=EPSILON), delta)

    return fisher.OutcomeModel(dist, tuple(sorted(dist(0.7, 1.0))))


def test_criterion_01_circuit_distribution_matches_reference():
    """Simulated CNOT-chain outcome table vs frozen reference, full grid, < 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for phi in PHASE_GRID:
        for delta in PHASE_GRID:
            for g in VISIBILITY_GRID:
                src = StellarSource(phi=phi, g=g, epsilon=EPSILON)
                sim = cnot_distribution(src, ProtocolConfig(delta=delta))
                ref = analytic.cnot_outcome_table(phi, g, EPSILON, delta)
                worst = max(worst, _maxdiff(sim, ref))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst deviation {worst:.3e}"
    assert elapsed < 5.0, f"grid took {elapsed:.2f} s"


def test_criterion_02_cnot_fisher_saturates_qfi():
    """Per-window Fisher = epsilon at g=1, equal to the SLD-route QFI, 1e-8."""
    for phi in FISHER_PHI_GRID:
        for delta in FISHER_DELTA_GRID:
            fm = classical_fisher(_cnot_model(delta), at=(phi, 1.0), wrt=("phi",))
            assert abs(fm.phi_phi - EPSILON) < 1e-8, (phi, delta, fm.phi_phi)

            rho = sources.single_photon_conditional(
                StellarSource(phi=phi, g=1.0, epsilon=EPSILON)
            )
            h = qfi_matrix(rho, drho_phi=sources.conditional_phi_derivative(phi, 1.0))
            per_window_qfi = EPSILON * h.phi_phi
            assert abs(fm.phi_phi - per_window_qfi) < 1e-8


def test_criterion_03_baseline_fisher_gap_and_bound_search():
    """Passive baseline sits at epsilon/2; no random dressing beats it."""
    for phi in FISHER_PHI_GRID:
        for delta in FISHER_DELTA_GRID:
            fm = classical_fisher(_gottesman_model(delta), at=(phi, 1.0), wrt=("phi",))
            assert abs(fm.phi_phi - EPSILON / 2.0) < 1e-8, (phi, delta, fm.phi_phi)

    best = linear_bound_search(1000, rng_seed=20260825)
    assert best <= EPSILON / 2.0 + 1e-6, f"bound search reached {best:.6f}"


def test_criterion_04_sld_closed_forms_and_residuals():
    """Numerical SLDs match the closed forms (1e-10) and solve the defining equation."""
    for g in (0.3, 0.7):
        for phi in (0.0, 1.0, 2.5):
            rho = sources.single_photon_conditional(
                StellarSource(phi=phi, g=g, epsilon=EPSILON)
            )
            d_phi = sources.conditional_phi_derivative(phi, g)
            d_g = sources.conditional_g_derivative(phi, g)
            l_phi = sld(rho, d_phi)
            l_g = sld(rho, d_g)
            assert np.abs(l_phi - analytic.sld_phi(phi, g)).max() < 1e-10
            assert np.abs(l_g - analytic.sld_g(phi, g)).max() < 1e-10
            assert np.abs(l_phi @ rho + rho @ l_phi - 2.0 * d_phi).max() < 1e-10
            assert np.abs(l_g @ rho + rho @ l_g - 2.0 * d_g).max() < 1e-10


def test_criterion_05_sld_noncommutativity_witness():
    """The SLDs fail to commute on the support at g = 0.5.

    The plain expectation Tr(rho [L_phi, L_g]) vanishes identically for this
    family, so the operative witness is the support-weighted commutator norm
    || rho [L_phi, L_g] ||_1, which must clear 1e-8.
    """
    rho = sources.single_photon_conditional(StellarSource(phi=0.7, g=0.5, epsilon=EPSILON))
    l_phi = sld(rho, sources.conditional_phi_derivative(0.7, 0.5))
    l_g = sld(rho, sources.conditional_g_derivative(0.7, 0.5))
    witness = saturability_check(rho, l_phi, l_g)
    assert witness > 1e-8, f"witness {witness:.3e}"
    # commutator itself is nonzero even though its bare trace with rho is not
    assert abs(fisher.sld_commutation_trace(rho, l_phi, l_g)) < 1e-12


def test_criterion_06_heralding_zero_exceptions():
    """10^5 windows: photon windows agree on the outer detectors, vacuum disagree."""
    src = StellarSource(phi=0.7, g=1.0, epsilon=EPSILON)
    cfg = ProtocolConfig(delta=0.3)
    windows = sample_cnot_windows(src, cfg, 100_000, rng=np.random.default_rng(606))
    assert len(windows) == 100_000
    violations = 0
    for branch, present, rec in windows:
        assert present
        agree = rec.counts[0] == rec.counts[5]
        photon = branch in ("plus", "minus")
        if agree != photon:
            violations += 1
        if rec.herald is Herald.INVALID:
            violations += 1
        if (rec.herald is Herald.PHOTON_ARRIVED) != agree:
            violations += 1
    assert violations == 0


def test_criterion_07_loss_model_frequencies_and_fisher():
    """eta = 0.6: herald rates match the loss model within 3 sigma; reported Fisher = eta*epsilon."""
    eta = 0.6
    n = 100_000
    src = StellarSource(phi=0.7, g=1.0, epsilon=EPSILON)
    cfg = ProtocolConfig(delta=0.3, eta=eta)
    windows = sample_cnot_windows(src, cfg, n, rng=np.random.default_rng(707))

    n00 = sum(1 for _, _, rec in windows if rec.counts[0] == 0 and rec.counts[5] == 0)
    n11 = sum(1 for _, _, rec in windows if rec.counts[0] == 1 and rec.counts[5] == 1)
    p00 = eta * EPSILON / 2.0
    p11 = eta * EPSILON / 2.0 + (1.0 - eta) * (1.0 - EPSILON)
    sigma00 = math.sqrt(p00 * (1.0 - p00) / n)
    sigma11 = math.sqrt(p11 * (1.0 - p11) / n)
    assert abs(n00 / n - p00) < 3.0 * sigma00, (n00 / n, p00)
    assert abs(n11 / n - p11) < 3.0 * sigma11, (n11 / n, p11)

    rep = crb_report("cnot", src, (0.0, HALF_PI), eta=eta)
    assert abs(rep.fisher_per_window - eta * EPSILON) < 1e-8


def test_criterion_08_memory_round_trip_and_resources(tmp_path):
    """Exhaustive time-bin round trips, worked transcript, sign rule, half quota."""
    src = StellarSource(phi=0.4, g=1.0, epsilon=EPSILON)

    for n_bins in (3, 7, 15):
        n_pairs = pairs_for_bins(n_bins)
        for arrival in [NO_PHOTON] + list(range(1, n_bins + 1)):
            reg = encode_time_bin_modified(bell_register(n_pairs), arrival)
            assert decode_time_bin(reg, rng=np.random.default_rng(1)) == arrival
            res = run_memory_unmodified(
                n_bins, arrival, src, delta=0.3, rng_seed=13
            )
            assert res.decoded == arrival

    # worked example: bin 3 of 7 flips the two low-order pairs
    demo_cfg = tmp_path / "demo.json"
    demo_cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "protocol": "cnot",
                "epsilon": 0.1,
                "g": 1.0,
                "phi": 0.4,
                "delta": 0.3,
                "n_bins": 7,
                "seed": 4,
            }
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "qtelescopy.cli", "memory-demo", "--config", str(demo_cfg)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "|Φ+⟩|Φ−⟩|Φ−⟩" in proc.stdout

    # final-measurement fringe carries (-1)^{n_minus}
    src_frail = StellarSource(phi=0.4, g=0.9, epsilon=EPSILON)
    for arrival in range(1, 8):
        res = run_memory_unmodified(7, arrival, src_frail, delta=0.3, rng_seed=arrival)
        ref = analytic.memory_final_probs(res.n_minus, 0.4, 0.9, 0.3)
        assert _maxdiff(res.final_distribution, ref) < 1e-12

    for n_bins in (3, 7, 15):
        mod = memory_resources(n_bins, modified=True)
        unmod = memory_resources(n_bins, modified=False)
        assert 2 * mod.total_ancilla_qubits == unmod.total_ancilla_qubits


def test_criterion_09_mle_efficiency_and_runtime():
    """Wrapped error < 0.02 at M=10^5; MSE/CRB in [0.9, 1.3] over 200 reps; < 2 min."""
    start = time.perf_counter()
    src = StellarSource(phi=0.7, g=1.0, epsilon=EPSILON)
    schedule = (0.0, HALF_PI)

    big = ExperimentPlan("cnot", src, schedule, 100_000, seed=909)
    report = mle_phase(run_experiment(big), big)
    err = wrap_phase(report.phi_hat - 0.7)
    assert abs(err) < 0.02, f"wrapped error {err:.4f}"

    n_reps, m = 200, 10_000
    crb = crb_report("cnot", src, schedule).crb_for(m)
    sq_errors = []
    for k in range(n_reps):
        plan = ExperimentPlan("cnot", src, schedule, m, seed=1000 + k)
        rep = mle_phase(run_experiment(plan), plan)
        sq_errors.append(wrap_phase(rep.phi_hat - 0.7) ** 2)
    ratio = float(np.mean(sq_errors)) / crb
    elapsed = time.perf_counter() - start
    assert 0.9 < ratio < 1.3, f"MSE/CRB = {ratio:.3f}"
    assert elapsed < 120.0, f"criterion took {elapsed:.1f} s"


def test_criterion_10_variant_equivalence():
    """Gate-sequence and feed-forward wirings give identical tables, full grid."""
    worst = 0.0
    for phi in PHASE_GRID:
        for delta in PHASE_GRID:
            for g in VISIBILITY_GRID:
                src = StellarSource(phi=phi, g=g, epsilon=EPSILON)
                seq = cnot_distribution(src, ProtocolConfig(delta=delta))
                ff = cnot_distribution(
                    src,
                    ProtocolConfig(delta=delta, variant=Variant.PARITY_FEED_FORWARD),
                )
                worst = max(worst, _maxdiff(seq, ff))
    assert worst < 1e-12, f"worst variant gap {worst:.3e}"
