"""Fisher-information machinery: finite differences, SLDs, bounds.

Closed forms used as oracles (single-photon conditional state, parameters
(phi, g)):

    fringe Fisher   f(theta) = g^2 sin^2(theta) / (1 - g^2 cos^2(theta))
    QFI             H = diag(g^2, 1/(1-g^2))
    witness         || rho [L_phi, L_g] ||_1 = 2g / (1 - g^2)

All were derived by hand from the 2x2 block and double-checked against
high-order numerical differentiation before being frozen here.
"""

import math

import numpy as np
import pytest

from qtelescopy import analytic, fisher, sources
from qtelescopy.errors import (
    FisherDivergenceError,
    GBoundaryError,
    KernelSupportError,
    NumericalInvariantError,
)


def _direct_model(delta):
    def dist(phi, g):
        return analytic.direct_outcome_table(phi, g, delta)

    return fisher.OutcomeModel.from_distribution(dist, anchor=(0.7, 0.8))


def _conditional(phi, g):
    return sources.single_photon_conditional(
        sources.StellarSource(phi=phi, g=g, epsilon=0.1)
    )


class TestOutcomeModel:
    def test_probs_accepts_valid_distribution(self):
        model = _direct_model(0.3)
        p = model.probs(0.7, 0.8)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_rejects_distribution_that_does_not_normalize(self):
        model = fisher.OutcomeModel(
            distribution=lambda phi, g: {"a": 0.4, "b": 0.4},
            outcomes=("a", "b"),
        )
        with pytest.raises(NumericalInvariantError):
            model.probs(0.0, 0.5)

    def test_rejects_negative_probability(self):
        model = fisher.OutcomeModel(
            distribution=lambda phi, g: {"a": -0.1, "b": 1.1},
            outcomes=("a", "b"),
        )
        with pytest.raises(NumericalInvariantError):
            model.probs(0.0, 0.5)

    def test_rejects_outcome_outside_declared_support(self):
        model = fisher.OutcomeModel(
            distribution=lambda phi, g: {"a": 0.5, "c": 0.5},
            outcomes=("a", "b"),
        )
        with pytest.raises(NumericalInvariantError):
            model.probs(0.0, 0.5)


@pytest.mark.parametrize("phi", [0.4, 0.7, 1.9])
@pytest.mark.parametrize("g", [0.3, 0.8])
def test_classical_fisher_matches_fringe_formula(phi, g):
    delta = 0.3
    model = _direct_model(delta)
    fm = fisher.classical_fisher(model, at=(phi, g), wrt=("phi",))
    np.testing.assert_allclose(
        fm.phi_phi, analytic.fringe_fisher(phi + delta, g), atol=1e-9
    )


def test_classical_fisher_two_parameter_symmetry():
    model = _direct_model(0.3)
    fm = fisher.classical_fisher(model, at=(0.7, 0.8))
    assert fm.matrix.shape == (2, 2)
    np.testing.assert_allclose(fm.matrix, fm.matrix.T, atol=1e-12)
    assert np.linalg.eigvalsh(fm.matrix).min() >= -1e-12


def test_classical_fisher_richardson_beats_plain_differences():
    # the extrapolated estimate should be well inside 1e-9 of the closed form
    model = _direct_model(0.2)
    fm = fisher.classical_fisher(model, at=(1.1, 0.6), wrt=("phi",))
    exact = analytic.fringe_fisher(1.3, 0.6)
    assert abs(fm.phi_phi - exact) < 1e-10


def test_g_derivative_refused_at_unit_visibility():
    model = _direct_model(0.3)
    with pytest.raises(GBoundaryError):
        fisher.classical_fisher(model, at=(0.7, 1.0))


def test_phi_derivative_allowed_at_unit_visibility():
    model = _direct_model(0.3)
    fm = fisher.classical_fisher(model, at=(0.7, 1.0), wrt=("phi",))
    np.testing.assert_allclose(fm.phi_phi, 1.0, atol=1e-8)


def test_divergent_outcome_raises():
    # at g=1 and phi+delta ~ 0 one fringe outcome sits below the probability
    # floor while its slope is still resolvable: 1/p blows up
    model = _direct_model(0.0)
    with pytest.raises(FisherDivergenceError):
        fisher.classical_fisher(model, at=(1e-6, 1.0), wrt=("phi",))


def test_vanishing_outcome_with_flat_slope_is_dropped():
    # exactly at the extremum the dead fringe carries no first-order
    # information, so it is masked rather than flagged
    model = _direct_model(0.0)
    fm = fisher.classical_fisher(model, at=(0.0, 1.0), wrt=("phi",))
    np.testing.assert_allclose(fm.phi_phi, 0.0, atol=1e-8)


@pytest.mark.parametrize("g", [0.3, 0.7])
@pytest.mark.parametrize("phi", [0.0, 1.0, 2.5])
def test_sld_solves_lyapunov_equation(phi, g):
    rho = _conditional(phi, g)
    for drho in (
        sources.conditional_phi_derivative(phi, g),
        sources.conditional_g_derivative(phi, g),
    ):
        ell = fisher.sld(rho, drho)
        np.testing.assert_allclose(ell, ell.conj().T, atol=1e-12)
        residual = ell @ rho + rho @ ell - 2.0 * drho
        assert np.abs(residual).max() < 1e-12


@pytest.mark.parametrize("g", [0.3, 0.7])
@pytest.mark.parametrize("phi", [0.0, 1.0, 2.5])
def test_sld_closed_forms(phi, g):
    rho = _conditional(phi, g)
    l_phi = fisher.sld(rho, sources.conditional_phi_derivative(phi, g))
    l_g = fisher.sld(rho, sources.conditional_g_derivative(phi, g))
    np.testing.assert_allclose(l_phi, analytic.sld_phi(phi, g), atol=1e-12)
    np.testing.assert_allclose(l_g, analytic.sld_g(phi, g), atol=1e-12)


def test_sld_for_g_fails_on_rank_deficient_state():
    # at g=1 the conditional state is pure and d rho/d g pushes weight into
    # the kernel, so no SLD exists there
    rho = _conditional(0.7, 1.0)
    with pytest.raises(KernelSupportError):
        fisher.sld(rho, sources.conditional_g_derivative(0.7, 1.0))


def test_sld_for_phi_exists_on_rank_deficient_state():
    rho = _conditional(0.7, 1.0)
    ell = fisher.sld(rho, sources.conditional_phi_derivative(0.7, 1.0))
    residual = ell @ rho + rho @ ell - 2.0 * sources.conditional_phi_derivative(0.7, 1.0)
    assert np.abs(residual).max() < 1e-10


@pytest.mark.parametrize("g", [0.2, 0.5, 0.9])
def test_qfi_closed_form(g):
    phi = 1.3
    rho = _conditional(phi, g)
    h = fisher.qfi_matrix(
        rho,
        drho_phi=sources.conditional_phi_derivative(phi, g),
        drho_g=sources.conditional_g_derivative(phi, g),
    )
    np.testing.assert_allclose(h.matrix, analytic.qfi_closed_form(g), atol=1e-10)


def test_information_inequality_on_grid():
    # classical Fisher of any fixed measurement never exceeds the QFI
    # (matrix order); checked for the fringe readout across a grid
    delta = 0.3
    model = _direct_model(delta)
    for phi in (0.4, 0.9, 1.7, 2.6):
        for g in (0.2, 0.5, 0.8):
            fm = fisher.classical_fisher(model, at=(phi, g))
            h = fisher.qfi_matrix(
                _conditional(phi, g),
                drho_phi=sources.conditional_phi_derivative(phi, g),
                drho_g=sources.conditional_g_derivative(phi, g),
            )
            gap = h.matrix - fm.matrix
            assert np.linalg.eigvalsh(gap).min() > -1e-7


@pytest.mark.parametrize("g", [0.2, 0.5, 0.9])
def test_saturability_witness_closed_form(g):
    phi = 0.7
    rho = _conditional(phi, g)
    l_phi = fisher.sld(rho, sources.conditional_phi_derivative(phi, g))
    l_g = fisher.sld(rho, sources.conditional_g_derivative(phi, g))
    witness = fisher.saturability_check(rho, l_phi, l_g)
    np.testing.assert_allclose(witness, analytic.saturability_closed_form(g), atol=1e-10)


def test_plain_commutator_expectation_vanishes_identically():
    # Tr(rho [L_phi, L_g]) is zero for every (phi, g) even though the SLDs do
    # not commute; only the support-weighted norm detects the obstruction
    for g in (0.2, 0.5, 0.9):
        rho = _conditional(0.7, g)
        l_phi = fisher.sld(rho, sources.conditional_phi_derivative(0.7, g))
        l_g = fisher.sld(rho, sources.conditional_g_derivative(0.7, g))
        assert abs(fisher.sld_commutation_trace(rho, l_phi, l_g)) < 1e-12


def test_fisher_matrix_accessors():
    m = fisher.FisherMatrix(matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert m.phi_phi == 2.0
    assert m.g_g == 1.0
    assert m.phi_g == 0.5
