"""Source-model tests: weak thermal two-mode state and arrival sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtelescopy import sources, state_engine as se


def _manual_density(phi, g, epsilon):
    """Hand-built reference: (1-eps)|00><00| + eps * rho_c on the photon block."""
    dim = 9
    rho = np.zeros((dim, dim), dtype=complex)
    i00 = se.basis_index((0, 0), 2)
    i10 = se.basis_index((1, 0), 2)
    i01 = se.basis_index((0, 1), 2)
    rho[i00, i00] = 1.0 - epsilon
    nu = g * np.exp(-1j * phi)
    rho[i10, i10] = epsilon / 2.0
    rho[i01, i01] = epsilon / 2.0
    rho[i10, i01] = epsilon * np.conj(nu) / 2.0
    rho[i01, i10] = epsilon * nu / 2.0
    return rho


def _window_density(src):
    """The window state as the mixture of the source's pure branches."""
    return sum(w * np.outer(state.amplitudes, state.amplitudes.conj()) for w, state in src.pure_branches(2))


@pytest.mark.parametrize("phi,g,epsilon", [(0.0, 1.0, 0.1), (0.7, 0.8, 0.05), (2.5, 0.3, 0.5)])
def test_density_operator_structure(phi, g, epsilon):
    src = sources.StellarSource(phi=phi, g=g, epsilon=epsilon)
    rho = _window_density(src)
    np.testing.assert_allclose(rho, _manual_density(phi, g, epsilon), atol=1e-14)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-14


def test_mutual_coherence_definition():
    src = sources.StellarSource(phi=0.7, g=0.8, epsilon=0.1)
    np.testing.assert_allclose(
        src.mutual_coherence, 0.8 * np.exp(-1j * 0.7), atol=1e-15
    )


def test_single_photon_conditional_block():
    src = sources.StellarSource(phi=1.2, g=0.6, epsilon=0.2)
    block = sources.single_photon_conditional(src)
    assert block.shape == (2, 2)
    np.testing.assert_allclose(np.trace(block), 1.0, atol=1e-14)
    # ordering is (|10>, |01>); the off-diagonal carries the coherence
    np.testing.assert_allclose(block[0, 1], 0.6 * np.exp(1j * 1.2) / 2.0, atol=1e-14)
    np.testing.assert_allclose(block[1, 0], np.conj(block[0, 1]), atol=1e-14)
    np.testing.assert_allclose(block[0, 0], 0.5, atol=1e-14)


def test_conditional_undefined_at_zero_epsilon():
    src = sources.StellarSource(phi=0.0, g=0.5, epsilon=0.0)
    with pytest.raises(ValueError):
        sources.single_photon_conditional(src)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_conditional_purity_closed_form(phi, g):
    rho = sources.single_photon_conditional(sources.StellarSource(phi=phi, g=g, epsilon=0.1))
    np.testing.assert_allclose(np.trace(rho @ rho).real, (1.0 + g * g) / 2.0, atol=1e-12)


def test_pure_branches_reconstruct_density():
    src = sources.StellarSource(phi=0.9, g=0.7, epsilon=0.15)
    np.testing.assert_allclose(sum(w for w, _ in src.pure_branches(2)), 1.0, atol=1e-14)
    np.testing.assert_allclose(_window_density(src), _manual_density(0.9, 0.7, 0.15), atol=1e-14)


def test_pure_branch_weights():
    src = sources.StellarSource(phi=0.9, g=0.7, epsilon=0.15)
    weights = sorted(w for w, _ in src.pure_branches(2))
    expected = sorted([0.85, 0.15 * 1.7 / 2.0, 0.15 * 0.3 / 2.0])
    np.testing.assert_allclose(weights, expected, atol=1e-14)


def test_conditional_derivatives_match_finite_differences():
    phi, g = 0.8, 0.6
    h = 1e-6

    def block(p, v):
        return sources.single_photon_conditional(
            sources.StellarSource(phi=p, g=v, epsilon=0.1)
        )

    d_phi = (block(phi + h, g) - block(phi - h, g)) / (2.0 * h)
    d_g = (block(phi, g + h) - block(phi, g - h)) / (2.0 * h)
    np.testing.assert_allclose(
        sources.conditional_phi_derivative(phi, g), d_phi, atol=1e-9
    )
    np.testing.assert_allclose(sources.conditional_g_derivative(phi, g), d_g, atol=1e-9)


def test_source_parameter_validation():
    with pytest.raises(ValueError):
        sources.StellarSource(phi=0.0, g=1.5, epsilon=0.1)
    with pytest.raises(ValueError):
        sources.StellarSource(phi=0.0, g=0.5, epsilon=-0.1)
    with pytest.raises(ValueError):
        sources.StellarSource(phi=0.0, g=0.5, epsilon=1.5)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi"):
            sources.StellarSource(phi=phi, g=0.5, epsilon=0.1)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_sample_arrival_refuses_a_non_finite_probability(epsilon):
    # nan used to compare false against both bounds and arrive in every window
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="arrival probability"):
        sources.sample_arrival(epsilon, rng)


@pytest.mark.parametrize("epsilon", [-0.1, 1.5])
def test_sample_arrival_refuses_a_probability_outside_the_unit_interval(epsilon):
    with pytest.raises(ValueError, match="arrival probability"):
        sources.sample_arrival(epsilon, np.random.default_rng(0))


def test_sample_arrival_statistics():
    epsilon, n = 0.2, 100_000
    rng = np.random.default_rng(123)
    arrivals = [sources.sample_arrival(epsilon, rng) for _ in range(n)]
    assert set(arrivals) <= {False, True}
    assert abs(sum(arrivals) / n - epsilon) < 3 * math.sqrt(epsilon * (1 - epsilon) / n)


def test_sample_arrival_zero_epsilon_never_fires():
    rng = np.random.default_rng(0)
    assert not any(sources.sample_arrival(0.0, rng) for _ in range(200))


def test_sample_arrival_unit_epsilon_always_fires():
    rng = np.random.default_rng(0)
    assert all(sources.sample_arrival(1.0, rng) for _ in range(200))

