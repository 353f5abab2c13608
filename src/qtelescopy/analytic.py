"""Closed-form reference results for the interferometric protocols.

Everything in this module is written directly from the published formulas
(outcome tables, logarithmic-derivative closed forms, Fisher expressions).
The simulator never calls into this module to produce a distribution; the
tests and the CLI reference column compare circuit output against these
expressions, so agreement is evidence that the circuit wiring is right
rather than a tautology.
"""

from __future__ import annotations

import numpy as np

# Outcome labels of the six-mode gate-based protocol, grouped by the herald
# pattern (occupations of modes 0 and 5).  Within each fringe quartet the
# first two labels carry the "1 - g cos" sign and the last two "1 + g cos".
HERALD_11_QUARTET = (
    (1, 1, 0, 1, 0, 1),
    (1, 0, 1, 0, 1, 1),
    (1, 1, 0, 0, 1, 1),
    (1, 0, 1, 1, 0, 1),
)
HERALD_00_QUARTET = (
    (0, 1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 0),
)
DISAGREE_OCTET = (
    (0, 1, 0, 1, 0, 1),
    (0, 1, 0, 0, 1, 1),
    (0, 0, 1, 1, 0, 1),
    (0, 0, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 0),
    (1, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 0, 0),
    (1, 0, 1, 0, 1, 0),
)


def cnot_outcome_table(
    phi: float, g: float, epsilon: float, delta: float, eta: float = 1.0
) -> dict[tuple[int, ...], float]:
    """Published outcome probabilities of the six-mode CNOT protocol.

    The single-photon quartets interfere with fringe ``g cos(phi + delta)``
    when the heralds read (1,1) and ``g cos(phi - delta)`` when they read
    (0,0).  Vacuum windows land on the eight herald-disagree labels with
    equal weight.  With ancilla survival probability ``eta`` < 1, lost-
    ancilla windows add a flat background: on the four (1,1)-herald labels
    when the star mode is empty, and on the disagree octet when the star
    photon arrives but cannot be used.
    """
    c_plus = g * np.cos(phi + delta)
    c_minus = g * np.cos(phi - delta)
    table: dict[tuple[int, ...], float] = {}
    for i, label in enumerate(HERALD_11_QUARTET):
        fringe = 1.0 - c_plus if i < 2 else 1.0 + c_plus
        table[label] = eta * epsilon / 8.0 * fringe + (1.0 - eta) * (1.0 - epsilon) / 4.0
    for i, label in enumerate(HERALD_00_QUARTET):
        fringe = 1.0 - c_minus if i < 2 else 1.0 + c_minus
        table[label] = eta * epsilon / 8.0 * fringe
    background = (eta * (1.0 - epsilon) + (1.0 - eta) * epsilon) / 8.0
    for label in DISAGREE_OCTET:
        table[label] = background
    return table


def direct_outcome_table(
    phi: float, g: float, delta: float, swap_bases: bool = False
) -> dict[tuple[int, int], float]:
    """Two-site single-photon fringe: one lab measures X, the other the
    delta-rotated basis.  Outcomes are (x, r) with values +-1 and

        P(x, r) = (1/4) [1 + x r g cos(phi + delta)]

    (``phi - delta`` when the basis assignment is swapped)."""
    theta = phi - delta if swap_bases else phi + delta
    fringe = g * np.cos(theta)
    return {
        (x, r): 0.25 * (1.0 + x * r * fringe)
        for x in (+1, -1)
        for r in (+1, -1)
    }


def memory_final_probs(n_minus: int, phi: float, g: float, delta: float) -> dict[int, float]:
    """Rotated-basis probabilities of the last memory qubit given ``n_minus``
    earlier minus results: P(+-) = (1/2)[1 +- (-1)^{n_minus} g cos(phi+delta)]."""
    fringe = (-1.0) ** (n_minus % 2) * g * np.cos(phi + delta)
    return {+1: 0.5 * (1.0 + fringe), -1: 0.5 * (1.0 - fringe)}


# ---------------------------------------------------------------------------
# Fisher information closed forms


def fringe_fisher(theta: float, g: float) -> float:
    """Phase information of a balanced two-outcome fringe (1 +- g cos(theta))/2, g^2 sin^2 / (1 - g^2 cos^2)
    written so that nothing cancels near g = 1, where it is 1 at every theta."""
    if g == 1.0:
        return 1.0
    s2 = g * g * np.sin(theta) ** 2
    return s2 / ((1.0 - g) * (1.0 + g) + s2)


def direct_fisher_phi(phi: float, g: float, delta: float) -> float:
    """Per-detected-photon phase information of the two-basis measurement."""
    return fringe_fisher(phi + delta, g)


def cnot_fisher_phi(phi: float, g: float, epsilon: float, delta: float, eta: float = 1.0) -> float:
    """Per-window phase information of the six-mode protocol.

    Each surviving photon splits evenly between the (1,1) herald, carrying a
    cos(phi+delta) fringe, and the (0,0) herald carrying cos(phi-delta);
    ancilla loss removes a fraction 1-eta of photons from the estimate.
    """
    return (
        eta
        * epsilon
        / 2.0
        * (fringe_fisher(phi + delta, g) + fringe_fisher(phi - delta, g))
    )


# ---------------------------------------------------------------------------
# symmetric logarithmic derivatives of the conditional single-photon state
#
# For rho = (1/2) [[1, g e^{i phi}], [g e^{-i phi}, 1]] on (|10>, |01>):


def sld_phi(phi: float, g: float) -> np.ndarray:
    """Closed-form SLD for the phase parameter."""
    e = np.exp(1j * phi)
    return 1j * g * np.array([[0.0, e], [-np.conj(e), 0.0]])


def sld_g(phi: float, g: float) -> np.ndarray:
    """Closed-form SLD for the visibility parameter (diverges as g -> 1)."""
    e = np.exp(1j * phi)
    return np.array([[-g, e], [np.conj(e), -g]]) / (1.0 - g * g)


def qfi_closed_form(g: float) -> np.ndarray:
    """Per-detected-photon quantum Fisher matrix diag(g^2, 1/(1-g^2))."""
    return np.array([[g * g, 0.0], [0.0, 1.0 / (1.0 - g * g)]])


def saturability_closed_form(g: float) -> float:
    """Trace norm of rho [L_phi, L_g]: equals 2g / (1 - g^2)."""
    return 2.0 * g / (1.0 - g * g)
