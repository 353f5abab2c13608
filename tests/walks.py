"""Walked oracles of the compiled circuit laws.

Each oracle sums a circuit's outcome table over the source's pure branches,
walking every fringe branch through the state engine on every call.  The
compiled tables must agree with these label by label, and list their labels
in the same order, which the samplers draw in.
"""

from qtelescopy import protocols
from qtelescopy.protocols import N_MAX, cnot_branches


def walked_cnot(source, config) -> dict:
    """The six-mode mixture of every (source branch, ancilla flag) table of :func:`cnot_branches`."""
    return protocols._mixture(((w, table) for _, _, w, table in cnot_branches(source, config)), "six-mode")


def walked_direct(source, delta, swap_bases=False) -> dict:
    """The direct readout: the two fringe branches walked with weights (1 +- g)/2, all four labels listed."""
    steps = protocols._direct_steps(delta, N_MAX, swap_bases)
    if source.epsilon == 0.0:
        return {}
    table = {(left, right): 0.0 for left in (+1, -1) for right in (+1, -1)}
    for w, psi in protocols._fringe_branches(source, N_MAX):
        if w != 0.0:
            for outcomes, p, _ in protocols._walk(psi, steps, weight=w):
                table[outcomes] += p
    return table


def walked_gottesman(source, delta, optics=()) -> dict:
    """The four-mode baseline, with local ``optics``: each source branch of nonzero weight walked and mixed."""
    circuit = protocols._gottesman_circuit(delta, optics)
    return protocols._mixture(((w, circuit(star)) for w, star in source.pure_branches(N_MAX) if w != 0.0), "four-mode")
