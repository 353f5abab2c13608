"""Walked oracles of the compiled circuit laws, and a per-window collapse walk.

Each oracle sums a circuit's outcome table over the source's pure branches,
walking every fringe branch through the state engine on every call.  The
compiled tables must agree with these label by label, and list their labels
in the same order, which the samplers draw in.  :func:`collapsed_walk` runs
a wiring for one window, sampling each readout, as a circuit run with
collapse would: the reference the batch sampler is held against.
"""

from qtelescopy import protocols
from qtelescopy.gates import measure_in_basis
from qtelescopy.protocols import N_MAX, cnot_branches
from qtelescopy.state_engine import ModeUnitary, apply_unitary


def walked_cnot(source, config) -> dict:
    """The six-mode mixture of every (source branch, ancilla flag) table of :func:`cnot_branches`."""
    return protocols._mixture(((w, table) for _, _, w, table in cnot_branches(source, config)), "six-mode")


def walked_direct(source, delta, swap_bases=False) -> dict:
    """The direct readout: the two fringe branches walked with weights (1 +- g)/2, all four labels listed."""
    steps = protocols._direct_steps(delta, N_MAX, swap_bases)
    if source.epsilon == 0.0:
        return {}
    table = {(left, right): 0.0 for left in (+1, -1) for right in (+1, -1)}
    _, (_, psi_plus), (_, psi_minus) = source.pure_branches(N_MAX)
    for w, psi in (((1.0 + source.g) / 2.0, psi_plus), ((1.0 - source.g) / 2.0, psi_minus)):
        if w != 0.0:
            for outcomes, p, _ in protocols._walk(psi, steps, weight=w):
                table[outcomes] += p
    return table


def walked_gottesman(source, delta, optics=()) -> dict:
    """The four-mode baseline, with local ``optics``: each source branch of nonzero weight walked and mixed."""
    circuit = protocols._gottesman_circuit(delta, optics)
    return protocols._mixture(((w, circuit(star)) for w, star in source.pure_branches(N_MAX) if w != 0.0), "four-mode")


def collapsed_walk(state, steps, rng):
    """The state after a wiring of :func:`protocols._walk` steps, each readout collapsed
    to one outcome that ``rng`` samples (:func:`measure_in_basis`)."""
    for i, step in enumerate(steps):
        if isinstance(step, ModeUnitary):
            state = apply_unitary(state, step)
            continue
        basis, then = step
        outcome, post = measure_in_basis(state, basis, rng)
        return collapsed_walk(post, then[basis.outcomes.index(outcome)] + steps[i + 1 :], rng)
    return state
