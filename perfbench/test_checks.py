"""Self-tests for the benchmark's checkers.

Each checker must accept the closed-form values themselves and reject a
slightly perturbed result.  Run with:

    python3 -m pytest -q perfbench/test_checks.py
"""

import collections
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
from qtelescopy import analytic  # noqa: E402

EPS, M = 0.1, 10_000


def estimate(phi=0.7, **changes):
    report = {
        "phi_hat": phi,
        "empirical_mse": 0.0,
        "crb": 1.0 / (M * EPS),
        "n_heralded": int(M * EPS),
        "n_vacuum": M - int(M * EPS),
    }
    report.update(changes)
    return report


def test_estimate_accepts_closed_form():
    assert checks.check_estimate(estimate(), phi=0.7, epsilon=EPS, n_windows=M) == []


@pytest.mark.parametrize(
    "changes",
    [
        {"crb": 1.0 / (M * EPS) * (1 + 1e-6)},
        {"n_heralded": int(M * EPS) - 1},
        {"n_heralded": int(M * EPS) + 200, "n_vacuum": M - int(M * EPS) - 200},
        {"phi_hat": 0.7 + 6.0 * math.sqrt(1.0 / (M * EPS)), "empirical_mse": 36.0 / (M * EPS)},
        {"empirical_mse": 1e-6},
    ],
)
def test_estimate_rejects_perturbation(changes):
    assert checks.check_estimate(estimate(**changes), phi=0.7, epsilon=EPS, n_windows=M)


def test_mse_band_accepts_efficiency_and_rejects_a_sixfold_excess():
    assert checks.check_mse_ratio([1.0] * 12) == []
    assert checks.check_mse_ratio([6.0] * 12)
    assert checks.check_mse_ratio([0.01] * 12)
    lo, hi = checks.mse_band(200)
    assert lo < 0.9 and 1.3 < hi  # looser than criterion 9's band, by design


def simulate_case(phi=0.7, g=0.8, schedule=(0.0, math.pi / 2.0), n=1_000_000):
    f = EPS * sum(analytic.direct_fisher_phi(phi, g, d) for d in schedule) / len(schedule)
    heralded = int(n * EPS)
    summary = {
        "fisher_per_window": f,
        "crb": 1.0 / (n * f),
        "n_heralded": heralded,
        "n_vacuum": n - heralded,
        "phi_hat": phi,
    }
    trace = {
        "lines": n,
        "heralds": collections.Counter({"photon_arrived": heralded, "vacuum": n - heralded}),
    }
    kwargs = dict(phi=phi, g=g, epsilon=EPS, schedule=schedule, n_windows=n)
    return summary, trace, kwargs


def test_simulate_accepts_closed_form():
    summary, trace, kwargs = simulate_case()
    assert checks.check_simulate(summary, trace, **kwargs) == []


def test_simulate_rejects_a_heralded_window_recounted_as_vacuum():
    summary, trace, kwargs = simulate_case()
    summary["n_heralded"] -= 1
    summary["n_vacuum"] += 1
    assert checks.check_simulate(summary, trace, **kwargs)


def test_simulate_rejects_shifted_fisher_and_short_trace():
    summary, trace, kwargs = simulate_case()
    summary["fisher_per_window"] += 1e-6
    assert checks.check_simulate(summary, trace, **kwargs)
    summary, trace, kwargs = simulate_case()
    trace["lines"] -= 1
    assert checks.check_simulate(summary, trace, **kwargs)


def fisher_row(point):
    eps, phi, g, delta = point["epsilon"], point["phi"], point["g"], point["delta"]
    if point["protocol"] == "cnot":
        f = analytic.cnot_fisher_phi(phi, g, eps, delta)
    else:
        theta = phi - delta if point["swap_bases"] else phi + delta
        f = eps * analytic.fringe_fisher(theta, g)
    qfi = analytic.qfi_closed_form(g)
    return {
        "phi": phi,
        "g": g,
        "delta": delta,
        "f_phiphi": f,
        "h_phiphi": eps * qfi[0, 0],
        "h_gg": eps * qfi[1, 1],
        "saturability": analytic.saturability_closed_form(g),
    }


POINTS = [
    dict(protocol="cnot", epsilon=0.1, phi=0.7, g=0.6, delta=0.3, swap_bases=False, boundary=False),
    dict(protocol="direct", epsilon=0.15, phi=-1.1, g=0.4, delta=2.0, swap_bases=False, boundary=False),
    dict(protocol="direct", epsilon=0.1, phi=0.4, g=0.5, delta=0.3, swap_bases=True, boundary=False),
]


@pytest.mark.parametrize("point", POINTS)
def test_fisher_accepts_closed_form(point):
    assert checks.classify_fisher(point, [fisher_row(point)], None) == (None, [])


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("key", ["f_phiphi", "h_phiphi", "h_gg", "saturability"])
def test_fisher_rejects_a_1e6_shift(point, key):
    row = fisher_row(point)
    row[key] += 1e-6
    fault, problems = checks.classify_fisher(point, [row], None)
    assert fault is None and problems


def test_fisher_rejects_information_above_the_quantum_bound():
    point = POINTS[1]
    row = fisher_row(point)
    row["f_phiphi"] = row["h_phiphi"] + 1e-6
    assert any("Braunstein" in p for p in checks.check_fisher_row(row, point))


def test_fisher_names_the_two_known_faults():
    swap = POINTS[2]
    row = fisher_row(swap)
    row["f_phiphi"] = swap["epsilon"] * analytic.fringe_fisher(swap["phi"] + swap["delta"], swap["g"])
    assert checks.classify_fisher(swap, [row], None) == (checks.FAULT_SWAP, [])
    edge = dict(POINTS[0], g=0.0, boundary=True)
    exc = ValueError("visibility g must lie in [0, 1], got -1e-05")
    assert checks.classify_fisher(edge, None, exc) == (checks.FAULT_BOUNDARY, [])
    # the same exception away from a boundary is a plain failure
    fault, problems = checks.classify_fisher(POINTS[0], None, exc)
    assert fault is None and problems


def memory_result(arrival, n_minus=3, phi=0.7, g=0.8, delta=0.3):
    final = analytic.memory_final_probs(n_minus, phi, g, delta)
    return {"decoded": arrival, "outcome": 1, "n_minus": n_minus, "final_distribution": dict(final)}


def test_memory_accepts_closed_form():
    kwargs = dict(phi=0.7, g=0.8, delta=0.3)
    assert checks.check_memory(memory_result(5), arrival=5, **kwargs) == []
    empty = {"decoded": None, "outcome": None, "n_minus": 0, "final_distribution": None}
    assert checks.check_memory(empty, arrival=None, **kwargs) == []


def test_memory_rejects_a_shifted_final_distribution():
    result = memory_result(5)
    result["final_distribution"][1] += 1e-9
    assert checks.check_memory(result, arrival=5, phi=0.7, g=0.8, delta=0.3)


def test_memory_rejects_a_decoded_bin_off_by_one():
    assert checks.check_memory(memory_result(6), arrival=5, phi=0.7, g=0.8, delta=0.3)
    assert checks.check_memory(memory_result(1), arrival=None, phi=0.7, g=0.8, delta=0.3)
