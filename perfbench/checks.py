"""Correctness checks for the benchmark's workloads.

Every check compares a program output with a closed form or with a
property the method must have; none compares with a stored copy of an
earlier output.  Each checker returns a list of problems (empty when the
output is correct).  ``qtelescopy.analytic`` is the only part of the
program used here, as an oracle.
"""

from __future__ import annotations

import math

from qtelescopy import analytic

FISHER_ATOL = 1e-8  # Fisher identities, as in the package's own tests
MEMORY_ATOL = 1e-12  # outcome tables
CRB_RTOL = 1e-8
SIGMAS = 5.0
# two-sided tail probability of the MSE/CRB band of one run
MSE_BAND_ALPHA = 1e-6

# the two fisher faults that fisher-sweep keeps as counted failures
FAULT_BOUNDARY = "fd_step_leaves_unit_interval"
FAULT_SWAP = "swap_bases_ignored"


def wrap_phase(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def fringe_fisher(theta: float, g: float) -> float:
    """F(theta, g) = g^2 sin^2(theta) / (1 - g^2 cos^2(theta))."""
    return g * g * math.sin(theta) ** 2 / (1.0 - (g * math.cos(theta)) ** 2)


def _close(value, expected, atol, what) -> list[str]:
    if value is None or not abs(value - expected) <= atol:
        return [f"{what} = {value!r}, expected {expected!r} within {atol:g}"]
    return []


def _rel_close(value, expected, rtol, what) -> list[str]:
    return _close(value, expected, rtol * abs(expected) + 1e-15, what)


def _herald_counts(n_heralded: int, n_vacuum: int, n_windows: int, epsilon: float) -> list[str]:
    problems = []
    if n_heralded + n_vacuum != n_windows:
        problems.append(f"n_heralded + n_vacuum = {n_heralded + n_vacuum}, expected {n_windows}")
    mean = n_windows * epsilon
    sd = math.sqrt(n_windows * epsilon * (1.0 - epsilon))
    if abs(n_heralded - mean) > SIGMAS * sd:
        problems.append(
            f"n_heralded = {n_heralded} is more than {SIGMAS:g} sd from Binomial({n_windows}, {epsilon})"
        )
    return problems


def _phase_error(phi_hat: float, phi: float, crb: float) -> list[str]:
    err = wrap_phase(phi_hat - phi)
    if not abs(err) <= SIGMAS * math.sqrt(crb):
        return [f"wrapped error {err:.3e} exceeds {SIGMAS:g} sqrt(crb) = {SIGMAS * math.sqrt(crb):.3e}"]
    return []


# ---------------------------------------------------------------------------
# mc-cnot


def check_estimate(report: dict, *, phi: float, epsilon: float, n_windows: int) -> list[str]:
    """One cnot estimate at g = 1, where the information per window is epsilon."""
    problems = _rel_close(report["crb"], 1.0 / (n_windows * epsilon), CRB_RTOL, "crb")
    problems += _herald_counts(report["n_heralded"], report["n_vacuum"], n_windows, epsilon)
    problems += _phase_error(report["phi_hat"], phi, report["crb"])
    err = wrap_phase(report["phi_hat"] - phi)
    problems += _rel_close(report["empirical_mse"], err * err, 1e-9, "empirical_mse")
    return problems


def mse_band(n_estimates: int) -> tuple[float, float]:
    """Band for the mean of err^2/crb over ``n_estimates`` efficient estimates.

    For an efficient estimator err/sqrt(crb) is standard normal, so the sum
    of n ratios is chi-square with n degrees of freedom; the band holds it
    with probability 1 - MSE_BAND_ALPHA.
    """
    from scipy.stats import chi2

    lo = chi2.ppf(MSE_BAND_ALPHA / 2.0, n_estimates) / n_estimates
    hi = chi2.isf(MSE_BAND_ALPHA / 2.0, n_estimates) / n_estimates
    return float(lo), float(hi)


def check_mse_ratio(ratios: list[float]) -> list[str]:
    if not ratios:
        return ["no estimates"]
    lo, hi = mse_band(len(ratios))
    mean = sum(ratios) / len(ratios)
    if not lo <= mean <= hi:
        return [f"MSE/CRB = {mean:.3f} over {len(ratios)} estimates is outside [{lo:.3f}, {hi:.3f}]"]
    return []


# ---------------------------------------------------------------------------
# simulate-cli


def check_simulate(
    summary: dict,
    trace: dict,
    *,
    phi: float,
    g: float,
    epsilon: float,
    schedule,
    n_windows: int,
) -> list[str]:
    """Summary of one ``simulate`` run of the direct protocol, and its trace.

    ``trace`` holds ``lines`` (number of records) and ``heralds`` (count per
    herald value) read from trace.jsonl.
    """
    expected_f = epsilon * sum(fringe_fisher(phi + d, g) for d in schedule) / len(schedule)
    f = summary["fisher_per_window"]
    problems = _close(f, expected_f, FISHER_ATOL, "fisher_per_window")
    problems += _rel_close(summary["crb"], 1.0 / (n_windows * f), CRB_RTOL, "crb")
    problems += _herald_counts(summary["n_heralded"], summary["n_vacuum"], n_windows, epsilon)
    if trace["lines"] != n_windows:
        problems.append(f"trace holds {trace['lines']} records, expected {n_windows}")
    for key, herald in (("n_heralded", "photon_arrived"), ("n_vacuum", "vacuum")):
        if trace["heralds"].get(herald, 0) != summary[key]:
            problems.append(
                f"summary {key} = {summary[key]} but the trace has "
                f"{trace['heralds'].get(herald, 0)} {herald} records"
            )
    problems += _phase_error(summary["phi_hat"], phi, summary["crb"])
    return problems


# ---------------------------------------------------------------------------
# fisher-sweep


def check_fisher_row(row: dict, point: dict) -> list[str]:
    """One ``qtelescopy fisher`` row against the closed forms.

    ``point`` holds protocol, epsilon, phi, g, delta, swap_bases and
    boundary (whether g sits on an edge of [0, 1]).
    """
    eps, phi, g, delta = point["epsilon"], point["phi"], point["g"], point["delta"]
    problems = []
    for key in ("phi", "g", "delta"):
        problems += _close(row[key], point[key], 0.0, key)
    problems += _close(row["h_phiphi"], eps * g * g, FISHER_ATOL, "h_phiphi")
    problems += _rel_close(row["h_gg"], eps / (1.0 - g * g), FISHER_ATOL, "h_gg")
    problems += _rel_close(
        row["saturability"], analytic.saturability_closed_form(g), FISHER_ATOL, "saturability"
    )
    f = row["f_phiphi"]
    if not f <= row["h_phiphi"] + FISHER_ATOL:
        problems.append(f"f_phiphi = {f!r} exceeds h_phiphi = {row['h_phiphi']!r} (Braunstein-Caves)")
    if point["protocol"] == "cnot":
        expected = analytic.cnot_fisher_phi(phi, g, eps, delta)
        problems += _close(f, expected, FISHER_ATOL, "f_phiphi")
    elif point["protocol"] == "direct":
        theta = phi - delta if point["swap_bases"] else phi + delta
        problems += _close(f, eps * fringe_fisher(theta, g), FISHER_ATOL, "f_phiphi")
    return problems


def classify_fisher(point: dict, rows, exc) -> tuple[str | None, list[str]]:
    """(known fault or None, problems) for one fisher point.

    A known fault is one of the two ``fisher`` defects recognised by its
    signature: a ``ValueError`` from a finite-difference step outside
    [0, 1] at a boundary g, or a ``swap_bases`` row that reports exactly the
    unswapped information.  Anything else that goes wrong is a problem.
    """
    if exc is not None:
        if isinstance(exc, ValueError) and point["boundary"] and "visibility g" in str(exc):
            return FAULT_BOUNDARY, []
        return None, [f"raised {type(exc).__name__}: {exc}"]
    if not isinstance(rows, list) or len(rows) != 1:
        return None, [f"expected one fisher row, got {rows!r}"]
    row = rows[0]
    problems = check_fisher_row(row, point)
    if problems and point["protocol"] == "direct" and point["swap_bases"]:
        unswapped = point["epsilon"] * fringe_fisher(point["phi"] + point["delta"], point["g"])
        if not _close(row["f_phiphi"], unswapped, FISHER_ATOL, "f_phiphi"):
            return FAULT_SWAP, []
    return None, problems


# ---------------------------------------------------------------------------
# memory-unmodified


def check_memory(result: dict, *, arrival, phi: float, g: float, delta: float) -> list[str]:
    """One unmodified-memory window: exact decode and the final fringe table."""
    problems = []
    if result["decoded"] != arrival:
        problems.append(f"decoded bin {result['decoded']!r}, arrival bin {arrival!r}")
    final = result["final_distribution"]
    if arrival is None:
        if final is not None or result["outcome"] is not None:
            problems.append("a no-photon window reported a fringe outcome")
        return problems
    expected = analytic.memory_final_probs(result["n_minus"], phi, g, delta)
    if final is None or set(final) != set(expected):
        return problems + [f"final distribution {final!r}, expected outcomes {sorted(expected)}"]
    for outcome, p in expected.items():
        problems += _close(final[outcome], p, MEMORY_ATOL, f"P({outcome:+d})")
    if result["outcome"] not in expected:
        problems.append(f"final outcome {result['outcome']!r} is not a basis label")
    return problems
