"""Self-tests for the span tracer.  Run with: python3 -m pytest -q perfbench/test_tracer.py"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracer  # noqa: E402


def span_set(rows):
    """rows: (name, parent, start, end)."""
    names, parents, starts, ends = zip(*rows)
    return {
        "names": np.array(tracer.SPAN_NAMES),
        "name_id": np.array([tracer.SPAN_NAMES.index(n) for n in names]),
        "parent": np.array(parents),
        "op_id": np.zeros(len(rows), dtype=np.int32),
        "start": np.array(starts, dtype=float),
        "end": np.array(ends, dtype=float),
        "unitary_bytes": np.array(0),
    }


def test_self_time_subtracts_children_and_counts_runs_under_mle():
    spans = span_set(
        [
            ("estimation.mle_phase", -1, 0.0, 10.0),
            ("estimation.crb_report", 0, 1.0, 4.0),
            ("protocols.cnot_distribution", 1, 2.0, 3.0),
            ("protocols.cnot_distribution", 0, 5.0, 6.0),
            ("protocols.cnot_distribution", -1, 11.0, 12.0),
        ]
    )
    agg = tracer.aggregate([spans])
    assert agg["estimation.mle_phase"]["self_s"] == 10.0 - 3.0 - 1.0
    assert agg["estimation.crb_report"]["self_s"] == 2.0
    assert agg["protocols.cnot_distribution"]["calls"] == 3
    assert agg["_roots_s"] == 11.0
    assert agg["_distributions_under_mle"] == 2


def test_install_wraps_names_imported_elsewhere():
    import qtelescopy
    from qtelescopy import cli, estimation, protocols

    original = protocols.cnot_distribution
    recorder = tracer.Tracer()
    tracer.install(recorder)
    assert estimation.cnot_distribution is protocols.cnot_distribution
    assert qtelescopy.cnot_distribution is protocols.cnot_distribution
    assert cli.cnot_distribution is protocols.cnot_distribution
    assert protocols.cnot_distribution is not original

    source = qtelescopy.StellarSource(0.7, 1.0, 0.1)
    estimation.crb_report("cnot", source, (0.0,))
    agg = tracer.aggregate([recorder.arrays()])
    # p(phi) plus two central differences with Richardson: 5 circuit runs
    assert agg["protocols.cnot_distribution"]["calls"] == 5
    assert agg["fisher.OutcomeModel.probs"]["calls"] == 5
    assert agg["estimation.crb_report"]["calls"] == 1
    assert agg["_unitary_bytes"] > 0
    total_self = sum(agg[name]["self_s"] for name in tracer.SPAN_NAMES)
    assert abs(total_self - agg["_roots_s"]) < 1e-9
