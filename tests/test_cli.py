"""Command-line front-end tests: config handling, outputs, exit codes."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtelescopy import analytic, cli, estimation, fisher
from qtelescopy.errors import ConfigError, EstimationError, NumericalInvariantError
from qtelescopy.protocols import Herald, run_memory_unmodified
from qtelescopy.sources import StellarSource


def _write_config(tmp_path, name="config.json", **overrides):
    payload = {
        "schema_version": 1,
        "protocol": "cnot",
        "epsilon": 0.1,
        "g": 1.0,
        "phi": 0.3,
        "delta": 0.2,
        "seed": 7,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _strict_json(text):
    """``text`` parsed as JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_probs_csv_matches_reference(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["probs", "--config", str(cfg)]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0].keys() == {
        "label",
        "probability",
        "analytic_reference_probability",
        "abs_diff",
    }
    assert len(rows) == 16
    total = 0.0
    for row in rows:
        assert float(row["abs_diff"]) < 1e-12
        total += float(row["probability"])
    assert abs(total - 1.0) < 1e-10


def test_probs_json_format(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["probs", "--config", str(cfg), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 16
    assert all("probability" in row for row in rows)


def test_probs_direct_zero_visibility(tmp_path, capsys):
    cfg = _write_config(tmp_path, protocol="direct", g=0.0)
    assert cli.main(["probs", "--config", str(cfg)]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        assert float(row["probability"]) == pytest.approx(0.25, abs=1e-12)


def test_probs_gottesman_sums_to_one_without_reference_column(tmp_path, capsys):
    cfg = _write_config(tmp_path, protocol="gottesman")
    assert cli.main(["probs", "--config", str(cfg)]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert abs(sum(float(r["probability"]) for r in rows) - 1.0) < 1e-12
    assert all(r["analytic_reference_probability"] == "" for r in rows)


def test_floats_printed_with_17_significant_digits(tmp_path, capsys):
    cfg = _write_config(tmp_path, protocol="direct", g=0.7, phi=0.7)
    cli.main(["probs", "--config", str(cfg)])
    out = capsys.readouterr().out
    probs = [r["probability"] for r in _parse_csv(out)]
    # 0.25*(1 +/- 0.7*cos(0.9)) has no short decimal form; full precision
    # round-trips through float() exactly
    for text in probs:
        assert float(text) == float(cli.fmt_float(float(text)))
        assert len(text.replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_fisher_sweep_columns_and_boundary(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        phi=0.7,
        delta=0.3,
        phi_values=[0.7],
        g_values=[0.5, 1.0],
        delta_values=[0.3],
    )
    assert cli.main(["fisher", "--config", str(cfg)]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert [r["g"] for r in rows] == ["0.5", "1"]
    interior, boundary = rows
    assert float(interior["saturability"]) == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert float(interior["h_gg"]) == pytest.approx(0.1 / 0.75, abs=1e-8)
    # at unit visibility the g-derivatives are undefined and reported as NaN
    assert math.isnan(float(boundary["f_gg"]))
    assert math.isnan(float(boundary["h_gg"]))
    assert math.isnan(float(boundary["saturability"]))
    assert float(boundary["f_phiphi"]) == pytest.approx(0.1, abs=1e-8)


def test_fisher_json_writes_null_for_an_entry_undefined_at_g_1(tmp_path, capsys):
    # it wrote bare NaN, which a strict JSON parser refuses
    cfg = _write_config(tmp_path, phi_values=[0.7], g_values=[0.5, 1.0], delta_values=[0.3])
    assert cli.main(["fisher", "--config", str(cfg), "--format", "json"]) == 0
    interior, boundary = _strict_json(capsys.readouterr().out)
    undefined = ("f_gg", "f_phig", "h_gg", "h_phig", "saturability")
    assert [boundary[key] for key in undefined] == [None] * 5
    assert all(isinstance(interior[key], float) for key in undefined)
    assert boundary["f_phiphi"] == pytest.approx(0.1, abs=1e-8)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_a_non_finite_value_reaching_the_fisher_json_writer_exits_3(tmp_path, capsys, monkeypatch, value):
    real = cli._fisher_row

    def row(*args):
        return real(*args)[:3] + [value] + real(*args)[4:]

    monkeypatch.setattr(cli, "_fisher_row", row)
    cfg = _write_config(tmp_path, phi_values=[0.7], g_values=[0.5], delta_values=[0.3])
    assert cli.main(["fisher", "--config", str(cfg), "--format", "json", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_fisher_solves_each_sld_once_per_row(tmp_path, capsys, monkeypatch):
    # the QFI and the saturability check share the row's SLDs: two at an interior g, one at the boundary
    solved = []
    monkeypatch.setattr(fisher, "sld", lambda rho, drho, sld=fisher.sld: solved.append(drho) or sld(rho, drho))
    monkeypatch.setattr(cli, "sld", fisher.sld)
    cfg = _write_config(tmp_path, phi=0.7, delta=0.3, phi_values=[0.7], g_values=[0.5, 1.0], delta_values=[0.3])
    assert cli.main(["fisher", "--config", str(cfg)]) == 0
    assert len(_parse_csv(capsys.readouterr().out)) == 2 and len(solved) == 3


def test_fisher_gottesman_half(tmp_path, capsys):
    cfg = _write_config(tmp_path, protocol="gottesman", phi=0.7, delta=0.3)
    assert cli.main(["fisher", "--config", str(cfg)]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert float(rows[0]["f_phiphi"]) == pytest.approx(0.05, abs=1e-8)


@pytest.mark.parametrize(
    "protocol,g,swap", [("cnot", 0.0, False), ("direct", 0.999995, False), ("direct", 0.5, True)]
)
def test_fisher_closed_forms_at_unit_interval_edges_and_swapped_bases(
    tmp_path, capsys, protocol, g, swap
):
    phi, delta, eps = 0.4, 0.3, 0.1
    cfg = _write_config(
        tmp_path, protocol=protocol, epsilon=eps, swap_bases=swap,
        phi_values=[phi], g_values=[g], delta_values=[delta],
    )
    assert cli.main(["fisher", "--config", str(cfg)]) == 0
    row = _parse_csv(capsys.readouterr().out)[0]
    if protocol == "cnot":
        expected = analytic.cnot_fisher_phi(phi, g, eps, delta)
    else:
        expected = eps * analytic.fringe_fisher(phi - delta if swap else phi + delta, g)
    assert float(row["f_phiphi"]) == pytest.approx(expected, abs=1e-8)


def test_simulate_reports_swapped_direct_fisher(tmp_path):
    # the schedule average counts a repeated delta once per entry
    for k, schedule in enumerate([[0.3, 0.3 + math.pi / 2.0], [0.3, 0.3, 0.3 + math.pi / 2.0]]):
        cfg = _write_config(
            tmp_path, protocol="direct", g=0.6, phi=0.7, swap_bases=True,
            delta_schedule=schedule, n_windows=2000,
        )
        out = tmp_path / f"out{k}"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = _parse_csv((out / "summary.csv").read_text())[0]
        expected = 0.1 * np.mean([analytic.fringe_fisher(0.7 - d, 0.6) for d in schedule])
        assert float(summary["fisher_per_window"]) == pytest.approx(expected, abs=1e-8)


def test_simulate_writes_trace_and_summary(tmp_path):
    cfg = _write_config(
        tmp_path, phi=0.7, delta_schedule=[0.0, math.pi / 2.0], n_windows=4000
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    trace_lines = (out_dir / "trace.jsonl").read_text().splitlines()
    assert len(trace_lines) == 4000
    first = json.loads(trace_lines[0])
    assert set(first) == {"window", "arrival_bin", "herald", "record", "decoded_bin", "seed"}
    summary = json.loads(
        (out_dir / "summary.json").read_text()
    ) if (out_dir / "summary.json").exists() else None
    if summary is None:
        rows = _parse_csv((out_dir / "summary.csv").read_text())
        summary = rows[0]
    assert abs(float(summary["phi_hat"]) - 0.7) < 0.1
    assert int(summary["n_heralded"]) + int(summary["n_vacuum"]) == 4000


def _trace_lines(outcomes, prefixes):
    """The per-window trace writer that cli._trace_chunks replaces: the reference."""
    for w, o in enumerate(outcomes.tolist()):
        yield prefixes[o] + str(w) + "}\n"


@pytest.mark.parametrize("protocol", ["cnot", "direct", "gottesman"])
@pytest.mark.parametrize("seed", [7, None])
def test_trace_chunks_equal_the_per_window_lines_across_every_chunk_edge(
    tmp_path, capsys, monkeypatch, protocol, seed
):
    captured = []
    monkeypatch.setattr(cli, "_trace_chunks", lambda outcomes, prefixes: captured.append(prefixes) or [])
    cfg = _write_config(tmp_path, protocol=protocol, seed=seed, epsilon=0.5, g=0.8, n_windows=200)
    assert cli.main(["simulate", "--config", str(cfg), "--format", "json"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    (prefixes,) = captured
    rng = np.random.default_rng(11)
    for n in (1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1999, 2000, 9999, 10000, 10001, 100001):
        # every outcome index the sampler can draw, -1 (no photon) included
        outcomes = rng.integers(-1, len(prefixes) - 1, n)
        assert b"".join(cli._trace_chunks(outcomes, prefixes)) == "".join(_trace_lines(outcomes, prefixes)).encode()


def _profiled_calls(argv) -> int:
    """The Python and C function calls that one in-process ``cli.main(argv)`` makes, counted by ``sys.setprofile``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    assert code == 0
    return count


@pytest.mark.parametrize("protocol", ["cnot", "direct", "gottesman"])
def test_simulate_makes_few_calls_per_window(tmp_path, capsys, protocol):
    # a trace chunk completes only the outcome prefixes that it draws, not each of the 730 cnot or 82 gottesman ones
    calls = {}
    for n in (10**4, 10**4, 10**5):  # the first run warms the compiled laws
        cfg = _write_config(tmp_path, protocol=protocol, g=0.8, phi=0.7, n_windows=n, seed=1)
        calls[n] = _profiled_calls(["simulate", "--config", str(cfg), "--format", "json", "--out", str(tmp_path / "out")])
    marginal = (calls[10**5] - calls[10**4]) / (10**5 - 10**4)
    assert marginal < 0.05, f"{marginal:.3f} calls per window"


def _peak_bytes(argv) -> int:
    """The peak of the memory that one in-process ``cli.main(argv)`` allocates, traced by ``tracemalloc``."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("protocol", ["cnot", "direct", "gottesman"])
def test_simulate_allocates_few_bytes_per_window(tmp_path, capsys, protocol):
    # the O(N) outcome and record arrays take about 20 to 31 B a window; a Python str per trace line takes more
    peaks = {}
    for n in (100, 10**4, 10**5):  # the first run warms the compiled laws
        cfg = _write_config(tmp_path, protocol=protocol, g=0.8, phi=0.7, n_windows=n, seed=1)
        peaks[n] = _peak_bytes(["simulate", "--config", str(cfg), "--format", "json", "--out", str(tmp_path / "out")])
    marginal = (peaks[10**5] - peaks[10**4]) / (10**5 - 10**4)
    assert marginal < 64, f"{marginal:.1f} bytes per window"


# past the first 1000-window chunk edge of the trace writer
N_TRACE = 2345


@pytest.mark.parametrize("protocol", ["cnot", "direct", "gottesman"])
@pytest.mark.parametrize("seed", [7, None])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_simulate_trace_lines_are_sorted_json_of_each_window(
    tmp_path, capsys, protocol, seed, to_stdout
):
    schedule = [0.0, math.pi / 2.0, 1.0]
    cfg = _write_config(
        tmp_path, protocol=protocol, seed=seed, g=0.8, delta_schedule=schedule, n_windows=N_TRACE
    )
    argv = ["simulate", "--config", str(cfg), "--format", "json"]
    if not to_stdout:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    if to_stdout:
        printed = capsys.readouterr().out.splitlines(keepends=True)
        lines, rest = printed[:N_TRACE], printed[N_TRACE:]
        assert rest[0] == "{\n"
    else:
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) == N_TRACE

    entry = estimation.PROTOCOLS[protocol]
    labels = entry.outcomes()
    outcomes = []
    for w, line in enumerate(lines):
        record = json.loads(line)["record"]
        o = labels.index(tuple(record)) if record is not None else -1
        payload = {
            "window": w,
            "arrival_bin": None,
            "herald": (entry.herald(labels[o]) if o >= 0 else Herald.VACUUM).value,
            "record": record,
            "decoded_bin": None,
            "seed": seed,
        }
        assert line == json.dumps(payload, sort_keys=True) + "\n"
        outcomes.append(o)
    if seed is not None:
        plan = estimation.ExperimentPlan(
            protocol, StellarSource(0.3, 0.8, 0.1), tuple(schedule), N_TRACE, seed=seed
        )
        np.testing.assert_array_equal(outcomes, estimation.run_experiment(plan))


def _written_outputs(tmp_path, argv, fmt):
    """The bytes ``--out`` writes for ``argv``: the trace, then the summary."""
    out = tmp_path / f"out-{fmt}"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return (out / "trace.jsonl").read_bytes() + (out / f"summary.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_prints_the_trace_bytes_then_the_summary(tmp_path, capsysbinary, fmt):
    # the trace goes to stdout's binary buffer, the summary through the text layer after it
    cfg = _write_config(tmp_path, protocol="direct", g=0.8, n_windows=N_TRACE)
    argv = ["simulate", "--config", str(cfg), "--format", fmt]
    assert cli.main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed == _written_outputs(tmp_path, argv, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_into_a_stdout_without_a_binary_buffer_prints_the_same_text(tmp_path, capsys, fmt):
    cfg = _write_config(tmp_path, protocol="cnot", g=0.8, n_windows=N_TRACE)
    argv = ["simulate", "--config", str(cfg), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert out.getvalue() == _written_outputs(tmp_path, argv, fmt).decode()


def test_out_naming_an_existing_file_exits_2_with_one_line(tmp_path, capsys):
    cfg = _write_config(tmp_path, protocol="direct", n_windows=100)
    target = tmp_path / "e.json"
    target.write_text("kept")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "exists and is not a directory" in err and err.count("\n") == 1
    assert target.read_text() == "kept"


def test_out_under_an_existing_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # a file as a parent component of --out is refused before the draw, not after the MLE
    cfg = _write_config(tmp_path, protocol="direct", n_windows=100)
    target = tmp_path / "e.json"
    target.write_text("kept")

    def refused(plan):
        raise AssertionError("simulate ran before --out was resolved")

    monkeypatch.setattr(cli, "run_experiment", refused)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(target / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "exists and is not a directory" in captured.err and captured.out == ""
    assert target.read_text() == "kept" and sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "e.json"]


class _FullDevice(io.BytesIO):
    """A binary stream whose every write fails as a write to a full device does."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def test_simulate_into_a_full_device_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, protocol="direct", n_windows=N_TRACE)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(_FullDevice()))
    assert cli.main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_output_to_dev_full_exits_1_with_one_line_and_no_traceback(tmp_path, command):
    # the trace's binary write and validate's buffered text each fail on a full device
    cfg = _write_config(tmp_path, protocol="direct", n_windows=10_000)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with open("/dev/full", "wb") as full:
        child = subprocess.run(
            [sys.executable, "-m", "qtelescopy.cli", command, "--config", str(cfg)],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    err = child.stderr.decode()
    assert child.returncode == 1 and err.startswith("error:") and err.count("\n") == 1, err


def test_simulate_refuses_a_sampler_table_that_is_not_a_distribution(
    tmp_path, capsys, monkeypatch
):
    broken = {(1, 1): -0.1, (1, -1): 1.1}
    entry = dataclasses.replace(estimation.PROTOCOLS["direct"], run=lambda *args: broken)
    monkeypatch.setitem(estimation.PROTOCOLS, "direct", entry)
    cfg = _write_config(tmp_path, protocol="direct", n_windows=100)
    assert cli.main(["simulate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("numerical invariant violated:")


@pytest.mark.parametrize("protocol", ["cnot", "direct"])
def test_simulate_at_g_zero_exits_1_with_a_message(tmp_path, capsys, protocol):
    # every phase scores alike at g = 0: the grid peak would be its first cell, not an estimate
    cfg = _write_config(tmp_path, protocol=protocol, g=0.0, phi=0.7, n_windows=2000, seed=1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "g = 0" in err and "Traceback" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("variant", ["cnot_sequence", "parity_feed_forward"])
def test_simulate_with_every_ancilla_lost_exits_1_with_a_message(tmp_path, capsys, variant):
    # at eta = 0 the lost-ancilla windows herald, but their law is flat in phi
    cfg = _write_config(tmp_path, eta=0.0, variant=variant, g=0.8, phi=0.7, n_windows=10_000, seed=1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "flat in phi" in err and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_simulate_deterministic_outputs(tmp_path):
    cfg = _write_config(
        tmp_path, phi=0.7, delta_schedule=[0.0, math.pi / 2.0], n_windows=2000
    )
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(d)]) == 0
        dirs.append(d)
    assert (dirs[0] / "trace.jsonl").read_bytes() == (dirs[1] / "trace.jsonl").read_bytes()
    assert (dirs[0] / "summary.csv").read_bytes() == (dirs[1] / "summary.csv").read_bytes()


def test_simulate_seed_override_changes_trace(tmp_path):
    cfg = _write_config(
        tmp_path, phi=0.7, delta_schedule=[0.0, math.pi / 2.0], n_windows=2000
    )
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    cli.main(["simulate", "--config", str(cfg), "--out", str(a)])
    cli.main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "99"])
    assert (a / "trace.jsonl").read_bytes() != (b / "trace.jsonl").read_bytes()


def test_main_calls_share_the_parser_and_no_parsed_state(tmp_path):
    # the parser is built once per process; a --seed given to one call must
    # not carry over to the next, which reads the config's seed 7
    assert cli.build_parser() is cli.build_parser()
    cfg = _write_config(tmp_path, protocol="direct", g=0.8, n_windows=2000)
    for out, extra, seed in (("first", ["--seed", "5"], 5), ("second", [], 7)):
        code = cli.main(["simulate", "--config", str(cfg), "--format", "json", "--out", str(tmp_path / out), *extra])
        assert code == 0
        assert json.loads((tmp_path / out / "summary.json").read_text())["seed"] == seed


def test_simulate_loss_halves_reported_fisher(tmp_path):
    base = _write_config(
        tmp_path, "full.json", delta_schedule=[0.0, math.pi / 2.0], n_windows=1000
    )
    lossy = _write_config(
        tmp_path, "half.json", delta_schedule=[0.0, math.pi / 2.0], n_windows=1000,
        eta=0.5,
    )
    out_full, out_half = tmp_path / "f", tmp_path / "h"
    out_full.mkdir(), out_half.mkdir()
    cli.main(["simulate", "--config", str(base), "--out", str(out_full)])
    cli.main(["simulate", "--config", str(lossy), "--out", str(out_half)])
    f_full = float(_parse_csv((out_full / "summary.csv").read_text())[0]["fisher_per_window"])
    f_half = float(_parse_csv((out_half / "summary.csv").read_text())[0]["fisher_per_window"])
    assert f_half == pytest.approx(0.5 * f_full, rel=1e-9)


def test_memory_demo_transcript(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_bins=7)
    assert cli.main(["memory-demo", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "bin 3" in out
    assert "|Φ+⟩|Φ−⟩|Φ−⟩" in out
    assert "ancilla unchanged" in out
    assert "ancilla qubits halved: yes" in out
    assert "3 Bell pairs" in out


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 8
    assert "FAIL" not in out


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, mystery_knob=3)
    assert cli.main(["probs", "--config", str(cfg)]) == 2


def test_out_of_range_value_exits_2(tmp_path):
    cfg = _write_config(tmp_path, epsilon=2.0)
    assert cli.main(["probs", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("probs", {"phi": math.nan}),
        ("probs", {"delta": math.inf}),
        ("probs", {"epsilon": math.nan}),
        ("probs", {"phi_values": [math.nan]}),
        ("simulate", {"delta_schedule": [0.0, -math.inf]}),
        ("fisher", {"g_values": [0.5, math.nan]}),
        ("fisher", {"delta_values": [math.inf]}),
        # finite, but outside the domain
        ("fisher", {"g_values": [1.5]}),
        ("fisher", {"g_values": [0.5, -0.2]}),
        ("fisher", {"protocol": "cnot", "epsilon": 0.0}),
        ("fisher", {"protocol": "direct", "epsilon": 0.0}),
        ("fisher", {"protocol": "gottesman", "epsilon": 0.0}),
        # outside the validated range of 1 to 31 bins
        ("memory-demo", {"n_bins": 32}),
        # refused before any random generator is built
        ("simulate", {"protocol": "direct", "seed": -1, "n_windows": 100}),
        ("simulate --seed -1", {"protocol": "direct", "n_windows": 100}),
        # an eta other than 1 on a circuit with no ancilla pair to lose
        ("probs", {"protocol": "direct", "eta": 0.5}),
        ("fisher", {"protocol": "gottesman", "eta": 0.5}),
        ("simulate", {"protocol": "direct", "eta": 0.5, "n_windows": 100}),
    ],
)
def test_non_finite_number_exits_2(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main([*command.split(), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def _close_after_one_line(*cli_args):
    """Run ``qtelescopy`` with its stdout read by a reader that closes the pipe
    after the first line; return the exit code and stderr.  Unbuffered, the
    child writes each line as it comes, so it is still writing when the pipe
    closes."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONUNBUFFERED="1")
    child = subprocess.Popen(
        [sys.executable, "-m", "qtelescopy.cli", *cli_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    return child.wait(timeout=120), err


def test_validate_into_a_closed_pipe_exits_1_without_a_traceback():
    code, err = _close_after_one_line("validate")
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert code == 1


def test_simulate_trace_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    cfg = _write_config(tmp_path, protocol="direct", g=0.8, phi=0.7, n_windows=10_000, seed=1)
    code, err = _close_after_one_line("simulate", "--config", str(cfg))
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert code == 1


@pytest.mark.parametrize(
    "overrides",
    [
        # a number must be a JSON number, not a string or a bool
        {"epsilon": "0.5"},
        {"g": True},
        {"epsilon": "0.5", "g": True, "phi": "0.7"},
        {"delta_values": ["0.1"]},
        # an integer must not be a float, a bool must not be an integer
        {"n_windows": 10.0},
        {"swap_bases": 1},
    ],
    ids=lambda overrides: ",".join(overrides),
)
def test_value_of_the_wrong_json_kind_exits_2_with_one_line(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["probs", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("n_windows", [10**30, 2**53 + 1], ids=["1e30", "2^53+1"])
def test_window_count_past_what_a_float_holds_exactly_exits_2_with_one_line(tmp_path, capsys, n_windows):
    # 10**30 windows reached numpy's arrival sampler, whose ValueError escaped as a traceback
    cfg = _write_config(tmp_path, protocol="direct", n_windows=n_windows)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: n_windows must lie in [1, 9007199254740992]")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()
    assert cli.RunConfig.from_dict({"n_windows": 2**53}).n_windows == 2**53


def test_probs_of_a_table_conditioned_on_arrival_at_epsilon_zero_exits_2(tmp_path, capsys, monkeypatch):
    # direct's table is conditioned on a photon arrival: at epsilon = 0 every label would read 0 next to its reference
    entry = dataclasses.replace(estimation.PROTOCOLS["direct"], run=lambda *args: pytest.fail("probs read the table"))
    monkeypatch.setitem(estimation.PROTOCOLS, "direct", entry)
    cfg = _write_config(tmp_path, protocol="direct", epsilon=0.0)
    assert cli.main(["probs", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "epsilon > 0" in captured.err and captured.out == ""
    for protocol in ("cnot", "gottesman"):  # their tables at epsilon = 0 are the no-photon windows'
        cfg = _write_config(tmp_path, protocol=protocol, epsilon=0.0)
        assert cli.main(["probs", "--config", str(cfg)]) == 0
        assert abs(sum(float(row["probability"]) for row in _parse_csv(capsys.readouterr().out)) - 1.0) < 1e-12


def test_unsupported_schema_version_exits_2(tmp_path):
    cfg = _write_config(tmp_path, schema_version=99)
    assert cli.main(["probs", "--config", str(cfg)]) == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["probs", "--config", "/definitely/not/here.json"]) == 2
    # a directory is no config file either: refused before any work, with one error line
    capsys.readouterr()
    assert cli.main(["probs", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path) in err
    # --out is checked, not created, before the config is read, so the refused run leaves no directory
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new").exists()


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["probs", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        b'{"phi": 1' + b"0" * 400 + b"}",  # an integer too large for a float
        b'{"n_windows": 1' + b"0" * 5000 + b"}",  # beyond the digit limit of int()
        b'\xff\xfe{"phi": 0.7}',  # not UTF-8
    ],
    ids=["huge-int", "digit-limit", "not-utf8"],
)
def test_config_text_that_reads_as_no_valid_number_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert cli.main(["probs", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_numerical_invariant_breach_exits_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalInvariantError("synthetic breach")

    monkeypatch.setattr(cli, "cmd_probs", boom)
    cfg = _write_config(tmp_path)
    assert cli.main(["probs", "--config", str(cfg)]) == 3


def test_other_domain_errors_exit_1(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise EstimationError("synthetic failure")

    monkeypatch.setattr(cli, "cmd_probs", boom)
    cfg = _write_config(tmp_path)
    assert cli.main(["probs", "--config", str(cfg)]) == 1


def test_out_of_memory_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. TiB for an array with shape (10000000000000,)")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write_config(tmp_path, protocol="direct", n_windows=10**13)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_config_defaults_applied():
    cfg = cli.RunConfig.from_dict(
        {"schema_version": 1, "protocol": "cnot", "epsilon": 0.1, "g": 1.0,
         "phi": 0.3, "delta": 0.2}
    )
    assert cfg.eta == 1.0
    assert cfg.swap_bases is False
    assert cfg.schedule() == cli.DEFAULT_SCHEDULE


def test_run_config_rejects_bad_protocol():
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict(
            {"schema_version": 1, "protocol": "teleport", "epsilon": 0.1,
             "g": 1.0, "phi": 0.3, "delta": 0.2}
        )


@pytest.mark.parametrize("key", ["phi_values", "g_values", "delta_values"])
def test_empty_value_list_exits_2(tmp_path, capsys, key):
    # an empty list used to fall back to the scalar and print one row
    cfg = _write_config(tmp_path, protocol="direct", **{key: []})
    assert cli.main(["fisher", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {key}, when given, must not be empty\n"


@pytest.mark.parametrize(
    "command,overrides",
    [
        # phase_shift used to overflow to nan here and the sampler to raise
        ("simulate", {"delta_schedule": [1e308, 0.0], "n_windows": 9, "seed": 1}),
        ("probs", {"delta": -1.7976931348623157e308}),
        ("probs", {"phi": 2.0**53}),
        ("fisher", {"phi_values": [0.3, -1e300]}),
        ("fisher", {"delta_values": [1e17]}),
    ],
)
def test_angle_beyond_float_resolution_exits_2(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    cfg = _write_config(tmp_path, phi=cli.MAX_ANGLE, delta=-cli.MAX_ANGLE)
    assert cli.main(["probs", "--config", str(cfg)]) == 0


def test_memory_demo_passes_swap_bases(tmp_path, capsys):
    # at seed 0 the swapped readout ends on the other outcome
    lines = []
    for swap in (False, True):
        cfg = _write_config(tmp_path, n_bins=7, seed=0, swap_bases=swap)
        assert cli.main(["memory-demo", "--config", str(cfg)]) == 0
        run = run_memory_unmodified(7, 3, StellarSource(0.3, 1.0, 0.1), 0.2, 0, swap_bases=swap)
        line = f"n_minus={run.n_minus}, final outcome={run.outcome:+d}"
        assert line in capsys.readouterr().out
        lines.append(line)
    assert lines[0] != lines[1]


def test_memory_demo_at_a_deterministic_fringe(tmp_path, capsys):
    # g = 1 and delta = -phi make one final outcome impossible; its weight
    # comes out as a round-off negative that used to reach rng.choice
    cfg = _write_config(tmp_path, g=1.0, phi=1.0, delta=-1.0, n_bins=3, seed=0)
    assert cli.main(["memory-demo", "--config", str(cfg)]) == 0
    assert "final outcome" in capsys.readouterr().out


_EDGE_NUMBERS = [
    0.0, -0.0, 0.5, 1.0, -1.0, 1.0 - 2.0**-53, 5e-324, 2.2250738585072014e-308,
    math.pi, -math.pi, 2.0**52, 1e300, -1.7976931348623157e308, math.nan, math.inf, -math.inf,
]
_NUMBERS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_EDGE_NUMBERS), st.floats())
_UNIT = st.one_of(st.floats(0.0, 1.0), _NUMBERS)
_VALID_KINDS = st.fixed_dictionaries(
    {"schema_version": st.just(1), "protocol": st.sampled_from(["cnot", "direct", "gottesman"])},
    optional={
        "epsilon": _UNIT,
        "g": _UNIT,
        "phi": _NUMBERS,
        "delta": _NUMBERS,
        "delta_schedule": st.one_of(st.none(), st.lists(_NUMBERS, max_size=3)),
        "eta": _UNIT,
        "variant": st.sampled_from(["cnot_sequence", "parity_feed_forward", "CnotSequence"]),
        "swap_bases": st.booleans(),
        "n_bins": st.integers(0, 7),
        "n_windows": st.integers(0, 200),
        "seed": st.one_of(st.none(), st.integers(-1, 2**64 - 1)),
        "phi_values": st.one_of(st.none(), st.lists(_NUMBERS, max_size=2)),
        "g_values": st.one_of(st.none(), st.lists(_UNIT, max_size=2)),
        "delta_values": st.one_of(st.none(), st.lists(_NUMBERS, max_size=2)),
    },
)
# a value of each JSON kind: a number as a string, a bool, null, an integer, a float, a list and an object
_ANY_KIND = st.one_of(
    st.sampled_from(["0.5", "1", "cnot", "", True, False, None, 0, 1, 10.0, [], ["0.1"], [0.5, True], {"a": 1}]),
    st.lists(_NUMBERS, max_size=2),
)
_KEYS = [f.name for f in dataclasses.fields(cli.RunConfig)]
# about half the configs have one key, any of the 16, of any kind
_CONFIGS = st.one_of(
    _VALID_KINDS, st.builds(lambda raw, key, value: {**raw, key: value}, _VALID_KINDS, st.sampled_from(_KEYS), _ANY_KIND)
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    raw=_CONFIGS,
    command=st.sampled_from(["probs", "fisher", "simulate", "memory-demo", "validate"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_schema_valid_config_exits_with_a_documented_code(raw, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(path), "--format", fmt, "--out", tmp])
        # every JSON output parses strictly
        for written in Path(tmp).glob("*.json"):
            if written != path:
                _strict_json(written.read_text())
    assert code in (0, 1, 2, 3)
