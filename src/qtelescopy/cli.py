"""Batch command-line front end.

Subcommands::

    probs        outcome table of one protocol at one parameter point
    fisher       classical/quantum information sweep as CSV or JSON
    simulate     Monte-Carlo experiment + MLE summary with a JSON-lines trace
    memory-demo  time-bin encode/decode transcript and resource comparison
    validate     run the built-in invariant suite

Configuration is a flat JSON object with a ``schema_version`` field;
unknown keys are rejected.  Exit codes: 0 success, 2 configuration error,
3 numerical-invariant violation, 1 any other error, a failed write and a
reader that closed the output pipe included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

from . import analytic
from .errors import PAIR_ATOL, SLD_ATOL, SUM_ATOL, TABLE_ATOL, ConfigError, NumericalInvariantError, QTelescopyError
from .estimation import (
    DEFAULT_SCHEDULE,
    ExperimentPlan,
    _check_eta,
    get_protocol,
    mle_phase,
    outcome_heralds,
    run_experiment,
    window_fisher,
)
from .fisher import G_BOUNDARY, qfi_matrix, saturability_check, sld
from .gates import beam_splitter
from .protocols import (
    Herald,
    ProtocolConfig,
    Variant,
    bell_register,
    classify_herald,
    cnot_branches,
    cnot_distribution,
    decode_time_bin,
    direct_distribution,
    encode_time_bin_modified,
    gottesman_distribution,
    memory_resources,
    pairs_for_bins,
    run_memory_unmodified,
    BELL_MINUS,
    BELL_PLUS,
)
from .sources import (
    StellarSource,
    conditional_g_derivative,
    conditional_phi_derivative,
    single_photon_conditional,
)
from .state_engine import apply_unitary, basis_index, fock

SCHEMA_VERSION = 1
# the unmodified memory run holds one state of 2 + 4 * bit_length(n_bins)
# modes at cutoff 1 on its support, at most 2 * 2^bit_length(n_bins)
# amplitudes (64 at 31 bins).  Its int64 labels would take up to 62 modes,
# i.e. up to 2^15 - 1 bins; the validated range stays at 31 bins
MAX_N_BINS = 31
# beyond 2^52 rad consecutive floats lie more than 1 rad apart, so a value
# there names no phase (and its multiples overflow near 1e308)
MAX_ANGLE = 2.0**52


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    schema_version: int = SCHEMA_VERSION
    protocol: str = "cnot"
    epsilon: float = 0.1
    g: float = 1.0
    phi: float = 0.7
    delta: float = 0.0
    delta_schedule: tuple[float, ...] | None = None
    eta: float = 1.0
    variant: str = "cnot_sequence"
    swap_bases: bool = False
    n_bins: int = 7
    n_windows: int = 1000
    seed: int | None = None
    phi_values: tuple[float, ...] | None = None
    g_values: tuple[float, ...] | None = None
    delta_values: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {f.name: raw.get(f.name, getattr(cls, f.name)) for f in dataclasses.fields(cls)}
        cfg = cls(**_coerce_types(merged))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version}; expected {SCHEMA_VERSION}"
            )
        unit, angle = (0.0, 1.0), (-MAX_ANGLE, MAX_ANGLE)
        bounds = {
            "epsilon": unit, "g": unit, "eta": unit, "n_bins": (1, MAX_N_BINS),
            "phi": angle, "delta": angle, "delta_schedule": angle,
            "phi_values": angle, "g_values": unit, "delta_values": angle,
        }
        for key, (lo, hi) in bounds.items():
            value = getattr(self, key)
            if value == ():
                raise ConfigError(f"{key}, when given, must not be empty")
            named = {key: value}
            if isinstance(value, tuple):
                named = {f"{key}[{i}]": v for i, v in enumerate(value)}
            for name, v in named.items():
                if v is not None and not lo <= v <= hi:
                    raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {v}")
        if self.n_windows < 1:
            raise ConfigError(f"n_windows must be >= 1, got {self.n_windows}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0 or null, got {self.seed}")
        try:
            _check_eta(self.protocol, self.eta)
            Variant.parse(self.variant)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def source(self) -> StellarSource:
        return StellarSource(self.phi, self.g, self.epsilon)

    def schedule(self) -> tuple[float, ...]:
        if self.delta_schedule is not None:
            return self.delta_schedule
        return tuple(DEFAULT_SCHEDULE)


def _coerce_types(merged: dict) -> dict:
    def finite(value, name):
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        return number

    for key in ("delta_schedule", "phi_values", "g_values", "delta_values"):
        value = merged[key]
        if value is None:
            continue
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list of numbers")
        merged[key] = tuple(finite(v, f"{key}[{i}]") for i, v in enumerate(value))
    for key in ("epsilon", "g", "phi", "delta", "eta"):
        merged[key] = finite(merged[key], key)
    for key in ("schema_version", "n_bins", "n_windows"):
        if not isinstance(merged[key], int) or isinstance(merged[key], bool):
            raise ConfigError(f"{key} must be an integer, got {merged[key]!r}")
    if merged["seed"] is not None and (
        not isinstance(merged["seed"], int) or isinstance(merged["seed"], bool)
    ):
        raise ConfigError(f"seed must be an integer or null, got {merged['seed']!r}")
    if not isinstance(merged["swap_bases"], bool):
        raise ConfigError("swap_bases must be a boolean")
    for key in ("protocol", "variant"):
        if not isinstance(merged[key], str):
            raise ConfigError(f"{key} must be a string")
    return merged


def load_config(path: str | None, seed_override: int | None) -> RunConfig:
    if path is None:
        raw: dict = {}
    else:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    if seed_override is not None:
        raw = dict(raw, seed=seed_override)
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# output helpers


def fmt_float(x) -> str:
    return "" if x is None else "%.17g" % float(x)


def _emit_table(header: list[str], rows: list[list], args, stem: str) -> None:
    """Write one tabular result as CSV (default) or JSON."""
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        suffix = ".json"
    else:
        def cell(value) -> str:
            written = fmt_float(value) if value is None or isinstance(value, float) else str(value)
            return '"' + written + '"' if "," in written else written

        lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
        text = "\n".join(lines) + "\n"
        suffix = ".csv"
    _write_or_print(text, args, stem + suffix)


def _write_or_print(text: str | Iterable[bytes], args, filename: str) -> None:
    """Write a string as text, or byte chunks in binary as they come; on stdout, after what it
    holds, and decoded where stdout has no binary buffer (an ``io.StringIO``)."""
    binary = not isinstance(text, str)
    chunks = text if binary else [text]
    if args.out:
        (out_dir := Path(args.out)).mkdir(parents=True, exist_ok=True)
        with open(out_dir / filename, "wb" if binary else "w") as fh:
            fh.writelines(chunks)
        print(f"wrote {out_dir / filename}")
    elif binary and hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:
        sys.stdout.writelines(chunk.decode() if binary else chunk for chunk in chunks)


def _trace_chunks(outcomes, prefixes: list[str]) -> Iterable[bytes]:
    """``prefixes[o] + str(w) + "}\\n"`` for each window ``w`` of outcome index ``o``, encoded, 1000 windows
    a chunk; past the first, each prefix is completed with the chunk's high digits ``str(a)[:-3]``."""
    low = np.array([b"%03d}\n" % i for i in range(1000)], dtype=object)
    for a in range(0, len(outcomes), 1000):
        b = min(a + 1000, len(outcomes))
        rows = np.empty((b - a, 2), dtype=object)
        rows[:, 0] = np.array([(p + str(a)[:-3]).encode() for p in prefixes], dtype=object)[outcomes[a:b]]
        rows[:, 1] = [b"%d}\n" % w for w in range(b)] if a == 0 else low[: b - a]
        yield b"".join(rows.ravel().tolist())


def _label_text(label: tuple) -> str:
    return "(" + ",".join(f"{v:+d}" if v < 0 else str(v) for v in label) + ")"


# ---------------------------------------------------------------------------
# subcommands


def cmd_probs(args) -> int:
    cfg = load_config(args.config, args.seed)
    source = cfg.source()
    protocol = get_protocol(cfg.protocol)
    table = protocol.run(source, cfg.delta, cfg.eta, cfg.variant, cfg.swap_bases)
    reference = None
    if protocol.reference is not None:
        reference = protocol.reference(source, cfg.delta, cfg.eta, cfg.swap_bases)

    rows = []
    for label in sorted(set(table) | set(reference or {})):
        p = table.get(label, 0.0)
        if reference is None:
            rows.append([_label_text(label), float(p), None, None])
        else:
            ref = reference.get(label, 0.0)
            rows.append([_label_text(label), float(p), float(ref), float(abs(p - ref))])
    header = ["label", "probability", "analytic_reference_probability", "abs_diff"]
    _emit_table(header, rows, args, f"probs_{cfg.protocol}")
    return 0


def _fisher_row(cfg: RunConfig, phi: float, g: float, delta: float) -> list:
    source = StellarSource(phi, g, cfg.epsilon)
    at_boundary = g >= G_BOUNDARY
    wrt = ("phi",) if at_boundary else ("phi", "g")
    setting = (delta, cfg.epsilon, cfg.eta, cfg.variant, cfg.swap_bases)
    fmat = window_fisher(cfg.protocol, setting, (phi, g), wrt)
    f_pp = fmat.phi_phi
    f_gg = np.nan if at_boundary else fmat.g_g
    f_pg = np.nan if at_boundary else fmat.phi_g

    rho = single_photon_conditional(source)
    drho_phi = conditional_phi_derivative(phi, g)
    drho_g = None if at_boundary else conditional_g_derivative(phi, g)
    qmat = qfi_matrix(rho, drho_phi, drho_g)
    h_pp = cfg.epsilon * qmat.phi_phi
    if at_boundary:
        h_gg = h_pg = sat = np.nan
    else:
        h_gg = cfg.epsilon * qmat.g_g
        h_pg = cfg.epsilon * qmat.phi_g
        sat = saturability_check(rho, sld(rho, drho_phi), sld(rho, drho_g))
    return [phi, g, delta, f_pp, f_gg, f_pg, h_pp, h_gg, h_pg, sat]


def cmd_fisher(args) -> int:
    cfg = load_config(args.config, args.seed)
    if cfg.epsilon == 0.0:
        raise ConfigError("fisher needs epsilon > 0: no photon, no information")
    phis = cfg.phi_values or (cfg.phi,)
    gs = cfg.g_values or (cfg.g,)
    deltas = cfg.delta_values or (cfg.delta,)
    rows = [_fisher_row(cfg, phi, g, delta) for phi in phis for g in gs for delta in deltas]
    header = ["phi", "g", "delta", "f_phiphi", "f_gg", "f_phig", "h_phiphi", "h_gg", "h_phig", "saturability"]
    _emit_table(header, rows, args, f"fisher_{cfg.protocol}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.seed)
    plan = ExperimentPlan(
        protocol=cfg.protocol,
        source=cfg.source(),
        delta_schedule=cfg.schedule(),
        n_windows=cfg.n_windows,
        seed=cfg.seed,
        eta=cfg.eta,
        variant=cfg.variant,
        swap_bases=cfg.swap_bases,
    )
    outcomes = run_experiment(plan)
    report = mle_phase(outcomes, plan)

    # every trace line up to its window number, per outcome index and with
    # index -1 (no photon) last; "window" sorts after the other keys
    records = [list(label) for label in get_protocol(cfg.protocol).outcomes()] + [None]
    prefixes = []
    for herald, record in zip(outcome_heralds(cfg.protocol), records):
        payload = {
            "window": 0,
            "arrival_bin": None,
            "herald": herald.value,
            "record": record,
            "decoded_bin": None,
            "seed": cfg.seed,
        }
        prefixes.append(json.dumps(payload, sort_keys=True)[: -len("0}")])
    _write_or_print(_trace_chunks(outcomes, prefixes), args, "trace.jsonl")

    summary = {
        "protocol": cfg.protocol,
        "phi_true": cfg.phi,
        "phi_hat": report.phi_hat,
        "empirical_mse": report.empirical_mse,
        "crb": report.crb,
        "n_windows": cfg.n_windows,
        "n_heralded": report.n_heralded,
        "n_vacuum": report.n_vacuum,
        "fisher_per_window": report.fisher_per_window,
        "delta_schedule": list(plan.delta_schedule),
        "seed": cfg.seed,
    }
    if args.format == "json":
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        _write_or_print(text, args, "summary.json")
    else:
        keys = sorted(summary)
        _emit_table(keys, [[summary[k] for k in keys]], args, "summary")
    return 0


def _pair_symbol(vec) -> str:
    if abs(abs(np.vdot(BELL_PLUS, vec)) - 1.0) < PAIR_ATOL:
        return "|Φ+⟩"
    if abs(abs(np.vdot(BELL_MINUS, vec)) - 1.0) < PAIR_ATOL:
        return "|Φ−⟩"
    return "|?⟩"


def cmd_memory_demo(args) -> int:
    cfg = load_config(args.config, args.seed)
    n_bins = cfg.n_bins
    n_pairs = pairs_for_bins(n_bins)
    rng_seed = cfg.seed if cfg.seed is not None else 0
    lines = [f"time-bin memory demo: N={n_bins} ({n_pairs} Bell pairs)"]
    lines.append("arrival -> encoded pairs -> decoded")
    fresh = bell_register(n_pairs)
    for arrival in [None] + list(range(1, n_bins + 1)):
        register = encode_time_bin_modified(fresh, arrival)
        pattern = "".join(_pair_symbol(p) for p in register.pairs)
        decoded = decode_time_bin(register, rng_seed)
        left = "no photon" if arrival is None else f"bin {arrival}"
        right = "no photon" if decoded is None else f"bin {decoded}"
        note = " (ancilla unchanged)" if arrival is None else ""
        lines.append(f"  {left:>9} -> {pattern}{note} -> {right}")
        if decoded != arrival:
            raise NumericalInvariantError(f"round-trip failed: {arrival} -> {decoded}")

    modified = memory_resources(n_bins, modified=True)
    original = memory_resources(n_bins, modified=False)
    lines.append("resources per window:")
    lines.append(
        f"  modified:   {modified.n_pairs} Bell pairs = "
        f"{modified.total_ancilla_qubits} ancilla qubits, "
        f"{modified.encode_gates_per_lab} encode gate slots per lab"
    )
    lines.append(
        f"  unmodified: {original.n_pairs} Bell pairs + {original.memory_qubits} memory qubits = "
        f"{original.total_ancilla_qubits} ancilla qubits, "
        f"{original.encode_gates_per_lab} encode gate slots per lab"
    )
    halved = modified.total_ancilla_qubits * 2 == original.total_ancilla_qubits
    lines.append(f"  ancilla qubits halved: {'yes' if halved else 'NO'}")

    source = cfg.source()
    sample_bin = min(3, n_bins)
    run = run_memory_unmodified(n_bins, sample_bin, source, cfg.delta, rng_seed, cfg.swap_bases)
    lines.append(
        f"unmodified sample run (bin {sample_bin}): decoded={run.decoded}, "
        f"n_minus={run.n_minus}, final outcome={run.outcome:+d}"
    )
    _write_or_print("\n".join(lines) + "\n", args, "memory_demo.txt")
    return 0


# ---------------------------------------------------------------------------
# validate: built-in invariant suite


def _validate_checks():
    n_max = 2

    def beam_splitter_bunching():
        state = apply_unitary(fock((1, 1), n_max), beam_splitter(0, 1, n_max))
        residual = abs(state.amplitudes[basis_index((1, 1), n_max)])
        return residual < TABLE_ATOL, f"|11> residual after balanced splitter = {residual:.2e}"

    def gap(a: dict, b: dict) -> float:
        """The worst |a - b| over the union of two tables' labels."""
        return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))

    def circuit_matches_reference():
        worst = 0.0
        for phi in (0.3, 2.2):
            for delta in (0.15, 1.0):
                for g in (0.5, 1.0):
                    for eta in (1.0, 0.6):
                        sim = cnot_distribution(StellarSource(phi, g, 0.1), ProtocolConfig(delta, eta))
                        worst = max(worst, gap(sim, analytic.cnot_outcome_table(phi, g, 0.1, delta, eta)))
        return worst < TABLE_ATOL, f"worst |circuit - reference| = {worst:.2e}"

    def wiring_variants_agree():
        worst = 0.0
        for phi, delta, g, eta in ((0.4, 0.3, 1.0, 1.0), (1.7, 0.9, 0.5, 0.55)):
            src = StellarSource(phi, g, 0.1)
            a = cnot_distribution(src, ProtocolConfig(delta, eta, Variant.CNOT_SEQUENCE))
            b = cnot_distribution(src, ProtocolConfig(delta, eta, Variant.PARITY_FEED_FORWARD))
            worst = max(worst, gap(a, b))
        return worst < TABLE_ATOL, f"worst |A - B| = {worst:.2e}"

    def heralds_sound():
        src = StellarSource(0.8, 0.7, 0.2)
        for name, present, _, table in cnot_branches(src, ProtocolConfig(0.4, 0.7)):
            for label in table:
                herald = classify_herald(label)
                if present and name in ("plus", "minus") and herald is not Herald.PHOTON_ARRIVED:
                    return False, f"photon branch produced {label} with herald {herald}"
                if present and name == "vacuum" and herald is not Herald.VACUUM:
                    return False, f"vacuum branch produced {label} with herald {herald}"
        return True, "photon windows agree, vacuum windows disagree"

    def distributions_normalized():
        src = StellarSource(1.1, 0.8, 0.3)
        totals = [
            sum(cnot_distribution(src, ProtocolConfig(0.5, 0.7)).values()),
            sum(gottesman_distribution(src, 0.5).values()),
            sum(direct_distribution(src, 0.5).values()),
        ]
        worst = max(abs(t - 1.0) for t in totals)
        return worst < SUM_ATOL, f"worst |sum - 1| = {worst:.2e}"

    def sld_closed_forms():
        worst = 0.0
        for g in (0.3, 0.7):
            for phi in (0.0, 1.0, 2.5):
                rho = single_photon_conditional(StellarSource(phi, g, 0.1))
                l_phi = sld(rho, conditional_phi_derivative(phi, g))
                l_g = sld(rho, conditional_g_derivative(phi, g))
                worst = max(worst, np.abs(l_phi - analytic.sld_phi(phi, g)).max())
                worst = max(worst, np.abs(l_g - analytic.sld_g(phi, g)).max())
                residual = (l_phi @ rho + rho @ l_phi) / 2.0 - conditional_phi_derivative(phi, g)
                worst = max(worst, np.abs(residual).max())
        return worst < SLD_ATOL, f"worst SLD deviation = {worst:.2e}"

    def memory_round_trip():
        for arrival in [None] + list(range(1, 8)):
            register = encode_time_bin_modified(bell_register(3), arrival)
            if decode_time_bin(register, 5) != arrival:
                return False, f"round-trip failed at arrival {arrival}"
        halved = (
            memory_resources(7, True).total_ancilla_qubits * 2
            == memory_resources(7, False).total_ancilla_qubits
        )
        return halved, "round-trip exact; ancilla count halved"

    def direct_matches_reference():
        worst = 0.0
        for phi, delta, g in ((0.0, 0.0, 1.0), (0.9, 0.4, 0.6)):
            sim = direct_distribution(StellarSource(phi, g, 0.1), delta)
            ref = analytic.direct_outcome_table(phi, g, delta)
            worst = max(worst, gap(sim, ref))
        return worst < TABLE_ATOL, f"worst |direct - reference| = {worst:.2e}"

    checks = (beam_splitter_bunching, circuit_matches_reference, wiring_variants_agree, heralds_sound,
              distributions_normalized, sld_closed_forms, memory_round_trip, direct_matches_reference)
    return [(check.__name__, check) for check in checks]


def cmd_validate(args) -> int:
    failures = 0
    for name, check in _validate_checks():
        try:
            ok, detail = check()
        except QTelescopyError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += not ok
    if failures:
        print(f"{failures} invariant check(s) failed")
        return 3
    print("all invariant checks passed")
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; :func:`main` looks up ``cmd_<command>`` for each fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", metavar="DIR", help="write outputs into DIR instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="qtelescopy",
        description="few-mode photonic simulator and estimation toolkit for "
        "long-baseline stellar interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("probs", "outcome probabilities"),
        ("fisher", "information sweep"),
        ("simulate", "Monte-Carlo run + MLE"),
        ("memory-demo", "time-bin memory transcript"),
        ("validate", "run invariant checks"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out and any(p.exists() and not p.is_dir() for p in (Path(args.out), *Path(args.out).parents)):
            raise ConfigError(f"--out {args.out}: it or a parent exists and is not a directory")  # before any work
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # a closed pipe's reader is gone; another failed write or open is named.  What the
        # process's stdout still buffers goes to devnull, so the exit flush cannot fail again
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except QTelescopyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
