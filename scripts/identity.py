"""Identity harness: one SHA-256 digest per output family of qtelescopy.

Each family runs a fixed, seeded point set through one public entry point
and hashes what comes back: every float as ``float.hex``, every mapping in
key order.  Two revisions produce the same numbers exactly when their
digests agree.  Float digests depend on the numpy and BLAS build, so compare
two revisions on one machine; no digest is meant to be stored.

    python scripts/identity.py                 # digest per family of this checkout
    python scripts/identity.py --against HEAD^ # which families differ from HEAD^

``--against REV`` extracts REV's ``src/`` from git into a temporary directory
and runs this same script there, in a subprocess with that tree's package,
as it runs this checkout's.  A family that cannot run at REV (a name that is
not there yet, or no longer) is reported as absent, not as different.  A
family that differs is reported with its largest absolute and relative
deviation over every number it holds, numbers written in text included, and
with whether its keys, lengths and text match.  The command exits 1 when a
family differs or cannot run in this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (phi, g, epsilon, delta): the ends of each range, then seeded interior points
_rng = np.random.default_rng(20211108)
POINTS = [(0.7, 0.8, 0.1, 0.3), (0.0, 1.0, 1.0, 0.0), (-2.1, 0.0, 0.5, 1.2), (3.0, 0.5, 1e-3, -0.7)] + [
    (float(_rng.uniform(-math.pi, math.pi)), float(_rng.uniform()), float(_rng.uniform(1e-3, 1.0)),
     float(_rng.uniform(-math.pi, math.pi)))
    for _ in range(4)
]
BINS = (3, 7, 15)


def _source(point):
    """The star of a point of POINTS; its last entry is the readout phase."""
    from qtelescopy.sources import StellarSource

    return StellarSource(*point[:3])


# ---------------------------------------------------------------------------
# families: each returns the value its digest is taken of


def cnot_distribution():
    from qtelescopy.protocols import ProtocolConfig, Variant, cnot_distribution

    return {
        (variant.value, eta, point): cnot_distribution(_source(point), ProtocolConfig(point[3], eta, variant))
        for variant in Variant
        for eta in (1.0, 0.6)
        for point in POINTS
    }


def gottesman_distribution():
    from qtelescopy.protocols import gottesman_distribution

    return {point: gottesman_distribution(_source(point), point[3]) for point in POINTS}


def gottesman_haar_bound():
    from qtelescopy.protocols import linear_bound_search

    return linear_bound_search(60, 7)


def direct_distribution():
    from qtelescopy.protocols import direct_distribution

    return {(swap, point): direct_distribution(_source(point), point[3], swap) for swap in (False, True) for point in POINTS}


def sample_cnot_windows():
    from qtelescopy.protocols import ProtocolConfig, Variant, sample_cnot_windows

    return {
        (variant.value, seed, point): sample_cnot_windows(_source(point), ProtocolConfig(point[3], 0.8, variant), 200, seed)
        for variant in Variant
        for seed in range(3)
        for point in POINTS[:2]
    }


def _memory_runs(run):
    from qtelescopy.sources import NO_PHOTON

    point = POINTS[0]
    return {
        (n_bins, arrival, swap): run(n_bins, arrival, _source(point), point[3], 100 * n_bins + (arrival or 0), swap)
        for n_bins in BINS
        for arrival in [NO_PHOTON, *range(1, n_bins + 1)]
        for swap in (False, True)
    }


def run_memory_modified():
    from qtelescopy.protocols import run_memory_modified

    return _memory_runs(run_memory_modified)


def run_memory_unmodified():
    from qtelescopy.protocols import run_memory_unmodified

    return _memory_runs(run_memory_unmodified)


def _plans():
    from qtelescopy.estimation import DEFAULT_SCHEDULE, ExperimentPlan
    from qtelescopy.protocols import Variant

    point = POINTS[0]
    return [
        ExperimentPlan(protocol, _source(point), schedule, 2000, seed, eta, variant, swap)
        for protocol, eta, variant, swap in (
            ("cnot", 1.0, Variant.CNOT_SEQUENCE, False),
            ("cnot", 0.6, Variant.PARITY_FEED_FORWARD, False),
            ("gottesman", 1.0, Variant.CNOT_SEQUENCE, False),
            ("direct", 1.0, Variant.CNOT_SEQUENCE, False),
            ("direct", 1.0, Variant.CNOT_SEQUENCE, True),
        )
        for schedule in (DEFAULT_SCHEDULE, (0.0, 0.3, 1.9))
        for seed in (1, 2)
    ]


def run_experiment():
    from qtelescopy.estimation import run_experiment

    return [(repr(plan), run_experiment(plan)) for plan in _plans()]


def run_experiment_direct_1e6():
    from qtelescopy.estimation import DEFAULT_SCHEDULE, ExperimentPlan, run_experiment

    return run_experiment(ExperimentPlan("direct", _source(POINTS[0]), DEFAULT_SCHEDULE, 10**6, 1))


def mle_phase():
    from qtelescopy.estimation import mle_phase, run_experiment

    return [(repr(plan), mle_phase(run_experiment(plan), plan)) for plan in _plans()]


def mc_cnot():
    """The benchmark's warm estimate: 20 seeded plans of the headline protocol at g = 1."""
    from qtelescopy.estimation import DEFAULT_SCHEDULE, ExperimentPlan, mle_phase, run_experiment
    from qtelescopy.sources import StellarSource

    plans = [ExperimentPlan("cnot", StellarSource(0.7, 1.0, 0.1), DEFAULT_SCHEDULE, 10**4, seed) for seed in range(20)]
    return [(repr(plan), mle_phase(run_experiment(plan), plan)) for plan in plans]


def crb_report():
    from qtelescopy.estimation import DEFAULT_SCHEDULE, crb_report

    return {
        (protocol, schedule, point): crb_report(protocol, _source(point), schedule)
        for protocol in ("cnot", "gottesman", "direct")
        for schedule in (DEFAULT_SCHEDULE, (0.0, 0.3, 0.3))
        for point in (POINTS[0], POINTS[3], POINTS[5])
    }


def _cli_files(command, configs):
    """Every file ``command`` writes, or prints, for each config and format."""
    from qtelescopy import cli

    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            path = Path(tmp) / f"config-{i}.json"
            path.write_text(json.dumps(dict(config, schema_version=1)))
            for fmt in ("csv", "json"):
                out = Path(tmp) / f"out-{i}-{fmt}"
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = cli.main([command, "--config", str(path), "--format", fmt, "--out", str(out)])
                files[(i, fmt, "exit")] = code
                if command == "validate":
                    files[(i, fmt, "stdout")] = printed.getvalue()
                for written in sorted(out.glob("*")):
                    files[(i, fmt, written.name)] = written.read_text()
    return files


def cli_probs():
    return _cli_files("probs", [
        dict(protocol="cnot", eta=0.6, variant="parity_feed_forward", epsilon=0.1, g=0.8, phi=0.7, delta=0.3),
        dict(protocol="direct", swap_bases=True, epsilon=0.1, g=0.8, phi=0.7, delta=0.3),
        dict(protocol="gottesman", epsilon=0.1, g=0.8, phi=0.7, delta=0.3),
    ])


def cli_fisher():
    sweep = dict(phi_values=[0.7, -1.1], g_values=[0.0, 0.5, 1.0], delta_values=[0.0, 0.3])
    return _cli_files("fisher", [
        dict(sweep, protocol="cnot", epsilon=0.1),
        dict(sweep, protocol="direct", epsilon=0.2, swap_bases=True),
        dict(sweep, protocol="gottesman", epsilon=0.1),
    ])


def cli_simulate():
    return _cli_files("simulate", [
        dict(protocol="cnot", epsilon=0.1, g=0.8, phi=0.7, n_windows=3000, seed=1),
        dict(protocol="direct", epsilon=0.1, g=0.8, phi=0.7, n_windows=3000, seed=1, swap_bases=True),
        dict(protocol="gottesman", epsilon=0.3, g=0.6, phi=-1.2, n_windows=3000, seed=2, delta_schedule=[0.0, 0.4, 1.9]),
        # a trace across the 10^4 and 10^5 window-number digit edges
        dict(protocol="direct", epsilon=0.1, g=0.8, phi=0.7, n_windows=123457, seed=3),
    ])


def cli_memory_demo():
    return _cli_files("memory-demo", [dict(n_bins=n_bins, seed=1) for n_bins in BINS] + [dict(n_bins=7, seed=4, swap_bases=True)])


def cli_validate():
    return _cli_files("validate", [{}])


FAMILIES = {
    family.__name__: family
    for family in (
        cnot_distribution,
        gottesman_distribution,
        gottesman_haar_bound,
        direct_distribution,
        sample_cnot_windows,
        run_memory_modified,
        run_memory_unmodified,
        run_experiment,
        run_experiment_direct_1e6,
        mle_phase,
        mc_cnot,
        crb_report,
        cli_probs,
        cli_fisher,
        cli_simulate,
        cli_memory_demo,
        cli_validate,
    )
}
# a subset that takes about a second, for the test suite
QUICK = ("cnot_distribution", "direct_distribution", "sample_cnot_windows", "run_memory_unmodified")


# ---------------------------------------------------------------------------
# digests


def canonical(value):
    """``value`` as nested lists of str, int, bool, None and float, in a fixed
    order: a mapping becomes ``["dict", [[key, value], ...]]`` in key order,
    an array ``["array", dtype, shape, entries]``, any other sequence a list."""
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical({field.name: getattr(value, field.name) for field in dataclasses.fields(value)})
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return ["dict", sorted(pairs, key=lambda pair: json.dumps(_hexed(pair[0])))]
    if isinstance(value, np.ndarray):
        return ["array", value.dtype.str, list(value.shape), canonical(value.ravel().tolist())]
    if isinstance(value, np.generic):
        return canonical(value.item())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Sequence):  # a list, a tuple, or a sequence such as sample_cnot_windows returns
        return [canonical(v) for v in value]
    if isinstance(value, complex):
        return ["complex", value.real, value.imag]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _hexed(canon):
    if isinstance(canon, float):
        return canon.hex()
    if isinstance(canon, list):
        return [_hexed(c) for c in canon]
    return canon


def digest(canon) -> str:
    return hashlib.sha256(json.dumps(_hexed(canon)).encode()).hexdigest()


def _values(names) -> dict[str, dict]:
    """``{"value": canonical value}`` per family, or ``{"absent": reason}`` if it cannot run."""
    results = {}
    for name in names:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                results[name] = {"value": canonical(FAMILIES[name]())}
        except Exception as exc:  # a family that cannot run at this revision is reported, not fatal
            results[name] = {"absent": f"{type(exc).__name__}: {exc}"}
    return results


def _digests(values: dict[str, dict]) -> dict[str, dict]:
    return {name: {"digest": digest(r["value"])} if "value" in r else r for name, r in values.items()}


def collect(names) -> dict[str, dict]:
    """``{"digest": ...}`` per family, or ``{"absent": reason}`` if it cannot run."""
    return _digests(_values(names))


# a number written in text, split out of it with its surroundings kept
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|NaN|inf|Infinity))")


def _is_dict(canon) -> bool:
    return isinstance(canon, list) and len(canon) == 2 and canon[0] == "dict" and isinstance(canon[1], list)


def deviation(a, b) -> tuple[float, float, bool]:
    """The largest absolute and relative deviation between the numbers of two
    canonical values, and whether the rest of them matches: keys, lengths, and
    text outside its numbers.  Numbers are paired by key and position as far as
    both values reach; two nans, or two equal infinities, do not deviate."""
    worst = [0.0, 0.0]
    same = True

    def visit(x, y):
        nonlocal same
        if isinstance(x, str) and isinstance(y, str):
            xs, ys = _NUMBER.split(x), _NUMBER.split(y)
            same &= len(xs) == len(ys) and xs[::2] == ys[::2]
            for u, v in zip(xs[1::2], ys[1::2]):
                visit(float(u), float(v))
        elif _is_dict(x) and _is_dict(y):
            xd, yd = ({json.dumps(k): v for k, v in c[1]} for c in (x, y))
            same &= xd.keys() == yd.keys()
            for key in xd.keys() & yd.keys():
                visit(xd[key], yd[key])
        elif isinstance(x, list) and isinstance(y, list):
            same &= len(x) == len(y)
            for u, v in zip(x, y):
                visit(u, v)
        elif all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in (x, y)):
            if x == y or (math.isnan(x) and math.isnan(y)):
                return
            gap = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
            worst[0] = max(worst[0], gap)
            worst[1] = max(worst[1], gap / max(abs(x), abs(y)) if math.isfinite(gap) else math.inf)
        else:
            same &= x == y

    visit(a, b)
    return worst[0], worst[1], same


# ---------------------------------------------------------------------------
# command line


def _values_in_child(src: Path, names) -> dict[str, dict]:
    """:func:`_values` in a fresh interpreter that imports qtelescopy from ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--json", *names]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=src.parent)
    if done.returncode != 0:
        raise SystemExit(f"identity: the run under {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)  # floats are written as repr, so each value comes back exactly


def _collect_in_child(src: Path, names) -> dict[str, dict]:
    """:func:`collect` in a fresh interpreter that imports qtelescopy from ``src``."""
    return _digests(_values_in_child(src, names))


def _src_at(rev: str, into: Path) -> Path:
    """Extract ``src/`` of git revision ``rev`` under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"identity: git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("families", nargs="*", help=f"families to digest (default: all): {', '.join(FAMILIES)}")
    parser.add_argument("--against", metavar="REV", help="compare with the digests of git revision REV")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.families or list(FAMILIES)
    unknown = set(names) - set(FAMILIES)
    if unknown:
        parser.error(f"unknown families {sorted(unknown)}")

    if args.json:  # the child of _values_in_child
        sys.path.insert(0, str(args.src))
        import qtelescopy

        if Path(qtelescopy.__file__).resolve().parent != (args.src / "qtelescopy").resolve():
            raise SystemExit(f"identity: imported qtelescopy from {qtelescopy.__file__}, not {args.src}")
        print(json.dumps(_values(names)))
        return 0

    values_here = _values_in_child(args.src, names)
    here = _digests(values_here)
    broken = [name for name in names if "absent" in here[name]]
    if args.against is None:
        for name in names:
            print(f"{here[name].get('digest', 'absent'):<64}  {name}  {here[name].get('absent', '')}".rstrip())
        return 1 if broken else 0

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        values_there = _values_in_child(_src_at(args.against, Path(tmp)), names)
    there = _digests(values_there)
    counts = {"identical": 0, "DIFFERS": 0, "absent": 0}
    for name in names:
        if name in broken:
            status, detail = "absent", f" here: {here[name]['absent']}"
        elif "absent" in there[name]:
            status, detail = "absent", f" at {args.against}: {there[name]['absent']}"
        elif here[name] == there[name]:
            status, detail = "identical", ""
        else:
            largest, relative, same = deviation(values_here[name]["value"], values_there[name]["value"])
            status = "DIFFERS"
            detail = (f"  largest deviation {largest:.3g} absolute, {relative:.3g} relative;"
                      f" keys and lengths {'match' if same else 'DIFFER'}")
        counts[status] += 1
        print(f"{name:<28} {status}{detail}")
    print(f"against {args.against}: {counts['identical']} identical, {counts['DIFFERS']} differ, {counts['absent']} absent")
    return 1 if counts["DIFFERS"] or broken else 0


if __name__ == "__main__":
    sys.exit(main())
