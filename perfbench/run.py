"""qtelescopy benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-cnot --seed 1 --seconds 10 --trace 0

Workloads: mc-cnot, simulate-cli, fisher-sweep, memory-unmodified (see
perfbench/README.md).  Every workload is a closed loop with one client in
this process; ``simulate-cli`` starts one CLI child process per operation,
never two at once.  The program is imported from ``src/`` of the checkout
this script sits in.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import checks  # the checks read qtelescopy.analytic
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
WORK = ROOT / ".perfbench-work"
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
CLI_MAIN = "import sys; from qtelescopy.cli import main; sys.exit(main())"
IMPORT_STARTS = 3  # fresh-interpreter imports timed per set-up


def load_program():
    """Import qtelescopy from this checkout's src/, and nowhere else."""
    init = SRC / "qtelescopy" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no program source at {init}")
    import qtelescopy
    import qtelescopy.cli

    if Path(qtelescopy.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported qtelescopy from {qtelescopy.__file__}, not {init}")
    return qtelescopy


def derive(*ids: int) -> int:
    """A 63-bit seed derived from the workload seed and an operation path."""
    return int(np.random.SeedSequence(list(ids)).generate_state(1, dtype=np.uint64)[0] >> 1)


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float]:
    """Run one child to completion; (exit code, peak RSS in MB from wait4)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=CHILD_ENV, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass
class Outcome:
    """One attempted operation: its timed duration and what the checks said."""

    seconds: float
    fault: str | None = None
    problems: list = dataclasses.field(default_factory=list)
    rss_mb: float | None = None
    trace_bytes: int = 0
    spans: str | None = None


class Workload:
    name = ""
    # spans the traced run must see called at least once
    exercised: tuple[str, ...] = ()

    def __init__(self, q, seed: int):
        self.q = q
        self.seed = seed

    def warmup(self) -> list:
        """Operations run once during set-up, so lazy caches fill before timing."""
        return []

    def round(self, r: int) -> list:
        """The operations of round ``r``; a run attempts whole rounds."""
        raise NotImplementedError

    def execute(self, op, traced: bool):
        raise NotImplementedError

    def check(self, op, output, exc, outcome: Outcome) -> None:
        raise NotImplementedError

    def finish(self, outcomes: list[Outcome]) -> list[str]:
        """Checks over a whole loop."""
        return []


class McCnot(Workload):
    """run_experiment + mle_phase on fresh-seeded cnot plans at g = 1."""

    name = "mc-cnot"
    exercised = (
        "state_engine.basis_labels",
        "state_engine.number_measurement_distribution",
        "state_engine.apply_unitary",
        "protocols.cnot_distribution",
        "protocols.sample_cnot_windows",
        "fisher.classical_fisher",
        "fisher.OutcomeModel.probs",
        "estimation.run_experiment",
        "estimation.mle_phase",
        "estimation.crb_report",
    )
    PHI, G, EPSILON, WINDOWS = 0.7, 1.0, 0.1, 10_000
    SCHEDULE = (0.0, math.pi / 2.0)

    def __init__(self, q, seed):
        super().__init__(q, seed)
        self.ratios: list[float] = []

    def warmup(self):
        return [derive(self.seed, 0)]

    def round(self, r):
        return [derive(self.seed, 1, r)]

    def execute(self, plan_seed, traced):
        q = self.q
        source = q.StellarSource(self.PHI, self.G, self.EPSILON)
        plan = q.ExperimentPlan("cnot", source, self.SCHEDULE, self.WINDOWS, seed=plan_seed)
        return q.mle_phase(q.run_experiment(plan), plan)

    def check(self, plan_seed, report, exc, outcome):
        if exc is not None:
            outcome.problems.append(f"raised {type(exc).__name__}: {exc}")
            return
        fields = dataclasses.asdict(report)
        outcome.problems += checks.check_estimate(
            fields, phi=self.PHI, epsilon=self.EPSILON, n_windows=self.WINDOWS
        )
        self.ratios.append(fields["empirical_mse"] / fields["crb"])

    def finish(self, outcomes):
        ratios, self.ratios = self.ratios, []
        return checks.check_mse_ratio(ratios)


class SimulateCli(Workload):
    """One fresh ``qtelescopy simulate`` process per operation, trace written."""

    name = "simulate-cli"
    exercised = (
        "protocols.direct_distribution",
        "gates.project",
        "fisher.classical_fisher",
        "fisher.OutcomeModel.probs",
        "sources.sample_arrival",
        "estimation.run_experiment",
        "estimation.mle_phase",
        "estimation.crb_report",
        "cli.main",
    )
    EPSILON, WINDOWS = 0.1, 1_000_000
    SCHEDULE = (0.0, math.pi / 2.0)

    def __init__(self, q, seed):
        super().__init__(q, seed)
        self.dir = WORK / "simulate"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = self.dir / "out"

    def round(self, r):
        rng = np.random.default_rng(derive(self.seed, 1, r))
        config = {
            "schema_version": 1,
            "protocol": "direct",
            "epsilon": self.EPSILON,
            "phi": float(rng.uniform(0.2, 1.3)),
            "g": float(rng.uniform(0.6, 0.95)),
            "delta_schedule": list(self.SCHEDULE),
            "n_windows": self.WINDOWS,
            "seed": derive(self.seed, 2, r) % 2**31,
        }
        path = self.dir / f"config-{r}.json"
        path.write_text(json.dumps(config))
        return [(r, config, path)]

    def execute(self, op, traced):
        r, _, path = op
        shutil.rmtree(self.out, ignore_errors=True)
        cli_args = ["simulate", "--config", str(path), "--format", "json", "--out", str(self.out)]
        if traced:
            spans = str(self.dir / f"spans-{r}.npz")
            argv = [sys.executable, str(HERE / "traced_child.py"), spans] + cli_args
        else:
            spans = None
            argv = [sys.executable, "-c", CLI_MAIN] + cli_args
        code, rss_mb = run_child(argv, self.dir / "stderr.txt")
        return code, rss_mb, spans

    def check(self, op, output, exc, outcome):
        _, config, path = op
        if exc is not None:
            outcome.problems.append(f"raised {type(exc).__name__}: {exc}")
            return
        code, outcome.rss_mb, outcome.spans = output
        path.unlink()
        if code != 0:
            err = (self.dir / "stderr.txt").read_text(errors="replace")[-2000:]
            outcome.problems.append(f"simulate exited with {code}: {err}")
            return
        trace_path = self.out / "trace.jsonl"
        outcome.trace_bytes = trace_path.stat().st_size
        heralds: collections.Counter = collections.Counter()
        lines = 0
        with open(trace_path) as fh:
            for line in fh:
                record = json.loads(line)
                if record["window"] != lines:
                    outcome.problems.append(f"trace record {lines} has window {record['window']}")
                    break
                heralds[record["herald"]] += 1
                lines += 1
        summary = json.loads((self.out / "summary.json").read_text())
        outcome.problems += checks.check_simulate(
            summary,
            {"lines": lines, "heralds": heralds},
            phi=config["phi"],
            g=config["g"],
            epsilon=config["epsilon"],
            schedule=config["delta_schedule"],
            n_windows=config["n_windows"],
        )
        shutil.rmtree(self.out, ignore_errors=True)


class FisherSweep(Workload):
    """One-point ``fisher`` configs through ``cli.main`` in this process."""

    name = "fisher-sweep"
    exercised = (
        "state_engine.basis_labels",
        "state_engine.number_measurement_distribution",
        "state_engine.apply_unitary",
        "gates.project",
        "protocols.cnot_distribution",
        "protocols.gottesman_distribution",
        "protocols.direct_distribution",
        "fisher.classical_fisher",
        "fisher.OutcomeModel.probs",
        "fisher.sld",
        "cli.main",
    )
    # points that fail at every seed through the two known fisher faults
    FIXED = (
        dict(protocol="direct", epsilon=0.1, phi=0.4, g=0.5, delta=0.3, swap_bases=True, boundary=False),
        dict(protocol="cnot", epsilon=0.1, phi=0.7, g=0.0, delta=0.3, swap_bases=False, boundary=True),
        dict(protocol="direct", epsilon=0.1, phi=0.7, g=0.999995, delta=0.3, swap_bases=False, boundary=True),
    )

    def __init__(self, q, seed):
        super().__init__(q, seed)
        self.dir = WORK / "fisher"
        self.dir.mkdir(parents=True, exist_ok=True)

    def _regular(self, rng, protocol):
        return dict(
            protocol=protocol,
            epsilon=float(rng.uniform(0.05, 0.2)),
            phi=float(rng.uniform(-math.pi, math.pi)),
            g=float(rng.uniform(0.2, 0.9)),
            delta=float(rng.uniform(0.0, math.pi)),
            swap_bases=False,
            boundary=False,
        )

    def _ops(self, points, tag):
        ops = []
        for i, point in enumerate(points):
            config = {
                "schema_version": 1,
                "protocol": point["protocol"],
                "epsilon": point["epsilon"],
                "swap_bases": point["swap_bases"],
                "phi_values": [point["phi"]],
                "g_values": [point["g"]],
                "delta_values": [point["delta"]],
            }
            path = self.dir / f"point-{tag}-{i}.json"
            path.write_text(json.dumps(config))
            ops.append((point, path))
        return ops

    def warmup(self):
        rng = np.random.default_rng(derive(self.seed, 0))
        return self._ops([self._regular(rng, p) for p in ("cnot", "gottesman", "direct")], "w")

    def round(self, r):
        rng = np.random.default_rng(derive(self.seed, 1, r))
        regular = [self._regular(rng, p) for p in ("cnot", "gottesman", "direct")]
        return self._ops(regular + list(self.FIXED), r)

    def execute(self, op, traced):
        _, path = op
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.q.cli.main(["fisher", "--config", str(path), "--format", "json"])
        return code, out.getvalue()

    def check(self, op, output, exc, outcome):
        point, path = op
        path.unlink()
        rows = None
        if exc is None:
            code, text = output
            if code != 0:
                outcome.problems.append(f"fisher exited with {code}")
                return
            rows = json.loads(text)
        outcome.fault, problems = checks.classify_fisher(point, rows, exc)
        outcome.problems += problems


class MemoryUnmodified(Workload):
    """run_memory_unmodified at N = 15 bins; arrivals cycle none, 1, ..., 15."""

    name = "memory-unmodified"
    exercised = (
        "state_engine.apply_unitary",
        "gates.project",
        "gates.measurement_distribution",
        "protocols.run_memory_unmodified",
    )
    BINS = 15

    def _window(self, rng, arrival, stream):
        return dict(
            arrival=arrival,
            phi=float(rng.uniform(-math.pi, math.pi)),
            g=float(rng.uniform(0.2, 1.0)),
            delta=float(rng.uniform(0.0, math.pi)),
            rng_seed=derive(self.seed, *stream),
        )

    def warmup(self):
        rng = np.random.default_rng(derive(self.seed, 0))
        return [self._window(rng, self.BINS, (0, 1))]

    def round(self, r):
        rng = np.random.default_rng(derive(self.seed, 1, r))
        arrivals = [None] + list(range(1, self.BINS + 1))
        return [self._window(rng, a, (2, r, k)) for k, a in enumerate(arrivals)]

    def execute(self, op, traced):
        q = self.q
        source = q.StellarSource(op["phi"], op["g"], 0.1)
        return q.protocols.run_memory_unmodified(
            self.BINS, op["arrival"], source, op["delta"], op["rng_seed"]
        )

    def check(self, op, result, exc, outcome):
        if exc is not None:
            outcome.problems.append(f"raised {type(exc).__name__}: {exc}")
            return
        outcome.problems += checks.check_memory(
            dataclasses.asdict(result), arrival=op["arrival"], phi=op["phi"], g=op["g"], delta=op["delta"]
        )


WORKLOADS = {cls.name: cls for cls in (McCnot, SimulateCli, FisherSweep, MemoryUnmodified)}


# ---------------------------------------------------------------------------
# measurement


def attempt(workload: Workload, op, traced: bool) -> Outcome:
    """Run one operation, timed, then check it outside the timed interval."""
    output = exc = None
    start = time.perf_counter()
    try:
        output = workload.execute(op, traced)
    except Exception as err:  # the checks decide whether this is a known fault
        exc = err
    outcome = Outcome(time.perf_counter() - start)
    workload.check(op, output, exc, outcome)
    return outcome


def timed_loop(workload: Workload, seconds: float, traced: bool, recorder=None):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Returns the outcomes and the problems of the loop-wide checks.  With
    ``recorder`` set, every span is tagged with its operation's index.
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            if recorder is not None:
                recorder.op = len(outcomes)
            outcomes.append(attempt(workload, op, traced))
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return outcomes, workload.finish(outcomes)


def cold_import_s() -> float:
    """Median wall time of a fresh interpreter importing the package and its CLI."""
    times = []
    for _ in range(IMPORT_STARTS):
        start = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", "import qtelescopy.cli"], WORK / "import-stderr.txt")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"perfbench: importing qtelescopy failed with exit code {code}")
    return statistics.median(times)


def setup(workload: Workload) -> tuple[float, list[str]]:
    """Set-up time (median cold import + in-process warm-up) and warm-up problems."""
    import_s = cold_import_s()
    start = time.perf_counter()
    problems = []
    for op in workload.warmup():
        problems += attempt(workload, op, False).problems
    return import_s + time.perf_counter() - start, problems


def peak_rss_mb(outcomes: list[Outcome]) -> float:
    child = [o.rss_mb for o in outcomes if o.rss_mb is not None]
    if child:
        return statistics.median(child)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    """Successful operations per timed second, set-up time and peak memory."""
    ok = sum(1 for o in outcomes if o.fault is None and not o.problems)
    return {
        "ops_per_s": {"value": ok / sum(o.seconds for o in outcomes), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(outcomes), "unit": "MB"},
    }


def per_layer(workload, untraced: list[Outcome], traced: list[Outcome], spans) -> tuple[dict, list[str]]:
    """Per-operation layer metrics of the traced loop, and missing-span problems."""
    agg = tracer.aggregate(spans)
    n = len(traced)
    metrics = {}
    for name in tracer.SPAN_NAMES:
        if name == "fisher.OutcomeModel.probs":
            metrics["fisher.model_evals"] = (agg[name]["calls"] / n, "count/op")
            continue
        metrics[f"{name}.calls"] = (agg[name]["calls"] / n, "count/op")
        metrics[f"{name}.self_s"] = (agg[name]["self_s"] / n, "s/op")
    metrics["state_engine.apply_unitary.bytes"] = (agg["_unitary_bytes"] / n, "B/op")
    estimates = agg["estimation.mle_phase"]["calls"]
    per_estimate = agg["_distributions_under_mle"] / estimates if estimates else 0.0
    metrics["estimation.circuit_runs_per_estimate"] = (per_estimate, "count")
    metrics["estimation.estimates"] = (estimates, "count")
    metrics["cli.trace_bytes"] = (float(np.mean([o.trace_bytes for o in traced])), "B/op")
    traced_s = sum(o.seconds for o in traced)
    metrics["other.self_s"] = ((traced_s - agg["_roots_s"]) / n, "s/op")
    base = sum(o.seconds for o in untraced) / len(untraced)
    metrics["trace.overhead"] = (traced_s / n - base, "s/op")
    metrics["trace.untraced_op_s"] = (base, "s/op")
    metrics["trace.ops"] = (n, "count")
    missing = [name for name in workload.exercised if agg[name]["calls"] == 0]
    problems = [f"traced run recorded no calls of {name}" for name in missing]
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    q = load_program()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](q, args.seed)
    setup_s, problems = setup(workload)

    outcomes, loop_problems = timed_loop(workload, args.seconds, traced=False)
    problems += loop_problems
    if args.trace:
        for o in outcomes:
            problems += o.problems
        untraced = outcomes
        recorder = None
        if not isinstance(workload, SimulateCli):  # its children trace themselves
            recorder = tracer.Tracer()
            tracer.install(recorder)
        outcomes, loop_problems = timed_loop(workload, args.seconds, traced=True, recorder=recorder)
        problems += loop_problems
        if recorder is not None:
            span_sets = [recorder.arrays()]
            recorder.save(WORK / f"spans-{workload.name}.npz")
        else:
            saved = [Path(o.spans) for o in outcomes if o.spans and Path(o.spans).exists()]
            span_sets = [dict(np.load(path)) for path in saved]
            for path in saved:
                path.unlink()
        metrics, span_problems = per_layer(workload, untraced, outcomes, span_sets)
        problems += span_problems
    else:
        metrics = end_to_end(outcomes, setup_s)

    for o in outcomes:
        problems += o.problems
    failed = sum(1 for o in outcomes if o.fault is not None or o.problems)
    faults = collections.Counter(o.fault for o in outcomes if o.fault is not None)
    print(f"workload {workload.name}: seed {args.seed}, {len(outcomes)} attempted, {failed} failed")
    for fault, count in sorted(faults.items()):
        print(f"  known fault {fault}: {count}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
