"""Span tracer installed on qtelescopy's public functions from outside the package.

Each traced function is replaced, under every module-level name in the
``qtelescopy`` package that refers to it, by a wrapper that records one span
(name, start, end, parent span, operation id) per call.  Spans are appended
to flat arrays, kept in memory, and written out with :meth:`Tracer.save`
when the run ends; :func:`aggregate` turns one or more span sets into
per-layer calls and self times.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "qtelescopy"

# module -> public functions ("Class.method" for methods) that get a span
LAYERS = {
    "state_engine": ("basis_labels", "number_measurement_distribution", "apply_unitary"),
    "gates": ("project", "measurement_distribution", "measure_in_basis"),
    "protocols": (
        "cnot_distribution",
        "gottesman_distribution",
        "direct_distribution",
        "sample_cnot_windows",
        "run_memory_unmodified",
    ),
    "fisher": ("classical_fisher", "sld", "OutcomeModel.probs"),
    "sources": ("sample_arrival",),
    "estimation": ("run_experiment", "mle_phase", "crb_report"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
DISTRIBUTIONS = (
    "protocols.cnot_distribution",
    "protocols.gottesman_distribution",
    "protocols.direct_distribution",
)
AMPLITUDE_BYTES = 16  # one complex128 amplitude


def _register_dim(state) -> int:
    amplitudes = getattr(state, "amplitudes", None)
    if amplitudes is not None:
        return int(amplitudes.size)
    return int(state.matrix.shape[0])


class Tracer:
    """In-memory span store.  ``op`` tags every span with the current operation."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.unitary_bytes = 0

    def wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        clock = time.perf_counter
        stack, start, end = self.stack, self.start, self.end
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        counts_bytes = name == "state_engine.apply_unitary"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            if counts_bytes:
                self.unitary_bytes += AMPLITUDE_BYTES * _register_dim(args[0])
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(SPAN_NAMES),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "unitary_bytes": np.array(self.unitary_bytes, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every package-level name bound to it.

    ``estimation`` and ``cli`` import protocol functions by name, and the
    package root re-exports most of them, so patching only the defining
    module would leave those callers untraced.  After patching, no
    module namespace of the package may still hold an original.
    """
    modules = _package_modules()
    originals = {}
    for layer, names in LAYERS.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for qualname in names:
            span = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, tracer.wrap(span, original))
                originals[id(original)] = span
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(span, original)
            originals[id(original)] = span
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
    for holder in modules:
        for attr, value in vars(holder).items():
            if id(value) in originals:
                raise RuntimeError(
                    f"{holder.__name__}.{attr} still refers to untraced {originals[id(value)]}"
                )


def aggregate(span_sets: list[dict]) -> dict:
    """Per-span-name totals over one or more saved span sets.

    Returns ``{name: {"calls", "self_s"}}`` plus the keys
    ``"_roots_s"`` (time covered by top-level spans), ``"_unitary_bytes"``
    and ``"_distributions_under_mle"`` (distribution calls that have an
    ``estimation.mle_phase`` ancestor), all summed, not yet per operation.
    """
    n_names = len(SPAN_NAMES)
    calls = np.zeros(n_names)
    self_s = np.zeros(n_names)
    roots_s = 0.0
    unitary_bytes = 0
    under_mle_runs = 0
    mle = SPAN_NAMES.index("estimation.mle_phase")
    dist_ids = [SPAN_NAMES.index(name) for name in DISTRIBUTIONS]
    for spans in span_sets:
        if tuple(str(n) for n in spans["names"]) != SPAN_NAMES:
            raise ValueError("span set was recorded with a different layer table")
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        if dur.size and dur.min() < 0.0:
            raise ValueError("span set holds an unfinished span")
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        calls += np.bincount(nid, minlength=n_names)
        self_s += np.bincount(nid, weights=dur - covered, minlength=n_names)
        roots_s += float(dur[~child].sum())
        unitary_bytes += int(spans["unitary_bytes"])
        # propagate "has an mle_phase ancestor" down the tree; parents
        # always precede their children, so depth-many passes suffice
        flag = nid == mle
        while True:
            inherited = flag | (child & flag[np.where(child, parent, 0)])
            if np.array_equal(inherited, flag):
                break
            flag = inherited
        under_mle_runs += int(np.isin(nid[flag], dist_ids).sum())
    out = {
        name: {"calls": calls[i], "self_s": self_s[i]}
        for i, name in enumerate(SPAN_NAMES)
    }
    out["_roots_s"] = roots_s
    out["_unitary_bytes"] = unitary_bytes
    out["_distributions_under_mle"] = under_mle_runs
    return out
