"""In-memory span tracing of calls into the package's layers.

The tracer replaces public callables of the ``qcka_cad`` modules in every
module namespace where callers look them up (``cli.run_trial`` as well as
``protosim.run_trial``), and wraps the constructors of public classes.
No file of the package changes; :meth:`Tracer.uninstall` puts the
originals back.

Each call becomes a span: name, start, end, parent span and request id,
appended to flat arrays so that a million spans cost tens of megabytes.
A span's self time is its duration minus the durations of its child
spans; a layer's self time sums that over the layer's spans.  The layer
of a span is the module its name starts with.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

# Traced callables as "module.attribute"; a class stands for its constructor.
TARGETS = (
    "cli.main",
    "keyrate.optimize_m",
    "keyrate.key_length",
    "sampling.delta_from_epsilon",
    "sampling.empirical_sampling_failure",
    "protosim.run_trial",
    "protosim.aggregate",
    "protosim.analytic_qx",
    "protosim.analytic_pa",
    "protosim.postcad_error_rates",
    "ghzsim.cad_delayed_measurement_equivalence",
    "ghzsim.key_min_entropy_check",
    "ghzsim.hadamard_expansion_check",
    "ghzsim.x_basis_parity_distribution",
    "ghzsim.hadamard_transform",
    "ghzsim.random_pure_state",
    "ghzsim.ghz_state",
    "ghzsim.compose",
    "ghzsim.StateVector",
    "bitcore.binary_entropy",
    "bitcore.BitString",
)

LAYERS = ("cli", "keyrate", "sampling", "protosim", "ghzsim", "bitcore")


def _note_run_trial(args, kwargs):
    params = args[0]
    tracemalloc.start()

    def finish():
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return params.bobs, params.key_blocks, peak

    return finish


def _note_state(args, kwargs):
    state = args[0]

    def finish():
        try:
            return state.qubit_count
        except AttributeError:  # the constructor rejected its input
            return None

    return finish


# Per-call details kept beside the span, keyed by span name.  A note is
# called with the call's arguments before it runs and returns a function
# that, called after it returns, gives the value to keep.
NOTES = {
    "protosim.run_trial": _note_run_trial,
    "sampling.empirical_sampling_failure": lambda args, kwargs: lambda: len(args[0]),
    "ghzsim.StateVector": _note_state,
}


class Tracer:
    """Records spans for every call to :data:`TARGETS` while installed."""

    def __init__(self):
        self.labels = list(TARGETS)
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes = {label: [] for label in NOTES}
        self.request_id = -1
        self._stack = [-1]
        self._restore = []

    def _wrap(self, label: str, fn):
        nid = self.labels.index(label)
        name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self._stack
        note, kept = NOTES.get(label), self.notes.get(label)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            finish = note(args, kwargs) if note else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
                if finish:
                    kept.append((sid, finish()))

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qcka_cad" or n.startswith("qcka_cad."))]
        for label in TARGETS:
            home, attr = label.split(".")
            original = getattr(sys.modules[f"qcka_cad.{home}"], attr)
            if isinstance(original, type):
                self._restore.append((original, "__init__", original.__dict__["__init__"]))
                original.__init__ = self._wrap(label, original.__init__)
                continue
            traced = self._wrap(label, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "labels": np.array(self.labels),
            "name": np.frombuffer(self.name, dtype=np.intc),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "request": np.frombuffer(self.request, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        width = len(self.labels)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own_by_name = np.bincount(name, weights=own, minlength=width)
        idx = {label: i for i, label in enumerate(self.labels)}

        def count(label):
            return int(calls[idx[label]])

        def seconds(label):
            return float(total[idx[label]])

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                float(sum(own_by_name[i] for lab, i in idx.items() if lab.startswith(layer + "."))),
                "s")
        out["cli.main.calls"] = (count("cli.main"), "count")
        out["trace.request_s"] = (seconds("cli.main"), "s")

        optimizes = count("keyrate.optimize_m")
        inside = int(np.count_nonzero(
            (name[nested] == idx["keyrate.key_length"])
            & (name[parent[nested]] == idx["keyrate.optimize_m"])))
        for label in ("keyrate.optimize_m", "keyrate.key_length",
                      "sampling.delta_from_epsilon", "sampling.empirical_sampling_failure",
                      "protosim.run_trial"):
            out[f"{label}.calls"] = (count(label), "count")
            out[f"{label}.s"] = (seconds(label), "s")
        out["keyrate.evals_per_optimize"] = (inside / optimizes if optimizes else 0.0, "count")

        def ms_per_call(sizes):
            picked = [sid for sid, size in self.notes["sampling.empirical_sampling_failure"]
                      if size in sizes]
            return 1e3 * float(dur[picked].mean()) if picked else 0.0

        out["sampling.empirical_sampling_failure.ms_per_call.N16-24"] = (
            ms_per_call(range(16, 25)), "ms")
        out["sampling.empirical_sampling_failure.ms_per_call.N200"] = (ms_per_call({200}), "ms")

        trials = self.notes["protosim.run_trial"]
        for p in (2, 8):
            picked = [(sid, n * bobs) for sid, (bobs, n, _) in trials if bobs == p]
            work = sum(w for _, w in picked)
            busy = float(dur[[sid for sid, _ in picked]].sum()) if picked else 0.0
            out[f"protosim.run_trial.ns_per_block_party.p{p}"] = (
                1e9 * busy / work if work else 0.0, "ns")
        out["protosim.run_trial.peak_mib"] = (
            max((peak for _, (_, _, peak) in trials), default=0) / 2**20, "MiB")
        out["protosim.aggregate.s"] = (seconds("protosim.aggregate"), "s")
        out["protosim.analytic.calls"] = (
            count("protosim.analytic_qx") + count("protosim.analytic_pa")
            + count("protosim.postcad_error_rates"), "count")

        for label in ("ghzsim.cad_delayed_measurement_equivalence",
                      "ghzsim.key_min_entropy_check"):
            out[f"{label}.calls"] = (count(label), "count")
            out[f"{label}.s"] = (seconds(label), "s")
        for label in ("ghzsim.hadamard_transform", "ghzsim.x_basis_parity_distribution",
                      "ghzsim.random_pure_state"):
            out[f"{label}.s"] = (seconds(label), "s")
        out["ghzsim.ghz_state.calls"] = (count("ghzsim.ghz_state"), "count")
        qubits = [k for _, k in self.notes["ghzsim.StateVector"] if k is not None]
        out["ghzsim.computed_bytes"] = (sum(16 << k for k in qubits), "B")
        out["ghzsim.qubits_max"] = (max(qubits, default=0), "qubits")

        out["bitcore.binary_entropy.calls"] = (count("bitcore.binary_entropy"), "count")
        out["bitcore.binary_entropy.s"] = (seconds("bitcore.binary_entropy"), "s")
        out["bitcore.BitString.calls"] = (count("bitcore.BitString"), "count")
        out["trace.spans"] = (int(name.size), "count")
        return out
