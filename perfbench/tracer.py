"""Spans placed by the benchmark around calls into durakit's public functions.

Nothing inside durakit is changed.  ``instrument`` replaces each listed
public function, in every loaded ``durakit`` module that binds it, with a
wrapper that records one span per call.  Calls the library makes to another
instrumented function go through the same module attributes, so they show
up as child spans, and a module's self time is its span time minus the time
its direct children cover.

Scalar field helpers (``gf256.mul``, ``gf256.inv``) are deliberately left
alone: they run once per matrix element, and a span each would swamp the
work they time.  Spans are recorded on the main thread only; the simulator's
chunk workers call no instrumented function.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
from time import perf_counter_ns

#: module label -> (import path, public functions wrapped in a span)
MODULE_FUNCTIONS = {
    "codec.gf256": (
        "durakit.codec.gf256",
        ("mul_bytes", "addmul_bytes", "matrix_rank", "matrix_invert"),
    ),
    "codec.rs": (
        "durakit.codec.rs",
        ("rs_encode", "rs_decode", "parity_matrix", "generator_matrix"),
    ),
    "codec.lrc": (
        "durakit.codec.lrc",
        ("lrc_encode", "lrc_decode", "lrc_recoverable", "generator_rows"),
    ),
    "codec.fragments": (
        "durakit.codec.fragments",
        ("fragment_to_bytes", "fragment_from_bytes", "write_fragment", "read_fragment"),
    ),
    "codec.repair": (
        "durakit.codec.repair",
        ("recoverability_report", "repair_plan"),
    ),
    "probability": (
        "durakit.probability",
        (
            "binomial_tail",
            "prob_loss_ec",
            "prob_loss_replication",
            "parity_needed",
            "replicas_needed",
            "prob_any_failure",
            "redundancy_factor",
        ),
    ),
    "placement": (
        "durakit.placement",
        (
            "balanced_placement",
            "placement_unavailability",
            "ec_unavailability",
            "replication_unavailability",
        ),
    ),
    "latency": (
        "durakit.latency",
        ("expected_latency_replication", "approx_latency_replication", "approx_latency_ec"),
    ),
    "simulate": (
        "durakit.simulate",
        ("simulate_loss", "simulate_availability", "simulate_latency",
         "ec_read_latency_expectation"),
    ),
    # The click group is not a plain function; the planning workload places
    # the ``cli.compare`` span itself around the in-process invocation.
    "cli": ("durakit.cli", ()),
}

MODULES = tuple(MODULE_FUNCTIONS)


class Tracer:
    """In-memory span recorder: (name, start_ns, end_ns, parent, op_id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self._stack: list[int] = []
        self._main = threading.main_thread().ident
        self.instrumented = False
        self.enabled = False
        self.op_id = -1

    def begin(self, op_id: int) -> None:
        """Record spans, if instrumented, until end(): the operation itself only.

        Input generation and output checks run between end() and the next
        begin(), so the library calls they make are not counted as the
        workload's.
        """
        self.op_id = op_id
        self.enabled = self.instrumented

    def end(self) -> None:
        self.enabled = False

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        if not self.enabled or threading.get_ident() != self._main:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def module_totals(self) -> dict[str, dict[str, float]]:
        """Per module label: span count and self time in seconds."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        totals = {label: {"calls": 0, "self_s": 0.0} for label in MODULES}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            label = span[0].rsplit(".", 1)[0]
            entry = totals.setdefault(label, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (span[2] - span[1] - child_ns[index]) / 1e9
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op_id = span
                out.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op_id}
                ) + "\n")


def instrument(tracer: Tracer):
    """Route every listed public durakit function through ``tracer``.

    Spans are recorded only between ``tracer.begin`` and ``tracer.end``.
    Returns a function that puts the original functions back.
    """
    import importlib

    replacements = {}
    for label, (path, names) in MODULE_FUNCTIONS.items():
        module = importlib.import_module(path)
        for name in names:
            original = getattr(module, name)
            replacements[id(original)] = (original, tracer.wrap(f"{label}.{name}", original))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "durakit" or mod_name.startswith("durakit.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    tracer.instrumented = True

    def undo() -> None:
        tracer.instrumented = False
        for module, attr, value in patched:
            setattr(module, attr, value)

    return undo
