"""Spans around linid's public functions, recorded from outside the package.

Each traced function is replaced, in every linid module namespace that binds
it, by a wrapper that records a span (name, start, end, parent), timed on the
thread CPU clock (the benchmark runs linid in one thread).  Names bound
with ``from .terms import canonicalize`` live in the importing module's
namespace, so that binding is wrapped there too; each binding counts its own
calls, so a test can see that every one of them is reached.  Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import gzip
import importlib
import time
from pathlib import Path

MODULES = ("linid", "linid.terms", "linid.algebra", "linid.reducts", "linid.classify", "linid.cli")

# (module, function, layer name, name of a count taken from the result)
TRACED = (
    ("linid.terms", "parse_system", "terms.parse_system", None),
    ("linid.terms", "canonicalize", "terms.canonicalize", None),
    ("linid.reducts", "coefficient_system", "reducts.coefficient_system", None),
    ("linid.reducts", "smith_diagonalize", "reducts.smith_diagonalize", None),
    ("linid.reducts", "solve_mod", "reducts.solve_mod", None),
    ("linid.reducts", "solve_some_finite_ring", "reducts.solve_some_finite_ring", None),
    ("linid.reducts", "verify_witness", "reducts.verify_witness", None),
    ("linid.algebra", "holds_in", "algebra.holds_in", None),
    ("linid.classify", "enumerate_family", "classify.enumerate_family", "systems"),
    ("linid.classify", "classify_system", "classify.classify_system", None),
    ("linid.classify", "candidate_weakenings", "classify.candidate_weakenings", "weakenings"),
    ("linid.classify", "verify_paper", "classify.verify_paper", None),
    ("linid.cli", "check_certificate", "cli.check_certificate", None),
    ("linid.cli", "recheck_certificate", "cli.recheck_certificate", None),
    ("linid.cli", "render_candidate_report_markdown", "cli.render", None),
    ("linid.cli", "render_verify_report_markdown", "cli.render", None),
    ("linid.cli", "main", "cli.main", None),
)

# Where each layer should show, per the benchmark's layer table: a traced
# pass of each workload named here calls the layer at least once.
EXPECTED_ON = {
    "paper": ("classify.enumerate_family", "classify.candidate_weakenings",
              "classify.verify_paper", "cli.render", "cli.main"),
    "check-stream": ("terms.canonicalize", "terms.parse_system", "classify.classify_system",
                     "algebra.holds_in", "cli.check_certificate", "cli.recheck_certificate",
                     "cli.main", "reducts.smith_diagonalize", "reducts.solve_mod"),
    "ledger": ("terms.parse_system", "reducts.smith_diagonalize", "reducts.solve_mod",
               "reducts.solve_some_finite_ring", "reducts.coefficient_system",
               "reducts.verify_witness", "classify.candidate_weakenings"),
}

LAYERS = tuple(dict.fromkeys(layer for _m, _f, layer, _c in TRACED))
COUNTS = tuple(f"{layer}.{count}" for _m, _f, layer, count in TRACED if count)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index]
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.binding_calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer: str, count: str | None, binding: str):
        spans, stack, counts, calls = self.spans, self._stack, self.counts, self.binding_calls
        calls.setdefault(binding, 0)
        count_name = f"{layer}.{count}" if count else None

        def traced(*args, **kwargs):
            calls[binding] += 1
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.thread_time()
                stack.pop()
            if count_name:
                counts[count_name] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, func_name, layer, count in TRACED:
            original = getattr(importlib.import_module(module_name), func_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        binding = f"{module.__name__}.{attr}"
                        setattr(module, attr, self._wrap(original, layer, count, binding))
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per layer: calls and self time in seconds (duration minus the
        durations of the spans it directly caused)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: (0, 0.0) for layer in LAYERS}
        for (layer, start, end, _parent), inner in zip(self.spans, child):
            calls, total = out[layer]
            out[layer] = (calls + 1, total + (end - start) - inner)
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed CSV: index, layer, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,layer,start_s,end_s,parent\n")
            for i, (layer, start, end, parent) in enumerate(self.spans):
                out.write(f"{i},{layer},{start:.9f},{end:.9f},{parent}\n")
