"""Spans around calls into choifactor's public functions, for the traced run.

Tracer.installed() replaces each function in TRACED, in every module that
binds it, by a wrapper that records a span; nothing under src/ changes. A
span is [name, start_ns, end_ns, parent index, request id, tag]. Spans stay
in memory and are written out as JSON lines when the run ends. A span's
self time is its duration minus that of its direct children, and a layer
is the first part of a span's name.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

TRACED = (
    "maps.check_cp",
    "maps.extension_positivity_check",
    "maps.kraus_decompose",
    "maps.dual_choi",
    "maps.choi",
    "maps.transfer",
    "maps.map_from_dual_choi",
    "positivity.check_positive",
    "projection_algebra.spectral_decompose",
    "projection_algebra.element_product",
    "projection_algebra.compress",
    "projection_algebra.materialize",
    "linalg.hermitian_eig",
    "linalg.subspace_coeffs",
    "factor.make_factor",
    "factor.apply_factor_to_state",
    "formats.load_map_file",
    "formats.load_element_file",
    "formats.dumps",
    "cli.main",
)

# what a span keeps from (arguments, result) besides its times
TAGS = {
    "positivity.check_positive": lambda args, out: (out.method, out.verdict),
    "projection_algebra.compress": lambda args, out: (len(args[0]), len(out)),
    "formats.load_map_file": lambda args, out: os.path.getsize(args[0]),
    "formats.load_element_file": lambda args, out: os.path.getsize(args[0]),
    "formats.dumps": lambda args, out: len(out.encode()),
}

LAYERS = ("cli", "formats", "maps", "positivity", "projection_algebra", "linalg", "factor")

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("cli.process_ms", "ms", "lower", "latency_p50_ms on cli_corpus"),
    ("cli.import_ms", "ms", "lower", "setup_s and latency_p50_ms on cli_corpus"),
    ("cli.main_ms", "ms", "lower", "latency_p50_ms on cli_corpus"),
    ("cli.self_ms", "ms", "lower", "latency_p50_ms on cli_corpus"),
    ("formats.parse_ms", "ms", "lower", "latency_p90_ms on cli_corpus"),
    ("formats.emit_ms", "ms", "lower", "latency_p90_ms on cli_corpus"),
    ("formats.bytes_in", "B", "lower", "latency_p90_ms on cli_corpus"),
    ("formats.bytes_out", "B", "lower", "latency_p90_ms on cli_corpus"),
    ("formats.self_ms", "ms", "lower", "latency_p90_ms on cli_corpus"),
    ("maps.check_cp.p50_ms", "ms", "lower", "latency_p50_ms and ops_per_s on cp_sweep"),
    ("maps.check_cp.busy_s", "s", "lower", "ops_per_s on cp_sweep"),
    ("maps.check_cp.calls", "count", "lower", "ops_per_s on cp_sweep"),
    ("maps.extension_check.p50_ms", "ms", "lower", "latency_p50_ms and latency_p90_ms on cp_sweep"),
    ("maps.extension_check.calls", "count", "lower", "ops_per_s on cp_sweep"),
    ("maps.amplification.p50_ms", "ms", "lower", "latency_p50_ms and latency_p90_ms on cp_sweep"),
    ("maps.kraus_decompose.p50_ms", "ms", "lower", "latency_p50_ms on cp_sweep and algebra_sweep"),
    ("maps.kraus_decompose.calls", "count", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("maps.dual_choi.p50_us", "us", "lower", "latency_p50_ms on algebra_sweep and cp_sweep"),
    ("maps.dual_choi.calls", "count", "lower", "ops_per_s on algebra_sweep and cp_sweep"),
    ("maps.choi.p50_us", "us", "lower", "latency_p50_ms on algebra_sweep and cp_sweep"),
    ("maps.choi.calls", "count", "lower", "ops_per_s on algebra_sweep and cp_sweep"),
    ("maps.transfer.p50_us", "us", "lower", "latency_p50_ms on cp_sweep"),
    ("maps.transfer.calls", "count", "lower", "ops_per_s on cp_sweep"),
    ("maps.map_from_dual_choi.p50_us", "us", "lower", "latency_p50_ms on algebra_sweep"),
    ("maps.map_from_dual_choi.calls", "count", "lower", "ops_per_s on algebra_sweep"),
    ("maps.self_ms", "ms", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("positivity.seesaw.p50_ms", "ms", "lower", "latency_p50_ms and ops_per_s on positivity_sweep"),
    ("positivity.brute.p50_ms", "ms", "lower", "latency_p90_ms on positivity_sweep"),
    ("positivity.direct.p50_ms", "ms", "lower", "latency_p50_ms on positivity_sweep"),
    ("positivity.inconclusive_ratio", "ratio", "lower", "failed requests on positivity_sweep"),
    ("positivity.self_ms", "ms", "lower", "ops_per_s on positivity_sweep"),
    ("projection_algebra.spectral_decompose.p50_ms", "ms", "lower", "latency_p90_ms on algebra_sweep"),
    ("projection_algebra.element_product.p50_ms", "ms", "lower", "latency_p50_ms on algebra_sweep"),
    ("projection_algebra.compress.p50_ms", "ms", "lower", "latency_p90_ms on algebra_sweep"),
    ("projection_algebra.materialize.p50_us", "us", "lower", "latency_p50_ms on algebra_sweep"),
    ("projection_algebra.compress.kept_ratio", "ratio", "lower", "latency_p90_ms on algebra_sweep"),
    ("projection_algebra.self_ms", "ms", "lower", "ops_per_s on algebra_sweep"),
    ("linalg.hermitian_eig.p50_us", "us", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("linalg.hermitian_eig.calls", "count", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("linalg.self_ms", "ms", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("factor.make_factor.p50_us", "us", "lower", "setup_s on every workload; ops_per_s on cp_sweep"),
    ("factor.make_factor.calls", "count", "lower", "setup_s on every workload; ops_per_s on cp_sweep"),
    ("factor.apply_factor_to_state.p50_us", "us", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("factor.apply_factor_to_state.calls", "count", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("factor.self_ms", "ms", "lower", "ops_per_s on cp_sweep and algebra_sweep"),
    ("trace.overhead_pct", "%", "lower", "none: ops_per_s lost to tracing, traced against untraced"),
    ("trace.spans", "count", "lower", "none: spans recorded per round of inputs"),
)

# metric name -> span name, where they differ
_SPAN_OF = {"maps.extension_check": "maps.extension_positivity_check"}
_MAPS_TIMED = (("check_cp", "ms"), ("extension_check", "ms"), ("kraus_decompose", "ms"),
               ("dual_choi", "us"), ("choi", "us"), ("transfer", "us"),
               ("map_from_dual_choi", "us"))
_NS = {"s": 1e9, "ms": 1e6, "us": 1e3}
# spans that are not time inside a layer: the request root, and the whole
# command line process, timed from this one
_OUTSIDE = ("request", "cli.process")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request_id: int | None = None
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans, open_, tag = self.spans, self._open, TAGS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else None, self.request_id, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                open_.pop()
            if tag is not None:
                span[5] = tag(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one request; spans opened inside it carry its id."""
        self.request_id = request_id
        span = ["request", time.perf_counter_ns(), 0, None, request_id, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()
            self.request_id = None

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Wrap every TRACED function, plus (span name, module, attribute)
        triples from extra, in every choifactor module and in the extra
        modules, restoring the originals on exit."""
        targets = []
        for name in TRACED:
            module_name, attribute = name.split(".", 1)
            targets.append((name, importlib.import_module(f"choifactor.{module_name}"), attribute))
        targets += list(extra)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "choifactor" or key.startswith("choifactor.")]
        modules += [home for _, home, _ in extra]
        patched = []
        try:
            for name, home, attribute in targets:
                original = getattr(home, attribute)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, rounds: int, import_ms: float, overhead_pct: float) -> dict:
    """Per-layer metrics from the spans of `rounds` whole rounds of inputs:
    medians of inclusive call times (*.p50_*, cli.process_ms, cli.main_ms),
    and calls, busy and self times per round (*.calls, *.busy_s, *.self_ms,
    formats.parse_ms, formats.emit_ms)."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    durations, own, tags = defaultdict(list), defaultdict(list), defaultdict(list)
    layer_self = defaultdict(int)
    for index, (name, start, end, _, _, tag) in enumerate(spans):
        durations[name].append(end - start)
        own[name].append(end - start - child[index])
        tags[name].append(tag)
        if name not in _OUTSIDE:
            layer_self[name.split(".")[0]] += end - start - child[index]

    def p50(values, unit):
        return statistics.median(values) / _NS[unit] if values else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    cp_calls = "positivity.check_positive"
    kept = tags["projection_algebra.compress"]
    verdicts = [tag[1] for tag in tags[cp_calls]]
    m = {
        "cli.process_ms": p50(durations["cli.process"], "ms"),
        "cli.import_ms": import_ms,
        "cli.main_ms": p50(durations["cli.main"], "ms"),
        "formats.parse_ms": sum(durations["formats.load_map_file"]
                                + durations["formats.load_element_file"]) / rounds / 1e6,
        "formats.emit_ms": sum(durations["formats.dumps"]) / rounds / 1e6,
        "formats.bytes_in": mean(tags["formats.load_map_file"] + tags["formats.load_element_file"]),
        "formats.bytes_out": mean(tags["formats.dumps"]),
        "maps.check_cp.busy_s": sum(durations["maps.check_cp"]) / rounds / 1e9,
        "maps.amplification.p50_ms": p50(own["maps.check_cp"], "ms"),
        "positivity.inconclusive_ratio":
            verdicts.count("inconclusive") / len(verdicts) if verdicts else 0.0,
        "projection_algebra.compress.kept_ratio":
            sum(k for _, k in kept) / sum(n for n, _ in kept) if kept else 0.0,
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(spans) / rounds,
    }
    for short, unit in _MAPS_TIMED:
        name = _SPAN_OF.get(f"maps.{short}", f"maps.{short}")
        m[f"maps.{short}.p50_{unit}"] = p50(durations[name], unit)
        m[f"maps.{short}.calls"] = len(durations[name]) / rounds
    for method in ("seesaw", "brute", "direct"):
        m[f"positivity.{method}.p50_ms"] = p50(
            [d for d, tag in zip(durations[cp_calls], tags[cp_calls]) if tag[0] == method], "ms")
    for short, unit in (("spectral_decompose", "ms"), ("element_product", "ms"),
                        ("compress", "ms"), ("materialize", "us")):
        m[f"projection_algebra.{short}.p50_{unit}"] = p50(
            durations[f"projection_algebra.{short}"], unit)
    for name, unit in (("linalg.hermitian_eig", "us"), ("factor.make_factor", "us"),
                       ("factor.apply_factor_to_state", "us")):
        m[f"{name}.p50_{unit}"] = p50(durations[name], unit)
        m[f"{name}.calls"] = len(durations[name]) / rounds
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] / rounds / 1e6
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    if set(m) != set(units):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {set(m) ^ set(units)}")
    return {name: (m[name], units[name]) for name, _, _, _ in PER_LAYER}
