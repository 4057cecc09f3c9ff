"""Spans around lgasym's public layer functions, recorded from outside.

The tracer replaces module (and class) attributes of the package with thin
wrappers while a traced pass runs and puts the originals back afterwards;
no file of the package changes.  Each span records name, start, end,
parent span and the benchmark operation it belongs to.  A layer's self
time is its span's duration minus the time covered by its child spans.

A call into a layer made while that same layer's span is innermost is
internal to the layer (expr.differentiate recursing, l1_tail_norm calling
integrate_to_infinity) and opens no span: only outermost calls count.

Quadrature samples are counted where they are taken: a wrapper on
``quadrature._gk_cell`` (one Gauss-Kronrod cell, 15 integrand samples)
adds them to the innermost quadrature span, so calls that raise (budget
burns, divergence detection) count too.

Aggregates (self time, calls, counts) are kept for every span.  Every raw
span is kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from lgasym import certificate, cli, expr, pipeline, quadrature, transform
from lgasym import volterra

_clock = time.perf_counter

MARCH_RETRY = (volterra.EnvelopeError, volterra.StepTooLargeError)


def _steps(result):
    return {"steps": result.steps}


def _nodes(result):
    return {"nodes": len(result.x_nodes)}


# (owner, attribute, span name, layer, counter taken from the result)
CELL_SAMPLES = len(quadrature._XK)

TARGETS = (
    (expr, "parse", "expr.parse", "expr", None),
    (expr, "compile_fn", "expr.compile_fn", "expr", None),
    (expr, "differentiate", "expr.differentiate", "expr", None),
    (transform, "classify_regime", "transform.classify", "transform", None),
    (transform.PhaseMap, "build", "transform.phase_map", "transform", _nodes),
    (transform.PhaseMap, "y_of_x", "transform.y_of_x", "transform", None),
    (certificate, "find_cutoff", "certificate.find_cutoff", "certificate",
     None),
    (certificate, "verify_certificate", "certificate.verify", "certificate",
     None),
    (quadrature, "integrate_finite", "quadrature", "quadrature", None),
    (quadrature, "integrate_to_infinity", "quadrature", "quadrature", None),
    (quadrature, "l1_tail_norm", "quadrature", "quadrature", None),
    (volterra, "solve_kernel", "volterra.march", "volterra", _steps),
    (volterra, "solve_algebraic", "volterra.march", "volterra", _steps),
    (volterra, "complete_exponential", "volterra.complete", "volterra", None),
    (volterra, "complete_oscillatory", "volterra.complete", "volterra", None),
    (volterra, "complete_algebraic", "volterra.complete", "volterra", None),
    (pipeline, "analyze", "pipeline.analyze", "pipeline", None),
    (pipeline.AnalysisReport, "sample_rows", "pipeline.sample_rows",
     "pipeline", None),
    (cli, "json_dumps", "cli.json_dumps", "cli", None),
)


class _Span:
    __slots__ = ("name", "layer", "start", "child", "parent", "ident",
                 "samples")

    def __init__(self, name, layer, start, parent, ident):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.ident = ident
        self.samples = 0       # quadrature samples taken in this span


class Tracer:
    """Span stack plus running aggregates for one benchmark process."""

    def __init__(self):
        self.spans = []            # (name, start, end, id, parent id, op id)
        self.stack = []
        self.next_id = 0
        self.op = 0
        self.tag = None            # template of the current operation
        self.self_s = defaultdict(float)     # span name -> self seconds
        self.calls = defaultdict(int)        # span name -> outermost calls
        self.counts = defaultdict(int)       # "name.counter" -> total
        self.by_caller = defaultdict(float)  # "quadrature.x.by_layer" -> value
        self.tag_s = defaultdict(float)      # analyze time per template
        self.tag_calls = defaultdict(int)
        self.op_samples = 0        # quadrature samples inside the current op
        self.work = []             # (report's own count, samples traced)
        self.cache_lookups = 0     # per-x cache of the solution callables
        self.cache_hits = 0
        self._saved = []

    # -- spans --------------------------------------------------------

    def begin(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        span = _Span(name, layer, _clock(),
                     parent.ident if parent is not None else -1,
                     self.next_id)
        self.next_id += 1
        self.stack.append(span)
        return span

    def end(self, span, counters=None, error=None):
        stop = _clock()
        self.stack.pop()
        dur = stop - span.start
        name = span.name
        self.self_s[name] += dur - span.child
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        if counters:
            for key, val in counters.items():
                self.counts[name + "." + key] += val
        if error is not None:
            self.counts[name + ".errors"] += 1
            if isinstance(error, MARCH_RETRY):
                self.counts[name + ".retries"] += 1
        if name == "quadrature":
            caller = parent.layer if parent is not None else "bench"
            suffix = ".by_" + caller
            self.counts["quadrature.samples"] += span.samples
            self.by_caller["quadrature.ms" + suffix] += dur - span.child
            self.by_caller["quadrature.calls" + suffix] += 1
            self.by_caller["quadrature.samples" + suffix] += span.samples
            self.op_samples += span.samples
            if error is not None:
                self.by_caller["quadrature.errors" + suffix] += 1
        if name == "pipeline.analyze" and self.tag is not None:
            self.tag_s[self.tag] += dur
            self.tag_calls[self.tag] += 1
        self.spans.append(
            (name, span.start, stop, span.ident, span.parent, self.op))

    def span(self, name, layer):
        """Context manager for a span the benchmark opens itself."""
        return _SpanContext(self, name, layer)

    def start_op(self, tag=None):
        self.op += 1
        self.tag = tag
        self.op_samples = 0

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, name, layer, count):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span, error=exc)
                raise
            tracer.end(span, count(result) if count is not None else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_cell(self, fn):
        stack = self.stack

        def counted(*args):
            if stack:
                stack[-1].samples += CELL_SAMPLES
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        raw = quadrature.__dict__["_gk_cell"]
        self._saved.append((quadrature, "_gk_cell", raw))
        quadrature._gk_cell = self._wrap_cell(raw)
        for owner, attr, name, layer, count in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, name, layer, count))
            else:
                wrapped = self._wrap(raw, name, layer, count)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------

    def snapshot_counts(self):
        """Every deterministic count recorded so far, flattened."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update(self.counts)
        out.update({k: v for k, v in self.by_caller.items()
                    if not k.startswith("quadrature.ms")})
        return {k: int(v) for k, v in sorted(out.items())}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "id", "parent",
                                  "op"], "spans": self.spans}, fh)


class _SpanContext:
    __slots__ = ("tracer", "name", "layer", "span")

    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        self.span = self.tracer.begin(self.name, self.layer)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.tracer.end(self.span, error=exc)
        return False
