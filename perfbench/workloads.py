"""The three closed-loop workloads: certify, evaluate and refuse.

One caller runs every operation and waits for its result.  Each workload
prepares its inputs in setup() and then runs passes over them; a pass
records the latency of every operation into a Record.  Output checks run
outside the timed regions.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager, nullcontext

import lgasym
from lgasym import cli, pipeline
from lgasym.oracle import integrate_ivp

import cases
from hostspeed import HostSpeed

_clock = time.perf_counter

# What analyze may raise on purpose; anything else is a defect.
TYPED_ERRORS = (
    lgasym.HypothesisFailed, lgasym.AnalysisError, lgasym.QuadratureError,
    lgasym.VolterraError, lgasym.CertificateError, lgasym.ParseError,
    lgasym.EvalDomainError,
)
WRONSKIAN_RTOL = 1e-6
TRANSPORT_RTOL = 1e-7   # mismatches stay below 5e-9 on correct solutions
ENVELOPE_SLACK = 1e-6
CHECK_POINTS = 2
EVAL_POINTS = 6        # fresh points per report per evaluate pass
TABLE_ROWS = 9


class Record:
    """Latencies and outcomes of one run.  After each operation the host
    speed is sampled (see hostspeed.py)."""

    def __init__(self):
        self.speed = HostSpeed()
        self.latencies = []       # wall seconds per primary operation
        self.table_latencies = []
        self.stamps = []          # clock at the end of each, for the speed
        self.table_stamps = []
        self.timed = 0.0          # wall seconds inside every timed region
        self.completed = 0        # primary operations that succeeded
        self.attempted = 0
        self.failed = 0
        self.failures = {}        # message -> occurrences
        self.incorrect = []       # messages of wrong outputs

    def add(self, seconds, table=False):
        (self.table_latencies if table else self.latencies).append(seconds)
        (self.table_stamps if table else self.stamps).append(_clock())
        self.timed += seconds
        self.speed.after(seconds)

    def fail(self, message, wrong=False):
        self.failed += 1
        self.failures[message] = self.failures.get(message, 0) + 1
        if wrong:
            self.incorrect.append(message)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _wronskian(report, x):
    s0, s1 = report.solutions
    return (float(s0.value(x)) * float(s1.derivative(x))
            - float(s0.derivative(x)) * float(s1.value(x)))


def check_report(case, report, rng):
    """Problems with a returned report, or [] when every check passes."""
    problems = []
    if not report.certificate.passed():
        problems.append("certificate does not pass")
    if not report.verification["tail_consistent"]:
        problems.append("certificate tail is not consistent")
    residual = report.constants["tail_residual_bound"]
    if not residual <= report.tail_tolerance:
        problems.append("tail residual %.3g above tail_tol" % residual)
    if case.free:
        z = report.constants["z_infinity"]
        if not abs(z - 1.0) <= residual + 1e-12:
            problems.append("z_infinity = %r for g == 0" % z)
    expected = case.wronskian
    for x in cases.points_in_range(case, report.march, rng, CHECK_POINTS):
        w = _wronskian(report, float(x))
        if not abs(w - expected) <= WRONSKIAN_RTOL * abs(expected):
            problems.append("Wronskian %r != %g at x=%g" % (w, expected, x))
    problems.extend(check_transport(case, report, rng))
    return problems


def check_transport(case, report, rng):
    """Carry each returned solution between two nearby points with the
    oracle's ODE integrator, in the direction in which the solution grows
    (the stable one), and compare with what the solution returns there.

    Unlike the Wronskian, this catches a wrong recessive value: u2' is
    built from u2, so the pair stays consistent whatever u2 is, but the
    ODE u'' = (f + g) u does not hold for a wrong u2.  The potential is
    read from the case's strings by Python, not by the library."""
    lo, hi = cases.pair_in_range(case, report.march, rng)
    text = "(%s) + (%s)" % (case.f, case.g)
    code = compile(text.replace("^", "**"), text, "eval")
    space = {"__builtins__": {}, "exp": math.exp, "sin": math.sin}

    def V(x):
        return eval(code, space, {"x": x})   # noqa: S307 (own templates)

    problems = []
    for sol in report.solutions:
        ends = [(float(sol.value(x)), float(sol.derivative(x)))
                for x in (lo, hi)]
        grows = abs(ends[1][0]) + abs(ends[1][1]) >= \
            abs(ends[0][0]) + abs(ends[0][1])
        (x0, (u0, d0)), (x1, (u1, d1)) = (
            ((lo, ends[0]), (hi, ends[1])) if grows
            else ((hi, ends[1]), (lo, ends[0])))
        scale = 1.0 / (abs(u0) + abs(d0))
        traj = integrate_ivp(V, x0, u0 * scale, d0 * scale, x1, tol=1e-12)
        tu, td = float(traj.us[-1]), float(traj.dus[-1])
        err = abs(tu - u1 * scale) + abs(td - d1 * scale)
        if not err <= TRANSPORT_RTOL * (abs(tu) + abs(td)):
            problems.append("%s disagrees with the ODE at x=%g (%.2g)"
                            % (sol.label, x1, err / (abs(tu) + abs(td))))
    return problems


def check_table(case, rows):
    """Every row's ratio to the approximant stays inside its certified
    envelope; for the exponential regimes the value is the recessive
    solution's."""
    if not case.template.envelope:
        return []
    return ["table ratio %r outside envelope %r at x=%g"
            % (row["ratio"], row["envelope_bound"], row["x"])
            for row in rows
            if not abs(row["ratio"] - 1.0)
            <= row["envelope_bound"] * (1.0 + ENVELOPE_SLACK)]


def _cache_cells(fn, depth=4):
    """The closure cells holding a per-x cache (the recessive solution
    memoizes by x) reachable from fn; [] when fn holds none."""
    found = []
    if depth == 0 or getattr(fn, "__closure__", None) is None:
        return found
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
        try:
            val = cell.cell_contents
        except ValueError:
            continue
        if name == "cache" and isinstance(val, dict):
            found.append(cell)
        elif callable(val):
            found.extend(_cache_cells(val, depth - 1))
    return found


class _CountingDict(dict):
    """A cache that counts its lookups (`in` and get) and their hits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.hits = 0

    def __contains__(self, key):
        found = dict.__contains__(self, key)
        self.lookups += 1
        self.hits += found
        return found

    def get(self, key, default=None):
        self.lookups += 1
        self.hits += dict.__contains__(self, key)
        return dict.get(self, key, default)


@contextmanager
def counting_caches(reports, tracer):
    """While a traced pass runs, swap each per-x cache of the reports'
    solutions for a counting copy; afterwards put the original back, with
    the entries the pass added, and add the counts to the tracer."""
    if tracer is None:
        yield
        return
    cells = {}
    for report in reports:
        for sol in report.solutions:
            for fn in (sol.value, sol.derivative):
                for cell in _cache_cells(fn):
                    cells[id(cell)] = cell
    saved = [(cell, cell.cell_contents) for cell in cells.values()]
    for cell, cache in saved:
        cell.cell_contents = _CountingDict(cache)
    try:
        yield
    finally:
        for cell, cache in saved:
            counted = cell.cell_contents
            tracer.cache_lookups += counted.lookups
            tracer.cache_hits += counted.hits
            cache.update(counted)
            cell.cell_contents = cache


def _op_span(tracer, tag):
    """The benchmark's own root span around one operation, or nothing
    when the pass is untraced."""
    if tracer is None:
        return nullcontext()
    tracer.start_op(tag)
    return tracer.span("bench.op", "bench")


def _warm_up(case):
    """One untimed analyze, so first-call costs of the library land in
    set-up.  Its outcome is judged when the timed loop meets the case."""
    try:
        pipeline.analyze(case.f, case.g, **case.kwargs)
    except Exception:
        pass


class Workload:
    name = ""
    repeats_inputs = True   # every pass runs the same inputs

    def __init__(self, seed):
        self.seed = seed
        self.rng = cases.make_rng(seed, self.name, stream=1)

    def check_setup(self):
        """Problems with what setup() built, checked once per run."""
        return []


class Certify(Workload):
    """analyze + json_dumps on one case per regime template."""

    name = "certify"

    def setup(self):
        self.pool = cases.draw_pool(cases.CERTIFY, self.seed, self.name, 1)
        self.free = cases.FREE.draw(cases.make_rng(self.seed, self.name, 3))
        self.digests = {}
        _warm_up(self.free)

    def check_setup(self):
        report = pipeline.analyze(self.free.f, self.free.g,
                                  **self.free.kwargs)
        return ["%s: %s" % (self.free.template.name, p)
                for p in check_report(self.free, report, self.rng)]

    def run_pass(self, rec, tracer):
        for i, case in enumerate(self.pool):
            rec.attempted += 1
            tag = case.template.name
            t0 = _clock()
            try:
                with _op_span(tracer, tag):
                    report = pipeline.analyze(case.f, case.g, **case.kwargs)
                    text = cli.json_dumps(report.to_json_dict())
            except TYPED_ERRORS as exc:
                rec.add(_clock() - t0)
                note = " (known defect)" if case.template.known_defect else ""
                rec.fail("%s: %s%s" % (tag, type(exc).__name__, note))
                continue
            rec.add(_clock() - t0)
            if tracer is not None:
                tracer.work.append((report.work["quadrature_evaluations"],
                                    tracer.op_samples))
            digest = _digest(text)
            if i not in self.digests:
                self.digests[i] = digest
                problems = check_report(case, report, self.rng)
                if problems:
                    rec.fail("%s: %s" % (tag, "; ".join(problems)), True)
                    continue
            elif self.digests[i] != digest:
                rec.fail("%s: json differs between repeats" % tag, True)
                continue
            rec.completed += 1


class Evaluate(Workload):
    """Solution callables and tables of reports built in setup."""

    name = "evaluate"
    repeats_inputs = False   # every pass draws fresh points

    def setup(self):
        pool = cases.draw_pool(cases.EVALUATE, self.seed, self.name, 1)
        self.reports = [(c, pipeline.analyze(c.f, c.g, **c.kwargs))
                        for c in pool]
        self.tables = {}          # report index -> (digest, problems)
        self.points = cases.make_rng(self.seed, self.name, stream=2)

    def check_setup(self):
        out = []
        for case, report in self.reports:
            out.extend("%s: %s" % (case.template.name, p)
                       for p in check_report(case, report, self.rng))
        return out

    def run_pass(self, rec, tracer):
        with counting_caches([r for _, r in self.reports], tracer):
            self._run_pass(rec, tracer)

    def _run_pass(self, rec, tracer):
        for k, (case, report) in enumerate(self.reports):
            tag = case.template.name
            expected = case.wronskian
            u, v = report.solutions
            xs = cases.points_in_range(case, report.march, self.points,
                                       EVAL_POINTS)
            for x in xs.tolist():
                rec.attempted += 1
                # the callables are objects, so their span is opened here
                eval_span = (nullcontext() if tracer is None
                             else tracer.span("pipeline.eval", "pipeline"))
                t0 = _clock()
                with _op_span(tracer, tag), eval_span:
                    vals = (u.value(x), u.derivative(x),
                            v.value(x), v.derivative(x))
                rec.add(_clock() - t0)
                u0, u1, v0, v1 = (float(q) for q in vals)
                w = u0 * v1 - u1 * v0
                if not all(math.isfinite(q) for q in (u0, u1, v0, v1)):
                    rec.fail("%s: non-finite value at x=%r" % (tag, x), True)
                elif not abs(w - expected) <= WRONSKIAN_RTOL * abs(expected):
                    rec.fail("%s: Wronskian %r at x=%r" % (tag, w, x), True)
                else:
                    rec.completed += 1
            rec.attempted += 1
            t0 = _clock()
            with _op_span(tracer, tag):
                rows = report.sample_rows(TABLE_ROWS)
            rec.add(_clock() - t0, table=True)
            flat = [row[key] for row in rows for key in sorted(row)]
            digest = _digest(repr(flat))
            if len(rows) != TABLE_ROWS or not all(
                    math.isfinite(q) for q in flat):
                rec.fail("%s: table has non-finite entries" % tag, True)
            else:
                if k not in self.tables:
                    self.tables[k] = (digest, check_table(case, rows))
                first, problems = self.tables[k]
                defect = case.template.table_defect
                if first != digest:
                    rec.fail("%s: table differs between repeats" % tag, True)
                elif problems and defect:
                    rec.fail("%s: table ratio outside its envelope (known "
                             "defect)" % tag)
                elif problems:
                    rec.fail("%s: %s" % (tag, "; ".join(problems)), True)


class Refuse(Workload):
    """analyze on inputs outside the certified class."""

    name = "refuse"

    def setup(self):
        self.pool = cases.draw_pool(cases.REFUSE, self.seed, self.name, 3)
        self.expected = [getattr(lgasym, c.template.refusal)
                         for c in self.pool]
        _warm_up(self.pool[0])

    def run_pass(self, rec, tracer):
        for case, expected in zip(self.pool, self.expected):
            rec.attempted += 1
            tag = case.template.name
            t0 = _clock()
            try:
                with _op_span(tracer, tag):
                    pipeline.analyze(case.f, case.g, **case.kwargs)
            except expected:
                rec.add(_clock() - t0)
                rec.completed += 1
            except Exception as exc:   # a wrong class is a wrong answer
                rec.add(_clock() - t0)
                rec.fail("%s: raised %s, expected %s" % (
                    tag, type(exc).__name__, expected.__name__), True)
            else:
                rec.add(_clock() - t0)
                rec.fail("%s: not refused" % tag, True)


WORKLOADS = {w.name: w for w in (Certify, Evaluate, Refuse)}
