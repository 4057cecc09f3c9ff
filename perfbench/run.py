"""lgasym benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Run from the root of the repository.  The library is imported from
``src/``; nothing is installed.  One caller runs a closed loop of
operations for about ``--seconds`` seconds (whole passes over the
workload's inputs), checks every output outside the timed regions and
prints one line per metric, then a JSON object as the last line.

--trace 0 prints the end-to-end metrics, with times normalized to a
nominal host speed (hostspeed.py).  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics measured on the traced
ones, plus the tracing overhead; spans and counts are written under
``.perfbench_out/``.  The exit code is 1 when any output is wrong or a
deterministic count does not repeat, 2 when the library cannot be loaded.
"""

import os

# The box has two cores and the caller is single-threaded: keep BLAS from
# spawning threads of its own.  Must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import cases  # noqa: E402
from hostspeed import NEAREST, HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# latency_ms.tail.  Fixed, so it is the same percentile whatever number of
# passes fits in a run.  On certify it falls inside the Airy-type
# templates, the slowest two of nine.  p99 spread across seeds by 0.12 to
# 0.14 on evaluate and refuse, p95 by 0.03 to 0.07.
TAIL_RANK = 95.0

_clock = time.perf_counter


def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def code_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lgasym").glob("*.py")) + \
            sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cold_import():
    """Start a fresh interpreter that imports the library and exits: the
    start-up a command-line user pays before the first analysis."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import lgasym.cli"], env=env,
                   cwd=ROOT, check=True, timeout=60)


Pass = namedtuple("Pass", "traced timed")


def measure(work, rec, seconds, tracer):
    """Whole passes until the next one would overrun `seconds`.

    With a tracer, odd passes are traced and even ones are not.  Returns
    one Pass per pass and the count snapshots of the traced passes.
    """
    passes = []
    snapshots = []
    start = _clock()
    longest = 0.0
    minimum = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        timed = rec.timed
        began = _clock()
        if traced:
            tracer.install()
            try:
                work.run_pass(rec, tracer)
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot_counts())
        else:
            work.run_pass(rec, None)
        longest = max(longest, _clock() - began)
        passes.append(Pass(traced, rec.timed - timed))
        if len(passes) >= minimum and _clock() - start + longest > seconds:
            return passes, snapshots


def pass_counts(snapshots):
    """Counts of each traced pass (snapshots are cumulative)."""
    out, prev = [], {}
    for snap in snapshots:
        out.append({k: v - prev.get(k, 0) for k, v in snap.items()
                    if v - prev.get(k, 0)})
        prev = snap
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(work):
    """One set-up, in seconds at nominal host speed (hostspeed.py): the
    reference runs just before and just after it."""
    speed = HostSpeed()
    speed.sample(NEAREST // 2)
    t0 = _clock()
    cold_import()
    work.setup()
    wall = _clock() - t0
    speed.sample(NEAREST - NEAREST // 2)
    return wall * speed.scale(speed.times), wall


def end_to_end(rec, passes, setups, rank):
    """Times are normalized to nominal host speed; the wall figures are
    printed as notes."""
    speed = rec.speed
    ms = [1000.0 * t for t in speed.normalize(rec.latencies, rec.stamps)]
    tables = speed.normalize(rec.table_latencies, rec.table_stamps)
    wall_ms = [1000.0 * t for t in rec.latencies]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "latency_ms.p50": (percentile(ms, 50.0), "ms"),
        "latency_ms.tail": (percentile(ms, rank), "ms"),
        "ops_per_s": (rec.completed / (sum(ms) / 1000.0 + sum(tables)),
                      "1/s"),
        "ok_share": ((rec.attempted - rec.failed) / rec.attempted, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = ["latency_ms.tail is p%g of %d samples (%.1f beyond it); "
             "%d passes" % (rank, len(ms), len(ms) * (1.0 - rank / 100.0),
                            len(passes)),
             "wall: setup_s %.4f, latency_ms.p50 %.4f, latency_ms.tail %.4f,"
             " ops_per_s %.4f; reference unit %.3f ms (median of %d)"
             % (statistics.median(w for _, w in setups),
                percentile(wall_ms, 50.0), percentile(wall_ms, rank),
                rec.completed / rec.timed,
                1000.0 * statistics.median(speed.times), len(speed.times))]
    if tables:
        notes.append("table_ms.p50 %.4f over %d tables"
                     % (percentile([1000.0 * t for t in tables], 50.0),
                        len(tables)))
    return metrics, notes


def per_layer(tr, passes, first):
    """Per-layer metrics from the traced passes.  Times are milliseconds
    of self time per traced pass; counts are those of the first traced
    pass, which repeat exactly for a given seed."""
    traced = [p.timed for p in passes if p.traced]
    plain = [p.timed for p in passes if not p.traced]
    passes = len(traced)

    def ms(name):
        return 1000.0 * tr.self_s.get(name, 0.0) / passes

    def count(key):
        return float(first.get(key, 0))

    steps_total = tr.counts.get("volterra.march.steps", 0)
    m = {
        "volterra.march.ms": (ms("volterra.march"), "ms"),
        "volterra.march.steps": (count("volterra.march.steps"), "count"),
        "volterra.march.us_per_step": (
            1e6 * tr.self_s.get("volterra.march", 0.0) / steps_total
            if steps_total else 0.0, "us"),
        "volterra.march.retries": (count("volterra.march.retries"), "count"),
        "volterra.complete.ms": (ms("volterra.complete"), "ms"),
        "transform.classify.ms": (ms("transform.classify"), "ms"),
        "transform.phase_map.ms": (ms("transform.phase_map"), "ms"),
        "transform.phase_map.nodes": (count("transform.phase_map.nodes"),
                                      "count"),
        "transform.y_of_x.ms": (ms("transform.y_of_x"), "ms"),
        "transform.y_of_x.calls": (count("calls.transform.y_of_x"), "count"),
        "certificate.find_cutoff.ms": (ms("certificate.find_cutoff"), "ms"),
        "certificate.verify.ms": (ms("certificate.verify"), "ms"),
        "expr.parse.ms": (ms("expr.parse"), "ms"),
        "expr.compile_fn.ms": (ms("expr.compile_fn"), "ms"),
        "expr.compile_fn.calls": (count("calls.expr.compile_fn"), "count"),
        "expr.differentiate.ms": (ms("expr.differentiate"), "ms"),
        "quadrature.ms": (ms("quadrature"), "ms"),
        "quadrature.calls": (count("calls.quadrature"), "count"),
        "quadrature.samples": (count("quadrature.samples"), "count"),
        "quadrature.errors": (count("quadrature.errors"), "count"),
        "pipeline.analyze.self_ms": (ms("pipeline.analyze"), "ms"),
        "pipeline.eval.ms": (ms("pipeline.eval"), "ms"),
        "pipeline.eval.points": (count("calls.pipeline.eval"), "count"),
        "pipeline.eval.cache_hit_share": (
            tr.cache_hits / tr.cache_lookups if tr.cache_lookups else 0.0,
            "share"),
        "pipeline.sample_rows.ms": (ms("pipeline.sample_rows"), "ms"),
        "cli.json_dumps.ms": (ms("cli.json_dumps"), "ms"),
    }
    for caller in ("certificate", "transform", "pipeline"):
        sfx = ".by_" + caller
        m["quadrature.ms" + sfx] = (
            1000.0 * tr.by_caller.get("quadrature.ms" + sfx, 0.0) / passes,
            "ms")
        for key in ("calls", "samples", "errors"):
            m["quadrature.%s%s" % (key, sfx)] = (
                count("quadrature.%s%s" % (key, sfx)), "count")
    for tmpl in (t.name for t in cases.CERTIFY + cases.REFUSE):
        calls = tr.tag_calls.get(tmpl, 0)
        m["pipeline.analyze.%s.ms" % tmpl] = (
            1000.0 * tr.tag_s[tmpl] / calls if calls else 0.0, "ms")
    reported = sum(q for q, _ in tr.work)
    sampled = sum(s for _, s in tr.work)
    m["pipeline.work_coverage"] = (reported / sampled if sampled else 0.0,
                                   "share")
    traced = statistics.median(traced)
    plain = statistics.median(plain)
    m["trace.overhead_ms"] = (1000.0 * (traced - plain), "ms")
    m["trace.overhead_share"] = ((traced - plain) / plain, "share")
    total_self = sum(tr.self_s.values())
    m["trace.unattributed_share"] = (
        tr.self_s.get("bench.op", 0.0) / total_self if total_self else 0.0,
        "share")
    return m


def check_counts(work, seed, snapshots, problems):
    """Counts must repeat exactly: across traced passes over the same
    inputs, and across runs of the same seed and code."""
    per_pass = pass_counts(snapshots)
    first = per_pass[0]
    def differing(other):
        keys = sorted(k for k in set(first) | set(other)
                      if first.get(k) != other.get(k))
        return ", ".join(keys[:8])

    if work.repeats_inputs:
        for i, other in enumerate(per_pass[1:], start=2):
            if other != first:
                problems.append("counts of traced pass %d differ from the "
                                "first: %s" % (i, differing(other)))
    path = OUT / ("counts-%s-%d-%s.json" % (work.name, seed, code_digest()))
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != first:
            problems.append("counts differ from an earlier run of seed %d: "
                            "%s" % (seed, differing(earlier)))
    else:
        path.write_text(json.dumps(first, indent=1, sort_keys=True))
    return first


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print("cannot load lgasym from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    work = workloads.WORKLOADS[args.workload](args.seed)
    setups = [timed_setup(work) for _ in range(SETUP_REPEATS)]
    problems = work.check_setup()

    rec = workloads.Record()
    rec.speed.sample(NEAREST)
    tracer = Tracer() if args.trace else None
    passes, snapshots = measure(work, rec, args.seconds, tracer)
    problems.extend(rec.incorrect)

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        first = check_counts(work, args.seed, snapshots, problems)
        metrics = per_layer(tracer, passes, first)
        spans = OUT / ("spans-%s-%d.json" % (work.name, args.seed))
        tracer.write(spans)
        notes = ["%d traced and %d untraced passes; %d spans (%.1f MB) in "
                 "%s; peak RSS %.1f MB"
                 % (sum(p.traced for p in passes),
                    sum(not p.traced for p in passes), len(tracer.spans),
                    spans.stat().st_size / 1e6, spans, peak_rss_mb())]
    else:
        metrics, notes = end_to_end(rec, passes, setups, TAIL_RANK)

    print("workload %s seed %d: %d attempted, %d failed, %d passes"
          % (work.name, args.seed, rec.attempted, rec.failed, len(passes)))
    for msg, n in sorted(rec.failures.items()):
        print("  failed x%d  %s" % (n, msg))
    for msg, n in sorted(Counter(problems).items()):
        print("  WRONG x%d  %s" % (n, msg))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6f %s" % (name, value, unit))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
