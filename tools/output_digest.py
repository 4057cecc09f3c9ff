"""Print every output of the benchmark's seeded inputs, one line each, so
that a diff of two checkouts' digests names every value that moved.

    python tools/output_digest.py [--seeds 1 2 3 4 5]
                                  [--pools certify evaluate refuse]

Run it from the root of a checkout; it imports that checkout's library
and draws the inputs with its perfbench/cases.py, and writes nothing but
standard output.  Per seed:

- certify: the nine certify templates and the constant-free case.  Each
  report's --json document (cli.json_dumps) gives one line per leaf,
  named by its path, and one line with the SHA-256 of the whole text;
- evaluate: the evaluate pool's reports.  Value and derivative of both
  solutions at 12 seeded points, each point as a scalar and all twelve as
  one array, and sample_rows(9);
- refuse: the refuse pool (three cases per template).  The class and
  message of what analyze raises.

A case that raises prints its error class and message in place of its
outputs.  Floats print as repr, which round-trips, so equal lines mean
bit-identical values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cases  # noqa: E402
from lgasym import cli, pipeline  # noqa: E402

EVAL_POINTS = 12
TABLE_ROWS = 9


def _leaves(obj, path=""):
    """(path, value) of every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, "%s.%s" % (path, key) if path else key)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaves(val, "%s[%d]" % (path, i))
    else:
        yield path, obj


def _analyze(case, label, emit):
    """The case's report, or None after emitting what it raised."""
    try:
        return pipeline.analyze(case.f, case.g, **case.kwargs)
    except Exception as exc:
        emit("%s raises %s: %s" % (label, type(exc).__name__, exc))
        return None


def certify_lines(seed, emit):
    pool = cases.draw_pool(cases.CERTIFY, seed, "certify", 1)
    pool.append(cases.FREE.draw(cases.make_rng(seed, "certify", 3)))
    for i, case in enumerate(pool):
        label = "certify %d #%d %s" % (seed, i, case.template.name)
        report = _analyze(case, label, emit)
        if report is None:
            continue
        text = cli.json_dumps(report.to_json_dict())
        emit("%s sha256 %s" % (label, hashlib.sha256(text.encode())
                                .hexdigest()))
        for path, val in _leaves(json.loads(text)):
            emit("%s %s %r" % (label, path, val))


def evaluate_lines(seed, emit):
    pool = cases.draw_pool(cases.EVALUATE, seed, "evaluate", 1)
    rng = cases.make_rng(seed, "output-digest")
    for i, case in enumerate(pool):
        label = "evaluate %d #%d %s" % (seed, i, case.template.name)
        report = _analyze(case, label, emit)
        if report is None:
            continue
        xs = cases.points_in_range(case, report.march, rng, EVAL_POINTS)
        for sol in report.solutions:
            for name, fn in (("value", sol.value),
                             ("derivative", sol.derivative)):
                head = "%s %s %s" % (label, sol.label, name)
                for x in xs.tolist():
                    emit("%s(%r) %r" % (head, x, float(fn(x))))
                emit("%s(array) %r" % (head, fn(xs).tolist()))
        for k, row in enumerate(report.sample_rows(TABLE_ROWS)):
            emit("%s row %d %r" % (label, k, sorted(row.items())))


def refuse_lines(seed, emit):
    pool = cases.draw_pool(cases.REFUSE, seed, "refuse", 3)
    for i, case in enumerate(pool):
        label = "refuse %d #%d %s" % (seed, i, case.template.name)
        if _analyze(case, label, emit) is not None:
            emit("%s not refused" % label)


POOLS = {"certify": certify_lines, "evaluate": evaluate_lines,
         "refuse": refuse_lines}


def main(argv=None, emit=print):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--pools", nargs="+", choices=sorted(POOLS),
                        default=["certify", "evaluate", "refuse"])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for pool in args.pools:
            POOLS[pool](seed, emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
