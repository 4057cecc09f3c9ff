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

    python tools/output_digest.py --compare OLD NEW

reads two saved digests and prints, per field (a template's field path
with list indices and evaluation points collapsed), how many lines moved
and the largest relative move of their numbers; every line whose field
is in only one digest; and every certify constant that moved by more than
its case's constants.tail_residual_bound in NEW.  It exits with 1 when a
line moved in text (more than its numbers changed), when a line is in
only one digest, or when a certify constant moved beyond its bound, and
with 0 otherwise: equal digests, or numbers that moved within bounds.  A
certify case's sha256 moves with any of its numbers, so it counts as a
text move only when no other line of that case moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
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

# a number as repr prints it, not inside a word (a hash, a name)
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"
                     r"|inf|nan)(?![\w.])")


def _pairs(line):
    """(key, value) pairs of a digest line: the key is the pool, seed,
    case, template and field, the value the rest.  An evaluation point
    belongs to the value, so a point that moved is a move, not a new
    line; a table row gives one pair per column."""
    words = line.split(" ")
    n = 6 if words[0] == "evaluate" and words[4] != "raises" else 5
    key, paren, point = " ".join(words[:n]).partition("(")
    value = " ".join(words[n:])
    if paren:
        value = "(%s %s" % (point, value)
    if words[4] != "row":
        return [(key, value)]
    return [("%s %s" % (key, column), cell)
            for column, cell in re.findall(r"\('(\w+)', ([^)]*)\)", value)]


def _field(key):
    """The key without seed, case and occurrence, list indices and row
    numbers collapsed: the lines of one field across cases."""
    pool, _, _, rest = key.split(" ", 3)
    rest = re.sub(r"\[\d+\]", "[]", rest.split("@")[0])
    return "%s %s" % (pool, re.sub(r" row \d+ ", " row ", rest))


def _move(old, new):
    """The largest relative move between the numbers of two values of the
    same shape; None when they differ in anything but their numbers."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return None
    worst = 0.0
    for a, b in zip(map(float, _NUMBER.findall(old)),
                    map(float, _NUMBER.findall(new))):
        if a == b or math.isnan(a) and math.isnan(b):
            continue
        move = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, move if math.isfinite(move) else math.inf)
    return worst


def _read(path):
    """{key: value} of a digest file, in file order; a repeated key (the
    points of one solution) gets @ and its occurrence number."""
    values, seen = {}, {}
    with open(path) as lines:
        for line in lines:
            for key, value in _pairs(line.rstrip("\n")):
                seen[key] = seen.get(key, 0) + 1
                values["%s@%d" % (key, seen[key]) if seen[key] > 1
                       else key] = value
    return values


def compare(old_path, new_path, emit):
    """Print what moved between two digests; 1 when a line moved in text,
    a line is in only one digest or a constant moved beyond its bound,
    else 0 (see the module docstring)."""
    old, new = _read(old_path), _read(new_path)
    both = [key for key in new if key in old]
    moved_cases = {key.rsplit(" ", 1)[0] for key in both
                   if old[key] != new[key] and not key.endswith(" sha256")}
    failed = False
    fields = {}     # field: [lines, moved, largest move, text moves]
    for key in both:
        stat = fields.setdefault(_field(key), [0, 0, 0.0, 0])
        stat[0] += 1
        if old[key] != new[key]:
            move = _move(old[key], new[key])
            stat[1] += 1
            if move is None:
                stat[3] += 1
                failed |= not (key.endswith(" sha256")
                               and key.rsplit(" ", 1)[0] in moved_cases)
            else:
                stat[2] = max(stat[2], move)
    for field, (lines, moved, move, text) in sorted(fields.items()):
        if moved:
            emit("%s: %d of %d lines moved, %s" % (
                field, moved, lines, "in text" if text == moved else
                "largest relative move %.3g%s" % (
                    move, ", %d in text" % text if text else "")))
    emit("%d of %d fields unmoved" % (sum(not stat[1] for stat
                                          in fields.values()), len(fields)))
    for name, mine, other in (("OLD", old, new), ("NEW", new, old)):
        for key in mine:
            if key not in other:
                emit("only in %s: %s %s" % (name, key, mine[key]))
                failed = True
    for key in both:
        words = key.split(" ")
        bound_key = " ".join(words[:4] + ["constants.tail_residual_bound"])
        if (words[0] != "certify" or key == bound_key
                or not words[4].startswith("constants.")):
            continue
        bound = new.get(bound_key, "None")
        if not all(map(_NUMBER.fullmatch, (old[key], new[key], bound))):
            continue
        delta = abs(float(new[key]) - float(old[key]))
        if delta > float(bound):
            emit("beyond bound: %s moved by %.3g > tail_residual_bound %s"
                 % (key, delta, bound))
            failed = True
    return int(failed)


def main(argv=None, emit=print):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--pools", nargs="+", choices=sorted(POOLS),
                        default=["certify", "evaluate", "refuse"])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two saved digests instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, emit)
    for seed in args.seeds:
        for pool in args.pools:
            POOLS[pool](seed, emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
