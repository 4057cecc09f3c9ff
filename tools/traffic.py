"""List every statement of the library that one pass of the benchmark's
workloads never runs, so that a change can show which paths the
benchmark's traffic exercises.

    python tools/traffic.py [--seeds 1] [--workloads certify evaluate refuse]

Run it from the root of a checkout; it imports that checkout's library
and the workloads of its perfbench/workloads.py, and writes nothing but
standard output.  Per seed and workload it runs the workload's setup and
one pass under sys.settrace, recording the lines run in frames of
src/lgasym.  It then prints, per module, every statement inside a
function (a nested function's under its own name) whose own lines never
ran, as `function:line  source`.  A compound statement's own lines are
its header; a docstring or other bare constant runs no code and is
never listed.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "lgasym"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True      # leave perfbench/ as it is

import workloads  # noqa: E402


def run_traced(names, seeds):
    """{file name: set of line numbers} run in src/lgasym frames while
    each workload's setup and one pass run."""
    prefix = str(LIBRARY) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    before = sys.gettrace()
    for seed in seeds:
        for name in names:
            load = workloads.WORKLOADS[name](seed)
            sys.settrace(call)
            try:
                load.setup()
                load.run_pass(workloads.Record(), None)
            finally:
                sys.settrace(before)
    return {Path(name).name: lines for name, lines in ran.items()}


def _own_lines(stmt):
    """The lines of stmt that are its own: a compound statement's header
    up to its first child, all of a simple statement's."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(stmt.lineno, max(stmt.lineno + 1, body[0].lineno))
    return range(stmt.lineno, stmt.end_lineno + 1)


def _children(stmt):
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(stmt, field, ())
    for handler in getattr(stmt, "handlers", ()):
        yield from handler.body


def function_statements(tree):
    """(qualified function name, statement) of every statement inside a
    function of the module tree, except bare constants."""
    def walk(stmts, scope, inside):
        for stmt in stmts:
            bare = (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))
            if inside and not bare:
                yield ".".join(scope), stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield from walk(stmt.body, scope + [stmt.name],
                                inside or not isinstance(stmt, ast.ClassDef))
            else:
                yield from walk(_children(stmt), scope, inside)

    yield from walk(tree.body, [], False)


def unrun(ran):
    """{module file name: [(function, line, source)]} of the statements
    inside functions whose own lines never ran."""
    out = {}
    for path in sorted(LIBRARY.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        seen = ran.get(path.name, set())
        out[path.name] = [
            (scope, stmt.lineno, lines[stmt.lineno - 1].strip())
            for scope, stmt in function_statements(ast.parse(text))
            if seen.isdisjoint(_own_lines(stmt))]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+",
                        choices=list(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for module, stmts in unrun(run_traced(args.workloads,
                                          args.seeds)).items():
        print("%s: %d statements in functions never ran"
              % (module, len(stmts)))
        for scope, line, source in stmts:
            print("  %s:%d  %s" % (scope, line, source))


if __name__ == "__main__":
    main()
