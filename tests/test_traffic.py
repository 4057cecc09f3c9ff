import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "traffic.py"


def _function(module, name):
    tree = ast.parse((ROOT / "src" / "lgasym" / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _statements(fn):
    """Every statement of fn's body but its docstring, nested ones too."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return [node for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.stmt)]


def test_traffic_lists_what_the_refuse_pass_never_runs():
    # no refuse case reaches a march, and every one classifies, so the
    # whole of _graded_march is listed and probe_sign's first statement
    # is not
    p = subprocess.run([sys.executable, str(TOOL), "--seeds", "1",
                        "--workloads", "refuse"], capture_output=True,
                       text=True, timeout=120, cwd=ROOT)
    assert p.returncode == 0, p.stderr
    listed = {line.split()[0] for line in p.stdout.splitlines()
              if line.startswith("  ")}
    march = _statements(_function("pipeline.py", "_graded_march"))
    assert len(march) > 20
    for stmt in march:
        assert "_graded_march:%d" % stmt.lineno in listed
    first = _statements(_function("transform.py", "probe_sign"))[0]
    assert "probe_sign:%d" % first.lineno not in listed
    assert "pipeline.py: " in p.stdout
