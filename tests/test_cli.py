import json
import math
import os
import subprocess
import sys

import pytest

from lgasym.cli import json_dumps


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lgasym.cli", *args],
        capture_output=True, text=True, env=env, timeout=300)


# -------------------------------------------------------- json writer

def test_json_dumps_is_deterministic_and_parsable():
    doc = {"b": 1.0 / 3.0, "a": [1, 2.5, True, None], "c": {"x": -0.0}}
    s1 = json_dumps(doc)
    s2 = json_dumps(doc)
    assert s1 == s2
    back = json.loads(s1)
    assert back["b"] == 1.0 / 3.0  # 17 significant digits round-trip
    # insertion order is preserved, not sorted
    assert list(back) == ["b", "a", "c"]


def test_json_dumps_nonfinite_becomes_null():
    s = json_dumps({"inf": math.inf, "nan": math.nan})
    back = json.loads(s)
    assert back["inf"] is None
    assert back["nan"] is None


def test_json_dumps_escapes_strings():
    s = json_dumps({"key": 'quote " backslash \\ newline \n'})
    assert json.loads(s)["key"] == 'quote " backslash \\ newline \n'


# ------------------------------------------------------------ analyze

def test_analyze_human_output():
    p = run_cli("analyze", "--f", "1", "--g", "3/(4*x^2)")
    assert p.returncode == 0
    assert "regime: constant-exponential" in p.stdout
    assert "certificate: PASS" in p.stdout
    assert "z_infinity" in p.stdout


def test_analyze_json_byte_determinism():
    args = ("analyze", "--f", "1", "--g", "3/(4*x^2)", "--json")
    p1 = run_cli(*args)
    p2 = run_cli(*args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    doc = json.loads(p1.stdout)
    assert doc["schema"] == 1
    assert doc["regime"] == "constant-exponential"
    assert doc["constants"]["z_infinity"] == pytest.approx(
        1.3544312649400647, rel=1e-12)
    # infinite interval edge serializes as null
    assert doc["input"]["interval"][1] is None


def test_analyze_json_zero_endpoint():
    p = run_cli("analyze", "--f", "1/x^2", "--g", "1 - 1/(4*x^2)",
                "--endpoint", "zero", "--xmax", "0.002", "--json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["regime"] == "exponential-at-zero"
    assert doc["march"]["frame"] == "inverted (s = 1/x)"


def test_analyze_hypothesis_failure_exits_2():
    p = run_cli("analyze", "--f", "1", "--g", "1/x")
    assert p.returncode == 2
    assert "hypothesis failure" in p.stderr
    assert "perturbation-integrable" in p.stderr
    assert "FAILED" in p.stderr


def test_analyze_parse_error_exits_1():
    p = run_cli("analyze", "--f", "foo(x)", "--g", "0")
    assert p.returncode == 1
    assert "error:" in p.stderr


@pytest.mark.parametrize("flag", ["--tol", "--tail-tol"])
def test_analyze_bad_tolerance_exits_1(flag):
    p = run_cli("analyze", "--f", "1", "--g", "3/(4*x^2)", flag, "nan")
    assert p.returncode == 1
    assert "must be a positive finite number" in p.stderr


def test_analyze_out_of_domain_constant_exits_1():
    p = run_cli("analyze", "--f", "1", "--g", "exp(-x) + 1/0")
    assert p.returncode == 1
    assert p.stderr.startswith("error: ")
    assert "Traceback" not in p.stderr


def test_analyze_interval_argument():
    p = run_cli("analyze", "--f", "1", "--g", "3/(4*x^2)",
                "--interval", "2:inf", "--json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["input"]["interval"][0] == 2.0
    assert doc["certificate"]["cutoff"] >= 2.0


# -------------------------------------------------------------- table

def test_table_plain_and_csv():
    base = ("table", "--f", "1", "--g", "3/(4*x^2)", "--points", "5")
    plain = run_cli(*base)
    assert plain.returncode == 0
    lines = plain.stdout.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[0].split() == ["x", "value", "approximant", "ratio",
                                "envelope_bound"]
    csv_run = run_cli(*base, "--csv")
    rows = csv_run.stdout.strip().splitlines()
    assert rows[0] == "x,value,approximant,ratio,envelope_bound"
    assert len(rows) == 6
    xs = []
    for row in rows[1:]:
        cells = [float(c) for c in row.split(",")]
        assert len(cells) == 5
        xs.append(cells[0])
        assert abs(cells[3] - 1.0) <= cells[4] * (1 + 1e-6)
    assert xs == sorted(xs)


def test_table_csv_determinism():
    # leading '-' needs the --opt=value spelling to get past argparse
    args = ("table", "--f=-1", "--g=-1/(4*x^2)", "--csv")
    p1 = run_cli(*args)
    p2 = run_cli(*args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout


# ----------------------------------------------------------- validate

def test_validate_convergence_suite():
    p = run_cli("validate", "--suite", "convergence")
    assert p.returncode == 0
    assert "all checks passed" in p.stdout
    assert "FAIL" not in p.stdout
    for line in p.stdout.strip().splitlines()[:-1]:
        assert line.startswith("PASS")
    # every march: the real and oscillatory kernel and the algebraic one,
    # on a uniform and on a graded grid
    assert p.stdout.count("error drops fourfold per halving") == 3
    assert p.stdout.count(
        "error drops fourfold per bisection of a graded grid") == 3


def test_validate_bessel_half_suite():
    p = run_cli("validate", "--suite", "bessel_half")
    assert p.returncode == 0
    assert "all checks passed" in p.stdout
    assert "FAIL" not in p.stdout


def test_validate_gronwall_suite():
    p = run_cli("validate", "--suite", "gronwall", "--seed", "3")
    assert p.returncode == 0
    assert "all checks passed" in p.stdout
    lines = p.stdout.strip().splitlines()[:-1]
    assert len(lines) == 15
    assert all(line.startswith("PASS") for line in lines)
    # every case checks the Wronskian its pair is normalized to
    for want in ("Wronskian -2 for f=1 ", "Wronskian 1 for f=-1 ",
                 "Wronskian -1 for f=0 "):
        assert sum(want in line for line in lines) == 1


def test_validate_unknown_suite_rejected():
    p = run_cli("validate", "--suite", "nope")
    assert p.returncode == 2  # argparse usage error
    assert "invalid choice" in p.stderr


# ------------------------------------------------------------ logging

def test_log_env_writes_to_stderr():
    p = run_cli("analyze", "--f", "1", "--g", "3/(4*x^2)",
                env_extra={"LG_LOG": "debug"})
    assert p.returncode == 0
    assert p.stderr != ""


def test_quiet_by_default():
    p = run_cli("analyze", "--f", "1", "--g", "3/(4*x^2)")
    assert p.stderr == ""
