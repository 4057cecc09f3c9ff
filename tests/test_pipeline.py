import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from lgasym import cli, expr, pipeline, quadrature, transform, volterra
from lgasym.pipeline import AnalysisError, RangeError, analyze
from lgasym.transform import HypothesisFailed, Regime
from reference_oracles import (BesselFixture, _series_eval,
                               small_argument_series)


def wronskian(r, lbl1, lbl2, x):
    a, b = r.solution(lbl1), r.solution(lbl2)
    return a.value(x) * b.derivative(x) - a.derivative(x) * b.value(x)


# ------------------------------------------------------ exponential

def test_pure_exponential_closed_form():
    r = analyze("1", "0")
    assert r.regime is Regime.CONSTANT_EXP
    dom, rec = r.solution("dominant"), r.solution("recessive")
    for x in (2.0, 5.0, 9.0):
        assert dom.value(x) * math.exp(-x) == pytest.approx(1.0, rel=1e-9)
        assert rec.value(x) * math.exp(x) == pytest.approx(1.0, rel=1e-9)
        assert rec.derivative(x) * math.exp(x) == pytest.approx(-1.0, rel=1e-9)


def test_exponential_connection_constant():
    r = analyze("1", "3/(4*x^2)")
    assert r.regime is Regime.CONSTANT_EXP
    assert r.constants["z_infinity"] == pytest.approx(1.3544312649400647,
                                                      rel=1e-10)
    assert r.constants["tail_residual_bound"] <= 1e-6
    # sqrt(x) I_1 and sqrt(x) K_1 matched to z = 1, z' = 0 at the cutoff,
    # to 40 digits
    assert abs(r.constants["z_infinity"] - 1.3544312307288973) \
        <= r.constants["tail_residual_bound"]
    assert r.march["cutoff"] == pytest.approx(1.203125, rel=1e-12)
    assert r.certificate.passed()
    assert r.verification["tail_consistent"]


def test_exponential_wronskian_is_exact():
    r = analyze("1", "3/(4*x^2)")
    for x in (3.0, 20.0, 150.0):
        assert wronskian(r, "dominant", "recessive", x) == pytest.approx(
            -2.0, rel=1e-9)


# ------------------------------------------------------- oscillatory

def test_oscillatory_connection_constants():
    r = analyze("-1", "-1/(4*x^2)")
    assert r.regime is Regime.CONSTANT_OSC
    xi1 = r.constants["xi1"]
    xi2 = r.constants["xi2"]
    assert xi1 == pytest.approx(0.9933040255210028 + 0.12304557233813462j,
                                rel=1e-9)
    assert xi2 == pytest.approx(0.03271385888685263 - 0.02688777251511704j,
                                rel=1e-8)
    # sqrt(x) H_0^(1,2) matched to z = 1, z' = 0 at the cutoff 1, to 40
    # digits
    assert r.march["cutoff"] == 1.0
    bound = r.constants["tail_residual_bound"]
    assert abs(xi1 - (0.99330404981926099 + 0.12304557519145396j)) <= bound
    assert abs(xi2 - (0.032713859659172769 - 0.026887773201599009j)) <= bound
    # the zeta = -i constants are the conjugates of the +i ones
    assert "conjugation_defect" not in r.constants
    assert r.constants["eta2"] == xi1.conjugate()
    # |xi1|^2 - |xi2|^2 = 1 for the unimodular transfer of a real potential
    assert abs(xi1) ** 2 - abs(xi2) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_oscillatory_wronskian():
    r = analyze("-1", "-1/(4*x^2)")
    for x in (3.0, 40.0):
        assert wronskian(r, "cos-like", "sin-like", x) == pytest.approx(
            1.0, abs=2e-6)


# --------------------------------------------------------- algebraic

def test_algebraic_regime():
    r = analyze("0", "exp(-2*x)")
    assert r.regime is Regime.ALGEBRAIC_INFINITY
    assert r.constants["z_infinity"] == pytest.approx(1.102939923179678,
                                                      rel=1e-10)
    assert wronskian(r, "dominant", "recessive", 10.0) == pytest.approx(
        -1.0, rel=1e-9)
    assert r.solution("recessive").value(10.0) == pytest.approx(1.0, abs=1e-6)


def test_algebraic_forced_range():
    r = analyze("0", "exp(-2*x)", x_max=60.0)
    assert r.march["x_max"] >= 60.0
    u1 = r.solution("dominant")
    # u1(x)/x -> 1 with O(1/x) drift from the a + b/x correction
    assert u1.value(59.0) / 59.0 == pytest.approx(1.0, abs=5e-3)
    assert u1.value(59.0) / 59.0 == pytest.approx(0.997349449, rel=1e-7)


def test_algebraic_recessive_limits_at_a_cutoff_zero():
    # at a cutoff 0 the recessive u2 = zhat x z int_x^inf u1^{-2} tends to
    # zhat, and u2' to zhat (int_0^X (z^-2 - 1) / t^2 dt - 1/X + tail): both
    # finite, returned without a floating-point warning
    r = analyze("0", "exp(-2*x)", interval=(0, math.inf))
    assert r.march["cutoff"] == 0.0
    rec = r.solution("recessive")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v0, d0 = rec.value(0.0), rec.derivative(0.0)
        v, d = rec.value(1e-9), rec.derivative(1e-9)
        both = rec.value(np.array([0.0, 1e-9]))
    assert np.isfinite(v0) and np.isfinite(d0)
    assert v0 == pytest.approx(r.constants["z_infinity"], rel=1e-14)
    assert v0 == pytest.approx(v, rel=1e-7)
    assert d0 == pytest.approx(d, rel=1e-7)
    assert np.array_equal(both, [v0, v])


# ------------------------------------------------------ zero endpoint

def test_zero_endpoint_closed_form_anchor():
    # for f = 1/x^2, g = 1 - 1/(4x^2) at zero the connection constant is
    # exactly I_0(1): solve the 2x2 matching system at the cutoff s = 1
    # in the inverted frame and apply I_0 K_1 + I_1 K_0 = 1/y
    r = analyze("1/x^2", "1 - 1/(4*x^2)", endpoint="zero", x_max=5e-4)
    i0 = small_argument_series(BesselFixture("I", 0.0), 1.0, bound_tol=1e-14)
    assert r.constants["z_infinity"] == pytest.approx(i0, rel=1e-11)
    assert r.constants["z_infinity"] == pytest.approx(1.266065877753067,
                                                      rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "the recessive branch at the zero endpoint carries a small multiple of "
    "the dominant one: the closed tail term of the reduction models u1 past "
    "the grid end as its pure shape through u1(X), an error of first order "
    "in the tail where the certified residual is second order"))
def test_zero_endpoint_recessive_tracks_bessel_profile():
    # f = 1/x^2, g = c - 1/(4x^2) at zero: the recessive solution is
    # proportional to sqrt(x) I_1(sqrt(c) x), so their ratio must not drift
    # between x = 0.3 and x_min by more than the certified tail residual
    c = 1.75
    r = analyze("1/x^2", "1.75 - 1/(4*x^2)", endpoint="zero", interval=(0, 1))
    rec = r.solution("recessive-at-zero")

    def ratio(x):
        i1 = small_argument_series(BesselFixture("I", 1.0), math.sqrt(c) * x)
        return float(rec.value(x)) / (math.sqrt(x) * i1)

    drift = abs(ratio(r.march["x_min"]) / ratio(0.3) - 1.0)
    assert drift <= r.constants["tail_residual_bound"]


def test_zero_endpoint_solutions():
    r = analyze("1/x^2", "1 - 1/(4*x^2)", endpoint="zero", x_max=5e-4)
    assert r.regime is Regime.EXP_SINGULAR
    labels = [s.label for s in r.solutions]
    assert labels == ["dominant-at-zero", "recessive-at-zero"]
    assert r.march["frame"] == "inverted (s = 1/x)"
    assert r.march["x_min"] <= 5.1e-4
    assert wronskian(r, "dominant-at-zero", "recessive-at-zero",
                     1e-3) == pytest.approx(2.0, rel=1e-9)
    # recessive branch has the sqrt(x) I_1(x) profile ~ x^{3/2}/2 with the
    # package normalization u2 -> x^{3/2}
    u2 = r.solution("recessive-at-zero")
    assert u2.value(1e-3) / 1e-3 ** 1.5 == pytest.approx(1.0, abs=1e-5)


# ------------------------------------------------------------- Airy

def _airy(x):
    """(Ai(x), Ai(-x), Bi(-x)) for x > 0 from the ascending Bessel series
    of order +-1/3 at zeta = 2/3 x^(3/2) (Abramowitz & Stegun 10.4.14,
    10.4.15, 10.4.18)."""
    zeta = 2.0 / 3.0 * x ** 1.5

    def series(kind, nu):
        return _series_eval(kind, nu, zeta, 1e-16)[0]

    i_m, i_p = series("+", -1.0 / 3.0), series("+", 1.0 / 3.0)
    j_m, j_p = series("-", -1.0 / 3.0), series("-", 1.0 / 3.0)
    root = math.sqrt(x)
    return (root / 3.0 * (i_m - i_p), root / 3.0 * (j_p + j_m),
            math.sqrt(x / 3.0) * (j_m - j_p))


def test_airy_oracle_values():
    ai, ai_neg, bi_neg = _airy(1.0)
    assert ai == pytest.approx(0.1352924163128814, rel=1e-13)
    assert ai_neg == pytest.approx(0.5355608832923521, rel=1e-13)
    assert bi_neg == pytest.approx(0.1039973894969446, rel=1e-13)


def test_airy_exponential_side_is_ai():
    # u2 ~ x^(-1/4) e^{-Phi}, Phi = 2/3 (x^(3/2) - 1) from the cutoff 1, and
    # Ai ~ x^(-1/4) e^{-2/3 x^(3/2)} / (2 sqrt(pi))
    r = analyze("x", "0")
    assert r.certificate.passed()
    assert r.march["cutoff"] == 1.0
    bound = r.constants["tail_residual_bound"]
    rec = r.solution("recessive")
    scale = 2.0 * math.sqrt(math.pi) * math.exp(2.0 / 3.0)
    # Ai is a difference of two I series of size e^zeta: on this range the
    # cancellation costs under 1e-11
    for x in np.linspace(1.2, 3.5, 6):
        assert rec.value(x) == pytest.approx(scale * _airy(x)[0], rel=bound)


def test_airy_oscillatory_side():
    # cos(Phi) = cos(zeta + pi/4 - theta) with theta = 2/3 + pi/4, and
    # Ai(-x), Bi(-x) ~ x^(-1/4) (sin, cos)(zeta + pi/4) / sqrt(pi)
    r = analyze("-x", "0")
    assert r.certificate.passed()
    assert r.march["cutoff"] == 1.0
    theta = 2.0 / 3.0 + math.pi / 4.0
    c, s = math.cos(theta), math.sin(theta)
    cos_like, sin_like = r.solution("cos-like"), r.solution("sin-like")
    for x in np.linspace(1.2, 3.5, 6):
        _, ai, bi = _airy(x)
        root_pi = math.sqrt(math.pi)
        assert abs(cos_like.value(x) - root_pi * (bi * c + ai * s)) < 1e-7
        assert abs(sin_like.value(x) - root_pi * (ai * c - bi * s)) < 1e-7


def test_airy_quadratic_certifies():
    r = analyze("x^2", "0")
    assert r.certificate.passed()
    assert r.constants["tail_residual_bound"] <= r.tail_tolerance
    for x in (2.0, 4.0):
        assert wronskian(r, "dominant", "recessive", x) == pytest.approx(
            -2.0, rel=1e-6)


@pytest.mark.parametrize("f, g, kwargs", [
    ("1", "3/(4*x^2)", {}),
    ("-1", "-1/(4*x^2)", {}),
    ("x", "0", {}),
    ("-(1+1/x)", "0", {}),
    ("0", "x^-4", {}),
    ("1/x^2", "1.5 - 1/(4*x^2)", {"endpoint": "zero"}),
], ids=["constant-exp", "constant-osc", "exp", "osc", "algebraic",
        "zero-endpoint"])
def test_ledger_counts_every_sample_and_step(monkeypatch, f, g, kwargs):
    # an independent count of every Gauss-Kronrod sample and march step
    # taken inside analyze, from wrappers around the one kernel and the
    # two marches
    cell = quadrature._gk_cell
    samples, steps, ledgers = [0], [0], set()

    def counted_cell(fn, lo, hi):
        samples[0] += quadrature.CELL_SAMPLES * len(lo)
        ledgers.add(id(quadrature._LEDGER.get()))
        return cell(fn, lo, hi)

    monkeypatch.setattr(quadrature, "_gk_cell", counted_cell)
    for name in ("solve_kernel", "solve_algebraic"):
        def counted_march(*args, _solve=getattr(volterra, name), **kw):
            sol = _solve(*args, **kw)
            steps[0] += sol.steps
            return sol
        monkeypatch.setattr(volterra, name, counted_march)
    r = analyze(f, g, **kwargs)
    assert samples[0] > 0 and steps[0] > 0
    assert r.work["quadrature_evaluations"] == samples[0]
    assert r.work["march_steps"] == steps[0]
    # one ledger took every sample, and it is gone once analyze returns
    assert len(ledgers) == 1 and id(None) not in ledgers
    assert quadrature._LEDGER.get() is None


def test_ledger_charges_only_inside_an_analysis():
    with quadrature.Work() as work:
        quadrature.integrate_finite(np.exp, 0.0, 1.0)
        taken = work.quadrature_evaluations
        assert taken > 0
    # outside the block the same call charges nothing
    quadrature.integrate_finite(np.exp, 0.0, 1.0)
    assert work.quadrature_evaluations == taken
    assert quadrature._LEDGER.get() is None
    # a refused analysis leaves no ledger behind
    with pytest.raises(HypothesisFailed):
        analyze("1", "1/x")
    assert quadrature._LEDGER.get() is None


# the burn input: its phase integral's classification run refines without
# settling until the budget is gone
BURN = ("cos(x) - cos(x)/cos(x)", "sqrt(x)^2 - abs(x)^-1")


def test_budget_caps_the_whole_analysis(monkeypatch):
    # the cap is on the analysis's ledger, not on each adaptive run: a
    # budget above every single run but below their sum refuses
    adapt, runs = quadrature._adapt, []

    def measured(*args):
        work = quadrature._LEDGER.get()
        before = work.quadrature_evaluations
        out = adapt(*args)
        runs.append(work.quadrature_evaluations - before)
        return out

    monkeypatch.setattr(quadrature, "_adapt", measured)
    total = analyze("1", "3/(4*x^2)").work["quadrature_evaluations"]
    assert len(runs) > 1 and max(runs) < total
    monkeypatch.setattr(quadrature, "_adapt", adapt)
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", (max(runs) + total) // 2)
    with pytest.raises(quadrature.BudgetExceededError):
        analyze("1", "3/(4*x^2)")
    assert quadrature._LEDGER.get() is None


def test_burned_budget_passes_no_check(monkeypatch):
    # the phase integral of 1.5 x^-3 converges, but settling that takes
    # more than 1380 samples: the check must neither pass nor fail
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 1380)
    split = transform.CoefficientSplit.from_expressions("1.5*x^-3", "0")
    checks = []
    with pytest.raises(quadrature.BudgetExceededError):
        transform.classify_regime(split, "infinity", (1.0, math.inf),
                                  checks=checks)
    assert "phase-integral-diverges" not in [c["name"] for c in checks]


@pytest.mark.parametrize("f, g, kwargs, budget", [
    ("1", "3/(4*x^2)", {}, 1000),
    ("-(1+1/x)", "0", {}, 20000),
    ("1/x^2", "1.5 - 1/(4*x^2)", {"endpoint": "zero"}, 5000),
    BURN + ({}, None),
], ids=["constant-exp", "osc", "zero-endpoint", "burn-default-budget"])
def test_no_sample_past_the_cap(monkeypatch, f, g, kwargs, budget):
    # count the samples the integrand really sees, inside the kernel
    cell, seen, ledgers = quadrature._gk_cell, [0], {}

    def counted_cell(fn, lo, hi):
        def counted(x):
            seen[0] += np.size(x)
            return fn(x)
        work = quadrature._LEDGER.get()
        ledgers[id(work)] = work
        return cell(counted, lo, hi)

    monkeypatch.setattr(quadrature, "_gk_cell", counted_cell)
    if budget is not None:
        monkeypatch.setattr(quadrature, "EVAL_BUDGET", budget)
    with pytest.raises(quadrature.BudgetExceededError):
        analyze(f, g, **kwargs)
    assert 0 < seen[0] <= quadrature.EVAL_BUDGET
    # one ledger, which charged what was sampled and not the refused call
    (work,) = ledgers.values()
    assert work.quadrature_evaluations == seen[0]
    assert quadrature._LEDGER.get() is None


def test_largest_certify_case_leaves_budget_headroom():
    # the heaviest bench case (osc-at-inf) must stay within half the
    # per-analysis budget, so a quadrature regression fails here before
    # the budget starts refusing a case that certifies
    r = analyze("-(1.137+1.126/x)", "0")
    assert r.work["quadrature_evaluations"] <= quadrature.EVAL_BUDGET // 2


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["tol", "tail_tol"])
def test_analyze_rejects_a_bad_tolerance(monkeypatch, name, bad):
    calls = []
    monkeypatch.setattr(quadrature, "_gk_cell",
                        lambda *args: calls.append(args))
    start = time.perf_counter()
    with pytest.raises(ValueError,
                       match="%s must be a positive finite number" % name):
        analyze("1", "3/(4*x^2)", **{name: bad})
    assert time.perf_counter() - start < 0.1
    assert calls == [] and quadrature._LEDGER.get() is None


@pytest.mark.parametrize("kwargs, message", [
    ({"x_max": math.nan}, "x_max must be a positive finite number"),
    ({"x_max": math.inf}, "x_max must be a positive finite number"),
    ({"x_max": -5.0}, "x_max must be a positive finite number"),
    ({"x_max": 0.0}, "x_max must be a positive finite number"),
    ({"x_max": 0.0, "endpoint": "zero"},
     "x_max must be a positive finite number"),
    ({"interval": (5.0, 2.0)}, "interval must satisfy lo < hi"),
    ({"interval": (2.0, 2.0)}, "interval must satisfy lo < hi"),
    ({"interval": (1.0, 0.5), "endpoint": "zero"},
     "interval must satisfy lo < hi"),
])
def test_analyze_rejects_a_bad_range(monkeypatch, kwargs, message):
    calls = []
    monkeypatch.setattr(quadrature, "_gk_cell",
                        lambda *args: calls.append(args))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        analyze("1", "3/(4*x^2)", **kwargs)
    assert time.perf_counter() - start < 0.1
    assert calls == [] and quadrature._LEDGER.get() is None


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
# constants without a finite real value, in the grammar
OUT_OF_DOMAIN = ["1/0", "0^-1", "10^400", "(-8)^0.5", "log(-1)", "sqrt(-1)",
                 "exp(1000)"]


@pytest.mark.parametrize("c", OUT_OF_DOMAIN)
@pytest.mark.parametrize("f, g", [("{c}", "0"), ("x + {c}", "0"),
                                  ("1", "exp(-x) + {c}"),
                                  ("1", "exp(-x)*{c}")])
def test_out_of_domain_constant_is_refused_with_a_typed_error(
        monkeypatch, f, g, c):
    # the refusals the benchmark counts as intended; a warning (numpy's
    # ComplexWarning, say) fails the test under filterwarnings = error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import TYPED_ERRORS
    start = time.perf_counter()
    with pytest.raises(TYPED_ERRORS):
        analyze(f.format(c=c), g.format(c=c))
    assert time.perf_counter() - start < 0.1


# ----------------------------------------------------------- rejection

def test_analyze_rejects_bad_hypotheses():
    with pytest.raises(HypothesisFailed):
        analyze("1", "1/x")
    with pytest.raises(HypothesisFailed):
        analyze("0", "2/x^2", endpoint="zero")
    with pytest.raises(ValueError):
        analyze("1", "0", endpoint="sideways")
    with pytest.raises(expr.ParseError):
        analyze("1", "foo(x)")


def test_divergent_perturbation_with_bump_is_refused():
    # psi ~ 1/x is not integrable; the kinked bump's splits must not hide
    # that from the divergence test (it once burned the whole budget)
    with pytest.raises(HypothesisFailed):
        analyze("1", "1/x + 3*abs(sin(x))*exp(-x/5)")


# ---------------------------------------------------------- evaluation

def test_solution_range_guard():
    r = analyze("1", "3/(4*x^2)")
    rec = r.solution("recessive")
    hi = r.march["x_max"]
    with pytest.raises(RangeError) as exc:
        rec.value(hi * 2.0)
    assert "--xmax" in str(exc.value)
    with pytest.raises(RangeError):
        rec.value(r.march["cutoff"] * 0.5)


def test_sample_rows():
    r = analyze("1", "3/(4*x^2)")
    rows = r.sample_rows(9)
    assert len(rows) == 9
    xs = [row["x"] for row in rows]
    assert xs == sorted(xs)
    env = [row["envelope_bound"] for row in rows]
    assert all(b >= a - 1e-15 for a, b in zip(env[1:], env[:-1]))
    # the ratio tightens toward the endpoint and stays inside the envelope
    assert abs(rows[-1]["ratio"] - 1.0) < abs(rows[0]["ratio"] - 1.0)
    for row in rows:
        assert abs(row["ratio"] - 1.0) <= row["envelope_bound"] * (1 + 1e-6)
        assert set(row) == {"x", "value", "approximant", "ratio",
                            "envelope_bound"}


# One report per regime the evaluate tables cover: constant-exp,
# exp-at-inf, osc-at-inf, algebraic and zero-endpoint.
TABLE_CASES = [
    ("1.1", "0.75/x^2", {}),
    ("1.15*x", "0", {}),
    ("-(1.15+1/x)", "0", {}),
    ("0", "1.5*x^-4", {}),
    ("1/x^2", "1.75 - 1/(4*x^2)", {"endpoint": "zero", "interval": (0.0, 1.0)}),
]


@pytest.fixture(scope="module")
def table_reports():
    return [analyze(f, g, **kw) for f, g, kw in TABLE_CASES]


def _table_limits(report, count=9):
    reg = report._regime
    s_hi = reg.table_end()
    s_lo = reg.cutoff + (s_hi - reg.cutoff) * 0.05
    return np.linspace(s_lo, s_hi, count)


def _rows_one_tail_each(report, count=9):
    """The table built row by row, one tail quadrature per row."""
    reg = report._regime
    ss = _table_limits(report, count)
    rows = []
    for s, val, m in zip(ss.tolist(), reg.value(ss).tolist(),
                         reg.model(ss).tolist()):
        x, k = (1.0 / s, 1.0 / s) if report.endpoint == "zero" else (s, 1.0)
        val, m = k * val, k * m
        tail = quadrature.l1_tail_norm(reg.weight, s, tol=1e-8).value
        rows.append({"x": x, "value": val, "approximant": m,
                     "ratio": val / m if m != 0 else math.inf,
                     "envelope_bound": math.expm1(tail)})
    return rows


def test_table_envelope_matches_per_row_oracles(table_reports):
    for r in table_reports:
        reg = r._regime
        rows = r.sample_rows(9)
        for row, s in zip(rows, _table_limits(r)):
            tail = quadrature.l1_tail_norm(reg.weight, s, tol=1e-10).value
            assert abs(row["envelope_bound"] - math.expm1(tail)) <= 1e-8
        # non-increasing toward the endpoint (rows run toward it in s)
        env = [row["envelope_bound"] for row in rows]
        assert all(b <= a for a, b in zip(env, env[1:]))


def test_table_columns_match_the_row_by_row_table(table_reports):
    for r in table_reports:
        joint, apart = r.sample_rows(9), _rows_one_tail_each(r)
        for row, ref in zip(joint, apart):
            for col in ("x", "value", "approximant", "ratio"):
                assert row[col] == ref[col]
            assert abs(row["envelope_bound"] - ref["envelope_bound"]) <= 1e-8


def test_table_tails_share_one_quadrature(table_reports, monkeypatch):
    for r in table_reports:
        reg = r._regime
        weight, samples = reg.weight, [0]

        def counting(x, weight=weight):
            samples[0] += np.size(x)
            return weight(x)

        monkeypatch.setattr(reg, "weight", counting)
        r.sample_rows(9)
        joint, samples[0] = samples[0], 0
        for s in _table_limits(r):
            quadrature.l1_tail_norm(reg.weight, s, tol=1e-8)
        assert 0 < 3 * joint <= samples[0]


# -------------------------------------------------------- determinism

def test_reports_are_deterministic():
    r1 = analyze("1", "3/(4*x^2)")
    r2 = analyze("1", "3/(4*x^2)")
    assert r1.to_json_dict() == r2.to_json_dict()
    assert r1.work == r2.work
    assert r1.work["march_steps"] > 0
    assert r1.work["quadrature_evaluations"] > 0


def test_json_dict_shape():
    r = analyze("-1", "-1/(4*x^2)")
    d = r.to_json_dict()
    assert d["schema"] == 1
    assert d["regime"] == "constant-oscillatory"
    assert d["input"]["f"] == "-1"
    assert isinstance(d["constants"]["xi1"], dict)
    assert set(d["constants"]["xi1"]) == {"re", "im"}
    for sol in d["solutions"]:
        assert set(sol) == {"label", "asymptotic"}
    assert set(d["work"]) == {"quadrature_evaluations", "march_steps",
                              "map_nodes"}


def test_march_rounds_record_the_tail_search():
    # the predicted tail end certifies in the one round marched
    r = analyze("1", "3/(4*x^2)")
    (x_end, residual, cells), = r.march["rounds"]
    assert x_end == pytest.approx(r.march["x_max"], rel=1e-9)
    assert residual == r.constants["tail_residual_bound"] <= r.tail_tolerance
    assert isinstance(cells, int) and cells > 0
    assert 2 * cells == r.fine_run.steps
    # the rounds and the prediction are part of the deterministic --json
    # document
    again = analyze("1", "3/(4*x^2)")
    text = cli.json_dumps(r.to_json_dict())
    assert text == cli.json_dumps(again.to_json_dict())
    assert '"rounds"' in text and '"predicted_residual"' in text


@pytest.mark.parametrize("f, g, kw", [
    ("1", "3/(4*x^2)", {}),
    ("-1", "-1/(4*x^2)", {}),
    ("x", "0", {}),
    ("0", "exp(-2*x)", {"interval": (0, math.inf)}),
    ("1/x^2", "1.75 - 1/(4*x^2)", {"endpoint": "zero", "interval": (0, 1)}),
    ("1", "0", {}),
])
def test_predicted_residual_is_recorded(f, g, kw):
    r = analyze(f, g, **kw)
    r_hat = r.march["predicted_residual"]
    assert math.isfinite(r_hat) and r_hat >= 0.0
    if len(r.march["rounds"]) == 1:
        assert r_hat <= r.tail_tolerance / 10


def test_rounds_grow_the_tail_when_the_prediction_misses(monkeypatch):
    # a prediction of 0 stops at the first grid point x0 = a + 10, whose
    # residual is far above tail_tol: the growth rounds take over
    monkeypatch.setattr(pipeline._Exponential, "predicted_residual",
                        lambda self, a, xs, L, tol: np.zeros_like(xs))
    r = analyze("1", "3/(4*x^2)")
    rounds = r.march["rounds"]
    assert r.march["predicted_residual"] == 0.0
    assert rounds[0][0] == pytest.approx(r.march["cutoff"] + 10.0)
    assert len(rounds) >= 2 and rounds[0][1] > r.tail_tolerance
    ends = [x_end for x_end, _, _ in rounds]
    assert all(a < b for a, b in zip(ends, ends[1:]))
    assert rounds[-1][1] == r.constants["tail_residual_bound"] \
        <= r.tail_tolerance
    assert 2 * rounds[-1][2] == r.fine_run.steps
    assert r.certificate.passed()
    assert r.verification["tail_consistent"]


def test_march_error_estimate_is_the_fine_runs_second_order_error():
    # the completion of the raw fine run minus the reported (extrapolated)
    # constant: the fine run's error, which falls 4x when the step halves
    r = analyze("1", "3/(4*x^2)")
    half = analyze("1", "3/(4*x^2)", step=r.march["coarse_step"] / 2)
    est, est_half = (x.constants["march_error_estimate"] for x in (r, half))
    assert 0.0 < est_half < est
    assert est / est_half == pytest.approx(4.0, rel=0.05)
    # g == 0: z == 1 on both runs
    assert analyze("1", "0").constants["march_error_estimate"] == 0.0


def test_graded_grid_does_not_step_over_a_late_bump():
    # a bump of |w| at x = 60, as large as the weight at the cutoff: the
    # suffix rule keeps every cell up to its peak at the level-0 step, and
    # the constants agree with a run at a quarter of that step
    f, g = "1", "3/(4*x^2) + 0.5*exp(-(x-60)^2)"
    r = analyze(f, g)
    fine = r.fine_run
    y_bump = 60.0 - r.march["cutoff"]
    assert np.all(fine.cell_h[fine.grid[:-1] < y_bump] == fine.h)
    assert np.max(fine.cell_h) >= 8 * fine.h
    small = analyze(f, g, step=r.march["coarse_step"] / 4)
    assert abs(small.constants["z_infinity"] - r.constants["z_infinity"]) \
        <= r.constants["tail_residual_bound"]


def test_graded_pair_regrades_on_a_bump_the_pilot_missed():
    # w = e^-y plus a spike of width 0.03 midway between two pilot nodes
    # (0.16 apart), which the pilot sees at 4e-4: the first grading puts
    # level-1 cells there, the fine run's samples see the spike, and the
    # re-grade takes every cell up to it back to level 0
    h_c, n_c = 0.01, 1000

    def w(y):
        return np.exp(-y) + 0.5 * np.exp(-((y - 5.04) / 0.03) ** 2)

    calls = []

    def sample(idx):
        calls.append(len(idx))
        y = 0.5 * h_c * idx
        return w(y), w(y), y

    def solve(vals, steps, nodes):
        return volterra.solve_kernel(vals, steps, 1.0, grid=nodes)

    coarse, fine = pipeline._graded_pair(
        lambda idx: w(0.5 * h_c * idx), sample, solve, h_c, n_c)
    assert len(calls) == 2
    assert coarse.grid[-1] == pytest.approx(h_c * n_c)
    assert np.all(coarse.cell_h[coarse.grid[:-1] < 5.04] == h_c)
    # e^-10 is 2.2e4 times below the peak: level 3 (24^3 = 13824)
    assert np.max(coarse.cell_h) == 8 * h_c
    # the fine run bisects every coarse cell
    assert np.array_equal(fine.grid[::2], coarse.grid)
    assert np.array_equal(fine.cell_h, np.repeat(coarse.cell_h / 2, 2))


# ------------------------------------------------------------ controls

def test_step_override():
    # the requested step is snapped so a whole number of cells covers the
    # phase span, so expect it only to ~span/n accuracy
    r = analyze("1", "3/(4*x^2)", step=0.01)
    assert r.march["coarse_step"] == pytest.approx(0.01, rel=1e-3)


# Run under a 1.5 GB address-space limit: a march of 1e9 level-0 steps
# would ask for about 1 GB in its first array.
_OVERSIZED_MARCHES = """
import resource, time
limit = 1500 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from lgasym import cli, pipeline
for args, kw in (("1", "1/x^1.5"), {}), (("1", "3/(4*x^2)"), {"step": 1e-9}):
    t0 = time.perf_counter()
    try:
        pipeline.analyze(*args, **kw)
        print("not refused")
    except pipeline.AnalysisError as exc:
        print("%.3f %s" % (time.perf_counter() - t0, exc))
print("exit", cli.main(["analyze", "--f", "1", "--g", "1/x^1.5"]))
"""


def test_oversized_march_is_refused_before_it_allocates():
    pytest.importorskip("resource")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    p = subprocess.run([sys.executable, "-c", _OVERSIZED_MARCHES], env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    *refusals, exit_line = p.stdout.splitlines()
    assert len(refusals) == 2, p.stdout
    for line in refusals:
        seconds, message = line.split(" ", 1)
        assert float(seconds) < 1.0, line
        assert "more than the cap of %d" % pipeline._MAX_LEVEL0_STEPS \
            in message
    assert exit_line == "exit 1"
    assert p.stderr.startswith("error: ")


def test_march_guard_runs_before_the_pilot():
    def pilot(idx):
        raise AssertionError("sampled %d points" % len(idx))

    with pytest.raises(AnalysisError, match="cap"):
        pipeline._graded_pair(pilot, pilot, None, 0.01,
                              pipeline._MAX_LEVEL0_STEPS + 1)


@pytest.mark.parametrize("step, error", [
    (0.0, ValueError), (-0.01, ValueError), (math.inf, ValueError),
    (math.nan, ValueError),
    (1e-320, AnalysisError),    # positive, but span / step overflows
])
def test_bad_step_is_refused_with_a_typed_error(step, error):
    with pytest.raises(error, match="step") as got:
        analyze("1", "3/(4*x^2)", step=step)
    assert type(got.value) is error


def test_tail_tolerance_tradeoff():
    tight = analyze("1", "3/(4*x^2)")
    loose = analyze("1", "3/(4*x^2)", tail_tol=1e-4)
    assert loose.march["x_max"] < tight.march["x_max"]
    assert loose.constants["tail_residual_bound"] <= 1e-4
    # both certify the same limit within their stated residuals
    assert abs(loose.constants["z_infinity"] - tight.constants["z_infinity"]) \
        <= loose.constants["tail_residual_bound"] \
        + tight.constants["tail_residual_bound"]


def test_fine_run_is_what_the_certificate_rests_on():
    r = analyze("-1", "-1/(4*x^2)")
    env = r.fine_run.envelope_report()
    check = {c["name"]: c for c in r.certificate.checks}
    assert check["march-envelope"]["value"] == env["z_env_max_ratio"]
    assert check["march-correction-mass"]["value"] == env["l1_q_end"]
    assert check["march-correction-mass"]["threshold"] == env["l1_q_bound_end"]
    # the zeta = +i run is kept; its -i partner is its conjugate
    assert r.fine_run.mu == 2j
    assert r.fine_run.grid[-1] == pytest.approx(r.march["phase_span"])


# ------------------------------------------------ recessive branch oracle

# one report per regime with a reduction-of-order partner, and the zero
# endpoint (whose recessive branch is built in s = 1/x)
RECESSIVE_CASES = [
    ("1.037", "0.729/x^2", {}),
    ("1.049*x", "0", {}),
    ("0", "1.419*x^-4", {}),
    ("1/x^2", "1.889 - 1/(4*x^2)", {"endpoint": "zero", "interval": (0, 1)}),
]


def _reduction_oracle(r, x):
    """u2 = c u1(x) [int_x^X u1^{-2} + u1(X)^{-2} tail] evaluated directly
    from the dominant callable u1 by adaptive quadrature, with the closed
    tail past the grid end X: u1(X)/u1'(X) in the algebraic regime and
    1/(2 |f(X)|^{1/2}) otherwise (c = 1 and 2).  Returns u2, u2' and the
    size of the two terms u2' = (u1'/u1) u2 - c/u1 is the difference of."""
    reg = r._regime       # at the zero endpoint: the pair in s = 1/x
    u1, u1d = reg.pair[0].value, reg.pair[0].derivative
    X = reg.end
    if r.regime.algebraic:
        c, tail = 1.0, float(u1(X)) / float(u1d(X))
    else:
        c, tail = 2.0, 1.0 / (2.0 * float(reg.psi.sqrt_f(X)))
    ux = float(u1(x))

    def ratio(t):
        return (ux / u1(t)) ** 2

    # the integral can be large (~x over a power-law tail), so a loose
    # pass sets the scale of the absolute tolerance
    probe = quadrature.integrate_finite(ratio, x, X, tol=1.0).value
    seg = quadrature.integrate_finite(ratio, x, X,
                                      tol=1e-14 * (1.0 + abs(probe))).value
    u2 = c * (seg + (ux / float(u1(X))) ** 2 * tail) / ux
    grow = float(u1d(x)) / ux * u2
    return u2, grow - c / ux, abs(grow) + abs(c / ux)


@pytest.mark.parametrize("f_text,g_text,kw", RECESSIVE_CASES)
def test_recessive_branch_matches_reduction_oracle(f_text, g_text, kw):
    r = analyze(f_text, g_text, **kw)
    reg = r._regime
    rec = reg.pair[1]
    rng = np.random.default_rng(7)
    for s in reg.cutoff + (reg.table_end() - reg.cutoff) * rng.uniform(
            0.0, 1.0, 4):
        want, want_d, terms = _reduction_oracle(r, float(s))
        assert rec.value(s) == pytest.approx(want, rel=1e-10)
        # u2' is a difference of two terms, which cancel to ~1/x^2 in the
        # algebraic regime: compare on the scale of the terms
        assert abs(rec.derivative(s) - want_d) <= 1e-10 * terms
        if r.endpoint == "zero":     # u(x) = x v(1/x)
            x = 1.0 / s
            pulled = r.solution("recessive-at-zero")
            assert pulled.value(x) == pytest.approx(x * want, rel=1e-10)
            assert abs(pulled.derivative(x) - (want - want_d / x)) \
                <= 1e-10 * (abs(want) + terms / x)


# ---------------------------------------------------- array contract

ARRAY_CASES = [
    ("1", "3/(4*x^2)", {}),
    ("-(1.2+1/x)", "0", {}),
    ("0", "1.5*x^-4", {}),
    ("1/x^2", "1.75 - 1/(4*x^2)", {"endpoint": "zero", "interval": (0, 1)}),
]


@pytest.mark.parametrize("f_text,g_text,kw", ARRAY_CASES)
def test_solutions_take_arrays(f_text, g_text, kw):
    r = analyze(f_text, g_text, **kw)
    m = r.march
    if r.endpoint == "zero":
        lo, hi = m["x_min"], m["cutoff_x"]
    else:
        lo, hi = m["cutoff"], min(m["x_max"], m["cutoff"] + 40.0)
    xs = lo + (hi - lo) * np.random.default_rng(3).uniform(0.0, 1.0, (3, 4))
    for sol in r.solutions:
        for fn in (sol.value, sol.derivative):
            assert np.shape(fn(float(xs[0, 0]))) == ()
            assert fn(xs[0]).shape == (4,)
            grid = fn(xs)
            assert grid.shape == (3, 4)
            # oscillatory values cross zero: measure against the array's
            # scale as well
            scale = float(np.max(np.abs(grid)))
            for x, v in zip(xs.ravel(), grid.ravel()):
                assert v == pytest.approx(fn(float(x)), rel=1e-15,
                                          abs=1e-15 * scale)
            # one element past either end of the resolved range
            for bad in (0.5 * lo, 2.0 * (hi if r.endpoint == "zero"
                                         else m["x_max"])):
                outside = xs[0].copy()
                outside[2] = bad
                with pytest.raises(RangeError) as exc:
                    fn(outside)
                assert "--xmax" in str(exc.value)
