"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured and expected
values, then asserts.  Tolerances are part of the contract and are not
to be loosened to force a pass.
"""

import math
import time

import numpy as np
import pytest

from lgasym import expr
from lgasym.oracle import closed_form_half, integrate_ivp, resolvent_value
from lgasym.pipeline import analyze
from lgasym.transform import (
    CoefficientSplit,
    HypothesisFailed,
    compute_psi,
    invert_split,
)
from lgasym.volterra import solve_kernel
from reference_oracles import (
    BesselFixture,
    bessel_y0,
    fit_oscillatory,
    fit_ratio,
    small_argument_series,
)


def _criterion(name, ok, detail):
    print("%s %s — %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def test_c01_half_order_closed_forms():
    t0 = time.perf_counter()
    r = analyze("1", "0", x_max=40.0)
    x = 30.0
    rec = r.solution("recessive").value(x)
    dom = r.solution("dominant").value(x)
    c_rec = math.sqrt(x) * closed_form_half("K", x) / rec
    c_dom = math.sqrt(x) * closed_form_half("I", x) / dom
    want_rec = math.sqrt(math.pi / 2.0)
    want_dom = 1.0 / math.sqrt(2.0 * math.pi)
    err = max(abs(c_rec / want_rec - 1.0), abs(c_dom / want_dom - 1.0))
    elapsed = time.perf_counter() - t0
    _criterion(
        "C1", err < 1e-6 and elapsed < 5.0,
        "recessive %.9f vs sqrt(pi/2)=%.9f, dominant %.9f vs "
        "1/sqrt(2 pi)=%.9f (max rel err %.2e, %.2f s)"
        % (c_rec, want_rec, c_dom, want_dom, err, elapsed))


def test_c02_small_radius_bessel_limit():
    r = analyze("1/x^2", "1 - 1/(4*x^2)", endpoint="zero", x_max=5e-5)
    u2 = r.solution("recessive-at-zero")
    fx = BesselFixture("I", 1.0)

    def w_ref(s):
        return math.sqrt(s) * small_argument_series(fx, s, bound_tol=1e-14)

    anchor = 0.5
    c = w_ref(anchor) / u2.value(anchor)

    def scaled(s):
        # cylinder function u = w / sqrt(s), then the I_1 limit u/s -> 1/2
        return c * u2.value(s) / (math.sqrt(s) * s)

    m3 = scaled(1e-3)
    m4 = scaled(1e-4)
    err = abs(m3 - 0.5) / 0.5
    drift = abs(m3 - m4) / abs(m3)
    _criterion(
        "C2", err < 1e-5 and drift < 1e-3,
        "u(r)/r at r=1e-3: %.8f vs 1/2 (rel err %.2e); Cauchy drift vs "
        "r=1e-4: %.2e" % (m3, err, drift))


def test_c03_oscillatory_amplitude_and_phase():
    t0 = time.perf_counter()
    xs = np.linspace(80.0, 160.0, 641)

    def transport(kind):
        fx = BesselFixture(kind, 0.0)
        w0, dw0 = fx.normal_form(0.5)
        return integrate_ivp(lambda x: -1.0 - 0.25 / (x * x), 0.5, w0, dw0,
                             160.0, tol=1e-10, samples=list(xs))

    tj = transport("J")
    ty = transport("Y")

    def window_fit(traj, lo, hi):
        mask = (traj.xs >= lo - 1e-9) & (traj.xs <= hi + 1e-9)
        x = traj.xs[mask]
        return fit_oscillatory(x, traj.us[mask], x, np.ones_like(x))

    cj1, thj1, _ = window_fit(tj, 80.0, 120.0)
    cj2, _, _ = window_fit(tj, 120.0, 160.0)
    _, thy1, _ = window_fit(ty, 80.0, 120.0)
    amp_rel = abs(abs(cj1) - abs(cj2)) / abs(cj1)
    dth = abs(thj1 - thy1) % math.pi
    phase_gap = min(dth, math.pi - dth)
    elapsed = time.perf_counter() - t0
    _criterion(
        "C3",
        amp_rel < 1e-4 and phase_gap > 0.1 and elapsed < 10.0,
        "sqrt(r) J0 amplitude %.7f / %.7f on [80,120]/[120,160] "
        "(rel %.2e); J/Y phase gap %.4f rad; %.2f s"
        % (abs(cj1), abs(cj2), amp_rel, phase_gap, elapsed))
    # the fitted amplitude is the known sqrt(2/pi) to a softer tolerance
    assert abs(cj1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-3)


def test_c04_fundamental_solution_constants():
    rs = np.linspace(1.0, 3.0, 9)
    v0 = np.array([resolvent_value(3, 0.0, float(r)) for r in rs])
    c0, drift0 = fit_ratio(rs, v0, 1.0 / rs)
    want = 1.0 / (4.0 * math.pi)
    err0 = abs(c0 / want - 1.0)
    v2 = np.array([resolvent_value(3, 2.0, float(r)) for r in rs])
    scaled2 = v2 * rs * np.exp(math.sqrt(2.0) * rs)
    _, drift2 = fit_ratio(rs, scaled2, np.ones_like(rs))
    # the same constant through the pipeline branch for f = 2
    rp = analyze("2", "0")
    rec = rp.solution("recessive")
    ratio = np.array([4.0 * math.pi * float(r) * v
                      for r, v in zip(rs, v2)]) \
        / np.array([rec.value(float(r)) for r in rs])
    _, drift_p = fit_ratio(rs, ratio, np.ones_like(rs))
    _criterion(
        "C4",
        err0 < 1e-6 and drift2 < 1e-4 and drift_p < 1e-4,
        "r v -> %.10f vs 1/(4 pi)=%.10f (rel %.2e); lambda=2 window "
        "drift %.2e; pipeline drift %.2e"
        % (c0, want, err0, drift2, drift_p))


GRONWALL_FIXTURES = [
    ("1", "0", (1.0, math.inf), 1e-6),
    ("1", "exp(-x)", (0.0, math.inf), 1e-6),
    ("1", "exp(-x)", (1.0, math.inf), 1e-6),
    ("1", "3/(4*x^2)", (1.0, math.inf), 1e-6),
    ("1", "3/(4*x^2)", (2.0, math.inf), 1e-6),
    ("1", "15/(4*x^2)", (8.0, math.inf), 1e-4),
    ("1", "sin(x)*exp(-x)", (0.0, math.inf), 1e-6),
    ("1", "1/(1+x^2)^2", (1.0, math.inf), 1e-6),
    ("2", "exp(-x)", (0.0, math.inf), 1e-6),
    ("-1", "-1/(4*x^2)", (1.0, math.inf), 1e-6),
    ("-1", "2/x^2", (2.0, math.inf), 1e-5),
    ("0", "x^-4", (1.0, math.inf), 1e-6),
    ("0", "-x^-4", (1.0, math.inf), 1e-6),
    ("0", "exp(-2*x)", (0.0, math.inf), 1e-6),
]


def _envelope_violations(sol):
    bad = 0
    env = np.exp(sol.envelope_log)
    slack = 1e-6 + sol.h * sol.h * sol.envelope_log[-1]
    # pointwise bound |z| <= exp(T), and the L1 bound int|wz| <= exp(T)-1,
    # both allowed only the scheme's own quadratic slack
    bad += int(np.sum(np.abs(sol.z) > env * (1.0 + slack)))
    bad += int(np.sum(sol.l1_q > (env - 1.0) + slack * env))
    return bad


def test_c05_envelope_property_suite():
    assert len(GRONWALL_FIXTURES) >= 12
    violations = 0
    checked = 0
    for f_text, g_text, interval, tail_tol in GRONWALL_FIXTURES:
        r = analyze(f_text, g_text, interval=interval, tail_tol=tail_tol)
        # oscillatory fixtures: the zeta = -i run is the conjugate of this
        # one, so its envelope arrays are the same
        violations += _envelope_violations(r.march_run)
        checked += len(r.march_run.z)
        radius = r.certificate.radius
        assert radius < 1.0, (f_text, g_text)
        if "xi1" in r.constants:
            dev = max(abs(r.constants["xi1"] - 1.0), abs(r.constants["xi2"]))
        else:
            dev = abs(r.constants["z_infinity"] - 1.0)
        if dev > radius + 1e-12:
            violations += 1
    _criterion(
        "C5", violations == 0,
        "%d fixtures, %d grid points checked, %d violations"
        % (len(GRONWALL_FIXTURES), checked, violations))


def test_c06_march_convergence_order():
    Y = 6.0

    def run(h):
        # the samples at the nodes and midpoint of every cell of step h
        t = 0.5 * h * np.arange(2 * int(round(Y / h)) + 1)
        return solve_kernel(np.exp(-t), h, 1.0).z[-1]

    ref = run(0.0025)
    errs = [abs(run(h) - ref) for h in (0.08, 0.04, 0.02)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    _criterion(
        "C6", 14.0 <= r1 <= 18.0 and 14.0 <= r2 <= 18.0,
        "step-halving error ratios %.3f, %.3f (band [14, 18])" % (r1, r2))


def test_c07_wronskian_normalization():
    r = analyze("1", "3/(4*x^2)")
    dom, rec = r.solution("dominant"), r.solution("recessive")
    lo = r.march["cutoff"] * 1.01
    xs = np.geomspace(lo, 290.0, 25)
    w = np.array([dom.value(x) * rec.derivative(x)
                  - dom.derivative(x) * rec.value(x) for x in xs])
    drift = float(np.max(np.abs(w + 2.0))) / 2.0
    # independent transport: reseed the recessive branch at x=30 and carry
    # it backward with the adaptive RK oracle (scaled to unit size)
    x0, scale = 30.0, math.exp(30.0)
    traj = integrate_ivp(lambda x: 1.0 + 0.75 / (x * x), x0,
                         rec.value(x0) * scale, rec.derivative(x0) * scale,
                         2.0, tol=1e-12, samples=[2.0, 5.0, 10.0, 20.0])
    trans = max(abs(traj.at(x)[0] / scale / rec.value(x) - 1.0)
                for x in (2.0, 5.0, 10.0, 20.0))
    _criterion(
        "C7", drift <= 1e-8 and trans <= 1e-8,
        "W(u1,u2) = -2 with max relative drift %.2e over [%.2f, 290]; "
        "backward-transport mismatch %.2e" % (drift, lo, trans))


def test_c08_rejection_with_growth_confirmation():
    raised = False
    try:
        analyze("0", "2/x^2", interval=(1.0, math.inf))
    except HypothesisFailed:
        raised = True
    # oracle side: solutions of u'' = (2/x^2) u are x^2 and 1/x, so u' -> 1
    # normalization cannot exist; measure the growth exponent directly
    traj = integrate_ivp(lambda x: 2.0 / (x * x), 1.0, 1.0, 1.0, 160.0,
                         tol=1e-10, samples=[80.0, 160.0])
    p = math.log(traj.at(160.0)[0] / traj.at(80.0)[0]) / math.log(2.0)
    _criterion(
        "C8", raised and abs(p - 2.0) < 0.05 and traj.at(160.0)[1] > 10.0,
        "hypothesis rejected: %s; measured growth exponent %.4f (x^2), "
        "u'(160) = %.3g (never -> 1)" % (raised, p, traj.at(160.0)[1]))


def test_c09_perturbation_inversion_identity():
    split = CoefficientSplit.from_expressions("1/x^2", "1 - 1/(4*x^2)")
    psi = compute_psi(split, 1)
    psi_t = compute_psi(invert_split(split), 1)
    ss = np.geomspace(0.1, 50.0, 20)
    lhs = psi_t.psi(ss)
    rhs = np.array([s ** -2.0 * float(psi.psi(1.0 / s)) for s in ss])
    rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    _criterion(
        "C9", rel < 1e-8,
        "psi~(s) vs s^-2 psi(1/s) on 20 log-spaced points in [0.1, 50]: "
        "max rel %.2e" % rel)


def test_c10_log_regime_constant():
    # K_0-type problem: u(r) = w(-log r) with w'' = e^{-2s} w; the
    # dominant branch grows like s = |log r|
    r = analyze("0", "exp(-2*x)", x_max=16.0)
    dom = r.solution("dominant")

    def scaled(radius):
        s = -math.log(radius)
        return dom.value(s) / s

    v4 = scaled(1e-4)
    v6 = scaled(1e-6)
    drift = abs(v4 - v6) / abs(v4)
    _criterion(
        "C10", abs(v4) > 0.5 and drift < 2e-2,
        "|log r|^-1 u at r=1e-4: %.6f, at r=1e-6: %.6f (drift %.2e, "
        "limit nonzero)" % (v4, v6, drift))
