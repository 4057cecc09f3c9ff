import math
import types

import numpy as np
import pytest

from lgasym.oracle import (
    OracleError,
    closed_form_half,
    integrate_ivp,
    resolvent_value,
)
from reference_oracles import (
    FIXTURES,
    AsymptoticFit,
    BesselFixture,
    WindowError,
    bessel_y0,
    fit_asymptotic_constants,
    fit_oscillatory,
    fit_ratio,
    series_leading_coefficient,
    small_argument_series,
)


# ------------------------------------------------------------------ ivp

def test_ivp_exponential_growth():
    traj = integrate_ivp(lambda x: 1.0, 0.0, 1.0, 1.0, 3.0, tol=1e-12)
    u, du = traj.at(3.0)
    assert u == pytest.approx(math.exp(3.0), rel=1e-10)
    assert du == pytest.approx(math.exp(3.0), rel=1e-10)


def test_ivp_backward_is_stable_for_decay():
    # transport the decaying branch backward from x=12; it grows in that
    # direction, so it stays dominant and relative accuracy holds (forward
    # marching of the same branch would be swamped by e^{+x} contamination).
    # Seed at unit size -- the equation is linear -- to keep the error
    # controller's absolute floor out of the picture.
    traj = integrate_ivp(lambda x: 1.0, 12.0, 1.0, -1.0, 1.0, tol=1e-12,
                         samples=[1.0, 2.0, 5.0])
    for x in (1.0, 2.0, 5.0):
        u, du = traj.at(x)
        assert u == pytest.approx(math.exp(12.0 - x), rel=1e-9)
        assert du == pytest.approx(-math.exp(12.0 - x), rel=1e-9)


def test_ivp_oscillation():
    traj = integrate_ivp(lambda x: -4.0, 0.0, 1.0, 0.0, 10.0, tol=1e-12)
    u, du = traj.at(10.0)
    assert u == pytest.approx(math.cos(20.0), abs=1e-9)
    assert du == pytest.approx(-2.0 * math.sin(20.0), abs=1e-9)


def test_ivp_tolerance_scaling():
    def run(tol):
        traj = integrate_ivp(lambda x: 1.0, 0.0, 1.0, 1.0, 5.0, tol=tol)
        return abs(traj.at(5.0)[0] - math.exp(5.0))

    coarse = run(1e-6)
    fine = run(1e-7)
    assert fine < coarse
    assert coarse / fine >= 4.0


def test_ivp_sample_bookkeeping():
    traj = integrate_ivp(lambda x: 0.0, 0.0, 1.0, 2.0, 4.0,
                         samples=[1.0, 2.5, 4.0])
    # u'' = 0 from (1, 2): u = 1 + 2x, landed on exactly
    assert traj.at(2.5)[0] == pytest.approx(6.0, rel=1e-13)
    with pytest.raises(KeyError):
        traj.at(3.0)
    with pytest.raises(ValueError):
        integrate_ivp(lambda x: 0.0, 0.0, 1.0, 0.0, 2.0, samples=[5.0])
    assert traj.steps > 0
    assert traj.evaluations >= 6 * traj.steps


# ------------------------------------------------------- closed forms

def test_half_order_closed_forms():
    for r in (0.3, 1.0, 2.0, 7.5):
        assert closed_form_half("K", r) == pytest.approx(
            math.sqrt(math.pi / (2.0 * r)) * math.exp(-r), rel=1e-14)
        assert closed_form_half("I", r) == pytest.approx(
            math.sqrt(2.0 / (math.pi * r)) * math.sinh(r), rel=1e-14)


def test_half_order_log_scale():
    r = 3.0
    assert math.exp(closed_form_half("I", r, log_scale=True)) == pytest.approx(
        closed_form_half("I", r), rel=1e-13)
    # far beyond double overflow for the plain value
    lg = closed_form_half("I", 800.0, log_scale=True)
    assert math.isfinite(lg)
    assert lg == pytest.approx(800.0 + 0.5 * math.log(2.0 / (math.pi * 800.0))
                               - math.log(2.0), rel=1e-12)


def test_half_order_argument_errors():
    with pytest.raises(ValueError):
        closed_form_half("K", 0.0)
    with pytest.raises(ValueError):
        closed_form_half("Q", 1.0)


# ------------------------------------------------------------- series

def test_series_matches_half_order_closed_form():
    fx = BesselFixture("I", 0.5)
    for r in (0.25, 1.0, 2.0):
        assert small_argument_series(fx, r) == pytest.approx(
            closed_form_half("I", r), rel=1e-11)


def test_series_known_values():
    # standard table values
    assert small_argument_series(BesselFixture("J", 0.0), 1.0) == pytest.approx(
        0.7651976865579666, rel=1e-12)
    assert small_argument_series(BesselFixture("J", 0.0), 2.0) == pytest.approx(
        0.2238907791412357, rel=1e-12)
    assert small_argument_series(BesselFixture("I", 1.0), 1.0) == pytest.approx(
        0.5651591039924851, rel=1e-12)
    assert small_argument_series(BesselFixture("I", 1.0), 2.0) == pytest.approx(
        1.5906368546373291, rel=1e-12)


def test_series_leading_coefficient():
    assert series_leading_coefficient(1.0) == pytest.approx(0.5, rel=1e-15)
    assert series_leading_coefficient(0.0) == pytest.approx(1.0, rel=1e-15)
    # small-r limit: I_1(r) ~ r/2
    r = 1e-6
    assert small_argument_series(BesselFixture("I", 1.0), r) == pytest.approx(
        0.5 * r, rel=1e-10)


def test_series_kind_guard():
    with pytest.raises(ValueError):
        small_argument_series(BesselFixture("K", 0.5), 1.0)


def test_y0_values_and_derivative():
    v, d = bessel_y0(1.0)
    assert v == pytest.approx(0.08825696421567696, rel=1e-11)
    assert d == pytest.approx(0.7812128213002887, rel=1e-11)  # -Y_1(1)
    v2, _ = bessel_y0(2.0)
    assert v2 == pytest.approx(0.5103756726497451, rel=1e-11)


def test_fixture_normal_form_consistency():
    # w = sqrt(r) C_nu(r) must solve w'' = (f+g) w for the fixture's split;
    # check the derivative bookkeeping with a central difference
    fx = BesselFixture("I", 1.0)
    r = 1.7
    h = 1e-5
    w, dw = fx.normal_form(r)
    wp = fx.normal_form(r + h)[0]
    wm = fx.normal_form(r - h)[0]
    assert dw == pytest.approx((wp - wm) / (2.0 * h), rel=1e-8)


# ---------------------------------------------------------- resolvent

def test_resolvent_closed_forms():
    # n=3: e^{-sqrt(lam) r} / (4 pi r)
    for lam, r in ((0.0, 1.0), (0.0, 2.5), (2.0, 1.5), (2.0, 3.0)):
        want = math.exp(-math.sqrt(lam) * r) / (4.0 * math.pi * r)
        assert resolvent_value(3, lam, r) == pytest.approx(want, rel=1e-9)


def test_resolvent_one_dimensional():
    # n=1, lam=1: fundamental solution e^{-|x|}/2
    assert resolvent_value(1, 1.0, 2.0) == pytest.approx(
        0.5 * math.exp(-2.0), rel=1e-9)


def test_resolvent_argument_guard():
    with pytest.raises(ValueError):
        resolvent_value(3, 1.0, 0.0)


def test_fixture_table_is_wired():
    assert "modified_bessel:nu=1" in FIXTURES
    assert FIXTURES["modified_bessel:nu=1"]["endpoint"] == "infinity"
    half = FIXTURES["modified_bessel:nu=half"]
    assert half["fixture_K"].value(2.0) == pytest.approx(
        closed_form_half("K", 2.0), rel=1e-13)
    assert FIXTURES["modified_bessel:nu=1"]["fixture_I"].value(1.0) == \
        pytest.approx(0.5651591039924851, rel=1e-11)


# --------------------------------------------------------------- fits

def test_fit_ratio_exact():
    xs = np.linspace(5.0, 8.0, 40)
    model = np.exp(-xs)
    c, drift = fit_ratio(xs, 3.7 * model, model)
    assert c == pytest.approx(3.7, rel=1e-13)
    assert drift < 1e-12


def test_fit_ratio_drift_reports_deviation():
    xs = np.linspace(1.0, 2.0, 50)
    model = np.ones_like(xs)
    us = 1.0 + 0.01 * np.sin(20.0 * xs)
    _, drift = fit_ratio(xs, us, model)
    assert 0.005 < drift < 0.02


def test_fit_oscillatory_recovers_phase():
    xs = np.linspace(0.0, 12.0, 300)
    phases = 2.0 * xs
    amps = np.ones_like(xs)
    us = 1.3 * np.cos(phases + 0.4)
    c, theta, residual = fit_oscillatory(xs, us, phases, amps)
    assert abs(c) == pytest.approx(1.3, rel=1e-10)
    # theta normalized into [0, pi), sign folded into c
    assert theta == pytest.approx(0.4, abs=1e-10)
    assert c > 0
    assert residual < 1e-10


def test_fit_oscillatory_half_turn_normalization():
    xs = np.linspace(0.0, 12.0, 300)
    phases = xs
    amps = np.ones_like(xs)
    us = 0.8 * np.cos(phases + 2.0)  # theta = 2.0 - pi after normalization? no:
    c, theta, _ = fit_oscillatory(xs, us, phases, amps)
    assert 0.0 <= theta < math.pi
    # model must reproduce the data regardless of representation
    rebuilt = c * np.cos(phases + theta)
    assert np.max(np.abs(rebuilt - us)) < 1e-9


class _Shape:
    def __init__(self, fn):
        self._fn = fn

    def value(self, x):
        return self._fn(x)


def test_fit_asymptotic_constants_exponential():
    # decaying data 2 e^{12} e^{-x}, marched backward at unit seed scale so
    # the controller's absolute floor stays irrelevant
    traj = integrate_ivp(lambda x: 1.0, 12.0, 2.0, -2.0, 2.0,
                         tol=1e-12, samples=list(np.linspace(3.0, 6.0, 12)))
    aps = (_Shape(math.exp), _Shape(lambda x: math.exp(-x)))
    fit = fit_asymptotic_constants(traj, aps, (3.0, 6.0), "exponential")
    assert isinstance(fit, AsymptoticFit)
    assert fit.constants["branch"] == "recessive"
    assert fit.constants["c_recessive"] == pytest.approx(
        2.0 * math.exp(12.0), rel=1e-9)
    assert fit.residual < 1e-8


def test_fit_asymptotic_constants_window_errors():
    traj = types.SimpleNamespace(
        xs=np.linspace(0.0, 2.0, 60),
        us=1.0 / (1.0 + np.linspace(0.0, 2.0, 60)))
    aps = (_Shape(math.exp), _Shape(lambda x: math.exp(-x)))
    with pytest.raises(WindowError):
        fit_asymptotic_constants(traj, aps, (100.0, 101.0), "exponential")
    with pytest.raises(WindowError):
        # algebraic data against exponential shapes never settles
        fit_asymptotic_constants(traj, aps, (0.0, 2.0), "exponential")


def test_window_error_is_oracle_error():
    assert issubclass(WindowError, OracleError)
