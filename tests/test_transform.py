import math

import numpy as np
import pytest

from lgasym import expr
from lgasym.transform import (
    AmbiguousSignError,
    CoefficientSplit,
    HypothesisFailed,
    PhaseMap,
    Regime,
    classify_regime,
    compute_psi,
    invert_split,
    probe_sign,
)


def split_of(f_text, g_text="0"):
    return CoefficientSplit.from_expressions(f_text, g_text)


# ----------------------------------------------------------------- psi

def test_psi_exact_identity():
    # f = 1/x^2, g = 1 - 1/(4x^2): the curvature term cancels the g tail
    # and psi(x) collapses to x
    psi = compute_psi(split_of("1/x^2", "1 - 1/(4*x^2)"), 1)
    xs = np.geomspace(0.05, 30.0, 25)
    assert np.max(np.abs(psi.psi(xs) / xs - 1.0)) < 1e-12


def test_psi_inverted_identity():
    # pulled back through s = 1/x the same split must give psi(s) = s^-3
    inv = invert_split(split_of("1/x^2", "1 - 1/(4*x^2)"))
    psi = compute_psi(inv, 1)
    ss = np.geomspace(0.1, 50.0, 20)
    assert np.max(np.abs(psi.psi(ss) * ss ** 3 - 1.0)) < 1e-11


def test_psi_constant_leading_part():
    # constant f: curvature term differentiates away, psi = g |f|^(-1/2)
    psi = compute_psi(split_of("4", "exp(-x)"), 1)
    xs = np.linspace(0.5, 10.0, 17)
    assert psi.psi(xs) == pytest.approx(0.5 * np.exp(-xs), rel=1e-14)
    neg = compute_psi(split_of("-1", "1/x^2"), -1)
    assert neg.psi(2.0) == pytest.approx(0.25, rel=1e-14)


def test_psi_needs_a_sign():
    with pytest.raises(ValueError):
        compute_psi(split_of("0", "1"), 0)


def test_psi_pieces_are_consistent():
    psi = compute_psi(split_of("x^4", "0"), 1)
    assert psi.amplitude(3.0) == pytest.approx(3.0 ** -1.0, rel=1e-14)
    assert psi.sqrt_f(3.0) == pytest.approx(9.0, rel=1e-14)
    assert psi.inv_sqrt_f(3.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


# ---------------------------------------------------------- sign probe

def test_probe_sign_basic():
    assert probe_sign(lambda x: 1.0 / (x * x), 1.0, 1e6) == 1
    assert probe_sign(lambda x: -2.0 * np.ones_like(x), 1.0, 1e6) == -1
    assert probe_sign(lambda x: np.zeros_like(x), 1.0, 1e6) == 0


def test_probe_sign_rejects_mixed():
    with pytest.raises(AmbiguousSignError):
        probe_sign(np.sin, 1.0, 100.0)
    with pytest.raises(AmbiguousSignError):
        probe_sign(lambda x: x - 3.0, 1.0, 100.0)


def test_probe_sign_rejects_nonfinite():
    def blows_up(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - x)

    with pytest.raises(AmbiguousSignError):
        probe_sign(blows_up, 1.0, 100.0)


# ------------------------------------------------------ classification

def test_classify_constant_regimes():
    c = classify_regime(split_of("1", "3/(4*x^2)"), "infinity", (1.0, math.inf))
    assert c.regime is Regime.CONSTANT_EXP
    assert c.sign == 1
    assert c.constant_f == 1.0
    c = classify_regime(split_of("-1", "-1/(4*x^2)"), "infinity", (1.0, math.inf))
    assert c.regime is Regime.CONSTANT_OSC
    assert c.sign == -1


def test_classify_general_regimes():
    c = classify_regime(split_of("x", "0"), "infinity", (1.0, math.inf))
    assert c.regime is Regime.EXP_INFINITY
    c = classify_regime(split_of("-x", "0"), "infinity", (1.0, math.inf))
    assert c.regime is Regime.OSC_INFINITY
    names = [chk["name"] for chk in c.checks]
    assert "phase-integral-diverges" in names
    assert "perturbation-integrable" in names


def test_classify_algebraic():
    c = classify_regime(split_of("0", "exp(-2*x)"), "infinity", (0.0, math.inf))
    assert c.regime is Regime.ALGEBRAIC_INFINITY
    assert c.sign == 0


def test_classify_zero_endpoint():
    c = classify_regime(split_of("1/x^2", "1 - 1/(4*x^2)"), "zero", (0.0, 10.0))
    assert c.regime is Regime.EXP_SINGULAR
    assert c.inverted is not None
    assert c.inner is not None
    # the pulled-back problem carries the analysis
    assert all(chk["name"].startswith("inverted:") for chk in c.checks)
    c = classify_regime(split_of("-1/x^4", "0"), "zero", (0.0, 5.0))
    assert c.regime is Regime.OSC_SINGULAR
    c = classify_regime(split_of("1/x^4", "0"), "zero", (0.0, 5.0))
    assert c.regime is Regime.EXP_SINGULAR


def test_classify_rejects_nonintegrable_perturbation():
    with pytest.raises(HypothesisFailed) as exc:
        classify_regime(split_of("1", "1/x"), "infinity", (1.0, math.inf))
    failed = [c for c in exc.value.checks if not c["passed"]]
    assert failed and failed[-1]["name"] == "perturbation-integrable"


def test_classify_rejects_finite_phase_distance():
    # f = 1/x^4 has a convergent phase integral: infinity is at finite
    # transformed distance and the normal form says nothing
    with pytest.raises(HypothesisFailed) as exc:
        classify_regime(split_of("1/x^4", "0"), "infinity", (1.0, math.inf))
    failed = [c for c in exc.value.checks if not c["passed"]]
    assert failed[-1]["name"] == "phase-integral-diverges"


def test_classify_rejects_bad_zero_split():
    # putting only 3/(4x^2) into the leading part at zero leaves the
    # curvature contribution 1/s behind -- not integrable
    with pytest.raises(HypothesisFailed) as exc:
        classify_regime(split_of("3/(4*x^2)", "1"), "zero", (0.0, 10.0))
    failed = [c for c in exc.value.checks if not c["passed"]]
    assert failed[-1]["name"] == "inverted:perturbation-integrable"


def test_classify_vanishing_f_at_zero_guides_substitution():
    with pytest.raises(HypothesisFailed) as exc:
        classify_regime(split_of("0", "exp(-1/x)/x^6"), "zero", (0.0, 10.0))
    assert "s = 1/x" in str(exc.value)


def test_classify_rejects_algebraic_with_heavy_tail():
    with pytest.raises(HypothesisFailed) as exc:
        classify_regime(split_of("0", "2/x^2"), "zero", (0.0, 10.0))
    failed = [c for c in exc.value.checks if not c["passed"]]
    assert failed[-1]["name"] == "inverted:weighted-perturbation-integrable"


def test_classify_mixed_sign_f():
    with pytest.raises(AmbiguousSignError):
        classify_regime(split_of("sin(x)", "0"), "infinity", (1.0, math.inf))


# ----------------------------------------------------------- inversion

def test_invert_split_involution():
    orig = split_of("1/x^2 + exp(-x)", "sin(x)/x^2")
    twice = invert_split(invert_split(orig))
    xs = np.geomspace(0.3, 20.0, 15)
    assert np.max(np.abs(twice.f(xs) - orig.f(xs))) < 1e-12
    assert np.max(np.abs(twice.g(xs) - orig.g(xs))) < 1e-12


def test_invert_split_scaling_law():
    # f(x) = 1 pulls back to s^-4
    inv = invert_split(split_of("1", "0"))
    assert inv.f(2.0) == pytest.approx(2.0 ** -4, rel=1e-14)


# ----------------------------------------------------------- phase map

def test_phase_map_affine():
    pm = PhaseMap.affine(1.0, 2.0, 10.0, 0.01)
    assert pm.x_of_y(4.0) == pytest.approx(3.0, rel=1e-14)
    assert pm.y_of_x(3.0) == pytest.approx(4.0, rel=1e-14)
    assert pm.y_span == pytest.approx(10.0)


def test_phase_map_marching_against_closed_form():
    # f = x^2 from a = 1: Phi(x) = (x^2 - 1)/2, x(y) = sqrt(1 + 2y)
    pm = PhaseMap.build(lambda x: 1.0 / x, lambda x: np.asarray(x, float),
                        1.0, 6.0, 0.01)
    ys = np.linspace(0.0, 6.0, 31)
    want = np.sqrt(1.0 + 2.0 * ys)
    got = pm.x_of_y(ys)
    assert np.max(np.abs(got - want)) < 1e-10


def test_phase_map_quarter_power_phase():
    # f = x^4 from a = 1: Phi(2) = int_1^2 t^2 dt = 7/3
    pm = PhaseMap.build(lambda x: x ** -2.0, lambda x: np.asarray(x, float) ** 2,
                        1.0, 3.0, 0.005)
    assert pm.y_of_x(2.0) == pytest.approx(7.0 / 3.0, rel=1e-10)


def test_phase_map_round_trip():
    pm = PhaseMap.build(lambda x: 1.0 / x, lambda x: np.asarray(x, float),
                        1.0, 6.0, 0.01)
    for y in (0.0, 0.37, 2.2, 5.99):
        assert pm.y_of_x(pm.x_of_y(y)) == pytest.approx(y, abs=1e-10)
    x = pm.x_of_y(3.3)
    assert pm.x_of_y(pm.y_of_x(x)) == pytest.approx(x, rel=1e-10)


def test_phase_map_range_guard():
    pm = PhaseMap.build(lambda x: 1.0 / x, lambda x: np.asarray(x, float),
                        1.0, 2.0, 0.01)
    with pytest.raises(ValueError):
        pm.x_of_y(2.5)
    with pytest.raises(ValueError):
        pm.x_of_y(-0.1)


def test_regime_predicates():
    assert Regime.OSC_SINGULAR.oscillatory
    assert Regime.ALGEBRAIC_INFINITY.algebraic
    assert Regime.EXP_SINGULAR.at_zero
    assert not Regime.CONSTANT_EXP.oscillatory
    assert not Regime.EXP_INFINITY.at_zero
