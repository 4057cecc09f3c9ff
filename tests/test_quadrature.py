import math

import numpy as np
import pytest

from lgasym import quadrature
from lgasym.quadrature import (BudgetExceededError, DivergenceError,
                               integrate_finite, integrate_to_infinity,
                               l1_tail_norm)


def test_log_two():
    res = integrate_finite(lambda x: 1.0 / x, 1.0, 2.0, tol=1e-13)
    assert abs(res.value - math.log(2.0)) < 1e-13
    assert res.error_estimate < 1e-12
    assert res.evaluations >= 15


def test_polynomials_exact():
    # a single 15-point cell integrates polynomials up to degree 22 exactly
    for deg in (3, 7, 13, 19, 22):
        res = integrate_finite(lambda x, d=deg: x ** d, 0.0, 1.0, tol=1e-12)
        want = 1.0 / (deg + 1)
        assert res.value == pytest.approx(want, rel=5e-15, abs=1e-15)


def test_oscillatory_value():
    res = integrate_finite(np.sin, 0.0, 20.0, tol=1e-12)
    assert res.value == pytest.approx(1.0 - math.cos(20.0), abs=1e-11)


def test_reversed_endpoints_flip_sign():
    fwd = integrate_finite(lambda x: x ** 2, 0.0, 2.0, tol=1e-12)
    rev = integrate_finite(lambda x: x ** 2, 2.0, 0.0, tol=1e-12)
    assert rev.value == pytest.approx(-fwd.value, rel=1e-14)


def test_additivity():
    def fn(x):
        return np.exp(-x) * np.sin(3.0 * x)

    whole = integrate_finite(fn, 0.0, 5.0, tol=1e-12).value
    parts = (integrate_finite(fn, 0.0, 1.7, tol=1e-12).value
             + integrate_finite(fn, 1.7, 5.0, tol=1e-12).value)
    assert whole == pytest.approx(parts, abs=2e-12)


def test_left_endpoint_singularity():
    res = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                           tol=1e-12, singular="left")
    assert res.value == pytest.approx(2.0, abs=1e-11)


def test_left_singularity_with_reversed_endpoints():
    # the singularity stays at a, the lower limit as written, when b < a
    res = integrate_finite(lambda x: 1.0 / np.sqrt(2.0 - x), 2.0, 0.0,
                           tol=1e-12, singular="left")
    assert res.value == pytest.approx(-2.0 * math.sqrt(2.0), rel=1e-12)


def test_array_upper_limits_share_one_run():
    ups = np.array([0.5, 1.0, 3.0])
    res = integrate_finite(np.exp, 0.0, ups, tol=1e-12)
    assert np.allclose(res.value, np.expm1(ups), rtol=0.0, atol=1e-11)
    # with the substitution the limits are mapped as well
    sing = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, ups, tol=1e-12,
                            singular="left")
    assert np.allclose(sing.value, 2.0 * np.sqrt(ups), rtol=0.0, atol=1e-11)
    for bad in (np.array([1.0, 0.5]), np.array([0.0, 1.0]), np.array([]),
                np.ones((2, 2))):
        with pytest.raises(ValueError):
            integrate_finite(np.exp, 0.0, bad)


def test_error_estimate_is_honest():
    cases = [
        (lambda x: np.exp(-x * x), 0.0, 3.0, 0.5 * math.sqrt(math.pi)
         * math.erf(3.0)),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        (lambda x: np.log(1.0 + x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
    ]
    for fn, a, b, want in cases:
        for tol in (1e-6, 1e-10):
            res = integrate_finite(fn, a, b, tol=tol)
            assert abs(res.value - want) <= max(res.error_estimate, tol)


def test_improper_exponential():
    res = integrate_to_infinity(lambda x: np.exp(-x), 0.0, tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-11)


def test_improper_gaussian():
    res = integrate_to_infinity(lambda x: np.exp(-x * x), 0.0, tol=1e-12)
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-11)


def test_improper_power():
    res = integrate_to_infinity(lambda x: x ** -2.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_divergent_tail_raises():
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda x: 1.0 / x, 1.0, tol=1e-10)


def test_divergent_weighted_tail_raises():
    # the algebraic-regime hypothesis integral for g = 2/x^2
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda x: x * (2.0 / x ** 2), 1.0, tol=1e-10)


@pytest.mark.xfail(strict=True, reason=(
    "the divergence rule of _adapt has about one refinement to spare: the "
    "integrable bump hides the 1/x growth and the run returns 44.89"))
def test_divergent_tail_with_integrable_bump_raises():
    with pytest.raises(DivergenceError):
        integrate_to_infinity(
            lambda x: 1.0 / x + 3.0 * np.abs(np.sin(x)) * np.exp(-x / 5.0),
            1.0, tol=1e-8)


def test_budget_exceeded(monkeypatch):
    # genuinely hard integrand, absurdly small budget
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 200)
    with pytest.raises(BudgetExceededError):
        integrate_finite(lambda x: np.sin(1000.0 * x), 0.0, 20.0,
                         tol=1e-13)


def test_l1_tail_norm_absolute_value():
    # int_0^inf e^{-x} |sin x| dx = (1/2) coth(pi/2)
    res = l1_tail_norm(lambda x: np.exp(-x) * np.sin(x), 0.0, tol=1e-11)
    want = 0.5 * math.cosh(math.pi / 2.0) / math.sinh(math.pi / 2.0)
    assert res.value == pytest.approx(want, abs=1e-9)
    assert res.value > 0.5   # strictly larger than the signed integral


def test_l1_tail_norm_divergence_propagates():
    with pytest.raises(DivergenceError):
        l1_tail_norm(lambda x: 1.0 / x, 1.0, tol=1e-8)


def test_zero_width_interval():
    res = integrate_finite(np.exp, 2.0, 2.0)
    assert res.value == 0.0 and res.evaluations == 0


# ------------------------------------------- an array of lower limits

def _damped_sine(x):
    return np.exp(-x) * np.sin(x)


def _inverse_quartic(x):
    return x ** -4.0


@pytest.mark.parametrize("fn, limits", [
    (_damped_sine, [0.0, 1e-12, 0.7, 3.0, 9.5, 1e6]),
    (_inverse_quartic, [1.0, 1.0 + 1e-12, 2.5, 40.0, 1e6]),
])
def test_array_tails_match_scalar_calls(fn, limits):
    tol = 1e-10
    res = l1_tail_norm(fn, limits, tol=tol)
    assert res.value.shape == (len(limits),)
    assert res.error_estimate <= tol
    for a, tail in zip(limits, res.value):
        # each scalar oracle is itself within 1e-13 of the true tail
        want = l1_tail_norm(fn, a, tol=1e-13).value
        assert abs(tail - want) <= tol + 1e-13
    # the tails are nested, so the column cannot increase
    assert np.all(np.diff(res.value) <= 0.0)


def test_array_tails_cost_less_than_scalar_calls():
    limits = np.linspace(1.0, 5.0, 9)
    joint = l1_tail_norm(_damped_sine, limits, tol=1e-8).evaluations
    apart = sum(l1_tail_norm(_damped_sine, a, tol=1e-8).evaluations
                for a in limits)
    assert 3 * joint <= apart


def test_one_limit_array_is_the_scalar_call():
    for fn, a in ((_damped_sine, 0.3), (_inverse_quartic, 2.0)):
        one = l1_tail_norm(fn, [a], tol=1e-11)
        ref = l1_tail_norm(fn, a, tol=1e-11)
        assert one.value[0] == ref.value
        assert one.error_estimate == ref.error_estimate
        assert one.evaluations == ref.evaluations


def test_limits_must_increase():
    for limits in ([2.0, 1.0], [1.0, 1.0], [1.0, 3.0, 2.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            l1_tail_norm(_inverse_quartic, limits)
    with pytest.raises(ValueError):
        l1_tail_norm(_inverse_quartic, [1.0, math.inf])
    empty = l1_tail_norm(_inverse_quartic, [])
    assert empty.value.shape == (0,) and empty.evaluations == 0


def test_array_limits_share_one_budget(monkeypatch):
    def fn(x):
        return np.exp(-x) * np.sin(30.0 * x)

    limits = np.linspace(0.0, 2.0, 6)
    need = l1_tail_norm(fn, limits, tol=1e-10).evaluations
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", need)
    assert l1_tail_norm(fn, limits, tol=1e-10).evaluations == need
    # the budget bounds the run as a whole, not each piece
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", need - 30)
    with pytest.raises(BudgetExceededError):
        l1_tail_norm(fn, limits, tol=1e-10)
    # and a table with more pieces than the budget has cells takes no sample
    calls = []
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 50 * 15 - 1)
    with pytest.raises(BudgetExceededError):
        l1_tail_norm(lambda x: calls.append(x) or fn(x),
                     np.linspace(0.0, 2.0, 50))
    assert calls == []


def test_array_divergence_propagates():
    # the tail past the last limit is split as a lone tail would be, so a
    # wide spread of limits leaves the divergence run its full depth
    for limits in ([1.0, 2.0, 5.0], [1.0, 1e6]):
        with pytest.raises(DivergenceError):
            l1_tail_norm(lambda x: 1.0 / x, limits, tol=1e-8)
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda x: x * (2.0 / x ** 2), [1.0, 3.0],
                              tol=1e-10)
