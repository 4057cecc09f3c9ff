import math
import re
from fractions import Fraction

import numpy as np
import pytest

from lgasym import analyze, quadrature
from lgasym.quadrature import (BudgetExceededError, DivergenceError,
                               integrate_finite, integrate_to_infinity,
                               l1_tail_norm)
from lgasym.transform import HypothesisFailed


def _charged(call, *args, **kwargs):
    """(result, samples charged) of one call, on a ledger of its own."""
    with quadrature.Work() as work:
        return call(*args, **kwargs), work.quadrature_evaluations


def test_log_two():
    res, taken = _charged(integrate_finite, lambda x: 1.0 / x, 1.0, 2.0,
                          tol=1e-13)
    assert abs(res.value - math.log(2.0)) < 1e-13
    assert res.error_estimate < 1e-12
    assert taken >= 15


def test_polynomials_exact():
    # a single 15-point cell integrates polynomials up to degree 22 exactly
    for deg in (3, 7, 13, 19, 22):
        res = integrate_finite(lambda x, d=deg: x ** d, 0.0, 1.0, tol=1e-12)
        want = 1.0 / (deg + 1)
        assert res.value == pytest.approx(want, rel=5e-15, abs=1e-15)


def _worst_moment(xs, ws, kmax):
    """The largest |sum w x^k - int_-1^1 x^k| for k <= kmax, in exact
    rational arithmetic on the stored doubles."""
    xs, ws = [Fraction(v) for v in xs], [Fraction(v) for v in ws]
    return max(abs(sum(w * x ** k for x, w in zip(xs, ws))
                   - (Fraction(2, k + 1) if k % 2 == 0 else 0))
               for k in range(kmax + 1))


def test_rule_constants_are_exact_to_their_last_bits():
    # the Kronrod rule is exact for degree <= 22, the Gauss rule for <= 13;
    # 15-digit constants missed by 6.0e-15 and 1.1e-15
    assert _worst_moment(quadrature._XK, quadrature._WK, 22) <= 4e-16
    assert _worst_moment(quadrature._XK[1::2], quadrature._WG, 13) <= 4e-16


def test_one_cell_tail_is_within_one_ulp():
    # x^-2 from 10 is one cell of the scaled map; weights summing to
    # 2 - 6e-15 read 0.0999999999999997
    value = integrate_to_infinity(lambda x: x ** -2.0, 10.0).value
    assert abs(value - 0.1) <= math.ulp(0.1)


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


def test_divergent_tail_with_integrable_bump_raises():
    # the bump's splits interleave with those of the end cell; they run
    # their own divergence count and do not reset the end cell's
    for bump in (lambda x: 3.0 * np.abs(np.sin(x)) * np.exp(-x / 5.0),
                 lambda x: 50.0 * np.exp(-400.0 * (x - 3.0) ** 2)):
        with pytest.raises(DivergenceError):
            integrate_to_infinity(lambda x: 1.0 / x + bump(x), 1.0, tol=1e-8)


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("p", [1.0, 1.05, 1.1])
def test_slowly_divergent_powers_are_refused(p, tol):
    # the end cell's run asks 0.9 per dyadic shell, so the refusal set
    # reaches up to about p = 1.15 whatever the split width
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda x: x ** -p, 1.0, tol=tol)


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.5])
def test_convergent_powers_within_their_estimate(p, tol):
    res = integrate_to_infinity(lambda x: x ** -p, 1.0, tol=tol)
    assert abs(res.value - 1.0 / (p - 1.0)) <= res.error_estimate


@pytest.mark.xfail(strict=True, reason=(
    "the mapped integrand (1-t)^(p-2) of a tail slower than x^-2 is "
    "singular at t = 1 and the mass past the last representable cell is "
    "dropped: the value misses 2 by 2.2e-8 at an estimate near 1e-10"))
def test_slow_tail_error_estimate_is_a_bound():
    res = integrate_to_infinity(lambda x: x ** -1.5, 1.0, tol=1e-10)
    assert abs(res.value - 2.0) <= res.error_estimate


@pytest.mark.parametrize("call, args, exact", [
    (integrate_finite, (lambda x: 1.0 / x, 1.0, 2.0), math.log(2.0)),
    (integrate_to_infinity, (lambda x: x ** -2.0, 1.0), 1.0),
    (integrate_to_infinity, (lambda x: x ** -3.0, 0.001), 5e5),
], ids=["log-two", "inverse-square", "steep-tail"])
@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_tolerance_below_roundoff_stops_at_the_floor(call, args, exact, tol):
    # float64 cannot resolve an integral below about 50 eps of its size:
    # the run stops there instead of spending the whole budget
    res, taken = _charged(call, *args, tol=tol)
    assert abs(res.value - exact) <= 1e-14 * exact
    assert res.error_estimate <= 50.0 * np.finfo(float).eps * exact
    assert taken <= 1000


# ------------------------------------------ the map on the tail's scale

# int_a^inf fn to 40 digits (mpmath 1.3.0 at 50 digits), for a = 0.5, 10,
# 1e3 and 1e6: 1/a, 1/(3 a^3), e^-a and E_2(a/50)/a.  The last two
# underflow to 0 from 1e3 and 1e6 on.
_TAIL_A = [0.5, 10.0, 1e3, 1e6]
_TAILS = {
    "x^-2": (lambda x: x ** -2.0, ["2.0", "0.1", "0.001", "0.000001"]),
    "x^-4": (lambda x: x ** -4.0, [
        "2.666666666666666666666666666666666666667",
        "0.0003333333333333333333333333333333333333333",
        "3.333333333333333333333333333333333333333e-10",
        "3.333333333333333333333333333333333333333e-19"]),
    "e^-x": (lambda x: np.exp(-x), [
        "0.6065306597126334236037995349911804534419",
        "0.00004539992976248485153559151556055061023792",
        "5.075958897549456765291809479574336919306e-435",
        "3.296831478088558578968907969107724208561e-434295"]),
    "x^-2 e^(-x/50)": (lambda x: np.exp(-x / 50.0) / x ** 2, [
        "1.899341075967573830512078316530985895365",
        "0.05742006442412032410029809931041548695467",
        "9.404856430858148988654295837686576150454e-14",
        "6.445973476826209303528709180726593109438e-8697"]),
}


def _kernel_calls(monkeypatch, call, *args, **kwargs):
    """(result, kernel calls) of one call."""
    cell, calls = quadrature._gk_cell, [0]

    def counted(fn, lo, hi):
        calls[0] += 1
        return cell(fn, lo, hi)

    monkeypatch.setattr(quadrature, "_gk_cell", counted)
    try:
        return call(*args, **kwargs), calls[0]
    finally:
        monkeypatch.setattr(quadrature, "_gk_cell", cell)


@pytest.mark.parametrize("name", list(_TAILS))
@pytest.mark.parametrize("a", _TAIL_A)
def test_tails_are_within_their_error_estimate(name, a):
    fn, values = _TAILS[name]
    res = integrate_to_infinity(fn, a, tol=1e-12)
    assert abs(res.value - float(values[_TAIL_A.index(a)])) \
        <= res.error_estimate <= 1e-12


def test_array_tails_on_the_first_limits_scale():
    limits = [10.0, 20.0, 1e3]
    res = integrate_to_infinity(lambda x: x ** -2.0, limits, tol=1e-12)
    assert np.all(np.abs(res.value - [0.1, 0.05, 0.001])
                  <= res.error_estimate)
    fn, values = _TAILS["x^-2 e^(-x/50)"]
    res = integrate_to_infinity(fn, limits, tol=1e-12)
    # E_2(20/50)/20, to 40 digits as above
    want = [float(values[1]),
            0.01946839992446871546556106637715840762702, float(values[2])]
    assert np.all(np.abs(res.value - want) <= res.error_estimate)


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("a", [10.0, 1e3, 1e6, 1e21])
def test_an_inverse_power_tail_takes_one_kernel_call(monkeypatch, p, a):
    # x^-p past a maps to a^(1-p) (1-t)^(p-2): a polynomial on one cell
    res, calls = _kernel_calls(monkeypatch, integrate_to_infinity,
                               lambda x: x ** -p, a, tol=1e-12)
    assert calls == 1
    assert res.value == pytest.approx(a ** (1.0 - p) / (p - 1.0),
                                      rel=1e-14, abs=0.0)


def test_a_slow_tail_far_out_takes_few_kernel_calls(monkeypatch):
    # 237 calls on the unit scale, which left the mass within 1e-3 of t=1.
    # The mass past the last representable cell is still dropped (as in
    # test_slow_tail_error_estimate_is_a_bound), so the value misses by
    # 7e-10, where the unit scale missed by 2.1e-8.
    res, calls = _kernel_calls(monkeypatch, integrate_to_infinity,
                               lambda x: x ** -1.5, 1e3, tol=1e-12)
    assert calls <= 40
    assert abs(res.value - 2.0 / math.sqrt(1e3)) <= 1e-9


@pytest.mark.parametrize("a", [1e3, [1e3, 2e3]], ids=["scalar", "array"])
def test_a_harmonic_tail_far_out_still_diverges(a):
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda x: 1.0 / x, a, tol=1e-10)


def test_divergence_refusal_kernel_calls(monkeypatch):
    # one call for the first cell, then 21 four-way splits of the end
    # cell: the first sets the gain, the next 20 make the 40-shell run
    seen = [0, 0]   # kernel calls, samples
    cell = quadrature._gk_cell

    def counted(fn, lo, hi):
        seen[0] += 1
        seen[1] += quadrature.CELL_SAMPLES * len(lo)
        return cell(fn, lo, hi)

    monkeypatch.setattr(quadrature, "_gk_cell", counted)
    with pytest.raises(DivergenceError):
        integrate_to_infinity(lambda x: 1.0 / x, 1.0, tol=1e-8)
    assert seen[0] <= 22 and seen[1] <= 1275
    seen[:] = [0, 0]
    with pytest.raises(HypothesisFailed):
        analyze("0", "2.5/x^2")
    assert seen[0] <= 22


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
    res, taken = _charged(integrate_finite, np.exp, 2.0, 2.0)
    assert res.value == 0.0 and taken == 0


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
    joint = _charged(l1_tail_norm, _damped_sine, limits, tol=1e-8)[1]
    apart = sum(_charged(l1_tail_norm, _damped_sine, a, tol=1e-8)[1]
                for a in limits)
    assert 3 * joint <= apart


def test_one_limit_array_is_the_scalar_call():
    for fn, a in ((_damped_sine, 0.3), (_inverse_quartic, 2.0)):
        one, one_taken = _charged(l1_tail_norm, fn, [a], tol=1e-11)
        ref, ref_taken = _charged(l1_tail_norm, fn, a, tol=1e-11)
        assert one.value[0] == ref.value
        assert one.error_estimate == ref.error_estimate
        assert one_taken == ref_taken


def test_limits_must_increase():
    for limits in ([2.0, 1.0], [1.0, 1.0], [1.0, 3.0, 2.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            l1_tail_norm(_inverse_quartic, limits)
    with pytest.raises(ValueError):
        l1_tail_norm(_inverse_quartic, [1.0, math.inf])
    empty, taken = _charged(l1_tail_norm, _inverse_quartic, [])
    assert empty.value.shape == (0,) and taken == 0


def test_array_limits_share_one_budget(monkeypatch):
    def fn(x):
        return np.exp(-x) * np.sin(30.0 * x)

    limits = np.linspace(0.0, 2.0, 6)
    need = _charged(l1_tail_norm, fn, limits, tol=1e-10)[1]
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", need)
    assert _charged(l1_tail_norm, fn, limits, tol=1e-10)[1] == need
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


def _failing_cell(call, *args):
    with pytest.raises(quadrature.QuadratureError,
                       match="^non-finite integrand sample in ") as err:
        call(*args)
    return [float(v) for v in re.findall(r"[-+\w.]+(?=[],])", str(err.value))]


def test_a_non_finite_sample_names_its_cell_in_x():
    # e^x e^(-2x) is e^-x until e^x overflows past x = 709.78, then nan;
    # the end cell, from the last limit 5 to infinity, samples it first
    def fn(x):
        return np.exp(x) * np.exp(-2.0 * x)

    lo, hi = _failing_cell(l1_tail_norm, fn, [1.0, 2.0, 5.0])
    assert (lo, hi) == (5.0, math.inf)
    # a finite cell maps through x = a0 + (D + L*t)/(1 - t), L = max(1, a0),
    # alike
    lo, hi = _failing_cell(analyze, "x^40", "0")
    assert lo == pytest.approx(46587904.0, rel=1e-9)
    assert hi == pytest.approx(93175808.0, rel=1e-9)
