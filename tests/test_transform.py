import math
import pathlib

import numpy as np
import pytest

import reference_phase_map
from lgasym import expr, pipeline, quadrature, transform
from lgasym.transform import (
    AmbiguousSignError,
    CoefficientSplit,
    HypothesisFailed,
    PhaseMap,
    PhaseTable,
    Regime,
    Tails,
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

    with pytest.raises(expr.EvalDomainError, match="probe point x = 1$"):
        probe_sign(blows_up, 1.0, 100.0)


@pytest.mark.parametrize("f", ["x + 1/0", "log(-x)", "sqrt(-x)",
                               "x*log(x - 2)"])
def test_classify_non_finite_f_is_a_domain_error(f):
    # f has no finite value at the first probe point: a domain error
    # naming f and the point, not a sign change
    with pytest.raises(expr.EvalDomainError) as exc:
        classify_regime(split_of(f, "0"), "infinity", (1.0, math.inf))
    assert str(exc.value) == ("leading coefficient is not finite at the "
                              "probe point x = 1 in subexpression '%s'" % f)


# ------------------------------------------------------ classification

def test_classify_constant_regimes():
    c = classify_regime(split_of("1", "3/(4*x^2)"), "infinity", (1.0, math.inf))
    assert c.regime is Regime.CONSTANT_EXP
    assert c.sign == 1
    assert c.power == (1.0, 0.0)
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


def _phase_verdict(f_text):
    """Whether classify_regime records int |f|^(1/2) as divergent."""
    try:
        checks = classify_regime(split_of(f_text), "infinity",
                                 (1.0, math.inf)).checks
    except HypothesisFailed as e:
        checks = e.checks
    (verdict,) = [c["passed"] for c in checks
                  if c["name"] == "phase-integral-diverges"]
    return verdict


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("p", [-3, -2.5, -2, -1, 0.5, 1, 2, 3])
def test_phase_divergence_from_the_exponent(sign, p):
    # f = +-x^p: the exponent test agrees with the adaptive quadrature,
    # which the verdict took before f was read as a power
    def sqrt_f(x):
        return np.abs(x) ** (0.5 * p)

    try:
        quadrature.integrate_to_infinity(sqrt_f, 1.0, tol=1e-8)
        diverges = False
    except quadrature.DivergenceError:
        diverges = True
    assert _phase_verdict("%sx^%g" % (sign, p)) is diverges


def test_convergent_power_phase_is_refused_without_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(quadrature, "_gk_cell",
                        lambda *args: calls.append(args))
    with pytest.raises(HypothesisFailed) as exc:
        pipeline.analyze("1.234*x^-3", "0")
    assert str(exc.value) == (
        "int |f|^(1/2) converges at infinity; the endpoint is at finite "
        "transformed distance and no normal form applies")
    assert calls == []


@pytest.mark.parametrize("p", [-2.1, -2.2])
def test_slowly_convergent_power_phase_is_refused_for_its_phase(p):
    # int x^(p/2) converges, but too slowly for the quadrature's
    # divergence rule, which calls it divergent; the refusal used to come
    # one check later, from psi.  The exponent test names the phase.
    with pytest.raises(quadrature.DivergenceError):
        quadrature.integrate_to_infinity(lambda x: x ** (0.5 * p), 1.0,
                                         tol=1e-8)
    with pytest.raises(HypothesisFailed, match="converges at infinity") as e:
        pipeline.analyze("x^%g" % p, "0")
    assert [c["name"] for c in e.value.checks if not c["passed"]] == [
        "phase-integral-diverges"]


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


def test_zero_endpoint_failure_keeps_its_class():
    # sin(1/x) at 0 is sin(s) s^-4 in s = 1/x: its sign changes, as sin(x)
    # does at infinity, and the range in the message is one in s
    with pytest.raises(AmbiguousSignError) as at_inf:
        pipeline.analyze("sin(x)", "0")
    with pytest.raises(AmbiguousSignError) as exc:
        pipeline.analyze("sin(1/x)", "0", endpoint="zero")
    assert str(exc.value) == "in s = 1/x: %s" % at_inf.value
    assert "[1, 1e+06]" in str(exc.value)
    exc = pytest.raises(HypothesisFailed, classify_regime,
                        split_of("3/(4*x^2)", "1"), "zero", (0.0, 10.0))
    assert type(exc.value) is HypothesisFailed
    assert str(exc.value).startswith("in s = 1/x: the perturbation psi")
    names = [c["name"] for c in exc.value.checks]
    assert names == ["inverted:sign-probe",
                     "inverted:phase-integral-diverges",
                     "inverted:perturbation-integrable"]


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

def _ys(y_span, h):
    """Uniform phase nodes h apart on [0, y_span]."""
    return h * np.arange(int(round(y_span / h)) + 1)


def test_phase_map_affine():
    # constant f = 4 is the p = 0 closed form: the affine map y = 2 (x - 1),
    # bit for bit
    ys = _ys(10.0, 0.01)
    pm = PhaseMap.closed_form(1.0, 4.0, 0.0, ys)
    assert np.array_equal(pm.x_nodes, 1.0 + ys / 2.0)
    assert np.array_equal(pm.slopes, np.full(len(ys), 1.0 / 2.0))
    xs = np.random.default_rng(3).uniform(1.0, 6.0, 40)
    assert np.array_equal(pm.y_of_x(xs), 2.0 * (xs - 1.0))
    assert np.array_equal(pm.x_of_y(ys[::7]), 1.0 + ys[::7] / 2.0)
    assert pm.x_of_y(4.0) == pytest.approx(3.0, rel=1e-14)
    assert pm.y_of_x(3.0) == pytest.approx(4.0, rel=1e-14)
    assert pm.y_span == pytest.approx(10.0)


# PhaseMap.build as defined, for tests that patch it
_BUILD = PhaseMap.build.__func__


def _numeric_power_map(a, c, p, ys, x_end):
    """The numeric map (PhaseTable on [a, x_end] and PhaseMap.build) of
    f = c x^p at the phase values ys."""
    s = math.sqrt(abs(c))
    table = PhaseTable(lambda x: s * np.asarray(x, float) ** (0.5 * p), a,
                       x_end)
    return _BUILD(PhaseMap, table, lambda x: x ** (-0.5 * p) / s,
                  lambda x: 0.5 * p * s * x ** (0.5 * p - 1.0), ys)


@pytest.mark.parametrize("p", [-2.0, -1.0, 0.5, 1.0, 2.0])
def test_closed_form_map(p):
    a, c = 1.3, -1.7
    pm = PhaseMap.closed_form(a, c, p, _ys(12.0, 0.01))
    numeric = _numeric_power_map(a, c, p, pm.y_nodes, float(pm.x_nodes[-1]))
    assert _max_rel(pm.x_nodes, numeric.x_nodes) <= 1e-13
    assert np.max(np.abs(pm.slopes / numeric.slopes - 1.0)) <= 1e-13
    rng = np.random.default_rng(11)
    ys = rng.uniform(0.0, pm.y_span, 200)
    back = pm.y_of_x(pm.x_of_y(ys))
    assert np.all(np.abs(back - ys) <= 1e-13 * np.maximum(1.0, ys))
    xs = rng.uniform(pm.a, pm.x_nodes[-1], 200)
    want = numeric.y_of_x(xs)
    assert np.all(np.abs(pm.y_of_x(xs) - want)
                  <= 1e-13 * np.maximum(1.0, np.abs(want)))
    # the closed form takes no quadrature sample
    with quadrature.Work() as work:
        PhaseMap.closed_form(a, c, p, _ys(12.0, 0.01)).y_of_x(xs)
    assert work.quadrature_evaluations == 0


@pytest.mark.parametrize("f, g, kwargs", [
    ("1.049*x", "0", {}),
    ("1/x^2", "1.7 - 1/(4*x^2)", {"endpoint": "zero", "interval": (0, 1)}),
], ids=["exp-at-inf", "zero-endpoint"])
def test_power_law_solutions_take_no_quadrature(monkeypatch, f, g, kwargs):
    r = pipeline.analyze(f, g, **kwargs)
    m = r.march
    if r.endpoint == "zero":
        xs = np.geomspace(m["x_min"], m["cutoff_x"], 102)[1:-1]
    else:
        xs = np.linspace(m["cutoff"], m["cutoff"] + 20.0, 100)
    calls = []
    monkeypatch.setattr(quadrature, "gk_cells",
                        lambda *args: calls.append(args))
    for sol in r.solutions:
        for fn in (sol.value, sol.derivative):
            assert np.all(np.isfinite(fn(xs)))
            assert all(math.isfinite(fn(x)) for x in xs[::9])
    assert calls == []


def _square_map(y_span, h):
    # f = x^2 from a = 1: Phi(x) = (x^2 - 1)/2, x(y) = sqrt(1 + 2y)
    table = PhaseTable(lambda x: np.asarray(x, float), 1.0,
                       math.sqrt(1.0 + 2.0 * y_span))
    return PhaseMap.build(table, lambda x: 1.0 / x, np.ones_like,
                          _ys(y_span, h))


def test_phase_map_marching_against_closed_form():
    pm = _square_map(6.0, 0.01)
    ys = np.linspace(0.0, 6.0, 31)
    want = np.sqrt(1.0 + 2.0 * ys)
    got = pm.x_of_y(ys)
    assert np.max(np.abs(got - want)) < 1e-10


def test_phase_map_quarter_power_phase():
    # f = x^4 from a = 1: Phi(x) = (x^3 - 1)/3, so Phi(2) = 7/3
    table = PhaseTable(lambda x: np.asarray(x, float) ** 2, 1.0,
                       10.0 ** (1.0 / 3.0))
    pm = PhaseMap.build(table, lambda x: x ** -2.0, lambda x: 2.0 * x,
                        _ys(3.0, 0.005))
    assert pm.y_of_x(2.0) == pytest.approx(7.0 / 3.0, rel=1e-10)


def test_phase_map_round_trip():
    pm = _square_map(6.0, 0.01)
    for y in (0.0, 0.37, 2.2, 5.99):
        assert pm.y_of_x(pm.x_of_y(y)) == pytest.approx(y, abs=1e-10)
    x = pm.x_of_y(3.3)
    assert pm.x_of_y(pm.y_of_x(x)) == pytest.approx(x, rel=1e-10)


def test_phase_map_range_guard():
    pm = _square_map(2.0, 0.01)
    with pytest.raises(ValueError):
        pm.x_of_y(2.5)
    with pytest.raises(ValueError):
        pm.x_of_y(-0.1)


def _with_d_sqrt_f(inv_sqrt_f, d_sqrt_f):
    """inv_sqrt_f, carrying the closed-form (|f|^(1/2))' as .d_sqrt_f (an
    attribute, so the parametrized test ids stay those of the functions)"""
    inv_sqrt_f.d_sqrt_f = d_sqrt_f
    return inv_sqrt_f


def _max_rel(got, want):
    return np.max(np.abs(got / want - 1.0))


# cells per node of PhaseMap.build, and how far its nodes may lie from
# those of the first-order Newton loop of tests/reference_phase_map.py
_CELLS_PER_NODE = 1.5
_REFERENCE_RTOL = 1e-14


def _check_against_reference(build, table, inv_sqrt_f, d_sqrt_f, ys):
    """The map build(PhaseMap, table, ...) and its samples, taken on a
    fresh ledger; checks its cells per node and its nodes against the
    reference loop."""
    with quadrature.Work() as work:
        pm = build(PhaseMap, table, inv_sqrt_f, d_sqrt_f, ys)
    assert work.quadrature_evaluations / 15 / len(ys) <= _CELLS_PER_NODE
    with quadrature.Work():
        ref = reference_phase_map.build(table, inv_sqrt_f, ys)
    assert _max_rel(pm.x_nodes, ref.x_nodes) <= _REFERENCE_RTOL
    return pm, work.quadrature_evaluations


@pytest.mark.parametrize("sqrt_f, inv_sqrt_f, a, x_of_y", [
    # f = x^2: Phi = (x^2 - 1)/2
    (lambda x: 1.0 * x, _with_d_sqrt_f(lambda x: 1.0 / x, np.ones_like), 1.0,
     lambda y: np.sqrt(1.0 + 2.0 * y)),
    # f = x: Phi = 2/3 (x^(3/2) - 1)
    (np.sqrt, _with_d_sqrt_f(lambda x: 1.0 / np.sqrt(x),
                             lambda x: 0.5 / np.sqrt(x)), 1.0,
     lambda y: (1.0 + 1.5 * y) ** (2.0 / 3.0)),
    # |f|^(1/2) = 1/s: Phi = log(s/a)
    (lambda x: 1.0 / x, _with_d_sqrt_f(lambda x: 1.0 * x,
                                       lambda x: -1.0 / x ** 2), 2.0,
     lambda y: 2.0 * np.exp(y)),
    # |f|^(1/2) = (x - c)^(-1/2) with c just below a = 1: Phi =
    # 2 (sqrt(x - c) - sqrt(a - c)), steep at the origin
    (lambda x: (x - 0.999) ** -0.5,
     _with_d_sqrt_f(lambda x: (x - 0.999) ** 0.5,
                    lambda x: -0.5 * (x - 0.999) ** -1.5), 1.0,
     lambda y: 0.999 + (math.sqrt(1e-3) + 0.5 * y) ** 2),
])
def test_phase_map_nodes_against_closed_forms(sqrt_f, inv_sqrt_f, a, x_of_y):
    y_span, h = 12.0, 0.004
    with quadrature.Work() as work:
        table = PhaseTable(sqrt_f, a, float(x_of_y(y_span)))
    assert table.span == pytest.approx(y_span, rel=1e-13)
    pm, _ = _check_against_reference(PhaseMap.build.__func__, table,
                                     inv_sqrt_f, inv_sqrt_f.d_sqrt_f,
                                     _ys(y_span, h))
    want = x_of_y(pm.y_nodes)
    assert np.max(np.abs(pm.x_nodes / want - 1.0)) < 1e-13
    assert np.array_equal(pm.slopes, inv_sqrt_f(pm.x_nodes))
    # samples: 15 per cell evaluated, every accepted cell included
    assert work.quadrature_evaluations >= 15 * (len(table.edges) - 1)
    assert work.quadrature_evaluations % 15 == 0


def test_phase_map_non_finite_sqrt_f_raises():
    def sqrt_f(x):
        x = np.asarray(x, float)
        return np.where(x < 3.0, x, np.nan)

    # the table meets the NaN on [1, 5]
    with pytest.raises(HypothesisFailed, match="left the domain"):
        PhaseTable(sqrt_f, 1.0, 5.0)
    # the table stops short of it, but |f|^(-1/2) goes NaN past 2
    table = PhaseTable(sqrt_f, 1.0, 2.9)
    with pytest.raises(HypothesisFailed, match="left the domain"):
        PhaseMap.build(table, lambda x: np.where(x < 2.0, 1.0 / x, np.nan),
                       lambda x: np.where(x < 3.0, 1.0, np.nan),
                       _ys(table.span, 0.01))


def _sine_map_args(a=1.0):
    # |f|^(1/2) = 1 + 0.9 sin x on [a, a + 59]: (|f|^(1/2))' changes sign
    # every half period, so c vanishes there whatever the start's error
    def sqrt_f(x):
        return 1.0 + 0.9 * np.sin(x)

    table = PhaseTable(sqrt_f, a, a + 59.0)
    return (table, lambda x: 1.0 / sqrt_f(x), lambda x: 0.9 * np.cos(x),
            _ys(table.span, 0.01))


def test_phase_map_newton_cap(monkeypatch):
    # one step from the start leaves nodes of the sine map unsettled
    # (it takes about 2 cells per node): a typed error, not a
    # half-converged map
    monkeypatch.setattr(transform, "_NEWTON_STEPS", 1)
    with pytest.raises(HypothesisFailed, match="unsettled"):
        PhaseMap.build(*_sine_map_args())


def test_phase_map_sine_matches_reference():
    table, inv_sqrt_f, d_sqrt_f, ys = _sine_map_args()
    with quadrature.Work():
        pm = PhaseMap.build(table, inv_sqrt_f, d_sqrt_f, ys)
        ref = reference_phase_map.build(table, inv_sqrt_f, ys)
    assert _max_rel(pm.x_nodes, ref.x_nodes) <= _REFERENCE_RTOL


def _inverse_cubic(table, inv_sqrt_f, d_sqrt_f):
    # a looser start than the library's quintic: the cubic Hermite of the
    # values and slopes only, in _inverse_quintic's layout
    h = np.diff(table.phi)
    slope = inv_sqrt_f(table.edges)
    m0, m1 = slope[:-1] * h, slope[1:] * h
    dx = np.diff(table.edges)
    zero = np.zeros_like(dx)
    return np.array([zero, zero, m0 + m1 - 2 * dx, 3 * dx - 2 * m0 - m1,
                     m0, table.edges[:-1]])


@pytest.mark.parametrize("a, rtol", [(1.0, _REFERENCE_RTOL), (1e3, 2e-15)])
def test_phase_map_remainder_test(monkeypatch, a, rtol):
    # from the cubic start some nodes of the sine map take a step where
    # (|f|^(1/2))' is near 0, so c is tiny while the third-order remainder
    # is not: the |dx|^3 <= 1e-15 |x| w^2 test holds them for another
    # step.  Without it the nodes miss by 7.2e-14 on [1, 60]; with
    # |dx| <= 1e-6 |x| in its place, by 4.1e-15 on [1000, 1059].
    monkeypatch.setattr(transform, "_inverse_quintic", _inverse_cubic)
    table, inv_sqrt_f, d_sqrt_f, ys = _sine_map_args(a)
    with quadrature.Work():
        pm = PhaseMap.build(table, inv_sqrt_f, d_sqrt_f, ys)
        ref = reference_phase_map.build(table, inv_sqrt_f, ys)
    assert _max_rel(pm.x_nodes, ref.x_nodes) <= rtol


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", range(1, 6))
def test_phase_map_on_bench_cases(monkeypatch, seed):
    # every map the bench's variable-f certify templates build.  The
    # numeric map of osc-at-inf: at most 1.5 Gauss-Kronrod cells per node,
    # nodes as the reference loop's.  The closed-form maps of the four
    # power-law templates: nodes as PhaseMap.build's at the same phase
    # values.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cases

    closed_form = PhaseMap.closed_form.__func__
    checked = []

    def checking(cls, table, inv_sqrt_f, d_sqrt_f, ys):
        pm, samples = _check_against_reference(_BUILD, table, inv_sqrt_f,
                                               d_sqrt_f, ys)
        checked.append("numeric")
        # the analysis's own ledger still pays for the map
        quadrature.charge("quadrature_evaluations", samples)
        return pm

    def checking_closed(cls, a, c, p, ys):
        pm = closed_form(cls, a, c, p, ys)
        if len(pm.y_nodes) > 1:
            with quadrature.Work():
                numeric = _numeric_power_map(a, c, p, pm.y_nodes,
                                             float(pm.x_nodes[-1]))
            assert _max_rel(pm.x_nodes, numeric.x_nodes) <= 1e-13
            checked.append("closed")
        return pm

    monkeypatch.setattr(PhaseMap, "build", classmethod(checking))
    monkeypatch.setattr(PhaseMap, "closed_form", classmethod(checking_closed))
    variable = [t for t in cases.CERTIFY if "x" in t.f]
    assert len(variable) == 5
    for case in cases.draw_pool(variable, seed, "certify", 1):
        checked.clear()
        pipeline.analyze(case.f, case.g, **case.kwargs)
        power = case.template.name != "osc-at-inf"
        assert checked and set(checked) == {"closed" if power else "numeric"}


def test_phase_table_budget(monkeypatch):
    # 64 first cells take 960 samples; the bisection of x^0.5 near 0
    # needs more than the budget allows
    monkeypatch.setattr(quadrature, "EVAL_BUDGET", 1500)
    with pytest.raises(quadrature.BudgetExceededError):
        PhaseTable(np.sqrt, 0.0, 10.0)


def _d_sqrt_f(x):
    # (|f|^(1/2))' for f = x (1 + sin(x)^2 / 2)
    f = x * (1.0 + 0.5 * np.sin(x) ** 2)
    return (1.0 + 0.5 * np.sin(x) ** 2 + x * np.sin(x) * np.cos(x)) \
        / (2.0 * np.sqrt(f))


def test_y_of_x_matches_adaptive_quadrature():
    # f = x * (1 + sin(x)^2 / 2): no closed-form phase
    def sqrt_f(x):
        x = np.asarray(x, float)
        return np.sqrt(x * (1.0 + 0.5 * np.sin(x) ** 2))

    table = PhaseTable(sqrt_f, 1.0, 20.0)
    pm = PhaseMap.build(table, lambda x: 1.0 / sqrt_f(x), _d_sqrt_f,
                        _ys(table.span, 0.01))
    xs = np.linspace(1.0, 20.0, 57).reshape(3, 19)
    got = pm.y_of_x(xs)
    assert got.shape == xs.shape
    # the oracle integrates adaptively from the origin, so it also checks
    # the nodes y_of_x starts from
    want = [quadrature.integrate_finite(sqrt_f, 1.0, x, tol=1e-11).value
            for x in xs.ravel()]
    assert np.max(np.abs(got.ravel() - want)) < 1e-13
    assert pm.y_of_x(pm.x_nodes[7]) == pm.y_nodes[7]
    # one cell from the nearest node is a check, not a first guess: far
    # past the last node it misses 1e-13 and raises
    with pytest.raises(quadrature.QuadratureError):
        pm.y_of_x(np.array([2.0, 40.0]))


def test_y_of_x_at_graded_nodes():
    # y nodes of a dyadic graded grid (steps 0.002 to 0.128, as the march
    # grades them): the nearest-node cell of y_of_x stays within its
    # 1e-13 check at the widest spacing, and the nodes map back to
    # themselves
    def sqrt_f(x):
        x = np.asarray(x, float)
        return np.sqrt(x * (1.0 + 0.5 * np.sin(x) ** 2))

    table = PhaseTable(sqrt_f, 1.0, 60.0)
    units = np.repeat([1, 2, 4, 8, 16, 32, 64], [64, 32, 16, 8, 4, 2, 1])
    units = np.resize(units, int(table.span / (0.002 * units.mean())))
    ys = 0.002 * np.concatenate(([0], np.cumsum(units)))
    assert ys[-1] <= table.span
    pm = PhaseMap.build(table, lambda x: 1.0 / sqrt_f(x), _d_sqrt_f, ys)
    assert np.max(np.abs(pm.y_of_x(pm.x_nodes) - ys)) < 1e-12


def test_regime_predicates():
    assert Regime.OSC_SINGULAR.oscillatory
    assert Regime.ALGEBRAIC_INFINITY.algebraic
    assert not Regime.CONSTANT_EXP.oscillatory


def test_closed_form_tails_match_the_quadrature(monkeypatch):
    # the weights of the seven seed-1 certify templates that are one power
    # (psi, or s g in the algebraic regime) and a2 where the oscillatory
    # completion reads it: every closed form within 1e-9 of the adaptive
    # quadrature of its tape, at a scalar limit and at an array of them,
    # and none of them samples
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cases

    limits = np.array([1.5, 3.0, 10.0, 40.0])
    powers = []
    for case in cases.draw_pool(cases.CERTIFY, 1, "certify", 1):
        split = transform.CoefficientSplit.from_expressions(case.f, case.g)
        cls = transform.classify_regime(
            split, case.template.endpoint,
            case.template.interval or ((0.0, 1.0) if case.template.endpoint
                                       == "zero" else (1.0, math.inf)))
        if cls.regime.algebraic:
            weights = [split.sg_tails]
        else:
            weights = [cls.psi.psi_tails] + [cls.psi.a2_tails] * \
                cls.regime.oscillatory
        for tails in weights:
            powers.append(tails.power is not None)
            if tails.power is None:
                continue
            with quadrature.Work() as work:
                exact = (tails.l1(limits[0], 1e-8), tails.l1(limits, 1e-8),
                         tails.signed(limits[0], 1e-8))
            assert work.quadrature_evaluations == 0
            quad = (quadrature.l1_tail_norm(tails.fn, limits[0], tol=1e-14),
                    quadrature.l1_tail_norm(tails.fn, limits, tol=1e-14),
                    quadrature.integrate_to_infinity(tails.fn, limits[0],
                                                     tol=1e-14))
            for e, q in zip(exact, quad):
                assert np.max(np.abs(np.asarray(e) / q.value - 1.0)) <= 1e-9
            if cls.regime.algebraic:
                moment = quadrature.integrate_finite(
                    lambda s: s * tails.fn(s), 1.0, limits, tol=1e-14).value
                assert np.max(np.abs(tails.moment(1.0, limits, 1e-8)
                                     / moment - 1.0)) <= 1e-9
    # psi of the seven, a2 of constant-osc and airy-osc; not osc-at-inf's
    # or constant-exp-decay's
    assert sum(powers) == 9 and len(powers) == 12


def test_tails_take_the_quadrature_from_a_limit_at_or_below_zero():
    # x^-2 from 0 diverges: no closed form reads it there
    tails = Tails(lambda x: x ** -2.0, expr.parse("x^-2"))
    assert tails.l1(2.0, 1e-10) == 0.5
    with pytest.raises(quadrature.DivergenceError):
        tails.l1(0.0, 1e-10)
    # p >= -1 has no finite tail, and the quadrature says so
    slow = Tails(lambda x: 1.0 / x, expr.parse("1/x"))
    assert slow.power is None
    with pytest.raises(quadrature.DivergenceError):
        slow.l1(1.0, 1e-8)
