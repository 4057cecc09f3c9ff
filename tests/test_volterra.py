import cmath
import dataclasses
import fractions
import functools
import math
import re
import types

import numpy as np
import pytest

from lgasym import quadrature, volterra
from lgasym.oracle import integrate_ivp
from lgasym.volterra import (
    EnvelopeError,
    StepTooLargeError,
    VolterraError,
    complete_algebraic,
    complete_exponential,
    complete_oscillatory,
    hermite,
    solve_algebraic,
    solve_kernel,
)


# -------------------------------------------------------- interpolation

def test_hermite_exact_on_cubics():
    h = 0.3
    xs = h * np.arange(11)
    vals = xs ** 3 - 2.0 * xs
    derivs = 3.0 * xs ** 2 - 2.0
    ts = np.linspace(0.0, 3.0, 50)
    got = hermite(xs, vals, derivs, ts)
    assert np.max(np.abs(got - (ts ** 3 - 2.0 * ts))) < 1e-12


def test_hermite_complex_and_scalar():
    h = 0.5
    xs = h * np.arange(6)
    vals = np.exp(1j * xs)
    derivs = 1j * vals
    v = hermite(xs, vals, derivs, 1.3)
    assert isinstance(v, complex)
    assert v == pytest.approx(cmath.exp(1.3j), abs=2e-4)


def test_hermite_range_guard():
    xs = np.arange(4.0)
    with pytest.raises(ValueError):
        hermite(xs, xs, np.ones(4), 3.5)


# ------------------------------------------------------- kernel march

def _samples(span, h, origin=0.0):
    """The sample positions of a uniform march of step h over span: the
    nodes and midpoint of every cell."""
    return origin + 0.5 * h * np.arange(2 * int(round(span / h)) + 1)


def test_kernel_zero_perturbation_is_identity():
    sol = solve_kernel(np.zeros(201), 0.05, 1.0)
    assert np.all(sol.z == 1.0)
    assert np.all(sol.z_deriv == 0.0)
    assert np.all(sol.envelope_log == 0.0)


def _constant_w_reference(c, mu, y):
    # z'' + mu z' = c z with z(0)=1, z'(0)=0, via the characteristic roots
    disc = cmath.sqrt(mu * mu / 4.0 + c)
    lp = -mu / 2.0 + disc
    lm = -mu / 2.0 - disc
    A = -lm / (lp - lm)
    B = lp / (lp - lm)
    z = A * cmath.exp(lp * y) + B * cmath.exp(lm * y)
    dz = A * lp * cmath.exp(lp * y) + B * lm * cmath.exp(lm * y)
    return z, dz


def test_kernel_constant_w_exponential():
    c, Y, h = 0.3, 2.0, 0.004
    sol = solve_kernel(np.full(len(_samples(Y, h)), c), h, 1.0)
    want, dwant = _constant_w_reference(c, 2.0, Y)
    assert sol.z[-1] == pytest.approx(want.real, rel=1e-7)
    assert sol.z_deriv[-1] == pytest.approx(dwant.real, rel=1e-6)


def test_kernel_constant_w_oscillatory():
    c, Y, h = 0.25, 3.0, 0.004
    sol = solve_kernel(np.full(len(_samples(Y, h)), c), h, 1j)
    want, _ = _constant_w_reference(c, 2.0j, Y)
    assert abs(sol.z[-1] - want) < 1e-7


def test_kernel_march_fourth_order():
    # halving h must cut the error by ~16, on both kernels
    Y = 6.0

    def run(h, zeta):
        t = _samples(Y, h)
        return solve_kernel(np.exp(-t), h, zeta).z[-1]

    for zeta in (1.0, 1j):
        ref = run(0.0025, zeta)
        errs = [abs(run(h, zeta) - ref) for h in (0.08, 0.04, 0.02)]
        assert errs[0] / errs[1] == pytest.approx(16.0, abs=1.0)
        assert errs[1] / errs[2] == pytest.approx(16.0, abs=1.0)


# The block-by-block weights of one cell of step h, per mu: the half-cell
# row, then the whole-cell row, each (z_0, z_1, z_2, v_0, v_1, v_2) with
# z_j = (1/mu) int_0^Y (1 - e^{-mu (Y - t)}) L_j(t) dt and v_j = int_0^Y
# e^{-mu (Y - t)} L_j(t) dt, Y = h/2 resp. h, for the quadratics L_j
# through t = 0, h/2, h.  40 digits from mpmath 1.3.0's quad at 60-digit
# working precision, the interval cut in pieces (a rerun of h = 1e-6 and
# 25 at 90 digits on 200 pieces agreed to 3e-40); complex values are
# (real, imaginary).
_KERNEL_WEIGHTS_40 = {
    (2.0, 1e-6): (
        (
            "7.291663854167430555394345265997019710373e-14",
            "6.249998333333680555496031754712300485009e-14",
            "-1.04166635416673611109871031932043626681e-14",
            "2.083331875000562499847222254464280133929e-7",
            "3.333332083333666666597222234126982390873e-7",
            "-4.166664583333958333194444469246028025794e-8",
        ),
        (
            "1.666665166667555555158730301587258377436e-13",
            "3.333331333334222221904761999999975308648e-13",
            "1.666665555556031745873015917107573192242e-20",
            "1.66666333333633333155555634920606349215e-7",
            "6.666660000003999998222222857142666666716e-7",
            "1.666666666666333333555555460317492063483e-7",
        ),
    ),
    (2.0, 0.25): (
        (
            "4.146169327244659076395701792010388623107e-3",
            "3.658835952617984214963996883460193698944e-3",
            "-6.04809512011426230067131930890420497858e-4",
            "4.379099467884401518054192974931255608712e-2",
            "7.601566142809736490340533956641294593545e-2",
            "-9.207047642643814206532402804885825670951e-3",
        ),
        (
            "8.384626680975519055180659532620940624363e-3",
            "1.802673620699909729533798342152879891415e-2",
            "2.213020401837395504312407936453738219649e-4",
            "2.489741330471562855630534760142478541794e-2",
            "1.306131942526684720759906998236090688384e-1",
            "4.122406258629918756580418507937591902274e-2",
        ),
    ),
    (2.0, 1.5): (
        (
            "9.816287564626267323700473213356320748688e-2",
            "9.826102213976120614817751624221526592102e-2",
            "-1.564135774891642215186213068477534307236e-2",
            "1.161742487074746535259905357328735850262e-1",
            "3.03477955720477587703644967515569468158e-1",
            "-3.121728450216715569627573863044931385529e-2",
        ),
        (
            "1.276476528914724095984870317861488634971e-1",
            "3.612294064622978094559208801944101240935e-1",
            "2.356970773819576669042769193195645656727e-2",
            "-5.2953057829448191969740635722977269943e-3",
            "2.77541187075404381088158239611179751813e-1",
            "2.028605845236084666191446161360870868655e-1",
        ),
    ),
    (2.0, 25): (
        (
            "2.598766666670352526968428117732489898765",
            "3.917466666666377797434275415038297701981",
            "-5.162333333332583384364625276221221598091e-1",
            "1.079999999262827939647709786835353580358e-2",
            "4.984000000005777384647825032567379293718e-1",
            "-9.200000000149989793741611422422347048458e-3",
        ),
        (
            "2.087933333333333333333384522354298295711",
            "8.314133333333333333333329321533649568384",
            "1.847933333333333333333334374858251233849",
            "-9.200000000000000000102378041929924755923e-3",
            "3.840000000000000000000802359936752989798e-2",
            "4.707999999999999999999979169501641989688e-1",
        ),
    ),
    (2j, 1e-6): (
        (
            ("7.291666666665902777777777805679563492063e-14",
             "-2.81249999999983878968253968663883377425e-20"),
            ("6.249999999999652777777777786458333333333e-14",
             "-1.666666666666607142857142858245149911817e-20"),
            ("-1.041666666666597222222222224082341269841e-14",
             "3.124999999999875992063492065903328924162e-21"),
            ("2.083333333332770833333333365575396825396e-7",
             "-1.458333333333180555555555561135912698413e-13"),
            ("3.333333333333000000000000011904761904762e-7",
             "-1.249999999999930555555555557291666666667e-13"),
            ("-4.166666666666041666666666691468253968253e-8",
             "2.083333333333194444444444448164682539682e-14"),
        ),
        (
            ("1.666666666665777777777777920634920634909e-13",
             "-1.49999999999960317460317464638447971781e-19"),
            ("3.333333333332444444444444539682539682534e-13",
             "-1.999999999999682539682539707231040564373e-19"),
            ("1.111111111110952380952380962962962962963e-26",
             "1.666666666666190476190476234567901234566e-20"),
            ("1.666666666663666666666667460317460317374e-7",
             "-3.333333333331555555555555841269841269819e-13"),
            ("6.666666666662666666666667301587301587252e-7",
             "-6.666666666664888888888889079365079365068e-13"),
            ("1.666666666666999999999999904761904761914e-7",
             "-2.222222222221904761904761925925925925925e-26"),
        ),
    ),
    (2j, 0.25): (
        (
            ("4.52752029670233493750599287729329310559e-3",
             "-4.378813051604764379561356105923515606816e-4"),
            ("3.892707805795867649538994347708009780145e-3",
             "-2.598360517727981810679268599314991278072e-4"),
            ("-6.483335301593986231938495985486028367677e-4",
             "4.870717056400701823623868287114966183651e-5"),
            ("5.120757072301238045742106211214863021197e-2",
             "-9.055040593404669875011985754586586211179e-3"),
            ("8.281366122978773697119747961347033507772e-2",
             "-7.785415611591735299077988695416019560289e-3"),
            ("-1.031925232553865263019418930092436734299e-2",
             "1.296667060318797246387699197097205673535e-3"),
        ),
        (
            ("1.007291499520218584598783758771827709137e-2",
             "-2.305260263535510183740716485981560652628e-3"),
            ("2.048842766861227052317146873822000790323e-2",
             "-3.094148280454763379593016816421532662197e-3"),
            ("4.301686359236460177029802310430200748247e-5",
             "2.557931950410236316557171062959403352758e-4"),
            ("3.705614613959564629918523369470354536141e-2",
             "-2.014582999040437169197567517543655418275e-2"),
            ("1.604783701057571399074806330338236013423e-1",
             "-4.097685533722454104634293747644001580646e-2"),
            ("4.217825305674871392997810087925854733722e-2",
             "-8.603372718472920354059604620860401496494e-5"),
        ),
    ),
    (2j, 1.5): (
        (
            ("1.284380241971659813342933634195011766371e-1",
             "-8.335806255473337929160206892733736124169e-2"),
            ("1.240045152058256541109389093007778459678e-1",
             "-5.191351464388887426456920133553683131577e-2"),
            ("-2.01268398199173629672797355788461998761e-2",
             "9.64532384963586129160211304824602323413e-3"),
            ("1.457838748905332414167958621453252775166e-1",
             "-2.568760483943319626685867268390023532741e-1"),
            ("3.961729707122222514708615973289263373685e-1",
             "-2.480090304116513082218778186015556919355e-1"),
            ("-4.320935230072827741679577390350795353174e-2",
             "4.02536796398347259345594711576923997522e-2"),
        ),
        (
            ("6.166784876502867459068242219248052862752e-2",
             "-2.695647896973520279150119760705777867308e-1"),
            ("3.95180552113476583137879020115354640583e-1",
             "-4.719758326754365759981991122433328370139e-1"),
            ("4.064972327160610658933175637498015638795e-2",
             "2.682062438775540943839728901593819370642e-2"),
            ("-2.891295793947040558300239521411555734616e-1",
             "-1.23335697530057349181364844384961057255e-1"),
            ("5.60483346491268480036017755133343259722e-2",
             "-7.903611042269531662757580402307092811659e-1"),
            ("3.036412487755108188767945780318763874128e-1",
             "-8.129944654321221317866351274996031277589e-2"),
        ),
    ),
    (2j, 25): (
        (
            ("-2.497894980925896055151204382247087740424e-1",
             "-2.627333621313118710709357717317775936566"),
            ("2.526540727524646816995734661026193866723e-1",
             "-4.186596604304014357051454165118092035644"),
            ("-6.652776257434757052767075818916618287106e-4",
             "5.308422880926898105353106089649663968379e-1"),
            ("-4.633390929290408808538210130221853979782e-2",
             "4.995789961851792110302408764494175480847e-1"),
            ("-3.985987527469538076957499690285073795418e-2",
             "-5.053081455049293633991469322052387733446e-1"),
            ("2.001790951871295440395455126326612700914e-2",
             "1.330555251486951410553415163783323657421e-3"),
        ),
        (
            ("-2.451911435171904049963275866053831793716e-1",
             "-2.129347606390452259186531631719208665908"),
            ("5.275524251284885099032707291131637324197e-3",
             "-8.372842553786138741843443989428883771208"),
            ("2.486741121428772013800556145889972940673e-1",
             "-2.063403553249391195448622790580063199355"),
            ("-9.202854611423785170639659677175066514901e-2",
             "4.903822870343808099926551732107663587433e-1"),
            ("-7.901844090561081702022131219110087575024e-2",
             "-1.055104850256977019806541458226327464839e-2"),
            ("3.985956016788427576942108550654026795591e-2",
             "-4.973482242857544027601112291779945881347e-1"),
        ),
    ),
}


def _weight(value):
    if isinstance(value, tuple):
        return complex(float(value[0]), float(value[1]))
    return float(value)


@pytest.mark.parametrize("mu, h", sorted(_KERNEL_WEIGHTS_40, key=str))
def test_kernel_weights_against_40_digit_values(mu, h):
    # h = 1.5 and 25 are past the pipeline's cap on a cell (0.25), where a
    # step override can put them; at 1.5 the half cell takes the
    # Gauss-Legendre sums and the whole cell the closed forms, at 25 both
    # take the closed forms.  The bound is relative to the cell's largest
    # weight: the whole-cell z_2 loses its leading term (int (h - t) L_2
    # = 0), so it carries only absolute accuracy.
    want = [[_weight(v) for v in row] for row in _KERNEL_WEIGHTS_40[mu, h]]
    got = volterra._kernel_weights(mu, [h])[..., 0]
    largest = max(abs(v) for row in want for v in row)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == 8
        for g, w in zip(got_row[:6], want_row):
            assert abs(g - w) <= 1e-14 * largest
        # lift = sum v_j, decay = -mu lift
        assert got_row[6] == sum(got_row[3:6])
        assert got_row[7] == -mu * got_row[6]


def test_kernel_conjugation_symmetry():
    h = 0.02
    t = _samples(8.0, h)
    w = np.sin(2.0 * t) * np.exp(-t)
    fwd = solve_kernel(w, h, 1j)
    bwd = solve_kernel(w, h, -1j)
    assert np.max(np.abs(fwd.z - np.conj(bwd.z))) == 0.0
    assert np.max(np.abs(fwd.z_deriv - np.conj(bwd.z_deriv))) == 0.0


def test_kernel_envelope_report():
    h = 0.02
    t = _samples(15.0, h)
    sol = solve_kernel(np.exp(-t), h, 1.0)
    rep = sol.envelope_report()
    # int_0^inf e^{-t} = 1, so the envelope log tends to 1 and |z| <= e
    assert rep["envelope_log_end"] == pytest.approx(1.0, abs=1e-3)
    assert rep["max_abs_z"] <= math.e
    assert rep["z_env_max_ratio"] <= 1.0 + 1e-6
    assert rep["l1_q_excess"] <= 1e-12


def test_kernel_interpolants():
    h = 0.04
    t = _samples(6.0, h)
    sol = solve_kernel(np.exp(-t), h, 1.0)
    # z_at reproduces the nodes and interpolates smoothly between them
    assert sol.z_at(t[37]) == pytest.approx(sol.z[37], rel=1e-14)
    mid = 0.5 * (t[10] + t[11])
    assert sol.z[10] <= sol.z_at(mid) <= sol.z[11] * 1.001
    assert sol.deriv_at(t[50]) == pytest.approx(sol.z_deriv[50], rel=1e-12)


def test_deriv_slopes_cached_per_solution():
    h = 0.04
    t = _samples(6.0, h)
    sol = solve_kernel(np.exp(-t) * np.sin(3.0 * t), h, 1j)
    ys = np.array([0.13, 2.71, 5.99])
    # z' in cell k: e^{-mu (t - t_k)} times the Hermite interpolant of
    # e^{mu (t - t_k)} z', whose slopes are e^{mu (t - t_k)} w z
    g, E, wz = sol.grid, sol.z_deriv, sol.w * sol.z
    k = np.searchsorted(g, ys) - 1
    width = g[k + 1] - g[k]
    u = (ys - g[k]) / width
    grow = np.exp(sol.mu * sol.cell_h[k])
    want = np.exp(-sol.mu * u * width) * volterra._hermite(
        u, E[k], wz[k] * width, grow * E[k + 1], grow * wz[k + 1] * width)
    assert np.array_equal(sol.deriv_at(ys), want)
    assert np.array_equal(sol.deriv_at(ys), want)
    # a replaced solution must not inherit the slopes of the original
    conj = dataclasses.replace(sol, mu=sol.mu.conjugate(), z=np.conj(sol.z),
                               z_deriv=np.conj(sol.z_deriv))
    assert np.array_equal(conj.deriv_at(ys), np.conj(want))


def test_deriv_at_is_fourth_order_between_nodes():
    # exact node data of z'' + mu z' = c z (kernel) and of x z = sinh(k x)
    # / k (algebraic, g = k^2 from a cutoff at 0): the slopes of z' come
    # from the equation, so z' between nodes is as good as z itself
    h, c = 0.02, 0.3
    t = h * np.arange(301)
    mid = t[:-1] + 0.5 * h
    for mu in (2.0, 2j):
        rp, rm = (-mu + cmath.sqrt(mu * mu + 4 * c)) / 2, \
            (-mu - cmath.sqrt(mu * mu + 4 * c)) / 2

        def zd(y):
            return rp * rm * (np.exp(rm * y) - np.exp(rp * y)) / (rp - rm)

        sol = dataclasses.replace(
            solve_kernel(np.full(301, c), 2 * h, mu / 2),
            z=(rp * np.exp(rm * t) - rm * np.exp(rp * t)) / (rp - rm),
            z_deriv=zd(t))
        # a second difference for the slopes missed by 4e-5 here
        want = zd(mid)
        assert np.max(np.abs(sol.deriv_at(mid) - want)) \
            < 1e-8 * np.max(np.abs(want))
    k = math.sqrt(c)
    x = h * np.arange(301)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(x == 0, 1.0, np.sinh(k * x) / (k * x))

        def zd(x):
            return (k * x * np.cosh(k * x) - np.sinh(k * x)) / (k * x * x)

        sol = dataclasses.replace(solve_algebraic(np.full(301, c), 0.0,
                                                  2 * h),
                                  z=z, z_deriv=np.where(x == 0, 0.0, zd(x)))
    want = zd(mid)
    assert np.max(np.abs(sol.deriv_at(mid) - want)) \
        < 1e-8 * np.max(np.abs(want))


def test_kernel_step_guards():
    with pytest.raises(StepTooLargeError):
        solve_kernel(np.full(31, 10.0), 0.1, 1.0)
    with pytest.raises(VolterraError):
        solve_kernel(np.array([1.0, np.nan, 1.0]), 0.1, 1.0)
    with pytest.raises(VolterraError):
        solve_kernel(np.array([1.0]), 0.1, 1.0)


# ----------------------------------------------------- algebraic march

def test_algebraic_zero_perturbation_is_identity():
    sol = solve_algebraic(np.zeros(101), 1.0, 0.05)
    assert np.all(sol.z == 1.0)
    assert np.all(sol.z_deriv == 0.0)
    assert np.all(sol.envelope_log == 0.0)


def _algebraic_end(g_of_s, a, X, h):
    s = _samples(X - a, h, origin=a)
    return solve_algebraic(g_of_s(s), a, h).z[-1]


def _algebraic_against_ode(sign, X):
    """Errors of the algebraic march of g = sign s^-4 from a = 1 at steps
    0.04, 0.02 and 0.005 against u(X) / X: u = x z solves u'' = g u with
    u(a) = a, u'(a) = 1, an independent route to z(X)."""
    a = 1.0
    traj = integrate_ivp(lambda x: sign * x ** -4.0, a, a, 1.0, X,
                         tol=1e-12)
    u, _ = traj.at(X)
    return [_algebraic_end(lambda s: sign * s ** -4.0, a, X, h) - u / X
            for h in (0.04, 0.02, 0.005)]


def test_algebraic_against_ode_transport():
    # the march is O(h^4): halving h cuts the error sixteenfold, and at h
    # = 0.005 it is about 2e-11
    coarse, fine, finest = _algebraic_against_ode(1.0, 30.0)
    assert coarse / fine == pytest.approx(16.0, abs=1.0)
    assert abs(finest) <= 1e-10


def test_algebraic_negative_perturbation():
    coarse, fine, finest = _algebraic_against_ode(-1.0, 25.0)
    assert coarse / fine == pytest.approx(16.0, abs=1.0)
    assert abs(finest) <= 1e-10


def test_algebraic_guards():
    with pytest.raises(VolterraError):
        solve_algebraic(np.zeros(3), -1.0, 0.1)
    with pytest.raises(StepTooLargeError):
        # s g at the far end is ~20, times h = 2
        solve_algebraic(np.full(201, 1.0), 1.0, 0.1)


# --------------------------------------------------------- completions

def test_complete_exponential_against_far_march():
    h = 0.004

    def run(Y):
        t = _samples(Y, h)
        return solve_kernel(np.exp(-t), h, 1.0)

    near = run(15.0)
    far = run(40.0)
    G0 = math.exp(-15.0)
    comp = complete_exponential(near, G0, G0)
    assert comp.value == pytest.approx(far.z[-1], abs=1e-9)
    assert comp.residual_bound < 1e-12
    # the far-march value itself must sit inside the claimed residual of
    # its own completion
    comp_far = complete_exponential(far, math.exp(-40.0), math.exp(-40.0))
    assert abs(comp_far.value - comp.value) < 1e-9


def test_complete_exponential_refuses_fat_tail():
    sol = solve_kernel(np.full(11, 0.1), 0.01, 1.0)
    with pytest.raises(VolterraError):
        complete_exponential(sol, 0.6, 0.6)


def _osc_tails(Y):
    # int_Y^inf e^{-t} e^{k i t} dt for k = 0, +2, -2
    G0 = math.exp(-Y)
    Gp = cmath.exp((-1.0 + 2.0j) * Y) / (1.0 - 2.0j)
    Gm = cmath.exp((-1.0 - 2.0j) * Y) / (1.0 + 2.0j)
    return G0, Gp, Gm


def test_complete_oscillatory_against_far_march():
    h = 0.004

    def run(Y):
        t = _samples(Y, h)
        return solve_kernel(np.exp(-t), h, 1j)

    G0, Gp, Gm = _osc_tails(15.0)
    near = complete_oscillatory(run(15.0), G0, Gp, Gm, G0, R2=0.0)
    G0f, Gpf, Gmf = _osc_tails(40.0)
    far = complete_oscillatory(run(40.0), G0f, Gpf, Gmf, G0f, R2=0.0)
    assert abs(near.xi1 - far.xi1) < 1e-8
    assert abs(near.xi2 - far.xi2) < 1e-8
    assert near.residual_bound < 1e-12
    # unimodular invariant of the real equation: the Wronskian-type
    # combination |xi1|^2 - |xi2|^2 = 1 up to scheme error
    assert abs(near.xi1) ** 2 - abs(near.xi2) ** 2 == pytest.approx(
        1.0, abs=1e-6)


def test_complete_oscillatory_refuses_fat_tail():
    sol = solve_kernel(np.full(11, 0.1), 0.01, 1j)
    with pytest.raises(VolterraError):
        complete_oscillatory(sol, 0.5, 0.0, 0.0, 0.5, R2=0.0)


def test_complete_oscillatory_bound_carries_the_moment_remainder():
    # Gp and Gm may each miss by R2 / 4, which moves the solved
    # coefficients by at most R2 (1 + size) / (4 (1 - L))
    h = 0.008
    t = _samples(15.0, h)
    sol = solve_kernel(np.exp(-t), h, 1j)
    G0, Gp, Gm = _osc_tails(15.0)
    L, R2 = 0.3, 1e-3
    exact = complete_oscillatory(sol, G0, Gp, Gm, L, R2=0.0)
    c = complete_oscillatory(sol, G0, Gp, Gm, L, R2=R2)
    assert (c.xi1, c.xi2, c.eta1, c.eta2) == (exact.xi1, exact.xi2,
                                              exact.eta1, exact.eta2)
    size = abs(c.xi1) + abs(c.xi2) + abs(c.eta1) + abs(c.eta2)
    assert c.residual_bound - exact.residual_bound == pytest.approx(
        0.25 * R2 * (1.0 + size) / (1.0 - L), rel=1e-12)


def test_real_completions_refuse_the_same_tail_mass():
    exp_run = solve_kernel(np.full(11, 0.1), 0.01, 1.0)
    alg_run = solve_algebraic(np.zeros(11), 1.0, 0.1)
    messages = set()
    for complete, sol in ((complete_exponential, exp_run),
                          (complete_algebraic, alg_run)):
        complete(sol, 0.49, 0.49)
        with pytest.raises(VolterraError) as err:
            complete(sol, 0.5, 0.5)
        messages.add(str(err.value))
    assert messages == {"tail mass 0.5 too large to complete; march further"}


def test_complete_algebraic_against_far_march():
    h = 0.004

    def run(X):
        s = _samples(X - 1.0, h, origin=1.0)
        return solve_algebraic(s ** -4.0, 1.0, h)

    near = run(30.0)
    far = run(300.0)
    W0 = 0.5 * 30.0 ** -2
    comp = complete_algebraic(near, W0, W0)
    W0f = 0.5 * 300.0 ** -2
    comp_far = complete_algebraic(far, W0f, W0f)
    # z approaches its limit only like x z', so the two completions agree
    # within their certified residuals, not to machine precision
    assert abs(comp.value - comp_far.value) <= \
        comp.residual_bound + comp_far.residual_bound + 1e-9
    assert abs(comp.value - comp_far.value) > 1e-6  # the bound is doing work
    assert comp_far.residual_bound < 1e-2 * comp.residual_bound


def test_complete_algebraic_refuses_fat_tail():
    sol = solve_algebraic(np.zeros(11), 1.0, 0.1)
    with pytest.raises(VolterraError):
        complete_algebraic(sol, 0.7, 0.7)


def test_completions_without_tail_match_the_end_state():
    # with no perturbation past the grid end, every completion is the tail
    # model fitted to (z, z') at the grid end
    h = 0.008
    t = _samples(8.0, h)
    w = 0.3 * np.exp(-t) * np.cos(3.0 * t)
    sol = solve_kernel(w, h, 1.0)
    z, E = sol.z[-1], sol.z_deriv[-1]
    assert complete_exponential(sol, 0.0, 0.0).value == pytest.approx(
        z + 0.5 * E, rel=1e-15, abs=0.0)
    sol = solve_kernel(w, h, 1j)
    c = complete_oscillatory(sol, 0.0, 0.0, 0.0, 0.0, R2=0.0)
    z, E, back = sol.z[-1], sol.z_deriv[-1], cmath.exp(-sol.mu * sol.grid[-1])
    assert abs(c.xi1 + c.xi2 * back - z) <= 1e-15 * abs(z)
    assert abs(-sol.mu * c.xi2 * back - E) <= 1e-15 * abs(z)
    assert c.eta1 == c.xi2.conjugate() and c.eta2 == c.xi1.conjugate()
    s = 1.0 + t
    sol = solve_algebraic(w / s ** 2, 1.0, h)
    z, zd = sol.z[-1], sol.z_deriv[-1]
    assert complete_algebraic(sol, 0.0, 0.0).value == pytest.approx(
        z + sol.grid[-1] * zd, rel=1e-15, abs=0.0)


# ------------------------------------------- scan against the loop march
#
# The marches run as a blocked scan of zeta = z - 1 and one memory v over
# the nodes, with every midpoint read back from its cell's affine map.
# The plain sequential march below, one interpreted cell at a time, solves
# each cell's 2x2 system for (z_m, z_{k+1}) by Cramer's rule and is the
# oracle: both must agree on every field and fail the same way at the
# same sample.  The loop also sums the moments of w z that the
# completions read off the end state.

# int_0^rho u^p L_j(u) du for the quadratics L_j through u = 0, 1/2, 1:
# rows p = 0, 1, 2, for the half cell (rho = 1/2) and the whole cell
_F = fractions.Fraction
_HALF_M = ((_F(5, 24), _F(1, 3), _F(-1, 24)), (_F(1, 32), _F(5, 48),
                                                 _F(-1, 96)),
           (_F(7, 960), _F(3, 80), _F(-1, 320)))
_CELL_M = ((_F(1, 6), _F(2, 3), _F(1, 6)), (_F(0), _F(1, 3), _F(1, 6)),
           (_F(-1, 60), _F(1, 5), _F(3, 20)))


def _reflected_weights(mu, h):
    """int_0^h e^{mu t} L_j(t / h) dt, by 20-point Gauss-Legendre."""
    x, wt = np.polynomial.legendre.leggauss(20)
    u = 0.5 * (x + 1.0)
    basis = np.array([(2 * u - 1) * (u - 1), 4 * u * (1 - u), u * (2 * u - 1)])
    return tuple(0.5 * h * basis @ (wt * np.exp(mu * h * u)))


def _reference_march(w, rows, half, left, right, zero):
    """The sequential block-by-block march.  rows(k) gives cell k's (mid,
    end) weight rows as volterra._cell_maps takes them; half cell i is
    half[i] wide and weights |w| at its two samples by left[i] and
    right[i].  Returns the fields of the run and (z_k, z_m, z_{k+1}) per
    cell."""
    out = dict(z=[1.0 + zero], z_deriv=[zero], envelope_log=[0.0],
               l1_q=[0.0], z_max=1.0, steps=len(w) // 2)
    cells = []
    T = L1 = slack = 0.0
    dev = zero                      # z - 1, carried like the scan's zeta
    for k in range(len(w) // 2):
        (a0, a1, a2, p0, p1, p2, lift_m, decay_m), \
            (c0, c1, c2, e0, e1, e2, lift, decay) = rows(k)
        wk, wm, w1 = (float(x) for x in w[2 * k:2 * k + 3])
        zk, vk = out["z"][-1], out["z_deriv"][-1]
        det = (1.0 - a1 * wm) * (1.0 - c2 * w1) - (a2 * w1) * (c1 * wm)
        if abs(det) < 0.5:
            raise StepTooLargeError("implicit update lost contraction")
        # the system for the rises z_m - z_k and z_{k+1} - z_k
        rm = zk * (a0 * wk + a1 * wm + a2 * w1) + lift_m * vk
        re = zk * (c0 * wk + c1 * wm + c2 * w1) + lift * vk
        zm = 1.0 + (dev + ((1.0 - c2 * w1) * rm + a2 * w1 * re) / det)
        dev = dev + ((1.0 - a1 * wm) * re + c1 * wm * rm) / det
        ze = 1.0 + dev
        qk, qm, qe = wk * zk, wm * zm, w1 * ze
        vm = vk + decay_m * vk + p0 * qk + p1 * qm + p2 * qe
        ve = vk + decay * vk + e0 * qk + e1 * qm + e2 * qe
        for i, (zi, vi) in enumerate(((zm, vm), (ze, ve))):
            j = 2 * k + i
            wl, wr, zl = float(w[j]), float(w[j + 1]), out["z"][-1]
            dT = left[j] * abs(wl) + right[j] * abs(wr)
            T += dT
            slack += half[j] ** 2 * dT
            L1 += left[j] * abs(wl * zl) + right[j] * abs(wr * zi)
            _reference_envelope(zi, T, slack, 2 * k + i + 1)
            out["z_max"] = max(out["z_max"], abs(zi))
            out["z"].append(zi)
            out["z_deriv"].append(vi)
            out["envelope_log"].append(T)
            out["l1_q"].append(L1)
        cells.append((zk, zm, ze))
    return out, cells


def _reference_kernel(w, h, zeta):
    oscillatory = complex(zeta).real == 0.0
    mu = complex(2.0 * zeta) if oscillatory else float(2.0 * zeta)
    steps = np.broadcast_to(np.asarray(h, dtype=float), (len(w) // 2,))
    weights = functools.lru_cache(None)(
        lambda hk: (volterra._kernel_weights(mu, [hk])[..., 0].tolist(),
                    _reflected_weights(mu, hk)))
    half = np.repeat(0.5 * steps, 2).tolist()
    trapezoid = [0.5 * x for x in half]
    out, cells = _reference_march(
        w, lambda k: weights(float(steps[k]))[0], half, trapezoid, trapezoid,
        0j if oscillatory else 0.0)
    # Q = int w z by Simpson's rule, P = int e^{mu t} w z on the same
    # quadratics
    Q = P = 0.0
    phase = 1.0 + 0j
    for k, (zk, zm, ze) in enumerate(cells):
        hk = float(steps[k])
        qk, qm, qe = (float(x) * z for x, z in zip(w[2 * k:2 * k + 3],
                                                   (zk, zm, ze)))
        Q += hk / 6.0 * (qk + 4.0 * qm + qe)
        r0, r1, r2 = weights(hk)[1]
        P += phase * (r0 * qk + r1 * qm + r2 * qe)
        phase *= cmath.exp(mu * hk)
    return dict(out, Q=Q, P=P)


# per row and j: rho M0 - M1, rho M1 - M2, M0, M1, M2, rounded once
_ALGEBRAIC_M = [[tuple(float(x) for x in (rho * m0 - m1, rho * m1 - m2, m0,
                                          m1, m2)) for m0, m1, m2 in zip(*M)]
                for rho, M in ((_F(1, 2), _HALF_M), (_F(1), _CELL_M))]


def _algebraic_rows(sk, h, xm, xe):
    """The algebraic march's (mid, end) rows, written out from _HALF_M and
    _CELL_M in the local coordinate t = s - sk."""
    rows = []
    for moments, x in zip(_ALGEBRAIC_M, (xm, xe)):
        z = [h * h * (near * sk + far * h) / x
             for near, far, _, _, _ in moments]
        v = [h * (m0 * sk * sk + 2.0 * m1 * sk * h + m2 * h * h)
             for _, _, m0, m1, m2 in moments]
        rows.append((*z, *v, (x - sk) / (sk * x) if sk > 0.0 else 0.0, 0.0))
    return rows


def _reference_algebraic(g, a, h):
    steps = np.broadcast_to(np.asarray(h, dtype=float), (len(g) // 2,))
    grid = a + np.concatenate(([0.0], np.cumsum(np.repeat(0.5 * steps, 2))))
    half = np.repeat(0.5 * steps, 2).tolist()
    # exact first moments of s against the hat halves of each half cell
    left = [hh * (0.5 * s + hh / 6.0) for hh, s in zip(half, grid.tolist())]
    right = [hh * (0.5 * s + hh / 3.0) for hh, s in zip(half, grid.tolist())]
    out, cells = _reference_march(
        g, lambda k: _algebraic_rows(*(float(x) for x in (
            grid[2 * k], steps[k], grid[2 * k + 1], grid[2 * k + 2]))),
        half, left, right, 0.0)
    # S1 = int s g z on the same quadratics, and z' = S2 / x^2
    S1 = 0.0
    for k, (zk, zm, ze) in enumerate(cells):
        sk, hk = float(grid[2 * k]), float(steps[k])
        S1 += sum((sk * hk * m0 + hk * hk * m1) * float(gj) * z
                  for (_, _, m0, m1, _), gj, z in zip(
                      _ALGEBRAIC_M[1], g[2 * k:2 * k + 3], (zk, zm, ze)))
    S2 = out["z_deriv"][-1]
    out["z_deriv"] = [S2i / float(x) ** 2 if x > 0.0 else 0.0
                      for S2i, x in zip(out["z_deriv"], grid)]
    return dict(out, S1=S1, S2=S2)


def _reference_envelope(zk, T, slack, node):
    if not abs(zk) <= volterra._envelope_bound(T, slack):
        raise EnvelopeError(
            "|z| = %.6g exceeded its envelope %.6g at node %d"
            % (abs(zk), math.exp(T), node))


def _march_pair(kind, n, seed=7, h=1e-4):
    """(scan, reference) callables for one march of n nodes (2n - 1
    samples) on seeded random data; h is one step or the steps of all
    n - 1 cells."""
    rng = np.random.default_rng(seed)
    if kind == "algebraic":
        a = 1.0
        half = np.repeat(0.5 * np.broadcast_to(h, n - 1), 2)
        s = a + np.concatenate(([0.0], np.cumsum(half)))
        g = rng.uniform(-0.5, 1.0, 2 * n - 1) / s ** 3
        return (lambda: solve_algebraic(g, a, h),
                lambda: _reference_algebraic(g, a, h))
    w = rng.uniform(-0.5, 1.0, 2 * n - 1)
    return (lambda: solve_kernel(w, h, kind),
            lambda: _reference_kernel(w, h, kind))


def _graded_steps(cells, h=1e-4):
    """Steps h 2^j of a dyadic graded grid whose levels jump up and down:
    runs of levels 0, 1, 3, 0, 4, 2, repeated to the given cell count."""
    units = np.repeat([1, 2, 8, 1, 16, 4], [40, 20, 5, 30, 3, 10])
    return h * np.resize(units, cells).astype(float)


_MARCHES = (1.0, 1j, -1j, "algebraic")

# node counts: the smallest marches, a step count just short of, equal to
# and just past a whole number of blocks, one that leaves a ragged last
# block, and a long march
_SCAN_NODES = (2, 3, 800, 801, 802, 1004, 80001)


def test_scan_node_counts_cover_the_block_layouts():
    def layout(n):
        m = n - 1
        size = volterra._block_size(m)
        return m % size, size
    assert layout(801) == (0, 5)             # 160 whole blocks
    assert layout(800) == (3, 4)             # last block one step short
    assert layout(802) == (1, 5)             # one step into a new block
    assert layout(1004)[0] not in (0, 1, layout(1004)[1] - 1)


def _assert_scan_matches(sol, ref):
    assert sol.steps == ref["steps"]
    for name in ("z", "z_deriv", "envelope_log", "l1_q"):
        got = getattr(sol, name)
        want = np.array(ref[name])
        assert got.shape == want.shape and got.dtype == want.dtype, name
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
    assert abs(sol.z_max - ref["z_max"]) <= 1e-13 * ref["z_max"]
    # the end-state identities the completions rely on, against the loop's
    # running moments of w z: their rounding grows with the node count
    z, zd, Y = sol.z[-1], sol.z_deriv[-1], sol.grid[-1]
    if sol.kind == "algebraic":
        pairs = {"S1": z - 1.0 + Y * zd, "S2": Y * Y * zd}
    else:
        pairs = {"Q": sol.mu * (z - 1.0) + zd}
        if sol.kind == "oscillatory":
            pairs["P"] = cmath.exp(sol.mu * Y) * zd
    tol = 4 * len(sol.z) * np.finfo(float).eps * max(1.0, abs(z))
    for name, got in pairs.items():
        assert abs(got - ref[name]) <= tol, name


@pytest.mark.parametrize("n", _SCAN_NODES)
@pytest.mark.parametrize("kind", _MARCHES)
def test_scan_matches_sequential_march(kind, n):
    scan, reference = _march_pair(kind, n)
    _assert_scan_matches(scan(), reference())


@pytest.mark.parametrize("n", (2, 801, 20001))
@pytest.mark.parametrize("kind", (1.0, 1j, "algebraic"))
def test_scan_matches_sequential_march_on_graded_grid(kind, n):
    scan, reference = _march_pair(kind, n, h=_graded_steps(n - 1))
    sol = scan()
    _assert_scan_matches(sol, reference())
    assert sol.h == 0.5e-4 and np.array_equal(
        sol.cell_h, np.repeat(0.5 * _graded_steps(n - 1), 2))


@pytest.mark.parametrize("kind", _MARCHES)
def test_uniform_step_array_is_bitwise_the_scalar_step(kind):
    n = 1004
    scalar, _ = _march_pair(kind, n)
    array, _ = _march_pair(kind, n, h=np.full(n - 1, 1e-4))
    one, other = scalar(), array()
    for field in dataclasses.fields(one):
        a, b = getattr(one, field.name), getattr(other, field.name)
        assert np.array_equal(a, b), field.name


@pytest.mark.parametrize("zeta", (1.0, 1j))
def test_one_cell_map_call_per_run_of_equal_steps(zeta, monkeypatch):
    # three runs of 10 cells each: one _cell_maps call per run, each with
    # that run's scalar weights
    steps = np.repeat([0.01, 0.02, 0.04], 10)
    grid = np.concatenate(([0.0], np.cumsum(np.repeat(0.5 * steps, 2))))
    calls = []
    cell_maps = volterra._cell_maps

    def counted(w0, wm, w1, mid, end):
        calls.append((len(w0), np.ndim(mid[0])))
        return cell_maps(w0, wm, w1, mid, end)

    monkeypatch.setattr(volterra, "_cell_maps", counted)
    sol = solve_kernel(np.exp(-grid), steps, zeta, grid=grid)
    assert calls == [(10, 0)] * 3
    assert sol.steps == 30


def _long_double_march(sol):
    """z and z' at the samples of a march, marched again one cell at a time
    in long double on the first form of the scheme, which carries z next
    to both running moments of w z: (Q, E), with e^{-mu Y} taken as 1 -
    mu sum_j v_j, on the kernel runs, and (S1, S2) on the algebraic ones.
    Each cell solves its 2x2 system for (z_m, z_{k+1}) by Cramer's rule,
    with the moments of the quadratics from _HALF_M and _CELL_M."""
    def ld(x):
        return np.longdouble(x.numerator) / np.longdouble(x.denominator)

    algebraic = sol.kind == "algebraic"
    wide = np.clongdouble if sol.kind == "oscillatory" else np.longdouble
    mu = wide(sol.mu)
    w, grid = sol.w.astype(np.longdouble), sol.grid.astype(np.longdouble)
    P, M = wide(0.0), wide(0.0)     # (Q, E) resp. (S1, S2)
    zs, derivs = [wide(1.0)], [M]
    kernel = functools.lru_cache(None)(
        lambda h: volterra._kernel_weights(sol.mu, [h])[..., 0])
    moments = [[[ld(x) for x in row] for row in Ms] for Ms in (_HALF_M,
                                                              _CELL_M)]
    for k, h in enumerate((2 * sol.cell_h[::2]).tolist()):
        sk, xm, xe = grid[2 * k:2 * k + 3]
        hl = np.longdouble(h)
        rows = []       # per row: (weights of q_j in z, in M, in P; D, x)
        kernel_rows = (None, None) if algebraic else kernel(h)
        for Ms, x, kr in zip(moments, (xm, xe), kernel_rows):
            if algebraic:
                first = [sk * hl * m0 + hl * hl * m1
                         for m0, m1 in zip(Ms[0], Ms[1])]
                second = [sk * sk * hl * m0 + 2 * sk * hl * hl * m1
                          + hl ** 3 * m2 for m0, m1, m2 in zip(*Ms)]
                rows.append(([a - b / x for a, b in zip(first, second)],
                             second, first, wide(1.0), x))
            else:
                simpson = [hl * m0 for m0 in Ms[0]]
                v = [wide(c) for c in kr[3:6]]
                rows.append(([(a - b) / mu for a, b in zip(simpson, v)], v,
                             simpson, 1 - mu * sum(v), x))
        # z at each row is its base plus sum_j c_j q_j
        if algebraic:
            base = [1 + P - M / x for *_, x in rows]
        else:
            base = [1 + (P - D * M) / mu for _, _, _, D, _ in rows]
        (cm, _, _, _, _), (ce, _, _, _, _) = rows
        wk, wm, w1 = w[2 * k:2 * k + 3]
        qk = wk * zs[-1]
        a11, a12 = 1 - cm[1] * wm, -cm[2] * w1
        a21, a22 = -ce[1] * wm, 1 - ce[2] * w1
        r1, r2 = base[0] + cm[0] * qk, base[1] + ce[0] * qk
        det = a11 * a22 - a12 * a21
        zm, ze = (r1 * a22 - a12 * r2) / det, (a11 * r2 - a21 * r1) / det
        q = (qk, wm * zm, w1 * ze)
        mems = [D * M + sum(c * x for c, x in zip(v, q))
                for _, v, _, D, _ in rows]
        P = P + sum(c * x for c, x in zip(rows[1][2], q))
        M = mems[1]
        zs += [zm, ze]
        derivs += [m / (x * x) for m, x in zip(mems, (xm, xe))] \
            if algebraic else mems
    return np.array(zs), np.array(derivs)


@pytest.mark.parametrize("kind", (1.0, 1j, "algebraic"))
def test_scan_against_a_long_double_march(kind):
    # the scan's error is its own rounding alone: on the oscillatory runs
    # a march that multiplies E by the rounded e^{-mu h} drifted by 3e-13
    # over these 80000 steps, since that factor's modulus is not 1
    scan, _ = _march_pair(kind, 80001)
    sol = scan()
    z, zd = _long_double_march(sol)
    assert np.max(np.abs(sol.z - z)) <= 1e-13
    assert np.max(np.abs(sol.z_deriv - zd)) <= 1e-13 * np.max(np.abs(zd))


def test_contraction_margin_is_per_cell():
    # |w| h (|s g| h for the algebraic march) passes 0.5 on the last cell
    # only: the margin is taken cell by cell
    w = np.ones(21)
    steps = np.full(10, 0.01)
    steps[-1] = 0.6
    with pytest.raises(StepTooLargeError):
        solve_kernel(w, steps, 1.0)
    with pytest.raises(StepTooLargeError):
        solve_algebraic(w, 1.0, steps * 0.8)
    steps[-1] = 0.4
    solve_kernel(w, steps, 1.0)


@pytest.mark.parametrize("kind", (1.0, 1j, "algebraic"))
def test_envelope_slack_sums_each_cells_share(kind, monkeypatch):
    # the slack at node k is sum over the cells before it of h^2 dT: the
    # steps of the cells where T grows, not the largest step on the grid
    scan, _ = _march_pair(kind, 801, h=_graded_steps(800))
    bound, seen = volterra._envelope_bound, []

    def spy(T, slack):
        seen.append(slack)
        return bound(T, slack)

    monkeypatch.setattr(volterra, "_envelope_bound", spy)
    sol = scan()
    steps = sol.cell_h
    want = np.cumsum(steps ** 2 * np.diff(sol.envelope_log))
    assert np.max(np.abs(seen[0] - want)) <= 1e-13 * want[-1]
    assert want[-1] < 0.5 * np.max(steps) ** 2 * sol.envelope_log[-1]


def test_march_rejects_bad_steps():
    for h in (np.full(5, 0.1), np.array([0.1, 0.0, 0.1]), -0.1):
        with pytest.raises(VolterraError, match="one positive step"):
            solve_kernel(np.zeros(7), h, 1.0)
        with pytest.raises(VolterraError, match="one positive step"):
            solve_algebraic(np.zeros(7), 1.0, h)
    # the samples are the nodes and midpoints of whole cells
    for n in (1, 2, 6):
        with pytest.raises(VolterraError, match="odd count"):
            solve_kernel(np.zeros(n), 0.1, 1.0)
        with pytest.raises(VolterraError, match="odd count"):
            solve_algebraic(np.zeros(n), 1.0, 0.1)


def test_hermite_exact_on_cubics_over_graded_grid():
    # z = c(x), a cubic, with z' = c' on the nodes 1 + sum of graded steps:
    # hermite itself, and the algebraic z_at and deriv_at, whose slopes of
    # z' come from its equation g z - 2 z' / x (g is chosen to make them
    # c''), are exact across every level jump
    steps = _graded_steps(200, h=4e-3)
    x = 1.0 + np.concatenate(([0.0], np.cumsum(np.repeat(0.5 * steps, 2))))

    def c(x):
        return 2.0 + 0.3 * x - 0.05 * x ** 3

    def dc(x):
        return 0.3 - 0.15 * x ** 2

    xs = np.random.default_rng(3).uniform(1.0, x[-1], 500)
    assert np.max(np.abs(hermite(x, c(x), dc(x), xs) - c(xs))) < 1e-12
    sol = dataclasses.replace(
        solve_algebraic(np.zeros(len(x)), 1.0, steps, grid=x),
        z=c(x), z_deriv=dc(x), w=(-0.3 * x + 2.0 * dc(x) / x) / c(x))
    assert np.max(np.abs(sol.z_at(xs) - c(xs))) < 1e-12
    assert np.max(np.abs(sol.deriv_at(xs) - dc(xs))) < 1e-12


def test_oscillatory_interpolants_follow_the_oscillation():
    # exact node data of z'' + mu z' = c z, mu = 2i, with a full-size
    # e^{-mu t}-like mode, on a graded grid whose cells reach 0.25: the
    # oscillatory runs interpolate only the slowly varying parts of z,
    # whose fourth derivatives are about c |mu|^3 / 2 = 4e-4, so they stay
    # within 0.25^4 / 384 of twice that (4e-9 here, seen 6e-9), where a
    # cubic through z misses by about 1e-4
    c, mu = 1e-4, 2j
    steps = _graded_steps(300, h=0.25 / 8)
    half = np.repeat(0.5 * steps, 2)
    t = np.concatenate(([0.0], np.cumsum(half)))
    rp, rm = (-mu + cmath.sqrt(mu * mu + 4 * c)) / 2, \
        (-mu - cmath.sqrt(mu * mu + 4 * c)) / 2

    def z(t):
        return np.exp(rp * t) + 0.5 * np.exp(rm * t)

    def zd(t):
        return rp * np.exp(rp * t) + 0.5 * rm * np.exp(rm * t)

    sol = dataclasses.replace(solve_kernel(np.full(len(t), c), steps, mu / 2),
                              z=z(t), z_deriv=zd(t))
    mid = t[:-1] + 0.5 * half
    assert np.max(np.abs(sol.z_at(mid) - z(mid))) < 2e-8
    assert np.max(np.abs(sol.deriv_at(mid) - zd(mid))) < 2e-8
    assert np.max(np.abs(sol.z_at(t) - z(t))) < 1e-14
    assert np.max(np.abs(hermite(t, z(t), zd(t), mid) - z(mid))) > 1e-5


def _node(message):
    return int(re.search(r"at node (\d+)", message).group(1))


@pytest.mark.parametrize("kind", _MARCHES)
def test_scan_envelope_error_at_the_loop_node(kind, monkeypatch):
    # |z| e^-T peaks right at the start of any march, so a negative slack
    # trips node 1; an envelope that closes once T reaches its value at
    # node 2000 trips deep inside the grid.
    scan, reference = _march_pair(kind, 3001)
    T_stop = scan().envelope_log[2000]
    bound = volterra._envelope_bound
    for slack, patched, node in (
            (-0.5, bound, 1),
            (volterra._ROUNDOFF,
             lambda T, h: np.where(T < T_stop, bound(T, h), 0.0), 2000)):
        monkeypatch.setattr(volterra, "_ROUNDOFF", slack)
        monkeypatch.setattr(volterra, "_envelope_bound", patched)
        with pytest.raises(EnvelopeError) as got:
            scan()
        with pytest.raises(EnvelopeError) as want:
            reference()
        assert _node(str(got.value)) == _node(str(want.value)) == node


@pytest.mark.parametrize("bad", (math.inf, math.nan))
def test_scan_non_finite_z_breaks_the_envelope(bad, monkeypatch):
    # a non-finite weight of the cell's start sample makes z non-finite
    # from sample 1 on
    weights = volterra._kernel_weights

    def broken(mu, steps):
        rows = weights(mu, steps)
        rows[:, 0] = bad
        return rows

    monkeypatch.setattr(volterra, "_kernel_weights", broken)
    w = np.full(51, 0.1)
    for run in (lambda: solve_kernel(w, 0.01, 1.0),
                lambda: _reference_kernel(w, 0.01, 1.0)):
        with pytest.raises(EnvelopeError, match="at node 1$"):
            run()


@pytest.mark.parametrize("zeta", (1.0, 1j))
def test_scan_lost_contraction_like_the_loop(zeta, monkeypatch):
    # No real sample set loses contraction once h max|w| <= 0.5, so blow
    # up the midpoint's implicit weight: the determinant of a cell's 2x2
    # system, about 1 - w_m z_1, first drops below 0.5 where w turns on,
    # at the midpoint of cell 1500.
    weights = volterra._kernel_weights

    def blown(mu, steps):
        rows = weights(mu, steps)
        rows[0, 1] *= 1e9
        return rows

    monkeypatch.setattr(volterra, "_kernel_weights", blown)
    z1 = abs(volterra._kernel_weights(2.0 * zeta, [0.01])[0, 1, 0])
    w = np.zeros(6001)
    w[3001:] = 0.9 / z1
    scan, reference = (lambda: solve_kernel(w, 0.01, zeta),
                       lambda: _reference_kernel(w, 0.01, zeta))
    for run in (scan, reference):
        with pytest.raises(StepTooLargeError, match="lost contraction"):
            run()
    # an envelope violation before the lost step still wins
    monkeypatch.setattr(volterra, "_ROUNDOFF", -0.5)
    for run in (scan, reference):
        with pytest.raises(EnvelopeError, match="at node 1$"):
            run()


# ------------------------------------------ reduction-of-order integral

def _grid_run(h, n, z_fn, zd_fn, origin=0.0, steps=None):
    """The fields of a march that InverseSquareIntegral reads: n uniform
    nodes h apart, or the nodes of the given steps."""
    if steps is None:
        steps = np.full(n - 1, h)
        grid = origin + h * np.arange(n)
    else:
        grid = origin + np.concatenate(([0.0], np.cumsum(steps)))
    return types.SimpleNamespace(grid=grid, h=float(np.min(steps)),
                                 cell_h=steps, z=z_fn(grid),
                                 z_deriv=zd_fn(grid))


def test_inverse_square_integral_of_unit_z_is_its_tail():
    # z == 1: int_t^T e^{-2(s-t)} ds + e^{-2(T-t)} / 2 == 1/2 everywhere;
    # the span covers several blocks of the node recurrence
    run = _grid_run(0.05, 30001, np.ones_like, np.zeros_like)
    integral = volterra.InverseSquareIntegral(run, 2.0, 0.5)
    ts = np.concatenate([run.grid[::997], run.grid[-1] * np.random.default_rng(
        1).uniform(0.0, 1.0, 40)])
    assert np.max(np.abs(integral(ts) / 0.5 - 1.0)) < 1e-14


def test_inverse_square_integral_against_recurrence_and_quadrature():
    # a uniform grid, and a graded one whose levels jump (steps 0.0125 2^j)
    z_fn, zd_fn = (lambda t: 1.0 + 0.1 * np.sin(t), lambda t: 0.1 * np.cos(t))
    for run in (_grid_run(0.05, 30001, z_fn, zd_fn),
                _grid_run(None, None, z_fn, zd_fn,
                          steps=_graded_steps(9000, h=0.0125))):
        integral = volterra.InverseSquareIntegral(run, 2.0, 0.25)
        n = len(run.z) - 1
        # the blocked node table against the sequential recurrence
        c = integral._cell_sums(run.grid[:-1], run.cell_h, np.arange(n))
        want = [0.25]
        for ck, hk in zip(c[::-1], run.cell_h[::-1]):
            want.append(ck + math.exp(-2.0 * hk) * want[-1])
        want = np.array(want[::-1])
        assert np.max(np.abs(integral._nodes / want - 1.0)) < 1e-13

        # interior points against adaptive quadrature of the Hermite z:
        # past t + 20 the integrand is below e^{-40} of its value at t
        def z(s):
            return hermite(run.grid, run.z, run.z_deriv, s)

        for t in run.grid[-1] * np.random.default_rng(2).uniform(0.0, 0.98,
                                                                 6):
            ref = quadrature.integrate_finite(
                lambda s: np.exp(-2.0 * (s - t)) / z(s) ** 2, t, t + 20.0,
                tol=1e-14).value
            assert integral(t) == pytest.approx(ref, rel=1e-13)


def test_inverse_square_integral_reciprocal_closed_form():
    # z = 1 + b s^2 is a cubic, so its Hermite interpolant is exact, and
    # int ds / (s^2 (1 + b s^2)^2) = F(s) below; the grid starts at s = 0,
    # where the integral diverges like 1/t
    b = 0.3
    q = math.sqrt(b)

    def F(s):
        return (-1.0 / s - 1.5 * q * math.atan(q * s)
                - 0.5 * q * q * s / (1.0 + b * s * s))

    run = _grid_run(0.01, 1001, lambda s: 1.0 + b * s * s,
                    lambda s: 2.0 * b * s)
    T, tail = float(run.grid[-1]), 0.3
    integral = volterra.InverseSquareIntegral(run, 0.0, tail,
                                              reciprocal=True)
    for t in (1e-9, 1e-5, 3e-3, 0.01, 0.5, 7.3, T):
        assert integral(t) == pytest.approx(F(T) - F(t) + tail, rel=1e-13)
    assert integral(0.0) == math.inf
