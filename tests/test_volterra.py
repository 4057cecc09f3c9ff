import cmath
import dataclasses
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
    c, Y, h = 0.3, 2.0, 0.002
    n = int(round(Y / h)) + 1
    sol = solve_kernel(np.full(n, c), h, 1.0)
    want, dwant = _constant_w_reference(c, 2.0, Y)
    assert sol.z[-1] == pytest.approx(want.real, rel=1e-7)
    assert sol.z_deriv[-1] == pytest.approx(dwant.real, rel=1e-6)


def test_kernel_constant_w_oscillatory():
    c, Y, h = 0.25, 3.0, 0.002
    n = int(round(Y / h)) + 1
    sol = solve_kernel(np.full(n, c), h, 1j)
    want, _ = _constant_w_reference(c, 2.0j, Y)
    assert abs(sol.z[-1] - want) < 1e-7


def test_kernel_march_second_order():
    # halving h must cut the error by ~4
    Y = 6.0

    def run(h):
        n = int(round(Y / h)) + 1
        t = h * np.arange(n)
        return solve_kernel(np.exp(-t), h, 1.0).z[-1]

    ref = run(0.00125)
    errs = [abs(run(h) - ref) for h in (0.08, 0.04, 0.02)]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.6)


def test_kernel_conjugation_symmetry():
    h = 0.01
    t = h * np.arange(801)
    w = np.sin(2.0 * t) * np.exp(-t)
    fwd = solve_kernel(w, h, 1j)
    bwd = solve_kernel(w, h, -1j)
    assert np.max(np.abs(fwd.z - np.conj(bwd.z))) == 0.0
    assert np.max(np.abs(fwd.z_deriv - np.conj(bwd.z_deriv))) == 0.0


def test_kernel_envelope_report():
    h = 0.01
    t = h * np.arange(1501)
    sol = solve_kernel(np.exp(-t), h, 1.0)
    rep = sol.envelope_report()
    # int_0^inf e^{-t} = 1, so the envelope log tends to 1 and |z| <= e
    assert rep["envelope_log_end"] == pytest.approx(1.0, abs=1e-3)
    assert rep["max_abs_z"] <= math.e
    assert rep["z_env_max_ratio"] <= 1.0 + 1e-6
    assert rep["l1_q_excess"] <= 1e-12


def test_kernel_interpolants():
    h = 0.02
    t = h * np.arange(301)
    sol = solve_kernel(np.exp(-t), h, 1.0)
    # z_at reproduces the nodes and interpolates smoothly between them
    assert sol.z_at(t[37]) == pytest.approx(sol.z[37], rel=1e-14)
    mid = 0.5 * (t[10] + t[11])
    assert sol.z[10] <= sol.z_at(mid) <= sol.z[11] * 1.001
    assert sol.deriv_at(t[50]) == pytest.approx(sol.z_deriv[50], rel=1e-12)


def test_deriv_slopes_cached_per_solution():
    h = 0.02
    t = h * np.arange(301)
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
            solve_kernel(np.full(301, c), h, mu / 2),
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

        sol = dataclasses.replace(solve_algebraic(np.full(301, c), 0.0, h),
                                  z=z, z_deriv=np.where(x == 0, 0.0, zd(x)))
    want = zd(mid)
    assert np.max(np.abs(sol.deriv_at(mid) - want)) \
        < 1e-8 * np.max(np.abs(want))


def test_kernel_step_guards():
    with pytest.raises(StepTooLargeError):
        solve_kernel(np.full(30, 10.0), 0.1, 1.0)
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
    n = int(round((X - a) / h)) + 1
    s = a + h * np.arange(n)
    return solve_algebraic(g_of_s(s), a, h).z[-1]


def test_algebraic_against_ode_transport():
    # u = x z solves u'' = g u with u(a) = a, u'(a) = 1, which gives an
    # independent route to z(X); the march is O(h^2), so a Richardson
    # pair pins the comparison down to ~1e-9
    a, X = 1.0, 30.0
    zc = _algebraic_end(lambda s: s ** -4.0, a, X, 0.01)
    zf = _algebraic_end(lambda s: s ** -4.0, a, X, 0.005)
    traj = integrate_ivp(lambda x: x ** -4.0, a, a, 1.0, X, tol=1e-12)
    u, _ = traj.at(X)
    assert abs(zc - u / X) / abs(zf - u / X) == pytest.approx(4.0, abs=0.3)
    assert (4.0 * zf - zc) / 3.0 == pytest.approx(u / X, rel=2e-9)


def test_algebraic_negative_perturbation():
    a, X = 1.0, 25.0
    zc = _algebraic_end(lambda s: -(s ** -4.0), a, X, 0.01)
    zf = _algebraic_end(lambda s: -(s ** -4.0), a, X, 0.005)
    traj = integrate_ivp(lambda x: -(x ** -4.0), a, a, 1.0, X, tol=1e-12)
    u, _ = traj.at(X)
    assert (4.0 * zf - zc) / 3.0 == pytest.approx(u / X, rel=2e-9)


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
        n = int(round(Y / h)) + 1
        t = h * np.arange(n)
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
        n = int(round(Y / h)) + 1
        t = h * np.arange(n)
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
    h = 0.004
    t = h * np.arange(int(round(15.0 / h)) + 1)
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
        n = int(round((X - 1.0) / h)) + 1
        s = 1.0 + h * np.arange(n)
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
    h = 0.004
    t = h * np.arange(2001)
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
# The marches run as a blocked scan of zeta = z - 1 and one memory v:
# zeta += f z + b v, v += g z + d v.  The plain sequential march below,
# one interpreted step per node with the coefficients written out per
# cell, is the oracle: both must agree on every field and fail the same
# way at the same node.  The loop also sums the moments of w z that the
# completions read off the end state.

def _reflected_weights(mu, h):
    """Exact hat moments of e^{mu t} over one cell (relative to the left
    node): JL weights q_k, JR weights q_{k+1}."""
    cd = mu * h
    E = cmath.exp(cd)
    if abs(cd) < 0.5:
        j0 = 0.0
        j1 = 0.0
        term = 1.0 + 0j
        fact2 = 1.0
        for m in range(0, 18):
            fact2 = fact2 * (m + 1)
            fact3 = fact2 * (m + 2)
            j0 += term / fact2
            j1 += term * (m + 1) / fact3
            term *= cd
        J0 = h * j0
        JR = h * j1
    else:
        J0 = (E - 1.0) / mu
        JR = (E * (cd - 1.0) + 1.0) / (mu * mu) / h
    return E, J0 - JR, JR


def _reference_kernel(w, h, zeta):
    oscillatory = complex(zeta).real == 0.0
    mu = complex(2.0 * zeta) if oscillatory else float(2.0 * zeta)
    steps = np.broadcast_to(np.asarray(h, dtype=float), (len(w) - 1,))
    weights = functools.lru_cache(None)(
        lambda hk: (volterra._kernel_weights(mu, hk)
                    + _reflected_weights(mu, hk)))
    zero = 0j if oscillatory else 0.0
    phase, P = 1.0 + 0j, 0.0 + 0j
    dev = E = Q = zero
    T = L1 = slack = 0.0
    zk = 1.0 + zero
    z, derivs, Ts, L1s, zmax = [zk], [zero], [0.0], [0.0], 1.0
    for k in range(len(w) - 1):
        hk = float(steps[k])
        A, B, cL, cR, Em, JL, JR = weights(hk)
        wk, wk1 = float(w[k]), float(w[k + 1])
        denom = 1.0 - wk1 * cR
        if abs(denom) < 0.5:
            raise StepTooLargeError("implicit update lost contraction")
        f = (wk * cL + wk1 * cR) / denom
        b = (A + B) / denom
        g = A * wk + B * wk1 * (1.0 + f)
        d = B * wk1 * b - mu * (A + B)
        qk = wk * zk
        dev, E = dev + (f * zk + b * E), E + (g * zk + d * E)
        zk = 1.0 + dev
        qk1 = wk1 * zk
        P += phase * (qk * JL + qk1 * JR)
        phase *= Em
        Q += 0.5 * hk * (qk + qk1)
        dT = 0.5 * hk * (abs(wk) + abs(wk1))
        T += dT
        slack += hk * hk * dT
        L1 += 0.5 * hk * (abs(qk) + abs(qk1))
        _reference_envelope(zk, T, slack, k + 1)
        zmax = max(zmax, abs(zk))
        z.append(zk)
        derivs.append(E)
        Ts.append(T)
        L1s.append(L1)
    return dict(z=z, z_deriv=derivs, envelope_log=Ts, l1_q=L1s, z_max=zmax,
                steps=len(w) - 1, Q=Q, P=P)


def _moments(sk, h):
    """Exact cell moments of s and s^2 against the two hat halves."""
    return (0.5 * h * sk + h * h / 6.0, 0.5 * h * sk + h * h / 3.0,
            0.5 * h * sk * sk + h * h / 3.0 * sk + h ** 3 / 12.0,
            0.5 * h * sk * sk + 2.0 * (h * h / 3.0) * sk + h ** 3 / 4.0)


def _reference_algebraic(g, a, h):
    steps = np.broadcast_to(np.asarray(h, dtype=float), (len(g) - 1,))
    dev = S1 = S2 = T = L1 = slack = offset = 0.0
    zk = 1.0
    z, derivs, Ts, L1s, zmax = [zk], [0.0], [0.0], [0.0], 1.0
    for k in range(len(g) - 1):
        h = float(steps[k])
        sk = a + offset
        offset += h
        sk1 = a + offset
        m1L, m1R, m2L, m2R = _moments(sk, h)
        gk, gk1 = float(g[k]), float(g[k + 1])
        denom = 1.0 - gk1 * (m1R - m2R / sk1)
        if abs(denom) < 0.5:
            raise StepTooLargeError("implicit update lost contraction")
        f = (gk * (m1L - m2L / sk1) + gk1 * (m1R - m2R / sk1)) / denom
        b = (sk1 - sk) / (sk * sk1) / denom if sk > 0.0 else 0.0
        pk = gk * zk
        dev, S2 = (dev + (f * zk + b * S2),
                   S2 + ((m2L * gk + m2R * gk1 * (1.0 + f)) * zk
                         + m2R * gk1 * b * S2))
        zk = 1.0 + dev
        pk1 = gk1 * zk
        S1 += m1L * pk + m1R * pk1
        dT = m1L * abs(gk) + m1R * abs(gk1)
        T += dT
        slack += h * h * dT
        L1 += m1L * abs(pk) + m1R * abs(pk1)
        _reference_envelope(zk, T, slack, k + 1)
        zmax = max(zmax, abs(zk))
        z.append(zk)
        derivs.append(S2 / (sk1 * sk1))
        Ts.append(T)
        L1s.append(L1)
    return dict(z=z, z_deriv=derivs, envelope_log=Ts, l1_q=L1s, z_max=zmax,
                steps=len(g) - 1, S1=S1, S2=S2)


def _reference_envelope(zk, T, slack, node):
    if not abs(zk) <= volterra._envelope_bound(T, slack):
        raise EnvelopeError(
            "|z| = %.6g exceeded its envelope %.6g at node %d"
            % (abs(zk), math.exp(T), node))


def _march_pair(kind, n, seed=7, h=1e-4):
    """(scan, reference) callables for one march on seeded random data;
    h is one step or the steps of all n - 1 cells."""
    rng = np.random.default_rng(seed)
    if kind == "algebraic":
        a = 1.0
        s = a + np.concatenate(([0.0], np.cumsum(np.broadcast_to(h, n - 1))))
        g = rng.uniform(-0.5, 1.0, n) / s ** 3
        return (lambda: solve_algebraic(g, a, h),
                lambda: _reference_algebraic(g, a, h))
    w = rng.uniform(-0.5, 1.0, n)
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
    assert sol.h == 1e-4 and np.array_equal(sol.cell_h, _graded_steps(n - 1))


@pytest.mark.parametrize("kind", _MARCHES)
def test_uniform_step_array_is_bitwise_the_scalar_step(kind):
    n = 1004
    scalar, _ = _march_pair(kind, n)
    array, _ = _march_pair(kind, n, h=np.full(n - 1, 1e-4))
    one, other = scalar(), array()
    for field in dataclasses.fields(one):
        a, b = getattr(one, field.name), getattr(other, field.name)
        assert np.array_equal(a, b), field.name


def _long_double_march(sol):
    """z and z' at the nodes of a march, marched again one step at a time
    in long double on the first form of the scheme, which carries z next
    to both running moments of w z: (Q, E), with D = 1 - mu (A + B), on
    the kernel runs, and (S1, S2) on the algebraic ones."""
    w = sol.w.astype(np.longdouble)
    steps = sol.cell_h.astype(np.longdouble)
    one = np.longdouble(1.0)
    if sol.kind == "algebraic":
        z = one
        S1 = S2 = np.longdouble(0.0)
        zs, derivs = [z], [S2]
        nodes = sol.grid.astype(np.longdouble)
        for sk, sk1, h, gk, gk1 in zip(nodes[:-1], nodes[1:], steps,
                                       w[:-1], w[1:]):
            m1L, m1R, m2L, m2R = _moments(sk, h)
            pk = gk * z
            z = ((1 + S1 + m1L * pk - (S2 + m2L * pk) / sk1)
                 / (1 - gk1 * (m1R - m2R / sk1)))
            pk1 = gk1 * z
            S1 += m1L * pk + m1R * pk1
            S2 += m2L * pk + m2R * pk1
            zs.append(z)
            derivs.append(S2 / (sk1 * sk1))
        return np.array(zs), np.array(derivs)
    wide = np.clongdouble if sol.kind == "oscillatory" else np.longdouble
    mu = wide(sol.mu)
    z, Q, E = wide(1.0), wide(0.0), wide(0.0)
    zs, derivs = [z], [E]
    weights = {}
    for h, wk, wk1 in zip(steps, w[:-1], w[1:]):
        if h not in weights:
            A, B, cL, cR = (wide(c) for c in volterra._kernel_weights(
                sol.mu, float(h)))
            weights[h] = A, B, cL, cR, 1 - mu * (A + B)
        A, B, cL, cR, D = weights[h]
        qk = wk * z
        z = (1 + (Q - D * E) / mu + qk * cL) / (1 - wk1 * cR)
        qk1 = wk1 * z
        Q += h / 2 * (qk + qk1)
        E = D * E + qk * A + qk1 * B
        zs.append(z)
        derivs.append(E)
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
    w = np.ones(11)
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
            solve_kernel(np.zeros(4), h, 1.0)
        with pytest.raises(VolterraError, match="one positive step"):
            solve_algebraic(np.zeros(4), 1.0, h)


def test_hermite_exact_on_cubics_over_graded_grid():
    # z = c(x), a cubic, with z' = c' on the nodes 1 + sum of graded steps:
    # hermite itself, and the algebraic z_at and deriv_at, whose slopes of
    # z' come from its equation g z - 2 z' / x (g is chosen to make them
    # c''), are exact across every level jump
    steps = _graded_steps(400, h=2e-3)
    x = 1.0 + np.concatenate(([0.0], np.cumsum(steps)))

    def c(x):
        return 2.0 + 0.3 * x - 0.05 * x ** 3

    def dc(x):
        return 0.3 - 0.15 * x ** 2

    xs = np.random.default_rng(3).uniform(1.0, x[-1], 500)
    assert np.max(np.abs(hermite(x, c(x), dc(x), xs) - c(xs))) < 1e-12
    sol = dataclasses.replace(
        solve_algebraic(np.zeros(len(x)), 1.0, steps),
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
    steps = _graded_steps(600, h=0.25 / 16)
    t = np.concatenate(([0.0], np.cumsum(steps)))
    rp, rm = (-mu + cmath.sqrt(mu * mu + 4 * c)) / 2, \
        (-mu - cmath.sqrt(mu * mu + 4 * c)) / 2

    def z(t):
        return np.exp(rp * t) + 0.5 * np.exp(rm * t)

    def zd(t):
        return rp * np.exp(rp * t) + 0.5 * rm * np.exp(rm * t)

    sol = dataclasses.replace(solve_kernel(np.full(len(t), c), steps, mu / 2),
                              z=z(t), z_deriv=zd(t))
    mid = t[:-1] + 0.5 * steps
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
    # a non-finite implicit weight makes z non-finite from node 1 on
    weights = volterra._kernel_weights
    monkeypatch.setattr(volterra, "_kernel_weights",
                        lambda mu, h: weights(mu, h)[:2] + (bad,)
                        + weights(mu, h)[3:])
    w = np.full(50, 0.1)
    for run in (lambda: solve_kernel(w, 0.01, 1.0),
                lambda: _reference_kernel(w, 0.01, 1.0)):
        with pytest.raises(EnvelopeError, match="at node 1$"):
            run()


@pytest.mark.parametrize("zeta", (1.0, 1j))
def test_scan_lost_contraction_like_the_loop(zeta, monkeypatch):
    # No real sample set loses contraction once h max|w| <= 0.5, so blow
    # up the implicit weight: the denominator 1 - w cR first drops below
    # 0.5 where w turns on, at step 1500.
    weights = volterra._kernel_weights
    monkeypatch.setattr(
        volterra, "_kernel_weights",
        lambda mu, h: weights(mu, h)[:3] + (weights(mu, h)[3] * 1e9,))
    cR = abs(volterra._kernel_weights(2.0 * zeta, 0.01)[3])
    w = np.zeros(3001)
    w[1501:] = 0.9 / cR
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
