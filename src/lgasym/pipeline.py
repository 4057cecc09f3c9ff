"""End-to-end analysis: from coefficient expressions to certified
leading-order solution behavior.

analyze() parses the split, classifies the regime, chooses a cutoff whose
perturbation tail is certifiably small, predicts the grid end at which the
tail completion will meet tail_tol (_predict_end: the regime's completion
bound with z = 1, from tail integrals alone), marches the correction
equation there once, by a fourth-order block-by-block rule on a graded
grid (the one run carries the envelope guarantees, the reported constants
and the solution callables), completes the connection constants across
the un-marched tail with a computable residual bound, and packages
everything into an AnalysisReport.  Only when that bound still exceeds
tail_tol is the end predicted again, for a target lowered by the ratio of
the bound to its prediction, and marched.

The graded grid (_graded_march) keeps the level-0 step h_c where the
perturbation weight is large and doubles it, up to _STEP_CAP, where the
weight at and beyond a cell is small: a level-j cell is h_c 2^j long and
starts at a multiple of its own length, so every node is a node of the
uniform grid of step h_c.  The march samples every cell at its nodes and
midpoint.

One object per regime (_Algebraic, _Exponential, _Oscillatory) gives the
certificate weight, one march attempt, the tail completion, the solution
pair and the table's model and value; the rest is shared.  A single power
f = c x^p has a closed-form phase map (_PowerShape), and constant f is
its p = 0 case, with unit amplitude, not a regime of its own; any other f
tabulates its phase and Newton-steps the nodes (_Shape).  For real
coefficients the zeta = -i run is the conjugate of the zeta = +i run, so
only the +i run is marched.

Every function of x sampled here is a tape of transform.CoefficientSplit
or transform.PsiData, compiled when first read; this module compiles
none, and the solutions read theirs only when called.

The recessive branch u2 = c u1 int_x^inf u1^{-2} is read off the march
grid: u1^{-2} dx is a constant times e^{-2y} z(y)^{-2} dy in the phase
variable (the amplitude cancels the Jacobian) and z^{-2} dx / x^2 in the
algebraic regime, summed per cell by volterra.InverseSquareIntegral.
Every solution callable maps scalars or arrays elementwise.

Problems posed at the endpoint 0 are analyzed at infinity in the
inverted variable s = 1/x and the solutions are pulled back through
u(x) = x * v(1/x), which is exact.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import certificate as certificate_mod
from . import expr, quadrature, transform, volterra


class AnalysisError(RuntimeError):
    pass


class RangeError(AnalysisError):
    """An evaluation point fell outside the resolved grid."""


@dataclass
class NormalizedSolution:
    label: str
    asymptotic: str
    value: object = field(repr=False)
    derivative: object = field(repr=False)


def _clip_to_range(x, lo, hi, toward_zero=False):
    """x clipped to [lo, hi], which no element may leave beyond roundoff.
    The cutoff is lo and the far end hi, or the other way round toward
    zero (x = 1/s of a march in s).  The RangeError names the first element
    outside and the end it left: --xmax moves only the far end."""
    xv = np.asarray(x, dtype=float)
    inside = (xv <= hi * (1 + 1e-12)) & (xv >= lo - 1e-12 * max(1.0,
                                                                abs(lo)))
    if not np.all(inside):
        bad = np.extract(~inside, xv)[0]
        if bad > hi if toward_zero else bad < lo:
            raise RangeError(
                "x=%g lies %s the certified cutoff %g; --xmax extends only "
                "the far end" % (bad, "above" if toward_zero else "below",
                                 hi if toward_zero else lo))
        raise RangeError(
            "x=%g outside the resolved range [%g, %g]; rerun with a %s "
            "--xmax to extend it"
            % (bad, lo, hi, "smaller" if toward_zero else "larger"))
    return np.minimum(np.maximum(xv, lo), hi)


_H_COARSE_MIN = 0.004
_H_COARSE_MAX = 0.02
_TARGET_CELLS = 20000
# The largest cell step, in y (in x for the algebraic march): up to this
# width the interpolants of z between nodes (on the oscillatory runs, of
# its slowly varying parts; see VolterraSolution.z_at) and the 8-point
# Gauss-Legendre sums of the recessive branch keep their accuracy.
_STEP_CAP = 0.25
# The most level-0 steps one march may span, 24 times the largest n_c of
# the benchmark's certify cases (86.7k, on constant-exp).  A longer march
# is refused before an array of its length is allocated.
_MAX_LEVEL0_STEPS = 2 ** 21


def _choose_h(y_span, override=None):
    """The level-0 step and the span in such steps.

    Raises ValueError for an override that is not a positive finite
    number, and AnalysisError when the span takes more than
    _MAX_LEVEL0_STEPS such steps (or a count that overflows)."""
    if override is not None:
        h = float(override)
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError("step must be a positive finite number")
    else:
        h = y_span / _TARGET_CELLS
        # an unclamped step takes _TARGET_CELLS exactly: y_span / h may
        # round one ulp above it, and its ceiling would add a step
        if _H_COARSE_MIN <= h <= _H_COARSE_MAX:
            return h, _TARGET_CELLS
        h = min(_H_COARSE_MAX, max(_H_COARSE_MIN, h))
    n = y_span / h
    if not n <= _MAX_LEVEL0_STEPS:
        raise _too_long(y_span, h, n)
    n = max(int(math.ceil(n)), 8)
    return y_span / n, n


def _too_long(span, h, n):
    return AnalysisError(
        "marching a span of %.6g in level-0 steps of %.3g takes %.6g "
        "steps, more than the cap of %d; raise the step or loosen the "
        "tail tolerance" % (span, h, n, _MAX_LEVEL0_STEPS))


def _levels(w_hat, W0, top):
    """The largest level j <= top with 24^j w_hat <= W0, elementwise; a nan
    w_hat or W0 gets level 0.

    A cell of h = h_c 2^j then has h^4 w_hat <= (2/3)^j h_c^4 W0.  The
    march is fourth order, so the error a region of cells adds goes like
    its length times h^4 times the weight's scale.  Where the
    weight decays exponentially the regions of the levels are about equally
    long, so each level adds at most 2/3 of the error of the level below it
    and the total stays within three times the uniform grid's.  (Under
    h^4 w_hat <= h_c^4 W0 each level would add about as much error as the
    whole uniform grid.)"""
    grow = 24.0 ** np.arange(1, top + 1)
    return np.sum(grow[:, None] * w_hat <= W0, axis=0)


def _cell_units(levels, top, n_c):
    """Cell lengths, in level-0 steps, of the graded grid on [0, n_c]: the
    pilot intervals of 2^top steps are cut into cells of their levels; the
    last, shorter one ends in cells of falling powers of two, so that
    every cell starts at a multiple of its own length."""
    size = 2 ** levels
    last = n_c - 2 ** top * (len(levels) - 1)
    counts = 2 ** top // size
    counts[-1] = last // size[-1]
    rest = last % size[-1]
    return np.concatenate([np.repeat(size, counts),
                           [1 << b for b in range(int(levels[-1]) - 1, -1, -1)
                            if rest >> b & 1]]).astype(int)


def _graded_march(sample, h_c, n_c):
    """Grade and sample the grid of level-0 step h_c over n_c such steps.
    Returns (march samples, cell steps, positions) of the graded grid.

    sample(idx) gives (march samples, grading weight |w|, positions) at
    the positions idx * h_c / 2.  The pilot is sample's weight at the
    nodes of the largest cells, which are nodes of every graded grid.
    Each pilot interval gets the level (_levels) of the largest weight
    sampled at or beyond its start (a suffix max, so a step never grows
    into a later bump), with W0 the largest weight seen.  Every sample of
    the march (the nodes and midpoints of the cells) is then checked
    against its cell by the same rule: a sample that breaks it joins the
    samples and forces a re-grade, which lowers that cell's level.  Levels
    only fall from one grading to the next, so this ends.

    Raises AnalysisError, allocating nothing, when n_c exceeds
    _MAX_LEVEL0_STEPS.
    """
    if n_c > _MAX_LEVEL0_STEPS:
        raise _too_long(h_c * n_c, h_c, n_c)
    # the largest level: its cells fit both _STEP_CAP and the span, so a
    # tiny h_c cannot overflow the level count
    top = 0
    while h_c * 2 ** (top + 1) <= _STEP_CAP and 2 ** (top + 1) <= n_c:
        top += 1
    full = 2 ** top
    starts = 2 * full * np.arange(-(-n_c // full))      # in half steps
    seen_at = np.append(starts, 2 * n_c)
    seen = sample(seen_at)[1]
    W0 = np.max(seen)
    levels = np.full(len(starts), top)
    while True:
        order = np.argsort(seen_at, kind="stable")
        suffix = np.maximum.accumulate(seen[order][::-1])[::-1]
        w_hat = suffix[np.searchsorted(seen_at[order], starts)]
        levels = np.minimum(levels, _levels(w_hat, W0, top))
        units = _cell_units(levels, top, n_c)
        idx = np.empty(2 * len(units) + 1, dtype=int)
        idx[::2] = 2 * np.concatenate(([0], np.cumsum(units)))
        idx[1::2] = idx[:-1:2] + units
        vals, weight, nodes = sample(idx)
        W0 = max(W0, np.max(weight))
        cell = np.maximum(np.maximum(weight[:-1:2], weight[1::2]),
                          weight[2::2])
        if np.all(_levels(cell, W0, top) >= np.log2(units)):
            break
        seen_at = np.concatenate([seen_at, idx])
        seen = np.concatenate([seen, weight])
    return vals, h_c * units, nodes


# --------------------------------------------------------------------------
# leading-order shapes: how the phase is tabulated and the amplitude read

class _Shape:
    """f that is not a single power: amplitude |f|^(-1/4) and phase
    Phi = int_a^x |f|^(1/2).

    span() builds one PhaseTable of Phi on [a, x_end] per tail round; the
    span is its total and phase_map() places the march's y nodes inside it
    by second-order Newton steps, which take (|f|^(1/2))' from the owner's
    d_sqrt_f.  amp and amp_d read the owner's tapes only when called."""

    template = "|f(x)|^(-1/4) * %s(%sPhi(x))"   # % (function, sign)
    decay_text = ""
    # the solutions are normalized at phase origin_rate * a; the recessive
    # model is amp e^{-Phi} / norm
    origin_rate = 0.0
    norm = 1.0

    def __init__(self, psi):
        self.psi = psi

    def amp(self, x):
        return self.psi.amplitude(x)

    def amp_d(self, x):
        return self.psi.amp_deriv(x)

    def span(self, a, x_end):
        self.table = transform.PhaseTable(self.psi.sqrt_f, a, x_end)
        return self.table.span

    def phase_map(self, a, ys):
        return transform.PhaseMap.build(self.table, self.psi.inv_sqrt_f,
                                        self.psi.d_sqrt_f, ys)


class _PowerShape(_Shape):
    """f = c x^p: the closed-form phase map (transform.PhaseMap.closed_form)
    in place of the table and the Newton steps.  At p = 0 (constant f) the
    map is affine, y = rate (x - a), the amplitude is 1 and the solutions
    are normalized to e^{+-rate x}."""

    def __init__(self, psi, c, p):
        super().__init__(psi)
        self.c, self.p = c, p
        if p == 0.0:
            rate = self.origin_rate = self.norm = math.sqrt(abs(c))
            r_s = "%.12g" % rate
            one = r_s == "1"
            self.template = "%s(%s" + ("" if one else r_s + "*") + "x)"
            self.decay_text = "" if one else " / " + r_s
            self.amp, self.amp_d = np.ones_like, np.zeros_like

    def span(self, a, x_end):
        return float(self.phase_map(a, ()).y_of_x(x_end))

    def phase_map(self, a, ys):
        return transform.PhaseMap.closed_form(a, self.c, self.p, ys)


# --------------------------------------------------------------------------
# one object per regime

def _regime_for(split, cls):
    """The regime object for a classified split: the one place the
    regime is consulted."""
    if cls.regime.algebraic:
        return _Algebraic(split)
    if cls.power is not None:
        shape = _PowerShape(cls.psi, *cls.power)
    else:
        shape = _Shape(cls.psi)
    kind = _Oscillatory if cls.regime.oscillatory else _Exponential
    return kind(cls.psi, shape)


class _Regime:
    """What every regime's table shares: its end and its columns at s."""

    def table_end(self):
        return self.end * (1 - 1e-6)

    def table(self, s):
        value, model = self.value(s), self.model(s)
        return value, model, value / model


class _Algebraic(_Regime):
    """f == 0: solutions like x and 1; z is marched in x itself and the
    table follows the dominant branch against x."""

    def __init__(self, split):
        self.split, self.weight, self.tails = split, split.sg, split.sg_tails

    @property
    def end(self):
        return float(self.sol.grid[-1])

    def span(self, a, x_end):
        return float(x_end - a)

    def march(self, a, h_c, n_c):
        def sample(idx):
            s = a + 0.5 * h_c * idx
            with np.errstate(all="ignore"):
                g = self.split.g(s)
                return g, np.abs(s * g), s

        g, steps, s = _graded_march(sample, h_c, n_c)
        self.sol = volterra.solve_algebraic(g, a, steps, grid=s)

    def predicted_residual(self, a, xs, L, tol):
        """complete()'s residual bound with z = 1: then X z'(X) = S2(X) / X,
        S2(X) = int_a^X s^2 g."""
        S2 = self.tails.moment(a, xs, tol)
        return volterra.real_bound(L, 1.0, np.abs(S2) / xs)

    def complete(self, qtol):
        X, tails = self.end, self.tails
        c = self.completion = volterra.complete_algebraic(
            self.sol, tails.signed(X, qtol), tails.l1(X, qtol))
        self.constants = {"z_infinity": c.value}
        return c.residual_bound

    def solutions(self):
        sol, X, a = self.sol, self.end, float(self.sol.grid[0])
        zhat = float(np.real(self.completion.value))
        # int_x^inf u1^{-2} = zhat^2 rest(x) for u1 = x z / zhat; past X the
        # closed tail 1/(u1 u1')(X), exact for any u1 ~ x + b
        z, zd = sol.z[-1], sol.z_deriv[-1]
        rest = volterra.InverseSquareIntegral(
            sol, 0.0, 1.0 / (X * z * (z + X * zd)), reciprocal=True)

        def u1(x):
            x = _clip_to_range(x, a, X)
            return x * sol.z_at(x) / zhat

        def u1d(x):
            x = _clip_to_range(x, a, X)
            return (sol.z_at(x) + x * sol.deriv_at(x)) / zhat

        # rest = J + 1/x with J = rest.regular finite down to x = 0, so u2 =
        # zhat z (x J + 1) and u2' = zhat ((z + x z') J + z' + (z - 1/z) / x)
        # have finite limits at a cutoff 0: there z = 1 and (z - 1/z) / x
        # tends to 2 z'.  z - 1 is interpolated itself, so that (z - 1/z) / x
        # keeps its relative accuracy as x -> 0.
        dz_nodes = sol.z - 1.0

        def u2(x):
            x = _clip_to_range(x, a, X)
            return zhat * sol.z_at(x) * (x * rest.regular(x) + 1.0)

        def u2d(x):
            x = _clip_to_range(x, a, X)
            dz = volterra.hermite(sol.grid, dz_nodes, sol.z_deriv, x)
            z, zd = 1.0 + dz, sol.deriv_at(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                pole = np.where(x == 0.0, 2.0 * zd,
                                dz * (2.0 + dz) / (z * x))
            return zhat * ((z + x * zd) * rest.regular(x) + zd + pole)

        self.pair = [NormalizedSolution("dominant", "x", u1, u1d),
                     NormalizedSolution("recessive", "1", u2, u2d)]
        return self.pair

    def value(self, s):
        return self.pair[0].value(s)

    def model(self, s):
        return np.asarray(s, dtype=float)


class _Phased(_Regime):
    """What the exponential and oscillatory regimes share: the weight
    psi, the march of the branch e^{zeta y} in the phase variable y and
    the tail integrals of psi."""

    def __init__(self, psi, shape):
        self.psi, self.shape, self.span = psi, shape, shape.span
        self.weight, self.tails = psi.psi, psi.psi_tails

    @property
    def end(self):
        return float(self.phase_map.x_nodes[-1])

    def march(self, a, h_c, n_c):
        # the last grid sampled is the one marched, so its map is kept
        def sample(idx):
            pmap = self.phase_map = self.shape.phase_map(a, 0.5 * h_c * idx)
            w = self.psi.w(pmap.x_nodes)
            return w, np.abs(w), pmap.y_nodes

        w, steps, y = _graded_march(sample, h_c, n_c)
        quadrature.charge("map_nodes", len(y))
        self.sol = volterra.solve_kernel(w, steps, self.zeta, grid=y)

    def tail_integrals(self, qtol):
        """int psi and int |psi| past the grid end."""
        return self.tails.signed(self.end, qtol), self.tails.l1(self.end, qtol)

    def phase_fn(self):
        # (x, y(x)) on the resolved range, which x may not leave; a plain
        # closure, so the solutions holding it do not keep the regime (and
        # its arrays) alive in a reference cycle
        pmap = self.phase_map
        a, X, y_end = pmap.a, float(pmap.x_nodes[-1]), float(pmap.y_nodes[-1])

        def phase(x):
            x = _clip_to_range(x, a, X)
            return x, np.minimum(pmap.y_of_x(x), y_end)

        return phase


class _Exponential(_Phased):
    """f > 0: solutions like |f|^(-1/4) e^{+-Phi}.  The growing branch is
    marched, the decaying one follows by reduction of order, and the
    table follows the decaying one against its leading shape."""

    zeta = 1.0

    def predicted_residual(self, a, xs, L, tol):
        """complete()'s residual bound with z = 1, whose memory term z' is
        then about w / 2."""
        return volterra.real_bound(0.5 * L, 1.0,
                                   0.25 * np.abs(self.psi.w(xs)))

    def complete(self, qtol):
        c = self.completion = volterra.complete_exponential(
            self.sol, *self.tail_integrals(qtol))
        self.constants = {"z_infinity": c.value}
        return c.residual_bound

    def solutions(self):
        sol, shape, phase = self.sol, self.shape, self.phase_fn()
        zhat = float(np.real(self.completion.value))
        # the solutions are normalized at the phase origin_rate * a, which
        # goes inside each exponential, e^{+-(origin + y)}: the dominant
        # branch overflows to inf and the recessive one underflows to 0
        # only where their values leave the float range
        origin = shape.origin_rate * self.phase_map.a
        amp, amp_d, psi = shape.amp, shape.amp_d, self.psi
        # In the phase variable u1^{-2} dx = zhat^2 e^{-2 origin} kappa
        # e^{-2y} z^{-2} dy exactly: the amplitude |f|^{-1/4} cancels the
        # Jacobian |f|^{-1/2}, and kappa = 1 / norm is the constant map's
        # 1 / rate.  Past the grid end Y the closed tail u1(Y)^{-2} / (2
        # |f|^{1/2}), exact for any pure shape |f|^{-1/4} e^{Phi}, is
        # e^{-2Y} / (2 z(Y)^2) in these units.  So u2 = 2 u1 int_x^inf
        # u1^{-2} is a constant times amp z e^{-(origin + y)} rest(y).
        rest = volterra.InverseSquareIntegral(sol, 2.0, 0.5 / sol.z[-1] ** 2)

        def u1(x):
            x, y = phase(x)
            with np.errstate(over="ignore"):
                return amp(x) * np.exp(origin + y) * sol.z_at(y) / zhat

        def u1d(x):
            x, y = phase(x)
            z = sol.z_at(y)
            with np.errstate(over="ignore"):
                return np.exp(origin + y) / zhat * (
                    amp_d(x) * z + amp(x) * psi.sqrt_f(x)
                    * (z + sol.deriv_at(y)))

        def recessive(x):
            # u2 and its ratio to the model, which leaves out the factor
            # e^{-(origin + y)} of both, so it stays finite where they
            # underflow (a far cutoff)
            x, y = phase(x)
            z, r = sol.z_at(y), rest(y)
            return (2.0 * zhat / shape.norm * amp(x) * z
                    * np.exp(-(origin + y)) * r, 2.0 * zhat * z * r)

        def u2d(x):
            # (u1'/u1) u2 - 2/u1
            x, y = phase(x)
            z, ax = sol.z_at(y), amp(x)
            core = amp_d(x) * z + ax * psi.sqrt_f(x) * (z + sol.deriv_at(y))
            return 2.0 * zhat * np.exp(-(origin + y)) * (
                core * rest(y) / shape.norm - 1.0 / (ax * z))

        self.recessive = recessive

        self.pair = [
            NormalizedSolution("dominant", shape.template % ("exp", "+"),
                               u1, u1d),
            NormalizedSolution("recessive", shape.template % ("exp", "-")
                               + shape.decay_text,
                               lambda x: recessive(x)[0], u2d)]
        return self.pair

    def table_end(self):
        # keep the decaying branch well inside the float range: values at
        # phase y scale like e^{-y}, so cap the tabulated phase
        if float(self.phase_map.y_nodes[-1]) > 300.0:
            return float(self.phase_map.x_of_y(300.0))
        return super().table_end()

    def table(self, s):
        value, ratio = self.recessive(s)
        return value, self.model(s), ratio

    def model(self, s):
        pmap, shape = self.phase_map, self.shape
        return shape.amp(s) * np.exp(-(pmap.y_of_x(s) + shape.origin_rate
                                       * pmap.a)) / shape.norm


class _Oscillatory(_Phased):
    """f < 0: solutions like |f|^(-1/4) cos Phi and |f|^(-1/4) sin Phi,
    read off the e^{+-i Phi} pair.  The table follows the modulus of the
    complex solution against the amplitude, which is zero-free."""

    zeta = 1j

    def predicted_residual(self, a, xs, L, tol):
        """complete()'s residual bound with z = 1, so |xi1| + |xi2| + |eta1|
        + |eta2| = 2."""
        R2 = self.psi.a2_tails.l1(xs, tol)
        return volterra.oscillatory_bound(L, 1.0, R2, 2.0)

    def complete(self, qtol):
        # the e^{+-2iy} tail moments via two integrations by parts in x
        psi, X = self.psi, self.end
        G0, G0a = self.tail_integrals(qtol)
        Y = self.phase_map.y_span
        invX = float(psi.inv_sqrt_f(X))
        psiX = float(psi.psi(X))
        a1X = float(psi.a1(X))
        Gp, Gm = (cmath.exp(2j * sign * Y) * invX
                  * (-psiX / (2j * sign) - a1X / 4.0) for sign in (1, -1))
        c = self.completion = volterra.complete_oscillatory(
            self.sol, G0, Gp, Gm, G0a, psi.a2_tails.l1(X, qtol))
        self.constants = {"xi1": c.xi1, "xi2": c.xi2, "eta1": c.eta1,
                          "eta2": c.eta2}
        return c.residual_bound

    def solutions(self):
        c, shape, phase = self.completion, self.shape, self.phase_fn()
        M = np.array([[c.xi1, c.eta1], [c.xi2, c.eta2]])
        alpha, beta = np.linalg.solve(M, np.array([1.0, 0.0]))
        turn = cmath.exp(1j * shape.origin_rate * self.phase_map.a)
        alpha, beta = alpha * turn, beta * turn
        self.constants["basis_combination"] = (complex(alpha), complex(beta))
        # the zeta = -i run is the conjugate of the +i run, so its z and z'
        # are the conjugates of the interpolated z1 and z1'
        fwd = self.sol
        amp, amp_d, psi = shape.amp, shape.amp_d, self.psi

        def U(x):
            x, y = phase(x)
            z1 = fwd.z_at(y)
            return amp(x) * (alpha * np.exp(1j * y) * z1
                             + beta * np.exp(-1j * y) * np.conj(z1))

        def Ud(x):
            x, y = phase(x)
            p, m = alpha * np.exp(1j * y), beta * np.exp(-1j * y)
            z1, d1 = fwd.z_at(y), fwd.deriv_at(y)
            z2 = np.conj(z1)
            core = p * (1j * z1 + d1) + m * (-1j * z2 + np.conj(d1))
            return (amp(x) * psi.sqrt_f(x) * core
                    + amp_d(x) * (p * z1 + m * z2))

        self.U = U
        self.pair = [
            NormalizedSolution("cos-like", shape.template % ("cos", ""),
                               lambda x: U(x).real, lambda x: Ud(x).real),
            NormalizedSolution("sin-like", shape.template % ("sin", ""),
                               lambda x: U(x).imag, lambda x: Ud(x).imag),
        ]
        return self.pair

    def value(self, s):
        return np.abs(self.U(s))

    def model(self, s):
        return self.shape.amp(s)


# The march ends where the regime's completion bound with z = 1 in it
# (predicted_residual) falls to this share of tail_tol; the bound of the
# marched z has come out 1 to 5 times that prediction, so one round
# usually certifies.  A round that misses is predicted again, for a target
# lowered by the ratio of its bound to its prediction.
_PREDICT_SHARE = 0.1
# the prediction's grid x0 2^k, k < _PREDICT_POINTS: a tail that has not
# met the target by x0 2^47 (about 1.4e14 x0) is refused
_PREDICT_POINTS = 48


def _predict_end(reg, a, x0, target):
    """(x_end, r_hat): where the predicted residual r_hat reaches target,
    found without a march.  Every term is evaluated on the grid x0 2^k, the
    tails of the weight from one adaptive run; x_end is the first grid
    point at or below the target, moved back toward its predecessor by
    interpolating log r_hat in log x."""
    tol = 0.01 * target
    xs = x0 * 2.0 ** np.arange(_PREDICT_POINTS)
    L = reg.tails.l1(xs, tol)
    # the completions refuse a tail mass of 1/2 and more
    with np.errstate(all="ignore"):
        r_hat = np.where(L < 0.5, reg.predicted_residual(a, xs, L, tol),
                         np.inf)
    hits = np.flatnonzero(r_hat <= target)
    if not len(hits):
        raise AnalysisError("perturbation tail refuses to decay")
    k = hits[0]
    if k == 0 or r_hat[k] == 0.0 or not math.isfinite(r_hat[k - 1]):
        return float(xs[k]), float(r_hat[k])
    share = math.log(r_hat[k - 1] / target) / math.log(r_hat[k - 1]
                                                       / r_hat[k])
    return float(xs[k - 1] * 2.0 ** share), target


def _analyze_infinity(split, cls, lo, x_floor, tol, tail_tol, step, inverted):
    """The infinity-side machinery for a classified split: the regime
    object marched and completed, the march summary in the caller's
    frame, the certificate, its verification and the constants."""
    reg = _regime_for(split, cls)
    a, tail0 = certificate_mod.find_cutoff(reg.tails, lo, tol=tol)
    reg.cutoff = a

    x0 = max(x_floor if x_floor is not None else a, a + 10.0)
    target = _PREDICT_SHARE * tail_tol
    x_end, r_hat = _predict_end(reg, a, x0, target)
    predicted = r_hat

    qtol = max(min(tol, 1e-12), 1e-14)
    refinements = 0
    history = []
    for _round in range(6):
        if history:
            # the last bound missed its prediction by residual / r_hat:
            # predict again for a target that much lower
            target *= r_hat / residual
            x_end, r_hat = _predict_end(reg, a, x0, target)
        # the march, halving the step (and rebuilding the grid) on
        # envelope violations
        span = reg.span(a, x_end)
        h_c, n_c = _choose_h(span, step)
        for attempt in range(4):
            try:
                reg.march(a, h_c, n_c)
                quadrature.charge("march_steps", reg.sol.steps)
                break
            except (volterra.EnvelopeError, volterra.StepTooLargeError):
                if attempt == 3:
                    raise
                h_c /= 2.0
                n_c *= 2
                refinements += 1
        residual = reg.complete(qtol)
        history.append([float(x_end), float(residual), reg.sol.steps])
        if residual <= tail_tol:
            break
    else:
        raise AnalysisError(
            "could not certify the connection constants to %.3g "
            "(best residual bound %.3g); increase --tail-tol or --xmax"
            % (tail_tol, history[-1][1]))

    cert = certificate_mod.gronwall_certificate(
        a, tail0, reg.sol.envelope_report())
    verification = certificate_mod.verify_certificate(cert, reg.weight,
                                                      tol=tol)
    reg.solutions()
    constants = dict(reg.constants, tail_residual_bound=residual)
    end = reg.end
    if inverted:
        march = {"frame": "inverted (s = 1/x)", "cutoff_s": a,
                 "cutoff_x": 1.0 / a, "s_max": end, "x_min": 1.0 / end}
    else:
        march = {"frame": "direct", "cutoff": a, "x_max": end}
    # rounds: [x_end, residual bound, march cells] per tail round, x_end
    # in the frame of the march (s at the zero endpoint); a second round
    # means the first round's predicted residual missed
    march.update(phase_span=span, coarse_step=h_c, refinements=refinements,
                 rounds=history, predicted_residual=predicted)
    return reg, march, cert, verification, constants


# --------------------------------------------------------------------------
# public entry point

@dataclass
class AnalysisReport:
    f_text: str
    g_text: str
    endpoint: str
    interval: tuple
    tolerance: float
    tail_tolerance: float
    regime: transform.Regime
    checks: list
    psi_text: str | None
    certificate: certificate_mod.Certificate
    verification: dict
    march: dict
    constants: dict
    solutions: list
    work: dict
    # the march the constants, the solutions and the certificate's envelope
    # report come from (the zeta = +i run for oscillatory regimes; in s =
    # 1/x at the zero endpoint)
    march_run: volterra.VolterraSolution = field(repr=False, compare=False)
    _regime: object = field(repr=False, compare=False)

    def solution(self, label):
        for s in self.solutions:
            if s.label == label:
                return s
        raise KeyError(label)

    def to_json_dict(self):
        consts = {k: _jsonable(v) for k, v in sorted(self.constants.items())}
        return {
            "schema": 1,
            "input": {
                "f": self.f_text,
                "g": self.g_text,
                "endpoint": self.endpoint,
                "interval": [self.interval[0], self.interval[1]],
                "tolerance": self.tolerance,
                "tail_tolerance": self.tail_tolerance,
            },
            "regime": self.regime.value,
            "hypothesis_checks": [dict(c) for c in self.checks],
            "perturbation": self.psi_text,
            "certificate": self.certificate.to_json_dict(),
            "certificate_verification": dict(self.verification),
            "march": dict(self.march),
            "constants": consts,
            "solutions": [
                {"label": s.label, "asymptotic": s.asymptotic}
                for s in self.solutions
            ],
            "work": dict(self.work),
        }

    def sample_rows(self, count=9):
        """Rows (x, value, approximant, ratio, envelope bound) along the
        certified branch.  The ratio leaves out the factors value and
        approximant share, so it stays finite where both underflow.  The
        envelope bound is the remaining correction radius exp(tail |w| past
        x) - 1, non-increasing toward the endpoint, its tails one reading of
        the weight's Tails at all rows, within one shared tolerance."""
        reg = self._regime
        s_hi = reg.table_end()
        s_lo = reg.cutoff + (s_hi - reg.cutoff) * 0.05
        ss = np.linspace(s_lo, s_hi, count)
        rows = []
        columns = [c.tolist() for c in reg.table(ss)]
        for s, val, m, ratio, tail in zip(ss.tolist(), *columns,
                                          reg.tails.l1(ss, 1e-8).tolist()):
            # u(x) = x v(1/x) at the zero endpoint
            x, k = (1.0 / s, 1.0 / s) if self.endpoint == "zero" else (s, 1.0)
            rows.append({
                "x": x,
                "value": k * val,
                "approximant": k * m,
                "ratio": ratio,
                "envelope_bound": math.expm1(tail),
            })
        return rows


def _jsonable(val):
    if isinstance(val, complex):
        return {"re": val.real, "im": val.imag}
    if isinstance(val, tuple):
        return [_jsonable(v) for v in val]
    if isinstance(val, (np.floating,)):
        return float(val)
    return val


def analyze(f_text, g_text, endpoint="infinity", interval=None, tol=1e-10,
            tail_tol=1e-6, x_max=None, step=None):
    """Full analysis of u'' = (f + g) u at an endpoint.

    f_text/g_text are coefficient expressions in the variable x.
    endpoint is 'infinity' or 'zero'.  interval bounds the region of
    interest; its left edge seeds the cutoff search (for the zero
    endpoint the roles are mirrored through s = 1/x).  x_max forces the
    resolved range to reach at least that far (for 'zero', down to at
    least that small an x).  step sets the level-0 marching step in
    the phase variable (in x for f == 0): the graded grid keeps it where
    the perturbation weight is large and doubles it, up to 0.25, where the
    weight is small.  The default resolves the span with fourth-order
    error well under the reported tolerances.  A march that would take
    more than 2^21 level-0 steps is refused with AnalysisError.

    The grid end is predicted without a march, where the tail completion's
    residual bound with z = 1 falls to tail_tol / 10, and the correction is
    marched once there; march["predicted_residual"] is that prediction.
    Only when the completed residual bound still exceeds tail_tol is the
    end predicted again, for the target divided by the ratio of the bound
    to its prediction, and marched: one entry of march["rounds"] per
    march, and AnalysisError when six miss.

    tol, tail_tol and x_max (when given) must be positive finite numbers,
    and interval must satisfy lo < hi (ValueError).

    Returns an AnalysisReport whose .solutions hold normalized value and
    derivative callables, valid on the resolved range, and whose .work
    holds the counters of the quadrature.Work ledger the run charged.  That
    ledger caps the run at quadrature.EVAL_BUDGET (2^20) samples; a
    quadrature that would pass it raises BudgetExceededError.
    """
    for name, value in (("tol", tol), ("tail_tol", tail_tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError("%s must be a positive finite number" % name)
    if x_max is not None and not (math.isfinite(x_max) and x_max > 0.0):
        raise ValueError("x_max must be a positive finite number")
    split = transform.CoefficientSplit.from_expressions(f_text, g_text)
    if endpoint not in ("infinity", "zero"):
        raise ValueError("endpoint must be 'infinity' or 'zero'")
    if interval is None:
        interval = (1.0, math.inf) if endpoint == "infinity" else (0.0, 1.0)
    if not float(interval[0]) < float(interval[1]):
        raise ValueError("interval must satisfy lo < hi")
    inverted = endpoint == "zero"
    with quadrature.Work() as work:
        cls = transform.classify_regime(split, endpoint, interval)
        if inverted:    # run everything on the inverted split
            frame = (cls.inverted, cls.inner, 1.0 / float(interval[1]),
                     (1.0 / x_max) if x_max is not None else None)
        else:
            frame = (split, cls, float(interval[0]), x_max)
        reg, march, cert, verification, constants = _analyze_infinity(
            *frame, tol, tail_tol, step, inverted)
    solutions = ([_pull_back(s, march["x_min"], march["cutoff_x"])
                  for s in reg.pair] if inverted else reg.pair)
    return AnalysisReport(
        f_text=f_text, g_text=g_text, endpoint=endpoint,
        interval=(float(interval[0]), float(interval[1])),
        tolerance=tol, tail_tolerance=tail_tol,
        regime=cls.regime, checks=cls.checks,
        psi_text=(expr.to_string(cls.psi.psi_ast)
                  if cls.psi is not None else None),
        certificate=cert, verification=verification,
        march=march, constants=constants, solutions=solutions,
        work=dataclasses.asdict(work), march_run=reg.sol, _regime=reg,
    )


def _pull_back(sol, lo, hi):
    """Map an s-domain solution v to x through u(x) = x * v(1/x); x may not
    leave the resolved range [lo, hi], which is checked in x."""
    v, vd = sol.value, sol.derivative

    def value(x):
        x = _clip_to_range(x, lo, hi, toward_zero=True)
        return x * v(1.0 / x)

    def deriv(x):
        x = _clip_to_range(x, lo, hi, toward_zero=True)
        return v(1.0 / x) - vd(1.0 / x) / x

    asym = "x * [%s at s=1/x]" % sol.asymptotic
    return NormalizedSolution(sol.label + "-at-zero", asym, value, deriv)
