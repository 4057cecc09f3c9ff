"""End-to-end analysis: from coefficient expressions to certified
leading-order solution behavior.

analyze() parses the split, classifies the regime, chooses a cutoff whose
perturbation tail is certifiably small, predicts the grid end at which the
tail completion will meet tail_tol (_predict_end: the regime's completion
bound with z = 1, from tail integrals alone), marches the correction
equation there on a graded grid at two resolutions (the raw fine run
carries the hard envelope guarantees; Richardson extrapolation of the pair
feeds the reported constants and solution callables), completes the
connection constants across the un-marched tail with a computable residual
bound, and packages everything into an AnalysisReport.  Only when that
bound still exceeds tail_tol does a further round march to a larger end.

The graded grid (_graded_pair) keeps the level-0 step h_c where the
perturbation weight is large and doubles it, up to _STEP_CAP, where the
weight at and beyond a cell is small: a level-j cell is h_c 2^j long and
starts at a multiple of its own length, so every node is a node of the
uniform grid of step h_c and the fine run bisects every coarse cell.

One object per regime (_Algebraic, _Exponential, _Oscillatory) gives the
certificate weight, one march attempt, the tail completion, the solution
pair and the table's model and value; the rest is shared.  Constant f is
an affine phase map with unit amplitude (_ConstantShape), not a regime of
its own.  For real coefficients the zeta = -i run is the conjugate of the
zeta = +i run, so only the +i run is marched.

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
import functools
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


def _clip_to_range(x, a, X):
    """x clipped to [a, X], which no element may leave beyond roundoff."""
    xv = np.asarray(x, dtype=float)
    inside = (xv <= X * (1 + 1e-12)) & (xv >= a - 1e-12 * max(1.0, abs(a)))
    if not np.all(inside):
        raise RangeError(
            "x=%g outside the resolved range [%g, %g]; rerun with a larger "
            "--xmax to extend it" % (np.extract(~inside, xv)[0], a, X))
    return np.minimum(np.maximum(xv, a), X)


def _extrapolate(coarse, fine):
    """Richardson-combine two marches of the same span, h and h/2.

    Both schemes are second order, so (4 * fine - coarse) / 3 on the
    coarse nodes is fourth order.
    """
    if len(fine.z) != 2 * len(coarse.z) - 1:
        raise AnalysisError("resolution pair does not nest")

    z = (4.0 * fine.z[::2] - coarse.z) / 3.0
    return dataclasses.replace(
        coarse, z=z, z_deriv=(4.0 * fine.z_deriv[::2] - coarse.z_deriv) / 3.0,
        envelope_log=fine.envelope_log[::2], l1_q=fine.l1_q[::2],
        z_max=float(np.max(np.abs(z))), steps=coarse.steps + fine.steps)


def _abs_fn(fn):
    def wrapped(x):
        with np.errstate(all="ignore"):
            return np.abs(fn(x))
    return wrapped


_H_COARSE_MIN = 0.004
_H_COARSE_MAX = 0.02
_TARGET_CELLS = 20000
# The largest coarse step, in y (in x for the algebraic march): up to this
# width the interpolants of z between nodes (on the oscillatory runs, of
# its slowly varying parts; see VolterraSolution.z_at) and the 8-point
# Gauss-Legendre sums of the recessive branch keep their accuracy.
_STEP_CAP = 0.25
# The most level-0 steps one march may span, 24 times the largest n_c of
# the benchmark's certify cases (86.7k, on constant-exp).  A longer march
# is refused before an array of its length is allocated.
_MAX_LEVEL0_STEPS = 2 ** 21


def _choose_h(y_span, override=None):
    """The level-0 coarse step and the span in such steps.

    Raises ValueError for an override that is not a positive finite
    number, and AnalysisError when the span takes more than
    _MAX_LEVEL0_STEPS such steps (or a count that overflows)."""
    if override is not None:
        h = float(override)
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError("step must be a positive finite number")
    else:
        h = min(_H_COARSE_MAX, max(_H_COARSE_MIN, y_span / _TARGET_CELLS))
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
    extrapolated march is fourth order, so the error a region of cells adds
    goes like its length times h^4 times the weight's scale.  Where the
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


def _graded_pair(pilot, sample, solve, h_c, n_c):
    """March the coarse/fine pair on the graded grid of level-0 step h_c
    over n_c such steps.  Returns (coarse, fine), their steps charged.

    sample(idx) gives (march samples, grading weight |w|, nodes) at the
    positions idx * h_c / 2; solve(samples, steps, nodes) marches them;
    pilot(idx) gives the grading weight alone, at points that need only be
    near those positions.  The pilot samples the weight at the nodes of the
    largest cells, which are nodes of every graded grid.  Each pilot
    interval gets the level (_levels) of the largest weight sampled at or
    beyond its start (a suffix max, so a step never grows into a later
    bump), with W0 the largest weight seen.  Every sample of the fine run
    (the nodes and midpoints of the coarse cells) is then checked against
    its cell by the same rule: a sample that breaks it joins the samples
    and forces a re-grade, which lowers that cell's level.  Levels only
    fall from one grading to the next, so this ends.

    Raises AnalysisError, allocating nothing, when n_c exceeds
    _MAX_LEVEL0_STEPS.
    """
    if n_c > _MAX_LEVEL0_STEPS:
        raise _too_long(h_c * n_c, h_c, n_c)
    top = 0
    while h_c * 2 ** (top + 1) <= _STEP_CAP:
        top += 1
    full = 2 ** top
    starts = 2 * full * np.arange(-(-n_c // full))      # in fine steps
    seen_at = np.append(starts, 2 * n_c)
    seen = pilot(seen_at)
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
    coarse = solve(vals[::2], h_c * units, nodes[::2])
    fine = solve(vals, 0.5 * h_c * np.repeat(units, 2), nodes)
    quadrature.charge("march_steps", coarse.steps + fine.steps)
    return coarse, fine


# --------------------------------------------------------------------------
# leading-order shapes: how the phase is tabulated and the amplitude read

class _Shape:
    """Variable f: amplitude |f|^(-1/4) and phase Phi = int_a^x |f|^(1/2).

    span() builds one PhaseTable of Phi on [a, x_end] per tail round; the
    span is its total and phase_map() places the march's y nodes by Newton
    inside it."""

    template = "|f(x)|^(-1/4) * %s(%sPhi(x))"   # % (function, sign)
    decay_text = ""
    # the solutions are normalized at phase origin_rate * a; the recessive
    # model is amp e^{-Phi} / norm
    origin_rate = 0.0
    norm = 1.0

    def __init__(self, psi):
        self.psi = psi
        self.amp = psi.amplitude

    def amp_deriv(self):
        return expr.compile_fn(expr.differentiate(self.psi.amplitude_ast))

    def span(self, a, x_end):
        self.table = transform.PhaseTable(self.psi.sqrt_f, a, x_end)
        return self.table.span

    def phase_map(self, a, ys):
        return transform.PhaseMap.build(self.table, self.psi.inv_sqrt_f, ys)

    def rough_x(self, a, ys):
        """x at the phase values ys, interpolated linearly in the table:
        where the march's pilot samples the weight."""
        return np.interp(ys, self.table.phi, self.table.edges)


class _ConstantShape(_Shape):
    """Constant f: the affine phase map y = rate (x - a) with unit
    amplitude; the solutions are normalized to e^{+-rate x}."""

    def __init__(self, rate):
        self.rate = self.origin_rate = self.norm = rate
        r_s = "%.12g" % rate
        one = r_s == "1"
        self.template = "%s(%s" + ("" if one else r_s + "*") + "x)"
        self.decay_text = "" if one else " / " + r_s

    def amp(self, x):
        return np.ones_like(x)

    def amp_deriv(self):
        return np.zeros_like

    def span(self, a, x_end):
        return self.rate * (x_end - a)

    def phase_map(self, a, ys):
        return transform.PhaseMap.affine(a, self.rate, ys)

    def rough_x(self, a, ys):
        return a + ys / self.rate


# --------------------------------------------------------------------------
# one object per regime

def _regime_for(split, cls):
    """The regime object for a classified split: the one place the
    regime is consulted."""
    if cls.regime.algebraic:
        return _Algebraic(split.g)
    if cls.constant_f is not None:
        shape = _ConstantShape(math.sqrt(abs(cls.constant_f)))
    else:
        shape = _Shape(cls.psi)
    kind = _Oscillatory if cls.regime.oscillatory else _Exponential
    return kind(cls.psi, shape)


class _Algebraic:
    """f == 0: solutions like x and 1; z is marched in x itself and the
    table follows the dominant branch against x."""

    def __init__(self, g):
        self.g = g

    def sg(self, x):
        with np.errstate(all="ignore"):
            return np.asarray(x, dtype=float) * self.g(x)

    def weight(self, x):
        return np.abs(self.sg(x))

    @property
    def end(self):
        return float(self.sol.grid[-1])

    def span(self, a, x_end):
        return float(x_end - a)

    def march(self, a, span, h_c, n_c):
        def sample(idx):
            s = a + 0.5 * h_c * idx
            with np.errstate(all="ignore"):
                g = np.asarray(self.g(s), dtype=float)
                return g, np.abs(s * g), s

        def solve(g, steps, s):
            return volterra.solve_algebraic(g, a, steps, grid=s)

        coarse, fine = _graded_pair(lambda idx: sample(idx)[1], sample, solve,
                                    h_c, n_c)
        self.fine, self.sol = fine, _extrapolate(coarse, fine)

    def predicted_residual(self, a, xs, L, tol):
        """complete()'s residual bound with z = 1: then X z'(X) = S2(X) / X,
        S2(X) = int_a^X s^2 g."""
        S2 = quadrature.integrate_finite(lambda s: s * self.sg(s), a, xs,
                                         tol=tol).value
        return L * (2.0 * L + np.abs(S2) / xs) / (1.0 - L)

    def complete(self, qtol):
        X = self.end
        W0 = quadrature.integrate_to_infinity(self.sg, X, tol=qtol).value
        W0a = quadrature.l1_tail_norm(self.sg, X, tol=qtol).value
        c, raw = (volterra.complete_algebraic(sol, W0, W0a)
                  for sol in (self.sol, self.fine))
        self.completion, self.march_error = c, abs(raw.value - c.value)
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

    def table_end(self):
        return self.end * (1 - 1e-6)

    def value(self, s):
        return self.pair[0].value(s)

    def model(self, s):
        return np.asarray(s, dtype=float)


class _Phased:
    """What the exponential and oscillatory regimes share: the weight
    |psi|, the march of the branch e^{zeta y} in the phase variable y and
    the tail integrals of psi."""

    def __init__(self, psi, shape):
        self.psi, self.shape, self.span = psi, shape, shape.span
        self.weight = _abs_fn(psi.psi)

    @property
    def end(self):
        return float(self.phase_map.x_nodes[-1])

    def w(self, x):
        """The march's weight psi |f|^(-1/2) at x."""
        with np.errstate(all="ignore"):
            return (np.asarray(self.psi.psi(x), dtype=float)
                    * np.asarray(self.psi.inv_sqrt_f(x), dtype=float))

    def march(self, a, y_span, h_c, n_c):
        maps = []

        def pilot(idx):
            return np.abs(self.w(self.shape.rough_x(a, 0.5 * h_c * idx)))

        def sample(idx):
            pmap = self.shape.phase_map(a, 0.5 * h_c * idx)
            quadrature.charge("map_nodes", len(idx))
            maps.append(pmap)
            w = self.w(pmap.x_nodes)
            return w, np.abs(w), pmap.y_nodes

        def solve(w, steps, y):
            return volterra.solve_kernel(w, steps, self.zeta, grid=y)

        coarse, fine = _graded_pair(pilot, sample, solve, h_c, n_c)
        self.phase_map, self.fine = maps[-1], fine
        self.sol = _extrapolate(coarse, fine)

    def tail_integrals(self, qtol):
        """int psi and int |psi| past the grid end."""
        X, psi = self.end, self.psi.psi
        return (quadrature.integrate_to_infinity(psi, X, tol=qtol).value,
                quadrature.l1_tail_norm(psi, X, tol=qtol).value)

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

    def table_end(self):
        return self.end * (1 - 1e-6)


class _Exponential(_Phased):
    """f > 0: solutions like |f|^(-1/4) e^{+-Phi}.  The growing branch is
    marched, the decaying one follows by reduction of order, and the
    table follows the decaying one against its leading shape."""

    zeta = 1.0

    def predicted_residual(self, a, xs, L, tol):
        """complete()'s residual bound with z = 1, whose memory term z' is
        then about w / 2."""
        return 0.5 * L * (L + 0.25 * np.abs(self.w(xs))) / (1.0 - 0.5 * L)

    def complete(self, qtol):
        tails = self.tail_integrals(qtol)
        c, raw = (volterra.complete_exponential(sol, *tails)
                  for sol in (self.sol, self.fine))
        self.completion, self.march_error = c, abs(raw.value - c.value)
        self.constants = {"z_infinity": c.value}
        return c.residual_bound

    def solutions(self):
        sol, shape, phase = self.sol, self.shape, self.phase_fn()
        zhat = float(np.real(self.completion.value))
        scale = math.exp(shape.origin_rate * self.phase_map.a) / zhat
        amp, amp_d, sqrt_f = shape.amp, shape.amp_deriv(), self.psi.sqrt_f
        # In the phase variable u1^{-2} dx = scale^{-2} kappa e^{-2y} z^{-2} dy
        # exactly: the amplitude |f|^{-1/4} cancels the Jacobian |f|^{-1/2},
        # and kappa = 1 / norm is the constant map's 1 / rate.  Past the grid
        # end Y the closed tail u1(Y)^{-2} / (2 |f|^{1/2}), exact for any
        # pure shape |f|^{-1/4} e^{Phi}, is e^{-2Y} / (2 z(Y)^2) in these
        # units.  So u2 = 2 u1 int_x^inf u1^{-2} is a constant times
        # amp z e^{-y} rest(y), and no factor in it overflows.
        rest = volterra.InverseSquareIntegral(sol, 2.0, 0.5 / sol.z[-1] ** 2)

        def u1(x):
            x, y = phase(x)
            with np.errstate(over="ignore"):
                return scale * amp(x) * np.exp(y) * sol.z_at(y)

        def u1d(x):
            x, y = phase(x)
            z = sol.z_at(y)
            with np.errstate(over="ignore"):
                return scale * np.exp(y) * (amp_d(x) * z + amp(x) * sqrt_f(x)
                                            * (z + sol.deriv_at(y)))

        def u2(x):
            x, y = phase(x)
            return 2.0 / (scale * shape.norm) * amp(x) * sol.z_at(y) \
                * np.exp(-y) * rest(y)

        def u2d(x):
            # (u1'/u1) u2 - 2/u1
            x, y = phase(x)
            z, ax = sol.z_at(y), amp(x)
            core = amp_d(x) * z + ax * sqrt_f(x) * (z + sol.deriv_at(y))
            return 2.0 / scale * np.exp(-y) * (
                core * rest(y) / shape.norm - 1.0 / (ax * z))

        self.pair = [
            NormalizedSolution("dominant", shape.template % ("exp", "+"),
                               u1, u1d),
            NormalizedSolution("recessive", shape.template % ("exp", "-")
                               + shape.decay_text, u2, u2d)]
        return self.pair

    def table_end(self):
        # keep the decaying branch well inside the float range: values at
        # phase y scale like e^{-y}, so cap the tabulated phase
        if float(self.phase_map.y_nodes[-1]) > 300.0:
            return float(self.phase_map.x_of_y(300.0))
        return super().table_end()

    def value(self, s):
        return self.pair[1].value(s)

    def model(self, s):
        pmap, shape = self.phase_map, self.shape
        return shape.amp(s) * np.exp(-(pmap.y_of_x(s) + shape.origin_rate
                                       * pmap.a)) / shape.norm


class _Oscillatory(_Phased):
    """f < 0: solutions like |f|^(-1/4) cos Phi and |f|^(-1/4) sin Phi,
    read off the e^{+-i Phi} pair.  The table follows the modulus of the
    complex solution against the amplitude, which is zero-free."""

    zeta = 1j

    @functools.cached_property
    def tail_moments(self):
        """(a1, a2) = ((psi |f|^{-1/2})', (a1 |f|^{-1/2})'), differentiated
        symbolically and compiled once, for all tail rounds."""
        psi = self.psi
        a1_ast = expr.differentiate(
            expr.binary("mul", psi.psi_ast, psi.inv_sqrt_f_ast))
        a2_ast = expr.differentiate(
            expr.binary("mul", a1_ast, psi.inv_sqrt_f_ast))
        return expr.compile_fn(a1_ast), expr.compile_fn(a2_ast)

    def predicted_residual(self, a, xs, L, tol):
        """complete()'s residual bound with z = 1, so |xi1| + |xi2| + |eta1|
        + |eta2| = 2."""
        R2 = quadrature.l1_tail_norm(_abs_fn(self.tail_moments[1]), xs,
                                     tol=tol).value
        return (0.5 * L * L + 0.75 * R2) / (1.0 - L)

    def complete(self, qtol):
        # the e^{+-2iy} tail moments via two integrations by parts in x
        psi = self.psi
        G0, G0a = self.tail_integrals(qtol)
        a1, a2 = self.tail_moments
        X = self.end
        R2 = quadrature.l1_tail_norm(_abs_fn(a2), X, tol=qtol).value
        Y = self.phase_map.y_span
        invX = float(psi.inv_sqrt_f(X))
        psiX = float(psi.psi(X))
        a1X = float(a1(X))
        Gp, Gm = (cmath.exp(2j * sign * Y) * invX
                  * (-psiX / (2j * sign) - a1X / 4.0) for sign in (1, -1))
        g_err = R2 / 4.0
        c, raw = (volterra.complete_oscillatory(sol, G0, Gp, Gm, G0a)
                  for sol in (self.sol, self.fine))
        self.completion = c
        self.march_error = max(abs(raw.xi1 - c.xi1), abs(raw.xi2 - c.xi2))
        self.constants = {"xi1": c.xi1, "xi2": c.xi2, "eta1": c.eta1,
                          "eta2": c.eta2}
        size = (abs(c.xi1) + abs(c.xi2) + abs(c.eta1) + abs(c.eta2))
        return c.residual_bound + g_err * (1.0 + size) / (1.0 - min(G0a, 0.9))

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
        amp, amp_d, sqrt_f = shape.amp, shape.amp_deriv(), self.psi.sqrt_f

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
            return (amp(x) * sqrt_f(x) * core
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
# usually certifies and the rounds below are the fallback.
_PREDICT_SHARE = 0.1
# the prediction's grid x0 2^k, k < _PREDICT_POINTS: a tail that has not
# met the target by x0 2^47 (about 1.4e14 x0) is refused
_PREDICT_POINTS = 48


def _predict_end(reg, a, x0, tail_tol):
    """(x_end, r_hat): where the predicted residual r_hat reaches
    _PREDICT_SHARE * tail_tol, found without a march.  Every term is
    evaluated on the grid x0 2^k, the tails of the weight from one adaptive
    run; x_end is the first grid point at or below the target, moved back
    toward its predecessor by interpolating log r_hat in log x."""
    target = _PREDICT_SHARE * tail_tol
    tol = 0.01 * target
    xs = x0 * 2.0 ** np.arange(_PREDICT_POINTS)
    L = quadrature.l1_tail_norm(reg.weight, xs, tol=tol).value
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
    a, tail0 = certificate_mod.find_cutoff(reg.weight, lo, tol=tol)
    reg.cutoff = a

    x_end, r_hat = _predict_end(
        reg, a, max(x_floor if x_floor is not None else a, a + 10.0),
        tail_tol)

    qtol = max(min(tol, 1e-12), 1e-14)
    refinements = 0
    history = []
    for _round in range(6):
        # the coarse/fine march pair, halving the step (and rebuilding
        # the grid) on envelope violations
        span = reg.span(a, x_end)
        h_c, n_c = _choose_h(span, step)
        for attempt in range(4):
            try:
                reg.march(a, span, h_c, n_c)
                break
            except (volterra.EnvelopeError, volterra.StepTooLargeError):
                if attempt == 3:
                    raise
                h_c /= 2.0
                n_c *= 2
                refinements += 1
        residual = reg.complete(qtol)
        history.append([float(x_end), float(residual), reg.fine.steps // 2])
        if residual <= tail_tol:
            break
        # Predict the cutoff that meets the target from the observed decay
        # residual ~ C x^{-p}; default to the quadratic rate the tail
        # completions guarantee for 1/x-type masses until two rounds exist.
        p = 2.0
        if len(history) >= 2:
            (x_prev, r_prev, _), (x_cur, r_cur, _) = history[-2:]
            if r_prev > r_cur > 0.0 and x_cur > x_prev:
                p = min(6.0, max(0.5, math.log(r_prev / r_cur)
                                 / math.log(x_cur / x_prev)))
        grow = (residual / tail_tol) ** (1.0 / p) * 1.25
        x_end = x_end * min(50.0, max(1.3, grow)) + 1.0
    else:
        raise AnalysisError(
            "could not certify the connection constants to %.3g "
            "(best residual bound %.3g); increase --tail-tol or --xmax"
            % (tail_tol, history[-1][1]))

    cert = certificate_mod.gronwall_certificate(
        a, tail0, reg.fine.envelope_report())
    verification = certificate_mod.verify_certificate(cert, reg.weight,
                                                      tol=tol)
    reg.solutions()
    constants = dict(reg.constants, tail_residual_bound=residual,
                     march_error_estimate=reg.march_error)
    end = reg.end
    if inverted:
        march = {"frame": "inverted (s = 1/x)", "cutoff_s": a,
                 "cutoff_x": 1.0 / a, "s_max": end, "x_min": 1.0 / end}
    else:
        march = {"frame": "direct", "cutoff": a, "x_max": end}
    # rounds: [x_end, residual bound, coarse cells] per tail round, x_end
    # in the frame of the march (s at the zero endpoint); a second round
    # means the predicted residual missed
    march.update(phase_span=span, coarse_step=h_c, refinements=refinements,
                 rounds=history, predicted_residual=r_hat)
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
    # the raw fine march the certificate's envelope report comes from (the
    # zeta = +i run for oscillatory regimes; in s = 1/x at the zero endpoint)
    fine_run: volterra.VolterraSolution = field(repr=False, compare=False)
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
        certified branch.  The envelope bound column is the remaining
        correction radius exp(tail |w| past x) - 1, non-increasing toward
        the endpoint.  All its tails come from one adaptive run over the
        pieces between the rows (quadrature.l1_tail_norm with an array of
        limits), so every entry is within the run's shared tolerance."""
        reg = self._regime
        s_hi = reg.table_end()
        s_lo = reg.cutoff + (s_hi - reg.cutoff) * 0.05
        ss = np.linspace(s_lo, s_hi, count)
        tails = quadrature.l1_tail_norm(reg.weight, ss, tol=1e-8).value
        rows = []
        for s, val, m, tail in zip(ss.tolist(), reg.value(ss).tolist(),
                                   reg.model(ss).tolist(), tails.tolist()):
            # u(x) = x v(1/x) at the zero endpoint
            x, k = (1.0 / s, 1.0 / s) if self.endpoint == "zero" else (s, 1.0)
            val, m = k * val, k * m
            rows.append({
                "x": x,
                "value": val,
                "approximant": m,
                "ratio": val / m if m != 0 else math.inf,
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
    least that small an x).  step sets the level-0 coarse marching step in
    the phase variable (in x for f == 0): the graded grid keeps it where
    the perturbation weight is large and doubles it, up to 0.25, where the
    weight is small.  The default resolves the span with second-order
    error well under the reported tolerances.  A march that would take
    more than 2^21 level-0 steps is refused with AnalysisError.

    The grid end is predicted without a march, where the tail completion's
    residual bound with z = 1 falls to tail_tol / 10, and the pair is
    marched once there; march["predicted_residual"] is that prediction.
    Only when the completed residual bound still exceeds tail_tol is the
    end moved out and the pair marched again, one entry of march["rounds"]
    per march.  constants["march_error_estimate"] is how far the same
    completion of the raw fine run lies from the reported constants.

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
    solutions = [_pull_back(s) for s in reg.pair] if inverted else reg.pair
    return AnalysisReport(
        f_text=f_text, g_text=g_text, endpoint=endpoint,
        interval=(float(interval[0]), float(interval[1])),
        tolerance=tol, tail_tolerance=tail_tol,
        regime=cls.regime, checks=cls.checks,
        psi_text=(expr.to_string(cls.psi.psi_ast)
                  if cls.psi is not None else None),
        certificate=cert, verification=verification,
        march=march, constants=constants, solutions=solutions,
        work=dataclasses.asdict(work), fine_run=reg.fine, _regime=reg,
    )


def _pull_back(sol):
    """Map an s-domain solution v to x through u(x) = x * v(1/x)."""
    v, vd = sol.value, sol.derivative

    def value(x):
        x = np.asarray(x, dtype=float)
        return x * v(1.0 / x)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return v(1.0 / x) - vd(1.0 / x) / x

    asym = "x * [%s at s=1/x]" % sol.asymptotic
    return NormalizedSolution(sol.label + "-at-zero", asym, value, deriv)
