"""End-to-end analysis: from coefficient expressions to certified
leading-order solution behavior.

analyze() parses the split, classifies the regime, chooses a cutoff whose
perturbation tail is certifiably small, marches the correction equation
on a uniform grid at two resolutions (the raw fine run carries the hard
envelope guarantees; Richardson extrapolation of the pair feeds the
reported constants and solution callables), completes the connection
constants across the un-marched tail with a computable residual bound,
and packages everything into an AnalysisReport.

One object per regime (_Algebraic, _Exponential, _Oscillatory) gives the
certificate weight, one march attempt, the tail completion, the solution
pair and the table's model and value; the rest is shared.  Constant f is
an affine phase map with unit amplitude (_ConstantShape), not a regime of
its own.  For real coefficients the zeta = -i run is the conjugate of the
zeta = +i run, so only the +i run is marched.

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


@dataclass
class _Work:
    """Deterministic effort counters (never wall-clock)."""

    quadrature_evaluations: int = 0
    march_steps: int = 0
    map_nodes: int = 0

    def quad(self, result):
        self.quadrature_evaluations += result.evaluations
        return result.value


def _vectorize(fn):
    """Lift a scalar callable to accept arrays (used for solution
    callables whose cores involve per-point quadrature)."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return fn(float(arr))
        flat = [fn(float(v)) for v in arr.ravel()]
        out = np.array(flat)
        return out.reshape(arr.shape)

    return wrapped


def _extrapolate(coarse, fine):
    """Richardson-combine two marches of the same span, h and h/2.

    Both schemes are second order, so (4 * fine - coarse) / 3 on the
    coarse nodes is fourth order; scalar functionals of the solution
    (P0, reflected moments, partial moments) extrapolate the same way.
    """
    if len(fine.z) != 2 * len(coarse.z) - 1:
        raise AnalysisError("resolution pair does not nest")

    def comb(a, b):
        if a is None or b is None:
            return None
        return (4.0 * b - a) / 3.0

    z = comb(coarse.z, fine.z[::2])
    return dataclasses.replace(
        coarse, z=z, z_deriv=comb(coarse.z_deriv, fine.z_deriv[::2]),
        envelope_log=fine.envelope_log[::2], l1_q=fine.l1_q[::2],
        P0=comb(coarse.P0, fine.P0),
        P_refl=comb(coarse.P_refl, fine.P_refl),
        S1=comb(coarse.S1, fine.S1), S2=comb(coarse.S2, fine.S2),
        z_max=float(np.max(np.abs(z))), steps=coarse.steps + fine.steps)


def _conjugate(run):
    """The zeta = -i run of real samples: the conjugate of the +i run."""
    return dataclasses.replace(
        run, mu=run.mu.conjugate(), z=np.conj(run.z),
        z_deriv=np.conj(run.z_deriv), P0=run.P0.conjugate(),
        P_refl=run.P_refl.conjugate())


def _abs_fn(fn):
    def wrapped(x):
        with np.errstate(all="ignore"):
            return np.abs(fn(x))
    return wrapped


def _exp(y):
    # plain math.exp raises on overflow; far out on the grid the growing
    # branch can genuinely exceed the float range, and inf is the honest
    # answer there
    with np.errstate(over="ignore"):
        return float(np.exp(np.float64(y)))


_H_COARSE_MIN = 0.004
_H_COARSE_MAX = 0.02
_TARGET_CELLS = 20000


def _choose_h(y_span, override=None):
    if override is not None:
        h = float(override)
    else:
        h = min(_H_COARSE_MAX, max(_H_COARSE_MIN, y_span / _TARGET_CELLS))
    n = max(int(math.ceil(y_span / h)), 8)
    return y_span / n, n


# --------------------------------------------------------------------------
# leading-order shapes: how the phase is tabulated and the amplitude read

class _Shape:
    """Variable f: amplitude |f|^(-1/4) and phase Phi = int_a^x |f|^(1/2),
    tabulated by the Runge-Kutta phase map from the cutoff a."""

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

    def span(self, a, x_end, tol, work):
        return work.quad(quadrature.integrate_finite(
            self.psi.sqrt_f, a, x_end, tol=min(tol, 1e-12)))

    def phase_map(self, a, y_span, h):
        inv = self.psi.inv_sqrt_f
        return transform.PhaseMap.build(
            lambda x: float(inv(x)), self.psi.sqrt_f, a, y_span, h)


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
        return 1.0

    def amp_deriv(self):
        return lambda x: 0.0

    def span(self, a, x_end, tol, work):
        return self.rate * (x_end - a)

    def phase_map(self, a, y_span, h):
        return transform.PhaseMap.affine(a, self.rate, y_span, h)


# --------------------------------------------------------------------------
# one object per regime

def _regime_for(split, cls, work):
    """The regime object for a classified split: the one place the
    regime is consulted."""
    if cls.regime.algebraic:
        return _Algebraic(split.g, work)
    if cls.constant_f is not None:
        shape = _ConstantShape(math.sqrt(abs(cls.constant_f)))
    else:
        shape = _Shape(cls.psi)
    kind = _Oscillatory if cls.regime.oscillatory else _Exponential
    return kind(cls.psi, shape, work)


class _Algebraic:
    """f == 0: solutions like x and 1; z is marched in x itself and the
    table follows the dominant branch against x."""

    def __init__(self, g, work):
        self.g, self.work = g, work

    def sg(self, x):
        with np.errstate(all="ignore"):
            return np.asarray(x, dtype=float) * self.g(x)

    def weight(self, x):
        return np.abs(self.sg(x))

    @property
    def end(self):
        return float(self.sol.grid[-1])

    def span(self, a, x_end, tol):
        return float(x_end - a)

    def march(self, a, span, h_c, n_c):
        h_f = h_c / 2.0
        s_f = a + h_f * np.arange(2 * n_c + 1)
        with np.errstate(all="ignore"):
            g_f = np.asarray(self.g(s_f), dtype=float)
        coarse = volterra.solve_algebraic(g_f[::2], a, h_c)
        fine = volterra.solve_algebraic(g_f, a, h_f)
        self.work.march_steps += coarse.steps + fine.steps
        self.fine, self.sol = fine, _extrapolate(coarse, fine)

    def complete(self, qtol):
        X = self.end
        W0 = self.work.quad(quadrature.integrate_to_infinity(
            self.sg, X, tol=qtol))
        W0a = self.work.quad(quadrature.l1_tail_norm(self.sg, X, tol=qtol))
        self.completion = volterra.complete_algebraic(self.sol, W0, W0a)
        self.constants = {"z_infinity": self.completion.value}
        return self.completion.residual_bound

    def solutions(self):
        sol, X = self.sol, self.end
        zhat = float(np.real(self.completion.value))
        a = float(sol.grid[0])

        def _sv(x):
            xv = np.asarray(x, dtype=float)
            if np.any(xv > X * (1 + 1e-12)) or np.any(xv < a - 1e-12):
                raise RangeError(
                    "x outside the resolved range [%g, %g]; rerun with a "
                    "larger --xmax to extend it" % (a, X))
            return np.clip(xv, a, X)

        def u1(x):
            xv = _sv(x)
            return xv * sol.z_at(xv) / zhat

        def u1d(x):
            xv = _sv(x)
            return (sol.z_at(xv) + xv * sol.deriv_at(xv)) / zhat

        def log_u1(x):
            # z stays positive: the certificate pins |z - 1| below one
            xv = float(_sv(x))
            return math.log(xv) + math.log(float(sol.z_at(xv))) \
                - math.log(zhat)

        # int_X^inf u1^{-2} = 1/(u1 u1')(X), exact for any u1 ~ x + b;
        # passed to the reduction scaled by u1(X)^2
        self.pair = _reduced(u1, u1d, log_u1, X,
                             float(u1(X)) / float(u1d(X)), 1.0, "x", "1")
        return self.pair

    def table_end(self):
        return self.end * (1 - 1e-6)

    def value(self, s):
        return float(self.pair[0].value(s))

    def model(self, s):
        return float(s)


class _Phased:
    """What the exponential and oscillatory regimes share: the weight
    |psi|, the march of the branch e^{zeta y} in the phase variable y and
    the tail integrals of psi."""

    def __init__(self, psi, shape, work):
        self.psi, self.shape, self.work = psi, shape, work
        self.weight = _abs_fn(psi.psi)

    @property
    def end(self):
        return float(self.phase_map.x_nodes[-1])

    def span(self, a, x_end, tol):
        return self.shape.span(a, x_end, tol, self.work)

    def march(self, a, y_span, h_c, n_c):
        h_f = h_c / 2.0
        pmap = self.shape.phase_map(a, y_span, h_f)
        self.work.map_nodes += len(pmap.x_nodes)
        x_f = pmap.x_nodes
        with np.errstate(all="ignore"):
            w_f = (np.asarray(self.psi.psi(x_f), dtype=float)
                   * np.asarray(self.psi.inv_sqrt_f(x_f), dtype=float))
        coarse = volterra.solve_kernel(w_f[::2], h_c, self.zeta)
        fine = volterra.solve_kernel(w_f, h_f, self.zeta)
        self.work.march_steps += coarse.steps + fine.steps
        self.phase_map, self.fine = pmap, fine
        self.sol = _extrapolate(coarse, fine)

    def tail_integrals(self, qtol):
        """int psi and int |psi| past the grid end."""
        X, psi = self.end, self.psi.psi
        return (
            self.work.quad(quadrature.integrate_to_infinity(psi, X, tol=qtol)),
            self.work.quad(quadrature.l1_tail_norm(psi, X, tol=qtol)))

    def phase_fn(self):
        # y(x) on the resolved range, which it refuses to leave; a plain
        # closure, so the solutions holding it do not keep the regime (and
        # its arrays) alive in a reference cycle
        pmap = self.phase_map
        a, X, y_end = pmap.a, float(pmap.x_nodes[-1]), float(pmap.y_nodes[-1])

        def phase(x):
            if x > X * (1 + 1e-12) or x < a - 1e-12 * max(1.0, abs(a)):
                raise RangeError(
                    "x=%g outside the resolved range [%g, %g]; rerun with a "
                    "larger --xmax to extend it" % (x, a, X))
            return min(float(pmap.y_of_x(min(max(x, a), X))), y_end)

        return phase

    def table_end(self):
        return self.end * (1 - 1e-6)


class _Exponential(_Phased):
    """f > 0: solutions like |f|^(-1/4) e^{+-Phi}.  The growing branch is
    marched, the decaying one follows by reduction of order, and the
    table follows the decaying one against its leading shape."""

    zeta = 1.0

    def complete(self, qtol):
        self.completion = volterra.complete_exponential(
            self.sol, *self.tail_integrals(qtol))
        self.constants = {"z_infinity": self.completion.value}
        return self.completion.residual_bound

    def solutions(self):
        sol, shape, phase = self.sol, self.shape, self.phase_fn()
        zhat = float(np.real(self.completion.value))
        scale = math.exp(shape.origin_rate * self.phase_map.a) / zhat
        log_scale = math.log(scale)
        amp, amp_d, sqrt_f = shape.amp, shape.amp_deriv(), self.psi.sqrt_f

        def u1(x):
            y = phase(x)
            zv = float(np.real(sol.z_at(y)))
            return scale * float(amp(x)) * _exp(y) * zv

        def u1d(x):
            y = phase(x)
            zv = float(np.real(sol.z_at(y)))
            zdv = float(np.real(sol.deriv_at(y)))
            return scale * _exp(y) * (float(amp_d(x)) * zv + float(amp(x))
                                      * float(sqrt_f(x)) * (zv + zdv))

        def log_u1(x):
            y = phase(x)
            zv = float(np.real(sol.z_at(y)))
            return log_scale + math.log(float(amp(x))) + y + math.log(zv)

        X = self.end
        # int_X^inf u1^{-2} = u1(X)^{-2} / (2 |f(X)|^{1/2}): exact for any
        # pure shape |f|^{-1/4} e^{Phi} because then u1^{-2} is the exact
        # derivative of -e^{-2 Phi}/2; only the decayed z-variation past X
        # is neglected.  Passed scaled by u1(X)^2.
        self.pair = _reduced(
            u1, u1d, log_u1, X, 1.0 / (2.0 * float(sqrt_f(X))), 2.0,
            shape.template % ("exp", "+"),
            shape.template % ("exp", "-") + shape.decay_text)
        return self.pair

    def table_end(self):
        # keep the decaying branch well inside the float range: values at
        # phase y scale like e^{-y}, so cap the tabulated phase
        if float(self.phase_map.y_nodes[-1]) > 300.0:
            return float(self.phase_map.x_of_y(300.0))
        return super().table_end()

    def value(self, s):
        return float(np.real(self.pair[1].value(s)))

    def model(self, s):
        pmap, shape = self.phase_map, self.shape
        y = pmap.y_of_x(s)
        return float(shape.amp(s)) \
            * math.exp(-(y + shape.origin_rate * pmap.a)) / shape.norm


class _Oscillatory(_Phased):
    """f < 0: solutions like |f|^(-1/4) cos Phi and |f|^(-1/4) sin Phi,
    read off the e^{+-i Phi} pair.  The table follows the modulus of the
    complex solution against the amplitude, which is zero-free."""

    zeta = 1j

    def complete(self, qtol):
        # the e^{+-2iy} tail moments via two integrations by parts in x,
        # with everything differentiated symbolically
        psi = self.psi
        G0, G0a = self.tail_integrals(qtol)
        a1_ast = expr.differentiate(
            expr.binary("mul", psi.psi_ast, psi.inv_sqrt_f_ast))
        a2_ast = expr.differentiate(
            expr.binary("mul", a1_ast, psi.inv_sqrt_f_ast))
        a1 = expr.compile_fn(a1_ast)
        a2 = expr.compile_fn(a2_ast)
        X = self.end
        R2 = self.work.quad(quadrature.l1_tail_norm(_abs_fn(a2), X, tol=qtol))
        Y = self.phase_map.y_span
        invX = float(psi.inv_sqrt_f(X))
        psiX = float(psi.psi(X))
        a1X = float(a1(X))
        Gp, Gm = (cmath.exp(2j * sign * Y) * invX
                  * (-psiX / (2j * sign) - a1X / 4.0) for sign in (1, -1))
        g_err = R2 / 4.0
        self.sol_bwd = _conjugate(self.sol)
        c = self.completion = volterra.complete_oscillatory(
            self.sol, self.sol_bwd, G0, Gp, Gm, G0a)
        self.constants = {"xi1": c.xi1, "xi2": c.xi2, "eta1": c.eta1,
                          "eta2": c.eta2,
                          "conjugation_defect": c.conjugation_defect}
        size = (abs(c.xi1) + abs(c.xi2) + abs(c.eta1) + abs(c.eta2))
        return c.residual_bound + g_err * (1.0 + size) / (1.0 - min(G0a, 0.9))

    def solutions(self):
        c, shape, phase = self.completion, self.shape, self.phase_fn()
        M = np.array([[c.xi1, c.eta1], [c.xi2, c.eta2]])
        alpha, beta = np.linalg.solve(M, np.array([1.0, 0.0]))
        turn = cmath.exp(1j * shape.origin_rate * self.phase_map.a)
        alpha, beta = alpha * turn, beta * turn
        self.constants["basis_combination"] = (complex(alpha), complex(beta))
        fwd, bwd = self.sol, self.sol_bwd
        amp, amp_d, sqrt_f = shape.amp, shape.amp_deriv(), self.psi.sqrt_f

        def U(x):
            y = phase(x)
            return float(amp(x)) * (
                alpha * cmath.exp(1j * y) * complex(fwd.z_at(y))
                + beta * cmath.exp(-1j * y) * complex(bwd.z_at(y)))

        def Ud(x):
            y = phase(x)
            p, m = alpha * cmath.exp(1j * y), beta * cmath.exp(-1j * y)
            z1, z2 = complex(fwd.z_at(y)), complex(bwd.z_at(y))
            core = (p * (1j * z1 + complex(fwd.deriv_at(y)))
                    + m * (-1j * z2 + complex(bwd.deriv_at(y))))
            return (float(amp(x)) * float(sqrt_f(x)) * core
                    + float(amp_d(x)) * (p * z1 + m * z2))

        self.U = U
        self.pair = [
            NormalizedSolution("cos-like", shape.template % ("cos", ""),
                               _vectorize(lambda x: U(x).real),
                               _vectorize(lambda x: Ud(x).real)),
            NormalizedSolution("sin-like", shape.template % ("sin", ""),
                               _vectorize(lambda x: U(x).imag),
                               _vectorize(lambda x: Ud(x).imag)),
        ]
        return self.pair

    def value(self, s):
        return abs(complex(self.U(s)))

    def model(self, s):
        return float(self.shape.amp(s))


def _analyze_infinity(split, cls, lo, x_floor, tol, tail_tol, step, work,
                      inverted):
    """The infinity-side machinery for a classified split: the regime
    object marched and completed, the march summary in the caller's
    frame, the certificate, its verification and the constants."""
    reg = _regime_for(split, cls, work)
    a, tail0 = certificate_mod.find_cutoff(reg.weight, lo, tol=tol)
    reg.cutoff = a

    x_end = max(x_floor if x_floor is not None else a, a + 10.0)
    for _ in range(80):
        if quadrature.l1_tail_norm(reg.weight, x_end, tol=1e-6).value <= 0.05:
            break
        x_end *= 1.8
    else:
        raise AnalysisError("perturbation tail refuses to decay")

    qtol = max(min(tol, 1e-12), 1e-14)
    refinements = 0
    history = []
    for _round in range(6):
        # the coarse/fine march pair, halving the step (and rebuilding
        # the grid) on envelope violations
        span = reg.span(a, x_end, tol)
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
        history.append((x_end, residual))
        if residual <= tail_tol:
            break
        # Predict the cutoff that meets the target from the observed decay
        # residual ~ C x^{-p}; default to the quadratic rate the tail
        # completions guarantee for 1/x-type masses until two rounds exist.
        p = 2.0
        if len(history) >= 2:
            (x_prev, r_prev), (x_cur, r_cur) = history[-2], history[-1]
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
    constants = dict(reg.constants, tail_residual_bound=residual)
    end = reg.end
    if inverted:
        march = {"frame": "inverted (s = 1/x)", "cutoff_s": a,
                 "cutoff_x": 1.0 / a, "s_max": end, "x_min": 1.0 / end}
    else:
        march = {"frame": "direct", "cutoff": a, "x_max": end}
    march.update(phase_span=span, coarse_step=h_c, refinements=refinements)
    return reg, march, cert, verification, constants


def _reduced(u1, u1d, log_u1, X, tail_coeff, factor, dominant, recessive):
    """The marched solution u1 and its partner by reduction of order,
    labeled with their asymptotic forms."""
    u2, u2d = _reduction_pair(u1, u1d, log_u1, X, tail_coeff, factor)
    return [NormalizedSolution("dominant", dominant, _vectorize(u1),
                               _vectorize(u1d)),
            NormalizedSolution("recessive", recessive, u2, u2d)]


def _reduction_pair(u1, u1d, log_u1, X, tail_coeff, factor):
    """The second solution u2 = factor * u1(x) * int_x^inf u1^{-2}, with
    the beyond-grid part of the integral replaced by its closed tail
    model, supplied as tail_coeff = u1(X)^2 * int_X^inf u1^{-2} (exact
    for pure leading-order shapes).  All ratios are formed in log space,
    so nothing overflows no matter how large u1 grows before X."""
    cache = {}
    LX = log_u1(X)

    def u2_scalar(x):
        if x in cache:
            return cache[x]
        if x > X * (1 + 1e-12):
            raise RangeError(
                "x=%g is beyond the resolved range (up to %g); rerun with "
                "a larger --xmax to extend it" % (x, X))
        Lx = log_u1(x)

        def scaled(s):
            sv = np.atleast_1d(np.asarray(s, dtype=float))
            return np.exp([2.0 * (Lx - log_u1(t)) for t in sv])

        if x < X:
            # 1e-11, scaled by magnitude: the integrand is the exp of an
            # interpolated log-amplitude, so it has a small C^1 kink at
            # every march node and a tighter tolerance makes the adaptive
            # quadrature chase those kinks into its budget.  The integral
            # itself can be large (a power-law tail over a decade-wide
            # span integrates to ~x/2), and roundoff alone then floors
            # the achievable absolute error near eps * value, so a loose
            # probe pass sets the scale first.  Either way the result is
            # orders of magnitude below any certified residual it feeds.
            probe = quadrature.integrate_finite(scaled, x, X, tol=1.0).value
            seg_tol = 1e-11 * (1.0 + abs(probe))
            seg = quadrature.integrate_finite(scaled, x, X,
                                              tol=seg_tol).value
        else:
            seg = 0.0
        val = factor * (seg + math.exp(2.0 * (Lx - LX)) * tail_coeff) \
            / float(u1(x))
        cache[x] = val
        return val

    def u2d_scalar(x):
        u1x = float(u1(x))
        return float(u1d(x)) / u1x * u2_scalar(x) - factor / u1x

    return _vectorize(u2_scalar), _vectorize(u2d_scalar)


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
        certified branch; the envelope bound column is the remaining
        correction radius exp(tail |w| past x) - 1, non-increasing toward
        the endpoint."""
        reg = self._regime
        s_hi = reg.table_end()
        s_lo = reg.cutoff + (s_hi - reg.cutoff) * 0.05
        rows = []
        for s in np.linspace(s_lo, s_hi, count):
            s = float(s)
            # u(x) = x v(1/x) at the zero endpoint
            x, k = (1.0 / s, 1.0 / s) if self.endpoint == "zero" else (s, 1.0)
            val, m = k * reg.value(s), k * reg.model(s)
            tail = quadrature.l1_tail_norm(reg.weight, s, tol=1e-8).value
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
    least that small an x).  step overrides the coarse marching step in
    the phase variable; the default resolves the span with second-order
    error well under the reported tolerances.

    Returns an AnalysisReport whose .solutions hold normalized value and
    derivative callables, valid on the resolved range.
    """
    split = transform.CoefficientSplit.from_expressions(f_text, g_text)
    if endpoint not in ("infinity", "zero"):
        raise ValueError("endpoint must be 'infinity' or 'zero'")
    if interval is None:
        interval = (1.0, math.inf) if endpoint == "infinity" else (0.0, 1.0)
    work = _Work()
    cls = transform.classify_regime(split, endpoint, interval)

    inverted = endpoint == "zero"
    if inverted:    # run everything on the inverted split
        frame = (cls.inverted, cls.inner, 1.0 / float(interval[1]),
                 (1.0 / x_max) if x_max else None)
    else:
        frame = (split, cls, float(interval[0]), x_max)
    reg, march, cert, verification, constants = _analyze_infinity(
        *frame, tol, tail_tol, step, work, inverted)
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
    v = sol.value
    vd = sol.derivative

    def value(x):
        xv = np.asarray(x, dtype=float)
        return xv * v(1.0 / xv)

    def deriv(x):
        xv = np.asarray(x, dtype=float)
        s = 1.0 / xv
        return v(s) - vd(s) / xv

    asym = "x * [%s at s=1/x]" % sol.asymptotic
    return NormalizedSolution(sol.label + "-at-zero", asym, value, deriv)
