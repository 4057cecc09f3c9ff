"""Normal-form analysis of u'' = (f + g) u near an endpoint.

Splits the potential into a leading part f (whose sign fixes the regime)
and a perturbation g, checks the hypotheses that make the leading-order
asymptotics meaningful, and builds the change of variables that turns the
equation into a perturbed constant-coefficient problem:

    y = Phi(x) = int_a^x |f|^(1/2),   u = |f|^(-1/4) * v(y),

under which v'' = (zeta^2 + psi/|f|^(1/2) ...) v with the perturbation

    psi = g * |f|^(-1/2) - |f|^(-1/4) * (|f|^(-1/4))''.

psi is built symbolically from the coefficient ASTs so its derivatives
and L1 norms are available to the rest of the pipeline.  CoefficientSplit
and PsiData own every tree the analysis samples and compile each tape when
it is first read, so an analysis compiles only what it runs.  For f = c x^p,
Phi, its inverse and the divergence of int |f|^(1/2) have closed forms
(PhaseMap.closed_form).  Any other f has Phi tabulated once per resolved
range (PhaseTable, Gauss-Kronrod cells evaluated on whole arrays), and the
nodes of the map, at whatever phase values the march grid asks for, are
found from that table by a Hermite start and vectorized second-order
Newton steps of one Gauss-Kronrod cell each (PhaseMap.build).  Problems
posed at the endpoint 0 are inverted through s = 1/x, v(s) = s * u(1/s),
which multiplies both coefficients by s^(-4) after substitution; the
inverted split is classified at infinity.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr, quadrature, volterra


class HypothesisFailed(RuntimeError):
    """A structural hypothesis needed for the asymptotic analysis fails.

    checks holds the record of everything that was verified, in order,
    including the failing one.
    """

    def __init__(self, message, checks=None):
        super().__init__(message)
        self.checks = checks if checks is not None else []


class AmbiguousSignError(HypothesisFailed):
    """The leading coefficient changes sign (or vanishes) on the probe
    grid, so no single regime applies."""


class Regime(enum.Enum):
    EXP_INFINITY = "exponential-at-infinity"
    OSC_INFINITY = "oscillatory-at-infinity"
    ALGEBRAIC_INFINITY = "algebraic-at-infinity"
    EXP_SINGULAR = "exponential-at-zero"
    OSC_SINGULAR = "oscillatory-at-zero"
    CONSTANT_EXP = "constant-exponential"
    CONSTANT_OSC = "constant-oscillatory"

    @property
    def oscillatory(self):
        return self in (Regime.OSC_INFINITY, Regime.OSC_SINGULAR,
                        Regime.CONSTANT_OSC)

    @property
    def algebraic(self):
        return self is Regime.ALGEBRAIC_INFINITY

    @property
    def at_zero(self):
        return self in (Regime.EXP_SINGULAR, Regime.OSC_SINGULAR)


def _tape(tree):
    """A cached attribute: the tape of the tree tree(self), compiled through
    expr.compile_fn when the attribute is first read and then kept."""
    return functools.cached_property(lambda self: expr.compile_fn(tree(self)))


@dataclass
class CoefficientSplit:
    """The trees of f and g, and their tapes f, g and the algebraic weight
    sg = s g (one tape, bit for bit the product s * g(s))."""

    f_ast: expr.ExprNode
    g_ast: expr.ExprNode

    f = _tape(lambda split: split.f_ast)
    g = _tape(lambda split: split.g_ast)
    sg = _tape(lambda split: expr.binary("mul", expr.VAR, split.g_ast))

    @classmethod
    def from_expressions(cls, f_text, g_text):
        return cls(expr.parse(f_text), expr.parse(g_text))


def invert_split(split):
    """Pull a split at the endpoint 0 back to infinity through s = 1/x.

    With v(s) = s * u(1/s), the equation u'' = (f + g) u becomes
    v'' = (ft + gt) v where ft(s) = s^-4 f(1/s) and likewise for g.
    Applying the inversion twice returns an AST that evaluates identically
    to the original (the involution property), though the tree itself is
    larger.
    """
    inv = expr.binary("div", expr.const(1.0), expr.VAR)
    s4 = expr.binary("pow", expr.VAR, expr.const(-4.0))

    def pull(ast):
        return expr.binary("mul", s4, expr.substitute(ast, inv))

    return CoefficientSplit(pull(split.f_ast), pull(split.g_ast))


@dataclass
class PsiData:
    """The symbolic perturbation psi, the pieces it is built from and their
    tapes (_tape), with the march weight w = psi |f|^(-1/2) (one tape, bit
    for bit the product) and its tail moments a1 = w' and
    a2 = (a1 |f|^(-1/2))'."""

    psi_ast: expr.ExprNode
    amplitude_ast: expr.ExprNode     # |f|^(-1/4)
    sqrt_f_ast: expr.ExprNode        # |f|^(1/2)
    inv_sqrt_f_ast: expr.ExprNode    # |f|^(-1/2)

    psi = _tape(lambda d: d.psi_ast)
    amplitude = _tape(lambda d: d.amplitude_ast)
    sqrt_f = _tape(lambda d: d.sqrt_f_ast)
    inv_sqrt_f = _tape(lambda d: d.inv_sqrt_f_ast)
    amp_deriv = _tape(lambda d: expr.differentiate(d.amplitude_ast))
    d_sqrt_f = _tape(lambda d: expr.differentiate(d.sqrt_f_ast))
    w = _tape(lambda d: d.w_ast)
    a1 = _tape(lambda d: d.a1_ast)
    a2 = _tape(lambda d: expr.differentiate(
        expr.binary("mul", d.a1_ast, d.inv_sqrt_f_ast)))

    @functools.cached_property
    def w_ast(self):
        return expr.binary("mul", self.psi_ast, self.inv_sqrt_f_ast)

    @functools.cached_property
    def a1_ast(self):
        return expr.differentiate(self.w_ast)


def compute_psi(split, sign):
    """Build psi = g |f|^(-1/2) - |f|^(-1/4) (|f|^(-1/4))'' symbolically.

    sign is the (constant) sign of f near the endpoint; |f| is realized
    as f itself or its negation so fractional powers stay real on the
    relevant half-line.  For constant f the curvature term differentiates
    to zero exactly and psi reduces to g |f|^(-1/2).
    """
    if sign > 0:
        sf = split.f_ast
    elif sign < 0:
        sf = expr.unary("neg", split.f_ast)
    else:
        raise ValueError("psi is undefined when f vanishes identically")
    amp = expr.binary("pow", sf, expr.const(-0.25))
    inv_sqrt = expr.binary("pow", sf, expr.const(-0.5))
    sqrt = expr.binary("pow", sf, expr.const(0.5))
    curvature = expr.differentiate(expr.differentiate(amp))
    psi = expr.binary("sub",
                      expr.binary("mul", split.g_ast, inv_sqrt),
                      expr.binary("mul", amp, curvature))
    return PsiData(psi, amp, sqrt, inv_sqrt)


# --------------------------------------------------------------------------
# classification

_PROBE_POINTS = 96


def probe_sign(fn, lo, hi, node=None):
    """Sign of fn on a geometric probe grid of >= 64 points.

    Returns +1, -1, or 0 (identically zero on the grid); raises
    AmbiguousSignError when the samples mix signs or vanish at isolated
    points, since then no fractional power of |f| is usable, and
    expr.EvalDomainError, naming node (the tree of fn) and the first such
    point, when a sample is not finite.
    """
    lo = max(float(lo), 1e-8)
    hi = max(float(hi), lo * 1e4)
    xs = np.geomspace(lo, hi, _PROBE_POINTS)
    vals = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise expr.EvalDomainError(
            "leading coefficient is not finite at the probe point x = %.17g"
            % xs[np.flatnonzero(~np.isfinite(vals))[0]], node)
    pos = bool(np.any(vals > 0.0))
    neg = bool(np.any(vals < 0.0))
    zero = bool(np.any(vals == 0.0))
    if pos and neg:
        raise AmbiguousSignError(
            "leading coefficient changes sign on [%g, %g]; split it so the "
            "leading part has one sign near the endpoint" % (lo, hi))
    if zero and (pos or neg):
        raise AmbiguousSignError(
            "leading coefficient vanishes at probe points without being "
            "identically zero")
    if pos:
        return 1
    if neg:
        return -1
    return 0


@dataclass
class Classification:
    regime: Regime
    sign: int
    checks: list
    power: tuple | None = None     # (c, p) when f = c x^p
    inverted: CoefficientSplit | None = None
    psi: PsiData | None = None
    inner: "Classification | None" = None  # inverted-problem classification


def _check(checks, name, passed, detail):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})
    if not passed:
        raise HypothesisFailed(detail, checks)


def _check_integrable(checks, name, tape, start, what, failure):
    """Record whether int_start^inf |tape| converges: the check name passes
    with the tail's value, or fails with the detail failure."""
    try:
        tail = quadrature.l1_tail_norm(tape, start, tol=1e-8)
    except quadrature.DivergenceError:
        _check(checks, name, False, failure)
    _check(checks, name, True, "int_%g^inf %s = %.6g" % (start, what,
                                                         tail.value))


def classify_regime(split, endpoint, interval, checks=None):
    """Decide the asymptotic regime of u'' = (f+g) u at an endpoint.

    endpoint is 'infinity' or 'zero'; interval = (lo, hi) bounds the
    region of interest (hi may be inf for the endpoint at infinity).
    Verifies, in order: a single sign for f, divergence of the phase
    integral (so the endpoint is at infinite transformed distance; p >= -2
    when f = c x^p, by expr.monomial, else by quadrature), and
    integrability of the perturbation (psi for nonzero f, the s-weighted
    g for f == 0).  Raises HypothesisFailed (or AmbiguousSignError) as
    soon as a hypothesis fails; the raised error carries the check log.
    At the endpoint 0 they run on the inverted split, logged inverted:<name>,
    and a failure keeps its class, its message prefixed "in s = 1/x: ".
    An f that is not finite at a probe point raises expr.EvalDomainError.
    """
    if checks is None:
        checks = []
    lo, hi = float(interval[0]), float(interval[1])

    if endpoint == "zero":
        if not math.isfinite(hi) or hi <= 0:
            raise ValueError("zero-endpoint problems need a finite right edge")
        inverted = invert_split(split)
        inner = []
        try:
            sub = classify_regime(inverted, "infinity", (1.0 / hi, math.inf),
                                  checks=inner)
        except HypothesisFailed as e:
            # any range the message names is in s; the error carries
            # checks, which the finally clause extends before it propagates
            raise type(e)("in s = 1/x: %s" % e, checks) from None
        finally:
            checks.extend(dict(c, name="inverted:" + c["name"]) for c in inner)
        if sub.sign == 0:
            _check(checks, "leading-part-at-zero", False,
                   "f vanishes identically near 0; substitute s = 1/x and "
                   "pose the problem at infinity instead")
        # the sign of the inverted leading part fixes the regime at zero
        regime = Regime.EXP_SINGULAR if sub.sign > 0 else Regime.OSC_SINGULAR
        return Classification(regime, sub.sign, checks,
                              inverted=inverted, psi=sub.psi, inner=sub)

    if endpoint != "infinity":
        raise ValueError("endpoint must be 'infinity' or 'zero'")

    probe_lo = max(lo, 1e-8)
    power = expr.monomial(split.f_ast)
    if expr.is_constant(split.f_ast):
        c = expr.constant_value(split.f_ast)
        sign = 0 if c == 0.0 else (1 if c > 0.0 else -1)
        checks.append({"name": "constant-leading-part", "passed": True,
                       "detail": "f is the constant %g" % c})
    else:
        sign = probe_sign(split.f, probe_lo,
                          hi if math.isfinite(hi) else 1e6, split.f_ast)
        checks.append({"name": "sign-probe", "passed": True,
                       "detail": "f has constant sign %+d on the probe grid"
                       % sign if sign else "f samples to zero everywhere"})

    start = max(lo, 1.0)
    if sign == 0:
        # algebraic regime: need the first moment of g near infinity
        _check_integrable(checks, "weighted-perturbation-integrable",
                          split.sg, start, "s*|g|",
                          "int s*|g(s)| ds diverges at infinity, so solutions "
                          "need not behave like a + b*x there")
        return Classification(Regime.ALGEBRAIC_INFINITY, 0, checks)

    psi = compute_psi(split, sign)
    if power is not None and power[1] == 0.0:
        regime = Regime.CONSTANT_EXP if sign > 0 else Regime.CONSTANT_OSC
    else:
        if power is not None:
            # int x^(p/2) diverges at infinity exactly when p >= -2
            diverges = power[1] >= -2.0
            why = "f = %g x^%g with p >= -2: " % power
        else:
            why = ""
            # only a detected divergence passes: a burned budget propagates
            try:
                quadrature.integrate_to_infinity(psi.sqrt_f, start, tol=1e-8)
                diverges = False
            except quadrature.DivergenceError:
                diverges = True
        _check(checks, "phase-integral-diverges", diverges,
               why + "int_%g^inf |f|^(1/2) diverges" % start if diverges else
               "int |f|^(1/2) converges at infinity; the endpoint is at "
               "finite transformed distance and no normal form applies")
        regime = Regime.EXP_INFINITY if sign > 0 else Regime.OSC_INFINITY

    _check_integrable(checks, "perturbation-integrable", psi.psi, start,
                      "|psi|", "the perturbation psi is not integrable at "
                      "infinity; the leading part does not dominate")
    return Classification(regime, sign, checks, power=power, psi=psi)


# --------------------------------------------------------------------------
# phase map

# A table cell is accepted when |K - G| <= _CELL_RTOL |K|.  The test is
# relative because |K - G| bottoms out at the rounding of the rules' sums,
# up to about 5e-16 |K| on smooth |f|^(1/2): an absolute target on a phase
# of size ~500 lies below that floor and would bisect until the budget
# ran out.
_CELL_RTOL = 1e-13
# The table starts from this many equal cells.  Gauss-Kronrod accepts a
# polynomial |f|^(1/2) on one cell however wide, so the first cells may
# be wide in phase, where the map's quintic start is loosest.  Only an f
# that is not a single power c x^p builds a table (a power maps in closed
# form): on the benchmark's osc-at-inf, f = -(a + b/x), the first cells
# span 0.85-0.92 in phase (seeds 1-5) and the map takes one cell a node.
_FIRST_CELLS = 64
# Steps a map node may take.  From the quintic start one step settles
# almost every node, every bench case settles within two, and the
# |f|^(1/2) = 1 + 0.9 sin x map of the tests within three.
_NEWTON_STEPS = 6
# what one Gauss-Kronrod cell from the nearest node may miss in y_of_x
_NODE_ATOL = 1e-13


class PhaseTable:
    """Phi(x) = int_a^x |f|^(1/2) at the edges of Gauss-Kronrod cells
    covering [a, x_end]: 64 equal cells to start with, every cell bisected
    until |K - G| <= 1e-13 |K|.

    All cells of a bisection round are evaluated together
    (quadrature.gk_cells), and Phi at the edges is the cumulative sum of
    the accepted cells; span is its total.  Every sample is charged to the
    running ledger (a fresh one outside an analysis), so a table that would
    take it past quadrature.EVAL_BUDGET raises BudgetExceededError.
    """

    @quadrature.capped
    def __init__(self, sqrt_f, a, x_end):
        self.sqrt_f, self.a = sqrt_f, float(a)
        edges = np.linspace(self.a, float(x_end), _FIRST_CELLS + 1)
        lo, hi = edges[:-1], edges[1:]
        starts, values = [], []
        while lo.size:
            k, err = quadrature.gk_cells(sqrt_f, lo, hi)
            if not np.all(np.isfinite(k)):
                bad = np.flatnonzero(~np.isfinite(k))[0]
                raise HypothesisFailed(
                    "phase map left the domain of |f|^(1/2) in [%.17g, %.17g]"
                    % (lo[bad], hi[bad]))
            ok = err <= _CELL_RTOL * np.abs(k)
            starts.append(lo[ok])
            values.append(k[ok])
            lo, hi = lo[~ok], hi[~ok]
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        starts = np.concatenate(starts)
        order = np.argsort(starts)
        self.edges = np.append(starts[order], float(x_end))
        self.phi = np.concatenate(
            [[0.0], np.cumsum(np.concatenate(values)[order])])

    @property
    def span(self):
        return float(self.phi[-1])


def _inverse_quintic(table, inv_sqrt_f, d_sqrt_f):
    """Coefficients, highest power first, of x(y) on every cell of table
    as a quintic in u = (y - Phi_j) / (Phi_{j+1} - Phi_j): the Hermite
    quintic of the values x_j, x_{j+1}, the slopes dx/dy = |f|^(-1/2) and
    the curvatures d2x/dy2 = -(|f|^(1/2))' |f|^(-3/2) at both edges."""
    h = np.diff(table.phi)
    with np.errstate(all="ignore"):
        slope = inv_sqrt_f(table.edges)
        curve = -d_sqrt_f(table.edges) * slope ** 3
    m0, m1 = slope[:-1] * h, slope[1:] * h
    k0, k1 = curve[:-1] * h * h, curve[1:] * h * h
    dx = np.diff(table.edges)
    return np.array([
        6 * dx - 3 * (m0 + m1) - 0.5 * (k0 - k1),
        -15 * dx + 8 * m0 + 7 * m1 + 1.5 * k0 - k1,
        10 * dx - 6 * m0 - 4 * m1 - 1.5 * k0 + 0.5 * k1,
        0.5 * k0, m0, table.edges[:-1]])


class PhaseMap:
    """The monotone change of variables y = Phi(x) = int_a^x |f|^(1/2).

    For f = c x^p it is exact (closed_form): x(y), y(x) and the slopes
    are closed forms and take no quadrature.  Otherwise (build) forward
    values x(y) are tabulated at the march's nodes y_nodes (any
    increasing phase values from 0, graded or not) by second-order Newton
    steps on Phi(x) = y, started inside the cell of a PhaseTable
    (Phi' = |f|^(1/2) and Phi'' are known exactly), with cubic Hermite
    interpolation between nodes.
    The inverse y(x) is evaluated directly as one Gauss-Kronrod cell of
    |f|^(1/2) from the nearest node, so it carries no interpolation error.
    """

    def __init__(self, a, y_nodes, x_nodes, slopes, sqrt_f, law=None):
        self.a = float(a)
        self.y_nodes = y_nodes
        self.x_nodes = x_nodes
        self.slopes = slopes
        self.sqrt_f = sqrt_f
        self.law = law      # (s, q) of a closed-form map

    @classmethod
    def build(cls, table, inv_sqrt_f, d_sqrt_f, ys):
        """Tabulate x(y) at the increasing phase values ys, from ys[0] = 0.

        table is the PhaseTable of |f|^(1/2) from the map's origin;
        inv_sqrt_f(x) must return |f(x)|^(-1/2) and d_sqrt_f(x) the
        derivative of |f(x)|^(1/2).  Each node starts from the quintic
        Hermite of x(y) on its table cell [x_j, x_{j+1}] (_inverse_quintic),
        clipped into the cell.  One Gauss-Kronrod cell on [x_j, x] gives
        the residual r = Phi_j + GK15(x_j, x) - y, and the step

            x <- x - dx - c,  dx = r |f(x)|^(-1/2),
                              c = (|f|^(1/2))'(x) |f(x)|^(-1/2) dx^2 / 2,

        is x(y) to second order in r (Halley's step).  It leaves a
        third-order remainder of about (3 s'^2 - s s'') dx^3 / (6 s^2),
        s = |f|^(1/2).  A node is settled when |c| <= 1e-14 |x|, which
        bounds the first part, and |dx|^3 <= 1e-15 |x| w^2, w the width
        of its table cell, which bounds the second where s' vanishes and
        c says nothing of it: the table resolves s on its cells, so
        |s''/s| w^2 stays small (at most 0.3 on the bench maps, 7.7 on
        s = 1 + 0.9 sin x), and below 60 the remainder is within
        1e-14 |x|.  The unsettled nodes take each step together.
        """
        ys = np.asarray(ys, dtype=float)
        edges, phi = table.edges, table.phi
        j = np.clip(np.searchsorted(phi, ys, side="right") - 1,
                    0, len(phi) - 2)
        left = edges[j]
        width2 = (edges[j + 1] - left) ** 2
        behind = phi[j] - ys    # Phi(x_j) - y, at most 0
        coef = _inverse_quintic(table, inv_sqrt_f, d_sqrt_f)[:, j]
        u = (ys - phi[j]) / (phi[j + 1] - phi[j])
        xs = coef[0]
        for c in coef[1:]:
            xs = xs * u + c
        # fmax/fmin also send a non-finite start to a cell edge
        xs = np.fmin(np.fmax(xs, left), edges[j + 1])
        todo = np.arange(len(ys))
        for _step in range(_NEWTON_STEPS):
            x = xs[todo]
            k, _ = quadrature.gk_cells(table.sqrt_f, left[todo], x)
            with np.errstate(all="ignore"):
                slope = inv_sqrt_f(x)
                dx = (behind[todo] + k) * slope
                c = 0.5 * d_sqrt_f(x) * slope * dx * dx
                # a non-finite step leaves its node non-finite and drops
                # it here; the domain check below raises for it
                xs[todo] = x = x - dx - c
                ax = np.abs(x)
                todo = todo[(np.abs(c) > 1e-14 * ax)
                            | (dx * dx * np.abs(dx)
                               > 1e-15 * ax * width2[todo])]
            if not todo.size:
                break
        else:
            raise HypothesisFailed(
                "phase map: Newton left %d nodes unsettled after %d steps "
                "(first at x=%.17g)" % (todo.size, _NEWTON_STEPS, xs[todo[0]]))
        with np.errstate(all="ignore"):
            slopes = np.asarray(inv_sqrt_f(xs), dtype=float)
        if not np.all(np.isfinite(xs) & np.isfinite(slopes)):
            raise HypothesisFailed(
                "phase map left the domain of |f|^(-1/2)")
        return cls(table.a, ys, xs, slopes, table.sqrt_f)

    @classmethod
    def closed_form(cls, a, c, p, ys):
        """Exact map for f = c x^p at the phase values ys: y = s (x^q - a^q)
        / q, s = |c|^(1/2), q = (p + 2)/2 (y = s log(x / a) at p = -2), its
        inverse and the slopes dx/dy = x^(-p/2) / s.  At p = 0 it is the
        affine map y = s (x - a), bit for bit."""
        s, q = math.sqrt(abs(c)), (p + 2.0) / 2.0
        pm = cls(a, np.asarray(ys, dtype=float), None, None, None, (s, q))
        pm.x_nodes = pm.x_of_y(pm.y_nodes)
        pm.slopes = pm.x_nodes ** (-0.5 * p) / s
        return pm

    @property
    def y_span(self):
        return float(self.y_nodes[-1])

    def x_of_y(self, y):
        if self.law is not None:
            (s, q), y = self.law, np.asarray(y, dtype=float)
            if q == 0.0:
                return self.a * np.exp(y / s)
            return (self.a ** q + q * y / s) ** (1.0 / q)
        return volterra.hermite(self.y_nodes, self.x_nodes, self.slopes, y)

    def y_of_x(self, x):
        """Phi(x), elementwise: in closed form, or one Gauss-Kronrod cell
        from the nearest node, whose |K - G| must be within 1e-13."""
        x = np.asarray(x, dtype=float)
        if self.law is not None:
            s, q = self.law
            if q == 0.0:
                return s * np.log(x / self.a)
            return s * (x ** q - self.a ** q) / q
        xs, nodes = x.ravel(), self.x_nodes
        i = np.minimum(np.searchsorted(nodes, xs), len(nodes) - 1)
        left = np.maximum(i - 1, 0)
        i = np.where(np.abs(nodes[left] - xs) < np.abs(nodes[i] - xs), left, i)
        k, err = quadrature.gk_cells(self.sqrt_f, nodes[i], xs)
        if not np.all(err <= _NODE_ATOL):
            raise quadrature.QuadratureError(
                "phase from the nearest node missed %g (|K-G| = %.3g)"
                % (_NODE_ATOL, np.max(err)))
        return (self.y_nodes[i] + k).reshape(x.shape)[()]
