"""Test-side reference values: ascending Bessel series with a tracked
truncation bound, the Y_0 log series, named Bessel fixtures, and
asymptotic-constant fitting of ODE trajectories.

Like lgasym.oracle, none of this uses the Volterra/transform route of the
pipeline, so comparisons against it are genuine cross-checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from lgasym.oracle import OracleError, closed_form_half, resolvent_value

_EULER_GAMMA = 0.5772156649015329


class WindowError(OracleError):
    """The fitting window is outside the asymptotic regime."""


# --------------------------------------------------------------------------
# ascending series (entire; truncation bound tracked)

def _series_eval(kind, nu, r, bound_tol, max_terms=200):
    """Sum of the ascending series for I_nu (kind '+') or J_nu ('-').

    Returns (value, derivative, truncation_bound, terms_used).  The bound
    covers the discarded tail: geometric for I, first-omitted-term for the
    alternating J series.
    """
    q = r * r / 4.0
    sgn = 1.0 if kind == "+" else -1.0
    coeff = (r / 2.0) ** nu / math.gamma(nu + 1.0)
    value = coeff
    deriv = coeff * nu / r if nu != 0.0 else 0.0
    term = coeff
    k = 0
    while k < max_terms:
        term = term * sgn * q / ((k + 1.0) * (nu + k + 1.0))
        k += 1
        value += term
        deriv += term * (nu + 2.0 * k) / r
        nxt = abs(term) * q / ((k + 1.0) * (nu + k + 1.0))
        if kind == "-":
            bound = nxt
        else:
            ratio = q / ((k + 2.0) * (nu + k + 2.0))
            bound = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
        if bound < bound_tol * max(1.0, abs(value)):
            return value, deriv, bound, k + 1
    raise OracleError("series did not reach the requested bound")


def small_argument_series(fixture, r, terms=None, bound_tol=1e-12):
    """Truncated ascending series value for an I/J fixture at small r.

    The leading coefficient is (1/2)^nu / Gamma(nu+1); the tracked
    truncation bound must come in under bound_tol (relative), else an
    OracleError is raised.  terms, when given, caps the number of summed
    terms instead of the bound loop.
    """
    if fixture.kind not in ("I", "J"):
        raise ValueError("series oracle covers kinds 'I' and 'J'")
    kind = "+" if fixture.kind == "I" else "-"
    if terms is not None:
        v, _, _, _ = _series_eval(kind, fixture.nu, r, 0.0, max_terms=terms)
        return v
    v, _, _, _ = _series_eval(kind, fixture.nu, r, bound_tol)
    return v


def series_leading_coefficient(nu):
    return 0.5 ** nu / math.gamma(nu + 1.0)


def bessel_y0(r, bound_tol=1e-12):
    """Y_0 by its small-argument log series; usable to moderate r.

    Y_0(r) = (2/pi)[(log(r/2) + gamma) J_0(r) + sum_{k>=1} (-1)^{k+1}
    H_k (r^2/4)^k / (k!)^2].  Returns (value, derivative).
    """
    j0, dj0, _, _ = _series_eval("-", 0.0, r, bound_tol)
    q = r * r / 4.0
    h = 0.0
    term = 1.0
    s = 0.0
    ds = 0.0
    for k in range(1, 200):
        h += 1.0 / k
        term = term * q / (k * k)
        contrib = ((-1.0) ** (k + 1)) * h * term
        s += contrib
        ds += contrib * 2.0 * k / r
        if abs(contrib) < bound_tol * max(1.0, abs(s)):
            break
    lg = math.log(r / 2.0) + _EULER_GAMMA
    value = (2.0 / math.pi) * (lg * j0 + s)
    deriv = (2.0 / math.pi) * (j0 / r + lg * dj0 + ds)
    return value, deriv


# --------------------------------------------------------------------------
# fixtures

@dataclass
class BesselFixture:
    """A named reference problem with oracle-side evaluators.

    kind is one of 'I', 'K', 'J', 'Y' (cylinder functions of order nu) or
    'resolvent' (radial fundamental solution of lambda - Laplacian in
    dimension n).  normal_form() returns the solution of the associated
    normal-form equation w'' = V w together with its derivative.
    """

    kind: str
    nu: float = 0.0
    n: int = 0
    lam: float = 0.0

    def value(self, r):
        if self.kind == "K" and self.nu == 0.5:
            return closed_form_half("K", r)
        if self.kind == "I" and self.nu == 0.5:
            return closed_form_half("I", r)
        if self.kind in ("I", "J"):
            v, _, _, _ = _series_eval("+" if self.kind == "I" else "-",
                                      self.nu, r, 1e-13)
            return v
        if self.kind == "Y" and self.nu == 0.0:
            return bessel_y0(r)[0]
        if self.kind == "resolvent":
            return resolvent_value(self.n, self.lam, r)
        raise OracleError("no oracle evaluator for %s_nu=%g" % (self.kind, self.nu))

    def derivative(self, r):
        if self.kind in ("I", "J"):
            _, d, _, _ = _series_eval("+" if self.kind == "I" else "-",
                                      self.nu, r, 1e-13)
            return d
        if self.kind == "Y" and self.nu == 0.0:
            return bessel_y0(r)[1]
        raise OracleError("no derivative oracle for %s_nu=%g" % (self.kind, self.nu))

    def normal_form(self, r):
        """(w, w') for the normal-form variable w = sqrt(r) * C_nu(r)."""
        u = self.value(r)
        du = self.derivative(r)
        sq = math.sqrt(r)
        return sq * u, 0.5 * u / sq + sq * du


#: Named reference splits used by the validation suites and tests.  Keys:
#: f/g are coefficient expressions, endpoint is where the asymptotics are
#: read, fixture (when present) provides oracle-side values.
FIXTURES = {
    "modified_bessel:nu=half": {
        "f": "1", "g": "(4*0.25-1)/(4*x^2)", "endpoint": "infinity",
        "interval": (1.0, math.inf),
        "fixture_I": BesselFixture("I", 0.5), "fixture_K": BesselFixture("K", 0.5),
        "note": "normal form of the nu=1/2 modified Bessel equation; g == 0",
    },
    "modified_bessel:nu=1": {
        "f": "1", "g": "3/(4*x^2)", "endpoint": "infinity",
        "interval": (1.0, math.inf),
        "fixture_I": BesselFixture("I", 1.0), "fixture_K": BesselFixture("K", 1.0),
        "note": "normal form of the nu=1 modified Bessel equation at infinity",
    },
    "modified_bessel:nu=1:zero": {
        "f": "1/x^2", "g": "1 - 1/(4*x^2)", "endpoint": "zero",
        "interval": (0.0, 10.0),
        "fixture_I": BesselFixture("I", 1.0),
        "note": "same equation split for the r -> 0 endpoint",
    },
    "bessel:nu=0": {
        "f": "0-1", "g": "-1/(4*x^2)", "endpoint": "infinity",
        "interval": (1.0, math.inf),
        "fixture_J": BesselFixture("J", 0.0), "fixture_Y": BesselFixture("Y", 0.0),
        "note": "oscillatory normal form of the order-0 Bessel equation",
    },
    "modified_bessel:nu=0:log": {
        "f": "0", "g": "exp(-2*x)", "endpoint": "infinity",
        "interval": (0.0, math.inf),
        "note": "K_0-type problem after the substitution s = -log r",
    },
    "resolvent:n=3,lambda=0": {
        "f": "0", "g": "0", "endpoint": "infinity",
        "interval": (1.0, math.inf),
        "fixture": BesselFixture("resolvent", n=3, lam=0.0),
        "note": "w'' = 0; fundamental solution of -Laplace in R^3",
    },
    "resolvent:n=3,lambda=2": {
        "f": "2", "g": "0", "endpoint": "infinity",
        "interval": (1.0, math.inf),
        "fixture": BesselFixture("resolvent", n=3, lam=2.0),
        "note": "w'' = 2w; resolvent kernel of (2 - Laplace) in R^3",
    },
}


# --------------------------------------------------------------------------
# asymptotic-constant extraction

@dataclass
class AsymptoticFit:
    regime_kind: str            # 'exponential' | 'oscillatory' | 'algebraic'
    constants: dict
    residual: float
    window: tuple


def fit_ratio(xs, us, model_vals):
    """Constant by averaging us/model over the window; drift diagnostic is
    the maximum relative deviation of the pointwise ratio from the mean."""
    xs = np.asarray(xs, dtype=float)
    ratio = np.asarray(us, dtype=float) / np.asarray(model_vals, dtype=float)
    c = float(np.mean(ratio))
    if c == 0.0:
        return 0.0, math.inf
    drift = float(np.max(np.abs(ratio - c)) / abs(c))
    return c, drift


def fit_oscillatory(xs, us, phases, amps):
    """Least-squares fit u ~ c * amp(x) * cos(phase(x) + theta).

    Returns (c, theta, residual) with theta normalized into [0, pi); c may
    come out negative to absorb the half-turn.  residual is the max
    deviation of the model over the window relative to the amplitude.
    """
    phases = np.asarray(phases, dtype=float)
    amps = np.asarray(amps, dtype=float)
    us = np.asarray(us, dtype=float)
    basis = np.column_stack([amps * np.cos(phases), amps * np.sin(phases)])
    coef, _, _, _ = np.linalg.lstsq(basis, us, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    c = math.hypot(a, b)
    theta = math.atan2(-b, a)
    if theta < 0.0:
        theta += math.pi
        c = -c
    model = basis @ coef
    scale = abs(c) * float(np.max(np.abs(amps)))
    residual = float(np.max(np.abs(us - model))) / scale if scale > 0 else math.inf
    return c, theta, residual


def fit_asymptotic_constants(traj, approximants, window, regime_kind,
                             drift_tol=0.05):
    """Fit a trajectory against a pair of closed-form approximants.

    Exponential/algebraic regimes fit the trajectory against each
    approximant by ratio averaging and keep the branch with the smaller
    drift; oscillatory regimes do a two-column least squares in the
    (amplitude * cos, amplitude * sin) basis of the first approximant.
    Raises WindowError when no branch settles to within drift_tol: the
    window starts before the asymptotic regime.
    """
    lo, hi = window
    mask = (traj.xs >= lo) & (traj.xs <= hi)
    if int(np.sum(mask)) < 4:
        raise WindowError("window [%g, %g] contains too few samples" % (lo, hi))
    xs = traj.xs[mask]
    us = traj.us[mask]
    if regime_kind == "oscillatory":
        ref = approximants[0]
        phases = np.array([ref.phase(float(x)) for x in xs])
        amps = np.array([ref.amplitude(float(x)) for x in xs])
        c, theta, residual = fit_oscillatory(xs, us, phases, amps)
        if residual > max(drift_tol, 0.2):
            raise WindowError("oscillatory fit residual %.3g too large" % residual)
        return AsymptoticFit("oscillatory",
                             {"amplitude": c, "phase": theta},
                             residual, (float(lo), float(hi)))
    constants = {}
    best = (math.inf, None)
    for label, ap in zip(("dominant", "recessive"), approximants):
        model = np.array([ap.value(float(x)) for x in xs], dtype=complex)
        if np.any(model == 0.0) or np.any(~np.isfinite(model)):
            continue
        c, drift = fit_ratio(xs, us, model.real if np.all(model.imag == 0.0)
                             else np.abs(model))
        constants["c_" + label] = c
        constants["drift_" + label] = drift
        if drift < best[0]:
            best = (drift, label)
    if best[1] is None or best[0] > drift_tol:
        raise WindowError(
            "no branch settled (best drift %.3g); enlarge or shift the window"
            % best[0])
    constants["branch"] = best[1]
    return AsymptoticFit(regime_kind, constants, best[0], (float(lo), float(hi)))
