"""Independent reference machinery: an ODE integrator and special-function
values.

Everything in this module deliberately avoids the Volterra/transform route
used by the main pipeline, so that comparisons between the two are genuine
cross-checks.  Second-order problems u'' = V(x) u are integrated with a
hand-rolled Dormand-Prince 5(4) embedded pair (local extrapolation: the
5th-order value is propagated while the 4th-order error estimate drives
the step size).  Recessive solutions must be integrated backward from
large x; integrating them forward is exponentially ill-posed and the
caller is expected to know this.

Special-function references: closed forms for the half-integer modified
Bessel pair and the n=3 resolvent kernel as a heat-kernel time integral
evaluated by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5,),
    (3.0 / 40, 9.0 / 40),
    (44.0 / 45, -56.0 / 15, 32.0 / 9),
    (19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729),
    (9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656),
    (35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84),
)
_B5 = (35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0.0)
_B4 = (5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200,
       187.0 / 2100, 1.0 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_MAX_STEPS = 2_000_000


class OracleError(RuntimeError):
    pass


@dataclass
class OdeTrajectory:
    xs: np.ndarray
    us: np.ndarray
    dus: np.ndarray
    steps: int
    evaluations: int
    tol: float

    def at(self, x):
        i = int(np.argmin(np.abs(self.xs - x)))
        if abs(self.xs[i] - x) > 1e-9 * (1.0 + abs(x)):
            raise KeyError("x=%r is not a stored sample" % x)
        return self.us[i], self.dus[i]


def integrate_ivp(V, x0, u0, du0, x1, tol=1e-10, samples=None):
    """Integrate u'' = V(x) u from (x0, u0, du0) to x1.

    Steps are capped so the integrator lands exactly on every requested
    sample point (and on x1), so sampled values carry full step accuracy
    rather than interpolation accuracy.  Backward integration (x1 < x0)
    is supported and is the stable direction for recessive solutions.
    """
    if samples is None:
        samples = [x1]
    direction = 1.0 if x1 >= x0 else -1.0
    targets = sorted(set(float(s) for s in samples) | {float(x1)},
                     reverse=direction < 0)
    for s in targets:
        if (s - x0) * direction < -1e-12 or (s - x1) * direction > 1e-12:
            raise ValueError("sample %r outside [x0, x1]" % s)

    def rhs(x, y):
        return np.array([y[1], float(V(x)) * y[0]])

    x = float(x0)
    y = np.array([float(u0), float(du0)])
    span = abs(x1 - x0)
    h = direction * max(span * 1e-3, 1e-8)
    out_x, out_u, out_du = [], [], []
    ti = 0
    if targets and abs(targets[0] - x) <= 1e-14 * (1.0 + abs(x)):
        out_x.append(x)
        out_u.append(y[0])
        out_du.append(y[1])
        ti += 1
    steps = 0
    evals = 0
    ks = [None] * 7
    while ti < len(targets):
        target = targets[ti]
        if (target - x) * direction <= 0:
            # degenerate (duplicate target); record and move on
            out_x.append(x)
            out_u.append(y[0])
            out_du.append(y[1])
            ti += 1
            continue
        if abs(h) > abs(target - x):
            h = target - x
        while True:
            if steps > _MAX_STEPS:
                raise OracleError("step budget exhausted at x=%g" % x)
            ks[0] = rhs(x, y)
            for i in range(1, 7):
                acc = y + h * sum(a * k for a, k in zip(_A[i], ks[:i]))
                ks[i] = rhs(x + _C[i] * h, acc)
            evals += 7
            y5 = y + h * sum(b * k for b, k in zip(_B5, ks))
            err = h * sum(e * k for e, k in zip(_ERR, ks))
            scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
            enorm = float(np.max(np.abs(err) / scale))
            steps += 1
            if enorm <= 1.0:
                x = x + h
                y = y5
                factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
                h = h * factor
                break
            h = h * max(0.2, 0.9 * enorm ** -0.2)
            if abs(h) < 1e-14 * (1.0 + abs(x)):
                raise OracleError("step size underflow at x=%g" % x)
        if abs(x - target) <= 1e-12 * (1.0 + abs(target)):
            x = target
            out_x.append(x)
            out_u.append(y[0])
            out_du.append(y[1])
            ti += 1
    return OdeTrajectory(np.array(out_x), np.array(out_u), np.array(out_du),
                         steps, evals, tol)


# --------------------------------------------------------------------------
# half-integer closed forms

def closed_form_half(kind, r, log_scale=False):
    """Closed forms for the nu=1/2 modified Bessel pair.

    kind 'K': K_{1/2}(r) = sqrt(pi/(2r)) e^{-r}
    kind 'I': I_{1/2}(r) = sqrt(2/(pi r)) sinh(r)

    log_scale=True returns log of the value, usable far beyond the
    overflow range of I.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if kind == "K":
        lg = 0.5 * math.log(math.pi / (2.0 * r)) - r
        return lg if log_scale else math.exp(lg)
    if kind == "I":
        # log(sinh r) = r + log1p(-exp(-2r)) - log 2, stable for all r > 0
        lg = 0.5 * (math.log(2.0 / math.pi) - math.log(r)) \
            + r + math.log1p(-math.exp(-2.0 * r)) - math.log(2.0)
        return lg if log_scale else math.exp(lg)
    raise ValueError("kind must be 'I' or 'K'")


def resolvent_value(n, lam, r):
    """Radial fundamental solution of (lam - Laplace) in R^n at radius r,
    evaluated as the heat-kernel time integral
    int_0^infty (4 pi t)^(-n/2) exp(-lam t - r^2/(4 t)) dt.

    The integral is split at T; the tail is folded back to [0, 1/T] by
    u = 1/t, which turns the lam=0 power tail (t^{-n/2}, too slow for the
    projective map at this tolerance) into a u^{n/2-2} endpoint factor
    that the sqrt substitution absorbs.  Integrands are evaluated in log
    space to dodge 0 * inf at the endpoints.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if lam <= 0.0 and n <= 2:
        raise ValueError("no decaying radial solution for n <= 2 at lam = 0")
    log_c = -0.5 * n * math.log(4.0 * math.pi)
    T = max(1.0, 0.25 * r * r)

    def head(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            lg = log_c - lam * t - (r * r) / (4.0 * t) - 0.5 * n * np.log(t)
            return np.where(t > 0.0, np.exp(lg), 0.0)

    def tail(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            lg = log_c + (0.5 * n - 2.0) * np.log(u) - lam / u - 0.25 * r * r * u
            return np.where(u > 0.0, np.exp(lg), 0.0)

    h = quadrature.integrate_finite(head, 0.0, T, tol=1e-13)
    # n=3, lam=0 leaves a u^{-1/2} edge; the substitution renders it smooth
    t = quadrature.integrate_finite(tail, 0.0, 1.0 / T, tol=1e-13,
                                    singular="left" if n == 3 else None)
    return h.value + t.value
