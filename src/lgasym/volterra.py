"""Marching solvers for the renormalized correction equations.

After the phase change of variables, each leading-order branch e^{zeta y}
carries a correction z solving a Volterra integral equation

    z(y) = 1 + (1/mu) * int_0^y (1 - e^{-mu (y-t)}) w(t) z(t) dt,

with mu = 2 zeta, zeta in {1, i, -i}, and w the transformed perturbation.
When the leading part vanishes identically the analogous equation in the
original variable has the kernel (s - s^2/x):

    z(x) = 1 + int_a^x (s - s^2/x) g(s) z(s) ds.

Both are solved by second-order product integration: z is interpolated
linearly between nodes and every kernel moment over a cell is integrated
exactly, giving an implicit scalar update per step.  The steps may differ
from cell to cell: the pipeline marches on a dyadic graded grid, whose
cells are the level-0 step times a power of two, so the exact moments are
computed once per distinct step.  The derivative comes for free (z'
equals the memory integral E in the kernel case, S2/x^2 in the algebraic
case).  That update is affine in the state (z, Q, E), resp. (z, S1, S2),
with coefficients fixed by the samples and steps alone, so the march is
evaluated as a blocked affine scan (_affine_scan): block maps on four
lanes, a short chain of block start states, and one more vectorized pass
from those starts.

The continuous solutions obey |z| <= exp(T) with T the running L1 norm of
the perturbation weight; the discrete march asserts this envelope at
every node, allowing only its own discretization slack, the sum of
h_k^2 times the growth of T over the cells up to that node (h^2 T on a
uniform grid; it vanishes identically when w == 0).  A violation raises
EnvelopeError at the first node that breaks it, and is the caller's cue
to halve the step.

Connection constants at infinity are completed past the end of the grid
by matching (z, z') at the grid end, which fixes every moment of w z the
tail model needs, through a small linear solve against tail integrals
supplied by the caller, with a computable residual bound, so the march
never needs to continue until the perturbation underflows.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

_ROUNDOFF = 1e-12


class VolterraError(RuntimeError):
    pass


class StepTooLargeError(VolterraError):
    """The implicit update is outside its contraction regime; halve h."""


class EnvelopeError(VolterraError):
    """The discrete solution broke the exp(T) envelope beyond the
    scheme's own discretization slack; halve h."""


def _locate(nodes, t):
    """(cell, local coordinate in [0, 1], cell width) of each point t on
    increasing nodes, spaced evenly or not: the cell comes from a binary
    search.  Points may leave [nodes[0], nodes[-1]] by roundoff only."""
    t = np.asarray(t, dtype=float)
    inside = ((t >= nodes[0] - 1e-9 * (nodes[1] - nodes[0]))
              & (t <= nodes[-1] + 1e-12 * (nodes[-1] - nodes[0])
                 + 1e-9 * (nodes[-1] - nodes[-2])))
    if not inside.all():
        raise ValueError("interpolation point outside the grid")
    k = np.minimum(np.maximum(nodes.searchsorted(t, side="right") - 1, 0),
                   len(nodes) - 2)
    width = nodes[k + 1] - nodes[k]
    return k, (t - nodes[k]) / width, width


def hermite(nodes, vals, derivs, t):
    """Cubic Hermite interpolation on increasing nodes (vectorized in t).

    Works for real or complex node values; the error is O(h^4) in the
    width h of the point's cell for smooth data.
    """
    k, u, width = _locate(nodes, t)
    return _hermite(u, vals[k], derivs[k] * width, vals[k + 1],
                    derivs[k + 1] * width)


def _hermite(u, v0, m0, v1, m1):
    """The cubic Hermite basis at local coordinate u in [0, 1] of a cell
    with end values v0, v1 and slopes m0, m1 scaled by the cell width."""
    u2 = u * u
    u3 = u2 * u
    return ((2 * u3 - 3 * u2 + 1) * v0 + (u3 - 2 * u2 + u) * m0
            + (-2 * u3 + 3 * u2) * v1 + (u3 - u2) * m1)


@dataclass
class VolterraSolution:
    kind: str                 # 'exponential' | 'oscillatory' | 'algebraic'
    mu: complex
    h: float                  # the smallest step: level 0 of a graded grid
    cell_h: np.ndarray        # the step of every cell
    grid: np.ndarray          # the nodes (phase variable, or s itself)
    w: np.ndarray             # perturbation samples on the grid
    z: np.ndarray
    z_deriv: np.ndarray
    envelope_log: np.ndarray  # running T_k
    l1_q: np.ndarray          # running int |w z|
    z_max: float = 0.0
    steps: int = 0

    # Between nodes.  z_at and deriv_at are cubic Hermite interpolants of z
    # and z', with the slopes of z' from the correction equation itself
    # (_deriv_slopes), except on the oscillatory runs.  There z keeps the
    # oscillation e^{-mu t} at full size once the march has stirred it up
    # (on the exponential runs it decays like e^{-2t}), and a cubic through
    # nodes 0.25 apart misses it by about 1e-6.  So their z is split as
    # 1 + (Q - E) / mu, with Q = int w z and the memory E = z', and only
    # the slowly varying Q and e^{mu (t - t_k)} E (in cell k) are
    # interpolated: their slopes w z and e^{mu (t - t_k)} w z are small
    # where the weight, and so the march's step, is.

    def z_at(self, t):
        if self.kind != "oscillatory":
            return hermite(self.grid, self.z, self.z_deriv, t)
        k, u, width = _locate(self.grid, t)
        q, wz, _ = self._memory
        Q = _hermite(u, q[k], wz[k] * width, q[k + 1], wz[k + 1] * width)
        return 1.0 + (Q - self._memory_at(k, u, width)) / self.mu

    def deriv_at(self, t):
        if self.kind != "oscillatory":
            return hermite(self.grid, self.z_deriv, self._deriv_slopes, t)
        return self._memory_at(*_locate(self.grid, t))

    @functools.cached_property
    def _memory(self):
        # (Q, w z, e^{mu h_k}) at the nodes and cells of an oscillatory
        # run.  Cached in the instance dict, so dataclasses.replace starts
        # a copy without it.
        wz = self.w * self.z
        return (self.mu * (self.z - 1.0) + self.z_deriv, wz,
                np.exp(self.mu * self.cell_h))

    def _memory_at(self, k, u, width):
        """E = z' in cell k: e^{-mu (t - t_k)} times the Hermite
        interpolant of e^{mu (t - t_k)} E, whose slope is
        e^{mu (t - t_k)} w z."""
        _, wz, grow = self._memory
        E = self.z_deriv
        return np.exp(-self.mu * u * width) * _hermite(
            u, E[k], wz[k] * width, grow[k] * E[k + 1],
            grow[k] * wz[k + 1] * width)

    @functools.cached_property
    def _deriv_slopes(self):
        # z'' at the nodes from the correction equation itself: z'' =
        # w z - mu z' for the kernel march, z'' = g z - 2 z' / x for the
        # algebraic one, so the Hermite interpolant of z' keeps the
        # O(h^4) of z_at (a second difference of z' was O(h^2), about
        # 1e-7 of u' on the Airy inputs).  Cached like _memory.
        wz = self.w * self.z
        if self.kind != "algebraic":
            return wz - self.mu * self.z_deriv
        # z' = S2 / x^2 -> x g z / 3 at a cutoff x = 0, so z'' -> g z / 3
        x = self.grid
        return np.where(x == 0.0, wz / 3.0,
                        wz - 2.0 * self.z_deriv / np.where(x == 0.0, 1.0, x))

    def envelope_report(self):
        env = np.exp(self.envelope_log)
        with np.errstate(invalid="ignore"):
            ratio = np.abs(self.z) / env
        return {
            "max_abs_z": float(np.max(np.abs(self.z))),
            "envelope_log_end": float(self.envelope_log[-1]),
            "z_env_max_ratio": float(np.max(ratio)),
            "l1_q_end": float(abs(self.l1_q[-1])),
            "l1_q_bound_end": float(env[-1] - 1.0),
            "l1_q_excess": float(np.max(self.l1_q - (env - 1.0))),
        }


def _kernel_weights(mu, h):
    """Exact hat-function moments of the kernel over one cell.

    Returns (D, A, B, cL, cR): D = e^{-mu h}; A and B weight q_k and
    q_{k+1} in the memory update; cL and cR are the net (1/mu)(h/2 - .)
    weights of the implicit z update.  Series forms are used for small
    mu h where the closed forms cancel.
    """
    cd = mu * h
    D = cmath.exp(-cd) if isinstance(mu, complex) else math.exp(-cd)
    if abs(cd) < 0.5:
        # I0/h    = sum (-cd)^m / (m+1)!
        # A/h     = sum (-cd)^m (m+1) / (m+2)!
        # h/2 - A = -h * sum_{m>=1} (-cd)^m (m+1)/(m+2)!
        # h/2 - B = -h * sum_{m>=1} (-cd)^m / (m+2)!
        i0 = 0.0
        da = 0.0
        db = 0.0
        term = 1.0 + 0j if isinstance(mu, complex) else 1.0
        fact = 1.0
        for m in range(0, 18):
            fact2 = fact * (m + 1)      # (m+1)!
            fact3 = fact2 * (m + 2)     # (m+2)!
            i0 += term / fact2
            if m >= 1:
                da -= term * (m + 1) / fact3
                db -= term / fact3
            term *= -cd
            fact = fact2
        i0 *= h
        half_minus_A = h * da
        half_minus_B = h * db
        A = 0.5 * h - half_minus_A
        B = 0.5 * h - half_minus_B
    else:
        I0 = (1.0 - D) / mu
        I1 = (1.0 - D * (1.0 + cd)) / (mu * mu)
        A = I1 / h
        B = I0 - A
        half_minus_A = 0.5 * h - A
        half_minus_B = 0.5 * h - B
    return D, A, B, half_minus_A / mu, half_minus_B / mu


def _envelope_bound(T, slack):
    """Admissible |z| at envelope log T: the Gronwall bound exp(T) plus
    the scheme's own slack, sum h_k^2 dT_k over the cells marched so far
    (exactly exp(0) = 1 when T == 0)."""
    return np.exp(T) * (1.0 + _ROUNDOFF + slack)


def _contracting_steps(denom):
    """Number of steps before the first implicit update whose
    denominator falls below the contraction margin."""
    lost = np.flatnonzero(np.abs(denom) < 0.5)
    return int(lost[0]) if lost.size else len(denom)


def _block_size(m):
    """Steps per block when scanning m steps: about sqrt(m / 32).

    Passes 1 and 3 of _affine_scan cost some 30 numpy calls per in-block
    position, pass 2 about one call's time per block, so this size
    balances the two (both grow like sqrt(m))."""
    return max(1, math.isqrt(m // 32))


def _affine_scan(step, coefs, dtype):
    """March x_{k+1} = step(x_k, c_k) from x_0 = (1, 0, 0) over the m
    steps whose coefficients c_k = (coefs[0][k], coefs[1][k], ...) are
    given, and return the state components z and v at every node.

    step(z, u, v, one, *c) must be affine in the state (z, u, v), with
    `one` scaling its constant part; it is called on arrays, one entry
    per block.  The steps are cut into blocks of _block_size(m).

    1. Every block runs at once on four lanes: the constant part (one = 1
       from the zero state) and the three unit states (one = 0).  The
       lanes' end states are the columns of the block's affine map.
    2. The block maps are chained in order into each block's start state.
    3. Every block runs again at once from its true start state.

    The interpreter thus sees O(sqrt(m)) vectorized steps, and working
    memory stays O(m): there are no per-step maps or lane histories.
    """
    m = len(coefs[0])
    if m == 0:
        return np.ones(1, dtype), np.zeros(1, dtype)
    size = _block_size(m)
    nb = -(-m // size)
    # row j holds step j of every block; the last block is padded with
    # copies of the final step, whose results are never read
    cols = [np.ascontiguousarray(
        np.pad(c, (0, nb * size - m), mode="edge").reshape(nb, size).T)
        for c in coefs]
    with np.errstate(over="ignore", invalid="ignore"):
        # pass 1: lanes[i, 1 + i] starts at 1, everything else at 0
        lanes = np.zeros((3, 4, nb), dtype)
        for i in range(3):
            lanes[i, i + 1] = 1.0
        z, u, v = lanes
        one = np.array([[1.0], [0.0], [0.0], [0.0]])
        for j in range(size):
            z, u, v = step(z, u, v, one, *(c[j] for c in cols))
        # pass 2, on Python scalars: start_{b+1} = c_b + M_b start_b
        zs, us, vs = [1.0], [0.0], [0.0]
        for (cz, zz, zu, zv, cu, uz, uu, uv, cv, vz, vu, vv) in zip(
                *z.tolist(), *u.tolist(), *v.tolist()):
            z0, u0, v0 = zs[-1], us[-1], vs[-1]
            zs.append(cz + zz * z0 + zu * u0 + zv * v0)
            us.append(cu + uz * z0 + uu * u0 + uv * v0)
            vs.append(cv + vz * z0 + vu * u0 + vv * v0)
        # pass 3
        z, u, v = (np.array(s[:nb], dtype) for s in (zs, us, vs))
        z_out = np.empty((size, nb), dtype)
        v_out = np.empty((size, nb), dtype)
        for j in range(size):
            z, u, v = step(z, u, v, 1.0, *(c[j] for c in cols))
            z_out[j] = z
            v_out[j] = v
    return (np.concatenate(([1.0], z_out.T.reshape(-1)[:m])),
            np.concatenate(([0.0], v_out.T.reshape(-1)[:m])))


def _running(increments):
    """Running sum from node 0 (where it is 0) of per-step increments."""
    return np.concatenate(([0.0], np.cumsum(increments)))


def _cell_steps(h, n):
    """The steps of the n - 1 cells of an n-node march: n - 1 copies of a
    scalar h, or h itself when it is an array of n - 1 positive steps."""
    steps = np.asarray(h, dtype=float)
    if steps.ndim == 0:
        steps = np.full(n - 1, float(steps))
    if steps.shape != (n - 1,) or not np.all(steps > 0.0):
        raise VolterraError("need one positive step per cell")
    return steps


def _per_step(weights, mu, steps):
    """weights(mu, h), computed once per distinct step, as one array per
    component with one entry per cell."""
    # (not np.unique: its first call imports numpy.ma, which takes longer
    # than a whole march)
    ordered = np.sort(steps)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    which = np.searchsorted(distinct, steps)
    return [c[which] for c in np.array([weights(mu, h) for h in distinct]).T]


def _check_march(z, T, dT, steps, lost):
    """The march's checks in node order: the first node whose |z| breaks
    its envelope (a non-finite |z| breaks it too) wins over a lost
    contraction, which the caller has already cut the march short at.
    dT are the cells' increments of T.  Returns max |z|."""
    az = np.abs(z)
    slack = _running(steps[:len(dT)] ** 2 * dT)
    with np.errstate(over="ignore", invalid="ignore"):
        broken = np.flatnonzero(~(az[1:] <= _envelope_bound(T[1:],
                                                             slack[1:])))
    if broken.size:
        k = int(broken[0]) + 1
        raise EnvelopeError(
            "|z| = %.6g exceeded its envelope %.6g at node %d"
            % (az[k], math.exp(T[k]), k))
    if lost:
        raise StepTooLargeError("implicit update lost contraction")
    return float(np.max(az))


def solve_kernel(w_vals, h, zeta, grid=None):
    """March the kernel equation for mu = 2 zeta over the given samples.

    w_vals are the perturbation samples at the nodes; h is the step of
    every cell (an array of len(w_vals) - 1 steps, or one scalar for a
    uniform grid) and grid the nodes themselves (by default the running
    sum of the steps from 0).  zeta is 1 (growing exponential branch) or
    +-1j (oscillatory branches).

    The step is affine in (z, Q, E), with Q = int w z and E the memory
    integral, and its coefficients depend on the samples and the cell's
    step alone, so the march is one blocked scan (_affine_scan).  The
    exact kernel moments are computed once per distinct step.
    """
    w_arr = np.asarray(w_vals, dtype=float)
    if not np.all(np.isfinite(w_arr)):
        raise VolterraError("perturbation samples are not finite")
    n = len(w_arr)
    if n < 2:
        raise VolterraError("need at least two grid nodes")
    h = _cell_steps(h, n)
    oscillatory = (complex(zeta).real == 0.0)
    mu = complex(2.0 * zeta) if oscillatory else float(2.0 * zeta)
    aw = np.abs(w_arr)
    margin = float(np.max(np.maximum(aw[:-1], aw[1:]) * h))
    if margin > 0.5:
        raise StepTooLargeError(
            "h * max|w| = %.3g exceeds the contraction margin" % margin)
    D, A, B, cL, cR = _per_step(_kernel_weights, mu, h)
    denom = 1.0 - w_arr[1:] * cR
    m = _contracting_steps(denom)
    half = 0.5 * h

    def step(z, Q, E, one, wk, wk1, den, D, A, B, cL, hk):
        qk = wk * z
        z1 = (one + (Q - D * E) / mu + qk * cL) / den
        qk1 = wk1 * z1
        return z1, Q + hk * (qk + qk1), D * E + qk * A + qk1 * B

    dtype = complex if oscillatory else float
    z, E = _affine_scan(step, tuple(c[:m] for c in (
        w_arr[:-1], w_arr[1:], denom, D, A, B, cL, half)), dtype)
    dT = half[:m] * (aw[:m] + aw[1:m + 1])
    T = _running(dT)
    zmax = _check_march(z, T, dT, h, m < n - 1)
    aq = np.abs(w_arr * z)
    if grid is None:
        grid = _running(h)
    return VolterraSolution(
        kind="oscillatory" if oscillatory else "exponential",
        mu=mu, h=float(np.min(h)), cell_h=h, grid=np.asarray(grid, float),
        w=w_arr, z=z, z_deriv=E, envelope_log=T,
        l1_q=_running(half * (aq[:-1] + aq[1:])), z_max=zmax, steps=n - 1)


def solve_algebraic(g_vals, a, h, grid=None):
    """March z(x) = 1 + int_a^x (s - s^2/x) g z ds over the given samples.

    h is the step of every cell (an array, or one scalar for the uniform
    nodes a + k h) and grid the nodes (by default a plus the running sum
    of the steps).  The running moments S1 = int s g z and S2 = int s^2 g z
    are updated with exact polynomial moments of the hat interpolant of
    g z over each cell, so the kernel weight at the diagonal vanishes to
    the same order as the kernel itself.  The envelope uses the same exact
    first moments of |g|, making T the product-integration value of
    int s |g| ds.  The step is affine in (z, S1, S2), so the march is one
    blocked scan (_affine_scan).
    """
    g_arr = np.asarray(g_vals, dtype=float)
    if not np.all(np.isfinite(g_arr)):
        raise VolterraError("perturbation samples are not finite")
    n = len(g_arr)
    if n < 2:
        raise VolterraError("need at least two grid nodes")
    a = float(a)
    if a < 0:
        raise VolterraError("algebraic march needs a >= 0")
    h = _cell_steps(h, n)
    grid = a + _running(h) if grid is None else np.asarray(grid, float)
    sg = np.abs(g_arr) * grid
    margin = float(np.max(np.maximum(sg[:-1], sg[1:]) * h))
    if margin > 0.5:
        raise StepTooLargeError(
            "h * max|s g| = %.3g exceeds the contraction margin" % margin)
    sk = grid[:-1]
    sk1 = sk + h
    h2_6 = h * h / 6.0
    h2_3 = h * h / 3.0
    h3_12 = h ** 3 / 12.0
    h3_4 = h ** 3 / 4.0
    # exact cell moments of s and s^2 against the two hat halves
    m1L = 0.5 * h * sk + h2_6
    m1R = 0.5 * h * sk + h2_3
    m2L = 0.5 * h * sk * sk + h2_3 * sk + h3_12
    m2R = 0.5 * h * sk * sk + 2.0 * h2_3 * sk + h3_4
    denom = 1.0 - g_arr[1:] * (m1R - m2R / sk1)
    m = _contracting_steps(denom)

    def step(z, S1, S2, one, gk, gk1, m1L, m1R, m2L, m2R, sk1, den):
        pk = gk * z
        z1 = (one + S1 + m1L * pk - (S2 + m2L * pk) / sk1) / den
        pk1 = gk1 * z1
        return (z1, S1 + (m1L * pk + m1R * pk1),
                S2 + (m2L * pk + m2R * pk1))

    # z and S2 at every node
    z, z_deriv = _affine_scan(
        step, tuple(c[:m] for c in (g_arr[:-1], g_arr[1:], m1L, m1R, m2L,
                                    m2R, sk1, denom)), float)
    ag = np.abs(g_arr[:m + 1])
    dT = m1L[:m] * ag[:-1] + m1R[:m] * ag[1:]
    T = _running(dT)
    zmax = _check_march(z, T, dT, h, m < n - 1)
    ap = np.abs(g_arr * z)
    z_deriv[1:] /= sk1 * sk1        # z' = S2 / x^2
    return VolterraSolution(
        kind="algebraic", mu=0.0, h=float(np.min(h)), cell_h=h, grid=grid,
        w=g_arr, z=z, z_deriv=z_deriv, envelope_log=T,
        l1_q=_running(m1L * ap[:-1] + m1R * ap[1:]), z_max=zmax,
        steps=n - 1)


# --------------------------------------------------------------------------
# reduction of order on the march grid

# 8-point Gauss-Legendre rule on [0, 1] by Golub-Welsch: the nodes are the
# eigenvalues of the Jacobi matrix of the Legendre recurrence, the weights
# the squared first components of its unit eigenvectors
_K = np.arange(1.0, 8.0)
_GL_NODES, _V = np.linalg.eigh(np.diag(_K / np.sqrt(4 * _K * _K - 1), -1))
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), _V[0] ** 2


class InverseSquareIntegral:
    """I(t) = int_t^T e^{-decay (s - t)} z(s)^{-2} dv(s) + e^{-decay (T - t)}
    tail, with z the real Hermite correction of a march, T its grid end and
    tail the closed integral past T: up to a constant, int_t^inf u1^{-2} of
    the marched solution.  dv = ds, or ds / s^2 when reciprocal (decay 0):
    then int ds / s^2 = 1/t - 1/T is exact and only (z^{-2} - 1) / s^2,
    bounded near s = 0, is summed.

    The table holds J_k = c_k + e^{-decay h_k} J_{k+1} at the nodes, with
    h_k the width of cell k, c_k a Gauss-Legendre sum over it and J_N the
    tail (less 1/T when reciprocal); it is built on the first call.  A
    point finds its cell by binary search and adds one partial-cell sum.
    regular(t) is J(t): I(t) itself, or I(t) - 1/t when reciprocal, which
    stays finite at t = 0."""

    def __init__(self, sol, decay, tail, reciprocal=False):
        self.grid, self.cell_h, self.unit = sol.grid, sol.cell_h, sol.h
        self.z, self.zd = np.real(sol.z), np.real(sol.z_deriv)
        self.decay, self.reciprocal = decay, reciprocal
        self.tail = tail - 1.0 / self.grid[-1] if reciprocal else tail

    def _cell_sums(self, lo, width, k):
        """The summed integral from lo, in cell k, to t_{k+1} = lo + width;
        whole cells pass their step as width, free of the rounding of the
        node positions."""
        h, hi = self.cell_h[k], self.grid[k + 1]
        ends = self.z[k], self.zd[k] * h, self.z[k + 1], self.zd[k + 1] * h
        total = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            back = width * (1.0 - node)          # t_{k+1} - s
            zs = _hermite(1.0 - back / h, *ends)
            f = 1.0 / (zs * zs)
            if self.reciprocal:
                f = (f - 1.0) / (hi - back) ** 2
            total = total + weight * np.exp(-self.decay * (width - back)) * f
        return width * total

    @functools.cached_property
    def _nodes(self):
        c = np.append(self._cell_sums(self.grid[:-1], self.cell_h,
                                      np.arange(len(self.z) - 1)), self.tail)
        # J_k = sum_{j >= k} e^{-decay (t_j - t_k)} c_j.  In units of the
        # smallest step the nodes of a graded grid sit at integer offsets,
        # so the exponents rate * (offset difference) are rounded once.
        # Blocks span a decay of at most 60: within one, reversed
        # cumulative sums of e^{-r} c_j times e^{r} cost about 60 eps, and
        # each block adds the decayed value at the next block's start.
        off = _running(self.cell_h / self.unit)
        rate = self.decay * self.unit
        cuts = np.flatnonzero(np.diff(np.floor(off * rate / 60.0))) + 1
        bounds = np.concatenate(([0], cuts, [len(c)]))
        out = np.empty_like(c)
        for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
            r = rate * (off[lo:hi] - off[lo])
            local = np.cumsum((c[lo:hi] * np.exp(-r))[::-1])[::-1] * np.exp(r)
            if hi < len(c):
                local += np.exp(-rate * (off[hi] - off[lo:hi])) * out[hi]
            out[lo:hi] = local
        return out

    def regular(self, t):
        t = np.asarray(t, dtype=float)
        k = np.minimum(np.maximum(
            np.searchsorted(self.grid, t, side="right") - 1, 0),
            len(self.z) - 2)
        width = self.grid[k + 1] - t
        return self._cell_sums(t, width, k) \
            + np.exp(-self.decay * width) * self._nodes[k + 1]

    def __call__(self, t):
        if not self.reciprocal:
            return self.regular(t)
        with np.errstate(divide="ignore"):      # +inf at t = 0
            return self.regular(t) + 1.0 / np.asarray(t, dtype=float)


# --------------------------------------------------------------------------
# tail completion of connection constants

@dataclass
class Completion:
    value: complex
    residual_bound: float


def complete_exponential(sol, G0, G0_abs):
    """Limit of z for the growing exponential branch, from the end state
    (z, z') of the march at its grid end Y.

    G0 = int_Y^inf w dt (signed) and G0_abs its absolute version, both
    supplied by the caller from quadrature of the perturbation beyond Y.

    Writing Q(y) = int_0^y w z and E(y) = int_0^y e^{-2(y-t)} w z (the
    memory term, equal to z'), the marched value satisfies
    z(Y) = 1 + (Q(Y) - E(Y))/2 exactly, while the limit satisfies
    z_inf = 1 + Q(inf)/2.  Splitting the tail of Q around z_inf gives

        z_inf = (z(Y) + E(Y)/2 - err) / (1 - G0/2),
        err   = (1/2) int_Y^inf w (z_inf - z),

    so the computable quotient is exact up to err, which is second order
    in the tail: |z_inf - z(t)| <= G0_abs * z_sup + |E(Y)|/2 for t >= Y.
    """
    if G0_abs >= 0.5:
        raise VolterraError(
            "tail mass %.3g too large to complete; march further" % G0_abs)
    z, E = float(sol.z[-1]), float(sol.z_deriv[-1])
    zhat = (z + 0.5 * E) / (1.0 - 0.5 * G0)
    z_tail_sup = max(sol.z_max * math.exp(G0_abs), abs(zhat))
    sup_dev = G0_abs * z_tail_sup + 0.5 * abs(E)
    residual = 0.5 * G0_abs * sup_dev / (1.0 - 0.5 * G0_abs)
    return Completion(zhat, residual)


@dataclass
class OscillatoryCoeffs:
    xi1: complex
    xi2: complex
    eta1: complex
    eta2: complex
    residual_bound: float


def complete_oscillatory(sol, G0, Gp, Gm, tail_l1):
    """Connection constants of the oscillatory pair, from the end state
    (z, z') of the zeta = +i march at its grid end Y.

    G0, Gp, Gm are int_Y^inf w e^{0, +2it, -2it} dt and tail_l1 =
    int_Y^inf |w| dt.  Models z past Y by xi1 + xi2 e^{-2it}, solves the
    resulting 2x2 system and reports a residual bound.  The zeta = -i run
    of real w is the conjugate, z ~ eta2 + eta1 e^{+2it} with eta1 =
    conj(xi2) and eta2 = conj(xi1).
    """
    if tail_l1 >= 0.5:
        raise VolterraError(
            "tail mass %.3g too large to complete; march further" % tail_l1)
    mu = sol.mu
    z, E, Y = sol.z[-1], sol.z_deriv[-1], float(sol.grid[-1])
    # With Q = int_0^Y w z = mu (z - 1) + E and int_0^Y e^{mu t} w z =
    # e^{mu Y} E, the 2x2 system below is exact when z is replaced by the
    # model inside the tail integrals; the replacement error per row is at
    # most (L/2) sup_{t>=Y} |z - model| <= (L/2) L z_sup, and the matrix is
    # I + B with row sums of |B| at most L, so the solved coefficients
    # carry a second-order residual L^2 z_sup / (2 (1 - L)).
    A = np.array([[1.0 - G0 / mu, -Gm / mu],
                  [Gp / mu, 1.0 + G0 / mu]])
    b = np.array([z + E / mu, -cmath.exp(mu * Y) * E / mu])
    xi1, xi2 = (complex(v) for v in np.linalg.solve(A, b))
    z_tail_sup = max(sol.z_max * math.exp(tail_l1), abs(xi1) + abs(xi2))
    residual = tail_l1 * tail_l1 * z_tail_sup / (2.0 * (1.0 - tail_l1))
    return OscillatoryCoeffs(xi1, xi2, xi2.conjugate(), xi1.conjugate(),
                             residual)


def complete_algebraic(sol, W0, W0_abs):
    """Limit of z for the algebraic march, from the end state (z, z') at
    its grid end X; W0 = int_X^inf s g ds.

    With S1(x) = int_a^x s g z and S2(x) = int_a^x s^2 g z, the march
    satisfies z = 1 + S1 - S2/x and z' = S2/x^2 exactly, and the limit
    z_inf = (1 + S1(X) - err) / (1 - W0) = (z + X z' - err) / (1 - W0),
    where err = int_X^inf s g (z_inf - z).  The deviation on the tail obeys
    |z_inf - z(x)| <= 2 W0_abs z_sup + X |z'(X)| exactly, so err is a
    product of small quantities.
    """
    if W0_abs >= 0.5:
        raise VolterraError(
            "tail mass %.3g too large to complete; march further" % W0_abs)
    X = float(sol.grid[-1])
    z, zd = float(sol.z[-1]), float(sol.z_deriv[-1])
    zhat = (z + X * zd) / (1.0 - W0)
    z_tail_sup = max(sol.z_max * math.exp(W0_abs), abs(zhat))
    sup_dev = 2.0 * W0_abs * z_tail_sup + X * abs(zd)
    residual = W0_abs * sup_dev / (1.0 - W0_abs)
    return Completion(zhat, residual)
