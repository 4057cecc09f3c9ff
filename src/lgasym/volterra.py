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
case).  Since z = 1 + (Q - E)/mu, resp. 1 + S1 - S2/x, at every node,
the running integral Q = int w z, resp. S1 = int s g z, is not marched:
only zeta = z - 1 and the memory v (E, resp. S2) are, by a step linear
in (z, v) with coefficients fixed by the samples and steps, evaluated as
a blocked scan (_scan).

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

    Returns (A, B, cL, cR): A and B weight q_k and q_{k+1} in the memory
    update, and A + B = (1 - e^{-mu h}) / mu; cL and cR are the net
    (1/mu)(h/2 - .) weights of the implicit z update.  Series forms are
    used for small mu h where the closed forms cancel.
    """
    cd = mu * h
    if abs(cd) < 0.5:
        # A/h     = sum (-cd)^m (m+1) / (m+2)!
        # h/2 - A = -h * sum_{m>=1} (-cd)^m (m+1)/(m+2)!
        # h/2 - B = -h * sum_{m>=1} (-cd)^m / (m+2)!
        da = 0.0
        db = 0.0
        term = 1.0 + 0j if isinstance(mu, complex) else 1.0
        fact = 1.0
        for m in range(0, 18):
            fact2 = fact * (m + 1)      # (m+1)!
            fact3 = fact2 * (m + 2)     # (m+2)!
            if m >= 1:
                da -= term * (m + 1) / fact3
                db -= term / fact3
            term *= -cd
            fact = fact2
        half_minus_A = h * da
        half_minus_B = h * db
        A = 0.5 * h - half_minus_A
        B = 0.5 * h - half_minus_B
    else:
        D = cmath.exp(-cd) if isinstance(mu, complex) else math.exp(-cd)
        I0 = (1.0 - D) / mu
        I1 = (1.0 - D * (1.0 + cd)) / (mu * mu)
        A = I1 / h
        B = I0 - A
        half_minus_A = 0.5 * h - A
        half_minus_B = 0.5 * h - B
    return A, B, half_minus_A / mu, half_minus_B / mu


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

    Passes 1 and 3 of _scan make 19 numpy calls per in-block position,
    pass 2 costs about one call's time per block, so this size balances
    the two (both grow like sqrt(m)); m // 16 to m // 64 time within a
    few percent of it."""
    return max(1, math.isqrt(m // 32))


def _scan(f, b, g, d):
    """March the deviation zeta = z - 1 and the memory v from zeta = v = 0
    over the m steps

        zeta' = zeta + f_k z + b_k v,    v' = v + g_k z + d_k v,

    and return z and v at every node.  The steps are linear in (z, v) and
    cut into blocks of _block_size(m):

    1. Every block runs at once on two lanes, from z = 1 and from v = 1;
       their deviations from those starts are the block's map less 1.
    2. The block maps are chained in order into each block's start state.
    3. Every block runs again at once from its true start state.

    Each pass adds increments to the state, never rescales it, so a state
    that should not move (z == 1 where w == 0) stays exact.  The
    interpreter sees O(sqrt(m)) vectorized steps, and working memory
    stays O(m).
    """
    m = len(f)
    dtype = np.result_type(f, b, g, d)
    if m == 0:
        return np.ones(1, dtype), np.zeros(1, dtype)
    size = _block_size(m)
    nb = -(-m // size)
    # row j holds step j of every block; the last block is padded with
    # identity steps, whose results are never read
    packed = np.zeros((4, nb * size), dtype)
    packed[:, :m] = f, b, g, d
    f, b, g, d = packed.reshape(4, nb, size).transpose(0, 2, 1).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        # pass 1: lane 0 starts at (z, v) = (1, 0), lane 1 at (0, 1)
        unit_z = np.array([[1.0], [0.0]])
        unit_v = unit_z[::-1]
        dz = np.zeros((2, nb), dtype)
        dv = np.zeros((2, nb), dtype)
        for j in range(size):
            z = dz + unit_z
            v = dv + unit_v
            dz, dv = dz + (f[j] * z + b[j] * v), dv + (g[j] * z + d[j] * v)
        # pass 2, on Python scalars
        zetas, vs = [0.0], [0.0]
        for zz, zv, vz, vv in zip(*dz.tolist(), *dv.tolist()):
            z0, v0 = 1.0 + zetas[-1], vs[-1]
            zetas.append(zetas[-1] + (zz * z0 + zv * v0))
            vs.append(v0 + (vz * z0 + vv * v0))
        # pass 3
        zeta = np.array(zetas[:nb], dtype)
        v = np.array(vs[:nb], dtype)
        zeta_out = np.empty((size, nb), dtype)
        v_out = np.empty((size, nb), dtype)
        for j in range(size):
            z = 1.0 + zeta
            zeta, v = (np.add(zeta, f[j] * z + b[j] * v, out=zeta_out[j]),
                       np.add(v, g[j] * z + d[j] * v, out=v_out[j]))
    return (1.0 + np.concatenate(([0.0], zeta_out.T.reshape(-1)[:m])),
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

    Each step solves z_{k+1} (1 - w_{k+1} cR) = z_k (1 + w_k cL) + (A + B)
    E_k and sets E_{k+1} = D E_k + A w_k z_k + B w_{k+1} z_{k+1}, with D =
    e^{-mu h} taken as 1 - mu (A + B): a D rounded to a modulus other than
    1 would make E drift over a long oscillatory run.  The exact kernel
    moments are computed once per distinct step.
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
    A, B, cL, cR = _per_step(_kernel_weights, mu, h)
    m = _contracting_steps(1.0 - w_arr[1:] * cR)
    A, B, cL, cR, w0, w1 = (c[:m] for c in (A, B, cL, cR, w_arr[:-1],
                                            w_arr[1:]))
    denom = 1.0 - w1 * cR
    f = (w0 * cL + w1 * cR) / denom
    I0 = A + B                      # (1 - D) / mu, free of D's rounding
    b = I0 / denom
    z, E = _scan(f, b, A * w0 + B * w1 * (1.0 + f), B * w1 * b - mu * I0)
    half = 0.5 * h
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
    int s |g| ds.  With 1 + S1 = z + S2/s_k at node s_k, S1 drops out, so
    the march is one blocked scan (_scan) of z - 1 and S2.
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
    sk, sk1 = grid[:-1], grid[1:]
    h2_6 = h * h / 6.0
    h2_3 = h * h / 3.0
    h3_12 = h ** 3 / 12.0
    h3_4 = h ** 3 / 4.0
    # exact cell moments of s and s^2 against the two hat halves
    m1L = 0.5 * h * sk + h2_6
    m1R = 0.5 * h * sk + h2_3
    m2L = 0.5 * h * sk * sk + h2_3 * sk + h3_12
    m2R = 0.5 * h * sk * sk + 2.0 * h2_3 * sk + h3_4
    # the net weights of g_k z_k and g_{k+1} z_{k+1} in the implicit update
    cL, cR = m1L - m2L / sk1, m1R - m2R / sk1
    m = _contracting_steps(1.0 - g_arr[1:] * cR)
    # S2 enters z through the drop of 1/s over the cell, taken from the
    # nodes themselves so that it telescopes; S2 = 0 at s_k = 0
    drop = np.divide(sk1 - sk, sk * sk1, out=np.zeros_like(h),
                     where=sk > 0.0)
    cL, cR, drop, mL, mR, g0, g1 = (c[:m] for c in (
        cL, cR, drop, m2L, m2R, g_arr[:-1], g_arr[1:]))
    denom = 1.0 - g1 * cR
    f = (g0 * cL + g1 * cR) / denom
    b = drop / denom
    # z and S2 at every node
    z, z_deriv = _scan(f, b, mL * g0 + mR * g1 * (1.0 + f), mR * g1 * b)
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


def real_bound(G_abs, z_sup, m_abs):
    """_complete_real's residual bound; with z_sup = 1, the end
    predictor's."""
    return G_abs * (2.0 * G_abs * z_sup + m_abs) / (1.0 - G_abs)


def _complete_real(sol, G, G_abs, m, L):
    """zhat = (z + m) / (1 - G) from a real march's end state at its grid
    end X, with the residual bound real_bound(G_abs, z_sup, |m|).

    Both real marches satisfy z = 1 + P - M exactly, P the running integral
    of k z for a kernel weight k, int_X^inf k = G, int_X^inf |k| = G_abs,
    and M a memory that tends to 0, M(X) = m.  So z_inf = 1 + P(inf) =
    (z(X) + m - err) / (1 - G), err = int_X^inf k (z_inf - z).  Past X, |z|
    <= z_sup = max(z_max e^L, |zhat|) (Gronwall, L the weight's tail mass),
    and the tail of P and the change of M stay within G_abs z_sup each, so
    |z_inf - z| <= 2 G_abs z_sup + |m| and |err| <= G_abs (2 G_abs z_sup +
    |m|), second order in the tail.  L >= 1/2 is refused."""
    if L >= 0.5:
        raise VolterraError(
            "tail mass %.3g too large to complete; march further" % L)
    zhat = (float(sol.z[-1]) + m) / (1.0 - G)
    z_sup = max(sol.z_max * math.exp(L), abs(zhat))
    return Completion(zhat, real_bound(G_abs, z_sup, abs(m)))


def complete_exponential(sol, G0, G0_abs):
    """Limit of z for the growing exponential branch; G0 = int_Y^inf w and
    G0_abs = int_Y^inf |w| past the grid end Y.  The march satisfies z = 1
    + (Q - E)/2, Q = int_0^y w z and E = z' = int_0^y e^{-2(y-t)} w z, so
    this is _complete_real with (G, G_abs, m, L) = (G0/2, G0_abs/2, E/2,
    G0_abs)."""
    E = float(sol.z_deriv[-1])
    return _complete_real(sol, 0.5 * G0, 0.5 * G0_abs, 0.5 * E, G0_abs)


def oscillatory_bound(L, z_sup, R2, size):
    """complete_oscillatory's residual bound; with z_sup = 1 and size = 2,
    the end predictor's."""
    return (0.5 * L * L * z_sup + 0.25 * R2 * (1.0 + size)) / (1.0 - L)


@dataclass
class OscillatoryCoeffs:
    xi1: complex
    xi2: complex
    eta1: complex
    eta2: complex
    residual_bound: float


def complete_oscillatory(sol, G0, Gp, Gm, tail_l1, R2):
    """Connection constants of the oscillatory pair, from the end state
    (z, z') of the zeta = +i march at its grid end Y.

    G0, Gp, Gm are int_Y^inf w e^{0, +2it, -2it} dt, the last two to
    within R2 / 4 each, and tail_l1 = int_Y^inf |w| dt.  Models z past Y by
    xi1 + xi2 e^{-2it} and solves the resulting 2x2 system.  The zeta = -i
    run of real w is the conjugate, z ~ eta2 + eta1 e^{+2it} with eta1 =
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
    # carry a second-order residual L^2 z_sup / (2 (1 - L)).  An error of
    # R2 / 4 in Gp or Gm moves them by at most R2 (1 + size) / (4 (1 - L)),
    # size = |xi1| + |xi2| + |eta1| + |eta2|.
    A = np.array([[1.0 - G0 / mu, -Gm / mu],
                  [Gp / mu, 1.0 + G0 / mu]])
    b = np.array([z + E / mu, -cmath.exp(mu * Y) * E / mu])
    xi1, xi2 = (complex(v) for v in np.linalg.solve(A, b))
    eta1, eta2 = xi2.conjugate(), xi1.conjugate()
    z_tail_sup = max(sol.z_max * math.exp(tail_l1), abs(xi1) + abs(xi2))
    size = abs(xi1) + abs(xi2) + abs(eta1) + abs(eta2)
    return OscillatoryCoeffs(xi1, xi2, eta1, eta2, oscillatory_bound(
        tail_l1, z_tail_sup, R2, size))


def complete_algebraic(sol, W0, W0_abs):
    """Limit of z for the algebraic march; W0 = int_X^inf s g and W0_abs
    its absolute version past the grid end X.  The march satisfies z = 1 +
    S1 - S2/x and z' = S2/x^2, S_k = int_a^x s^k g z, so this is
    _complete_real with (G, G_abs, m, L) = (W0, W0_abs, X z', W0_abs)."""
    m = float(sol.grid[-1]) * float(sol.z_deriv[-1])
    return _complete_real(sol, W0, W0_abs, m, W0_abs)
