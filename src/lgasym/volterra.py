"""Marching solvers for the renormalized correction equations.

After the phase change of variables, each leading-order branch e^{zeta y}
carries a correction z solving a Volterra integral equation

    z(y) = 1 + (1/mu) * int_0^y (1 - e^{-mu (y-t)}) w(t) z(t) dt,

with mu = 2 zeta, zeta in {1, i, -i}, and w the transformed perturbation.
When the leading part vanishes identically the analogous equation in the
original variable has the kernel (s - s^2/x):

    z(x) = 1 + int_a^x (s - s^2/x) g(s) z(s) ds.

Both are solved by Linz's block-by-block rule, of fourth order: every cell
is sampled at its nodes and midpoint, w z is the quadratic through the
three samples, every kernel moment over the half and the whole cell is
integrated exactly, and each step solves a 2x2 implicit system for z at
the midpoint and the end (Linz, Analytical and Numerical Methods for
Volterra Equations, SIAM 1985).  The steps may differ from cell to cell:
the pipeline marches on a dyadic graded grid, whose cells are the level-0
step times a power of two in long runs, so the exact kernel moments are
computed once per run.  The derivative comes for free (z' equals the memory
integral E in the kernel case, S2/x^2 in the algebraic case).  Since z =
1 + (Q - E)/mu, resp. 1 + S1 - S2/x, at every node, the running integral
Q = int w z, resp. S1 = int s g z, is not marched: only zeta = z - 1 and
the memory v (E, resp. S2) are, by a step affine in (z, v) with
coefficients fixed by the samples and steps, evaluated as a blocked scan
(_scan) over the nodes; the midpoints are read back from the same maps.

The continuous solutions obey |z| <= exp(T) with T the running L1 norm of
the perturbation weight; the discrete march asserts this envelope at
every sample, node and midpoint, allowing only its own discretization
slack, the sum of h_k^2 times the growth of T over the half cells (of
width h_k) up to that sample (h^2 T on a uniform grid; it vanishes
identically when w == 0).  A violation raises EnvelopeError at the first
sample that breaks it, and is the caller's cue to halve the step.

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
    # The run lives on its samples, the nodes and midpoints of the march's
    # cells: each interval between two samples is half a cell.
    h: float                  # the smallest interval: half the level-0 step
    cell_h: np.ndarray        # the width of every interval
    grid: np.ndarray          # the samples (phase variable, or s itself)
    w: np.ndarray             # perturbation samples on the grid
    z: np.ndarray
    z_deriv: np.ndarray
    envelope_log: np.ndarray  # running T_k
    l1_q: np.ndarray          # running int |w z|
    z_max: float = 0.0
    steps: int = 0            # the march's cells

    # Between samples.  z_at and deriv_at are cubic Hermite interpolants of z
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


# 8-point Gauss-Legendre rule on [0, 1] by Golub-Welsch: the nodes are the
# eigenvalues of the Jacobi matrix of the Legendre recurrence, the weights
# the squared first components of its unit eigenvectors
_K = np.arange(1.0, 8.0)
_GL_NODES, _V = np.linalg.eigh(np.diag(_K / np.sqrt(4 * _K * _K - 1), -1))
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), _V[0] ** 2
# the same rule on each quarter of [0, 1]
_GL4_NODES = ((np.arange(4.0)[:, None] + _GL_NODES) / 4.0).ravel()
_GL4_WEIGHTS = np.tile(_GL_WEIGHTS, 4) / 4.0

# (a, b, c) of L_j(u) = a u^2 + b u + c, the quadratics through a cell's
# samples at u = 0, 1/2, 1, and int_0^rho u^p L_j(u) du for p = 0, 1, 2
# over the half cell (rho = 1/2) and the whole cell
_LAGRANGE = np.array([[2.0, -3.0, 1.0], [-4.0, 4.0, 0.0], [2.0, -1.0, 0.0]])
_HALF_M = np.array([[5 / 24, 1 / 3, -1 / 24], [1 / 32, 5 / 48, -1 / 96],
                    [7 / 960, 3 / 80, -1 / 320]])
_CELL_M = np.array([[1 / 6, 2 / 3, 1 / 6], [0.0, 1 / 3, 1 / 6],
                    [-1 / 60, 1 / 5, 3 / 20]])


def _kernel_weights(mu, steps):
    """The block-by-block weights of cells of the given steps, shape (2, 8,
    len(steps)): for the half cell and the whole cell, up to Y = h/2 resp.
    h, the row (z_0, z_1, z_2, v_0, v_1, v_2, lift, decay) with z_j =
    (1/mu) int_0^Y (1 - e^{-mu (Y - t)}) L_j(t) dt, v_j = int_0^Y
    e^{-mu (Y - t)} L_j(t) dt, lift = sum v_j and decay = -mu lift, so
    that e^{-mu Y} is taken as 1 + decay.  Up to |mu| Y = 2 these are
    8-point Gauss-Legendre sums on four pieces, exact to rounding; past
    that, closed forms by an upward recurrence, stable there."""
    h = np.asarray(steps, dtype=float)
    a, b, c = _LAGRANGE.T[:, :, None]
    rows = []
    for rho, moments in ((0.5, _HALF_M), (1.0, _CELL_M)):
        Y = rho * h
        mu_s = mu * np.outer(Y, 1.0 - _GL4_NODES)       # mu (Y - t)
        u = rho * _GL4_NODES
        basis = (((a * u + b) * u + c) * _GL4_WEIGHTS).T
        z = Y * (-np.expm1(-mu_s) / mu @ basis).T
        v = Y * (np.exp(-mu_s) @ basis).T
        far = np.abs(mu) * Y > 2.0
        if far.any():
            # int_0^Y e^{-mu (Y - t)} (t / h)^p dt for p = 0, 1, 2
            Yf, hf = Y[far], h[far]
            J0 = -np.expm1(-mu * Yf) / mu
            J1 = (rho - J0 / hf) / mu
            J2 = (rho * rho - 2.0 * J1 / hf) / mu
            v[:, far] = a * J2 + b * J1 + c * J0
            z[:, far] = (hf * moments[0][:, None] - v[:, far]) / mu
        lift = v.sum(axis=0)
        rows.append(np.concatenate([z, v, [lift, -mu * lift]]))
    return np.array(rows)


def _cell_maps(w0, wm, w1, mid, end):
    """The block-by-block step of cells with samples w_k, w_m, w_{k+1} at
    start, midpoint and end, from the rows (z_j, v_j, lift, decay) of the
    half and the whole cell: (z_m, z_{k+1}) solve the 2x2 system

        z_m     = z_k + lift_m v_k + sum_j zm_j w_j z_j,
        z_{k+1} = z_k + lift   v_k + sum_j z_j  w_j z_j,

    so both are affine in (z_k, v_k), and so is the memory.  Returns the
    increments (f, b, g, d) of z and v at the end, as _scan takes them,
    the same (f_m, b_m, g_m, d_m) at the midpoint, and the determinant."""
    a0, a1, a2, p0, p1, p2, lift_m, decay_m = mid
    c0, c1, c2, e0, e1, e2, lift, decay = end
    # a non-finite coefficient only makes z non-finite, which breaks the
    # envelope (_check_march)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        aw0, aw1, aw2 = a0 * w0, a1 * wm, a2 * w1
        cw0, cw1, cw2 = c0 * w0, c1 * wm, c2 * w1
        mid_diag, end_diag = 1.0 - aw1, 1.0 - cw2
        det = mid_diag * end_diag - aw2 * cw1
        inv = 1.0 / det
        f = (mid_diag * (cw0 + cw2) + cw1 * (1.0 + aw0 + aw2)) * inv
        b = (mid_diag * lift + cw1 * lift_m) * inv
        fm = (end_diag * (aw0 + aw1) + aw2 * (1.0 + cw0 + cw1)) * inv
        bm = (end_diag * lift_m + aw2 * lift) * inv
        zm, ze = wm * (1.0 + fm), w1 * (1.0 + f)
        vm, ve = wm * bm, w1 * b
        return (f, b, e0 * w0 + e1 * zm + e2 * ze,
                decay + e1 * vm + e2 * ve, fm, bm,
                p0 * w0 + p1 * zm + p2 * ze, decay_m + p1 * vm + p2 * ve,
                det)


def _envelope_bound(T, slack):
    """Admissible |z| at envelope log T: the Gronwall bound exp(T) plus
    the scheme's own slack, sum h_k^2 dT_k over the intervals marched so
    far (exactly exp(0) = 1 when T == 0)."""
    return np.exp(T) * (1.0 + _ROUNDOFF + slack)


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


def _inputs(vals, h):
    """The samples of a march, the nodes and midpoint of every cell (an
    odd count of at least three, all finite), as floats, and the step of
    every cell: copies of a scalar h, or an array of positive steps."""
    w = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(w)):
        raise VolterraError("perturbation samples are not finite")
    if len(w) < 3 or len(w) % 2 == 0:
        raise VolterraError("need the samples at the nodes and midpoint of "
                            "every cell: an odd count, at least three")
    steps = np.asarray(h, dtype=float)
    if steps.ndim == 0:
        steps = np.full(len(w) // 2, float(steps))
    if steps.shape != (len(w) // 2,) or not np.all(steps > 0.0):
        raise VolterraError("need one positive step per cell")
    return w, steps


def _check_march(az, T, dT, steps, lost):
    """The march's checks in sample order: the first sample whose |z|
    breaks its envelope (a non-finite |z| breaks it too) wins over a lost
    contraction, which the caller has already cut the march short at.
    dT are the increments of T over the intervals between samples, steps
    their widths."""
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


def _march(kind, mu, w, steps, grid, maps, left, right, scale, what):
    """Check the contraction margin h max|scale| cell by cell, scan the
    cells' maps (_cell_maps) up to the first cell whose determinant falls
    below the margin, read the midpoints back, and check the run.  left
    and right weight |w| at the two samples of every half cell in the
    increments of T and of l1_q."""
    margin = float(np.max(np.maximum(np.maximum(
        scale[:-1:2], scale[1::2]), scale[2::2]) * steps))
    if margin > 0.5:
        raise StepTooLargeError(
            "%s = %.3g exceeds the contraction margin" % (what, margin))
    f, b, g, d, fm, bm, gm, dm, det = maps
    lost = np.flatnonzero(np.abs(det) < 0.5)
    m = int(lost[0]) if lost.size else len(det)
    z_nodes, v_nodes = _scan(f[:m], b[:m], g[:m], d[:m])
    z, v = (np.empty(2 * m + 1, z_nodes.dtype) for _ in range(2))
    z[::2], v[::2] = z_nodes, v_nodes
    zk, vk = z_nodes[:-1], v_nodes[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        z[1::2] = zk + (fm[:m] * zk + bm[:m] * vk)
        v[1::2] = vk + (gm[:m] * zk + dm[:m] * vk)
    half = np.repeat(0.5 * steps, 2)
    aw, az = np.abs(w[:2 * m + 1]), np.abs(z)
    dT = left[:2 * m] * aw[:-1] + right[:2 * m] * aw[1:]
    T = _running(dT)
    _check_march(az, T, dT, half, m < len(det))
    aq = aw * az
    return VolterraSolution(
        kind=kind, mu=mu, h=float(np.min(half)), cell_h=half, grid=grid,
        w=w, z=z, z_deriv=v, envelope_log=T,
        l1_q=_running(left * aq[:-1] + right * aq[1:]),
        z_max=float(np.max(az)), steps=len(det))


def solve_kernel(w_vals, h, zeta, grid=None):
    """March the kernel equation for mu = 2 zeta over the given samples.

    w_vals are the perturbation samples at the nodes and midpoint of every
    cell; h is the step of every cell (an array, or one scalar for a
    uniform grid) and grid the sample positions (by default the running
    sum of the half steps from 0).  zeta is 1 (growing exponential branch)
    or +-1j (oscillatory branches).  The memory is E = z', and e^{-mu h}
    is taken as 1 - mu sum_j v_j (_kernel_weights): a factor rounded to a
    modulus other than 1 would make E drift over a long oscillatory run.
    """
    w, h = _inputs(w_vals, h)
    oscillatory = (complex(zeta).real == 0.0)
    mu = complex(2.0 * zeta) if oscillatory else float(2.0 * zeta)
    # one _cell_maps call per run of equal steps, with that run's scalar
    # weights
    starts = np.flatnonzero(np.diff(h, prepend=np.nan))
    weights = _kernel_weights(mu, h[starts])
    maps = np.empty((9, len(h)), np.result_type(mu, w))
    for r, (lo, hi) in enumerate(zip(starts, [*starts[1:], len(h)])):
        maps[:, lo:hi] = _cell_maps(
            w[2 * lo:2 * hi:2], w[2 * lo + 1:2 * hi:2],
            w[2 * lo + 2:2 * hi + 1:2], *weights[..., r])
    trapezoid = np.repeat(0.25 * h, 2)
    grid = _running(2.0 * trapezoid) if grid is None else np.asarray(grid,
                                                                     float)
    return _march("oscillatory" if oscillatory else "exponential", mu, w, h,
                  grid, maps, trapezoid, trapezoid, np.abs(w), "h * max|w|")


def _algebraic_row(rho, moments, sk, h, x):
    """_cell_maps' row of the algebraic march up to x = sk + rho h, in the
    local coordinate t = s - sk: z_j = int s (x - s) / x L_j, v_j = int
    s^2 L_j, and the drop 1/sk - 1/x (0 at sk = 0, where S2 = 0)."""
    M0, M1, M2 = moments[:, :, None]
    z = h * h * ((rho * M0 - M1) * sk + (rho * M1 - M2) * h) / x
    v = h * (M0 * sk * sk + 2.0 * M1 * sk * h + M2 * h * h)
    drop = np.divide(x - sk, sk * x, out=np.zeros_like(sk), where=sk > 0.0)
    return (*z, *v, drop, 0.0)


def solve_algebraic(g_vals, a, h, grid=None):
    """March z(x) = 1 + int_a^x (s - s^2/x) g z ds over the given samples.

    g_vals are the samples at the nodes and midpoint of every cell; h is
    the step of every cell (an array, or one scalar) and grid the sample
    positions (by default a plus the running sum of the half steps).  With
    1 + S1 = z + S2/s_k at node s_k, S1 = int s g z drops out and the
    memory is S2 = int s^2 g z.  T takes the exact first moments of the
    hat interpolant of |g| on every half cell, the product-integration
    value of int s |g| ds.
    """
    g, h = _inputs(g_vals, h)
    a = float(a)
    if a < 0:
        raise VolterraError("algebraic march needs a >= 0")
    half = np.repeat(0.5 * h, 2)
    grid = a + _running(half) if grid is None else np.asarray(grid, float)
    sk, xm, xe = grid[:-1:2], grid[1::2], grid[2::2]
    maps = _cell_maps(g[:-1:2], g[1::2], g[2::2],
                      _algebraic_row(0.5, _HALF_M, sk, h, xm),
                      _algebraic_row(1.0, _CELL_M, sk, h, xe))
    left = half * (0.5 * grid[:-1] + half / 6.0)
    right = half * (0.5 * grid[:-1] + half / 3.0)
    sol = _march("algebraic", 0.0, g, h, grid, maps, left, right,
                 np.abs(g) * grid, "h * max|s g|")
    sol.z_deriv[1:] /= sol.grid[1:] ** 2        # z' = S2 / x^2
    return sol


# --------------------------------------------------------------------------
# reduction of order on the march grid

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
