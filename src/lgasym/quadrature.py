"""Adaptive quadrature on finite and semi-infinite intervals, and the work
ledger of an analysis.

One kernel, _gk_cell, applies a 7-point Gauss / 15-point Kronrod embedded
pair to an array of cells in one call of the integrand, and every sample
the package takes passes through it.  The adaptive engine refines the
worst cell first (QUADPACK's global strategy, Piessens et al. 1983): it
splits the end cell, the one at the upper end of the range, in four equal
cells in one kernel call, and bisects every other cell.  It starts from a
partition: one cell per piece, all of them refined against one shared
error budget, and the per-piece sums returned; a single interval is the
one-piece case.

Semi-infinite integrals go through the rational substitution
x = a + L t/(1-t) with the length scale L = max(1, a), which maps
[a, inf) onto [0, 1); the Kronrod nodes are interior, so the endpoint
itself is never sampled.  On the tail's own scale x = a/(1-t) (a >= 1), so
c x^-p maps to c a^(1-p) (1-t)^(p-2): a polynomial for integer p >= 2,
which one cell integrates however far out a is.  A unit scale, as in
QUADPACK's qagi, would put the mass of such a tail within about 1/a of
t = 1, for the adaptive run to find by log4(a) splits of the end cell.
Below a = 1 the unit scale is already the tail's, and L stays 1.  The lower
limit may also be an increasing array a[0] < a[1] < ...: every limit is
mapped through one substitution of the same form, the pieces between the
mapped limits and the tail past the last one are integrated in one
adaptive run, and the tails come back as a reverse cumulative sum.  The
run's shared error estimate bounds the error of every entry.  A finite
integral takes an increasing array of upper limits the same way, as a
cumulative sum.

Divergence is detected structurally rather than by timeout, from two runs
that neither resets the other: one over the splits of the end cell, one
over those of the other cells.  A run counts dyadic shells, one per
bisection and two per four-way split.  When the refinements of the last
_DIVERGENCE_RUN (40) shells of a run each grow the running value by more
than 10*tol, and by at least 0.9 per shell (0.81 per four-way split) of
the run's previous such gain, the integral is declared divergent.  That
rule catches harmonic-type tails (int 1/x) in 22 kernel calls while
leaving slowly convergent integrals to the normal tolerance loop; the
threshold for x^-p sits near p = 1.15.  With separate runs an integrable
feature elsewhere cannot hide a divergent tail.

The Work ledger is the one count and the one cap of integrand samples:
_gk_cell charges every sample to the running one, and a call that would
take it past EVAL_BUDGET (2**20) raises BudgetExceededError unsampled.
pipeline.analyze holds one ledger for its run; an adaptive run outside
one holds a fresh one, so the cap is per analysis or per direct call.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

EVAL_BUDGET = 2 ** 20
# A convergent integrand can sustain near-constant refinement gains for
# about log2(span / feature width) dyadic shells while the adaptive zooms
# in on a sharp feature (an exponential tail on a span of 1e4 plateaus for
# ~14 shells); only a genuine divergence sustains them indefinitely.  40
# shells, 20 four-way splits of the end cell or 40 bisections of the
# interior, is far beyond any legitimate plateau and costs the end cell
# only ~1300 samples in 22 kernel calls.
_DIVERGENCE_RUN = 40
# QUADPACK's roundoff floor, 50 epsilon relative (Piessens et al. 1983): an
# error estimate below it on the pieces' magnitude is rounding, which no
# refinement reduces, so a tolerance under it stops there.
_ROUNDOFF = 50.0 * np.finfo(float).eps

# 15-point Kronrod abscissae on [-1, 1]; odd-indexed entries are the
# embedded 7-point Gauss nodes.  Every constant is its nearest double, in
# 17 significant digits, of a 40-digit solution of the rules' exactness
# conditions (Newton in mpmath): the Kronrod rule integrates x^k exactly
# for k <= 22 and the Gauss rule for k <= 13, each to within 6e-17.
_XK = np.array([
    -0.99145537112081261, -0.94910791234275849, -0.86486442335976910,
    -0.74153118559939446, -0.58608723546769115, -0.40584515137739718,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.40584515137739718,
    0.58608723546769115, 0.74153118559939446, 0.86486442335976910,
    0.94910791234275849, 0.99145537112081261,
])
CELL_SAMPLES = len(_XK)
_WK = np.array([
    0.022935322010529224, 0.063092092629978558, 0.10479001032225019,
    0.14065325971552592, 0.16900472663926791, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.16900472663926791, 0.14065325971552592,
    0.10479001032225019, 0.063092092629978558, 0.022935322010529224,
])
_WG = np.array([
    0.12948496616886970, 0.27970539148927664, 0.38183005050511892,
    0.41795918367346940, 0.38183005050511892, 0.27970539148927664,
    0.12948496616886970,
])
# What rounding may leave in a one-signed cell's 15-term sum, relative to
# its size (Higham's gamma_15): with exact constants |K - G| is 0 on a
# polynomial both rules integrate, so the reported estimate is at least
# this share of the pieces' magnitude.
_SUM_ROUNDING = CELL_SAMPLES * np.finfo(float).eps


class QuadratureError(ArithmeticError):
    pass


class DivergenceError(QuadratureError):
    """The running value keeps growing under refinement."""


class BudgetExceededError(QuadratureError):
    """A kernel call would take the ledger past EVAL_BUDGET samples."""


@dataclass
class QuadResult:
    value: float
    error_estimate: float


# the ledger of the running analysis; None outside one
_LEDGER = contextvars.ContextVar("lgasym_ledger", default=None)


@dataclass
class Work:
    """Deterministic effort counters (never wall-clock): a `with` block over
    a Work makes it the ledger every charge goes to until the block exits."""

    quadrature_evaluations: int = 0
    march_steps: int = 0
    map_nodes: int = 0

    def __enter__(self):
        self._token = _LEDGER.set(self)
        return self

    def __exit__(self, *exc):
        _LEDGER.reset(self._token)


def capped(run):
    """Decorate run to charge the running ledger, or a fresh Work when none
    is active: its samples are capped whether or not an analysis holds it."""
    @functools.wraps(run)
    def on_ledger(*args, **kwargs):
        if _LEDGER.get() is not None:
            return run(*args, **kwargs)
        with Work():
            return run(*args, **kwargs)
    return on_ledger


def charge(counter, n):
    """Add n to the named counter of the running ledger, if any; n samples
    that would take it past EVAL_BUDGET raise BudgetExceededError instead."""
    work = _LEDGER.get()
    if work is not None:
        total = getattr(work, counter) + n
        if counter == "quadrature_evaluations" and total > EVAL_BUDGET:
            raise BudgetExceededError(
                "quadrature budget of %d samples exhausted after %d"
                % (EVAL_BUDGET, total - n))
        setattr(work, counter, total)


def _gk_cell(fn, lo, hi):
    """Gauss-Kronrod on the cells [lo[i], hi[i]] -> (kronrod, |K-G|)
    arrays, from one call of fn on all their samples, charged to the
    ledger first, so a call past its budget takes no sample.  A non-finite
    sample makes its cell's values non-finite, which the caller tests."""
    charge("quadrature_evaluations", CELL_SAMPLES * len(lo))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ys = np.asarray(fn(mid[:, None] + half[:, None] * _XK), dtype=float)
    k = half * (ys @ _WK)
    return k, np.abs(k - half * (ys[:, 1::2] @ _WG))


# cells per integrand call of gk_cells: bounds its sample block at 15360
# floats (120 KB), so a table or map of many cells does not hold all its
# samples at once and each temporary of the integrand stays in cache.  On
# the phase maps of a certify pass 1024 was faster than 512, 2048 or 4096.
CHUNK_CELLS = 1024


def gk_cells(fn, lo, hi):
    """_gk_cell on the cells [lo[i], hi[i]], one call per block of
    CHUNK_CELLS cells."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    blocks = [_gk_cell(fn, lo[s:s + CHUNK_CELLS], hi[s:s + CHUNK_CELLS])
              for s in range(0, len(lo), CHUNK_CELLS)]
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _cells(fn, lo, hi, to_x):
    """_gk_cell on the cells, as float lists; a non-finite sample raises,
    naming its cell through to_x, the map from fn's variable to x."""
    k, err = _gk_cell(fn, np.asarray(lo, dtype=float),
                      np.asarray(hi, dtype=float))
    k, err = k.tolist(), err.tolist()
    for i, (v, e) in enumerate(zip(k, err)):
        if not (math.isfinite(v) and math.isfinite(e)):
            raise QuadratureError("non-finite integrand sample in [%r, %r]"
                                  % (to_x(lo[i]), to_x(hi[i])))
    return k, err


@capped
def _adapt(fn, edges, tol, to_x=float):
    """Worst-first adaptive refinement of the partition edges[0] < edges[1]
    < ... under one shared error budget -> (per-piece values, total error
    estimate), within the EVAL_BUDGET samples of the running ledger, until
    the estimate is at most max(tol, _ROUNDOFF * sum |piece value|).  A
    non-finite sample raises QuadratureError naming its cell through
    to_x, the map from fn's variable to the caller's.  The
    end cell, the one at edges[-1], is split in four equal cells per call
    (two levels of bisection, two dyadic shells of a mapped tail); every
    other cell is bisected.  The per-cell error estimate is the
    conservative |K - G|; it overestimates the true Kronrod error on
    smooth integrands, which is what makes it usable as a certified
    bound.  The total returned is at least _SUM_ROUNDING * sum |piece|,
    the rounding |K - G| does not see; it does not steer the refinement."""
    los, his = edges[:-1], edges[1:]
    totals, errs = _cells(fn, los, his, to_x)
    # heap entries: (-err, lo, hi, piece, value, err)
    heap = [(-e, lo, hi, piece, k, e) for piece, (lo, hi, k, e)
            in enumerate(zip(los, his, totals, errs))]
    heapq.heapify(heap)
    total_err = sum(errs)
    end = edges[-1]
    # divergence runs as [shells, last gain]; neither resets the other
    end_run, interior_run = [0, math.inf], [0, math.inf]
    while total_err > max(tol, _ROUNDOFF * sum(map(abs, totals))):
        _, clo, chi, piece, cval, cerr = heapq.heappop(heap)
        mid = 0.5 * (clo + chi)
        if chi == end:
            # two levels of bisection in one call: two dyadic shells
            cuts = [clo, 0.5 * (clo + mid), mid, 0.5 * (mid + chi), chi]
            shells, run = 2, end_run
        else:
            cuts = [clo, mid, chi]
            shells, run = 1, interior_run
        ks, es = _cells(fn, cuts[:-1], cuts[1:], to_x)
        delta = sum(ks) - cval
        totals[piece] += delta
        total_err += sum(es) - cerr
        for lo, hi, k, e in zip(cuts, cuts[1:], ks, es):
            heapq.heappush(heap, (-e, lo, hi, piece, k, e))
        # Divergence heuristic: a true divergence (1/x and friends) keeps
        # adding a roughly constant amount per dyadic shell of the worst
        # cell, while a convergent integrand adds amounts that decay
        # geometrically (a p-integrable tail shrinks by 2^{-(p-1)} <= ~0.71
        # per shell, a kink by ~0.25).  So only count refinements whose
        # gain has not shrunk below 0.9 per shell of the previous one.
        if delta > 10.0 * tol and delta >= 0.9 ** shells * run[1]:
            run[0] += shells
            if run[0] >= _DIVERGENCE_RUN:
                raise DivergenceError(
                    "integral appears divergent (running value grew by %.3g "
                    "on the last refinement and kept growing over the last "
                    "%d dyadic shells)" % (delta, run[0]))
        else:
            run[0] = 0
        if delta > 10.0 * tol:
            run[1] = delta
    return totals, max(total_err, _SUM_ROUNDING * sum(map(abs, totals)))


def integrate_finite(fn, a, b, tol=1e-10, singular=None):
    """Integrate fn from a to b to absolute tolerance tol (b < a gives the
    negative of the integral over [b, a]).

    fn must accept numpy arrays.  b may also be a strictly increasing 1-D
    array of upper limits above a: the value is then the array of
    int_a^{b[i]} fn from one adaptive run over the pieces between the
    limits, whose shared error estimate bounds every entry.
    singular='left' applies the substitution x = a + u**2 (x = a - u**2
    when b < a), which removes an integrable algebraic singularity at a up
    to 1/sqrt strength (the caller flags it; nothing is auto-detected).
    """
    ends = np.asarray(b, dtype=float)
    limits = ends.ravel().tolist()
    if not all(map(math.isfinite, [a] + limits)):
        raise ValueError("integrate_finite needs finite endpoints")
    if singular not in (None, "left"):
        raise ValueError("singular must be None or 'left'")
    if ends.ndim == 0:
        if a == b:
            return QuadResult(0.0, 0.0)
        if b < a and singular is None:
            r = integrate_finite(fn, b, a, tol)
            return QuadResult(-r.value, r.error_estimate)
    elif (ends.ndim > 1 or not limits
          or any(lo >= hi for lo, hi in zip([a] + limits, limits))):
        raise ValueError("upper limits must be a strictly increasing 1-D "
                         "array above a")
    g, edges = fn, [a] + limits
    if singular == "left":
        sign = 1.0 if limits[-1] > a else -1.0

        def g(u):
            return 2.0 * sign * u * fn(a + sign * u * u)

        edges = [0.0] + [math.sqrt(abs(x - a)) for x in limits]
    values, err = _adapt(g, edges, tol)
    if ends.ndim == 0:
        return QuadResult(values[0], err)
    return QuadResult(np.cumsum(values), err)


def integrate_to_infinity(fn, a, tol=1e-10):
    """Integrate fn over [a, inf) via the substitution x = a + L t/(1-t),
    L = max(1, a): on the tail's scale, x^-p maps to L^(1-p) (1-t)^(p-2).

    a may also be a strictly increasing 1-D array of lower limits.  The
    value is then the array of tails int_{a[i]}^inf fn from one adaptive
    run over the pieces between the mapped limits.  The substitution is
    x = a[0] + (D + L t)/(1 - t) with D = a[-1] - a[0] and L = max(1, a[0]):
    it puts a[-1] at t = 0, so the tail past the last limit is the whole
    cell [0, 1), split (and tested for divergence) as a single tail would
    be, and the other limits fall at t_i = (a[i] - a[0] - D)/(L + a[i] -
    a[0]) < 0.  dx/dt = (L + D)/(1 - t)^2.  The error estimate is the run's
    shared total, so it bounds the error of every entry.

    Divergent tails surface as DivergenceError; more than EVAL_BUDGET
    samples on the ledger (one analysis, or this call) as
    BudgetExceededError.
    """
    lows = np.asarray(a, dtype=float)
    limits = lows.ravel().tolist()
    if not all(map(math.isfinite, limits)):
        raise ValueError("lower endpoint must be finite")
    if lows.ndim > 1 or any(lo >= hi for lo, hi in zip(limits, limits[1:])):
        raise ValueError("lower limits must be a strictly increasing 1-D "
                         "array")
    if not limits:
        return QuadResult(lows, 0.0)
    a0, span = limits[0], limits[-1] - limits[0]
    # the map's length scale: x^-p past a0 maps to L^(1-p) (1-t)^(p-2)
    length = max(1.0, a0)

    def transformed(t):
        w = 1.0 - t
        # Deep refinement can round a quadrature node onto t=1 exactly,
        # which would put x at infinity.  The mapped integrand of any
        # integrable tail tends to 0 there, so pin that endpoint sample;
        # a divergent tail still blows up at the interior nodes.
        safe = w > 0.0
        ws = np.where(safe, w, 1.0)
        x = a0 + (span + length * t) / ws
        vals = np.asarray(fn(x), dtype=float) / (ws * ws)
        return np.where(safe, vals, 0.0)

    def to_x(t):
        return a0 + (span + length * t) / (1.0 - t) if t < 1.0 else math.inf

    # dx/dt = scale/(1-t)^2: the constant scale multiplies the run's sums
    # and error instead of every sample, so the run asks tol/scale
    scale = length + span
    edges = [(x - a0 - span) / (length + (x - a0)) for x in limits] + [1.0]
    # one errstate for the run, not one per cell: an invalid sample is
    # still caught, as a non-finite one, by _adapt
    with np.errstate(invalid="ignore"):
        values, err = _adapt(transformed, edges, tol / scale, to_x)
    if lows.ndim == 0:
        return QuadResult(values[0] * scale, err * scale)
    # the tail from a[i] is the sum of the pieces from t_i on
    return QuadResult(scale * np.cumsum(values[::-1])[::-1], err * scale)


def l1_tail_norm(fn, a, tol=1e-10):
    """L1 norm of fn on [a, inf): returns the QuadResult for int |fn|.

    fn may be signed: |fn| is taken here, with numpy's warnings off for the
    run.  An increasing array a gives every tail norm from one adaptive
    run, as in integrate_to_infinity.  Propagates DivergenceError when the
    tail is not integrable.
    """
    with np.errstate(all="ignore"):
        return integrate_to_infinity(lambda x: np.abs(fn(x)), a, tol)
