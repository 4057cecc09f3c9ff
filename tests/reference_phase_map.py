"""Test-side reference for lgasym.transform.PhaseMap.build.

The phase map's first Newton loop, kept verbatim so the tests can compare
the library's nodes against it: every node starts from the linear
interpolant inside its PhaseTable cell and takes first-order Newton steps,
each one Gauss-Kronrod cell, until its step is within 1e-14 |x|.  It
charges its cells to the running ledger as the library does.
"""

import numpy as np

from lgasym import quadrature
from lgasym.transform import HypothesisFailed, PhaseMap

NEWTON_STEPS = 6


def build(table, inv_sqrt_f, ys):
    """The PhaseMap of table at the increasing phase values ys."""
    ys = np.asarray(ys, dtype=float)
    edges, phi = table.edges, table.phi
    j = np.clip(np.searchsorted(phi, ys, side="right") - 1,
                0, len(phi) - 2)
    left = edges[j]
    behind = phi[j] - ys    # Phi(x_j) - y, at most 0
    xs = left - behind / (phi[j + 1] - phi[j]) * (edges[j + 1] - left)
    todo = np.arange(len(ys))
    for _step in range(NEWTON_STEPS):
        k, _ = quadrature.gk_cells(table.sqrt_f, left[todo], xs[todo])
        with np.errstate(all="ignore"):
            dx = (behind[todo] + k) * inv_sqrt_f(xs[todo])
        # a non-finite step leaves its node non-finite and drops it
        # here; the domain check below raises for it
        xs[todo] -= dx
        todo = todo[np.abs(dx) > 1e-14 * np.abs(xs[todo])]
        if not todo.size:
            break
    else:
        raise HypothesisFailed(
            "phase map: Newton left %d nodes unsettled after %d steps "
            "(first at x=%.17g)" % (todo.size, NEWTON_STEPS, xs[todo[0]]))
    with np.errstate(all="ignore"):
        slopes = np.asarray(inv_sqrt_f(xs), dtype=float)
    if not np.all(np.isfinite(xs) & np.isfinite(slopes)):
        raise HypothesisFailed(
            "phase map left the domain of |f|^(-1/2)")
    return PhaseMap(table.a, ys, xs, slopes, table.sqrt_f)
