"""Cutoff selection and the a-posteriori smallness certificate.

The analysis is only quantitative once the perturbation's weighted L1
tail beyond the working cutoff is small: the correction z then lives in
a ball of radius exp(tail) - 1 around 1, and keeping that radius below 1
(tail < log 2) separates the two connection constants from zero and from
each other.  find_cutoff locates the smallest cutoff (to three
significant digits) whose tail mass is at or below a target, by
geometric growth followed by bisection on exact tails where the weight
is a power; the default target keeps a 10% margin under log 2.

A Certificate records the cutoff, the measured tail, the implied radius
and the envelope diagnostics of the actual march, as a list of named
checks; verify_certificate re-derives the tail by a quadrature over a
different partition and reports (without asserting) the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .transform import HypothesisFailed, Tails

LOG2 = math.log(2.0)
DEFAULT_TARGET = 0.9 * LOG2


class CertificateError(RuntimeError):
    pass


class NotIntegrableError(HypothesisFailed):
    """The weighted perturbation has no finite tail, so no cutoff works."""


@dataclass
class Certificate:
    cutoff: float
    target: float
    tail_norm: float          # weighted L1 mass of the perturbation past cutoff
    radius: float             # exp(tail_norm) - 1, the correction ball radius
    checks: list = field(default_factory=list)

    def passed(self):
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self):
        return {
            "cutoff": self.cutoff,
            "target": self.target,
            "perturbation_l1_tail": self.tail_norm,
            "correction_radius": self.radius,
            "checks": [dict(c) for c in self.checks],
        }


def _tail(weight, a, tol):
    try:
        return weight.l1(a, tol)
    except quadrature.DivergenceError:
        raise NotIntegrableError(
            "weighted perturbation is not integrable beyond %g"
            % np.min(a)) from None


def find_cutoff(weight, left, target=DEFAULT_TARGET, tol=1e-10):
    """Smallest cutoff a >= left with weight.l1(a) <= target (Tails).

    Resolved to three significant digits by bisection; the returned
    cutoff is always on the certified side (its tail is <= target).
    Returns (cutoff, tail).  Raises NotIntegrableError when the tail
    diverges or never drops to the target.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    left = float(left)
    t0 = _tail(weight, left, tol)
    if t0 <= target:
        return left, t0
    lo = left
    hi = max(left, 1e-3)
    for _ in range(70):
        hi = hi * 2.0
        t_hi = _tail(weight, hi, tol)
        if t_hi <= target:
            break
        lo = hi
    else:
        raise NotIntegrableError(
            "weighted tail stays above %.4g arbitrarily far out" % target)
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if (t := _tail(weight, mid, tol)) <= target:
            hi, t_hi = mid, t
        else:
            lo = mid
    return hi, t_hi


def gronwall_certificate(cutoff, tail_norm, envelope_report, target=DEFAULT_TARGET):
    """Assemble the certificate for a completed march.

    envelope_report is VolterraSolution.envelope_report(); the tail mass
    must sit strictly below log 2 or the certificate is refused outright,
    since the correction ball would then reach zero.
    """
    if tail_norm >= LOG2:
        raise CertificateError(
            "perturbation tail %.6g >= log 2; no usable cutoff certificate"
            % tail_norm)
    radius = math.expm1(tail_norm)
    checks = [
        {"name": "tail-below-target", "value": tail_norm,
         "threshold": target, "passed": tail_norm <= target * (1 + 1e-9)},
        {"name": "tail-below-log2", "value": tail_norm,
         "threshold": LOG2, "passed": True},
        {"name": "radius-below-one", "value": radius,
         "threshold": 1.0, "passed": radius < 1.0},
        {"name": "march-envelope", "value": envelope_report["z_env_max_ratio"],
         "threshold": 1.0 + 1e-6,
         "passed": envelope_report["z_env_max_ratio"] <= 1.0 + 1e-6},
        {"name": "march-correction-mass",
         "value": envelope_report["l1_q_end"],
         "threshold": envelope_report["l1_q_bound_end"],
         # the march caps |z| by exp(T); its own quadrature of |w z| may
         # exceed exp(T)-1 only by the slack of its trapezoid sums over
         # the half cells, second order in their width
         "passed": envelope_report["l1_q_excess"]
         <= 1e-6 + 0.05 * envelope_report["l1_q_bound_end"]},
    ]
    return Certificate(float(cutoff), float(target), float(tail_norm),
                       float(radius), checks)


def verify_certificate(cert, weight, tol=1e-10):
    """Independently recompute the tail mass and report the discrepancy.

    The fresh quadrature of weight, a function of x, is the first tail of
    a two-limit run, never a closed form.  Purely diagnostic: the returned
    dict states whether the stored tail agrees with it to a relative 1e-6
    and whether all recorded checks pass.  Nothing is raised on mismatch.
    """
    a = cert.cutoff
    recomputed = float(_tail(Tails(weight), [a, a + 1.0 + abs(a)], tol)[0])
    denom = max(abs(cert.tail_norm), abs(recomputed), 1e-300)
    rel = abs(recomputed - cert.tail_norm) / denom
    return {
        "stored_tail": cert.tail_norm,
        "recomputed_tail": recomputed,
        "relative_difference": rel,
        "tail_consistent": rel < 1e-6,
        "checks_passed": cert.passed(),
    }
