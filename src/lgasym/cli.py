"""Command-line front end.

Subcommands:
  analyze   classify a problem, run the certified march, print a summary
            (or, with --json, a byte-deterministic JSON document)
  table     tabulate the certified branch against its approximant
  validate  run a named self-check suite, one PASS/FAIL line per check

Exit codes: 0 on success, 2 on a usage error (argparse's) or when a
structural hypothesis fails (the input is outside the method's scope), 1
for everything else (bad tolerances, parse errors, numerical failures).
Logging goes to stderr and is controlled by the LG_LOG environment
variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import random
import sys

from . import certificate as certificate_mod
from . import expr, oracle, pipeline, quadrature, transform, volterra

log = logging.getLogger("lgasym")


# --------------------------------------------------------------------------
# deterministic JSON

def json_dumps(obj):
    """The standard library's JSON in a fixed byte layout: key order kept,
    floats as repr, non-finite numbers as null, other objects as str."""
    return json.dumps(_finite(obj), indent=2, ensure_ascii=False,
                      default=str) + "\n"


def _finite(obj):
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


# --------------------------------------------------------------------------
# argument plumbing

def _parse_interval(text):
    lo_s, sep, hi_s = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("interval must look like LO:HI")
    try:
        lo = float(lo_s)
        hi = math.inf if hi_s.strip() in ("inf", "") else float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError("bad interval %r" % text) from None
    if not lo < hi:
        raise argparse.ArgumentTypeError("interval must satisfy LO < HI")
    return lo, hi


def _add_problem_args(p):
    p.add_argument("--f", required=True, help="leading coefficient expression")
    p.add_argument("--g", default="0", help="perturbation expression")
    p.add_argument("--endpoint", choices=("infinity", "zero"),
                   default="infinity")
    p.add_argument("--interval", type=_parse_interval, default=None,
                   metavar="LO:HI")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="quadrature tolerance")
    p.add_argument("--tail-tol", type=float, default=1e-6,
                   help="certified bound required of the un-marched tail")
    p.add_argument("--xmax", type=float, default=None,
                   help="resolve at least this far (this small, for zero)")
    p.add_argument("--step", type=float, default=None,
                   help="set the level-0 marching step (the graded "
                        "grid doubles it where the perturbation is small)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lgasym",
        description="Certified leading-order asymptotics for u'' = (f+g) u")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify, march, certify")
    _add_problem_args(pa)
    pa.add_argument("--json", action="store_true",
                    help="emit a deterministic JSON document")
    pa.set_defaults(func=_cmd_analyze)

    pt = sub.add_parser("table", help="tabulate solution vs approximant")
    _add_problem_args(pt)
    pt.add_argument("--points", type=int, default=9)
    pt.add_argument("--csv", action="store_true")
    pt.set_defaults(func=_cmd_table)

    pv = sub.add_parser("validate", help="run a self-check suite")
    pv.add_argument("--suite", default="all",
                    choices=("bessel_half", "gronwall", "convergence", "all"))
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=_cmd_validate)
    return ap


def _run_analysis(args):
    return pipeline.analyze(
        args.f, args.g, endpoint=args.endpoint, interval=args.interval,
        tol=args.tol, tail_tol=args.tail_tol, x_max=args.xmax,
        step=args.step)


def _cmd_analyze(args):
    report = _run_analysis(args)
    if args.json:
        sys.stdout.write(json_dumps(report.to_json_dict()))
        return 0
    cert = report.certificate
    print("regime: %s" % report.regime.value)
    log.info("hypothesis checks: %d passed", len(report.checks))
    for c in report.checks:
        print("  check %-34s %s" % (c["name"],
                                    "ok" if c["passed"] else "FAILED"))
    if report.psi_text is not None:
        log.debug("perturbation: %s", report.psi_text)
    print("cutoff: %.6g  (weighted tail %.6g, radius %.6g)"
          % (cert.cutoff, cert.tail_norm, cert.radius))
    print("certificate: %s" % ("PASS" if cert.passed() else "FAIL"))
    for c in cert.checks:
        print("  %-28s value=%-12.6g threshold=%-12.6g %s"
              % (c["name"], c["value"], c["threshold"],
                 "ok" if c["passed"] else "FAILED"))
    for key, val in sorted(report.constants.items()):
        print("constant %s = %s" % (key, _fmt_const(val)))
    for s in report.solutions:
        print("solution %-18s ~ %s" % (s.label, s.asymptotic))
    for key, val in report.march.items():
        print("march %s = %s" % (key, val))
    print("work: %(quadrature_evaluations)d quadrature evaluations, "
          "%(march_steps)d march steps, %(map_nodes)d map nodes" % report.work)
    return 0 if cert.passed() else 1


def _fmt_const(val):
    if isinstance(val, complex):
        return "%.12g %+.12gi" % (val.real, val.imag)
    if isinstance(val, tuple):
        return "(" + ", ".join(_fmt_const(v) for v in val) + ")"
    if isinstance(val, float):
        return "%.12g" % val
    return str(val)


_TABLE_COLS = ("x", "value", "approximant", "ratio", "envelope_bound")


def _cmd_table(args):
    report = _run_analysis(args)
    rows = report.sample_rows(args.points)
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_TABLE_COLS)
        for row in rows:
            writer.writerow([format(row[c], ".12g") for c in _TABLE_COLS])
        return 0
    print("%-14s %-16s %-16s %-14s %-14s" % _TABLE_COLS)
    for row in rows:
        print("%-14.6g %-16.8g %-16.8g %-14.8g %-14.6g"
              % tuple(row[c] for c in _TABLE_COLS))
    return 0


# --------------------------------------------------------------------------
# validation suites

def _suite_bessel_half(rng):
    checks = []
    rep = pipeline.analyze("1", "0", x_max=16.0)
    rec = rep.solution("recessive")
    dom = rep.solution("dominant")

    def ratio_k(r):
        w = math.sqrt(r) * oracle.closed_form_half("K", r)
        return w / float(rec.value(r))

    c2, c6 = ratio_k(2.0), ratio_k(6.0)
    drift = abs(c2 / c6 - 1.0)
    checks.append(("half-order decaying branch is proportional to its "
                   "closed form", drift < 1e-9,
                   "ratio drift %.3g" % drift))
    const = abs(c6 - math.sqrt(math.pi / 2.0))
    checks.append(("half-order decaying constant sqrt(pi/2)",
                   const < 1e-9, "deviation %.3g" % const))
    r = 14.0
    ci = math.sqrt(r) * oracle.closed_form_half("I", r) / float(dom.value(r))
    dev = abs(ci - 1.0 / math.sqrt(2.0 * math.pi))
    checks.append(("half-order growing constant 1/sqrt(2 pi)",
                   dev < 1e-9, "deviation %.3g" % dev))

    rep2 = pipeline.analyze("2", "0", x_max=12.0)
    rec2 = rep2.solution("recessive")

    def ratio_res(r):
        return r * oracle.resolvent_value(3, 2.0, r) / float(rec2.value(r))

    q2, q4 = ratio_res(2.0), ratio_res(4.0)
    drift = abs(q2 / q4 - 1.0)
    checks.append(("resolvent kernel tracks the decaying branch",
                   drift < 1e-6, "ratio drift %.3g" % drift))
    dev = abs(q4 - math.sqrt(2.0) / (4.0 * math.pi))
    checks.append(("resolvent normalization sqrt(2)/(4 pi)",
                   dev < 1e-6, "deviation %.3g" % dev))
    return checks


def _suite_gronwall(rng):
    checks = []
    # each case with the Wronskian its solution pair is normalized to
    cases = [
        ("1", "3/(4*x^2)", (1.0, math.inf), -2.0),
        ("-1", "-1/(4*x^2)", (1.0, math.inf), 1.0),
        ("0", "exp(-2*x)", (0.0, math.inf), -1.0),
    ]
    for f_text, g_text, interval, wronskian in cases:
        rep = pipeline.analyze(f_text, g_text, interval=interval)
        name = "f=%s g=%s" % (f_text, g_text)
        cert = rep.certificate
        checks.append(("certificate holds for " + name, cert.passed(),
                       "radius %.4g" % cert.radius))
        ver = rep.verification
        checks.append(("tail re-quadrature agrees for " + name,
                       ver["tail_consistent"],
                       "relative difference %.3g"
                       % ver["relative_difference"]))
        resid = rep.constants["tail_residual_bound"]
        checks.append(("tail residual certified for " + name,
                       resid <= rep.tail_tolerance,
                       "bound %.3g" % resid))
        # the returned pair at random points of the resolved range, kept
        # within 40 of the cutoff so the growing branch stays finite; the
        # exponential and algebraic pairs are exact by construction, the
        # oscillatory one carries the march error (4.9e-8 here)
        u, v = rep.solutions
        lo = rep.march["cutoff"]
        hi = min(rep.march["x_max"], lo + 40.0)
        worst = 0.0
        for _ in range(4):
            x = rng.uniform(lo, hi)
            w = u.value(x) * v.derivative(x) - u.derivative(x) * v.value(x)
            worst = max(worst, abs(w / wronskian - 1.0))
        checks.append(("Wronskian %g for %s" % (wronskian, name),
                       worst < 2e-6, "worst relative deviation %.3g" % worst))
        # spot-check the envelope at random samples of the march
        raw = rep.march_run
        worst = 0.0
        for _ in range(16):
            k = rng.randrange(len(raw.z))
            worst = max(worst, abs(raw.z[k]) / math.exp(raw.envelope_log[k]))
        checks.append(("sampled envelope ratio <= 1 for " + name,
                       worst <= 1.0 + 1e-9, "worst %.6f" % worst))
    return checks


def _suite_convergence(rng):
    checks = []
    # marching order: halving h must cut the error close to sixteenfold,
    # for the real and the oscillatory kernel march (w = e^-t from 0) and
    # the algebraic march (g = s^-4 from 1), on uniform and graded grids;
    # every march samples its cells' nodes and midpoints
    import numpy as np
    marches = (
        ("kernel march, zeta = 1", 0.0,
         lambda s, h: volterra.solve_kernel(np.exp(-s), h, 1.0)),
        ("kernel march, zeta = 1j", 0.0,
         lambda s, h: volterra.solve_kernel(np.exp(-s), h, 1j)),
        ("algebraic march", 1.0,
         lambda s, h: volterra.solve_algebraic(s ** -4.0, s[0], h)),
    )

    def end(march, a, steps):
        half = np.repeat(0.5 * steps, 2)
        s = a + np.concatenate(([0.0], np.cumsum(half)))
        return complex(march(s, steps).z[-1])

    def order(errs):
        r12, r23 = errs[0] / errs[1], errs[1] / errs[2]
        return (14.0 <= r12 <= 18.0 and 14.0 <= r23 <= 18.0,
                "ratios %.2f, %.2f" % (r12, r23))

    for label, a, march in marches:
        ref = end(march, a, np.full(2400, 0.0025))
        errs = [abs(end(march, a, np.full(int(round(6.0 / h)), h)) - ref)
                for h in (0.08, 0.04, 0.02)]
        checks.append(("%s: error drops sixteenfold per halving" % label,
                       *order(errs)))
    # the same order on a dyadic graded grid of levels 0-3 (cells of 0.08,
    # 0.16, 0.32 and 0.64, each starting at a multiple of its width, over a
    # span of 6.4; the reference is a uniform march at 0.0025): bisecting
    # every cell must cut the error sixteenfold too
    units = np.repeat([1, 2, 4, 8], [8, 4, 2, 7])
    for label, a, march in marches:
        ref = end(march, a, np.full(2560, 0.0025))
        errs = [abs(end(march, a, np.repeat(0.08 * units / 2 ** k, 2 ** k))
                    - ref) for k in range(3)]
        checks.append(("%s: error drops sixteenfold per bisection of a "
                       "graded grid" % label, *order(errs)))
    # integrator order: a tenfold tolerance drop must buy >= ~8x accuracy
    exact = math.cosh(5.0)
    errs = []
    for tol in (1e-6, 1e-7):
        traj = oracle.integrate_ivp(lambda x: 1.0, 0.0, 1.0, 0.0, 5.0,
                                    tol=tol)
        errs.append(abs(traj.us[-1] - exact))
    ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
    checks.append(("integrator error scales with tolerance",
                   ratio >= 4.0, "ratio %.2f" % ratio))
    # quadrature: an exact-integral fixture at tight tolerance
    res = quadrature.integrate_finite(lambda x: 1.0 / x, 1.0, 2.0, tol=1e-12)
    dev = abs(res.value - math.log(2.0))
    checks.append(("quadrature hits log 2", dev < 1e-12, "error %.3g" % dev))
    return checks


_SUITES = {
    "bessel_half": _suite_bessel_half,
    "gronwall": _suite_gronwall,
    "convergence": _suite_convergence,
}


def _cmd_validate(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    failures = 0
    for name in names:
        for label, passed, detail in _SUITES[name](rng):
            status = "PASS" if passed else "FAIL"
            print("%s [%s] %s (%s)" % (status, name, label, detail))
            if not passed:
                failures += 1
    print("%d check(s) failed" % failures if failures else "all checks passed")
    return 1 if failures else 0


# --------------------------------------------------------------------------

def _setup_logging():
    level = os.environ.get("LG_LOG", "error").lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=chosen,
                        format="%(levelname)s %(name)s: %(message)s")


# argparse reads a separate value that starts with '-' as an option unless
# it is a plain negative number, so an expression is joined to its option
# before parsing: --f -x becomes --f=-x.  A value starting with '--' is
# left to argparse.
def _join_expressions(argv):
    out = []
    for arg in argv:
        if out and out[-1] in ("--f", "--g") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(
        _join_expressions(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except transform.HypothesisFailed as e:
        print("hypothesis failure: %s" % e, file=sys.stderr)
        for c in getattr(e, "checks", []):
            print("  check %-34s %s" % (c["name"],
                                        "ok" if c["passed"] else "FAILED"),
                  file=sys.stderr)
        return 2
    except (expr.ParseError, expr.EvalDomainError, ValueError,
            quadrature.QuadratureError, volterra.VolterraError,
            certificate_mod.CertificateError, pipeline.AnalysisError,
            oracle.OracleError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
