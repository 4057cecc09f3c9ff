"""Test-side reference evaluator for expression trees.

A recursive evaluator with a domain check at every node, kept apart from
lgasym.expr's evaluation tape so the tests can compare the two: where the
tape gives nan or inf, this evaluator raises EvalDomainError naming the
node that left the real domain.
"""

import math

import numpy as np

from lgasym.expr import EvalDomainError


def evaluate(e, x):
    """Evaluate the tree at x (float or ndarray).

    Returns a float for scalar input, an ndarray for array input.  Raises
    EvalDomainError naming the offending subexpression when evaluation
    leaves the real domain (division by zero, log/sqrt of a negative,
    negative base under a fractional power, overflow to non-finite).
    """
    arr = isinstance(x, np.ndarray)
    with np.errstate(all="ignore"):
        v = _eval(e, np.asarray(x, dtype=float) if arr else float(x))
        if arr:
            v = np.asarray(v, dtype=float)
            if not np.all(np.isfinite(v)):
                raise EvalDomainError("non-finite result", e)
            return v
        v = float(v)
        if not math.isfinite(v):
            raise EvalDomainError("non-finite result", e)
        return v


def _any(cond):
    return bool(np.any(cond))


def _is_integral(c):
    return float(c).is_integer()


def _eval(e, x):
    op = e.op
    if op == "const":
        if isinstance(x, np.ndarray):
            return np.full_like(x, e.value)
        return e.value
    if op == "var":
        return x
    if op in ("add", "sub", "mul", "div", "pow"):
        a = _eval(e.args[0], x)
        if op == "pow":
            c = e.args[1].value
            if _any(np.less(a, 0.0)) and not _is_integral(c):
                raise EvalDomainError("negative base under fractional power", e)
            if c < 0 and _any(np.equal(a, 0.0)):
                raise EvalDomainError("zero base under negative power", e)
            return np.power(a, c) if isinstance(a, np.ndarray) else a ** c
        b = _eval(e.args[1], x)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if _any(np.equal(b, 0.0)):
            raise EvalDomainError("division by zero", e)
        return a / b
    a = _eval(e.args[0], x)
    if op == "neg":
        return -a
    if op == "exp":
        return np.exp(a)
    if op == "log":
        if _any(np.less_equal(a, 0.0)):
            raise EvalDomainError("log of a non-positive value", e)
        return np.log(a)
    if op == "sqrt":
        if _any(np.less(a, 0.0)):
            raise EvalDomainError("sqrt of a negative value", e)
        return np.sqrt(a)
    if op == "sin":
        return np.sin(a)
    if op == "cos":
        return np.cos(a)
    if op == "abs":
        return np.abs(a)
    if op == "sign":
        return np.sign(a)
    raise ValueError("unknown operator %r" % op)
