"""Expression trees for the ODE coefficient functions.

Single-variable scalar expressions with closed-form differentiation.  The
coefficients f and g enter the analysis through |f|^(-1/4) and its second
derivative; computing that second derivative numerically would pollute the
L1 tail integrals downstream, so differentiation here is symbolic and
exact.  Evaluation accepts plain floats or numpy arrays.

Grammar (whitespace insignificant)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)?
    exponent := '-'? number ('^' exponent)?      # constants only, right-assoc
    atom     := number | 'x' | func '(' expr ')' | '(' expr ')'
    func     := 'exp' | 'log' | 'sqrt' | 'sin' | 'cos' | 'abs'

'^' binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.  Exponents
are restricted to constants; general powers must be spelled via exp/log.

Exact derivatives repeat subtrees many times (the oscillatory tail moment
a2 of ``-(a+b/x)`` has 2256 nodes and 137 distinct subtrees).
differentiate() differentiates each shared subtree once and shares the
result; compile_fn() value-numbers the tree into an evaluation tape with
one entry per distinct subtree and runs it without generating code.

The tape is the only evaluator, with one IEEE float64 rule: input outside
the real domain (log/sqrt of a negative, x/0, a negative base under a
fractional power, overflow) gives nan or inf and never raises.  Constant
subtrees fold through the same tape, and only to a finite value;
constant_value() raises EvalDomainError on a constant that is not finite.

Trees are immutable (frozen dataclass) and all functions here are pure, so
everything in this module is safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "abs")

_UNARY_OPS = FUNCTIONS + ("neg", "sign")
_BINARY_OPS = ("add", "sub", "mul", "div", "pow")


class ParseError(ValueError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """A constant subtree has no finite real value (log/sqrt of a negative,
    1/0, overflow, ...); raised by constant_value, naming the subtree."""

    def __init__(self, message, node):
        super().__init__("%s in subexpression '%s'" % (message, to_string(node)))
        self.node = node


@dataclass(frozen=True)
class ExprNode:
    """One node of an expression tree.

    op is "const", "var", a unary operator or a binary operator.  For
    "const" the payload sits in .value; children sit in .args.
    """

    op: str
    value: float = 0.0
    args: tuple = field(default_factory=tuple)

    def __str__(self):
        return to_string(self)


VAR = ExprNode("var")


def const(v):
    return ExprNode("const", float(v))


def unary(op, a):
    if op not in _UNARY_OPS:
        raise ValueError("unknown unary operator %r" % op)
    if op == "neg":
        if a.op == "const":
            return const(-a.value)
        if a.op == "neg":
            return a.args[0]
    node = ExprNode(op, 0.0, (a,))
    if a.op == "const":
        return _try_fold(node)
    return node


def binary(op, a, b):
    if op not in _BINARY_OPS:
        raise ValueError("unknown binary operator %r" % op)
    if op == "pow" and b.op != "const":
        raise ValueError("pow exponent must be a constant")
    node = ExprNode(op, 0.0, (a, b))
    if a.op == "const" and b.op == "const":
        return _try_fold(node)
    # identity folds that cannot change domain behaviour
    if op in ("add", "sub") and b.op == "const" and b.value == 0.0:
        return a
    if op == "add" and a.op == "const" and a.value == 0.0:
        return b
    if op == "mul" and a.op == "const" and a.value == 1.0:
        return b
    if op in ("mul", "div") and b.op == "const" and b.value == 1.0:
        return a
    if op == "pow" and b.op == "const" and b.value == 1.0:
        return a
    return node


def _try_fold(node):
    v = _compile(node)(0.0)
    return const(v) if math.isfinite(v) else node


def is_constant(e):
    """True when the tree contains no variable node."""
    if e.op == "var":
        return False
    return all(is_constant(a) for a in e.args)


def constant_value(e):
    """The value of a constant tree; EvalDomainError when it is not a
    finite number."""
    if not is_constant(e):
        raise ValueError("expression depends on x")
    v = _compile(e)(0.0)
    if not math.isfinite(v):
        raise EvalDomainError("non-finite value", e)
    return v


# --------------------------------------------------------------------------
# parsing

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        """The next token (kind, value, start, end), not consumed."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos, self.pos)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            return (ch, ch, self.pos, self.pos + 1)
        if ch.isdigit() or ch == ".":
            return self._number()
        if ch.isalpha():
            return self._ident()
        raise ParseError("unexpected character %r" % ch, self.pos)

    def _number(self):
        start = self.pos
        text = self.text
        i = start
        while i < len(text) and (text[i].isdigit() or text[i] == "."):
            i += 1
        if i < len(text) and text[i] in "eE":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            if j < len(text) and text[j].isdigit():
                while j < len(text) and text[j].isdigit():
                    j += 1
                i = j
        lit = text[start:i]
        try:
            val = float(lit)
        except ValueError:
            raise ParseError("bad numeric literal %r" % lit, start) from None
        if not math.isfinite(val):
            raise ParseError("numeric literal %r is out of range" % lit, start)
        return ("number", val, start, i)

    def _ident(self):
        start = self.pos
        text = self.text
        i = start
        while i < len(text) and text[i].isalnum():
            i += 1
        return ("ident", text[start:i], start, i)

    def advance(self):
        tok = self.peek()
        self.pos = tok[3]
        return tok


def parse(text):
    """Parse expression text into an ExprNode tree.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, a non-constant pow exponent or a numeric literal outside
    the float range, and EvalDomainError on an exponent chain without a
    finite value (x^0^-1).
    """
    tz = _Tokenizer(text)
    node = _parse_expr(tz)
    kind, _, off, _ = tz.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    return node


def _parse_expr(tz):
    node = _parse_term(tz)
    while True:
        kind = tz.peek()[0]
        if kind == "+":
            tz.advance()
            node = binary("add", node, _parse_term(tz))
        elif kind == "-":
            tz.advance()
            node = binary("sub", node, _parse_term(tz))
        else:
            return node


def _parse_term(tz):
    node = _parse_factor(tz)
    while True:
        kind = tz.peek()[0]
        if kind == "*":
            tz.advance()
            node = binary("mul", node, _parse_factor(tz))
        elif kind == "/":
            tz.advance()
            node = binary("div", node, _parse_factor(tz))
        else:
            return node


def _parse_factor(tz):
    kind = tz.peek()[0]
    if kind == "-":
        tz.advance()
        return unary("neg", _parse_factor(tz))
    return _parse_power(tz)


def _parse_power(tz):
    base = _parse_atom(tz)
    kind = tz.peek()[0]
    if kind == "^":
        tz.advance()
        expo = _parse_exponent(tz)
        return binary("pow", base, const(expo))
    return base


def _parse_exponent(tz):
    kind, val, off, _ = tz.peek()
    sign = 1.0
    if kind == "-":
        tz.advance()
        sign = -1.0
        kind, val, off, _ = tz.peek()
    if kind != "number":
        raise ParseError("pow exponent must be a numeric constant", off)
    tz.advance()
    kind = tz.peek()[0]
    if kind == "^":
        tz.advance()
        val = constant_value(
            ExprNode("pow", 0.0, (const(val), const(_parse_exponent(tz)))))
    return sign * val


def _parse_atom(tz):
    kind, val, off, _ = tz.peek()
    if kind == "number":
        tz.advance()
        return const(val)
    if kind == "ident":
        tz.advance()
        if val == "x":
            return VAR
        if val in FUNCTIONS:
            k2, _, off2, _ = tz.peek()
            if k2 != "(":
                raise ParseError("expected '(' after %r" % val, off2)
            tz.advance()
            arg = _parse_expr(tz)
            k3, _, off3, _ = tz.peek()
            if k3 != ")":
                raise ParseError("expected ')'", off3)
            tz.advance()
            return unary(val, arg)
        raise ParseError("unknown identifier %r" % val, off)
    if kind == "(":
        tz.advance()
        node = _parse_expr(tz)
        k2, _, off2, _ = tz.peek()
        if k2 != ")":
            raise ParseError("expected ')'", off2)
        tz.advance()
        return node
    raise ParseError("expected a number, 'x', function call or '('", off)


# --------------------------------------------------------------------------
# differentiation

def _add(a, b):
    if a.op == "const" and a.value == 0.0:
        return b
    if b.op == "const" and b.value == 0.0:
        return a
    if a.op == "const" and b.op == "const":
        return const(a.value + b.value)
    return binary("add", a, b)


def _sub(a, b):
    if b.op == "const" and b.value == 0.0:
        return a
    if a.op == "const" and a.value == 0.0:
        return unary("neg", b)
    if a.op == "const" and b.op == "const":
        return const(a.value - b.value)
    return binary("sub", a, b)


def _mul(a, b):
    for u, v in ((a, b), (b, a)):
        if u.op == "const":
            if u.value == 0.0:
                return const(0.0)
            if u.value == 1.0:
                return v
    if a.op == "const" and b.op == "const":
        return const(a.value * b.value)
    return binary("mul", a, b)


def _div(a, b):
    if a.op == "const" and a.value == 0.0:
        return const(0.0)
    if b.op == "const" and b.value == 1.0:
        return a
    return binary("div", a, b)


def differentiate(e):
    """Exact derivative of the tree with respect to x.

    Total on the grammar: every parseable expression has a derivative.
    abs is differentiated as sign(u)*u' with sign(0) = 0; pow requires its
    constant exponent (guaranteed by construction).  A subtree that occurs
    more than once (the same object) is differentiated once, and its
    derivative is shared by every occurrence in the result.
    """
    memo = {}

    def d(node):
        key = id(node)
        if key not in memo:
            memo[key] = _derivative(node, d)
        return memo[key]

    return d(e)


def _derivative(e, d):
    """The derivative of e, with d differentiating its operands."""
    op = e.op
    if op == "const":
        return const(0.0)
    if op == "var":
        return const(1.0)
    if op == "neg":
        return unary("neg", d(e.args[0]))
    if op == "add":
        return _add(d(e.args[0]), d(e.args[1]))
    if op == "sub":
        return _sub(d(e.args[0]), d(e.args[1]))
    if op == "mul":
        a, b = e.args
        return _add(_mul(d(a), b), _mul(a, d(b)))
    if op == "div":
        a, b = e.args
        num = _sub(_mul(d(a), b), _mul(a, d(b)))
        return _div(num, _mul(b, b))
    if op == "pow":
        base, expo = e.args
        c = expo.value
        if c == 0.0:
            return const(0.0)
        reduced = binary("pow", base, const(c - 1.0))
        return _mul(const(c), _mul(reduced, d(base)))
    u = e.args[0]
    du = d(u)
    if op == "exp":
        return _mul(unary("exp", u), du)
    if op == "log":
        return _div(du, u)
    if op == "sqrt":
        return _div(du, _mul(const(2.0), unary("sqrt", u)))
    if op == "sin":
        return _mul(unary("cos", u), du)
    if op == "cos":
        return unary("neg", _mul(unary("sin", u), du))
    if op == "abs":
        return _mul(unary("sign", u), du)
    if op == "sign":
        return const(0.0)
    raise ValueError("unknown operator %r" % op)


def substitute(e, replacement):
    """Replace every occurrence of the variable by another tree."""
    if e.op == "var":
        return replacement
    if e.op == "const":
        return e
    return ExprNode(e.op, e.value, tuple(substitute(a, replacement) for a in e.args))


# --------------------------------------------------------------------------
# printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _fmt_number(v):
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e):
    """Render with minimal parentheses; parse(to_string(e)) rebuilds e."""
    op = e.op
    if op == "const":
        if e.value < 0.0:
            return "-" + _fmt_number(-e.value)
        return _fmt_number(e.value)
    if op == "var":
        return "x"
    if op in ("add", "sub"):
        sym = " + " if op == "add" else " - "
        left = to_string(e.args[0])
        right = to_string(e.args[1])
        if _prec_of(e.args[1]) <= 1 and op == "sub":
            right = "(" + right + ")"
        return left + sym + right
    if op in ("mul", "div"):
        sym = "*" if op == "mul" else "/"
        left = to_string(e.args[0])
        right = to_string(e.args[1])
        if _prec_of(e.args[0]) < 2:
            left = "(" + left + ")"
        if _prec_of(e.args[1]) < 2 or (op == "div" and _prec_of(e.args[1]) == 2):
            right = "(" + right + ")"
        return left + sym + right
    if op == "neg":
        inner = to_string(e.args[0])
        if _prec_of(e.args[0]) < 3:
            inner = "(" + inner + ")"
        return "-" + inner
    if op == "pow":
        base = to_string(e.args[0])
        if _prec_of(e.args[0]) < 5:
            base = "(" + base + ")"
        c = e.args[1].value
        expo = _fmt_number(abs(c))
        return base + "^" + ("-" + expo if c < 0 else expo)
    # function application
    return "%s(%s)" % (op, to_string(e.args[0]))


def _prec_of(e):
    if e.op in ("const", "var") or e.op in _UNARY_OPS and e.op != "neg":
        if e.op == "const" and e.value < 0.0:
            return 3  # prints with a leading minus
        return 5
    return _PREC[e.op]


# --------------------------------------------------------------------------
# compilation to a value-numbered evaluation tape

_APPLY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "pow": operator.pow, "neg": operator.neg,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "abs": np.abs, "sign": np.sign,
}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**"}


def _tape(e):
    """(consts, entries, root): the tree numbered so that each distinct
    subtree has one slot.  Slot 0 is x, slots 1..len(consts) hold the
    constants (Python floats), then comes one slot per entry (op, operand
    slots) in the post-order of first occurrence.  A pow's exponent is a
    constant slot."""
    consts = []
    entries = []
    by_id = {}
    by_key = {}

    def constant(value):
        # float.hex keeps 0.0 and -0.0 apart
        key = ("const", value.hex())
        if key not in by_key:
            consts.append(value)
            by_key[key] = -1 - len(consts)
        return by_key[key]

    def number(node):
        # provisional slots: -1 is x, -1 - k the constant consts[k - 1],
        # n >= 0 the n-th entry
        slot = by_id.get(id(node))
        if slot is not None:
            return slot
        op = node.op
        if op == "var":
            slot = -1
        elif op == "const":
            slot = constant(node.value)
        else:
            if op == "pow":
                key = (op, number(node.args[0]), constant(node.args[1].value))
            elif len(node.args) == 1:
                key = (op, number(node.args[0]))
            else:
                key = (op, number(node.args[0]), number(node.args[1]))
            slot = by_key.get(key)
            if slot is None:
                entries.append(key)
                slot = by_key[key] = len(entries) - 1
        by_id[id(node)] = slot
        return slot

    root = number(e)
    n = len(consts) + 1

    def final(slot):
        return n + slot if slot >= 0 else -1 - slot

    return (consts, [(op, *map(final, args)) for op, *args in entries],
            final(root))


def listing(fn):
    """The tape of a compile_fn callable, one line per entry, then the
    returned slot."""
    consts, entries, root = fn.tape
    names = ["x", *map(repr, consts),
             *("t%d" % k for k in range(len(entries)))]
    lines = []
    for k, (op, *args) in enumerate(entries):
        a = [names[s] for s in args]
        if op in _SYMBOL:
            rhs = "%s %s %s" % (a[0], _SYMBOL[op], a[1])
        elif op == "neg":
            rhs = "-" + a[0]
        else:
            rhs = "np.%s(%s)" % (op, a[0])
        lines.append("t%d = %s" % (k, rhs))
    lines.append("return " + names[root])
    return "\n".join(lines) + "\n"


def compile_fn(e):
    """Compile a tree to a numpy-vectorized callable.

    The tree is value-numbered into a tape (_tape) with one entry per
    distinct subtree, so a subexpression that the tree repeats, as exact
    derivatives do, is evaluated once per call.  No code is generated:
    the callable runs the entries in order, each the operator or numpy
    function the node names on the values of its operands, so every value
    is the IEEE operation a nested evaluation of the tree would apply.
    .tape holds the tape; listing(fn) prints it, one line per entry.

    The tape runs in float64, so input outside the real domain gives nan
    or inf and never raises.  Scalar input returns a float, array input an
    array of its shape; callers on hot paths validate finiteness of the
    results themselves.
    """
    consts, entries, root = _tape(e)
    # Scalar x runs as np.float64, so an entry with an x operand follows
    # numpy's float64 rule.  When every entry has one, the constants stay
    # Python floats, which numpy applies to an array on its fast paths
    # (x ** 0.5 runs np.sqrt; 2.0 * x skips the dispatch of a numpy scalar
    # on the left).  A tree with an entry that has no x operand (a constant
    # tree, or a constant subtree that did not fold to a finite value)
    # holds them as np.float64, so that entry follows the rule too.
    on_x = [True] + [False] * len(consts)     # slot s depends on x
    for op, *args in entries:
        on_x.append(on_x[args[0]] or on_x[args[-1]])
    wide = not all(on_x[len(consts) + 1:])
    values = [np.float64(c) for c in consts] if wide else consts
    # (function, operand slot, second operand slot or None)
    steps = [(_APPLY[op], *args, None)[:3] for op, *args in entries]

    def wrapped(x):
        arr = isinstance(x, np.ndarray)
        v = [x if arr else np.float64(x), *values]
        push = v.append
        with np.errstate(all="ignore"):
            for apply, i, j in steps:
                push(apply(v[i]) if j is None else apply(v[i], v[j]))
        v = v[root]
        if arr:
            return np.broadcast_to(np.asarray(v, dtype=float), x.shape).copy() \
                if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        return float(v)

    wrapped.tape = consts, entries, root
    return wrapped


# Folding and constant_value compile under this private name, so a wrapper
# put on compile_fn sees only the compiles of its callers.
_compile = compile_fn
