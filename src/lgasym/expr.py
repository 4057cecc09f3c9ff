"""Expression trees for the ODE coefficient functions.

Single-variable scalar expressions with closed-form differentiation.  The
coefficients f and g enter the analysis through |f|^(-1/4) and its second
derivative; computing that second derivative numerically would pollute the
L1 tail integrals downstream, so differentiation here is symbolic and
exact.  Evaluation accepts plain floats or numpy arrays.

Grammar (whitespace insignificant)::

    expr     := term (('+'|'-') term)*             # precedence 1
    term     := factor (('*'|'/') factor)*         # precedence 2
    factor   := '-' factor | atom ('^' exponent)?
    exponent := '-'? number ('^' exponent)?      # constants only, right-assoc
    atom     := number | 'x' | func '(' expr ')' | '(' expr ')'
    func     := 'exp' | 'log' | 'sqrt' | 'sin' | 'cos' | 'abs'

'^' binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.  Exponents
are restricted to constants; general powers must be spelled via exp/log.
Text nested deeper than MAX_DEPTH (40), in the parser or in the folded
tree, is a ParseError, since every walk over a tree here recurses.

parse() scans the text once, by one regular expression, into a list of
tokens: operators and parentheses, numbers (decimal digits and '.', then
an optional e[+-]digits), names (runs of letters and digits) and
characters that start no token.  A token that cannot be read is kept as
an error and raised when the parser reaches it, so the first error in
parse order is the one reported.  The four infix operators sit in one
table of symbol and precedence (_INFIX): the parser reads expr and term
as one precedence loop over it, and to_string() prints them by one rule,
with the left operand in parentheses below the operator's precedence and
the right one also at equal precedence for '-' and '/'.

Exact derivatives repeat subtrees many times (the oscillatory tail moment
a2 of ``-(a+b/x)`` has 2256 nodes and 137 distinct subtrees).
differentiate() differentiates each shared subtree once and shares the
result; compile_fn() value-numbers the tree into an evaluation tape with
one entry per distinct subtree and runs it without generating code.

power_terms() reads a tree of sums, products, quotients and constant
powers of x as the sum of its powers {p: c}, cancelling only exactly;
monomial() is its one-term case, which the closed-form phase map and the
closed-form tails read.

The tape is the only evaluator, with one IEEE float64 rule: input outside
the real domain (log/sqrt of a negative, x/0, a negative base under a
fractional power, overflow) gives nan or inf and never raises.  Every
constant fold, in parsing and in derivatives alike, applies the tape's
operator to float64 values and keeps only a finite result;
constant_value() raises EvalDomainError on a constant that is not finite.

Trees are immutable (frozen dataclass) and all functions here are pure, so
everything in this module is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "abs")

_UNARY_OPS = FUNCTIONS + ("neg", "sign")
_BINARY_OPS = ("add", "sub", "mul", "div", "pow")


# The deepest nesting parse() accepts, of the parser (parentheses, unary
# minus, '^' chains) and of the folded tree, so that the recursions over
# trees run within Python's default limit of 1000 frames.  A chain of
# divisions grows fastest under differentiation: at depth 40 its second
# derivative, that derivative's tape and its text take at most 461 frames,
# and analyze() of an oscillatory f of depth 40, which differentiates f
# four times for the tail moments, takes 746.
MAX_DEPTH = 40


class ParseError(ValueError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """An expression has no finite real value where it must have one (log or
    sqrt of a negative, 1/0, overflow, ...): raised by constant_value on a
    constant subtree, and by classification when the leading coefficient
    is not finite at a probe point.  The message names the tree, when
    given."""

    def __init__(self, message, node=None):
        if node is not None:
            message = "%s in subexpression '%s'" % (message, to_string(node))
        super().__init__(message)
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
    if a.op == "const":
        return _try_fold(op, a)
    return ExprNode(op, 0.0, (a,))


def binary(op, a, b):
    if op not in _BINARY_OPS:
        raise ValueError("unknown binary operator %r" % op)
    if op == "pow" and b.op != "const":
        raise ValueError("pow exponent must be a constant")
    # identity folds that cannot change domain behaviour; 1*b, a*1, a/1 and
    # a^1 are exact, so they may precede the constant fold, but a zero
    # term may not: -0 + 0 folds to +0
    if op == "mul" and a.op == "const" and a.value == 1.0:
        return b
    if op in ("mul", "div", "pow") and b.op == "const" and b.value == 1.0:
        return a
    if a.op == "const" and b.op == "const":
        return _try_fold(op, a, b)
    if op in ("add", "sub") and b.op == "const" and b.value == 0.0:
        return a
    if op == "add" and a.op == "const" and a.value == 0.0:
        return b
    return ExprNode(op, 0.0, (a, b))


def _try_fold(op, *args):
    """The node op(*args) of constant args, folded to a constant by the
    tape's operator when its value is finite."""
    v = [a.value for a in args]
    # +, - and * of Python floats are the float64 operations themselves and
    # never raise, so they skip numpy's dispatch and error state
    if op in ("add", "sub", "mul"):
        v = _APPLY[op](*v)
    else:
        with np.errstate(all="ignore"):
            v = float(_APPLY[op](*map(np.float64, v)))
    return const(v) if math.isfinite(v) else ExprNode(op, 0.0, args)


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


def power_terms(e):
    """{p: c}, the tree as the sum of the powers c x^p, when it is made of
    const, x, neg, add, sub, mul, div and pow alone, else None.

    Every coefficient folds through the tape's operators in float64, and a
    term drops only when its coefficient sums to exactly 0, so {} reads the
    tree 0.  The reading stops at the first node it cannot fold: any other
    operator (exp, sqrt, ...), a division by a sum or by 0, a power of a
    sum, or a coefficient or exponent that is not finite (a negative base
    under a fractional power).  On x > 0 the sum is the tree's value; a
    shared subtree is read once."""
    memo = {}

    def read(node):
        key = id(node)
        if key not in memo:
            memo[key] = _terms(node, read)
        return memo[key]

    with np.errstate(all="ignore"):
        return read(e)


def _terms(node, read):
    """power_terms of one node, with read reading its operands."""
    op = node.op
    if op in ("const", "var"):
        c, p = (node.value, 0.0) if op == "const" else (1.0, 1.0)
        return {p: np.float64(c)} if c != 0.0 else {}
    if op not in ("neg", "add", "sub", "mul", "div", "pow"):
        return None
    a = read(node.args[0])
    if a is None:
        return None
    if op == "neg":
        return {p: -c for p, c in a.items()}
    if op == "pow":
        k = node.args[1].value
        if len(a) != 1:
            return {} if not a and k > 0.0 else None
        pairs = [(p * k, c ** np.float64(k)) for p, c in a.items()]
    else:
        b = read(node.args[1])
        if b is None or op == "div" and len(b) != 1:
            return None
        if op in ("add", "sub"):
            pairs = [*a.items(), *((p, -c if op == "sub" else c)
                                   for p, c in b.items())]
        else:
            pairs = [(pa + pb if op == "mul" else pa - pb, _APPLY[op](ca, cb))
                     for pa, ca in a.items() for pb, cb in b.items()]
    terms = {}
    for p, c in pairs:
        terms[p] = terms[p] + c if p in terms else c
    if not all(math.isfinite(p) and math.isfinite(c)
               for p, c in terms.items()):
        return None
    return {p: c for p, c in terms.items() if c != 0.0}


def monomial(e):
    """(c, p) when the tree reads as the one power c x^p (power_terms), with
    c finite and nonzero, else None.  On a tree without add or sub, c is
    the tape's value at x = 1, bit for bit."""
    terms = power_terms(e)
    if terms is None or len(terms) != 1:
        return None
    ((p, c),) = terms.items()
    return float(c), float(p)


# --------------------------------------------------------------------------
# parsing

# The infix operators: printed symbol and precedence.  Unary minus (3),
# '^' (4) and atoms (5) bind tighter.
_INFIX = {"add": (" + ", 1), "sub": (" - ", 1), "mul": ("*", 2),
          "div": ("/", 2)}
_BY_SYMBOL = {sym.strip(): (op, prec) for op, (sym, prec) in _INFIX.items()}

# One match per token, after any whitespace: an operator or parenthesis, a
# number, a name (a run of letters and digits), any other character (an
# error), or the end of the text.
_TOKEN = re.compile(r"\s*(?:(?P<op>[-+*/^()])"
                    r"|(?P<number>[\d.]+(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W_]+)|(?P<bad>\S)|(?P<end>\Z))")


def _scan(text):
    """The tokens of text, (kind, value, offset), from one pass of _TOKEN,
    up to ("end", "", len(text)) or to the first token that cannot be
    read, ("bad", message, offset), which the parser raises on reaching."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lit = value = m[kind]
        if kind == "op":
            kind = lit
        elif kind == "number":
            try:
                value = float(lit)
            except ValueError:
                kind, value = "bad", "bad numeric literal %r" % lit
            if kind == "number" and not math.isfinite(value):
                kind, value = "bad", "numeric literal %r is out of range" % lit
        # a name starts with a letter: [^\W_] also admits numerals that
        # are not decimal digits, such as '\u00bd'
        elif kind == "bad" or kind == "name" and not lit[0].isalpha():
            kind, value = "bad", "unexpected character %r" % lit[0]
        tokens.append((kind, value, m.start(m.lastgroup)))
        if kind in ("end", "bad"):
            return tokens


class _Tokens:
    """The scanned tokens of one text and the parser's place in them."""

    def __init__(self, text):
        self.tokens = _scan(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        """The next token, not consumed; a bad one raises its ParseError."""
        tok = self.tokens[self.i]
        if tok[0] == "bad":
            raise ParseError(tok[1], tok[2])
        return tok

    def accept(self, kind):
        """Consume the next token if it is of the kind; whether it was."""
        if self.peek()[0] != kind:
            return False
        self.i += 1
        return True

    def expect(self, kind, message):
        """Consume and return the next token, which must be of the kind;
        ParseError with the message at its offset otherwise."""
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(message, tok[2])
        self.i += 1
        return tok


def parse(text):
    """Parse expression text into an ExprNode tree.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, a non-constant pow exponent, a numeric literal outside
    the float range, and nesting deeper than MAX_DEPTH in the text or in
    the folded tree; EvalDomainError on an exponent chain without a
    finite value (x^0^-1).
    """
    tokens = _Tokens(text)
    node = _parse_infix(tokens)
    tokens.expect("end", "trailing input")
    if _depth(node) > MAX_DEPTH:
        raise ParseError("expression nested too deeply", 0)
    return node


def _depth(e):
    """The number of nodes on the longest path from e to a leaf, counted
    level by level, without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [arg for node in level for arg in node.args]
    return depth


def _nested(rule):
    """The parser rule rule, counting the parser's nesting through it: one
    level deeper than MAX_DEPTH raises ParseError at the token reached."""
    @functools.wraps(rule)
    def nested(tokens):
        tokens.depth += 1
        if tokens.depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply",
                             tokens.tokens[tokens.i][2])
        node = rule(tokens)
        tokens.depth -= 1
        return node
    return nested


def _parse_infix(tokens, level=1):
    """Factors joined, left to right, by the infix operators of precedence
    level and above: expr at level 1, term at level 2."""
    node = _parse_factor(tokens)
    while True:
        op, prec = _BY_SYMBOL.get(tokens.peek()[0], (None, 0))
        if prec < level:
            return node
        tokens.i += 1
        node = binary(op, node, _parse_infix(tokens, prec + 1))


@_nested
def _parse_factor(tokens):
    if tokens.accept("-"):
        return unary("neg", _parse_factor(tokens))
    base = _parse_atom(tokens)
    if tokens.accept("^"):
        return binary("pow", base, const(_parse_exponent(tokens)))
    return base


@_nested
def _parse_exponent(tokens):
    sign = -1.0 if tokens.accept("-") else 1.0
    val = tokens.expect("number", "pow exponent must be a numeric constant")[1]
    if tokens.accept("^"):
        val = constant_value(
            ExprNode("pow", 0.0, (const(val), const(_parse_exponent(tokens)))))
    return sign * val


def _parse_atom(tokens):
    kind, val, off = tokens.peek()
    tokens.i += 1
    if kind == "number":
        return const(val)
    if kind == "name" and val == "x":
        return VAR
    if kind == "name" and val not in FUNCTIONS:
        raise ParseError("unknown identifier %r" % val, off)
    if kind == "name":
        tokens.expect("(", "expected '(' after %r" % val)
    elif kind != "(":
        raise ParseError("expected a number, 'x', function call or '('", off)
    node = _parse_infix(tokens)
    tokens.expect(")", "expected ')'")
    return node if kind == "(" else unary(val, node)


# --------------------------------------------------------------------------
# differentiation

# The folds binary() must not make on a user's tree, since they drop an
# operand that may have no finite value; a derivative drops it anyway.
# _sub leaves 0 - 0 to binary(): negating the second zero would give -0.

def _zero(e):
    return e.op == "const" and e.value == 0.0


def _sub(a, b):
    if _zero(a) and not _zero(b):
        return unary("neg", b)
    return binary("sub", a, b)


def _mul(a, b):
    return const(0.0) if _zero(a) or _zero(b) else binary("mul", a, b)


def _div(a, b):
    return const(0.0) if _zero(a) else binary("div", a, b)


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
        return binary("add", d(e.args[0]), d(e.args[1]))
    if op == "sub":
        return _sub(d(e.args[0]), d(e.args[1]))
    if op == "mul":
        a, b = e.args
        return binary("add", _mul(d(a), b), _mul(a, d(b)))
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
    if op in _INFIX:
        # a - (b - c) and a/(b*c): the right operand of - and / keeps its
        # parentheses at equal precedence too
        sym, prec = _INFIX[op]
        return (_operand(e.args[0], prec) + sym
                + _operand(e.args[1], prec + (op in ("sub", "div"))))
    if op == "neg":
        return "-" + _operand(e.args[0], 3)
    if op == "pow":
        c = e.args[1].value
        expo = _fmt_number(abs(c))
        return _operand(e.args[0], 5) + "^" + ("-" + expo if c < 0 else expo)
    # function application
    return "%s(%s)" % (op, to_string(e.args[0]))


def _operand(e, prec):
    """to_string(e), in parentheses when it binds less tightly than prec."""
    text = to_string(e)
    return "(" + text + ")" if _prec_of(e) < prec else text


def _prec_of(e):
    """How tightly the printed e binds: its infix precedence, 3 for a
    leading minus, 4 for a power, 5 for an atom or a call."""
    if e.op in _INFIX:
        return _INFIX[e.op][1]
    if e.op == "neg" or e.op == "const" and e.value < 0.0:
        return 3
    return 4 if e.op == "pow" else 5


# --------------------------------------------------------------------------
# compilation to a value-numbered evaluation tape

_APPLY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "pow": operator.pow, "neg": operator.neg,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "abs": np.abs, "sign": np.sign,
}
_SYMBOL = {**{op: sym.strip() for op, (sym, _) in _INFIX.items()}, "pow": "**"}


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


# constant_value compiles under this private name, so a wrapper put on
# compile_fn sees only the compiles of its callers.
_compile = compile_fn
