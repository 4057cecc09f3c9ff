"""Expression parsing, evaluation, differentiation.

Values are checked against the reference evaluator in reference_eval,
which raises where the library's float64 tape gives nan or inf."""

import hashlib
import math
import random

import numpy as np
import pytest

from lgasym import expr
from lgasym.expr import (EvalDomainError, ParseError, compile_fn,
                         differentiate, parse, substitute, to_string)
from reference_eval import evaluate


CASES = [
    ("1 + 2*3", 0.5, 7.0),
    ("x", 3.25, 3.25),
    ("2*x + 1", 2.0, 5.0),
    ("x^2", -3.0, 9.0),
    ("-x^2", 2.0, -4.0),              # unary minus binds looser than ^
    ("(-x)^2", 2.0, 4.0),
    ("2^3^2", 1.0, 512.0),            # exponents associate to the right
    ("x^-2", 2.0, 0.25),
    ("exp(-x)/sqrt(x)", 2.0, math.exp(-2.0) / math.sqrt(2.0)),
    ("1 - 1/(4*x^2)", 2.0, 1.0 - 1.0 / 16.0),
    ("sin(x)*cos(x)", 0.7, math.sin(0.7) * math.cos(0.7)),
    ("log(x^2)", 3.0, math.log(9.0)),
    ("abs(-x)", 1.5, 1.5),
    ("3/(4*x^2)", 1.0, 0.75),
    ("-x^-2", 2.0, -0.25),
    ("2.5e-1*x", 4.0, 1.0),
    ("1.5E+2*x", 2.0, 300.0),
    ("3e2*x", 0.5, 150.0),
]


@pytest.mark.parametrize("text,x,want", CASES)
def test_parse_evaluate(text, x, want):
    node = parse(text)
    assert evaluate(node, x) == pytest.approx(want, rel=1e-14)


def test_evaluate_array():
    node = parse("x^2 + 1")
    xs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(evaluate(node, xs), [2.0, 5.0, 10.0])


@pytest.mark.parametrize("bad", [
    "", "x +", "((x)", "1/(x", "2 **“ x", "foo(x)", "x^y", "x^(1+x)",
    "3..5", "x x",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.offset >= 0


def test_parse_error_offset_points_at_problem():
    with pytest.raises(ParseError) as err:
        parse("1 + foo(x)")
    assert err.value.offset == 4


# (text, error class, message, offset), or (text, None, printed tree,
# None): what parse gives on the scanner's edge cases
EDGES = [
    ("5*3+3(sinabs.", ParseError, "trailing input", 5),
    ("3..5", ParseError, "bad numeric literal '3..5'", 0),
    ("x_1", ParseError, "unexpected character '_'", 1),
    ("1e+5x", ParseError, "trailing input", 4),
    ("x^(2)", ParseError, "pow exponent must be a numeric constant", 2),
    ("x^--1", ParseError, "pow exponent must be a numeric constant", 3),
    ("sin x", ParseError, "expected '(' after 'sin'", 4),
    ("x^1.2.3", ParseError, "bad numeric literal '1.2.3'", 2),
    (".", ParseError, "bad numeric literal '.'", 0),
    ("1e400", ParseError, "numeric literal '1e400' is out of range", 0),
    ("x^1e999", ParseError, "numeric literal '1e999' is out of range", 2),
    ("é", ParseError, "unknown identifier 'é'", 0),
    ("2 **\u201c x", ParseError,
     "expected a number, 'x', function call or '('", 3),
    ("", ParseError, "expected a number, 'x', function call or '('", 0),
    ("(x", ParseError, "expected ')'", 2),
    ("x $ 1", ParseError, "unexpected character '$'", 2),
    (" \u00bd", ParseError, "unexpected character '\u00bd'", 1),
    ("x^0^-1", EvalDomainError, "non-finite value in subexpression '0^-1'",
     None),
    ("\u0663*x", None, "3*x", None),       # an Arabic-Indic decimal digit
    ("x \t\n", None, "x", None),
]


@pytest.mark.parametrize("text, error, message, offset", EDGES)
def test_parse_edge_cases(text, error, message, offset):
    if error is None:
        assert to_string(parse(text)) == message
        return
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    if offset is None:
        assert str(err.value) == message
    else:
        assert str(err.value) == "%s (at offset %d)" % (message, offset)
        assert err.value.offset == offset


# The seeded corpus: grammar-shaped text with up to two random edits by
# the pieces below (the grammar's characters and names, a letter and a
# decimal digit outside ASCII, '_', and '' for a deletion).
_PIECES = (list("x0123456789.eE+-*/^() \t") + list(expr.FUNCTIONS)
           + ["1e5", "1e400", "\u00e9", "\u0663", "_", ""])


def _grammar_text(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(["x", "x", "2", "0.5", "1e-3", "1.5E+2", "0",
                           "\u0663"])
    if r < 0.55:
        return (_grammar_text(rng, depth - 1)
                + rng.choice(["+", " - ", "*", "/", " + ", "-"])
                + _grammar_text(rng, depth - 1))
    if r < 0.65:
        return "-" + _grammar_text(rng, depth - 1)
    if r < 0.8:
        return "(%s)^%s" % (_grammar_text(rng, depth - 1), rng.choice(
            ["2", "-1", "0.5", "2^3", "-2^-1", "0^-1", "3"]))
    return "%s(%s)" % (rng.choice(expr.FUNCTIONS),
                       _grammar_text(rng, depth - 1))


def _corpus_outcomes(n, seed=22):
    """One line per seeded text: the printed tree and its printed
    derivative, or the error's class, message and offset."""
    rng = random.Random(seed)
    for _ in range(n):
        text = _grammar_text(rng, rng.randint(0, 4))
        for _ in range(rng.choice([0, 1, 1, 2])):
            i = rng.randrange(len(text) + 1)
            text = (text[:i] + rng.choice(_PIECES)
                    + text[i + rng.randint(0, 1):])
        try:
            tree = parse(text)
        except (ParseError, EvalDomainError) as err:
            yield "%s|%s|%s" % (type(err).__name__, err,
                                getattr(err, "offset", None))
        else:
            yield "%s|%s" % (to_string(tree), to_string(differentiate(tree)))


# The SHA-256 of the 20,000 outcomes as the recursive-descent parser that
# scanned character by character gave them; the scan by one regular
# expression and the parse by one precedence table must not move a byte.
CORPUS_SHA256 = ("335b7ffece161481da3515d5695aab664e"
                 "2170bb486df219294d160367a384d0")


def test_seeded_corpus_parses_as_before():
    digest = hashlib.sha256()
    for line in _corpus_outcomes(20000):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CORPUS_SHA256


@pytest.mark.parametrize("text,x", [
    ("log(x)", -1.0),
    ("sqrt(x)", -4.0),
    ("1/x", 0.0),
    ("x^0.5", -2.0),
    ("log(x - 5)", 2.0),
])
def test_domain_errors(text, x):
    with pytest.raises(EvalDomainError):
        evaluate(parse(text), x)
    # the library: the tape gives a non-finite value for the x form, and
    # constant_value refuses the constant form
    assert not math.isfinite(compile_fn(parse(text))(x))
    with pytest.raises(EvalDomainError):
        expr.constant_value(substitute(parse(text), expr.const(x)))


def test_tape_gives_ieee_values_for_scalars():
    assert compile_fn(parse("1/x"))(0.0) == math.inf
    assert math.isnan(compile_fn(parse("x^0.5"))(-8.0))
    assert type(compile_fn(parse("x + 1"))(1)) is float


@pytest.mark.parametrize("text", ["1/0", "0^-1", "10^400", "(-8)^0.5",
                                  "log(-1)", "exp(1000)"])
def test_constants_fold_only_to_finite_values(text):
    node = parse(text)
    assert node.op != "const"
    with pytest.raises(EvalDomainError, match="subexpression"):
        expr.constant_value(node)


@pytest.mark.parametrize("text, error", [
    ("1e400", ParseError), ("x^1e999", ParseError),
    ("x^0^-1", EvalDomainError), ("x^10^400", EvalDomainError),
])
def test_out_of_range_numbers_are_refused_at_parse(text, error):
    with pytest.raises(error):
        parse(text)


# text nested n deep, in the parser (parentheses, unary minus, an
# exponent chain) or in the folded tree (a sum, a chain of divisions)
_DEEP = {
    "parentheses": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
    "minus": lambda n: "-" * (n - 1) + "x",
    "exponents": lambda n: "x" + "^1" * (n - 1),
    "sum": lambda n: "+".join(["x"] * n),
    "quotients": lambda n: "/".join("(x+%d)" % k for k in range(1, n)),
}


@pytest.mark.parametrize("nested", _DEEP.values(), ids=list(_DEEP))
def test_nesting_past_the_depth_limit_is_a_parse_error(nested):
    parse(nested(expr.MAX_DEPTH))
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse(nested(expr.MAX_DEPTH + 1))


def test_deepest_tree_differentiates_compiles_and_prints():
    # a chain of divisions grows fastest under differentiation: at the
    # depth limit its second derivative, that derivative's tape and its
    # text stay within Python's default recursion limit
    tree = parse(_DEEP["quotients"](expr.MAX_DEPTH))
    assert expr._depth(tree) == expr.MAX_DEPTH
    d2 = differentiate(differentiate(tree))
    assert compile_fn(d2)(2.0) == pytest.approx(evaluate(d2, 2.0), rel=1e-12)
    assert to_string(d2).startswith("(")


def test_a_long_constant_sum_folds_within_the_depth_limit():
    assert to_string(parse("(" + "+".join(["1"] * 3000) + ")/x^3")) \
        == "3000/x^3"


def test_pow_exponent_must_be_a_constant_node():
    with pytest.raises(ValueError, match="constant"):
        expr.binary("pow", expr.VAR, parse("2^0.5 + log(-1)"))


def test_domain_error_on_array_any_bad_point():
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x)"), np.array([4.0, -1.0]))
    got = compile_fn(parse("sqrt(x)"))(np.array([4.0, -1.0]))
    assert got[0] == 2.0 and np.isnan(got[1])


# ---------------------------------------------------------------------------
# differentiation

def _central_second(fn, x, h=1e-4):
    return (fn(x - h) - 2.0 * fn(x) + fn(x + h)) / (h * h)


def _central_first(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


DERIV_CASES = [
    ("x^3", 2.0, 12.0),
    ("exp(2*x)", 0.5, 2.0 * math.exp(1.0)),
    ("log(x)", 4.0, 0.25),
    ("sqrt(x)", 9.0, 1.0 / 6.0),
    ("sin(x)", 0.0, 1.0),
    ("1/x", 2.0, -0.25),
    ("x^-0.25", 1.0, -0.25),
    ("abs(x)", -3.0, -1.0),
]


@pytest.mark.parametrize("text,x,want", DERIV_CASES)
def test_differentiate_known(text, x, want):
    d = differentiate(parse(text))
    assert evaluate(d, x) == pytest.approx(want, rel=1e-12)


def test_second_derivative_quarter_power():
    # (x^{-1/4})'' = 5/16 x^{-9/4}; this exact curvature feeds the
    # perturbation term, so check it hard
    node = parse("x^-0.25")
    dd = differentiate(differentiate(node))
    for x in (0.5, 1.0, 3.0, 10.0):
        want = (5.0 / 16.0) * x ** (-9.0 / 4.0)
        assert evaluate(dd, x) == pytest.approx(want, rel=1e-13)


def test_differentiate_matches_central_differences():
    texts = ["exp(-x)*sin(x)", "x^2*log(x)", "sqrt(x^2 + 1)",
             "cos(x)/x", "exp(-x^2)"]
    for text in texts:
        node = parse(text)
        d = differentiate(node)
        for x in (0.7, 1.3, 2.9):
            approx = _central_first(lambda t, n=node: evaluate(n, t), x)
            assert evaluate(d, x) == pytest.approx(approx, rel=1e-7, abs=1e-9)


def test_substitute_composes():
    node = parse("x^2 + x")
    inner = parse("1/x")
    sub = substitute(node, inner)
    for x in (0.5, 2.0, 7.0):
        assert evaluate(sub, x) == pytest.approx(1.0 / x ** 2 + 1.0 / x)


def test_substitute_then_differentiate_chain_rule():
    comp = substitute(parse("exp(x)"), parse("x^2"))
    d = differentiate(comp)
    x = 0.8
    assert evaluate(d, x) == pytest.approx(2.0 * x * math.exp(x * x),
                                           rel=1e-12)


# ---------------------------------------------------------------------------
# printing / round trips

def test_to_string_round_trip_simple():
    for text in ["-x^2 + 1", "exp(-x)/sqrt(x)", "3/(4*x^2)",
                 "x*(x + 1)", "1 - 1/(4*x^2)", "x^-3"]:
        printed = to_string(parse(text))
        again = parse(printed)
        for x in (0.3, 1.7, 5.0):
            assert evaluate(again, x) == pytest.approx(
                evaluate(parse(text), x), rel=1e-14)


def _random_tree(rng, depth):
    """A random expression tree with positive-domain-friendly leaves."""
    if depth <= 0 or rng.random() < 0.28:
        if rng.random() < 0.55:
            return expr.VAR
        return expr.const(rng.choice([1.0, 2.0, 0.5, 3.0, 0.25]))
    r = rng.random()
    if r < 0.45:
        op = rng.choice(["add", "sub", "mul", "div"])
        return expr.binary(op, _random_tree(rng, depth - 1),
                           _random_tree(rng, depth - 1))
    if r < 0.6:
        return expr.binary("pow", _random_tree(rng, depth - 1),
                           expr.const(rng.choice([2.0, 3.0, -1.0, -2.0, 0.5])))
    op = rng.choice(["exp", "sin", "cos", "neg", "sqrt", "abs"])
    return expr.unary(op, _random_tree(rng, depth - 1))


def test_round_trip_random_trees():
    rng = random.Random(1234)
    checked = 0
    for _ in range(50):
        tree = _random_tree(rng, 4)
        printed = to_string(tree)
        reparsed = parse(printed)
        for x in np.linspace(0.1, 4.0, 20):
            try:
                want = evaluate(tree, float(x))
            except (EvalDomainError, OverflowError):
                continue
            if not math.isfinite(want) or abs(want) > 1e12:
                continue
            got = evaluate(reparsed, float(x))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked > 300   # the guard must not have eaten the whole sample


def test_compile_matches_evaluate():
    rng = random.Random(99)
    for _ in range(40):
        tree = _random_tree(rng, 4)
        fn = compile_fn(tree)
        xs = np.linspace(0.2, 3.0, 17)
        with np.errstate(all="ignore"):
            got = np.asarray(fn(xs), dtype=float)
        for i, x in enumerate(xs):
            try:
                want = evaluate(tree, float(x))
            except (EvalDomainError, OverflowError):
                continue   # compiled form yields nan/inf instead of raising
            if not math.isfinite(want):
                continue
            assert np.isclose(got[i], want, rtol=1e-12, atol=1e-12)


def test_compile_fn_exposes_source():
    fn = compile_fn(parse("x^2 + 1"))
    assert "x" in expr.listing(fn)


def test_constant_folding_in_constructors():
    node = expr.binary("mul", parse("exp(-x)"), expr.const(1.0))
    assert node.op == "exp" or to_string(node) == "exp(-x)"
    folded = expr.binary("pow", expr.const(4.0), expr.const(0.5))
    assert folded.op == "const" and folded.value == 2.0


def _consts(node):
    if node.op == "const":
        yield node.value
    for a in node.args:
        yield from _consts(a)


def test_derivatives_fold_constants_by_the_tape_rule():
    # 1e200 * 1e200 overflows: the tape keeps the product unfolded, as a
    # parsed tree does, and the derivative still evaluates to inf
    d = differentiate(parse("1e200*(1e200*x)"))
    assert all(math.isfinite(c) for c in _consts(d))
    assert compile_fn(d)(1.0) == math.inf
    # the folds a derivative makes beyond binary(): a zero factor or
    # numerator drops its partner, and 0 - b is -b
    assert to_string(differentiate(parse("log(-1)*2"))) == "0"
    assert to_string(differentiate(parse("3 - sin(x)"))) == "-cos(x)"
    assert to_string(differentiate(parse("x^0 - x^0"))) == "0"
    assert math.copysign(1.0, differentiate(parse("x^0 - x^0")).value) == 1.0


def test_is_constant_and_value():
    assert expr.is_constant(parse("2^3 + 1"))
    assert expr.constant_value(parse("2^3 + 1")) == 9.0
    assert not expr.is_constant(parse("x + 1"))


# ---------------------------------------------------------------------------
# the evaluation tape against nested evaluation

_NESTED = {
    "add": "({}+{})", "sub": "({}-{})", "mul": "({}*{})", "div": "({}/{})",
    "neg": "(-{})", "exp": "np.exp({})", "log": "np.log({})",
    "sqrt": "np.sqrt({})", "sin": "np.sin({})", "cos": "np.cos({})",
    "abs": "np.abs({})", "sign": "np.sign({})",
}


def _nested_fn(e):
    """The tree as one nested Python expression in float64, every repeat
    evaluated again: the reference the tape must match bit for bit.  A
    pow's exponent is a Python float, as on the tape."""
    def gen(n):
        if n.op == "const":
            return "np.float64(%r)" % n.value
        if n.op == "var":
            return "x"
        if n.op == "pow":
            return "(%s**(%r))" % (gen(n.args[0]), n.args[1].value)
        return _NESTED[n.op].format(*map(gen, n.args))
    ns = {"np": np}
    exec("def f(x):\n    with np.errstate(all='ignore'):\n        return "
         + gen(e), ns)
    return ns["f"]


def _outcome(fn, x):
    """fn(x) as a float64 array, or the class of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.atleast_1d(np.asarray(fn(x), dtype=float))
    except (ArithmeticError, TypeError) as exc:
        return type(exc)


def _same_bits(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_tape_matches_nested_evaluation_bit_for_bit():
    rng = random.Random(2024)
    xs = np.array([-3.0, -1.0, -0.0, 0.0, 0.2, 0.5, 1.0, 1.7, 3.0, 40.0,
                   800.0])
    # 0.0 and -0.0 are distinct constants: 1/(x*-0) + 1/(x*0) is nan
    signed_zeros = expr.binary("add", *(
        expr.binary("div", expr.const(1.0),
                    expr.binary("mul", expr.VAR, expr.const(z)))
        for z in (-0.0, 0.0)))
    trees = [_random_tree(rng, 5) for _ in range(40)] + [signed_zeros]
    nonfinite = 0
    for tree in trees:
        fn, ref = compile_fn(tree), _nested_fn(tree)
        want = np.broadcast_to(_outcome(ref, xs), xs.shape)
        assert _same_bits(_outcome(fn, xs), want), to_string(tree)
        nonfinite += int(np.sum(~np.isfinite(want)))
        for x in xs:
            for scalar in (float(x), np.float64(x)):
                assert _same_bits(
                    _outcome(fn, scalar),
                    _outcome(lambda t: float(ref(np.float64(t))), scalar)), \
                    (to_string(tree), scalar)
    assert nonfinite > 20   # nan and inf results are part of the check


def _node_count(e):
    return 1 + sum(_node_count(a) for a in e.args)


def test_tape_has_one_entry_per_distinct_subtree():
    # a2 as the oscillatory regime builds it, on osc-at-inf
    from lgasym import transform
    split = transform.CoefficientSplit.from_expressions("-(1.297+1.025/x)",
                                                        "0")
    psi = transform.compute_psi(split, -1)
    a1 = differentiate(expr.binary("mul", psi.psi_ast, psi.inv_sqrt_f_ast))
    a2 = differentiate(expr.binary("mul", a1, psi.inv_sqrt_f_ast))
    assert _node_count(a2) == 2256
    entries = [line for line in expr.listing(compile_fn(a2)).splitlines()
               if line.startswith("t")]
    assert len(entries) <= 137


def test_differentiate_shares_the_derivative_of_a_shared_subtree():
    t = parse("sin(x)*exp(x)")
    d = differentiate(expr.binary("mul", t, t))
    # (t t)' = t' t + t t'
    assert d.op == "add"
    assert d.args[0].args[0] is d.args[1].args[1]


# ----------------------------------------------------------- monomials

@pytest.mark.parametrize("text, c, p", [
    ("1.049*x", 1.049, 1.0),
    ("0.848*x^2", 0.848, 2.0),
    ("-1.053*x", -1.053, 1.0),
    ("2/x^3", 2.0, -3.0),
    ("x^0.5", 1.0, 0.5),
    # the zero-endpoint f 1/x^2 pulled back through s = 1/x
    ("x^-4*1/(1/x)^2", 1.0, -2.0),
    ("-(3*x)^2/x", -9.0, 1.0),
])
def test_monomial_reads_c_and_p(text, c, p):
    e = parse(text)
    assert expr.monomial(e) == (c, p)
    # c is the tape's value at x = 1, bit for bit
    assert expr.monomial(e)[0] == compile_fn(e)(1.0)
    # and f / x^p is c at every point
    xs = np.random.default_rng(7).uniform(0.05, 40.0, 50)
    assert np.max(np.abs(compile_fn(e)(xs) / xs ** p / c - 1.0)) < 1e-15


def test_monomial_reads_the_inverted_zero_endpoint_split():
    from lgasym import transform

    split = transform.CoefficientSplit.from_expressions("1/x^2", "0")
    assert expr.monomial(transform.invert_split(split).f_ast) == (1.0, -2.0)


@pytest.mark.parametrize("text", [
    "-(1.297+1.025/x)", "x*exp(x)", "sin(x)", "(-2*x)^0.5",
    # c zero or not finite
    "0", "0*x", "0/x^2", "x^2/0", "1e300*x*1e300", "(0*x)^-1",
])
def test_monomial_rejects(text):
    assert expr.monomial(parse(text)) is None


# ----------------------------------------------------------- power sums

@pytest.mark.parametrize("text, terms", [
    ("3", {0.0: 3.0}),
    ("x", {1.0: 1.0}),
    ("-x", {1.0: -1.0}),
    ("x + 2", {1.0: 1.0, 0.0: 2.0}),
    ("x - x^2", {1.0: 1.0, 2.0: -1.0}),
    ("2*x*(x + 1)", {2.0: 2.0, 1.0: 2.0}),
    ("(x + 1)/x^2", {-1.0: 1.0, -2.0: 1.0}),
    ("(4*x)^-0.5", {-0.5: 0.5}),
    ("x^2*x^-2 - 1", {}),       # cancels exactly
    ("0*sin(x)^0", None),       # sin stops the reading, whatever multiplies it
])
def test_power_terms_read_every_operator(text, terms):
    e = parse(text)
    assert expr.power_terms(e) == terms
    if terms:
        xs = np.random.default_rng(3).uniform(0.05, 40.0, 50)
        total = sum(c * xs ** p for p, c in terms.items())
        assert np.max(np.abs(compile_fn(e)(xs) / total - 1.0)) < 1e-14


@pytest.mark.parametrize("text", [
    "sqrt(x + 1)", "exp(x)", "(-2*x)^0.5", "1/(x + 1)", "(x + 1)^2", "x/0",
    "x*exp(x) - x*exp(x)",
])
def test_power_terms_stop_at_what_is_not_a_power(text):
    assert expr.power_terms(parse(text)) is None


def test_inverted_zero_endpoint_psi_cancels_exactly():
    # psi = 1.889 s^-3 - s^-1/4 + s^-1/4: the curvature term cancels the
    # s^-1 part of g |f|^(-1/2) to exactly 0
    from lgasym import transform

    split = transform.CoefficientSplit.from_expressions("1/x^2",
                                                        "1.889 - 1/(4*x^2)")
    psi = transform.compute_psi(transform.invert_split(split), 1)
    assert expr.power_terms(psi.psi_ast) == {-3.0: 1.889}
    assert expr.monomial(psi.psi_ast) == (1.889, -3.0)


def _monomial_by_products(e):
    """The reading of c x^p from a tree of const, x, neg, mul, div and pow
    alone, by products of np.float64 coefficients: the reader monomial
    replaced, which every tree without add or sub must still match."""
    def read(node):     # a pow's exponent k reads as (k, 0)
        op = node.op
        if op in ("const", "var"):
            return (np.float64(node.value), 0.0) if op == "const" \
                else (np.float64(1.0), 1.0)
        parts = [read(a) for a in node.args]
        if op not in ("neg", "mul", "div", "pow") or None in parts:
            return None
        if op == "neg":
            return -parts[0][0], parts[0][1]
        (ca, pa), (cb, pb) = parts
        return (expr._APPLY[op](ca, cb),
                {"mul": pa + pb, "div": pa - pb, "pow": pa * cb}[op])

    with np.errstate(all="ignore"):
        c, p = read(e) or (0.0, 0.0)
    return (float(c), float(p)) if math.isfinite(c) and c != 0.0 \
        and math.isfinite(p) else None


def test_monomial_matches_the_product_reading_on_the_bench_trees(
        monkeypatch):
    # f and g of every template, direct and pulled back through s = 1/x,
    # seeds 1 to 5: where products alone read c x^p, monomial reads the
    # same c and p bit for bit, and it is the one-term power_terms
    import pathlib

    from lgasym import transform

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent
                                    .parent / "perfbench"))
    import cases

    read = 0
    for seed in range(1, 6):
        for templates, name in ((cases.CERTIFY + (cases.FREE,), "certify"),
                                (cases.REFUSE[:-1], "refuse")):
            for case in cases.draw_pool(templates, seed, name, 1):
                split = transform.CoefficientSplit.from_expressions(case.f,
                                                                    case.g)
                inverted = transform.invert_split(split)
                for tree in (split.f_ast, split.g_ast, inverted.f_ast,
                             inverted.g_ast):
                    old, new = _monomial_by_products(tree), expr.monomial(tree)
                    terms = expr.power_terms(tree)
                    assert new == (None if terms is None or len(terms) != 1
                                   else (float(*terms.values()),
                                         float(*terms)))
                    if old is not None:
                        assert new == old
                        read += 1
    assert read > 100
