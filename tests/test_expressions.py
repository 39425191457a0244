import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphosim import expressions as ex
from morphosim.errors import ParseError


def ev(text, **env):
    return ex.evaluate(ex.parse(text), env)


class TestParseEvaluate:
    def test_numbers_and_precedence(self):
        assert ev("1 + 2 * 3 ^ 2") == 19.0
        assert ev("2 ^ 3 ^ 2") == 512.0  # right associative
        assert ev("(1 + 2) * 3") == 9.0
        assert ev("-2 ^ 2") == -4.0
        assert ev("6 / 3 / 2") == 1.0

    def test_scientific_notation(self):
        assert ev("1e-3 + 2.5E2") == pytest.approx(250.001)

    def test_variables_and_pi(self):
        assert ev("x + 2*y", x=1.0, y=2.0) == 5.0
        assert ev("sin(pi)") == pytest.approx(0.0, abs=1e-15)
        assert ev("cos(0) + exp(0)") == 2.0

    def test_vectorized(self):
        x = np.linspace(0, 1, 5)
        assert np.allclose(ev("x^2 + 1", x=x), x ** 2 + 1)

    def test_double_star_power(self):
        assert ev("3 ** 2") == 9.0

    def test_time_inflation(self):
        assert ev("x / (1 - t)", x=1.0, t=0.5) == 2.0

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            ex.parse("foo + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            ex.parse("1 + 2 )")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            ex.parse("sin(x")

    def test_missing_variable_at_evaluation(self):
        with pytest.raises(ParseError):
            ev("x + 1")

    def test_constant_arithmetic_follows_ieee(self):
        with np.errstate(all="ignore"):
            assert ev("1/0") == np.inf
            assert ev("-1/0") == -np.inf
            assert ev("10^400") == np.inf
            assert np.isnan(ev("(0-1)^0.5"))

    def test_evaluators_do_not_warn(self):
        f = ex.scalar_evaluator(ex.parse("1/0*x"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f(0.0, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert values[0] == np.inf and np.isnan(values[1])


class TestVectors:
    def test_split_components(self):
        assert ex.split_components("x, y") == ["x", "y"]
        assert ex.split_components("sin(x), (y + 1) / 2") \
            == ["sin(x)", "(y + 1) / 2"]

    def test_wrong_component_count(self):
        with pytest.raises(ParseError):
            ex.parse_vector("x", 2)

    def test_vector_evaluator(self):
        call = ex.vector_evaluator(ex.parse_vector("x / (1 - t), 2 * y", 2))
        pts = np.array([[1.0, 0.5], [0.5, 0.25]])
        out = call(0.5, pts)
        assert np.allclose(out, [[2.0, 1.0], [1.0, 0.5]])

    def test_normals_in_traction(self):
        call = ex.vector_evaluator(ex.parse_vector("0.01 * nx, 0.01 * ny", 2))
        pts = np.zeros((3, 2))
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(call(0.0, pts, normals), 0.01 * normals)

    def test_constant_expressions_broadcast(self):
        call = ex.vector_evaluator(ex.parse_vector("0, 1", 2))
        out = call(0.0, np.zeros((4, 2)))
        assert out.shape == (4, 2)
        assert np.allclose(out[:, 1], 1.0)


class TestDerivative:
    CASES = [
        "x^2 + y^2",
        "sin(pi*x) * sin(pi*y)",
        "exp(x - y) / (1 + x^2)",
        "cos(x) * x - y",
        "(x + y)^3",
    ]

    @pytest.mark.parametrize("text", CASES)
    @pytest.mark.parametrize("var", ["x", "y"])
    def test_against_finite_differences(self, text, var):
        node = ex.parse(text)
        dnode = ex.derivative(node, var)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 0.9, size=(50, 2))
        env = {"x": pts[:, 0], "y": pts[:, 1]}
        h = 1e-6
        env_p = dict(env)
        env_m = dict(env)
        env_p[var] = env[var] + h
        env_m[var] = env[var] - h
        fd = (ex.evaluate(node, env_p) - ex.evaluate(node, env_m)) / (2 * h)
        assert np.max(np.abs(ex.evaluate(dnode, env) - fd)) <= 1e-7

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            ex.derivative(ex.parse("x ^ y"), "x")

    def test_gradient_evaluator(self):
        grad = ex.gradient_evaluator(ex.parse_vector("x*y, x + 2*y", 2))
        pts = np.array([[2.0, 3.0]])
        out = grad(0.0, pts)
        assert np.allclose(out[0], [[3.0, 2.0], [1.0, 2.0]])


# where Python's grammar and the language's differ; each is a ParseError
REJECTED = ["x#y", "1_0", "0x1", "1j", "sin(x,)", "sin(x, y)", "sin(x=1)",
            "x if y else t", "x.real", "[x]", "x % 2", "x // 2", "True",
            "None", "__import__('os')", "(sin)(x)", "sin(^x)", "1E1e5",
            "x, y", "(x, y)", "sin()", "pi(x)", "not x", "x is y"]


class TestLanguage:
    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            ex.parse(text)

    def test_literals_are_floats(self):
        assert ex.parse("007") == ("num", 7.0)
        assert ex.parse("1.") == ("num", 1.0)
        assert ex.parse(".5e-3") == ("num", 0.0005)
        assert ex.parse("1e999") == ("num", np.inf)

    def test_configparser_whitespace(self):
        assert ex.parse("x\n  +\ty") == ("+", ("var", "x"), ("var", "y"))

    def test_normals_only_where_given(self):
        assert ex.parse("x + nx") == ("+", ("var", "x"), ("var", "nx"))
        with pytest.raises(ParseError, match="'nx'"):
            ex.parse("x + 0*nx", ex.POINT)
        with pytest.raises(ParseError):
            ex.parse_vector("x, ny", 2, ex.POINT)

    def test_depth_bound(self):
        deepest = "sin(" * (ex.MAX_DEPTH - 1) + "x" + ")" * (ex.MAX_DEPTH - 1)
        assert ex.parse(deepest)[0] == "call"
        with pytest.raises(ParseError, match="nested"):
            ex.parse("x" + " + x" * ex.MAX_DEPTH)
        with pytest.raises(ParseError):  # Python's own parenthesis bound
            ex.parse("(" * 300 + "x" + ")" * 300)

    def test_deepest_gradient_evaluates(self):
        # a quotient chain is the deepest derivative per level
        k = ex.MAX_DEPTH - 1
        chain = "x/(" * (k - 1) + "x/x" + ")" * (k - 1)
        grad = ex.gradient_evaluator(ex.parse_vector(chain + ", y", 2))
        out = grad(0.0, np.array([[0.5, 0.5]]))
        assert np.all(np.isfinite(out))


# -- round trip: print random trees back to text and parse them again ------

SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])
# precedence of a printed node: sum 1, product 2, unary 3, power 4, atom 5
BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _literal(value, form, zeros):
    if form == "repr":
        text = repr(value)
    elif form == "exponent":
        text = "%.17e" % value
    else:
        text = "%.17g" % value
    return "0" * zeros + text if text[0].isdigit() else text


LEAVES = st.one_of(
    st.sampled_from(ex.BOUNDARY).map(lambda v: (("var", v), v, 5)),
    st.just((("num", np.pi), "pi", 5)),
    st.builds(lambda v, form, zeros: (("num", v), _literal(v, form, zeros), 5),
              st.floats(0.0, 1e300).map(abs),
              st.sampled_from(["repr", "exponent", "general"]),
              st.integers(0, 2)),
    st.integers(0, 10 ** 6).map(
        lambda n: (("num", float(n)), "00%d" % n, 5)))


def _wrap(child, need, pad):
    tree, text, prec = child
    return text if prec >= need else "(" + pad + text + pad + ")"


def _binary(op, left, right, pad, star):
    prec = BINARY_PREC[op]
    # left operands associate to the left, powers to the right
    need_left, need_right = (5, 3) if op == "^" else (prec, prec + 1)
    sign = "**" if op == "^" and star else op
    text = (_wrap(left, need_left, pad) + pad + sign + pad
            + _wrap(right, need_right, pad))
    return (op, left[0], right[0]), text, prec


def _extend(children):
    return st.one_of(
        st.builds(_binary, st.sampled_from(sorted(BINARY_PREC)), children,
                  children, SPACE, st.booleans()),
        st.builds(lambda c, pad: (("neg", c[0]), "-" + pad + _wrap(c, 3, pad),
                                  3), children, SPACE),
        # unary plus leaves no node; it binds like unary minus
        st.builds(lambda c, pad: (c[0], "+" + pad + c[1], min(c[2], 3)),
                  children, SPACE),
        st.builds(lambda f, c, pad: (("call", f, c[0]),
                                     f + pad + "(" + pad + c[1] + pad + ")",
                                     5),
                  st.sampled_from(["sin", "cos", "exp"]), children, SPACE),
        # redundant parentheses
        st.builds(lambda c, pad: (c[0], "(" + pad + c[1] + pad + ")", 5),
                  children, SPACE))


@settings(max_examples=300, deadline=None)
@given(st.recursive(LEAVES, _extend, max_leaves=20), SPACE, SPACE)
def test_printed_tree_parses_back(node, before, after):
    tree, text, _ = node
    assert ex.parse(before + text + after) == tree
