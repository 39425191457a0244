"""Tiny analytic-expression language for scenario boundary data.

Supported: variables ``t``, ``x``, ``y`` (plus ``nx``, ``ny`` for the
outward normal in boundary-flux expressions), numbers, the constant ``pi``,
operators ``+ - * / ^`` (or ``**``) with unary ``+`` and ``-``,
parentheses, and the one-argument functions ``sin``, ``cos``, ``exp``.
Python's parser reads the text, with ``^`` as ``**`` and every literal a
float; parse keeps only trees in the language, as nested tuples, so no
text is ever evaluated.  Expressions evaluate vectorized over numpy
arrays in float64 arithmetic, constants too (``1/0`` is inf, not an
error), and can be differentiated with respect to the spatial variables
(needed for analytic gradient initial data), provided every exponent is
a constant.
"""

import ast
import operator
import re
import warnings

import numpy as np

from .errors import ParseError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi}
POINT = ("t", "x", "y")
BOUNDARY = POINT + ("nx", "ny")
# the deepest tree parse accepts: the derivative of such a tree, about
# three times as deep, still evaluates within Python's recursion limit
MAX_DEPTH = 200

_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Pow: "^"}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": operator.pow}
# any character outside the language; Python would read `#` as a comment,
# `_` as a digit separator and `,` as a tuple or a second argument
_FOREIGN = re.compile(r"[^\sA-Za-z\d.+\-*/^()]")
# a name, or a decimal literal (group 1): `007`, `1.` and `.5` are floats
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9]*|(\d+\.\d*(?:[eE][+-]?\d+)?"
                   r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)")


def _float_literal(match):
    if match.group(1) is None:
        return match.group()
    value = float(match.group(1))
    # spaced apart, so `1E1e5` stays two tokens and not one Python float
    return " %s " % ("1e999" if value == np.inf else repr(value))


def parse(text, variables=BOUNDARY):
    """Parse one expression over `variables` into nested tuples."""
    foreign = _FOREIGN.search(text)
    if foreign:
        raise ParseError("unexpected %r in %r" % (foreign.group(), text))
    source = " ".join(_WORD.sub(_float_literal, text).split())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning rejects
            tree = ast.parse(source.replace("^", "**"), mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # MemoryError: the parser's stack overflowed on deep nesting
        raise ParseError("cannot parse %r: %s"
                         % (text, getattr(exc, "msg", exc)))

    def translate(node, depth):
        if depth > MAX_DEPTH:
            raise ParseError("%r is nested more than %d deep"
                             % (text, MAX_DEPTH))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], translate(node.left, depth + 1),
                    translate(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and type(node.op) is ast.UAdd:
            return translate(node.operand, depth + 1)
        if isinstance(node, ast.UnaryOp) and type(node.op) is ast.USub:
            return ("neg", translate(node.operand, depth + 1))
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return ("num", node.value)
        if isinstance(node, ast.Name) and node.id in _CONSTANTS:
            return ("num", _CONSTANTS[node.id])
        if isinstance(node, ast.Name) and node.id in variables:
            return ("var", node.id)
        # the col_offset test rejects `(sin)(x)`
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS
                and node.func.col_offset == node.col_offset
                and len(node.args) == 1 and not node.keywords):
            return ("call", node.func.id, translate(node.args[0], depth + 1))
        what = getattr(node, "id", type(node).__name__)
        raise ParseError("unsupported %r in %r (names here: %s)"
                         % (what, text, ", ".join(variables)))
    return translate(tree.body, 1)


def split_components(text):
    """Split a comma-separated component list at top-level commas."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def parse_vector(text, n_components, variables=BOUNDARY):
    parts = split_components(text)
    if len(parts) != n_components:
        raise ParseError("expected %d comma-separated components in %r, "
                         "got %d" % (n_components, text, len(parts)))
    return [parse(p, variables) for p in parts]


def evaluate(node, env):
    """Evaluate an AST over an environment of numpy arrays/scalars."""
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        if node[1] not in env:
            raise ParseError("variable %r not available here" % node[1])
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind == "call":
        return _FUNCTIONS[node[1]](evaluate(node[2], env))
    return _ARITHMETIC[kind](evaluate(node[1], env), evaluate(node[2], env))


def derivative(node, var):
    """Symbolic derivative with respect to `var` ('x' or 'y').

    Exponents must be constants (sufficient for the supported grammar's
    use as analytic initial/boundary data).
    """
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if kind == "neg":
        return ("neg", derivative(node[1], var))
    if kind == "call":
        inner = derivative(node[2], var)
        if node[1] == "sin":
            outer = ("call", "cos", node[2])
        elif node[1] == "cos":
            outer = ("neg", ("call", "sin", node[2]))
        else:  # exp
            outer = node
        return ("*", outer, inner)
    a, b = node[1], node[2]
    da, db = derivative(a, var), derivative(b, var)
    if kind in ("+", "-"):
        return (kind, da, db)
    if kind == "*":
        return ("+", ("*", da, b), ("*", a, db))
    if kind == "/":
        return ("/", ("-", ("*", da, b), ("*", a, db)), ("*", b, b))
    if kind == "^":
        if b[0] != "num":
            raise ParseError("cannot differentiate a power with non-constant "
                             "exponent")
        p = b[1]
        return ("*", ("*", ("num", p), ("^", a, ("num", p - 1.0))), da)
    raise ParseError("corrupt expression node %r" % (kind,))


def _env(t, points, normals=None):
    """The variables at stacked points (and normals), and the value shape."""
    points = np.asarray(points, dtype=float)
    env = {"t": t, "x": points[..., 0], "y": points[..., 1]}
    if normals is not None:
        normals = np.asarray(normals, dtype=float)
        env["nx"] = normals[..., 0]
        env["ny"] = normals[..., 1]
    return env, points.shape[:-1]


def _values(node, env, shape):
    # non-finite data are reported by `validate_scenario`, not warned about
    with np.errstate(all="ignore"):
        value = evaluate(node, env)
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def vector_evaluator(nodes):
    """Bind vector-valued ASTs into a callable of (t, points[, normals])
    returning stacked vectors with one trailing component axis."""
    def call(t, points, normals=None):
        env, shape = _env(t, points, normals)
        return np.stack([_values(n, env, shape) for n in nodes], axis=-1)
    return call


def scalar_evaluator(node):
    def call(t, points, normals=None):
        return _values(node, *_env(t, points, normals))
    return call


def gradient_evaluator(nodes):
    """Analytic spatial gradient of a vector expression, as a callable of
    (t, points) returning stacked matrices with rows = components."""
    grads = [[derivative(n, "x"), derivative(n, "y")] for n in nodes]

    def call(t, points):
        env, shape = _env(t, points)
        rows = [np.stack([_values(g, env, shape) for g in row], axis=-1)
                for row in grads]
        return np.stack(rows, axis=-2)
    return call
