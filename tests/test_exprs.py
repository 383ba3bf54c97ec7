import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmodel import exprs as E
from lmodel import numeric
from lmodel.interval import speed_and_stray
from lmodel.numeric import evaluate, merged_kernel, split_constants


def test_parse_simple_tree():
    assert E.parse_expression("sin(t)") == E.sin(E.tvar())


def test_parse_length_expression():
    want = E.sqrt(E.add(E.const(1.0), E.powi(E.sin(E.tvar()), 2)))
    assert E.parse_expression("sqrt(1+sin(t)^2)") == want


def test_parse_precedence():
    want = E.add(E.const(1.0), E.mul(E.const(2.0), E.powi(E.tvar(), 2)))
    assert E.parse_expression("1+2*t^2") == want


def test_parse_unary_minus_binds_looser_than_pow():
    assert E.parse_expression("-t^2") == E.neg(E.powi(E.tvar(), 2))


def test_parse_left_associative():
    want = E.sub(E.sub(E.const(1.0), E.const(2.0)), E.const(3.0))
    assert E.parse_expression("1-2-3") == want


def test_parse_pi_is_a_constant():
    assert E.parse_expression("pi") == E.const(math.pi)
    assert E.parse_expression("2*pi") == E.mul(E.const(2.0), E.const(math.pi))


def test_parse_whitespace_and_parens():
    assert E.parse_expression(" ( t + 1 ) * 2 ") == E.mul(
        E.add(E.tvar(), E.const(1.0)), E.const(2.0)
    )


@pytest.mark.parametrize(
    "text,pos",
    [
        ("sin(", 4),
        ("", 0),
        ("1+", 2),
        ("(1+2", 4),
    ],
)
def test_parse_error_positions(text, pos):
    with pytest.raises(E.ExprSyntaxError) as exc:
        E.parse_expression(text)
    assert exc.value.position == pos


@pytest.mark.parametrize(
    "text",
    [
        "(" * 400 + "t" + ")" * 400,
        "+".join(["t"] * 3001),
        "(" * 101 + "t" + ")" * 101,
        "+".join(["t"] * 101),
        "-" * 101 + "t",
        "sin(" * 101 + "t" + ")" * 101,
    ],
    ids=["parens-400", "sum-3001", "parens-101", "sum-101", "neg-101", "sin-101"],
)
def test_parse_bounds_the_tree_height(text):
    with pytest.raises(E.ExprSyntaxError, match="nests deeper than 100 levels"):
        E.parse_expression(text)


def test_constructors_bound_the_tree_height():
    e = E.tvar()
    for _ in range(99):
        e = E.add(e, E.tvar())
    assert e.height == 100
    with pytest.raises(ValueError, match="nests deeper than 100 levels"):
        E.add(e, E.tvar())


def test_parse_accepts_the_tallest_tree():
    assert E.parse_expression("(" * 100 + "t" + ")" * 100) == E.tvar()
    assert evaluate(E.parse_expression("+".join(["t"] * 100)), 1.0) == 100.0
    assert evaluate(E.parse_expression("-" * 99 + "t"), 1.0) == -1.0


def test_parse_rejects_unknown_identifier():
    with pytest.raises(E.ExprSyntaxError, match="unknown identifier"):
        E.parse_expression("2*x")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(E.ExprSyntaxError, match="integer exponent"):
        E.parse_expression("t^2.5")
    with pytest.raises(E.ExprSyntaxError):
        E.parse_expression("t^-1")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(E.ExprSyntaxError):
        E.parse_expression("1+2)")


def test_parse_rejects_an_unexpected_character():
    with pytest.raises(E.ExprSyntaxError, match="unexpected character '\\$'") as exc:
        E.parse_expression("t $ 1")
    assert exc.value.position == 2


def test_node_validation():
    with pytest.raises(ValueError, match="unknown node kind 'tan'"):
        E.Expr("tan", args=(E.tvar(),))
    with pytest.raises(ValueError):
        E.Expr("add", args=(E.tvar(),))
    with pytest.raises(ValueError):
        E.Expr("pow", exponent=-1, args=(E.tvar(),))
    with pytest.raises(ValueError):
        E.const(math.inf)
    with pytest.raises(ValueError):
        E.const(math.nan)


def test_to_text_round_trip_examples():
    for text in ("sin(t)", "sqrt(1+sin(t)^2)", "(t+1)*2", "-(t+1)", "1/2-t^3"):
        e = E.parse_expression(text)
        assert E.parse_expression(E.to_text(e)) == e


def test_to_text_integral_constants_stay_short():
    assert E.to_text(E.const(2.0)) == "2"
    assert E.to_text(E.const(0.5)) == "0.5"


def test_evaluate_scalar_and_grid_agree():
    e = E.parse_expression("sqrt(2+sin(t)^2)-cos(t)/2")
    ts = np.linspace(0.0, 2 * math.pi, 64)
    arr = evaluate(e, ts)
    assert arr.shape == ts.shape
    for i in (0, 17, 63):
        assert math.isclose(float(arr[i]), float(evaluate(e, float(ts[i]))), rel_tol=1e-14)


@pytest.mark.parametrize("text", ["3", "sin(2)/3", "(1+pi)^3", "-sqrt(2)"])
def test_evaluate_broadcasts_constants(text):
    # the result has the shape of t: a constant tree fills an array t with
    # its value, bit for bit what np.full gives, and stays scalar for a scalar t
    tree = E.parse_expression(text)
    value = evaluate(tree, 0.5)
    assert np.ndim(value) == 0
    for ts in (np.linspace(0.0, 1.0, 8), np.zeros((2, 3)), np.array([])):
        arr = evaluate(tree, ts)
        assert isinstance(arr, np.ndarray)
        assert arr.shape == ts.shape
        assert arr.tobytes() == np.full(ts.shape, value).tobytes()


def test_sqrt_domain_error():
    e = E.parse_expression("sqrt(0-1)")
    with pytest.raises(E.ExprDomainError, match="square root"):
        evaluate(e, 0.0)


def test_division_by_zero_reports_offending_t():
    e = E.parse_expression("1/sin(t)")
    with pytest.raises(E.ExprDomainError, match="division by zero") as exc:
        evaluate(e, 0.0)
    assert exc.value.t == 0.0
    with pytest.raises(E.ExprDomainError) as exc:
        evaluate(e, np.array([1.0, 0.0, 2.0]))
    assert exc.value.t == 0.0


def test_overflow_is_a_domain_error():
    e = E.parse_expression("(((1000000^3)^3)^3)^3")
    with pytest.raises(E.ExprDomainError, match="overflow"):
        evaluate(e, 0.0)


_leaves = st.one_of(
    st.just(E.tvar()),
    st.builds(
        E.const,
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    ),
)

_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(E.neg, kids),
        st.builds(E.sin, kids),
        st.builds(E.cos, kids),
        st.builds(E.sqrt, kids),
        st.builds(E.powi, kids, st.integers(min_value=0, max_value=3)),
        st.builds(E.add, kids, kids),
        st.builds(E.sub, kids, kids),
        st.builds(E.mul, kids, kids),
        st.builds(E.div, kids, kids),
    ),
    max_leaves=16,
)


@given(_trees)
@settings(max_examples=200)
def test_print_parse_round_trip(tree):
    assert E.parse_expression(E.to_text(tree)) == tree


# ---------------------------------------------------------------------------
# merged shapes

_const_trees = st.recursive(
    st.builds(E.const, st.floats(min_value=0.0, max_value=30.0)),
    lambda kids: st.one_of(
        st.builds(E.neg, kids),
        st.builds(E.sin, kids),
        st.builds(E.sqrt, kids),
        st.builds(E.powi, kids, st.integers(min_value=0, max_value=5)),
        st.builds(E.add, kids, kids),
        st.builds(E.div, kids, kids),
    ),
    max_leaves=4,
)

# a t-dependent tree times a constant power: the case where scalar and array
# pow part ways in the last bit
_members = st.one_of(
    _trees,
    st.builds(lambda c, n, e: E.mul(E.powi(c, n), e), _const_trees, st.integers(0, 5), _trees),
)


def _recast(e, rng):
    """``e`` with fresh constants: the same shape, other values."""
    if e.kind == "const":
        return E.const(float(rng.choice([0.0, -0.0, 0.5, 1.0, 2.0, 3.7, 1e3, e.value])))
    return E.Expr(e.kind, exponent=e.exponent, args=tuple(_recast(a, rng) for a in e.args))


@given(
    st.one_of(_members, st.builds(E.powi, _trees, st.integers(min_value=2, max_value=7))),
    st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=8),
)
@settings(max_examples=300)
def test_scalar_evaluation_matches_the_array_bit_for_bit(tree, times):
    ts = np.array(times)
    try:
        want = evaluate(tree, ts)
    except E.ExprDomainError:
        # some time fails, and alone it fails too
        with pytest.raises(E.ExprDomainError):
            for t in times:
                evaluate(tree, t)
        return
    for t, w in zip(times, want):
        assert np.float64(evaluate(tree, t)).tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# merged kernels


def _interpret(tree, t):
    """The checking interpreter on an array of times."""
    with np.errstate(over="ignore", invalid="ignore"):
        return numeric._ev(tree, t)


@given(
    st.one_of(
        _members,
        st.builds(E.powi, _trees, st.integers(min_value=2, max_value=7)),
        # powers that overflow for bases past about 3, and underflow near 0
        st.builds(E.powi, _trees, st.integers(min_value=100, max_value=700)),
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300)
def test_merged_kernel_matches_the_interpreter(tree, seed):
    # trees of one shape merged: each gets the bits the interpreter gives
    # its own tree, and a flag goes up exactly when one of them fails;
    # trees that fail on [-4, 4] included: a square root or divisor of
    # either sign or zero, overflowing powers
    rng = np.random.default_rng(seed)
    trees = [tree] + [_recast(tree, rng) for _ in range(int(rng.integers(1, 5)))]
    times = [rng.uniform(-4.0, 4.0, int(rng.integers(1, 6))) for _ in trees]
    want = []
    for e, t in zip(trees, times):
        try:
            want.append(np.broadcast_to(_interpret(e, t), t.shape))
        except E.ExprDomainError:
            want.append(None)
    shapes = {}
    for k, e in enumerate(trees):
        try:
            shape, values = split_constants(e)
        except E.ExprDomainError:
            # a constant part that fails fails every evaluation
            assert want[k] is None
        else:
            shapes.setdefault(shape, []).append((k, values))
    for shape, members in shapes.items():
        sizes = [len(times[k]) for k, _ in members]
        kernel = merged_kernel(shape, [values for _, values in members], sizes)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                got = kernel(np.concatenate([times[k] for k, _ in members]))
        except FloatingPointError:
            assert any(want[k] is None for k, _ in members)
            continue
        for (k, _), piece in zip(members, np.split(got, np.cumsum(sizes)[:-1])):
            assert want[k] is not None
            assert piece.tobytes() == want[k].tobytes()


def _evaluate_each(trees, times):
    out = []
    for e, t in zip(trees, times):
        try:
            out.append(evaluate(e, t))
        except E.ExprDomainError:
            out.append(None)
    return out


@given(_members, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300)
def test_merged_shape_evaluation_matches_each_tree(tree, seed):
    # the same merge against the public evaluator: each tree's points get
    # the bits evaluate gives that tree alone
    rng = np.random.default_rng(seed)
    trees = [tree] + [_recast(tree, rng) for _ in range(int(rng.integers(1, 5)))]
    times = [rng.uniform(-4.0, 4.0, int(rng.integers(1, 6))) for _ in trees]
    want = _evaluate_each(trees, times)
    parts = []
    for e in trees:
        try:
            parts.append(split_constants(e))
        except E.ExprDomainError:
            parts.append(None)
    shapes = {}
    for k, part in enumerate(parts):
        if part is None:
            # a constant part that fails fails every evaluation
            assert want[k] is None
        else:
            shapes.setdefault(part[0], []).append(k)
    for shape, members in shapes.items():
        sizes = [len(times[k]) for k in members]
        kernel = merged_kernel(shape, [parts[k][1] for k in members], sizes)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                got = kernel(np.concatenate([times[k] for k in members]))
        except FloatingPointError:
            assert any(want[k] is None for k in members)
            continue
        for k, piece in zip(members, np.split(got, np.cumsum(sizes)[:-1])):
            assert want[k] is not None
            assert piece.tobytes() == want[k].tobytes()


def test_t_dependent_failure_raises_before_a_failing_constant_part():
    # 1/t fails at t=0, before the constant part sqrt(0-1) to its right
    tree = E.parse_expression("1/t + sqrt(0-1)")
    for t in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(E.ExprDomainError, match="division by zero") as exc:
            evaluate(tree, t)
        assert exc.value.t == 0.0 and exc.value.expr is tree.args[0]
    # elsewhere the constant part fails, at every time
    with pytest.raises(E.ExprDomainError, match="square root") as exc:
        evaluate(tree, np.array([1.0, 2.0]))
    assert exc.value.t is None and exc.value.expr is tree.args[1]


def test_constant_zero_divisor_fails_without_times():
    # a constant part fails even when there are no times to evaluate at
    tree = E.parse_expression("t/(1-1)")
    with pytest.raises(E.ExprDomainError, match="division by zero") as exc:
        evaluate(tree, np.array([]))
    assert exc.value.t is None and exc.value.expr is tree


def test_every_kind_has_one_operation():
    # every kind is a leaf, pow or a kind whose call one of the tables gives
    kinds = {"const", "t", "pow"} | set(numeric._UNARY) | set(numeric._BINARY)
    assert set(E._KINDS) == kinds
    assert len(kinds) == 3 + len(numeric._UNARY) + len(numeric._BINARY)


@pytest.mark.parametrize("kind", sorted(E._KINDS))
def test_every_kind_is_handled_everywhere(kind):
    # one node of each kind over t + 5, a valid argument of every kind on
    # [0, 1]: it prints and parses back, both evaluators give it the same
    # bits, and its enclosures are finite
    leaf = E.add(E.tvar(), E.const(5.0))
    tree = E.Expr(
        kind,
        value=2.5 if kind == "const" else 0.0,
        exponent=3 if kind == "pow" else 0,
        args=(leaf,) * E._KINDS[kind][0],
    )
    assert E.parse_expression(E.to_text(tree)) == tree
    ts = np.linspace(0.0, 1.0, 5)
    want = np.broadcast_to(_interpret(tree, ts), ts.shape)
    shape, values = split_constants(tree)
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        got = merged_kernel(shape, [values], [len(ts)])(ts)
    assert np.broadcast_to(got, ts.shape).tobytes() == want.tobytes()
    assert all(map(math.isfinite, speed_and_stray(tree, 0.0, 1.0)))


def test_kernel_runs_without_the_interpreter(monkeypatch):
    tree = E.parse_expression("sqrt(2)*sin(t)/(1+t^2) - 3")
    ts = np.linspace(-4.0, 4.0, 9)
    want = _interpret(tree, ts)
    shape, values = split_constants(tree)
    kernel = merged_kernel(shape, [values], [len(ts)])

    def refuse(*_):
        raise AssertionError("the interpreter ran")

    monkeypatch.setattr(numeric, "_ev", refuse)
    assert kernel(ts).tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["t", "sin(t)", "sqrt(t)"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_time_raises(text, bad):
    tree = E.parse_expression(text)
    leaf = tree if tree.kind == "t" else tree.args[0]
    for t in (bad, np.array([1.0, bad, 2.0])):
        with pytest.raises(E.ExprDomainError, match="time is not finite") as exc:
            evaluate(tree, t)
        assert exc.value.expr is leaf
        assert np.float64(exc.value.t).tobytes() == np.float64(bad).tobytes()


def test_split_constants_folds_constant_parts():
    e = E.parse_expression("2^3*sin(t)+sqrt(2)-t^2")
    shape, values = split_constants(e)
    assert values == (8.0, math.sqrt(2.0))
    assert E.to_text(shape) == "0*sin(t)+0-t^2"
    assert split_constants(E.parse_expression("3^3*sin(t)+sqrt(5)-t^2"))[0] == shape
    assert split_constants(E.parse_expression("1+2"))[0] == E.const(0.0)


# ---------------------------------------------------------------------------
# speed and rounding bounds: one enclosure walk


def _speed(e, lo, hi):
    return speed_and_stray(e, lo, hi)[0]


def _stray(e, lo, hi):
    return speed_and_stray(e, lo, hi)[1]


def test_speed_bound_exact_cases():
    assert _speed(E.parse_expression("sin(t)"), 0.0, 2 * math.pi) == 1.0
    assert _speed(E.const(3.5), 0.0, 1.0) == 0.0
    assert _speed(E.parse_expression("2^3*sin(1)"), -1.0, 1.0) == 0.0
    assert _speed(E.tvar(), -5.0, 5.0) == 1.0
    assert _speed(E.parse_expression("t*t"), 0.0, 2.0) == 4.0
    assert _speed(E.parse_expression("3*cos(t)"), 0.0, 1.0) == 3.0 * math.sin(1.0)
    # sqrt and division whose enclosures reach 0 give no bound
    assert _speed(E.parse_expression("sqrt(t)"), 0.0, 1.0) == math.inf
    assert _speed(E.parse_expression("sqrt(t)"), 0.25, 1.0) == 1.0
    assert _speed(E.parse_expression("1/t"), -1.0, 1.0) == math.inf
    assert _speed(E.parse_expression("1/t"), 1.0, 2.0) == 1.0
    # and neither do enclosures that overflow
    assert _speed(E.parse_expression("t^200"), 0.0, 100.0) == math.inf


def _value_range(e, lo, hi, big):
    """Value enclosure of ``e`` over [lo, hi], or None at a domain fault.

    The reference for when the speed bound gives up: critical points of sin and
    cos are found by walking the multiples of pi/2.  ``big`` collects the
    largest magnitude seen, since a derivative enclosure can overflow where
    the values do not.
    """
    k = e.kind
    if k == "const":
        r = (e.value, e.value)
    elif k == "t":
        r = (lo, hi)
    elif k in ("add", "sub", "mul", "div"):
        a, b = (_value_range(x, lo, hi, big) for x in e.args)
        if a is None or b is None:
            return None
        if k == "add":
            r = (a[0] + b[0], a[1] + b[1])
        elif k == "sub":
            r = (a[0] - b[1], a[1] - b[0])
        else:
            if k == "div":
                if b[0] <= 0.0 <= b[1]:
                    return None
                b = (1.0 / b[1], 1.0 / b[0])
            p = [x * y for x in a for y in b]
            r = (min(p), max(p))
    else:
        a = _value_range(e.args[0], lo, hi, big)
        if a is None:
            return None
        if k == "neg":
            r = (-a[1], -a[0])
        elif k == "sqrt":
            if a[0] <= 0.0:
                return None
            r = (math.sqrt(a[0]), math.sqrt(a[1]))
        elif k == "pow":
            try:
                p = [a[0] ** e.exponent, a[1] ** e.exponent]
            except OverflowError:
                return None
            if a[0] < 0.0 < a[1] and e.exponent > 0:
                p.append(0.0)
            r = (min(p), max(p))
        else:
            f = math.sin if k == "sin" else math.cos
            if a[1] - a[0] >= 2 * math.pi:
                r = (-1.0, 1.0)
            else:
                # sin and cos turn at the multiples of pi/2
                q = math.floor(a[0] / (math.pi / 2))
                turns = [m * math.pi / 2 for m in range(q, q + 6)]
                vals = [f(a[0]), f(a[1])] + [
                    round(f(x)) for x in turns if a[0] <= x <= a[1] and abs(f(x)) > 0.5
                ]
                r = (min(vals), max(vals))
    if not all(map(math.isfinite, r)):
        return None
    big[0] = max(big[0], abs(r[0]), abs(r[1]))
    return r


_speed_leaves = st.one_of(
    st.just(E.tvar()),
    st.builds(E.const, st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0])),
)

# every node kind; a reciprocal power stands for a negative exponent, which
# Expr refuses
_speed_trees = st.recursive(
    _speed_leaves,
    lambda kids: st.one_of(
        st.builds(E.neg, kids),
        st.builds(E.sin, kids),
        st.builds(E.cos, kids),
        st.builds(E.sqrt, kids),
        st.builds(E.powi, kids, st.integers(min_value=0, max_value=3)),
        st.builds(lambda e, n: E.div(E.const(1.0), E.powi(e, n)), kids, st.integers(1, 3)),
        st.builds(E.add, kids, kids),
        st.builds(E.sub, kids, kids),
        st.builds(E.mul, kids, kids),
        st.builds(E.div, kids, kids),
    ),
    max_leaves=8,
)


@given(
    _speed_trees,
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=1e-3, max_value=4.0),
)
@settings(max_examples=400)
def test_speed_bound_exceeds_central_differences(tree, lo, width):
    hi = lo + width
    got = _speed(tree, lo, hi)
    big = [0.0]
    enclosure = _value_range(tree, lo, hi, big)
    if enclosure is None:
        assert got == math.inf
        return
    if big[0] < 1e100:
        assert math.isfinite(got)
    if not math.isfinite(got):
        return
    # central differences at the midpoints of 200 cells of [lo, hi]
    ts = np.linspace(lo, hi, 201)
    ys = evaluate(tree, ts)
    span = np.diff(ts)
    diffs = np.abs(np.diff(ys)) / span
    # the rounding of the two evaluations, a few ulps of the values
    noise = 8 * np.finfo(float).eps * np.maximum(np.abs(ys[1:]), np.abs(ys[:-1])) / span
    assert np.all(diffs <= got * (1 + 1e-9) + noise)


# ---------------------------------------------------------------------------
# rounding bounds


def test_rounding_bound_exact_cases():
    assert _stray(E.tvar(), -5.0, 5.0) == 0.0
    assert _stray(E.const(3.5), 0.0, 1.0) == 0.0
    assert 0.0 < _stray(E.parse_expression("sin(t)"), 0.0, 2 * math.pi) < 1e-15
    # cancellation: the values are at most 1, the rounding is that of 1e8
    ts = np.linspace(0.0, 1.0, 10001)
    cancel = E.sub(E.add(E.tvar(), E.const(1e8)), E.const(1e8))
    stray = np.abs(evaluate(cancel, ts) - ts).max()
    assert stray > 1e-9
    assert stray <= _stray(cancel, 0.0, 1.0) < 1e-6
    # no bound where the speed bound has none, nor where rounding could reach a fault
    assert _stray(E.parse_expression("sqrt(t)"), 0.0, 1.0) == math.inf
    assert _stray(E.parse_expression("1/t"), -1.0, 1.0) == math.inf
    near_zero = E.sqrt(E.add(cancel, E.const(1e-9)))
    assert math.isfinite(_speed(near_zero, 0.0, 1.0))
    assert _stray(near_zero, 0.0, 1.0) == math.inf


def _exact(e, t, mpmath):
    """The exact value of ``e`` at ``t``, to 200 bits."""
    k = e.kind
    if k == "const":
        return mpmath.mpf(e.value)
    if k == "t":
        return mpmath.mpf(t)
    a = [_exact(x, t, mpmath) for x in e.args]
    if k == "neg":
        return -a[0]
    if k in ("sin", "cos", "sqrt"):
        return getattr(mpmath, k)(a[0])
    if k == "pow":
        return a[0] ** e.exponent
    if k == "add":
        return a[0] + a[1]
    if k == "sub":
        return a[0] - a[1]
    if k == "mul":
        return a[0] * a[1]
    assert k == "div"
    return a[0] / a[1]


@given(
    _speed_trees,
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=1e-3, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_rounding_bound_covers_the_evaluation_error(tree, lo, width):
    mpmath = pytest.importorskip("mpmath")
    hi = lo + width
    bound = _stray(tree, lo, hi)
    if not math.isfinite(bound):
        return
    # a finite bound also means the evaluation cannot fault on [lo, hi]
    ts = np.linspace(lo, hi, 41)
    got = evaluate(tree, ts)
    with mpmath.workprec(200):
        for t, y in zip(ts.tolist(), got.tolist()):
            assert abs(mpmath.mpf(y) - _exact(tree, t, mpmath)) <= bound
