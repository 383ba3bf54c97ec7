import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmodel import exprs as E


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


def test_node_validation():
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
    arr = E.evaluate_on(e, ts)
    assert arr.shape == ts.shape
    for i in (0, 17, 63):
        assert math.isclose(float(arr[i]), float(E.evaluate(e, float(ts[i]))), rel_tol=1e-14)


def test_evaluate_on_broadcasts_constants():
    ts = np.linspace(0.0, 1.0, 8)
    arr = E.evaluate_on(E.const(3.0), ts)
    assert arr.shape == ts.shape
    assert (arr == 3.0).all()


def test_sqrt_domain_error():
    e = E.parse_expression("sqrt(0-1)")
    with pytest.raises(E.ExprDomainError, match="square root"):
        E.evaluate(e, 0.0)


def test_division_by_zero_reports_offending_t():
    e = E.parse_expression("1/sin(t)")
    with pytest.raises(E.ExprDomainError, match="division by zero") as exc:
        E.evaluate(e, 0.0)
    assert exc.value.t == 0.0
    with pytest.raises(E.ExprDomainError) as exc:
        E.evaluate(e, np.array([1.0, 0.0, 2.0]))
    assert exc.value.t == 0.0


def test_overflow_is_a_domain_error():
    e = E.parse_expression("(((1000000^3)^3)^3)^3")
    with pytest.raises(E.ExprDomainError, match="overflow"):
        E.evaluate(e, 0.0)


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
