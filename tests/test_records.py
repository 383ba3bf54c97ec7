"""Every record class of the package behaves as an immutable value: it is built
by position or by keyword, with the same defaults, compares and hashes by its
fields, refuses assignment, survives copy and pickle, and prints the repr
frozen below."""
import copy
import pickle

import pytest

from lmodel.cgraph import CollisionGraph
from lmodel.collide import DetectionConfig, DetectionResult, PairProbe
from lmodel.exprs import Expr, const, sin, tvar
from lmodel.families import Dixon1Params, Dixon2Params, S2Params
from lmodel.motion import TAU, CollisionPair, MovingGraph
from lmodel.numeric import EdgeLengthStats, LengthReport
from lmodel.plan import Partition, PartitionDecision, VerifyReport, Violation

PAIR = CollisionPair("c", ("a", "b"), 0.5, 1e-9)
PROBE = PairProbe("c", ("a", "b"), False, 3e-7, 1.25, True)

# (class, its fields in order with example values, the defaults of the
# fields that have one, the repr of the example)
RECORDS = [
    (
        Expr,
        dict(kind="const", value=2.5, exponent=0, args=()),
        dict(value=0.0, exponent=0, args=()),
        "Expr(kind='const', value=2.5, exponent=0, args=())",
    ),
    (
        MovingGraph,
        dict(
            vertices=("a", "b"),
            edges=(("a", "b"),),
            motion={"a": (sin(tvar()), const(0.0)), "b": (const(1.0), const(0.0))},
            domain=(0.0, 1.0),
        ),
        dict(domain=(0.0, TAU)),
        "MovingGraph(vertices=('a', 'b'), edges=(('a', 'b'),), motion={'a': (Expr(kind='sin', "
        "value=0.0, exponent=0, args=(Expr(kind='t', value=0.0, exponent=0, args=()),)), "
        "Expr(kind='const', value=0.0, exponent=0, args=())), 'b': (Expr(kind='const', "
        "value=1.0, exponent=0, args=()), Expr(kind='const', value=0.0, exponent=0, args=()))}, "
        "domain=(0.0, 1.0))",
    ),
    (
        CollisionPair,
        dict(vertex="c", edge=("a", "b"), witness_t=0.5, min_gap=1e-9),
        {},
        "CollisionPair(vertex='c', edge=('a', 'b'), witness_t=0.5, min_gap=1e-09)",
    ),
    (
        CollisionGraph,
        dict(nodes=("a-b", "c-d"), succ=((1,), ())),
        {},
        "CollisionGraph(nodes=('a-b', 'c-d'), succ=((1,), ()))",
    ),
    (
        Partition,
        dict(upper=("a-b",), lower=("c-d",)),
        {},
        "Partition(upper=('a-b',), lower=('c-d',))",
    ),
    (
        PartitionDecision,
        dict(partition=None, reason="not-bipartite", odd_cycle=("a-b", "c-d", "e-f")),
        dict(reason=None, odd_cycle=None),
        "PartitionDecision(partition=None, reason='not-bipartite', "
        "odd_cycle=('a-b', 'c-d', 'e-f'))",
    ),
    (
        Violation,
        dict(vertex="c", edge=("a", "b"), edge_height=2, lo=1, hi=3),
        {},
        "Violation(vertex='c', edge=('a', 'b'), edge_height=2, lo=1, hi=3)",
    ),
    (
        VerifyReport,
        dict(ok=False, violations=(Violation("c", ("a", "b"), 2, 1, 3),)),
        {},
        "VerifyReport(ok=False, violations=(Violation(vertex='c', edge=('a', 'b'), "
        "edge_height=2, lo=1, hi=3),))",
    ),
    (
        Dixon1Params,
        dict(m=2, n=3, a=(1.0,), b=(1.0, 2.0), sx=(1,), sy=(1, -1)),
        {},
        "Dixon1Params(m=2, n=3, a=(1.0,), b=(1.0, 2.0), sx=(1,), sy=(1, -1))",
    ),
    (
        Dixon2Params,
        dict(a=1.0, b=2.0, d=3.0),
        {},
        "Dixon2Params(a=1.0, b=2.0, d=3.0)",
    ),
    (
        S2Params,
        dict(a=1.5, b=2.5, c=2.0),
        dict(a=1.0, b=2.2, c=1.5),
        "S2Params(a=1.5, b=2.5, c=2.0)",
    ),
    (
        EdgeLengthStats,
        dict(edge=("a", "b"), mean=1.0, max_deviation=2.5e-16),
        {},
        "EdgeLengthStats(edge=('a', 'b'), mean=1.0, max_deviation=2.5e-16)",
    ),
    (
        LengthReport,
        dict(edges=(EdgeLengthStats(("a", "b"), 1.0, 2.5e-16),), tol=1e-9, passed=True),
        {},
        "LengthReport(edges=(EdgeLengthStats(edge=('a', 'b'), mean=1.0, "
        "max_deviation=2.5e-16),), tol=1e-09, passed=True)",
    ),
    (
        DetectionConfig,
        dict(samples=512, collide_eps=1e-6),
        dict(samples=2048, collide_eps=1e-7),
        "DetectionConfig(samples=512, collide_eps=1e-06)",
    ),
    (
        PairProbe,
        dict(
            vertex="c",
            edge=("a", "b"),
            collides=False,
            min_gap=3e-7,
            witness_t=1.25,
            ambiguous=True,
        ),
        {},
        "PairProbe(vertex='c', edge=('a', 'b'), collides=False, min_gap=3e-07, "
        "witness_t=1.25, ambiguous=True)",
    ),
    (
        DetectionResult,
        dict(pairs=(PAIR,), ambiguous=(PROBE,), clear_margin=None, probed=3),
        {},
        "DetectionResult(pairs=(CollisionPair(vertex='c', edge=('a', 'b'), witness_t=0.5, "
        "min_gap=1e-09),), ambiguous=(PairProbe(vertex='c', edge=('a', 'b'), collides=False, "
        "min_gap=3e-07, witness_t=1.25, ambiguous=True),), clear_margin=None, probed=3)",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_is_an_immutable_value(cls, fields, defaults, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert [getattr(by_position, name) for name in fields] == list(fields.values())
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword) == text

    bare = cls(**{name: v for name, v in fields.items() if name not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    assert (bare == by_keyword) == (defaults == {n: fields[n] for n in defaults})

    if any(isinstance(v, dict) for v in fields.values()):  # a dict field: unhashable
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1

    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())

    for again in (copy.copy(by_keyword), copy.deepcopy(by_keyword)):
        assert type(again) is cls and again == by_keyword
    assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword


def test_expr_height_is_not_a_field():
    e = sin(tvar())
    assert e.height == 2
    assert "height" not in repr(e)
    assert e == Expr("sin", 0.0, 0, (Expr("t"),))
