import json
import math

import numpy as np
import pytest

from lmodel import exprs as E
from lmodel import numeric
from lmodel.motion import TAU, GraphFormatError, MovingGraph, edge_label, load_graph, save_graph
from lmodel.numeric import eval_position, positions_on_grid, validate_edge_lengths

from synth import static_graph

GOOD = """
{
  "vertices": [
    {"id": "a", "x": "sin(t)", "y": "0"},
    {"id": "b", "x": "sin(t)+1", "y": "0"},
    {"id": "c", "x": "0", "y": "2"}
  ],
  "edges": [["a", "b"]]
}
"""


def test_load_basic():
    g = load_graph(GOOD)
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"),)
    assert g.edge_labels == ("a-b",)
    assert g.edge_by_label == {"a-b": ("a", "b")}
    assert g.incident == {"a": ("a-b",), "b": ("a-b",), "c": ()}
    assert g.isolated_vertices == ("c",)
    assert g.domain == (0.0, TAU)


def test_edge_label_keeps_orientation():
    assert edge_label(("q0", "p3")) == "q0-p3"


def test_explicit_domain():
    data = json.loads(GOOD)
    data["domain"] = [0.0, math.pi]
    g = load_graph(json.dumps(data))
    assert g.domain == (0.0, math.pi)


def test_save_load_round_trip(ref_dixon1):
    text = save_graph(ref_dixon1)
    assert load_graph(text) == ref_dixon1
    # a second pass through text is byte-stable
    assert save_graph(load_graph(text)) == text


def test_eval_position_reference(ref_dixon1):
    assert eval_position(ref_dixon1, "p0", 0.0) == (0.0, 0.0)
    assert eval_position(ref_dixon1, "q0", 0.0) == (0.0, 1.0)
    x, y = eval_position(ref_dixon1, "p1", math.pi / 2)
    assert math.isclose(x, math.sqrt(2.0), rel_tol=1e-15)
    assert y == 0.0
    # p2 sits on the negative side
    x, _ = eval_position(ref_dixon1, "p2", 0.0)
    assert math.isclose(x, -math.sqrt(2.0), rel_tol=1e-15)


def test_eval_position_unknown_vertex(ref_dixon1):
    with pytest.raises(GraphFormatError, match="unknown vertex"):
        eval_position(ref_dixon1, "nope", 0.0)


def test_eval_position_domain_error_names_vertex():
    g = MovingGraph(
        ("a",),
        (),
        {"a": (E.parse_expression("sqrt(sin(t))"), E.const(0.0))},
    )
    with pytest.raises(E.ExprDomainError, match="'a'"):
        eval_position(g, "a", 4.0)


def test_positions_on_grid(ref_dixon1):
    ts = np.linspace(0.0, TAU, 33)
    pos = positions_on_grid(ref_dixon1, ts)
    assert set(pos) == set(ref_dixon1.vertices)
    xs, ys = pos["p0"]
    assert np.allclose(xs, np.sin(ts))
    assert (ys == 0.0).all()
    only = positions_on_grid(ref_dixon1, ts, vertices=("q0",))
    assert set(only) == {"q0"}


@pytest.mark.parametrize(
    "mutate,msg",
    [
        (lambda d: d["edges"].append(["a", "a"]), "self-loop"),
        (lambda d: d["edges"].append(["a", "zz"]), "dangling"),
        (lambda d: d["edges"].append(["b", "a"]), "duplicate edge"),
        (lambda d: d["vertices"].append({"id": "a", "x": "0", "y": "0"}), "duplicate vertex"),
        (lambda d: d["vertices"].append({"id": "s p", "x": "0", "y": "0"}), "id"),
        (lambda d: d["vertices"].append({"id": "x-y", "x": "0", "y": "0"}), "id"),
        (lambda d: d.update(domain=[1.0, 1.0]), "domain"),
        (lambda d: d.update(domain=[0.0]), "domain"),
        (lambda d: d.update(domain=[False, 6.0]), "domain"),
        (lambda d: d["vertices"][0].pop("y"), "needs"),
        (lambda d: d["vertices"][0].update(x="sin(u)"), "unknown identifier"),
        (lambda d: d["vertices"][0].update(id=7), "must be a string"),
        (lambda d: d["edges"].append("a-b"), "pair of vertex ids"),
        (lambda d: d.update(domain=[0, 10**400]), "too large for a float"),
        (lambda d: d.update(domain=[-1.7e308, 1.7e308]), "width b - a overflows"),
    ],
)
def test_load_rejects_bad_data(mutate, msg):
    data = json.loads(GOOD)
    mutate(data)
    with pytest.raises(GraphFormatError, match=msg):
        load_graph(json.dumps(data))


@pytest.mark.parametrize(
    "x", ["(" * 400 + "t" + ")" * 400, "+".join(["t"] * 3001)], ids=["parens", "sum"]
)
def test_load_rejects_too_deep_expressions(x):
    data = json.loads(GOOD)
    data["vertices"][0]["x"] = x
    with pytest.raises(GraphFormatError, match="nests deeper than 100 levels"):
        load_graph(json.dumps(data))


def test_load_rejects_bad_json():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        load_graph("{nope")
    with pytest.raises(GraphFormatError, match="top-level"):
        load_graph("[1, 2]")


def test_construct_rejects_missing_motion():
    with pytest.raises(GraphFormatError, match="no motion"):
        MovingGraph(("a",), (), {})
    with pytest.raises(GraphFormatError, match="unknown vertex"):
        MovingGraph(
            ("a",),
            (),
            {"a": (E.const(0.0), E.const(0.0)), "b": (E.const(0.0), E.const(0.0))},
        )


def test_edge_lengths_constant_on_reference(ref_dixon1):
    report = validate_edge_lengths(ref_dixon1, samples=512, tol=1e-9)
    assert report.passed
    assert max(s.max_deviation for s in report.edges) < 1e-12
    stats = {s.edge: s for s in report.edges}
    assert math.isclose(stats[("q0", "p0")].mean, 1.0, rel_tol=1e-12)
    # radii 1 and 1 across the corner: sqrt(1 + 1 + 1)
    assert math.isclose(stats[("q1", "p1")].mean, math.sqrt(3.0), rel_tol=1e-12)


def test_edge_lengths_flag_drift():
    g = MovingGraph(
        ("a", "b"),
        (("a", "b"),),
        {
            "a": (E.parse_expression("sin(t)"), E.const(0.0)),
            "b": (E.const(2.0), E.const(0.0)),
        },
    )
    report = validate_edge_lengths(g, samples=256, tol=1e-9)
    assert not report.passed
    assert report.edges[0].max_deviation > 0.5


def test_edge_length_tolerance_is_relative_beyond_unit_length():
    # a drift of 5e-10 per unit length: 5e-10 on an edge of length 1 and
    # 5e-8 on one of length 100
    def edge(length):
        return MovingGraph(
            ("a", "b"),
            (("a", "b"),),
            {
                "a": (E.const(0.0), E.const(0.0)),
                "b": (E.parse_expression(f"{length} * (1 + 0.0000000005*sin(t))"), E.const(0.0)),
            },
        )

    for length in (0.5, 1.0, 100.0):
        report = validate_edge_lengths(edge(length), tol=1e-9)
        assert report.passed, length
        dev = report.edges[0].max_deviation
        assert dev > 0.4e-9 * length
        # the tolerance is absolute up to length 1, relative beyond
        assert not validate_edge_lengths(edge(length), tol=0.9 * dev / max(1.0, length)).passed


def test_edge_lengths_ignores_isolated_vertices():
    # the isolated vertex has a domain hole at t=0; must not be evaluated
    g = MovingGraph(
        ("a", "b", "c"),
        (("a", "b"),),
        {
            "a": (E.const(0.0), E.const(0.0)),
            "b": (E.const(1.0), E.const(0.0)),
            "c": (E.parse_expression("1/sin(t)"), E.const(0.0)),
        },
    )
    assert validate_edge_lengths(g).passed


@pytest.mark.parametrize("block", [1, 1000, numeric._LENGTH_BLOCK])
@pytest.mark.parametrize("samples", [2, 512, 700])
def test_edge_lengths_match_a_per_edge_reference(
    monkeypatch, ref_dixon1, ref_s2, ref_dixon2, block, samples
):
    # the edges are taken a chunk at a time; 1 makes every chunk one edge
    monkeypatch.setattr(numeric, "_LENGTH_BLOCK", block)
    drift = MovingGraph(
        ("a", "b", "c"),
        (("a", "b"), ("c", "a")),
        {
            "a": (E.parse_expression("sin(t)"), E.const(0.0)),
            "b": (E.parse_expression("t/3"), E.parse_expression("cos(t)^2")),
            "c": (E.const(2.0), E.const(-1.0)),
        },
    )
    for g in (ref_dixon1, ref_s2, ref_dixon2, drift):
        ts = np.linspace(g.domain[0], g.domain[1], samples)
        pos = positions_on_grid(g, ts)
        report = validate_edge_lengths(g, samples=samples)
        assert [s.edge for s in report.edges] == list(g.edges)
        for s, (u, v) in zip(report.edges, g.edges):
            lens = np.hypot(pos[u][0] - pos[v][0], pos[u][1] - pos[v][1])
            mean = float(lens.mean())
            dev = float(np.max(np.abs(lens - mean)))
            assert (type(s.mean), type(s.max_deviation)) == (float, float)
            assert np.float64(s.mean).tobytes() == np.float64(mean).tobytes()
            assert np.float64(s.max_deviation).tobytes() == np.float64(dev).tobytes()


def test_validate_edge_lengths_bad_args(ref_dixon1):
    with pytest.raises(ValueError):
        validate_edge_lengths(ref_dixon1, samples=1)
    with pytest.raises(ValueError):
        validate_edge_lengths(ref_dixon1, tol=0.0)
    with pytest.raises(ValueError, match="finite"):
        validate_edge_lengths(ref_dixon1, tol=math.nan)
    with pytest.raises(ValueError, match="finite"):
        validate_edge_lengths(ref_dixon1, tol=math.inf)
    for samples in (512.0, "512", True, None):
        with pytest.raises(ValueError, match="samples must be an int"):
            validate_edge_lengths(ref_dixon1, samples=samples)


def test_static_graph_helper_shape():
    g = static_graph(3, [("n0", "n1")])
    assert g.vertices == ("n0", "n1", "n2")
    assert g.edge_labels == ("n0-n1",)
    assert eval_position(g, "n2", 1.0) == (2.0, 0.0)
