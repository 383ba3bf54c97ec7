import math

import numpy as np
import pytest

from lmodel.families import (
    Dixon1Params,
    Dixon2Params,
    S2Params,
    S2_EDGES,
    dixon1,
    dixon2,
    s2,
)
from lmodel.motion import TAU, save_graph
from lmodel.numeric import sample_rows, validate_edge_lengths

from expected import DIXON1_REF_EDGE_LABELS, DIXON1_REF_KW
from synth import dixon2_expected_length

TS = np.linspace(0.0, TAU, 157)


def test_dixon1_structure(ref_dixon1):
    assert ref_dixon1.vertices == ("p0", "p1", "p2", "p3", "q0", "q1", "q2")
    assert ref_dixon1.edge_labels == DIXON1_REF_EDGE_LABELS
    assert ref_dixon1.domain == (0.0, TAU)


def test_dixon1_motion_matches_closed_form(ref_dixon1):
    s2t = np.sin(TS) ** 2
    c2t = np.cos(TS) ** 2
    want = {
        "p0": (np.sin(TS), 0.0),
        "p1": (np.sqrt(1.0 + s2t), 0.0),
        "p2": (-np.sqrt(2.0 + s2t), 0.0),
        "p3": (np.sqrt(3.0 + s2t), 0.0),
        "q0": (0.0, np.cos(TS)),
        "q1": (0.0, np.sqrt(1.0 + c2t)),
        "q2": (0.0, -np.sqrt(2.0 + c2t)),
    }
    xs, ys, errors = sample_rows(ref_dixon1, range(len(ref_dixon1.vertices)), TS)
    assert not errors
    for v, (wx, wy) in want.items():
        w = ref_dixon1.vertices.index(v)
        assert np.allclose(xs[w], wx, atol=1e-15), v
        assert np.allclose(ys[w], wy, atol=1e-15), v


def test_dixon1_lengths_constant(ref_dixon1):
    assert validate_edge_lengths(ref_dixon1, samples=512, tol=1e-9).passed


def test_dixon1_generation_is_deterministic():
    p = Dixon1Params(**DIXON1_REF_KW)
    assert save_graph(dixon1(p)) == save_graph(dixon1(p))


def test_dixon1_minimal_instance():
    g = dixon1(Dixon1Params(1, 1, (), (), (), ()))
    assert g.vertices == ("p0", "q0")
    assert g.edges == (("q0", "p0"),)


@pytest.mark.parametrize(
    "kw",
    [
        dict(m=0, n=1, a=(), b=(), sx=(), sy=()),
        dict(m=2, n=1, a=(), b=(), sx=(1,), sy=()),
        dict(m=2, n=1, a=(1.0,), b=(), sx=(), sy=()),
        dict(m=3, n=1, a=(2.0, 1.0), b=(), sx=(1, 1), sy=()),
        dict(m=3, n=1, a=(-1.0, 1.0), b=(), sx=(1, 1), sy=()),
        dict(m=2, n=1, a=(1.0,), b=(), sx=(2,), sy=()),
        dict(m=3, n=1, a=(1.0, math.inf), b=(), sx=(1, 1), sy=()),
        dict(m=1, n=2, a=(), b=(math.inf,), sx=(), sy=(1,)),
    ],
)
def test_dixon1_rejects_bad_params(kw):
    with pytest.raises(ValueError):
        Dixon1Params(**kw)


def test_dixon2_derived_length():
    p = Dixon2Params(1.0, 2.0, 3.0)
    assert math.isclose(p.c, math.sqrt(12.0), rel_tol=1e-15)


def test_dixon2_structure(ref_dixon2):
    assert ref_dixon2.vertices == tuple(str(k) for k in range(1, 9))
    assert ref_dixon2.edges == tuple(
        (str(i), str(j)) for i in range(1, 5) for j in range(5, 9)
    )


def test_dixon2_motion_matches_closed_form(ref_dixon2):
    a, b, d = 1.0, 2.0, 3.0
    bx = np.sqrt(b * b - a * a * np.sin(TS) ** 2)
    dy = np.sqrt(d * d - a * a * np.cos(TS) ** 2)
    x_in = (a * np.cos(TS) + bx) / 2
    y_in = (a * np.sin(TS) + dy) / 2
    x_out = (-a * np.cos(TS) + bx) / 2
    y_out = (-a * np.sin(TS) + dy) / 2
    want = {
        "1": (x_in, y_in),
        "2": (-x_in, y_in),
        "3": (-x_in, -y_in),
        "4": (x_in, -y_in),
        "5": (x_out, y_out),
        "6": (-x_out, y_out),
        "7": (-x_out, -y_out),
        "8": (x_out, -y_out),
    }
    xs, ys, errors = sample_rows(ref_dixon2, range(len(ref_dixon2.vertices)), TS)
    assert not errors
    for v, (wx, wy) in want.items():
        w = ref_dixon2.vertices.index(v)
        assert np.allclose(xs[w], wx, atol=1e-14), v
        assert np.allclose(ys[w], wy, atol=1e-14), v


def test_dixon2_all_sixteen_lengths(ref_dixon2):
    p = Dixon2Params(1.0, 2.0, 3.0)
    report = validate_edge_lengths(ref_dixon2, samples=512, tol=1e-9)
    assert report.passed
    means = {s.edge: s.mean for s in report.edges}
    for i in range(1, 5):
        for j in range(5, 9):
            want = dixon2_expected_length(p, i, j)
            assert math.isclose(means[(str(i), str(j))], want, rel_tol=1e-12), (i, j)


@pytest.mark.parametrize(
    "kw",
    [
        dict(a=0.0, b=2.0, d=3.0),
        dict(a=1.0, b=1.0, d=3.0),
        dict(a=1.0, b=2.0, d=0.5),
        dict(a=1.0, b=math.inf, d=2.0),
        dict(a=1.0, b=1e200, d=2.0),  # b*b overflows
        dict(a=1.0, b=2.0, d=1e200),  # d*d overflows
        dict(a=1.0, b=1e154, d=1e154),  # b*b and d*d fit, c does not
    ],
)
def test_dixon2_rejects_bad_params(kw):
    with pytest.raises(ValueError):
        Dixon2Params(**kw)


def test_s2_structure(ref_s2):
    assert ref_s2.vertices == tuple(f"v{i}" for i in range(1, 9))
    assert ref_s2.edges == S2_EDGES
    assert len(ref_s2.edges) == 13


def test_s2_motion_matches_closed_form(ref_s2):
    a, b, c = 1.0, 11.0 / 5.0, 1.5
    ct, st = np.cos(TS), np.sin(TS)
    bx = np.sqrt(b * b - a * a * st**2)
    cy = np.sqrt(c * c - a * a * ct**2)
    want = {
        "v1": (-a * ct - bx, -a * st - cy),
        "v2": (a * ct - bx, -a * st + cy),
        "v3": (a * ct + bx, a * st + cy),
        "v4": (-a * ct + bx, -a * st + cy),
        "v5": (-a * ct + bx, a * st - cy),
        "v6": (-3 * a * ct + bx, -a * st - cy),
        "v7": (-3 * a * ct - bx, -a * st - 3 * cy),
        "v8": (-a * ct - bx, a * st + cy),
    }
    xs, ys, errors = sample_rows(ref_s2, range(len(ref_s2.vertices)), TS)
    assert not errors
    for v, (wx, wy) in want.items():
        w = ref_s2.vertices.index(v)
        assert np.allclose(xs[w], wx, atol=1e-14), v
        assert np.allclose(ys[w], wy, atol=1e-14), v


def test_s2_lengths_constant(ref_s2):
    report = validate_edge_lengths(ref_s2, samples=512, tol=1e-9)
    assert report.passed
    a, b, c = 1.0, 11.0 / 5.0, 1.5
    means = {s.edge: s.mean for s in report.edges}
    assert math.isclose(means[("v1", "v2")], 2 * c, rel_tol=1e-12)
    assert math.isclose(means[("v5", "v6")], 2 * a, rel_tol=1e-12)
    long = 2 * math.sqrt(b * b + c * c - a * a)
    assert math.isclose(means[("v7", "v6")], long, rel_tol=1e-12)


def test_s2_rejects_bad_params():
    with pytest.raises(ValueError, match="a must be positive"):
        S2Params(a=0)
    with pytest.raises(ValueError):
        S2Params(a=2.0, b=2.0, c=3.0)
    with pytest.raises(ValueError):
        S2Params(a=1.0, b=2.0, c=1.0)
    with pytest.raises(ValueError, match="c must be finite"):
        S2Params(c=math.inf)
    with pytest.raises(ValueError, match=r"c\*c \(c = 1e\+200\)"):
        S2Params(c=1e200)
