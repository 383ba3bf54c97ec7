import json
import os
import subprocess
import sys

import pytest

import lmodel
from lmodel import cli, plan
from lmodel import exprs as E
from lmodel.cli import main
from lmodel.families import Dixon1Params, dixon1
from lmodel.motion import MovingGraph, load_graph, pairs_from_json, pairs_to_json, save_graph
from lmodel.plan import (
    CyclicGraphError,
    assign_heights,
    heights_from_json,
    make_partition,
    verify_collision_free,
)

from expected import (
    DIXON1_REF_EDGE_LABELS,
    DIXON1_REF_HEIGHTS,
    DIXON1_REF_PAIRS,
    DIXON1_REF_UPPER,
    S2_TRIANGLE,
)
from synth import TOO_DEEP, dixon1_rule_pairs, fake_pairs

REF_ARGS = [
    "generate", "--family", "dixon1", "--m", "4", "--n", "3",
    "--a", "1,2,3", "--b", "1,2", "--sx", "+,-,+", "--sy", "+,-",
]


def gen_ref(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    assert main(REF_ARGS + ["--out", str(gpath)]) == 0
    capsys.readouterr()
    return gpath


def detect_ref(tmp_path, capsys, gpath):
    ppath = tmp_path / "pairs.json"
    assert main(["detect", str(gpath), "--out", str(ppath)]) == 0
    capsys.readouterr()
    return ppath


def test_full_pipeline(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    ppath = tmp_path / "pairs.json"
    hpath = tmp_path / "heights.json"

    assert main(REF_ARGS + ["--out", str(gpath)]) == 0
    assert "7 vertices, 12 edges" in capsys.readouterr().err

    assert main(["validate", str(gpath)]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["pass"] is True
    assert report["isolated_vertices"] == []
    assert len(report["edges"]) == 12

    assert main(["detect", str(gpath), "--out", str(ppath)]) == 0
    err = capsys.readouterr().err
    assert "60 pairs probed, 6 collisions" in err
    assert "does not return" not in err
    data = json.loads(ppath.read_text())
    assert data["graph"] == str(gpath)
    got = tuple((p["vertex"], tuple(p["edge"])) for p in data["pairs"])
    assert got == DIXON1_REF_PAIRS

    assert main(["cgraph", str(gpath), str(ppath)]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("digraph C {")
    assert "12 nodes, 20 arcs, 6 two-cycles" in out.err

    assert main(
        ["plan", str(gpath), str(ppath), "--upper", ",".join(DIXON1_REF_UPPER),
         "--out", str(hpath)]
    ) == 0
    capsys.readouterr()
    heights, part = heights_from_json(hpath.read_text())
    assert heights == DIXON1_REF_HEIGHTS
    assert part.upper == DIXON1_REF_UPPER
    assert part.lower == DIXON1_REF_EDGE_LABELS[4:]

    assert main(["verify", str(gpath), str(ppath), str(hpath)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True

    assert main(["exists", str(gpath), str(ppath)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "YES"
    assert sorted(data["heights"].values()) == list(range(12))


def test_plan_without_upper_finds_a_partition(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    hpath = tmp_path / "heights.json"
    assert main(["plan", str(gpath), str(ppath), "--out", str(hpath)]) == 0
    capsys.readouterr()
    assert main(["verify", str(gpath), str(ppath), str(hpath)]) == 0


@pytest.mark.parametrize("k", [6, 10, 14])
def test_plan_splits_default_dixon1(k, tmp_path, capsys):
    # the README promises a split for every dixon1 instance; these sizes were
    # once refused with exit 2.  Detection takes seconds here, so the pairs
    # come from the geometric rule, which acceptance criterion 5 checks
    # against detect.
    gpath, ppath, hpath = (tmp_path / f for f in ("graph.json", "pairs.json", "heights.json"))
    assert main(["generate", "--family", "dixon1", "--m", str(k), "--n", str(k),
                 "--out", str(gpath)]) == 0
    p = Dixon1Params(k, k, range(1, k), range(1, k), [1] * (k - 1), [1] * (k - 1))
    ppath.write_text(pairs_to_json(fake_pairs(sorted(dixon1_rule_pairs(p))), str(gpath)))
    assert main(["plan", str(gpath), str(ppath), "--out", str(hpath)]) == 0
    assert main(["verify", str(gpath), str(ppath), str(hpath)]) == 0
    assert "0 violation(s)" in capsys.readouterr().err


def test_plan_and_exists_solve_default_dixon1_40x40(tmp_path, capsys):
    # 1560 pairs: both searches once ended in a RecursionError and exit 1
    gpath, ppath, hpath = (tmp_path / f for f in ("graph.json", "pairs.json", "heights.json"))
    p = Dixon1Params(40, 40, range(1, 40), range(1, 40), [1] * 39, [1] * 39)
    gpath.write_text(save_graph(dixon1(p)))
    ppath.write_text(pairs_to_json(fake_pairs(sorted(dixon1_rule_pairs(p))), str(gpath)))
    assert main(["plan", str(gpath), str(ppath), "--out", str(hpath)]) == 0
    assert main(["exists", str(gpath), str(ppath), "--out", str(tmp_path / "w.json")]) == 0
    assert main(["verify", str(gpath), str(ppath), str(hpath)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("upper", [[], ["--upper", ""]])
def test_plan_on_a_graph_without_edges(upper, tmp_path, capsys):
    # a graph without edges has an empty height table, which is a YES
    g = MovingGraph(("a",), (), {"a": (E.const(0.0), E.const(0.0))})
    gpath, ppath = tmp_path / "graph.json", tmp_path / "pairs.json"
    gpath.write_text(save_graph(g))
    ppath.write_text(pairs_to_json([], str(gpath)))
    assert main(["plan", str(gpath), str(ppath), *upper]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["heights"] == {}
    assert "error" not in out.err


def test_plan_rejects_cyclic_partition(tmp_path, capsys):
    # every edge upper, then q0-p0 alone upper: the report is the refusal
    # of assign_heights on the same split
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    g = load_graph(gpath.read_text())
    pairs = pairs_from_json(ppath.read_text(), g)
    for upper, side in ((DIXON1_REF_EDGE_LABELS, "upper"), (("q0-p0",), "lower")):
        assert main(["plan", str(gpath), str(ppath), "--upper", ",".join(upper)]) == 1
        out = capsys.readouterr()
        with pytest.raises(CyclicGraphError) as exc:
            assign_heights(g, pairs, make_partition(g.edge_labels, upper))
        cycle = exc.value.cycle
        assert (exc.value.side, cycle[0]) == (side, cycle[-1])
        assert json.loads(out.out) == {
            "result": "NO",
            "reason": "partition-not-acyclic",
            "side": side,
            "cycle": list(cycle),
        }
        assert out.err == f"plan: the given {side} class contains the cycle {' -> '.join(cycle)}\n"


def test_plan_upper_builds_the_collision_graph_once(tmp_path, capsys, monkeypatch):
    # assign_heights, the one check of a forced split, builds it
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    build, builds = plan.build_collision_graph, []

    def spy(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(cli, "build_collision_graph", spy)
    monkeypatch.setattr(plan, "build_collision_graph", spy)
    for upper, code in (
        (DIXON1_REF_EDGE_LABELS, 1), (("q0-p0",), 1), ((), 1), (DIXON1_REF_UPPER, 0)
    ):
        builds.clear()
        assert main(["plan", str(gpath), str(ppath), "--upper", ",".join(upper)]) == code
        capsys.readouterr()
        assert len(builds) == 1, upper


def test_plan_unknown_upper_label_is_usage_error(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    assert main(["plan", str(gpath), str(ppath), "--upper", "zz-zz"]) == 2
    assert "error:" in capsys.readouterr().err


def test_s2_flow(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    ppath = tmp_path / "pairs.json"
    assert main(["generate", "--family", "s2", "--out", str(gpath)]) == 0
    capsys.readouterr()
    assert main(["validate", str(gpath)]) == 0
    capsys.readouterr()

    assert main(["detect", str(gpath), "--out", str(ppath)]) == 0
    assert "14 collisions" in capsys.readouterr().err

    assert main(["plan", str(gpath), str(ppath)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "NO"
    assert data["reason"] == "not-bipartite"
    assert set(data["odd_cycle"]) == S2_TRIANGLE

    assert main(["exists", str(gpath), str(ppath)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "YES"
    g = load_graph(gpath.read_text())
    pairs = pairs_from_json(ppath.read_text(), g)
    assert verify_collision_free(g, pairs, data["heights"]).ok


def test_dixon2_flow(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    ppath = tmp_path / "pairs.json"
    assert main(
        ["generate", "--family", "dixon2", "--a", "1", "--b", "2", "--d", "3",
         "--out", str(gpath)]
    ) == 0
    capsys.readouterr()

    assert main(["detect", str(gpath), "--out", str(ppath)]) == 0
    assert "24 collisions" in capsys.readouterr().err

    assert main(["plan", str(gpath), str(ppath)]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "not-bipartite"

    assert main(["exists", str(gpath), str(ppath)]) == 1
    assert json.loads(capsys.readouterr().out) == {"result": "NO"}


def test_verify_reports_violations(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    hpath = tmp_path / "heights.json"
    broken = dict(DIXON1_REF_HEIGHTS)
    broken["q0-p3"] = 0
    hpath.write_text(json.dumps({"heights": broken}))
    assert main(["verify", str(gpath), str(ppath), str(hpath)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert {
        "vertex": "p0",
        "edge": ["q0", "p3"],
        "edge_height": 0,
        "range": [-4, 1],
    } in data["violations"]


def test_detect_is_deterministic(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["detect", str(gpath), "--out", str(p1)]) == 0
    assert main(["detect", str(gpath), "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_detect_on_a_graph_without_vertices(tmp_path, capsys):
    gpath = tmp_path / "empty.json"
    gpath.write_text('{"vertices": [], "edges": []}')
    assert main(["detect", str(gpath)]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["pairs"] == []
    assert "error" not in out.err


def test_detect_margin_flag(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = tmp_path / "pairs.json"
    assert main(["detect", str(gpath), "--report-margin", "--out", str(ppath)]) == 0
    capsys.readouterr()
    data = json.loads(ppath.read_text())
    assert data["margin"] > 1e-3


def test_detect_interval_override_warns(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = tmp_path / "pairs.json"
    assert main(
        ["detect", str(gpath), "--interval", "0:3.141592653589793", "--out", str(ppath)]
    ) == 0
    err = capsys.readouterr().err
    assert "does not return" in err
    data = json.loads(ppath.read_text())
    got = {(p["vertex"], tuple(p["edge"])) for p in data["pairs"]}
    assert got == set(DIXON1_REF_PAIRS) - {("p0", ("q0", "p2"))}


def test_detect_flags_ambiguous_band(tmp_path, capsys):
    g = MovingGraph(
        ("s0", "s1", "v"),
        (("s0", "s1"),),
        {
            "s0": (E.const(-1.0), E.const(0.0)),
            "s1": (E.const(1.0), E.const(0.0)),
            "v": (E.const(0.0), E.const(7.1e-4)),
        },
    )
    gpath = tmp_path / "graph.json"
    gpath.write_text(save_graph(g))
    ppath = tmp_path / "pairs.json"
    with pytest.warns(RuntimeWarning):
        assert main(["detect", str(gpath), "--out", str(ppath)]) == 0
    assert "AMBIGUOUS" in capsys.readouterr().err
    assert json.loads(ppath.read_text())["pairs"] == []


def test_validate_failing_graph(tmp_path, capsys):
    g = MovingGraph(
        ("a", "b"),
        (("a", "b"),),
        {
            "a": (E.parse_expression("sin(t)"), E.const(0.0)),
            "b": (E.const(2.0), E.const(0.0)),
        },
    )
    gpath = tmp_path / "graph.json"
    gpath.write_text(save_graph(g))
    assert main(["validate", str(gpath)]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["pass"] is False


def test_validate_names_the_first_vertex_failing_on_the_grid(tmp_path, capsys):
    # z fails first but is on no edge; b comes before c and its x fails
    # after its y and after c, yet b's x is the one reported
    g = MovingGraph(
        ("z", "a", "b", "c"),
        (("a", "b"), ("b", "c")),
        {
            "z": (E.parse_expression("sqrt(t-9)"), E.const(0.0)),
            "a": (E.parse_expression("sin(t)"), E.const(0.0)),
            "b": (E.parse_expression("1+sqrt(5-t)"), E.parse_expression("1/(t-t)")),
            "c": (E.parse_expression("sqrt(sin(t))"), E.const(0.0)),
        },
    )
    gpath = tmp_path / "graph.json"
    gpath.write_text(save_graph(g))
    assert main(["validate", str(gpath)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: vertex 'b': square root of a negative value in 'sqrt(5-t)' at t=5.004415694759475\n"
    )


def test_validate_mentions_isolated_vertices(tmp_path, capsys):
    g = MovingGraph(
        ("a", "b", "c"),
        (("a", "b"),),
        {
            "a": (E.const(0.0), E.const(0.0)),
            "b": (E.const(1.0), E.const(0.0)),
            "c": (E.const(5.0), E.const(5.0)),
        },
    )
    gpath = tmp_path / "graph.json"
    gpath.write_text(save_graph(g))
    assert main(["validate", str(gpath)]) == 0
    out = capsys.readouterr()
    assert "isolated vertices present: c" in out.err
    assert json.loads(out.out)["isolated_vertices"] == ["c"]


def test_malformed_pairs_file_is_usage_error(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = tmp_path / "pairs.json"
    entry = {"vertex": ["p0"], "edge": ["q0", "p1"], "t": 0.0, "gap": 0.0}
    ppath.write_text(json.dumps({"graph": str(gpath), "pairs": [entry]}))
    assert main(["plan", str(gpath), str(ppath)]) == 2
    assert "error: pair references unknown vertex ['p0']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "x", ["(" * 400 + "t" + ")" * 400, "+".join(["t"] * 3001)], ids=["parens", "sum"]
)
def test_too_deep_expression_is_usage_error(x, tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    vertices = [{"id": "a", "x": x, "y": "0"}, {"id": "b", "x": "1", "y": "0"}]
    gpath.write_text(json.dumps({"vertices": vertices, "edges": [["a", "b"]]}))
    assert main(["validate", str(gpath)]) == 2
    assert "nests deeper than 100 levels" in capsys.readouterr().err


def test_internal_error_is_not_a_no(tmp_path, capsys, monkeypatch):
    def broken(g, pairs):
        raise RuntimeError("internal error: witness failed verification")

    monkeypatch.setattr(cli, "exists_arrangement", broken)
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    assert main(["exists", str(gpath), str(ppath)]) == 2
    assert "RuntimeError: internal error: witness failed verification" in capsys.readouterr().err


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def huge(g, cfg):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "detect_all", huge)
    gpath = gen_ref(tmp_path, capsys)
    assert main(["detect", str(gpath), "--samples", "100000000000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"


def test_cgraph_dot_file(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    dpath = tmp_path / "c.dot"
    assert main(["cgraph", str(gpath), str(ppath), "--dot", str(dpath)]) == 0
    dot = dpath.read_text()
    assert dot.startswith("digraph C {")
    assert dot.count("[dir=none, color=red]") == 6


def test_generate_to_stdout(capsys):
    assert main(["generate", "--family", "dixon1", "--m", "2", "--n", "2"]) == 0
    out = capsys.readouterr()
    g = load_graph(out.out)
    assert g.vertices == ("p0", "p1", "q0", "q1")
    # default radii count up from 1, default signs are all positive
    x, _ = g.motion["p1"]
    assert "sqrt(1+" in E.to_text(x)


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--family", "dixon1", "--m", "3"],
        ["generate", "--family", "dixon1", "--m", "3", "--n", "2", "--a", "1"],
        ["generate", "--family", "dixon1", "--m", "3", "--n", "2", "--sx", "0,+"],
        ["generate", "--family", "dixon2", "--a", "1", "--b", "1", "--d", "3"],
        ["generate", "--family", "dixon2", "--a", "1", "--b", "2"],
        ["generate", "--family", "s2", "--a", "2", "--b", "2"],
    ],
)
def test_generate_rejects_bad_params(args, capsys):
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_skips_empty_sign_pieces(tmp_path, capsys):
    args = ["generate", "--family", "dixon1", "--m", "3", "--n", "2"]
    assert main([*args, "--sx=+,,-", "--out", str(tmp_path / "gaps.json")]) == 0
    assert main([*args, "--sx=+,-", "--out", str(tmp_path / "plain.json")]) == 0
    capsys.readouterr()
    gaps = (tmp_path / "gaps.json").read_text()
    assert gaps == (tmp_path / "plain.json").read_text()
    # the second sign puts p2 on the negative side
    assert E.to_text(load_graph(gaps).motion["p2"][0]).startswith("-")


@pytest.mark.parametrize(
    "args,want",
    [
        (["dixon2", "--a", "x", "--b", "2", "--d", "3"], "--a: expected a number, got 'x'"),
        (["dixon2", "--a", "1", "--b", "2", "--d", ""], "--d: expected a number, got ''"),
        (["s2", "--c", "1e"], "--c: expected a number, got '1e'"),
        (
            ["dixon1", "--m", "3", "--n", "2", "--b", "1,x"],
            "--b: expected comma-separated numbers, got '1,x'",
        ),
        (
            ["dixon1", "--m", "3", "--n", "2", "--a", "1;2"],
            "--a: expected comma-separated numbers, got '1;2'",
        ),
        (
            ["dixon1", "--m", "3", "--n", "2", "--sy", "x"],
            "--sy: signs must be '+' or '-', got 'x'",
        ),
    ],
    ids=["dixon2-a", "dixon2-d-empty", "s2-c", "dixon1-b", "dixon1-a", "dixon1-sy"],
)
def test_unparsable_family_option_is_named(args, want, tmp_path, capsys):
    assert main(["generate", "--family", *args, "--out", str(tmp_path / "graph.json")]) == 2
    err = capsys.readouterr().err
    assert f"error: {want}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "graph.json").exists()


def test_validate_scales_its_tolerance_by_long_edges(tmp_path, capsys):
    # lengths near 1e7 round by ~2e-9, above the default tol of 1e-9 but
    # well within 1e-9 of their length
    gpath = tmp_path / "graph.json"
    args = ["--family", "dixon1", "--m", "2", "--n", "2", "--a", "1e14", "--b", "1"]
    assert main(["generate", *args, "--out", str(gpath)]) == 0
    vpath = tmp_path / "validate.json"
    assert main(["validate", str(gpath), "--out", str(vpath)]) == 0
    data = json.loads(vpath.read_text())
    assert data["pass"] and data["tol"] == 1e-9
    assert max(e["max_deviation"] for e in data["edges"]) > 1e-9
    # a tolerance below the rounding still fails
    assert main(["validate", str(gpath), "--tol", "1e-17"]) == 1
    capsys.readouterr()


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_graph_json_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    gpath.write_text("{oops")
    assert main(["detect", str(gpath)]) == 2
    assert "error: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "plan"])
def test_json_nested_too_deeply_is_usage_error(command, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(TOO_DEEP)
    files = [deep] if command == "validate" else [gen_ref(tmp_path, capsys), deep]
    assert main([command, *map(str, files)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid JSON: nested too deeply\n"


def test_bad_interval_is_usage_error(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    assert main(["detect", str(gpath), "--interval", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw,want",
    [
        ("0:x", "--interval: expected a number, got 'x'"),
        ("0:1:2", "--interval: expected an interval 'a:b', got '0:1:2'"),
    ],
    ids=["endpoint", "shape"],
)
def test_unparsable_interval_is_named(raw, want, tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    assert main(["detect", str(gpath), "--interval", raw]) == 2
    err = capsys.readouterr().err
    assert f"error: {want}\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "raw,domain",
    [
        ("1:0", "(1.0, 0.0)"),
        ("0:0", "(0.0, 0.0)"),
        ("0:inf", "(0.0, inf)"),
        ("0:nan", "(0.0, nan)"),
    ],
    ids=["reversed", "empty", "infinite", "nan"],
)
def test_unusable_interval_names_the_rule(raw, domain, tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    assert main(["detect", str(gpath), "--interval", raw]) == 2
    err = capsys.readouterr().err
    want = f"error: --interval: bad time domain {domain}: it must be finite with a < b\n"
    assert want in err
    assert "Traceback" not in err


def test_interval_of_overflowing_width_names_the_rule(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    assert main(["detect", str(gpath), "--interval=-1.7e308:1.7e308"]) == 2
    err = capsys.readouterr().err
    want = "error: --interval: bad time domain (-1.7e+308, 1.7e+308): its width b - a overflows\n"
    assert want in err
    assert "Traceback" not in err


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "lmodel", "--help"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert b"usage" in proc.stdout.lower()


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--tol", "nan"],
        ["validate", "--tol", "inf"],
        ["detect", "--eps", "inf"],
        ["detect", "--eps", "nan"],
    ],
    ids=["tol-nan", "tol-inf", "eps-inf", "eps-nan"],
)
def test_non_finite_threshold_is_usage_error(args, tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    assert main([args[0], str(gpath), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


@pytest.mark.parametrize(
    "args,want",
    [
        (["dixon1", "--m", "3", "--n", "2", "--a", "1,inf"], "a entries must be finite, got inf"),
        (["dixon2", "--a", "1", "--b", "inf", "--d", "2"], "b must be finite, got inf"),
        # finite, but a square or the derived length overflows
        (["dixon2", "--a", "1", "--b", "1e200", "--d", "2"], "b*b (b = 1e+200) must be finite"),
        (["dixon2", "--a", "1", "--b", "2", "--d", "1e200"], "d*d (d = 1e+200) must be finite"),
        (["dixon2", "--a", "1", "--b", "1e154", "--d", "1e154"], "c (b = 1e+154, d = 1e+154)"),
        (["s2", "--c", "1e200"], "c*c (c = 1e+200) must be finite"),
    ],
    ids=[
        "dixon1-a-inf",
        "dixon2-b-inf",
        "dixon2-b-squared-overflows",
        "dixon2-d-squared-overflows",
        "dixon2-c-overflows",
        "s2-c-squared-overflows",
    ],
)
def test_non_finite_family_constant_is_usage_error(args, want, tmp_path, capsys):
    assert main(["generate", "--family", *args, "--out", str(tmp_path / "graph.json")]) == 2
    err = capsys.readouterr().err
    assert f"error: {want}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "graph.json").exists()


def test_exists_past_its_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    gpath, ppath = tmp_path / "graph.json", tmp_path / "pairs.json"
    p = Dixon1Params(6, 5, range(1, 6), range(1, 5), [1] * 5, [1] * 4)  # 30 edges
    gpath.write_text(save_graph(dixon1(p)))
    ppath.write_text(pairs_to_json(fake_pairs(sorted(dixon1_rule_pairs(p))), str(gpath)))
    monkeypatch.setattr(plan, "EXACT_SEARCH_BUDGET", 10)
    assert main(["exists", str(gpath), str(ppath)]) == 2
    assert "error: exact search ran past 10 expansions" in capsys.readouterr().err


# the library functions a tracer replaces on lmodel.cli (perfbench/cli_child.py)
TRACED = (
    "load_graph",
    "validate_edge_lengths",
    "detect_all",
    "build_collision_graph",
    "decide_partition",
    "assign_heights",
    "exists_arrangement",
    "verify_collision_free",
)


def test_commands_call_the_names_bound_on_cli(tmp_path, capsys, monkeypatch):
    calls = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED:
        monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    hpath = tmp_path / "heights.json"
    g, p = str(gpath), str(ppath)
    assert main(["validate", g]) == 0
    assert main(["plan", g, p, "--out", str(hpath)]) == 0
    assert main(["verify", g, p, str(hpath)]) == 0
    assert main(["exists", g, p]) == 0
    capsys.readouterr()
    assert set(calls) == set(TRACED)


def run_child(code, *args, cwd):
    """Run ``code`` in a fresh interpreter with lmodel importable."""
    src = os.path.dirname(os.path.dirname(lmodel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, timeout=120, env=env, cwd=cwd
    )


def test_planning_commands_never_import_numpy(tmp_path, capsys):
    gpath = gen_ref(tmp_path, capsys)
    ppath = detect_ref(tmp_path, capsys, gpath)
    vpath = tmp_path / "validate.json"
    assert main(["validate", str(gpath), "--out", str(vpath)]) == 0
    capsys.readouterr()
    g, p, out = str(gpath), str(ppath), tmp_path / "child"
    out.mkdir()
    runs = [
        ["cgraph", g, p, "--dot", str(out / "c.dot")],
        ["plan", g, p, "--out", str(out / "heights.json")],
        ["verify", g, p, str(out / "heights.json"), "--out", str(out / "verify.json")],
        ["exists", g, p, "--out", str(out / "exists.json")],
        REF_ARGS + ["--out", str(out / "graph.json")],
        ["validate", g, "--out", str(out / "validate.json")],
        ["detect", g, "--out", str(out / "pairs.json")],
    ]
    child = (
        "import json, sys\n"
        "from lmodel.cli import main\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv)\n"
        "    seen.append([code, sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('numpy', 'lmodel'))])\n"
        "print(json.dumps(seen))\n"
    )
    proc = run_child(child, json.dumps(runs), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert [code for code, _ in seen] == [0] * len(runs)
    numeric = {"numpy", "lmodel.collide", "lmodel.sampling", "lmodel.numeric"}
    for k, (_, modules) in enumerate(seen[:5]):
        assert not numeric & set(modules), runs[k][0]
        assert ("lmodel.families" in modules) == (k == 4), runs[k][0]
    assert numeric <= set(seen[-1][1])
    # the same output as the commands run in this process, which loaded numpy first
    assert (out / "graph.json").read_text() == gpath.read_text()
    assert (out / "validate.json").read_text() == vpath.read_text()
    assert (out / "pairs.json").read_text() == ppath.read_text()


@pytest.fixture(scope="module")
def ref_files(tmp_path_factory):
    """The README K(4,3) graph, its pairs and its heights, as files."""
    d = tmp_path_factory.mktemp("ref")
    g, p, h = (str(d / name) for name in ("graph.json", "pairs.json", "heights.json"))
    assert main(REF_ARGS + ["--out", g]) == 0
    assert main(["detect", g, "--out", p]) == 0
    assert main(["plan", g, p, "--out", h]) == 0
    return d


@pytest.fixture(scope="module")
def startup_modules(ref_files):
    """The modules a fresh interpreter holds before it runs anything."""
    proc = run_child("import json, sys; print(json.dumps(sorted(sys.modules)))", cwd=ref_files)
    return set(json.loads(proc.stdout))


# the lmodel modules each command runs; every command runs these
LAUNCH_CORE = {"lmodel", "lmodel.cli", "lmodel.exprs", "lmodel.motion"}
LAUNCHES = {
    "generate": (REF_ARGS[1:] + ["--out", "out.json"], {"lmodel.families"}),
    "validate": (["graph.json", "--out", "out.json"], {"lmodel.numeric"}),
    "detect": (
        ["graph.json", "--out", "out.json"],
        {"lmodel.collide", "lmodel.interval", "lmodel.numeric", "lmodel.sampling"},
    ),
    "cgraph": (["graph.json", "pairs.json", "--dot", "out.dot"], {"lmodel.cgraph"}),
    "plan": (["graph.json", "pairs.json", "--out", "out.json"], {"lmodel.cgraph", "lmodel.plan"}),
    "verify": (
        ["graph.json", "pairs.json", "heights.json", "--out", "out.json"],
        {"lmodel.cgraph", "lmodel.plan"},
    ),
    "exists": (["graph.json", "pairs.json", "--out", "out.json"], {"lmodel.cgraph", "lmodel.plan"}),
}

LAUNCH = (
    "import json, sys\n"
    "from lmodel.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)


@pytest.mark.parametrize("command", LAUNCHES)
def test_each_launch_loads_only_what_its_command_runs(command, ref_files, startup_modules):
    args, own = LAUNCHES[command]
    proc = run_child(LAUNCH, command, *args, cwd=ref_files)
    assert proc.returncode == 0, proc.stderr.decode()
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr.decode()
    loaded = set(modules) - startup_modules
    assert {m for m in loaded if m.split(".")[0] == "lmodel"} == LAUNCH_CORE | own
    assert "dataclasses" not in loaded
    assert ("numpy" in loaded) == (command in ("validate", "detect"))


@pytest.mark.parametrize("command", ["validate", "detect"])
def test_missing_numpy_is_one_line(command, ref_files):
    # a None entry in sys.modules makes every import of numpy fail as if absent
    child = "import sys\nsys.modules['numpy'] = None\n" + LAUNCH
    proc = run_child(child, command, "graph.json", cwd=ref_files)
    err = proc.stderr.decode()
    assert proc.returncode == 0, err
    assert json.loads(proc.stdout)[0] == 2
    assert err.startswith(f"error: {command} needs numpy (")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


# the module that each timed command's work lives in
TIMED = {
    "validate": "lmodel.numeric",
    "detect": "lmodel.collide",
    "plan": "lmodel.plan",
    "exists": "lmodel.plan",
}


@pytest.mark.parametrize("command", TIMED)
def test_command_timings_leave_out_the_imports(command, ref_files):
    # each clock read in cli records whether the command's module is loaded yet
    child = (
        "import json, sys, time\n"
        "clock, seen = time.perf_counter, []\n"
        "def perf_counter():\n"
        "    if sys._getframe(1).f_globals['__name__'] == 'lmodel.cli':\n"
        f"        seen.append({TIMED[command]!r} in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = perf_counter\n"
        "from lmodel.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, seen]))\n"
    )
    proc = run_child(child, command, *LAUNCHES[command][0], cwd=ref_files)
    assert proc.returncode == 0, proc.stderr.decode()
    code, seen = json.loads(proc.stdout)
    assert code == 0, proc.stderr.decode()
    assert seen and all(seen), seen
