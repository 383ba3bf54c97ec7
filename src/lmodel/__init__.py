"""Collision detection and integer layer planning for planar moving graphs.

A moving graph has vertices on closed-form planar trajectories and edges of
constant length.  This package finds every moment a vertex crosses an edge,
turns those events into a directed collision graph, and then either
constructs a collision-free integer height per edge or proves that none
exists.

``_EXPORTS`` below is the one table of which module defines each library
name; :mod:`lmodel.cli` resolves its names through it too.  Each name is
imported from its module on first use (PEP 562), so ``import lmodel``
loads nothing, and numpy is loaded only by the modules that evaluate
trajectories: :mod:`lmodel.numeric`, :mod:`lmodel.sampling` and
:mod:`lmodel.collide`.
"""
from importlib import import_module

_EXPORTS = {
    "cgraph": ("CollisionGraph", "build_collision_graph", "to_dot"),
    "collide": (
        "DetectionConfig",
        "DetectionResult",
        "PairProbe",
        "detect_all",
        "detect_pair",
        "gap",
    ),
    "exprs": ("Expr", "ExprDomainError", "ExprSyntaxError", "parse_expression", "to_text"),
    "families": ("Dixon1Params", "Dixon2Params", "S2Params", "dixon1", "dixon2", "s2"),
    "motion": (
        "CollisionPair",
        "DetectionError",
        "GraphFormatError",
        "MovingGraph",
        "SearchCapError",
        "edge_label",
        "load_graph",
        "pairs_from_json",
        "pairs_to_json",
        "save_graph",
    ),
    "numeric": ("LengthReport", "eval_position", "evaluate", "validate_edge_lengths"),
    "plan": (
        "CyclicGraphError",
        "Partition",
        "PartitionDecision",
        "VerifyReport",
        "Violation",
        "assign_heights",
        "decide_partition",
        "dixon1_heights",
        "exists_arrangement",
        "heights_from_json",
        "heights_to_json",
        "make_partition",
        "verify_collision_free",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = next((module for module, names in _EXPORTS.items() if name in names), None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
