"""Collision detection and integer layer planning for planar moving graphs.

A moving graph has vertices on closed-form planar trajectories and edges of
constant length.  This package finds every moment a vertex crosses an edge,
turns those events into a directed collision graph, and then either
constructs a collision-free integer height per edge or proves that none
exists.
"""

from .cgraph import (
    BipartiteResult,
    CollisionGraph,
    MultiEdgedSubgraph,
    bipartition,
    build_collision_graph,
    induced,
    is_acyclic,
    multi_edged_subgraph,
    to_dot,
)
from .collide import (
    CollisionPair,
    DetectionConfig,
    DetectionError,
    DetectionResult,
    PairProbe,
    detect_all,
    detect_pair,
    gap,
    golden_minimize,
    pairs_from_json,
    pairs_to_json,
)
from .exprs import (
    Expr,
    ExprDomainError,
    ExprSyntaxError,
    evaluate,
    parse_expression,
    to_text,
)
from .families import Dixon1Params, Dixon2Params, S2Params, dixon1, dixon2, s2
from .motion import (
    GraphFormatError,
    LengthReport,
    MovingGraph,
    edge_label,
    eval_position,
    load_graph,
    save_graph,
    validate_edge_lengths,
)
from .plan import (
    CyclicGraphError,
    Partition,
    PartitionDecision,
    SearchCapError,
    VerifyReport,
    Violation,
    assign_heights,
    decide_partition,
    dixon1_heights,
    exists_arrangement,
    heights_down,
    heights_from_json,
    heights_to_json,
    heights_up,
    make_partition,
    partition_is_valid,
    split_layers,
    verify_collision_free,
)

__version__ = "0.1.0"
