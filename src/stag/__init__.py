"""Spanning tree auxiliary graph toolkit.

Build Aux(G) of a connected simple graph, factor it over the Cartesian
product, decide whether an arbitrary graph is such an auxiliary graph,
reconstruct a minimal preimage, and audit the structural parameter
bounds. Brute-force oracles double-check everything at small scale."""

from .aux_graph import StagGraph, build_stag, stag_to_dot, stag_to_json
from .errors import (
    Disconnected,
    NotAStag,
    NotMinimal,
    ParseError,
    StagError,
    TooLarge,
    TooManyTrees,
    ValidationFailed,
)
from .factorization import Factorization, is_prime, prime_factorize
from .generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from .graph_core import (
    BlockDecomposition,
    Edge,
    Graph,
    are_isomorphic,
    block_decomposition,
    bridges,
    cartesian_product,
    complete_graph,
    cycle_graph,
    is_connected,
    is_two_connected,
    parse_graph,
    path_graph,
    single_vertex_graph,
    to_dot,
    to_edgelist,
    to_json,
)
from .params import ParamReport, param_report
from .recognition import enumerate_preimages, invert
from .spanning_trees import (
    SpanningTree,
    count_spanning_trees,
    enumerate_spanning_trees,
    serialize_trees,
)

__version__ = "0.1.0"
