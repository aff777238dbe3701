"""Bounds on the sequential topological complexity of unordered graph
configuration spaces, with machine-checked free-group lemmas."""

from .graph_core import (
    Graph,
    GraphFormatError,
    HypothesisError,
    VertexClassification,
    classify,
    components_without,
    graph_from_data,
    load_graph,
    valence,
)
from .free_groups import (
    FoldedAutomaton,
    FreeHom,
    FreeWord,
    apply_hom,
    commutator,
    concat,
    contains,
    disjoint_conjugates_bruteforce,
    generator,
    identity,
    inverse,
    pullback,
    reduce_word,
    restriction_injective,
    stallings_core,
    subgroup_rank,
)
from .local_graphs import (
    EquivRelation,
    FreeBasis,
    LambdaGraph,
    build_lambda,
    free_basis,
    local_quotient,
    pi1_rank,
    sink_stabilization,
    star_commutator_subgroups,
    trivalent_product_subgroups,
)
from .discrete_config import (
    BettiVector,
    CellBudgetError,
    ChainComplex,
    betti,
    build_complex,
    nonvanishing_check,
)
from .tc_bounds import (
    BoundReport,
    lower_bound,
    stable_report,
)

__version__ = "0.1.0"
