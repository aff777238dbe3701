"""Bounds on the sequential topological complexity of unordered graph
configuration spaces, with machine-checked free-group lemmas.  Each name
below is imported from its module on first use (PEP 562)."""

from importlib import import_module as _import_module

_EXPORTS = {  # module -> the names it exports here
    "graph_core": "Graph GraphFormatError HypothesisError VertexClassification classify "
    "components_without graph_from_data load_graph valence",
    "free_groups": "FoldedAutomaton FreeHom FreeWord apply_hom commutator concat contains "
    "disjoint_conjugates_bruteforce generator identity inverse pullback reduce_word "
    "restriction_injective stallings_core subgroup_rank",
    "local_graphs": "EquivRelation FreeBasis LambdaGraph build_lambda free_basis local_quotient "
    "pi1_rank sink_stabilization star_commutator_subgroups trivalent_product_subgroups",
    "discrete_config": "BettiVector CellBudgetError ChainComplex betti build_complex "
    "nonvanishing_check",
    "tc_bounds": "BoundReport lower_bound stable_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
