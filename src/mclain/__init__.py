"""Exact arithmetic and structure theory for groups built from finite relations.

A finite relation satisfying two structural axioms indexes a sparse
algebra of nilpotent coefficient maps over a coefficient ring; the
units 1 + x of that algebra form the group this package computes in.
The public surface covers the coefficient rings, the relation calculus,
group element arithmetic, central series, factorization into generator
products and quotients, and a command line front end.

Each public name is listed once below, with the module that defines it.
That module is imported when the name is first read (PEP 562), so a
program compiles only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "AxiomReport": "relations",
    "Comm": "elements",
    "ExchangeViolation": "relations",
    "FactorReport": "series",
    "Gen": "elements",
    "GeneratorWord": "elements",
    "GroupElement": "elements",
    "Integers": "rings",
    "IntegersMod": "rings",
    "Inv": "elements",
    "InvariantError": "relations",
    "Matrices2x2Mod": "rings",
    "McLainGroup": "elements",
    "NgonReport": "factorization",
    "OrderedForm": "factorization",
    "Pair": "relations",
    "ParseError": "relations",
    "ReflexiveViolation": "relations",
    "Relation": "relations",
    "Ring": "rings",
    "RingError": "rings",
    "RingValue": "rings",
    "SubsetChain": "relations",
    "bracket": "relations",
    "center_support": "series",
    "chain": "relations",
    "check_axioms": "relations",
    "closure": "relations",
    "coset_representative": "factorization",
    "demonstrate_ngon_obstruction": "factorization",
    "difference": "relations",
    "format_chain_lines": "series",
    "format_relation": "relations",
    "format_word": "elements",
    "from_pairs": "relations",
    "gamma_series": "relations",
    "has_maximal": "relations",
    "has_minimal": "relations",
    "is_closed": "relations",
    "is_normal": "relations",
    "isolated": "relations",
    "lower_central_series": "series",
    "minimal_closed_support": "factorization",
    "ngon": "relations",
    "ngon_diagonals": "relations",
    "ngon_edges": "relations",
    "nilpotency_class": "series",
    "normal_closure": "relations",
    "ordered_factorization": "factorization",
    "parse_element_expression": "parsing",
    "parse_normal_form": "parsing",
    "parse_order_file": "parsing",
    "parse_order_text": "parsing",
    "parse_relation_file": "relations",
    "parse_relation_text": "relations",
    "parse_ring_spec": "rings",
    "quotient_project": "factorization",
    "random_pruned_order": "relations",
    "random_relation": "relations",
    "require_valid": "relations",
    "spanned_nodes": "relations",
    "upper_central_series": "series",
    "word_factorization": "factorization",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
