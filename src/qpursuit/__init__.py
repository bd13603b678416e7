"""Classical, probabilistic and quantum Cop-and-Robber games on reflexive digraphs.

The package's public names are resolved on first use (PEP 562): importing qpursuit loads none of
its layers, and qpursuit.NAME imports the one module _EXPORTS names for NAME, so a command loads
only the layers it runs.
"""

import importlib

# the module of the package that defines each public name
_EXPORTS = {
    "ControlledInit": "engine",
    "GameError": "engine",
    "GameModel": "engine",
    "GameTrace": "engine",
    "MoveContext": "engine",
    "PrepareContext": "engine",
    "Strategy": "engine",
    "p_copwin_joint": "engine",
    "p_copwin_probabilistic": "engine",
    "p_copwin_separable": "engine",
    "play": "engine",
    "play_unfair_probabilistic": "engine",
    "qc_initial_joint": "engine",
    "qc_step": "engine",
    "replay_answers": "engine",
    "MAX_VERTICES": "graphs",
    "Digraph": "graphs",
    "GraphError": "graphs",
    "SpanningTree": "graphs",
    "complete_graph": "graphs",
    "copwin_value_tables": "graphs",
    "cycle_graph": "graphs",
    "digraph": "graphs",
    "dominates": "graphs",
    "dominating_set": "graphs",
    "graph_from_json": "graphs",
    "has_arc": "graphs",
    "is_connected": "graphs",
    "is_copwin_dismantle": "graphs",
    "is_corner": "graphs",
    "is_reversible": "graphs",
    "neighbors": "graphs",
    "path_graph": "graphs",
    "random_connected_graph": "graphs",
    "reverse_digraph": "graphs",
    "solve_copwin_game": "graphs",
    "spanning_tree": "graphs",
    "star_graph": "graphs",
    "universal_vertex": "graphs",
    "ATOL": "operators",
    "ATOL_DERIVED": "operators",
    "CertificationError": "operators",
    "ControlledOp": "operators",
    "Entries": "operators",
    "GraphStochastic": "operators",
    "GraphUnitary": "operators",
    "OpReport": "operators",
    "apply_sequence": "operators",
    "basis_state": "operators",
    "certify_blocks": "operators",
    "certify_stochastic": "operators",
    "certify_unitary": "operators",
    "gather_unitary": "operators",
    "haar_unitary": "operators",
    "identity_unitary": "operators",
    "is_graph_preserving_stochastic": "operators",
    "is_graph_preserving_unitary": "operators",
    "reach_sequence": "operators",
    "sample_controlled_op": "operators",
    "sample_graph_stochastic": "operators",
    "sample_graph_unitary": "operators",
    "sample_path3_blocks": "operators",
    "state_vector": "operators",
    "transposition_unitary": "operators",
    "uniform_state": "operators",
    "Scenario": "scenario",
    "controlled_op_from_json": "scenario",
    "operator_from_json": "scenario",
    "operators_to_text": "scenario",
    "run_scenario": "scenario",
    "scenario_from_json": "scenario",
    "state_from_json": "scenario",
    "state_to_json": "scenario",
    "trace_to_text": "scenario",
    "BUILTINS": "strategies",
    "build_strategy": "strategies",
    "c4_antipodal_evasion": "strategies",
    "c4_unfair_cop": "strategies",
    "classical_pursuit": "strategies",
    "dominating_set_sweep": "strategies",
    "uniform_spread": "strategies",
    "universal_vertex_catch": "strategies",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
