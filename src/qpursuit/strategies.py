"""Builtin strategies: the constructions each game model is analysed with."""

from __future__ import annotations

import inspect

import numpy as np

from .engine import (
    ControlledInit,
    GameError,
    GameModel,
    Strategy,
    replay_answers,
)
from .graphs import (
    Digraph,
    GraphError,
    copwin_value_tables,
    cycle_graph,
    dominates,
    dominating_set,
    neighbors,
    universal_vertex,
)
from .operators import (
    ATOL,
    ControlledOp,
    certify_blocks,
    identity_unitary,
    _c4_collapse_matrix,
)


def uniform_spread(g: Digraph) -> Strategy:
    """Uniform initial state with identity moves; pins p_copwin at 1/n from either side."""
    return Strategy(init="uniform", move=None, name="uniform_spread")


def universal_vertex_catch(g: Digraph, vertex: int = None) -> Strategy:
    """Cop plan for the quantum controlled game on a graph with a universal vertex.

    Start on the universal vertex and, in round one, swap with whatever the
    robber register holds; the joint state lands on the diagonal and the
    capture probability is 1 whatever separable state the Robber chose.
    """
    hub = universal_vertex(g) if vertex is None else vertex
    if hub is None:
        raise GraphError("graph has no universal vertex")
    if neighbors(g, hub) != set(range(g.n)):
        raise GraphError(f"vertex {hub} is not universal")
    if bad := np.flatnonzero(~g.adjacency[:, hub]).tolist():
        raise GraphError(f"transposition needs mutually adjacent vertices, got {bad[0]}, {hub}")
    # the swaps of (v, hub) and the hub's identity, an empty block
    swap, none = np.array([[0, 1], [1, 0]]), np.zeros((0, 0))
    blocks = certify_blocks([none if v == hub else swap for v in range(g.n)], g,
                            [() if v == hub else (v, hub) for v in range(g.n)])
    entangler = ControlledOp(tuple(blocks), "robber", g)

    def move(ctx):
        return entangler if ctx.round == 1 else None

    return Strategy(init=hub, move=move, role="cop", model=GameModel.QUANTUM_CONTROLLED,
                    name="universal_vertex_catch", params={"vertex": hub})


def _require_c4(g: Digraph):
    if g != cycle_graph(4):
        raise GraphError("this strategy is specific to the reflexive 4-cycle on vertices 0..3")


def _recentred_collapse(amps: np.ndarray, target: int) -> np.ndarray:
    """Unitary matrix on the 4-cycle sending the normalized amps (supported off target+2) onto
    |target>, uncertified: ControlledOp certifies it with the other blocks of its move.

    amps must live on the closed neighbourhood of target; the collapse matrix
    is written for target 1 and conjugated by the cycle rotation that moves 1
    onto the requested target.
    """
    shift = (target - 1) % 4
    dd = amps[(np.arange(4) + shift) % 4]  # dd[j] = amps[j + shift]
    trio = np.linalg.norm(dd[:3])
    params = (
        abs(dd[0]) / trio, float(np.angle(dd[0])),
        abs(dd[1]) / trio, float(np.angle(dd[1])),
        abs(dd[2]) / trio, float(np.angle(dd[2])),
    )
    back = (np.arange(4) - shift) % 4  # entry (i, j) is the target-1 matrix's (i - shift, j - shift)
    return _c4_collapse_matrix(params)[np.ix_(back, back)]


def _antipodal_response(g: Digraph, joint: np.ndarray) -> ControlledOp:
    """The Robber's move, controlled on the Cop, that collapses each column c of the joint table
    [r, c] back onto r = c + 2; refused if the Cop's amplitude reached the Robber's vertex."""
    table = joint.reshape(4, 4)
    blocks = []
    for c in range(4):
        conditional = table[:, c].copy()
        weight = np.linalg.norm(conditional)
        if weight <= 1e-12:
            blocks.append(identity_unitary(g))
            continue
        conditional /= weight
        if abs(conditional[c]) > ATOL:
            raise GameError(
                "cop amplitude reached the robber's vertex: the conditional state "
                "left the expected neighbourhood, which signals an illegal cop move"
            )
        blocks.append(_recentred_collapse(conditional, (c + 2) % 4))
    return ControlledOp(tuple(blocks), "cop", g)


def c4_antipodal_evasion(g: Digraph) -> Strategy:
    """Robber plan on the reflexive 4-cycle that keeps capture probability at zero.

    The initial preparation entangles antipodally (cop at v, robber at v+2).
    After each Cop move the conditional robber states sit on the neighbourhood
    of the antipode, and a re-centred collapse restores the antipodal form.
    Its moves are the answers to the declared Cop, replayed in prepare.
    """
    _require_c4(g)
    init = ControlledInit(np.roll(np.eye(4), 2, axis=0))  # column v is |v + 2>
    answers = []

    def prepare(ctx):
        answers.clear()  # a move asked for during the replay finds none
        answers.extend(replay_answers(g, ctx.opponent, init, ctx.rounds,
                                      lambda joint: _antipodal_response(g, joint)))

    def move(ctx):
        if not answers:
            raise GameError("antipodal evasion needs the pre-game prepare step")
        return answers[ctx.round - 1]

    return Strategy(init=init, move=move, prepare=prepare, role="robber",
                    model=GameModel.QUANTUM_CONTROLLED, name="c4_antipodal_evasion")


def c4_unfair_cop(g: Digraph) -> Strategy:
    """Cop plan for the unfair 4-cycle game against a local Robber: capture at 3/4.

    Starting uniform, the Cop collapses his three-neighbour component onto
    the robber register's value; the diagonal amplitudes come out as
    sqrt(3/4) times the Robber's, independent of the Robber's choice.
    """
    _require_c4(g)
    uniform = np.full(4, 0.5, dtype=complex)
    blocks = [_recentred_collapse(uniform, i) for i in range(4)]
    op = ControlledOp(tuple(blocks), "robber", g)

    def move(ctx):
        return op if ctx.round == 1 else None

    return Strategy(init="uniform", move=move, role="cop",
                    model=GameModel.QUANTUM_CONTROLLED, name="c4_unfair_cop")


_VERTEX_COLLECTIONS = (list, tuple, set, frozenset)


def dominating_set_sweep(g: Digraph, set=None) -> Strategy:
    """Package a dominating set as the unfair-pursuit cop policy.

    The parameter carries the name of its JSON key; by default the set is
    the greedy dominating_set(g).
    """
    dset = dominating_set(g) if set is None else set
    if not isinstance(dset, _VERTEX_COLLECTIONS):
        raise GraphError(f"dominating set must be a list of vertices, got {dset!r}")
    if not dominates(g, dset):
        raise GraphError(f"set {sorted(dset)} does not dominate the graph")
    return Strategy(role="cop", model=GameModel.UNFAIR_PROBABILISTIC, name="dominating_set_sweep",
                    params={"dominating_set": tuple(sorted({int(d) for d in dset}))})


def classical_pursuit(g: Digraph, cap: int = 10) -> Strategy:
    """Cop plan read off the backward-induction tables; wins on cop-win graphs.

    The cop starts on a row of vc with the least largest value m and from
    any cell moves to minimise the robber-to-move capture time.  Each
    half-move takes the capture time down by at least one, so against every
    robber the cop stands on the robber after ceil(m / 2) rounds, at most
    ceil(max vc / 2); a robber who steps off the cop's cell stands at time
    1 and is caught again by the next cop move.
    """
    vc, vr = copwin_value_tables(g, cap)
    start = int(np.argmin(vc.max(axis=1)))
    if not np.isfinite(vc[start]).all():
        raise GraphError("graph is not cop-win")

    def move(ctx):
        c, r = ctx.cop_state, ctx.robber_state
        if c == r:
            return c
        return min(g.out_adj[c], key=lambda c2: (vr[c2, r], c2))

    return Strategy(init=start, move=move, role="cop", model=GameModel.CLASSICAL,
                    name="classical_pursuit")


BUILTINS = {
    "uniform_spread": uniform_spread,
    "universal_vertex_catch": universal_vertex_catch,
    "c4_antipodal_evasion": c4_antipodal_evasion,
    "c4_unfair_cop": c4_unfair_cop,
    "dominating_set_sweep": dominating_set_sweep,
    "classical_pursuit": classical_pursuit,
}


def build_strategy(name: str, g: Digraph, params: dict = None) -> Strategy:
    """Instantiate a builtin strategy by name; the JSON params are its keyword arguments."""
    if name not in BUILTINS:
        raise GameError(f"unknown builtin strategy '{name}'; known: {sorted(BUILTINS)}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise GameError(f"params of builtin '{name}' must be an object, got {params!r}")
    builder = BUILTINS[name]
    try:
        inspect.signature(builder).bind(g, **params)
    except TypeError as exc:
        raise GameError(f"builtin '{name}' does not take params {sorted(params)}: {exc}") from None
    return builder(g, **params)
