"""Game execution for the four models plus the unfair probabilistic pursuit.

Order of play is shared by every model: the Cop fixes his initial state,
the Robber answers, and each round runs Cop's operation then Robber's.
The final round stops after the Cop's operation, and only then is the
capture probability evaluated; there is no mid-game measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .graphs import Digraph, GraphError, dominates
from .operators import (
    ATOL,
    ControlledOp,
    GraphStochastic,
    GraphUnitary,
    QuantumState,
    is_graph_preserving_stochastic,
    is_graph_preserving_unitary,
    state_vector,
)


class GameError(ValueError):
    """A strategy or play request breaks the rules of the chosen model."""


class GameModel(str, Enum):
    CLASSICAL = "classical"
    OPEN_PROBABILISTIC = "open_probabilistic"
    CLASSICAL_QUANTUM = "classical_quantum"
    QUANTUM_CONTROLLED = "quantum_controlled"


@dataclass
class MoveContext:
    """Public information handed to a move callback.

    Open models expose both players' current states; the quantum controlled
    model hands out the round number only, so strategies there must be
    functions of the round index alone.
    """

    round: int
    role: str
    graph: Digraph
    rounds: int
    cop_state: object = None
    robber_state: object = None


@dataclass
class PrepareContext:
    """Pre-game information: both declared strategies may inspect each other."""

    graph: Digraph
    rounds: int
    role: str
    opponent: "Strategy"


@dataclass
class ControlledInit:
    """Robber preparation conditioned on the cop register: column v holds chi_v."""

    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)


@dataclass
class Strategy:
    """One player's declared plan.

    init: a vertex index, a probability vector, a QuantumState (or raw
    amplitude vector), the string "uniform", a callable producing one of
    those, or a ControlledInit (quantum controlled Robber only).  move: a
    callable(MoveContext) -> operation, a list of per-round operations, or
    None for identity moves; a callable may also return None to fall back to
    the identity.  prepare: optional callable(PrepareContext) run before the
    game; in the quantum controlled model it is the only place a strategy
    sees its opponent.
    """

    init: object = "uniform"
    move: object = None
    prepare: object = None
    role: str = None
    model: GameModel = None
    name: str = ""
    params: dict = field(default_factory=dict)


@dataclass
class GameTrace:
    """Round-by-round record of one play.

    history holds (stage, round, snapshot) with stage in {"init", "cop",
    "robber"}; snapshots are dicts of positions, probability vectors, local
    amplitude vectors, or the joint state under key "joint".
    """

    model: GameModel
    rounds: int
    p_copwin: float
    history: list


def p_copwin_joint(joint, n: int) -> float:
    """Probability of measuring both registers at the same vertex (layout r*n + c)."""
    a = state_vector(joint)
    if a.shape[0] != n * n:
        raise ValueError(f"joint dimension {a.shape[0]} is not {n}^2")
    if abs(np.linalg.norm(a) - 1.0) > ATOL:
        raise ValueError("joint state is not normalized")
    return float(np.sum(np.abs(a.reshape(n, n).diagonal()) ** 2))


def p_copwin_separable(robber, cop) -> float:
    """sum_v |r_v c_v|^2 for local states; equals the joint formula on their product."""
    r = state_vector(robber)
    c = state_vector(cop)
    if r.shape != c.shape:
        raise ValueError("state dimensions differ")
    for vec in (r, c):
        if abs(np.linalg.norm(vec) - 1.0) > ATOL:
            raise ValueError("states must be normalized")
    return float(np.sum(np.abs(r * c) ** 2))


def p_copwin_probabilistic(p_robber, p_cop) -> float:
    """Inner product of the two position distributions."""
    pr = np.asarray(p_robber, dtype=float)
    pc = np.asarray(p_cop, dtype=float)
    if pr.shape != pc.shape:
        raise ValueError("distribution dimensions differ")
    for vec in (pr, pc):
        if abs(vec.sum() - 1.0) > ATOL or vec.min() < -ATOL:
            raise ValueError("inputs must be probability vectors")
    return float(pr @ pc)


def _move_source(strategy: Strategy):
    if strategy.move is None:
        return lambda ctx: None
    if callable(strategy.move):
        return strategy.move
    seq = list(strategy.move)

    def from_list(ctx):
        if ctx.round > len(seq):
            raise GameError(f"strategy provides {len(seq)} moves but round {ctx.round} was requested")
        return seq[ctx.round - 1]

    return from_list


def _resolve_init(init, ctx):
    return init(ctx) if callable(init) and not isinstance(init, ControlledInit) else init


def _prob_vector(init, n: int) -> np.ndarray:
    if isinstance(init, str) and init == "uniform":
        return np.full(n, 1.0 / n)
    if isinstance(init, (int, np.integer)):
        if not 0 <= init < n:
            raise GameError(f"initial vertex {init} out of range")
        vec = np.zeros(n)
        vec[init] = 1.0
        return vec
    vec = np.asarray(init, dtype=float).reshape(-1)
    if vec.shape != (n,) or abs(vec.sum() - 1.0) > ATOL or vec.min() < -ATOL:
        raise GameError("initial distribution is not a probability vector of the right size")
    return vec


def _amp_vector(init, n: int) -> np.ndarray:
    if isinstance(init, str) and init == "uniform":
        return np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    if isinstance(init, (int, np.integer)):
        if not 0 <= init < n:
            raise GameError(f"initial vertex {init} out of range")
        vec = np.zeros(n, dtype=complex)
        vec[init] = 1.0
        return vec
    vec = state_vector(init)
    if vec.shape != (n,) or abs(np.linalg.norm(vec) - 1.0) > ATOL:
        raise GameError("initial amplitudes are not a normalized vector of the right size")
    return vec


def _check_strategy(strategy: Strategy, role: str, model: GameModel):
    if strategy.role is not None and strategy.role != role:
        raise GameError(f"strategy '{strategy.name or '?'}' is for the {strategy.role}, used as {role}")
    if strategy.model is not None and strategy.model != model:
        raise GameError(
            f"strategy '{strategy.name or '?'}' targets model {strategy.model}, game is {model.value}"
        )


def _stochastic_matrix(op, g: Digraph) -> np.ndarray:
    # validate before dropping any imaginary part, so complex junk is reported
    m = op.matrix if isinstance(op, GraphStochastic) else np.asarray(op)
    report = is_graph_preserving_stochastic(m, g)
    if not report:
        raise GameError(f"illegal stochastic move: {report}")
    return np.asarray(m.real, dtype=float)


def _unitary_matrix(op, g: Digraph) -> np.ndarray:
    m = op.matrix if isinstance(op, GraphUnitary) else np.asarray(op, dtype=complex)
    report = is_graph_preserving_unitary(m, g)
    if not report:
        raise GameError(f"illegal unitary move: {report}")
    return m


def qc_operation_joint(op, g: Digraph, mover: str) -> np.ndarray:
    """Joint matrix of a quantum controlled move, with legality checks.

    The mover's operation must be controlled on the opponent's register; a
    bare GraphUnitary is lifted to the constant (local) controlled operation.
    """
    n = g.n
    if op is None:
        return np.eye(n * n, dtype=complex)
    expected_control = "robber" if mover == "cop" else "cop"
    if isinstance(op, ControlledOp):
        if op.control != expected_control:
            raise GameError(
                f"the {mover}'s controlled operation must have control='{expected_control}'"
            )
        for v, block in enumerate(op.blocks):
            report = is_graph_preserving_unitary(block.matrix, g)
            if not report:
                raise GameError(f"illegal controlled move, block {v}: {report}")
        return op.joint
    m = _unitary_matrix(op, g)
    if mover == "cop":
        return np.kron(np.eye(n), m)
    return np.kron(m, np.eye(n))


def play(model, g: Digraph, cop: Strategy, robber: Strategy, rounds: int) -> GameTrace:
    """Run one game; see the module docstring for the order of play."""
    model = GameModel(model)
    if rounds < 1:
        raise GameError("a play needs at least one round")
    _check_strategy(cop, "cop", model)
    _check_strategy(robber, "robber", model)
    if model is GameModel.CLASSICAL:
        return _play_classical(g, cop, robber, rounds)
    if model is GameModel.OPEN_PROBABILISTIC:
        return _play_probabilistic(g, cop, robber, rounds)
    if model is GameModel.CLASSICAL_QUANTUM:
        return _play_classical_quantum(g, cop, robber, rounds)
    return _play_quantum_controlled(g, cop, robber, rounds)


def _round_stages(rounds: int):
    # Cop moves every round; the Robber sits out the last one.
    for k in range(1, rounds + 1):
        yield k, "cop"
        if k < rounds:
            yield k, "robber"


def _play_classical(g, cop, robber, rounds):
    cop_move = _move_source(cop)
    robber_move = _move_source(robber)
    ctx0 = MoveContext(0, "cop", g, rounds)
    c = _resolve_init(cop.init, ctx0)
    if not isinstance(c, (int, np.integer)) or not 0 <= c < g.n:
        raise GameError("classical play needs an initial vertex for the cop")
    r = _resolve_init(robber.init, MoveContext(0, "robber", g, rounds, cop_state=int(c)))
    if not isinstance(r, (int, np.integer)) or not 0 <= r < g.n:
        raise GameError("classical play needs an initial vertex for the robber")
    c, r = int(c), int(r)
    history = [("init", 0, {"cop": c, "robber": r})]
    for k, mover in _round_stages(rounds):
        ctx = MoveContext(k, mover, g, rounds, cop_state=c, robber_state=r)
        if mover == "cop":
            target = cop_move(ctx)
            target = c if target is None else int(target)
            if (c, target) not in g.arcs:
                raise GameError(f"illegal cop move {c} -> {target}: no such arc")
            c = target
        else:
            target = robber_move(ctx)
            target = r if target is None else int(target)
            if (r, target) not in g.arcs:
                raise GameError(f"illegal robber move {r} -> {target}: no such arc")
            r = target
        history.append((mover, k, {"cop": c, "robber": r}))
    return GameTrace(GameModel.CLASSICAL, rounds, 1.0 if c == r else 0.0, history)


def _play_probabilistic(g, cop, robber, rounds):
    cop_move = _move_source(cop)
    robber_move = _move_source(robber)
    pc = _prob_vector(_resolve_init(cop.init, MoveContext(0, "cop", g, rounds)), g.n)
    pr = _prob_vector(
        _resolve_init(robber.init, MoveContext(0, "robber", g, rounds, cop_state=pc.copy())), g.n
    )
    history = [("init", 0, {"cop": pc.copy(), "robber": pr.copy()})]
    for k, mover in _round_stages(rounds):
        ctx = MoveContext(k, mover, g, rounds, cop_state=pc.copy(), robber_state=pr.copy())
        op = (cop_move if mover == "cop" else robber_move)(ctx)
        m = np.eye(g.n) if op is None else _stochastic_matrix(op, g)
        if mover == "cop":
            pc = m @ pc
        else:
            pr = m @ pr
        history.append((mover, k, {"cop": pc.copy(), "robber": pr.copy()}))
    return GameTrace(GameModel.OPEN_PROBABILISTIC, rounds, p_copwin_probabilistic(pr, pc), history)


def _play_classical_quantum(g, cop, robber, rounds):
    cop_move = _move_source(cop)
    robber_move = _move_source(robber)
    sc = _amp_vector(_resolve_init(cop.init, MoveContext(0, "cop", g, rounds)), g.n)
    sr = _amp_vector(
        _resolve_init(robber.init, MoveContext(0, "robber", g, rounds, cop_state=sc.copy())), g.n
    )
    history = [("init", 0, {"cop": sc.copy(), "robber": sr.copy()})]
    for k, mover in _round_stages(rounds):
        ctx = MoveContext(k, mover, g, rounds, cop_state=sc.copy(), robber_state=sr.copy())
        op = (cop_move if mover == "cop" else robber_move)(ctx)
        m = np.eye(g.n, dtype=complex) if op is None else _unitary_matrix(op, g)
        if mover == "cop":
            sc = m @ sc
        else:
            sr = m @ sr
        history.append((mover, k, {"cop": sc.copy(), "robber": sr.copy()}))
    return GameTrace(GameModel.CLASSICAL_QUANTUM, rounds, p_copwin_separable(sr, sc), history)


def qc_initial_joint(g: Digraph, cop: Strategy, robber: Strategy) -> np.ndarray:
    """Initial joint state (layout r*n + c) from the two declared initial specs."""
    n = g.n
    sc = _amp_vector(_resolve_init(cop.init, MoveContext(0, "cop", g, 0)), n)
    rinit = _resolve_init(robber.init, MoveContext(0, "robber", g, 0))
    if isinstance(rinit, ControlledInit):
        chi = rinit.states
        if chi.shape != (n, n):
            raise GameError(f"controlled preparation needs an {n}x{n} column table")
        norms = np.linalg.norm(chi, axis=0)
        if np.max(np.abs(norms - 1.0)) > ATOL:
            raise GameError("every column of a controlled preparation must be normalized")
        joint = np.zeros(n * n, dtype=complex)
        for c in range(n):
            joint[np.arange(n) * n + c] = sc[c] * chi[:, c]
        return joint
    sr = _amp_vector(rinit, n)
    return np.kron(sr, sc)


def _play_quantum_controlled(g, cop, robber, rounds):
    if cop.prepare is not None:
        cop.prepare(PrepareContext(g, rounds, "cop", robber))
    if robber.prepare is not None:
        robber.prepare(PrepareContext(g, rounds, "robber", cop))
    cop_move = _move_source(cop)
    robber_move = _move_source(robber)
    joint = qc_initial_joint(g, cop, robber)
    history = [("init", 0, {"joint": joint.copy()})]
    for k, mover in _round_stages(rounds):
        ctx = MoveContext(k, mover, g, rounds)
        op = (cop_move if mover == "cop" else robber_move)(ctx)
        joint = qc_operation_joint(op, g, mover) @ joint
        history.append((mover, k, {"joint": joint.copy()}))
    return GameTrace(GameModel.QUANTUM_CONTROLLED, rounds, p_copwin_joint(joint, g.n), history)


def play_unfair_probabilistic(g: Digraph, cop_dominating, robber: Strategy, rounds: int) -> float:
    """Open unfair pursuit: the Cop re-spreads on a dominating set and locks on.

    Each round the non-following mass spreads uniformly over the dominating
    set (a walk of at most n single-edge steps), every set vertex adjacent
    to the Robber pours its share onto his vertex, and mass that reached him
    follows his later moves.  Returns the following mass after the given
    number of rounds, which is at least 1 - (1 - 1/|D|)^rounds.
    """
    if not g.is_undirected or not g.is_reflexive:
        raise GraphError("the unfair pursuit needs an undirected reflexive graph")
    if rounds < 0:
        raise GameError("negative round count")
    dset = sorted({int(d) for d in cop_dominating})
    for d in dset:
        if not 0 <= d < g.n:
            raise GraphError(f"dominating vertex {d} out of range")
    if not dominates(g, dset):
        raise GraphError(f"set {dset} does not dominate the graph")

    robber_move = _move_source(robber)

    def cop_mass(follow, free, r):
        vec = np.zeros(g.n)
        vec[r] += follow
        for d in dset:
            vec[d] += free / len(dset)
        return vec

    r = _resolve_init(robber.init, MoveContext(0, "robber", g, rounds, cop_state=np.zeros(g.n)))
    if not isinstance(r, (int, np.integer)) or not 0 <= r < g.n:
        raise GameError("the unfair pursuit needs a deterministic robber vertex")
    r = int(r)
    follow = 0.0
    for k in range(1, rounds + 1):
        free = 1.0 - follow
        caught = sum(1 for d in dset if (d, r) in g.arcs)
        follow += free * caught / len(dset)
        free = 1.0 - follow
        ctx = MoveContext(k, "robber", g, rounds, cop_state=cop_mass(follow, free, r), robber_state=r)
        target = robber_move(ctx)
        target = r if target is None else int(target)
        if (r, target) not in g.arcs:
            raise GameError(f"illegal robber move {r} -> {target}: no such arc")
        r = target
    return follow
