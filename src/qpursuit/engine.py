"""Game execution for the four fair models and the unfair probabilistic pursuit.

Order of play is shared by every model: the Cop fixes his initial state,
the Robber answers, and each round runs Cop's operation then Robber's.
In the four fair models the final round stops after the Cop's operation,
and only then is the capture probability evaluated; there is no mid-game
measurement.  The unfair pursuit lets the Robber move in the last round too.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

import numpy as np

from .graphs import Digraph, GraphError, _is_int, dominates, has_arc
from .operators import (
    CertificationError,
    ControlledOp,
    Entries,
    GraphUnitary,
    _is_distribution,
    basis_state,
    certify_blocks,
    certify_stochastic,
    certify_unitary,
    is_unit,
    state_vector,
    uniform_state,
)


class GameError(ValueError):
    """A strategy or play request breaks the rules of the chosen model."""


class GameModel(str, Enum):
    CLASSICAL = "classical"
    OPEN_PROBABILISTIC = "open_probabilistic"
    CLASSICAL_QUANTUM = "classical_quantum"
    QUANTUM_CONTROLLED = "quantum_controlled"
    UNFAIR_PROBABILISTIC = "unfair_probabilistic"


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

    init: a vertex index, a probability vector, an amplitude vector, the
    string "uniform", a callable producing one of those, or a
    ControlledInit (quantum controlled Robber only).  move: a
    callable(MoveContext) -> operation, a list of per-round operations, or
    None for identity moves; a callable may also return None to fall back to
    the identity.  prepare: optional callable(PrepareContext) run before the
    game in every model; in the quantum controlled model it is the only
    place a strategy sees its opponent.  params: builtin data such as the
    unfair Cop's "dominating_set".
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
    amplitude vectors, the joint state under key "joint", or the unfair
    pursuit's following mass and Robber vertex under "follow" and "robber".
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
    if not is_unit(a):
        raise ValueError("joint state is not normalized")
    return float(np.sum(np.abs(a.reshape(n, n).diagonal()) ** 2))


def p_copwin_separable(robber, cop) -> float:
    """sum_v |r_v c_v|^2 for local states; equals the joint formula on their product."""
    r = state_vector(robber)
    c = state_vector(cop)
    if r.shape != c.shape:
        raise ValueError("state dimensions differ")
    if not (is_unit(r) and is_unit(c)):
        raise ValueError("states must be normalized")
    return float(np.sum(np.abs(r * c) ** 2))


def p_copwin_probabilistic(p_robber, p_cop) -> float:
    """Inner product of the two position distributions."""
    pr = np.asarray(p_robber, dtype=float)
    pc = np.asarray(p_cop, dtype=float)
    if pr.shape != pc.shape:
        raise ValueError("distribution dimensions differ")
    if not (_is_distribution(pr) and _is_distribution(pc)):
        raise ValueError("inputs must be probability vectors")
    return float(pr @ pc)


# The most dense cells (k*k for each move on k vertices) of a list's bare moves certified
# together when a game starts; their certificates are kept until played, later moves wait.
_LIST_CELLS = 1 << 20


# The most bytes a play's history may keep, each of its 2 * rounds + 1 snapshots counted as its
# states' bytes plus 512: a play that would keep more is refused before it starts.
_HISTORY_BYTES = 1 << 30


def _check_history(model: GameModel, n: int, rounds: int):
    """GameError if a play of the model on n vertices would keep more than _HISTORY_BYTES of
    history in the given number of rounds."""
    size = {GameModel.QUANTUM_CONTROLLED: 16 * n * n, GameModel.CLASSICAL_QUANTUM: 32 * n,
            GameModel.OPEN_PROBABILISTIC: 16 * n}.get(model, 0)  # a snapshot's state bytes
    if (2 * rounds + 1) * (size + 512) > _HISTORY_BYTES:
        raise GameError(f"{rounds} rounds on {n} vertices would keep over {_HISTORY_BYTES} "
                        f"bytes of history")


def _move_source(strategy: Strategy, g: Digraph, model: GameModel, count: int):
    """The strategy's moves as a callback.  In a unitary model, a list's bare moves among its
    first count (Entries, arrays, certificates from another board) are certified against g by
    one certify_blocks call that stops short of _LIST_CELLS, and trusted when played; if it
    raises, the list is played as given, each move certified, and refused, in its turn."""
    if strategy.move is None:
        return lambda ctx: None
    if callable(strategy.move):
        return strategy.move
    seq = list(strategy.move)
    if model in (GameModel.CLASSICAL_QUANTUM, GameModel.QUANTUM_CONTROLLED):
        bare = [i for i, m in enumerate(seq[:max(count, 0)]) if isinstance(m, (Entries, np.ndarray))
                or isinstance(m, GraphUnitary) and m.graph != g]
        cells = accumulate(len(m.support) ** 2 if isinstance(m, GraphUnitary) else np.prod(m.shape)
                           for m in map(seq.__getitem__, bare))
        bare = [i for i, c in zip(bare, cells) if c <= _LIST_CELLS]
        with suppress(Exception):  # any failure: each move is certified, and refused, in turn
            for i, u in zip(bare, certify_blocks([seq[i] for i in bare], g)):
                seq[i] = u

    def from_list(ctx):
        if ctx.round > len(seq):
            raise GameError(f"strategy provides {len(seq)} moves but round {ctx.round} was requested")
        return seq[ctx.round - 1]

    return from_list


def _resolve_init(init, ctx):
    return init(ctx) if callable(init) and not isinstance(init, ControlledInit) else init


def _vertex(init, n: int) -> int:
    if not _is_int(init) or not 0 <= init < n:  # a bool names no vertex
        raise GameError(f"initial vertex {init!r} outside 0..{n - 1}")
    return int(init)


def _prob_vector(init, n: int) -> np.ndarray:
    if isinstance(init, str) and init == "uniform":
        return np.full(n, 1.0 / n)
    if isinstance(init, (int, np.integer)):
        return basis_state(n, _vertex(init, n)).real
    vec = np.asarray(init, dtype=float).reshape(-1)
    if vec.shape != (n,) or not _is_distribution(vec):
        raise GameError("initial distribution is not a probability vector of the right size")
    return vec


def _amp_vector(init, n: int) -> np.ndarray:
    if isinstance(init, str) and init == "uniform":
        return uniform_state(n)
    if isinstance(init, (int, np.integer)):
        return basis_state(n, _vertex(init, n))
    vec = state_vector(init)
    if vec.shape != (n,) or not is_unit(vec):
        raise GameError("initial amplitudes are not a normalized vector of the right size")
    return vec


def _uncontrolled(spec, model: GameModel, role: str):
    """spec itself; a controlled operation or preparation is refused where the model has none."""
    if isinstance(spec, (ControlledOp, ControlledInit)):
        raise GameError(f"the {role} cannot use a {type(spec).__name__} in the {model.value} model")
    return spec


def _check_strategy(strategy: Strategy, role: str, model: GameModel):
    if strategy.role is not None and strategy.role != role:
        raise GameError(f"strategy '{strategy.name or '?'}' is for the {strategy.role}, used as {role}")
    if strategy.model is not None and strategy.model != model:
        raise GameError(f"strategy '{strategy.name or '?'}' targets model "
                        f"{GameModel(strategy.model).value}, game is {model.value}")


def _legal(build, *args):
    """build(*args), with a failed certificate refused as an illegal move carrying its report."""
    try:
        return build(*args)
    except CertificationError as exc:
        raise GameError(f"illegal move: {exc}, {exc.report}") from exc


def qc_step(op, joint: np.ndarray, g: Digraph, mover: str) -> np.ndarray:
    """Joint state after one quantum controlled move, each block certified against g first.

    The mover's operation must be controlled on the opponent's register; one
    built on another board has its blocks certified against g, and a bare unitary is
    certified once and applied to each row (Cop) or column (Robber) of the joint table.
    """
    if op is None:
        return joint
    expected_control = "robber" if mover == "cop" else "cop"
    if isinstance(op, ControlledOp):
        if op.control != expected_control:
            raise GameError(
                f"the {mover}'s controlled operation must have control='{expected_control}'"
            )
        if op.graph != g:
            op = _legal(ControlledOp, op.blocks, op.control, g)
        return op.apply(joint)
    u, n = _legal(certify_unitary, op, g), g.n
    table = np.array(state_vector(joint), dtype=complex).reshape(n, n)
    for line in table if mover == "cop" else table.T:  # views of the table
        line[:] = u.apply(line)
    return table.reshape(-1)


def _arc_step(target, v: int, g: Digraph) -> int:
    target = v if target is None else target
    if not has_arc(g, v, target):  # a float or a bool names no vertex
        raise GameError(f"illegal move {v} -> {target!r}: no such arc")
    return int(target)


# The vector models' move rules certify the operation, then apply it (None is the identity).
# They look the certifier up when a move is played, so a wrapper put on this module's
# certify_stochastic or certify_unitary later (a profiler's, a test's) sees every move.
def _stochastic_step(op, dist: np.ndarray, g: Digraph) -> np.ndarray:
    return dist if op is None else _legal(certify_stochastic, op, g).apply(dist)


def _unitary_step(op, amps: np.ndarray, g: Digraph) -> np.ndarray:
    return amps if op is None else _legal(certify_unitary, op, g).apply(amps)


# Per model with local states: initial-state parser (init, n), move rule
# (op, state, g) -> state, and capture functional (robber, cop) -> float.
_LOCAL_RULES = {
    GameModel.CLASSICAL: (_vertex, _arc_step, lambda r, c: 1.0 if c == r else 0.0),
    GameModel.OPEN_PROBABILISTIC: (_prob_vector, _stochastic_step, p_copwin_probabilistic),
    GameModel.CLASSICAL_QUANTUM: (_amp_vector, _unitary_step, p_copwin_separable),
}


def _copy(state):
    return state.copy() if isinstance(state, np.ndarray) else state


def _round_stages(rounds: int):
    # Cop moves every round; the Robber sits out the last one.
    for k in range(1, rounds + 1):
        yield k, "cop"
        if k < rounds:
            yield k, "robber"


def play(model, g: Digraph, cop: Strategy, robber: Strategy, rounds: int) -> GameTrace:
    """Run one game of any model; see the module docstring for the order of play.

    A play whose history would keep more than _HISTORY_BYTES is refused, then both
    strategies' prepare hooks run.  The quantum controlled model
    keeps one joint state and hides it from the move callbacks; the other
    fair models keep one local state per player and show both.
    """
    if not _is_int(rounds):
        raise GameError(f"round count must be an integer, got {rounds!r}")
    rounds = int(rounds)
    model = GameModel(model)
    _check_strategy(cop, "cop", model)
    _check_strategy(robber, "robber", model)
    _check_history(model, g.n, rounds)
    for me, other, role in ((cop, robber, "cop"), (robber, cop, "robber")):
        if me.prepare is not None:
            me.prepare(PrepareContext(g, rounds, role, other))
    if model is GameModel.UNFAIR_PROBABILISTIC:
        return play_unfair_probabilistic(g, cop.params.get("dominating_set"), robber, rounds)
    if rounds < 1:
        raise GameError("a play needs at least one round")
    moves = {"cop": _move_source(cop, g, model, rounds),
             "robber": _move_source(robber, g, model, rounds - 1)}
    joint = model is GameModel.QUANTUM_CONTROLLED
    if joint:
        state = {"joint": qc_initial_joint(g, cop, robber, rounds)}
    else:
        parse, step, capture = _LOCAL_RULES[model]
        c = _resolve_init(cop.init, MoveContext(0, "cop", g, rounds))
        c = parse(_uncontrolled(c, model, "cop"), g.n)
        r = _resolve_init(robber.init, MoveContext(0, "robber", g, rounds, cop_state=_copy(c)))
        r = parse(_uncontrolled(r, model, "robber"), g.n)
        state = {"cop": c, "robber": r}
    history = [("init", 0, {key: _copy(s) for key, s in state.items()})]
    for k, mover in _round_stages(rounds):
        if joint:
            op = moves[mover](MoveContext(k, mover, g, rounds))
            state["joint"] = qc_step(op, state["joint"], g, mover)
        else:
            op = moves[mover](MoveContext(k, mover, g, rounds, cop_state=_copy(state["cop"]),
                                          robber_state=_copy(state["robber"])))
            state[mover] = step(_uncontrolled(op, model, mover), state[mover], g)
        history.append((mover, k, {key: _copy(s) for key, s in state.items()}))
    if joint:
        p = p_copwin_joint(state["joint"], g.n)
    else:
        p = capture(state["robber"], state["cop"])
    return GameTrace(model, rounds, p, history)


def qc_initial_joint(g: Digraph, cop: Strategy, robber: Strategy, rounds: int) -> np.ndarray:
    """Initial joint state (layout r*n + c) from the two declared initial specs of a game of
    the given round count."""
    n = g.n
    cinit = _resolve_init(cop.init, MoveContext(0, "cop", g, rounds))
    sc = _amp_vector(_uncontrolled(cinit, GameModel.QUANTUM_CONTROLLED, "cop"), n)
    rinit = _resolve_init(robber.init, MoveContext(0, "robber", g, rounds))
    if isinstance(rinit, ControlledInit):
        chi = rinit.states
        if chi.shape != (n, n):
            raise GameError(f"controlled preparation needs an {n}x{n} column table")
        if not is_unit(chi, axis=0):
            raise GameError("every column of a controlled preparation must be normalized")
        return (chi * sc).reshape(-1)
    return np.outer(_amp_vector(rinit, n), sc).reshape(-1)


def replay_answers(g: Digraph, cop: Strategy, init, rounds: int, answer) -> list:
    """The Robber's moves for rounds 1 .. rounds - 1 of a quantum controlled game against the
    declared Cop, from the Robber's initial spec init: each is answer(joint) of the joint state
    (layout r*n + c) right after the Cop's move of its round.

    The model shows a move callback the round number only, so a Robber who plays on full
    information replays the Cop in prepare.  The replay is the game by the model's rule that
    the Cop's moves depend on the round index alone.
    """
    joint = qc_initial_joint(g, cop, Strategy(init=init), rounds)
    cop_move, answers = _move_source(cop, g, GameModel.QUANTUM_CONTROLLED, rounds - 1), []
    for k in range(1, rounds):
        joint = qc_step(cop_move(MoveContext(k, "cop", g, rounds)), joint, g, "cop")
        answers.append(answer(joint))
        joint = qc_step(answers[-1], joint, g, "robber")
    return answers


def play_unfair_probabilistic(g: Digraph, cop_dominating, robber: Strategy,
                              rounds: int) -> GameTrace:
    """Open unfair pursuit: the Cop re-spreads on a dominating set and locks on.

    Each round the non-following mass spreads uniformly over the dominating
    set (a walk of at most n single-edge steps), every set vertex adjacent
    to the Robber pours its share onto his vertex, and mass that reached him
    follows his later moves; then the Robber moves, in the last round too.
    The trace's p_copwin is the following mass after the given number of
    rounds, which is at least 1 - (1 - 1/|D|)^rounds.  Its snapshots are
    {"follow": mass, "robber": vertex}, one per half-move.
    """
    if not (_is_int(rounds) and rounds >= 0):
        raise GameError(f"round count must be a non-negative integer, got {rounds!r}")
    rounds = int(rounds)
    _check_history(GameModel.UNFAIR_PROBABILISTIC, g.n, rounds)
    if cop_dominating is None:
        raise GameError("the unfair model needs a cop strategy carrying a dominating set")
    if not g.is_undirected or not g.is_reflexive:
        raise GraphError("the unfair pursuit needs an undirected reflexive graph")
    if not dominates(g, cop_dominating):  # checks each raw member is a vertex, before any int()
        raise GraphError(f"set {cop_dominating!r} does not dominate the graph")
    dset = sorted({int(d) for d in cop_dominating})

    robber_move = _move_source(robber, g, GameModel.UNFAIR_PROBABILISTIC, rounds)
    hits = g.adjacency[dset].sum(axis=0).tolist()  # hits[v]: the set vertices next to v

    def cop_mass(follow, free, r):
        vec = np.zeros(g.n)
        vec[r] += follow
        vec[dset] += free / len(dset)
        return vec

    r = _vertex(_resolve_init(robber.init, MoveContext(0, "robber", g, rounds,
                                                       cop_state=np.zeros(g.n))), g.n)
    follow = 0.0
    history = [("init", 0, {"follow": follow, "robber": r})]
    for k in range(1, rounds + 1):
        free = 1.0 - follow
        follow += free * hits[r] / len(dset)
        history.append(("cop", k, {"follow": follow, "robber": r}))
        free = 1.0 - follow
        ctx = MoveContext(k, "robber", g, rounds, cop_state=cop_mass(follow, free, r), robber_state=r)
        r = _arc_step(robber_move(ctx), r, g)
        history.append(("robber", k, {"follow": follow, "robber": r}))
    return GameTrace(GameModel.UNFAIR_PROBABILISTIC, rounds, follow, history)
