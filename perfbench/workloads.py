"""Seeded inputs and independent output checks for the three benchmark workloads.

Everything here uses numpy and the standard library only: no qpursuit
sampler or helper builds an input or a reference value, so a change to the
package cannot change what the benchmark feeds it or what it expects back.
The package receives JSON files and command lines, nothing else.

A workload is a list of cycles; each cycle is a fixed list of commands.
Every command carries its own check, which returns None when the output
agrees with the numpy reference and a reason string otherwise.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Fidelity, unitarity and probability tolerance, matching the package's
# documented double-precision tolerance for boards up to n = 256.
ATOL = 1e-9
# p_copwin and fidelity are printed with 9 decimals.
PRINT_SLACK = 5e-10 + 1e-12

WORKLOADS = ("analyze", "reach", "play")
# Distinct input sets per workload; the timed phase walks them round robin so
# one run averages over several random boards of each kind.  A reach command's
# cost depends on its board (n = 128: 0.8 s to 1.5 s), and its inputs are
# cheap to make, so every cycle of a reach run gets fresh boards.
POOL = {"analyze": 3, "reach": 7, "play": 3}
# Seconds one cycle took at the seed commit on the reference machine (see
# NOTES.md).  A run times a fixed number of cycles, sized from --seconds with
# these, so every run of a commit times the same commands.
NOMINAL_CYCLE_S = {"analyze": 5.5, "reach": 5.0, "play": 2.3}


@dataclass
class Command:
    """One CLI call: argv for qpursuit.cli.main, an optional --out path, its check."""

    label: str
    argv: list
    check: Callable[[str, Optional[str]], Optional[str]]
    out: Optional[str] = None


# ---------------------------------------------------------------- boards

def random_tree(n, rng):
    a = np.eye(n, dtype=bool)
    perm = rng.permutation(n)
    for i in range(1, n):
        u, v = perm[i], perm[rng.integers(i)]
        a[u, v] = a[v, u] = True
    return a


def random_connected(n, p, rng):
    """Reflexive undirected adjacency: a random tree plus extra edges at density p.

    The number of extra edges is fixed at p times the non-tree pairs, rather
    than drawn edge by edge, so boards of one size cost nearly the same to
    analyse whatever the seed.
    """
    a = random_tree(n, rng)
    us, vs = np.nonzero(np.triu(~a, 1))
    pick = rng.choice(len(us), size=round(p * len(us)), replace=False)
    a[us[pick], vs[pick]] = a[vs[pick], us[pick]] = True
    return a


def universal_board(n, rng):
    a = random_connected(n, 3.0 / n, rng)
    hub = rng.integers(n)
    a[hub, :] = a[:, hub] = True
    return a


def cycle4():
    a = np.eye(4, dtype=bool)
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = True
    return a


def graph_json(a):
    us, vs = np.nonzero(np.triu(a, 1))
    return {"n": int(a.shape[0]), "arcs": [[int(u), int(v)] for u, v in zip(us, vs)],
            "undirected": True, "reflexive": True}


def bfs_dist(a, s):
    dist = np.full(a.shape[0], -1)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(a[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def containment(a):
    """c[v, u] iff the closed neighbourhood of v lies inside that of u."""
    ai = a.astype(np.float64)
    return (ai @ (1.0 - ai).T) == 0


def dismantlable(a):
    """Cop-win reference: delete corners one at a time until one vertex is left."""
    alive = np.ones(a.shape[0], dtype=bool)
    while alive.sum() > 1:
        sub = a[np.ix_(alive, alive)]
        c = containment(sub)
        np.fill_diagonal(c, False)
        corners = np.flatnonzero(c.any(axis=1))
        if corners.size == 0:
            return False
        alive[np.flatnonzero(alive)[corners[0]]] = False
    return True


def greedy_dominating(a):
    uncovered = np.ones(a.shape[0], dtype=bool)
    chosen = []
    while uncovered.any():
        v = int(np.argmax((a & uncovered).sum(axis=1)))
        chosen.append(v)
        uncovered &= ~a[v]
    return sorted(chosen)


# ------------------------------------------------------------ operators

def haar2(rng):
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matching_unitary(a, rng):
    """Graph-preserving unitary: Haar 2x2 blocks on a random matching, phases elsewhere."""
    n = a.shape[0]
    m = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    used = np.zeros(n, dtype=bool)
    us, vs = np.nonzero(np.triu(a, 1))
    for i in rng.permutation(len(us)):
        u, v = us[i], vs[i]
        if not (used[u] or used[v]):
            used[u] = used[v] = True
            m[np.ix_([u, v], [u, v])] = haar2(rng)
    return m


def neighbourhood_stochastic(a, rng):
    """Column-stochastic move: column v is a Dirichlet draw over S(v)."""
    n = a.shape[0]
    m = np.zeros((n, n))
    for v in range(n):
        targets = np.flatnonzero(a[v])
        m[targets, v] = rng.dirichlet(np.ones(len(targets)))
    return m


def op_json(m):
    rs, cs = np.nonzero(m)
    m = np.asarray(m, dtype=complex)
    return {"n": int(m.shape[0]),
            "entries": [[int(r), int(c), float(m[r, c].real), float(m[r, c].imag)]
                        for r, c in zip(rs, cs)]}


def op_from_json(data):
    n = data["n"]
    m = np.zeros((n, n), dtype=complex)
    for r, c, re_, im in data["entries"]:
        m[r, c] = complex(re_, im)
    return m


def random_state(n, rng):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def state_json(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def random_distribution(n, rng):
    return rng.dirichlet(np.ones(n))


def walk(a, start, steps, rng):
    path, r = [], start
    for _ in range(steps):
        r = int(rng.choice(np.flatnonzero(a[r])))
        path.append(r)
    return path


# --------------------------------------------------------------- checks

def _last_line(stdout):
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _fields(line):
    return dict(re.findall(r"(\w+)=(\S+)", line))


def check_analyze(a, ref):
    n = a.shape[0]

    def check(stdout, _out):
        try:
            rep = json.loads(stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        for key in ("n", "reflexive", "undirected", "reversible", "connected"):
            if rep.get(key) != ref[key]:
                return f"{key}={rep.get(key)!r}, reference {ref[key]!r}"
        corners = {v: u for v, u in rep["corners"]}
        if set(corners) != ref["corner_set"]:
            return "corner set differs from the containment test"
        for v, u in corners.items():
            if u == v or not ref["contain"][v, u]:
                return f"vertex {u} does not contain S({v})"
        ds = rep["dominating_set"]
        if not ds or not a[ds].any(axis=0).all():
            return "dominating set misses a vertex"
        if rep["universal_vertex"] != ref["universal_vertex"]:
            return "universal vertex differs"
        if rep.get("copwin_dismantle") != ref["copwin"]:
            return "dismantling verdict differs from the reference"
        game = rep.get("copwin_game")
        if game is not None and game != rep["copwin_dismantle"]:
            return "game solver disagrees with dismantling"
        if game is None and n <= 48:
            return "game solver skipped below --cap"
        return None

    return check


def analyze_reference(a):
    n = a.shape[0]
    contain = containment(a)
    off = contain & ~np.eye(n, dtype=bool)
    universal = np.flatnonzero(a.all(axis=1))
    connected = bool((bfs_dist(a, 0) >= 0).all())
    return {"n": n, "reflexive": True, "undirected": True, "reversible": connected,
            "connected": connected, "contain": contain,
            "corner_set": set(np.flatnonzero(off.any(axis=1)).tolist()),
            "universal_vertex": int(universal[0]) if universal.size else None,
            "copwin": dismantlable(a)}


def check_reach(a, phi, psi):
    n = a.shape[0]
    bound = 2 * n - 2
    allowed = a.T  # m[w, v] may be non-zero only when (v, w) is an arc

    def check(stdout, out):
        f = _fields(_last_line(stdout))
        try:
            length, fidelity = int(f["length"]), float(f["fidelity"])
        except (KeyError, ValueError):
            return "no length/fidelity line"
        if int(f.get("bound", -1)) != bound:
            return "wrong bound"
        if length > bound:
            return f"length {length} above 2n-2 = {bound}"
        if fidelity < 1.0 - ATOL - PRINT_SLACK:
            return f"fidelity {fidelity} below 1 - ATOL"
        if out is None:
            return None
        with open(out, encoding="utf-8") as fh:
            ops = json.load(fh)
        if len(ops) != length:
            return "--out holds a different number of operators"
        cur = phi.copy()
        eye = np.eye(n)
        for op in ops:
            m = op_from_json(op)
            if np.max(np.abs(m.conj().T @ m - eye)) > ATOL:
                return "an operator is not unitary"
            if (np.abs(m[~allowed]) > ATOL).any():
                return "an operator breaks the graph's zero pattern"
            cur = m @ cur
        if abs(np.vdot(psi, cur)) < 1.0 - ATOL:
            return "the written operators do not map phi to psi"
        return None

    return check


def _p_line(stdout, model, rounds):
    f = _fields(_last_line(stdout))
    if f.get("model") != model or f.get("t") != str(rounds):
        return None
    try:
        return float(f["p_copwin"])
    except (KeyError, ValueError):
        return None


def check_play(model, rounds, expect, final=None):
    """expect(p) -> reason or None; final(last snapshot) -> reason or None for --out.

    final=None checks only that the --out file is a trace with the printed
    p_copwin, for a model whose trace layout is not fixed yet.
    """

    def check(stdout, out):
        p = _p_line(stdout, model, rounds)
        if p is None:
            return "no model/t/p_copwin line"
        reason = expect(p)
        if reason or out is None:
            return reason
        with open(out, encoding="utf-8") as fh:
            trace = json.load(fh)
        if abs(trace.get("p_copwin", -1.0) - p) > PRINT_SLACK:
            return "trace p_copwin differs from the printed one"
        if final is None:
            return None
        if trace.get("model") != model or trace.get("rounds") != rounds:
            return "trace header differs"
        if len(trace["history"]) != 2 * rounds:
            return f"trace has {len(trace['history'])} snapshots, expected {2 * rounds}"
        return final(trace["history"][-1]["state"])

    return check


def near(value, tol=ATOL + PRINT_SLACK):
    def expect(p):
        return None if abs(p - value) <= tol else f"p_copwin {p} differs from {value}"
    return expect


def at_least(value):
    def expect(p):
        return None if p >= value - ATOL - PRINT_SLACK else f"p_copwin {p} below {value}"
    return expect


def check_reproduce(stdout, _out):
    rows = re.findall(r"case=(\S+) expected=(\S+) observed=(\S+) ok=(\w+)", stdout)
    got = {label: (float(e), float(o), ok) for label, e, o, ok in rows}
    closed = {
        "uniform-1-over-n[open_probabilistic]": lambda e, o: abs(o - 0.2) <= 1e-8,
        "uniform-1-over-n[classical_quantum]": lambda e, o: abs(o - 0.2) <= 1e-8,
        "universal-vertex-1": lambda e, o: abs(o - 1.0) <= 1e-8,
        "c4-evasion-0": lambda e, o: o <= 1e-8,
        "c4-unfair-3-4": lambda e, o: abs(o - 0.75) <= 1e-8,
        # Theorem 1 on a 7-vertex board: |D| <= 7, so the bound is at least 1 - (6/7)^6.
        "theorem1-sweep": lambda e, o: e >= 1 - (6 / 7) ** 6 - 1e-8 and o >= e - 1e-8,
        "star-impossibility": lambda e, o: o <= 1e-8,
        "reach-bound": lambda e, o: 5 <= o <= 10,
    }
    if set(got) != set(closed):
        return f"reproduce printed cases {sorted(got)}"
    for label, test in closed.items():
        e, o, ok = got[label]
        if ok != "yes" or not test(e, o):
            return f"case {label}: expected={e} observed={o} ok={ok}"
    return None


# ---------------------------------------------------------- generators

class _Files:
    def __init__(self, workdir, tag):
        self.workdir, self.tag, self.count = workdir, tag, 0

    def write(self, data):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.tag}-{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def out(self):
        self.count += 1
        return os.path.join(self.workdir, f"{self.tag}-{self.count}.out.json")


def _analyze_cycle(rng, files, sizes):
    cmds = []
    for kind, n in sizes:
        if kind == "sparse":
            a = random_connected(n, 3.0 / n, rng)
        elif kind == "dense":
            a = random_connected(n, 0.3, rng)
        elif kind == "universal":
            a = universal_board(n, rng)
        else:
            a = random_tree(n, rng)
        path = files.write(graph_json(a))
        cmds.append(Command(f"analyze {kind} n={n}", ["analyze-graph", path, "--cap", "48"],
                            check_analyze(a, analyze_reference(a))))
    return cmds


# Cheapest to dearest.  Sparse boards repeat so that the median falls well
# inside one board kind (sparse n=96) and the tail inside another (sparse
# n=160) at the cycle counts of a 33 s run, rather than on the border
# between two kinds, where it would jump from run to run.
ANALYZE_BOARDS = (("universal", 40), ("tree", 48), ("dense", 48), ("universal", 64),
                  ("sparse", 96), ("sparse", 96), ("sparse", 96), ("sparse", 128),
                  ("sparse", 128), ("sparse", 160), ("sparse", 160), ("sparse", 160))
ANALYZE_WARMUP_BOARDS = (("sparse", 10), ("universal", 8), ("tree", 6))


# (n, pair kind, --out).  --out alternates along the sizes and kinds.
# basis->uniform without --out at n=64 appears three times, so the median
# falls well inside that one command's cost, rather than between two kinds
# or between the cheaper --out and the dearer stdout variant of one kind.
REACH_COMMANDS = tuple((n, kind, i % 2 == 0) for i, (n, kind) in enumerate(
    (n, kind) for n in (32, 64, 96, 128)
    for kind in ("basis->uniform", "random->uniform", "basis->far"))) \
    + ((64, "basis->uniform", False),) * 2
# The n=64 command runs the first large matrix products, whose one-time
# set-up in OpenBLAS belongs to set-up, not to a timed command.
REACH_WARMUP_COMMANDS = ((8, "basis->uniform", True), (8, "random->uniform", False),
                         (64, "basis->far", True))


def _reach_cycle(rng, files, commands):
    cmds, boards = [], {}
    for n, kind, with_out in commands:
        if n not in boards:
            a = random_connected(n, 3.0 / n, rng)
            s = int(rng.integers(n))
            boards[n] = (a, files.write(graph_json(a)), s, int(np.argmax(bfs_dist(a, s))),
                         random_state(n, rng))
        a, path, s, far, rand = boards[n]
        eye = np.eye(n, dtype=complex)
        uniform = np.full(n, 1 / np.sqrt(n), dtype=complex)
        src, dst, phi, psi = {
            "basis->uniform": (f"basis:{s}", "uniform", eye[s], uniform),
            "random->uniform": (json.dumps(state_json(rand)), "uniform", rand, uniform),
            "basis->far": (f"basis:{s}", f"basis:{far}", eye[s], eye[far]),
        }[kind]
        out = files.out() if with_out else None
        argv = ["reach", path, "--from", src, "--to", dst] + (["--out", out] if out else [])
        cmds.append(Command(f"reach {kind} n={n}" + (" --out" if out else ""), argv,
                            check_reach(a, phi, psi), out))
    return cmds


def _scenario(files, model, a, rounds, cop, robber):
    return files.write({"model": model, "graph": graph_json(a), "rounds": rounds,
                        "cop": cop, "robber": robber})


def _open_game(rng, files, model, n, rounds, with_out):
    a = random_connected(n, 3.0 / n, rng)
    if model == "open_probabilistic":
        init = [random_distribution(n, rng) for _ in range(2)]
        moves = [[neighbourhood_stochastic(a, rng) for _ in range(rounds - k)] for k in range(2)]
        init_json = [v.tolist() for v in init]
    else:
        init = [random_state(n, rng) for _ in range(2)]
        moves = [[matching_unitary(a, rng) for _ in range(rounds - k)] for k in range(2)]
        init_json = [state_json(v) for v in init]
    final = []
    for vec, seq in zip(init, moves):
        for m in seq:
            vec = m @ vec
        final.append(vec)
    pc, pr = final
    expected = float(pr @ pc) if model == "open_probabilistic" else \
        float(np.sum(np.abs(pr * pc) ** 2))
    cop = {"init": init_json[0], "moves": [op_json(m) for m in moves[0]]}
    robber = {"init": init_json[1], "moves": [op_json(m) for m in moves[1]]}
    path = _scenario(files, model, a, rounds, cop, robber)
    out = files.out() if with_out else None

    def final_state(state):
        got = np.asarray(state["cop"], dtype=float)
        got = got[:, 0] + 1j * got[:, 1] if got.ndim == 2 else got
        return None if np.allclose(got, pc, atol=ATOL) else "final cop state differs"

    return Command(f"run {model} n={n}" + (" --out" if out else ""),
                   ["run", path] + (["--out", out] if out else []),
                   check_play(model, rounds, near(expected), final_state), out)


PLAY_SIZES = {"open": (128, 256), "catch": (24, 32, 40), "c4_rounds": 20,
              "classical": (32, 48), "unfair": (128, 200)}
# Open games at n=64 run the first large matrix products in the warm-up (see above).
PLAY_WARMUP_SIZES = {"open": (8, 64), "catch": (6,), "c4_rounds": 2,
                     "classical": (6,), "unfair": (8, 4)}


def _play_cycle(rng, files, parity, sizes):
    cmds = []
    games = [(model, n) for model in ("open_probabilistic", "classical_quantum")
             for n in sizes["open"]]
    for i, (model, n) in enumerate(games):
        cmds.append(_open_game(rng, files, model, n, 8, (i + parity) % 2 == 1))
    # Uniform Cop against an inline Robber: p_copwin is 1/n whatever the Robber does.
    n = sizes["open"][0]
    a = random_connected(n, 3.0 / n, rng)
    robber = {"init": state_json(random_state(n, rng)),
              "moves": [op_json(matching_unitary(a, rng)) for _ in range(7)]}
    path = _scenario(files, "classical_quantum", a, 8, {"builtin": "uniform_spread"}, robber)
    cmds.append(Command(f"run uniform_spread n={n}", ["run", path],
                        check_play("classical_quantum", 8, near(1.0 / n))))
    for n in sizes["catch"]:
        a = universal_board(n, rng)
        robber = {"init": state_json(random_state(n, rng)),
                  "moves": [op_json(matching_unitary(a, rng))]}
        path = _scenario(files, "quantum_controlled", a, 1,
                         {"builtin": "universal_vertex_catch"}, robber)
        cmds.append(Command(f"run universal_vertex_catch n={n}", ["run", path],
                            check_play("quantum_controlled", 1, near(1.0))))
    c4, rounds = cycle4(), sizes["c4_rounds"]
    cop = {"init": state_json(random_state(4, rng)),
           "moves": [{"control": "robber", "blocks": [op_json(matching_unitary(c4, rng))
                                                      for _ in range(4)]}
                     for _ in range(rounds)]}
    path = _scenario(files, "quantum_controlled", c4, rounds, cop,
                     {"builtin": "c4_antipodal_evasion"})
    cmds.append(Command("run c4_antipodal_evasion", ["run", path],
                        check_play("quantum_controlled", rounds, near(0.0))))
    for n in sizes["classical"]:
        a, rounds = universal_board(n, rng), 10
        r0 = int(rng.integers(n))
        robber = {"init": r0, "moves": walk(a, r0, rounds - 1, rng)}
        path = _scenario(files, "classical", a, rounds,
                         {"builtin": "classical_pursuit", "params": {"cap": 64}}, robber)
        cmds.append(Command(f"run classical_pursuit n={n}", ["run", path],
                            check_play("classical", rounds, near(1.0, 0.0))))
    n, rounds = sizes["unfair"]
    a = random_connected(n, 3.0 / n, rng)
    dset = greedy_dominating(a)
    r0 = int(rng.integers(n))
    path_r = walk(a, r0, rounds, rng)
    follow = 0.0
    for r in [r0] + path_r[:-1]:
        follow += (1.0 - follow) * a[dset, r].sum() / len(dset)
    theorem1 = 1.0 - (1.0 - 1.0 / len(dset)) ** rounds
    path = _scenario(files, "unfair_probabilistic", a, rounds,
                     {"builtin": "dominating_set_sweep", "params": {"set": dset}},
                     {"init": r0, "moves": path_r})
    out = files.out()

    def unfair(p):
        return near(follow)(p) or at_least(theorem1)(p)

    cmds.append(Command(f"run unfair dominating_set_sweep n={n} --out",
                        ["run", path, "--out", out],
                        check_play("unfair_probabilistic", rounds, unfair), out))
    cmds.append(Command("reproduce --all", ["reproduce", "--all"], check_reproduce))
    return cmds


def build(workload, seed, workdir):
    """(warm-up commands, list of POOL[workload] cycles) for one workload, all from seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    salt = WORKLOADS.index(workload)
    files = _Files(workdir, workload)

    def cycle(k, small):
        rng = np.random.default_rng([seed, salt, k])
        if workload == "analyze":
            return _analyze_cycle(rng, files, ANALYZE_WARMUP_BOARDS if small else ANALYZE_BOARDS)
        if workload == "reach":
            return _reach_cycle(rng, files, REACH_WARMUP_COMMANDS if small else REACH_COMMANDS)
        return _play_cycle(rng, files, k, PLAY_WARMUP_SIZES if small else PLAY_SIZES)

    # The warm-up is the workload's cycle at toy sizes: every code path once.
    pool = POOL[workload]
    return cycle(pool, True), [cycle(k, False) for k in range(pool)]
