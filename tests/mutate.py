"""Mutation check for the code the paper's verdicts rest on: the certifier, the unit-norm and
probability checks, the graph layer, the support and block readers, the rule that reads a list
of certificates as one stack, the JSON readers, the sparse operator form and verify-op's
tolerance bound.

Each mutant of the fixed catalogue below rewrites one expression or statement of one function
(with the stdlib ast), in a fresh copy of src/, tests/ and the README, and runs pytest with -x on the test
files that import the mutated module: by name (qpursuit.operators, from qpursuit import
operators) or through a name the package re-exports from it.  The module's own test file runs
first.  Before the mutants, the same files must pass on the unmutated copy.  One row is printed
per mutant; the script exits 1 if a mutant survives that the catalogue does not name equivalent
with a reason, or if the unmutated copy fails.  Hypothesis runs at a fixed seed, so a run is
repeatable.  Not part of tier-1; run it from the repository root:

    python tests/mutate.py            # the whole catalogue
    python tests/mutate.py tau-unitary bool-vertex   # the named mutants only
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpursuit"

# (name, module, function, the original code, its replacement, why the mutant is equivalent or
# None).  The original is matched by its syntax tree inside the function (Class.method for a
# method), so layout and comments do not matter; it must occur there exactly once.
CATALOGUE = [
    # the eight mutants of the first hand check: tolerances, dropped checks, the integer rule
    ("tau-unitary", "operators", "_unitary_report",
     "residual <= tau and not violations", "residual <= 10 * tau and not violations", None),
    ("tau-violation", "operators", "_unitary_report",
     "np.abs(s) > tau", "np.abs(s) > 10 * tau", None),
    ("stochastic-negativity", "operators", "_stochastic_report",
     "residual = max(defect, negativity)", "residual = defect", None),
    ("loops-dropped", "operators", "_unitary_report", "not g.is_reflexive", "False", None),
    ("int-accepts-bool", "graphs", "_is_int",
     "type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool)",
     "type(x) is int or isinstance(x, (int, np.integer))", None),
    ("dominates-skips-0", "graphs", "dominates",
     "cover == (1 << g.n) - 1", "cover | 1 == (1 << g.n) - 1", None),
    ("unit-norm-x1000", "operators", "is_unit",
     "abs(math.sqrt(np.vdot(a, a).real) - 1.0) <= ATOL",
     "abs(math.sqrt(np.vdot(a, a).real) - 1.0) <= 1000 * ATOL", None),
    ("distribution-floor-x1000", "operators", "_is_distribution",
     "p.min() >= -ATOL", "p.min() >= -1000 * ATOL", None),
    # the support and block readers and the certifier's rules
    ("support-range", "operators", "_indices", "max(flat) < g.n", "max(flat) <= g.n", None),
    ("support-repeat", "operators", "_indices",
     "(key[1:] > key[:-1]).all()", "(key[1:] >= key[:-1]).all()", None),
    ("bool-vertex", "operators", "_indices",
     "issubclass(t, (int, np.integer)) and t is not bool", "issubclass(t, (int, np.integer))",
     None),
    ("block-shape", "operators", "_as_block", "block.shape != (k, k)", "False", None),
    ("support-position", "operators", "_indices", "exc.position = i", "exc.position = 0", None),
    ("block-position", "operators", "certify_blocks",
     "(error, exc.position) = (exc, i)", "(error, exc.position) = (exc, 0)", None),
    ("trust-any-board", "operators", "certify_blocks",
     "isinstance(b, GraphUnitary) and b.graph == g", "isinstance(b, GraphUnitary)", None),
    ("pairs-rule", "operators", "_as_block", "pairs <= k * k", "pairs < k * k", None),
    ("gram-skip-parts", "operators", "_gram_entries", "norms[c] = 1.0", "pass", None),
    # tolerances the other way, a dropped check and the joint index
    ("unit-norm-axis-x1000", "operators", "is_unit",
     "np.abs(np.linalg.norm(a, axis=axis) - 1.0) <= ATOL",
     "np.abs(np.linalg.norm(a, axis=axis) - 1.0) <= 1000 * ATOL", None),
    ("tau-unitary-/1000", "operators", "_unitary_report",
     "residual <= tau and not violations", "residual <= tau / 1000 and not violations", None),
    ("stochastic-imaginary", "operators", "_stochastic_report", "not imag <= tau", "False",
     None),
    ("joint-index-layout", "operators", "ControlledOp.__post_init__",
     "self.control == 'robber'", "self.control == 'cop'", None),
    # the JSON readers' type, key and repeat checks, the sparse form's checks and arithmetic,
    # and the bound on verify-op's tolerance
    ("numbers-accept-bool", "scenario", "_numbers",
     "set(map(type, column)) - {int, float}", "set(map(type, column)) - {int, float, bool}",
     None),
    ("operator-index-bool", "scenario", "operator_from_json",
     "(set(map(type, rows)) | set(map(type, cols))) - {int}",
     "(set(map(type, rows)) | set(map(type, cols))) - {int, bool}", None),
    ("fields-unknown-key", "scenario", "_fields", "missing or unknown", "missing", None),
    ("unique-keys-repeat", "scenario", "_unique_keys", "key in seen", "False", None),
    ("entries-repeat", "operators", "Entries.__post_init__", "twice.any()", "False", None),
    ("entries-range", "operators", "Entries.__post_init__",
     "rows.size and (rows[0] < 0 or rows[-1] >= n or cols.min() < 0 or cols.max() >= n)",
     "False", None),
    ("matmul-drops-imaginary", "operators", "Entries.__matmul__",
     "y.imag = np.bincount(self.rows, weights=terms.imag, minlength=self.n)", "y.imag = 0.0",
     None),
    ("adjoint-drops-conjugate", "operators", "Entries.adjoint", "self.vals[order].conj()",
     "self.vals[order]", None),
    ("tau-bound", "cli", "_tolerance", "0 <= tau < 1", "0 <= tau", None),
    # a list holding only some of a stack's layers read as the whole stack (_joined's rule)
    ("one-stack-partial", "operators", "_one_stack", "len(ops) != len(join[0])", "False",
     None),
    # a list holding one stack's layers in another order read as the stack
    ("one-stack-any-order", "operators", "_one_stack", "at[1] == i", "True", None),
]


def _node(source: str):
    """The one statement of source, or its expression if it is an expression statement."""
    (stmt,) = ast.parse(source).body
    return stmt.value if isinstance(stmt, ast.Expr) else stmt


def _function(tree: ast.Module, qualname: str):
    scope = tree
    for name in qualname.split("."):
        (scope,) = [n for n in ast.iter_child_nodes(scope) if getattr(n, "name", None) == name]
    return scope


class _Replace(ast.NodeTransformer):
    def __init__(self, target, replacement):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        return self.replacement if node is self.target else self.generic_visit(node)


def mutated(module: str, function: str, original: str, replacement: str) -> str:
    """The source of module with original replaced by replacement inside function."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    want = ast.dump(_node(original))
    hits = [n for n in ast.walk(_function(tree, function)) if ast.dump(n) == want]
    if len(hits) != 1:
        raise SystemExit(f"{original!r} occurs {len(hits)} times in {module}.{function}")
    return ast.unparse(ast.fix_missing_locations(_Replace(hits[0], _node(replacement)).visit(tree)))


def _exports() -> dict:
    """The module each name re-exported by the package comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def selected_files(module: str) -> list:
    """The test files that import module, its own test file first."""
    exports, found = _exports(), []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
                hit = f"qpursuit.{module}" in names
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                hit = node.module == f"qpursuit.{module}" or node.module == "qpursuit" and (
                    module in names or any(exports.get(name) == module for name in names))
            else:
                continue
            if hit:
                found.append(path.name)
                break
    own = f"test_{module}.py"
    return sorted(found, key=lambda name: name != own)


def run(files: list, sources: dict = None) -> tuple:
    """(passed, seconds) of pytest -x on files in a fresh copy of src/, tests/ and the README,
    each module in sources replaced by its text."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        for name in ("pyproject.toml", "README.md"):  # the tests read the README's examples
            shutil.copy(ROOT / name, tmp)
        for module, text in (sources or {}).items():
            (tmp / "src" / "qpursuit" / f"{module}.py").write_text(text)
        env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
        where = subprocess.run([sys.executable, "-c", "import qpursuit; print(qpursuit.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True, check=True)
        if not where.stdout.startswith(str(tmp)):  # an installed copy would shadow the mutant
            raise SystemExit(f"qpursuit imports from {where.stdout.strip()}, not the copy")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *(f"tests/{name}" for name in files)],
            cwd=tmp, env=env, capture_output=True, text=True)
        return done.returncode == 0, time.perf_counter() - start


def main(names: list) -> int:
    chosen = [m for m in CATALOGUE if not names or m[0] in names]
    files = {module: selected_files(module) for module in {m[1] for m in chosen}}
    union = sorted({name for found in files.values() for name in found})
    passed, seconds = run(union)
    print(f"{'unmutated':28} {'pass' if passed else 'FAIL':8} {seconds:6.1f} s  {len(union)} files")
    if not passed:
        return 1
    failed = 0
    for name, module, function, original, replacement, equivalent in chosen:
        survived, seconds = run(files[module], {module: mutated(module, function, original,
                                                                   replacement)})
        verdict = "killed" if not survived else "equiv" if equivalent else "SURVIVED"
        failed += verdict == "SURVIVED"
        print(f"{name:28} {verdict:8} {seconds:6.1f} s  {module}.{function}: {replacement}"
              + (f"  ({equivalent})" if survived and equivalent else ""), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
