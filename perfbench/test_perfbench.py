"""Self-tests of the benchmark, on toy-sized inputs from a fixed seed.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import shutil
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SEED = 3
REAL_BUILD = workloads.build


def toy_build(workload, seed, workdir):
    """The workload's warm-up commands (every code path at toy sizes) as its only cycle."""
    warm, _ = REAL_BUILD(workload, seed, workdir)
    return warm, [warm]


class ToyRuns(unittest.TestCase):
    def bench(self, workload, trace):
        out = io.StringIO()
        with mock.patch.object(run.workloads, "build", toy_build), contextlib.redirect_stdout(out):
            self.assertEqual(run.main(["--workload", workload, "--seed", str(SEED),
                                       "--seconds", "0", "--trace", str(trace)]), 0)
        return out.getvalue().splitlines()

    def test_every_declared_metric_is_printed_with_its_unit(self):
        declared = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
        self.assertEqual(set(spans.metric_units()), {m["name"] for m in declared[1]})
        for workload in workloads.WORKLOADS:
            for trace, metrics in declared.items():
                lines = self.bench(workload, trace)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
                for m in metrics:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertTrue(any(line.split()[:1] == [m["name"]] and
                                        line.split()[-1] == m["unit"] for line in lines[:-1]),
                                    f"{m['name']} not printed on {workload}")

    def test_counts_repeat_exactly(self):
        counts = [name for name, unit in spans.metric_units().items() if unit != "s"]
        for workload in workloads.WORKLOADS:
            first, second = (json.loads(self.bench(workload, 1)[-1])["metrics"] for _ in range(2))
            for name in counts:
                self.assertEqual(first[name]["value"], second[name]["value"], name)
            self.assertGreater(first["cli.commands"]["value"], 0)


class Forged:
    """Stands in for qpursuit.cli: prints a fixed text and exits 0 without writing --out."""

    def __init__(self, text):
        self.text = text

    def main(self, argv):
        print(self.text)
        return 0


class Checks(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.workdir)
        self.cli = run.load_cli()

    def cycle(self, workload):
        return workloads.build(workload, SEED, self.workdir)[1][0]

    def outcome(self, cli, cmd):
        tally = run.Tally()
        tally.run(cli, cmd)
        return tally.failed, tally.wrong

    def test_real_outputs_pass(self):
        for cmd in self.cycle("reach")[:3]:
            self.assertEqual(self.outcome(self.cli, cmd), (0, 0), cmd.label)

    def test_forged_fidelity_is_a_wrong_output(self):
        cmd = next(c for c in self.cycle("reach") if c.out is None)
        n = int(cmd.label.split("n=")[1])
        forged = Forged(f"length=3 bound={2 * n - 2} fidelity=0.900000000")
        self.assertEqual(self.outcome(forged, cmd), (1, 1))

    def test_forged_probability_is_a_wrong_output(self):
        cmd = next(c for c in self.cycle("play") if "universal_vertex_catch" in c.label)
        self.assertEqual(self.outcome(Forged("model=quantum_controlled t=1 p_copwin=0.5"), cmd),
                         (1, 1))

    def test_forged_connectivity_is_a_wrong_output(self):
        cmd = next(c for c in self.cycle("analyze") if "sparse" in c.label)
        real = io.StringIO()
        with contextlib.redirect_stdout(real):
            self.cli.main(cmd.argv)
        report = json.loads(real.getvalue())
        report["connected"] = False
        self.assertEqual(self.outcome(Forged(json.dumps(report)), cmd), (1, 1))

    def test_missing_out_file_is_a_failure(self):
        cmd = next(c for c in self.cycle("reach") if c.out is not None)
        n = int(cmd.label.split("n=")[1].split()[0])
        forged = Forged(f"length=1 bound={2 * n - 2} fidelity=1.000000000")
        self.assertEqual(self.outcome(forged, cmd), (1, 0))


if __name__ == "__main__":
    unittest.main()
