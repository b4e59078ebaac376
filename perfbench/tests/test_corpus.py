"""The corpus is a pure function of (workload, seed).

Run with: python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402


def snapshot(c: corpus.Corpus):
    return ([(s.name, s.vertices, sorted(s.facts)) for s in c.shapes.values()],
            [j.key for j in c.jobs])


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in corpus.WORKLOADS:
            self.assertEqual(snapshot(corpus.generate(workload, 11)),
                             snapshot(corpus.generate(workload, 11)))

    def test_other_seed_other_corpus_same_shape_of_work(self):
        for workload in corpus.WORKLOADS:
            a, b = corpus.generate(workload, 1), corpus.generate(workload, 2)
            self.assertNotEqual(snapshot(a), snapshot(b))
            self.assertEqual(sorted(j.command for j in a.jobs), sorted(j.command for j in b.jobs))
            self.assertEqual(sorted(len(s.vertices) for s in a.shapes.values()),
                             sorted(len(s.vertices) for s in b.shapes.values()))

    def test_written_documents(self):
        c = corpus.generate("certify", 3)
        with tempfile.TemporaryDirectory() as tmp:
            c.write(Path(tmp))
            for shape in c.shapes.values():
                doc = json.loads((Path(tmp) / f"{shape.name}.json").read_text())
                self.assertEqual(doc, {"ambient_dim": shape.dim, "vertices": shape.vertices})

    def test_identity_simplices_are_fully_general(self):
        c = corpus.generate("identities", 5)
        for job in c.jobs:
            verts = c.shapes[job.shape].vertices
            general = exact.is_fully_general_simplex(verts)
            self.assertEqual(general, job.command == "simplex-identities", job.key)


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_metrics_match_the_benchmark_file(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        self.assertEqual(declared, [(n, run.per_layer_unit(n)) for n in run.per_layer_names()])
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END.items()))

    def test_tail_percentile_leaves_ten_distinct_jobs_beyond(self):
        self.assertAlmostEqual(run.tail_percentile(40), 0.75)
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 0.5), 3)
        self.assertAlmostEqual(run.percentile([5, 1, 4, 2, 3], 0.6), 3.4)
        self.assertEqual(run.percentile([7.0], 0.75), 7.0)


if __name__ == "__main__":
    unittest.main()
