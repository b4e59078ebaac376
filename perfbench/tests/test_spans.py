"""Self-time arithmetic and the tracer's wrapping, on synthetic spans.

Run with: python3 -m unittest discover -s perfbench/tests
"""

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def tree():
    # job 0: main [0, 10]
    #          Polytope [1, 4]
    #            rank [2, 3]
    #          lattice_points [5, 9]
    #            Polytope [6, 7]
    return [
        Span("cli.main", -1, 0, 0.0, 10.0),
        Span("polytope.Polytope", 0, 0, 1.0, 4.0, {"points_in": 10, "vertices_out": 8}),
        Span("linalg.rank", 1, 0, 2.0, 3.0),
        Span("polytope.lattice_points", 0, 0, 5.0, 9.0, {"points_out": 7}),
        Span("polytope.Polytope", 3, 0, 6.0, 7.0, {"points_in": 6, "vertices_out": 6}),
    ]


class SelfTimeTest(unittest.TestCase):
    def test_self_times(self):
        self.assertEqual(spans.self_times(tree()), [3.0, 2.0, 1.0, 3.0, 1.0])

    def test_overlapping_children_are_covered_once(self):
        parent = Span("a", -1, 0, 0.0, 10.0)
        kids = [Span("b", 0, 0, 1.0, 5.0), Span("c", 0, 0, 3.0, 6.0), Span("d", 0, 0, 9.0, 12.0)]
        # Children cover [1, 6] and [9, 10] of the parent: 6 of its 10 seconds.
        self.assertEqual(spans.self_times([parent, *kids])[0], 4.0)

    def test_layer_stats(self):
        stats = spans.layer_stats(tree())
        self.assertEqual(stats["cli.main.calls"], 1)
        self.assertEqual(stats["cli.main.self_s"], 3.0)
        self.assertEqual(stats["cli.main.total_s"], 10.0)
        self.assertEqual(stats["polytope.Polytope.calls"], 2)
        self.assertEqual(stats["polytope.Polytope.self_s"], 3.0)
        self.assertEqual(stats["polytope.Polytope.total_s"], 4.0)
        self.assertEqual(stats["polytope.Polytope.job_share"], 0.4)
        self.assertEqual(stats["polytope.Polytope.extreme_ratio"], 14 / 16)
        self.assertEqual(stats["polytope.lattice_points.total_s"], 4.0)
        self.assertEqual(stats["polytope.lattice_points.points_out"], 7)
        self.assertEqual(stats["linalg.rank.self_s"], 1.0)
        self.assertEqual(stats["polytope.self_share"], 0.6)
        self.assertEqual(stats["volume.triangulate.calls"], 0)
        self.assertEqual(set(stats), set(spans.layer_metric_names()))

    def test_count_signature(self):
        sig = spans.count_signature(tree())
        self.assertEqual(sig["polytope.Polytope.calls"], 2)
        self.assertEqual(sig["polytope.Polytope.points_in"], 16)


class TracerTest(unittest.TestCase):
    def test_wrap_records_nesting_and_job(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        tracer.job = 7
        self.assertEqual(outer(1), 4)
        recorded = tracer.take()
        self.assertEqual([(s.name, s.parent, s.job) for s in recorded],
                         [("outer", -1, 7), ("inner", 0, 7)])
        self.assertEqual(spans.self_times(recorded), [2.0, 1.0])
        self.assertEqual(tracer.spans, [])

    def test_install_rebinds_every_namespace_holding_the_function(self):
        def rank(m):
            return len(m)

        linalg = types.ModuleType("fakepkg.linalg")
        linalg.rank = rank
        user = types.ModuleType("fakepkg.user")
        user.rank = rank  # as after "from .linalg import rank"
        user.call = lambda m: user.rank(m)
        saved = dict(sys.modules)
        sys.modules.update({"fakepkg": types.ModuleType("fakepkg"),
                            "fakepkg.linalg": linalg, "fakepkg.user": user})
        original = spans.WRAPPED
        spans.WRAPPED = (("linalg", "rank", None),)
        tracer = spans.Tracer()
        try:
            tracer.install("fakepkg")
            self.assertEqual(user.call([1, 2]), 2)
            self.assertEqual([s.name for s in tracer.spans], ["linalg.rank"])
        finally:
            tracer.uninstall()
            spans.WRAPPED = original
            sys.modules.clear()
            sys.modules.update(saved)
        self.assertIs(user.rank, rank)
        self.assertIs(linalg.rank, rank)


if __name__ == "__main__":
    unittest.main()
