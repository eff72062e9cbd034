"""Tests of the benchmark itself: oracles, generators, span arithmetic and
the repeatability of timed and traced counts.

    python3 bench/selftest.py

Run from the root of a source checkout. The file is not named test_*.py,
so the library's own pytest run does not collect it.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import oracles as orc  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class OracleCases(unittest.TestCase):
    """Hand-worked answers in the canonical frame a = (-1, 0; 0), b = (1, 0; 0)."""

    def test_window_1d_midpoint(self):
        sup, attained, _ = orc.window((0.0,))
        self.assertEqual((sup, attained), (1.0, False))

    def test_window_2d_midpoint(self):
        sup, attained, _ = orc.window((0.0, 0.0))
        self.assertEqual((sup, attained), (0.0, True))

    def test_window_2d_off_axis(self):
        sup, attained, lowest = orc.window((0.3, 0.4))
        self.assertAlmostEqual(sup, -0.4, places=15)
        self.assertTrue(attained)
        self.assertAlmostEqual(lowest, -math.hypot(0.7, 0.4), places=15)

    def test_window_outside_pair_has_no_valid_time(self):
        self.assertIsNone(orc.window((5.0,)))
        self.assertIsNone(orc.window((-1.5, 0.2, 0.1)))

    def test_binary_margins(self):
        a1, b1 = [-1.0, 0.0], [1.0, 0.0]
        self.assertAlmostEqual(orc.apex_margin(a1, b1, [0.25, 0.5]), 0.25)
        a2, b2 = [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]
        self.assertAlmostEqual(orc.segment_past_margin(a2, b2, [0.3, 0.4, -0.5]), 0.1)
        self.assertAlmostEqual(orc.segment_past_margin(a2, b2, [2.0, 0.0, -0.5]), -0.5)

    def test_segment_margin_sign_is_frame_free(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            a, b, j = workloads._general_triple(rng, d, "holds" if rng.random() < 0.5 else "fails")
            frame = workloads._random_frame(rng, d)
            moved = [workloads._to_frame(frame, e) for e in (a, b, j)]
            self.assertEqual(orc.binary_margin(a, b, j) >= 0.0, orc.binary_margin(*moved) >= 0.0)

    def test_orderings_1d_reversal(self):
        found = orc.orderings_1d([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        self.assertEqual(set(found), {(0, 1, 2), (2, 1, 0)})
        self.assertEqual(found[(2, 1, 0)], (0.0, 1.0))
        self.assertGreater(orc.realised_gap([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]], (0.5,), (2, 1, 0)), 0.0)

    def test_known_chsh_values(self):
        self.assertAlmostEqual(
            abs(orc.chsh_value(orc.setting_correlations(("singlet",), orc.ANGLES_SINGLET_OPTIMAL))),
            2.0 * math.sqrt(2.0), places=14)
        for model in (("superquantum",), ("table",)):
            self.assertAlmostEqual(orc.chsh_value(orc.setting_correlations(model, orc.ANGLES_EQ2)), 4.0)
        self.assertEqual(orc.correlation(("classical", 0b0000), 1.0), 1.0)
        self.assertEqual(orc.correlation(("classical", 0b1000), 1.0), -1.0)

    def test_five_sigma(self):
        corrs = orc.BUILTIN_CORRELATIONS["singlet-optimal"]
        exact = orc.chsh_value(corrs)
        sigma = orc.sampling_sigma(corrs, 10**6)
        self.assertTrue(orc.within_5_sigma(exact + 4.9 * sigma, corrs, 10**6))
        self.assertFalse(orc.within_5_sigma(exact + 5.1 * sigma, corrs, 10**6))

    def test_acyclic(self):
        self.assertTrue(orc.acyclic(3, [(0, 1), (1, 2)]))
        self.assertFalse(orc.acyclic(3, [(0, 1), (1, 2), (2, 0)]))

    def test_window_check_classification(self):
        self.assertIsNone(workloads.check_window((5.0,), None, raised=True))
        self.assertIsNone(workloads.check_window((0.3, 0.4), (-0.4, True), raised=False))
        self.assertEqual(workloads.check_window((0.3, 0.4), (-0.4, False), raised=False),
                         ("attained-flag", True))
        self.assertEqual(workloads.check_window((0.3, 0.4), (-0.3, True), raised=False),
                         ("window-wrong-time", False))
        self.assertEqual(workloads.check_window((0.3, 0.4), None, raised=True),
                         ("window-missed", False))
        self.assertEqual(workloads.check_window((5.0,), (1.0, False), raised=False),
                         ("window-unexpected-time", False))
        # j 7.8e-5 from a: the 1e-9 tolerance on interval^2 trims ~6.4e-6
        x = (-0.9999215750867627,)
        self.assertEqual(workloads.check_window(x, (7.176667445463485e-05, False), raised=False),
                         ("window-tolerance-band", True))


class KnownBaseline(unittest.TestCase):
    def tally(self, counts, attempted=1000):
        tally = worker.Tally()
        tally.attempted = attempted
        tally.failures = dict(counts)
        return tally

    def test_known_class_near_its_baseline_passes(self):
        # 1000 ops at a 10 % baseline: 100 expected, 5 sigma is 47.4
        self.assertEqual(self.tally({"attained-flag": 148}).over_baseline({"attained-flag": 0.1}), [])

    def test_known_class_far_above_its_baseline_fails(self):
        self.assertEqual(self.tally({"attained-flag": 149}).over_baseline({"attained-flag": 0.1}),
                         ["attained-flag"])
        self.assertEqual(self.tally({"window-missed": 2}).over_baseline({}), ["window-missed"])

    def test_unknown_classes_are_left_to_the_oracle(self):
        tally = self.tally({"binary-verdict": 5})
        tally.unknown = {"binary-verdict": 5}
        self.assertEqual(tally.over_baseline({}), [])


class Generators(unittest.TestCase):
    def test_equal_seeds_give_identical_inputs(self):
        # a fresh workload per run, as each measuring process makes one
        for name, cls in workloads.WORKLOADS.items():
            first, again, other = (
                json.dumps(cls(None, ROOT, ROOT).generate(np.random.default_rng(seed), 2)).encode()
                for seed in (7, 7, 8))
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_block_mix_is_fixed(self):
        for cls in workloads.WORKLOADS.values():
            ops = cls(None, ROOT, ROOT).generate(np.random.default_rng(3), 1)
            self.assertEqual(len(ops), sum(count for _, _, count in cls.block))


class SpanArithmetic(unittest.TestCase):
    """A synthetic tree: op 0 spans [0, 10]; its children [1, 4] (with a
    grandchild [2, 3]) and [5, 9]; a second op spans [11, 12]."""

    names = ["bench.op", "jamming.binary_condition", "spacetime.interval", "jamming.latest_jammer_time"]

    def tree(self, **override):
        cols = {
            "name": np.array([0, 1, 2, 3, 0]),
            "parent": np.array([-1, 0, 1, 0, -1]),
            "op": np.array([0, 0, 0, 0, 1]),
            "start": np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
            "end": np.array([10.0, 4.0, 3.0, 9.0, 12.0]),
            "error": np.zeros(5, dtype=bool),
        }
        cols.update(override)
        return cols

    def test_self_times(self):
        t = self.tree()
        own = spans.self_times(t["parent"], t["end"] - t["start"])
        np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_summary_accounts_for_wall_time(self):
        s = spans.summarize(self.names, **self.tree(), wall_s=12.5)
        self.assertEqual(s["problems"], [])
        self.assertAlmostEqual(s["accounted_s"], 11.0)
        self.assertAlmostEqual(s["unaccounted_s"], 1.5)
        self.assertEqual(s["per_name"]["jamming.binary_condition"], [1, 3.0, 2.0, 0])

    def test_nearest_ancestor(self):
        t = self.tree()
        np.testing.assert_array_equal(spans.nearest_ancestor(t["name"], t["parent"], 0), [-1, 0, 0, 0, -1])
        np.testing.assert_array_equal(spans.nearest_ancestor(t["name"], t["parent"], 1), [-1, -1, 1, -1, -1])

    def test_inconsistent_trees_are_reported(self):
        late = self.tree(end=np.array([10.0, 4.0, 3.0, 10.5, 12.0]))
        self.assertIn("child span outside its parent's interval",
                      spans.summarize(self.names, **late, wall_s=13.0)["problems"])
        orphan = self.tree(parent=np.array([-1, 0, 1, -1, -1]))
        self.assertIn("library span outside any op span",
                      spans.summarize(self.names, **orphan, wall_s=13.0)["problems"])
        no_op = self.tree(op=np.array([0, 0, -1, 0, 1]))
        self.assertIn("library span without an op id",
                      spans.summarize(self.names, **no_op, wall_s=13.0)["problems"])


class TracerInstall(unittest.TestCase):
    def test_wraps_every_binding_and_restores_it(self):
        import nonlocality
        from nonlocality import jamming as jm
        from nonlocality import spacetime as st

        originals = (jm.canonicalize_pair, st.canonicalize_pair, nonlocality.binary_condition)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(jm.canonicalize_pair, originals[0])
            cfg = jm.JammingConfiguration(st.Event((-1.0,), 0.2), st.Event((1.0,), 0.1),
                                          st.Event((0.0,), -0.5))
            with tracer.span("bench.op", 0):
                self.assertTrue(jm.binary_condition(cfg).holds)
        finally:
            tracer.uninstall()
        self.assertEqual((jm.canonicalize_pair, st.canonicalize_pair, nonlocality.binary_condition),
                         originals)
        s = tracer.summary(1.0)
        self.assertEqual(s["problems"], [])
        self.assertEqual(s["per_name"]["spacetime.canonicalize_pair"][0], 1)
        self.assertEqual(s["per_name"]["jamming.binary_condition"][0], 1)


class TimedCountsRepeat(unittest.TestCase):
    """A timed run's ops and failures depend on the seed, not on its length."""

    def test_counts_do_not_depend_on_seconds(self):
        short = worker.measure("verdicts", 5, 0.05, False)
        longer = worker.measure("verdicts", 5, 3.0, False)
        self.assertEqual(short["passes"], 1)
        self.assertGreater(longer["passes"], 1)
        for key in ("attempted", "failed", "inputs_sha256", "outcomes_sha256"):
            self.assertEqual(short[key], longer[key], key)
        self.assertEqual(longer["pass_problems"], [])
        self.assertEqual(longer["runs"], longer["passes"] * longer["attempted"])


class TracedCountsRepeat(unittest.TestCase):
    """Count metrics of two traced runs with one seed are identical."""

    def traced(self, workload):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], workload)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # the traced pass's wall time holds the loop between ops as well
        self.assertGreater(metrics["trace.unaccounted_s"], 0.0, workload)
        return {k: v for k, v in metrics.items()
                if k.endswith((".calls", ".errors")) or "_per_" in k or k in ("trace.spans", "trace.ops")}

    def test_counts_repeat(self):
        for workload in ("verdicts", "searches", "chsh", "cli"):
            with self.subTest(workload=workload):
                first, second = self.traced(workload), self.traced(workload)
                self.assertEqual(first, second)
                self.assertGreater(sum(first.values()), 0)


if __name__ == "__main__":
    unittest.main()
