"""Self-tests of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import layer_self_times, self_times  # noqa: E402


def _tempdir():
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.WORK))


class TempDir(unittest.TestCase):
    def setUp(self):
        self.tmp = _tempdir()
        self.addCleanup(shutil.rmtree, self.tmp)


class GeneratorTest(TempDir):
    def _digests(self, kind, n, seed):
        d = Path(tempfile.mkdtemp(dir=self.tmp))
        paths, _ = inputs.make_compare_inputs(d, kind, n, seed)
        return {k: inputs.sha256_file(p) for k, p in paths.items()}

    def test_same_seed_same_inputs(self):
        for kind in ("synth", "long"):
            self.assertEqual(self._digests(kind, 300, 5), self._digests(kind, 300, 5))

    def test_different_seeds_different_inputs(self):
        for kind in ("synth", "long"):
            a, b = self._digests(kind, 300, 5), self._digests(kind, 300, 6)
            self.assertNotEqual(a["corpus"], b["corpus"])
            self.assertNotEqual(a["gold"], b["gold"])

    def test_long_words_shape_and_gold(self):
        tokens, gold, tags = inputs.long_words(500, 3)
        self.assertEqual(len(tokens), 500)
        self.assertTrue(all(len(t) >= 2 for t in tokens))
        self.assertGreater(sum(map(len, tokens)) / len(tokens), 15)
        analyses = dict(line.split("\t") for line in gold)
        self.assertEqual(set(analyses), set(tokens))
        # labels: the constituents' base forms, then only affix tags
        for analysis in analyses.values():
            for tag in analysis.split(" ")[1:]:
                self.assertIn(tag, tags)

    def test_heldout_text_uses_another_seed(self):
        self.assertNotEqual(inputs.heldout_seed(0), 0)


class CheckerTest(TempDir):
    @classmethod
    def setUpClass(cls):
        cls.cases = _tempdir()
        paths, tokens = inputs.make_compare_inputs(cls.cases, "synth", 1200, 1)
        cls.train_types, cls.test_types = set(tokens[:900]), set(tokens[900:])
        cls.out = cls.cases / "out"
        argv = [
            "compare", "--corpus", str(paths["corpus"]), "--train-tokens", "900",
            "--test-tokens", "300", "--gold", str(paths["gold"]), "--tags", str(paths["tags"]),
            "--dream-interval", "300", "--iterations", "3", "--out-dir",
        ]
        cls.records = {}
        for mode in ("plain", "trace"):
            record = cls.cases / (mode + ".json")
            out_dir = cls.cases / mode
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(record), "--"]
                + argv + [str(out_dir)],
                capture_output=True,
            )
            assert done.returncode == 0, done.stderr
            cls.records[mode] = json.loads(record.read_text())
        shutil.copytree(cls.cases / "plain", cls.out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.cases)

    def test_good_outputs_pass(self):
        self.assertEqual(checks.check_compare(self.out, self.train_types, self.test_types), [])

    def test_tampered_segmentation_fails(self):
        out = self.tmp / "out"
        shutil.copytree(self.out, out)
        seg = out / "rec_mdl.test_seg.tsv"
        lines = seg.read_text().split("\n")
        word, morphs = lines[1].split("\t")
        lines[1] = "%s\t%s" % (word, morphs + "x")
        seg.write_text("\n".join(lines))
        problems = checks.check_compare(out, self.train_types, self.test_types)
        self.assertEqual(len(problems), 1)
        self.assertIn("do not concatenate", problems[0])

    def test_missing_type_fails(self):
        self.assertTrue(
            checks.check_compare(self.out, self.train_types | {"zzz"}, self.test_types)
        )

    def test_report_must_hold_both_methods(self):
        path = self.tmp / "report.json"
        rows = (self.out / "report.json").read_text().splitlines()
        path.write_text(rows[0] + "\n")
        self.assertTrue(checks.check_report(path))
        path.write_text("[1]\n" + rows[1] + "\n")
        self.assertTrue(checks.check_report(path))

    def test_tampered_segment_output_fails(self):
        path = self.tmp / "seg.tsv"
        path.write_text("morphseg-seg v1\ncats\tcat s\ncats\tca ts\n")
        self.assertEqual(checks.check_segment_output(path, ["cats", "cats"]), [])
        path.write_text("morphseg-seg v1\ncats\tcat s\ncats\tcat\n")
        self.assertTrue(checks.check_segment_output(path, ["cats", "cats"]))
        self.assertTrue(checks.check_segment_output(path, ["cats"]))

    def test_failed_ops_are_counted(self):
        bench = run.Run("desk-100k", 0, 0)
        bench.ops = [
            {"problems": checks.check_exit(0)},
            {"problems": checks.check_exit(3)},
            {"problems": checks.check_segmentation(self.tmp / "absent.tsv", [])},
        ]
        self.assertEqual(bench.failed(), 2)

    def test_report_model_mismatch(self):
        # compare reports the rec-mdl model after adapting it to the test
        # words, while rec_mdl.model is saved before: a known defect
        self.assertGreater(checks.model_mismatch_bits(self.out), 0.0)

    def test_tracing_leaves_artifacts_identical(self):
        for name in checks.COMPARE_ARTIFACTS:
            self.assertEqual(
                (self.cases / "plain" / name).read_bytes(),
                (self.cases / "trace" / name).read_bytes(),
                name,
            )

    def test_untraced_run_marks_end_of_setup(self):
        self.assertIsNotNone(self.records["plain"]["first_call"])
        self.assertIsNone(self.records["plain"]["trace"])

    def test_traced_counts(self):
        m = layers.layer_metrics([(self.records["trace"]["trace"], 10.0)])
        self.assertEqual(m["corpus.tokens"], 1200)
        self.assertEqual(m["mdl.dream_events"], 3)
        train, test = len(self.train_types), len(self.test_types)
        self.assertEqual(m["mdl.segment_words"], train + test)
        # three EM iterations over the training types, then the test types
        self.assertEqual(m["ml.viterbi_calls"], 3 * train + test)
        self.assertAlmostEqual(m["ml.s_per_iteration"] * 3, m["ml.train_s"])
        self.assertGreater(m["align.em_iterations"], 0)
        self.assertGreater(m["cli.self_s"], 0.0)


class SpanTest(unittest.TestCase):
    SPANS = [
        ["cli.compare", 0.0, 10.0, -1],
        ["mdl.train", 1.0, 6.0, 0],
        ["mdl.dream", 2.0, 3.0, 1],
        ["mdl.dream", 4.0, 4.5, 1],
        ["ml.train", 6.0, 9.0, 0],
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.SPANS), [2.0, 3.5, 1.0, 0.5, 3.0])

    def test_layer_self_times_charge_the_rest_to_cli(self):
        layers_ = layer_self_times(self.SPANS, wall=12.0)
        self.assertEqual(layers_["cli"], 2.0 + 2.0)
        self.assertEqual(layers_["mdl"], 5.0)
        self.assertEqual(layers_["ml"], 3.0)
        self.assertEqual(sum(layers_.values()), 12.0)


if __name__ == "__main__":
    unittest.main()
