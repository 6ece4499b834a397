"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL verdict line (bypassing capture so the
lines show up in any run) and enforces its runtime budget. Corpora come
from the bundled synthetic-English generator; see tests/oracles.py for the
reference implementations.
"""

import json
import logging
import random
import time

import pytest

import oracles
from conftest import logged_args, synthetic_corpus
from morphseg import io, report
from morphseg.align import DistanceTable, align_word, em_align, parse_gold, score_segmentation
from morphseg.cli import main as cli_main
from morphseg.corpus import split_corpus
from morphseg.errors import UnsegmentableError
from morphseg.mdl import ChunkStore, train_online
from morphseg.ml import MorphStats, poisson, reject, train_em, viterbi_segment
from morphseg.synth import generate


def _verdict(capsys, label, body):
    failure = None
    try:
        body()
    except BaseException as exc:  # report FAIL for errors as well as assertions
        failure = exc
    with capsys.disabled():
        print("[acceptance %s] %s" % (label, "FAIL" if failure else "PASS"))
    if failure is not None:
        raise failure


def test_01_tracked_cost_equals_scratch_recompute(capsys):
    def body():
        corpus, _, _ = synthetic_corpus(10000, seed=11)
        t0 = time.perf_counter()
        store = train_online(corpus, dream_interval=2500)
        elapsed = time.perf_counter() - t0
        scratch = store.total_cost()
        assert abs(store.tracked_cost - scratch) <= 1e-9 * scratch
        # independent recompute from word traces alone
        flat = oracles.traced_flat_cost(store)
        assert abs(store.tracked_cost - flat) <= 1e-9 * flat
        assert elapsed <= 10.0, "training took %.1f s" % elapsed

    _verdict(capsys, "01 tracked cost equals scratch recompute after 10k tokens", body)


def test_02_viterbi_is_optimal(capsys):
    def body():
        rng = random.Random(202)
        t0 = time.perf_counter()
        segmentable = 0
        for _ in range(1000):
            length = rng.randint(1, 10)
            word = "".join(rng.choice("ab") for _ in range(length))
            counts = {}
            for ch in "ab":
                if rng.random() < 0.8:
                    counts[ch] = rng.randint(1, 20)
            substrings = {
                word[i:j]
                for i in range(len(word))
                for j in range(i + 1, len(word) + 1)
            }
            for s in sorted(substrings):
                if rng.random() < 0.35:
                    counts[s] = rng.randint(1, 20)
            if not counts:
                counts = {"a": 1}
            stats = MorphStats(counts, sum(counts.values()), {})
            expected = oracles.exhaustive_viterbi(word, stats)
            if expected is None:
                with pytest.raises(UnsegmentableError):
                    viterbi_segment(word, stats)
                continue
            morphs, cost = viterbi_segment(word, stats)
            assert cost == expected[1], (word, counts)
            assert morphs == expected[0], (word, counts)
            assert "".join(morphs) == word
            segmentable += 1
        assert segmentable >= 500
        elapsed = time.perf_counter() - t0
        assert elapsed <= 5.0, "%.1f s" % elapsed

    _verdict(capsys, "02 viterbi equals the exhaustive minimum on 1000 instances", body)


def test_03_alignment_dp_matches_brute_force(capsys):
    def body():
        rng = random.Random(303)
        labels_pool = ["A", "B", "C", "PL"]
        t0 = time.perf_counter()
        for _ in range(500):
            morphs = [
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            labels = [rng.choice(labels_pool) for _ in range(rng.randint(1, 4))]
            distances = {}
            for m in morphs:
                for l in labels:
                    if rng.random() < 0.6:
                        distances[(m, l)] = round(rng.uniform(0.0, 8.0), 3)
            observed = max(distances.values(), default=0.0)
            table = DistanceTable(distances, observed + 10.0)
            pairs, bits = align_word(morphs, labels, table)
            assert bits == oracles.brute_force_align(morphs, labels, table)
            assert {i for i, _ in pairs} == set(range(len(morphs)))
            assert {j for _, j in pairs} == set(range(len(labels)))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 5.0, "%.1f s" % elapsed

    _verdict(capsys, "03 alignment DP equals brute force on 500 instances", body)


def test_04_em_cost_is_non_increasing_without_rejection(capsys, caplog):
    def body():
        corpus, _, _ = synthetic_corpus(5000, seed=44)
        t0 = time.perf_counter()
        with caplog.at_level(logging.INFO, logger="morphseg.ml"):
            train_em(corpus, iterations=10, rng=random.Random(4), use_rejection=False)
        elapsed = time.perf_counter() - t0
        log = [corpus_bits for _, _, corpus_bits, _ in logged_args(caplog, "morphseg.ml")]
        assert len(log) == 10
        for earlier, later in zip(log, log[1:]):
            assert later <= earlier + 1e-9, log
        assert elapsed <= 10.0, "%.1f s" % elapsed

    _verdict(capsys, "04 no-reject EM cost never increases over 10 iterations", body)


def test_05_rejection_fixtures(capsys):
    def body():
        assert reject(["halua", "n"], {}) is None
        assert reject(["halu", "a", "n"], {}) == "one-letter-sequence"
        assert reject(["halua", "n"], {"halua": 1}) == "rare-morph"

    _verdict(capsys, "05 rejection fixtures behave as documented", body)


def test_06_poisson_sampler_mean(capsys):
    def body():
        rng = random.Random(6)
        n = 10 ** 5
        total = sum(poisson(rng, 5.5) for _ in range(n))
        mean = total / n
        assert 5.4 <= mean <= 5.6, mean

    _verdict(capsys, "06 poisson mean of 100k draws is within [5.4, 5.6]", body)


def test_07_dreaming_lowers_average_word_cost(capsys, caplog, tmp_path):
    def body():
        corpus, _, _ = synthetic_corpus(50000, seed=7)
        curve = []
        t0 = time.perf_counter()
        with caplog.at_level(logging.INFO, logger="morphseg.mdl"):
            train_online(corpus, curve=curve)
        elapsed = time.perf_counter() - t0
        dream_log = logged_args(caplog, "morphseg.mdl")
        assert dream_log, "no dreaming events in 50k tokens"
        n_first, before_first, _ = dream_log[0]
        n_last, _, after_last = dream_log[-1]
        assert after_last / n_last <= before_first / n_first
        curve_path = tmp_path / "curve.csv"
        io.write_cost_curve(curve, curve_path)
        assert io.read_cost_curve(curve_path) == curve
        assert elapsed <= 120.0, "%.1f s" % elapsed

    _verdict(capsys, "07 dreaming lowers the average word cost on 50k tokens", body)


def test_08_unsplit_training_distance_is_zero(capsys):
    def body():
        corpus, gold_lines, tags = synthetic_corpus(3000, seed=8)
        gold = parse_gold(gold_lines, tag_filter=set(tags))
        train, test = split_corpus(corpus, 2000, 1000)
        new_types = set(test.type_counts) - set(train.type_counts)
        assert new_types, "held-out split brought no new word types"

        train_seg = {w: [w] for w in train.type_counts}
        test_seg = {w: [w] for w in test.type_counts}
        table = em_align(train_seg, gold, train.type_counts)
        result = score_segmentation(test_seg, gold, test.type_counts, table)
        train_score = score_segmentation(train_seg, gold, train.type_counts, table)
        assert train_score.alignment_distance_bits == 0.0
        assert train_score.unseen_pairs == 0
        assert result.alignment_distance_bits > 0.0
        assert result.unseen_pairs > 0

    _verdict(capsys, "08 whole-word training distance is 0, held-out is positive", body)


def test_09_desk_scale_codebook_compression(capsys):
    def body():
        corpus, gold_lines, _ = synthetic_corpus(100000, seed=9)
        assert gold_lines
        t0 = time.perf_counter()
        store = train_online(corpus)
        elapsed = time.perf_counter() - t0
        assert len(dict(store.iter_morphs())) < len(corpus.type_counts)
        assert report.build_report(store).relative_codebook_cost < 0.25
        assert elapsed <= 300.0, "%.1f s" % elapsed

    _verdict(capsys, "09 codebook shrinks below the type count on 100k tokens", body)


def test_10_compare_runs_are_byte_identical(capsys, tmp_path):
    def body():
        tokens, gold_lines, tags = generate(1500, seed=10)
        corpus_path = tmp_path / "corpus.txt"
        corpus_path.write_text(
            "\n".join(" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12)),
            encoding="utf-8",
        )
        gold_path = tmp_path / "gold.tsv"
        gold_path.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
        tags_path = tmp_path / "tags.txt"
        tags_path.write_text("\n".join(tags) + "\n", encoding="utf-8")

        artifacts = [
            "rec_mdl.model",
            "seq_ml.model",
            "rec_mdl.train_seg.tsv",
            "rec_mdl.test_seg.tsv",
            "seq_ml.train_seg.tsv",
            "seq_ml.test_seg.tsv",
            "report.json",
        ]
        outputs = {}
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code = cli_main(
                [
                    "compare",
                    "--corpus", str(corpus_path),
                    "--train-tokens", "1000",
                    "--test-tokens", "400",
                    "--gold", str(gold_path),
                    "--tags", str(tags_path),
                    "--dream-interval", "400",
                    "--iterations", "4",
                    "--seed", "42",
                    "--out-dir", str(out_dir),
                ]
            )
            assert code == 0
            outputs[run] = {name: (out_dir / name).read_bytes() for name in artifacts}
            outputs[run]["stdout"] = capsys.readouterr().out  # the comparison table
        for name in artifacts + ["stdout"]:
            assert outputs["a"][name] == outputs["b"][name], name
        assert "Total cost [bits]" in outputs["a"]["stdout"]
        report = [json.loads(line) for line in outputs["a"]["report.json"].splitlines()]
        assert len(report) == 2

    _verdict(capsys, "10 repeated compare runs produce byte-identical artifacts and tables", body)


def test_11_count_flow_survives_random_operations(capsys):
    def body():
        rng = random.Random(77)
        pool = [
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 10)))
            for _ in range(150)
        ]
        store = ChunkStore()
        for op in range(10000):
            if store.word_counts and rng.random() < 0.05:
                store.dream(rng)
            else:
                store.process_word(rng.choice(pool))
            inflow = {}
            for chunk in store.chunks.values():
                assert chunk.count > 0, "zero-count chunk retained: %r" % chunk.text
                s = chunk.split
                if s:
                    for part in (chunk.text[:s], chunk.text[s:]):
                        inflow[part] = inflow.get(part, 0) + chunk.count
            for text, chunk in store.chunks.items():
                expected = store.word_counts.get(text, 0) + inflow.get(text, 0)
                assert chunk.count == expected, (op, text)
            if op % 1000 == 999:
                store.check_integrity()
        store.check_integrity()

    _verdict(capsys, "11 count flow holds through 10k random operations", body)
