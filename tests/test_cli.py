import json
import logging
import math
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import logged_args
from morphseg import cli, io, ml, report, synth
from morphseg.cli import build_parser, main
from morphseg.errors import UnsegmentableError


@pytest.fixture
def workdir(tmp_path):
    tokens, gold_lines, tags = synth.generate(1200, seed=3)
    lines = [" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12)]
    (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "gold.tsv").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    (tmp_path / "tags.txt").write_text("\n".join(tags) + "\n", encoding="utf-8")
    return tmp_path


def test_defaults():
    args = build_parser().parse_args(
        ["train", "--method", "rec-mdl", "--corpus", "c", "--model", "m"]
    )
    assert args.seed == 42
    assert args.alphabet == "english"
    assert args.char_bits == 5
    assert args.interval_mean == 5.5


def test_train_rec_mdl(workdir):
    model = workdir / "rec.model"
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(model),
            "--dream-interval", "500",
            "--cost-curve", str(workdir / "curve.csv"),
        ]
    )
    assert code == 0
    store = io.load_mdl_model(model)
    store.check_integrity()
    assert sum(store.word_counts.values()) == 1200
    curve = io.read_cost_curve(workdir / "curve.csv")
    assert curve and curve[-1][0] == 1200


def test_train_respects_token_budget(workdir):
    model = workdir / "rec.model"
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(model),
            "--train-tokens", "200",
        ]
    )
    assert code == 0
    assert sum(io.load_mdl_model(model).word_counts.values()) == 200


def test_train_seq_ml(workdir):
    model = workdir / "seq.model"
    code = main(
        [
            "train", "--method", "seq-ml",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(model),
            "--iterations", "3",
        ]
    )
    assert code == 0
    stats = io.load_ml_model(model)
    assert stats.counts
    assert stats.total == sum(stats.counts.values())


def test_train_rejects_uncodable_alphabet(workdir):
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--char-bits", "0",
        ]
    )
    assert code == 2


def test_train_missing_corpus_is_a_data_error(workdir):
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "nope.txt"),
            "--model", str(workdir / "m"),
        ]
    )
    assert code == 3


def test_train_alphabet_filtering_everything_is_a_data_error(workdir):
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--alphabet", "xq",
        ]
    )
    assert code == 3


def test_train_zero_token_budget_is_a_data_error(workdir):
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--train-tokens", "0",
        ]
    )
    assert code == 3
    assert not (workdir / "m").exists()


@pytest.mark.parametrize("lam", ["0", "-1", "nan", "inf", "1000"])
def test_train_seq_ml_rejects_unusable_lambda(workdir, lam):
    code = main(
        [
            "train", "--method", "seq-ml",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--lambda", lam,
        ]
    )
    assert code == 2
    assert not (workdir / "m").exists()


@pytest.mark.parametrize(
    "method, option, value",
    [
        ("seq-ml", "--lambda", "0"),
        ("seq-ml", "--lambda", "1e-17"),  # every draw zero: random_segment never ends
        ("seq-ml", "--iterations", "0"),
        ("seq-ml", "--cost-curve", "curve.csv"),  # the curve is rec-mdl's
        ("rec-mdl", "--dream-interval", "-1"),
        ("rec-mdl", "--char-bits", "2"),
    ],
)
def test_train_checks_options_before_reading_the_corpus(workdir, method, option, value):
    code = main(
        [
            "train", "--method", method,
            "--corpus", str(workdir / "missing.txt"),
            "--model", str(workdir / "m"),
            option, value,
        ]
    )
    assert code == 2
    assert not (workdir / "m").exists()


def test_unknown_option_exits_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 2


def _train(workdir, method, model, extra=()):
    assert (
        main(
            [
                "train", "--method", method,
                "--corpus", str(workdir / "corpus.txt"),
                "--model", str(model),
            ]
            + list(extra)
        )
        == 0
    )


def test_segment_known_and_novel_words(workdir, capsys):
    model = workdir / "rec.model"
    _train(workdir, "rec-mdl", model, ["--dream-interval", "400"])
    words = workdir / "words.txt"
    words.write_text("times\nTimes\nuntrainedword\n", encoding="utf-8")
    assert main(["segment", "--model", str(model), "--words", str(words)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "morphseg-seg v1"
    records = [line.split("\t") for line in lines[1:]]
    # lowercased by default, input order preserved
    assert [r[0] for r in records] == ["times", "times", "untrainedword"]
    for word, morphs in records:
        assert "".join(morphs.split(" ")) == word


def test_segment_to_file_roundtrips(workdir):
    model = workdir / "rec.model"
    _train(workdir, "rec-mdl", model)
    words = workdir / "words.txt"
    words.write_text("times\nwalked\n", encoding="utf-8")
    out_path = workdir / "seg.tsv"
    assert (
        main(
            [
                "segment", "--model", str(model),
                "--words", str(words),
                "--out", str(out_path),
            ]
        )
        == 0
    )
    seg = io.load_segmentation(out_path)
    assert set(seg) == {"times", "walked"}


def test_segment_with_ml_model_keeps_uncoverable_words_whole(workdir, capsys):
    model = workdir / "seq.model"
    _train(workdir, "seq-ml", model, ["--iterations", "2"])
    words = workdir / "words.txt"
    words.write_text("zzzq\n", encoding="utf-8")
    assert main(["segment", "--model", str(model), "--words", str(words)]) == 0
    out = capsys.readouterr().out
    assert "zzzq\tzzzq" in out


def _segment_body(capsys, model, words):
    assert main(["segment", "--model", str(model), "--words", str(words)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "morphseg-seg v1" and lines[-1] == ""
    return lines[1:-1]


# repeats, a case variant, unknown words and an uncoverable one, unsorted
_SEGMENT_WORDS = [
    "times", "zzzq", "walked", "untrainedword", "Times", "times", "zzzq",
    "wordsmithing", "untrainedword", "walked", "times",
]


def test_segment_with_ml_model_segments_each_type_once(workdir, capsys, caplog, monkeypatch):
    model = workdir / "seq.model"
    _train(workdir, "seq-ml", model, ["--iterations", "2"])
    words = workdir / "words.txt"
    words.write_text("\n".join(_SEGMENT_WORDS) + "\n", encoding="utf-8")
    stats = io.load_ml_model(model)
    expected = []
    uncoverable = set()
    for word in (w.lower() for w in _SEGMENT_WORDS):
        try:
            morphs, _ = ml.viterbi_segment(word, stats)
        except UnsegmentableError:
            morphs = [word]
            uncoverable.add(word)
        expected.append("%s\t%s" % (word, " ".join(morphs)))
    calls = []
    viterbi_segment = ml.viterbi_segment

    def counted(word, stats):
        calls.append(word)
        return viterbi_segment(word, stats)

    monkeypatch.setattr(ml, "viterbi_segment", counted)
    with caplog.at_level(logging.WARNING):
        assert _segment_body(capsys, model, words) == expected
    assert sorted(calls) == sorted({w.lower() for w in _SEGMENT_WORDS})
    assert "zzzq" in uncoverable
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert sorted(warnings) == ["no known morphs cover %r; kept whole" % w for w in sorted(uncoverable)]


def test_segment_with_rec_mdl_model_adapts_in_input_order(workdir, capsys):
    model = workdir / "rec.model"
    _train(workdir, "rec-mdl", model, ["--dream-interval", "400"])
    words = workdir / "words.txt"
    words.write_text("\n".join(_SEGMENT_WORDS) + "\n", encoding="utf-8")
    store = io.load_mdl_model(model)
    expected = [
        "%s\t%s" % (word, " ".join(cli._segment_with(store, word)))
        for word in (w.lower() for w in _SEGMENT_WORDS)
    ]
    assert _segment_body(capsys, model, words) == expected


@pytest.mark.parametrize("method", ["rec-mdl", "seq-ml"])
def test_segment_out_file_equals_stdout(workdir, capsys, method):
    model = workdir / "model"
    _train(workdir, method, model, ["--iterations", "2"] if method == "seq-ml" else [])
    words = workdir / "words.txt"
    words.write_text("\n".join(_SEGMENT_WORDS) + "\n", encoding="utf-8")
    out_path = workdir / "seg.tsv"
    args = ["segment", "--model", str(model), "--words", str(words)]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert main(args + ["--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == stdout
    assert stdout.count("\n") == len(_SEGMENT_WORDS) + 1


@pytest.mark.parametrize("method", ["rec-mdl", "seq-ml"])
@pytest.mark.parametrize("line", ["well known", "walk\ted"])
def test_segment_rejects_whitespace_inside_a_word(workdir, capsys, method, line):
    model = workdir / "model"
    _train(workdir, method, model, ["--iterations", "1"] if method == "seq-ml" else [])
    words = workdir / "words.txt"
    words.write_text("times\n\nwalked\n%s\ntimes\n" % line, encoding="utf-8")
    out_path = workdir / "seg.tsv"
    argv = ["segment", "--model", str(model), "--words", str(words), "--out", str(out_path)]
    assert main(argv) == 3
    assert "%s line 4: whitespace inside word" % words in capsys.readouterr().err
    assert not out_path.exists()


_WORD_LINES = st.lists(
    st.tuples(
        st.sampled_from(["", " ", "\t", " \t "]),
        st.text(alphabet="aAbB", max_size=3),
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ),
    max_size=12,
)


@given(_WORD_LINES, st.booleans())
@settings(max_examples=100, deadline=None)
def test_read_words_matches_a_per_line_reference(lines, lowercase):
    text = "".join("".join(parts) for parts in lines)
    expected = [word.lower() if lowercase else word for _, word, _, _ in lines if word]
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        words = cli._read_words(path, lowercase)
    finally:
        os.unlink(path)
    assert words == expected
    # tokens of one type, case variants included when lowercasing, share one string
    assert len({id(w) for w in words}) == len(set(words))


def test_segment_rejects_non_model_files(workdir, capsys):
    seg_file = workdir / "not_a_model.tsv"
    io.save_segmentation({"a": ["a"]}, seg_file)
    empty = workdir / "empty.model"
    empty.write_text("", encoding="utf-8")
    words = workdir / "words.txt"
    words.write_text("a\n", encoding="utf-8")
    out = workdir / "out.tsv"
    for model in (seg_file, empty):
        argv = ["segment", "--model", str(model), "--words", str(words), "--out", str(out)]
        assert main(argv) == 3
        assert "%s: not a model file" % model in capsys.readouterr().err
        assert not out.exists()


def eval_fixture(tmp_path):
    seg = {
        "cats": ["cat", "s"],
        "dogs": ["dog", "s"],
        "birds": ["bird", "s"],
        "kings": ["king", "s"],
    }
    seg_path = tmp_path / "seg.tsv"
    io.save_segmentation(seg, seg_path)
    gold_path = tmp_path / "eval_gold.tsv"
    gold_path.write_text(
        "cats\tCAT PL\ndogs\tDOG PL\nbirds\tBIRD PL\nkings\tKING GEN\n",
        encoding="utf-8",
    )
    return seg_path, gold_path


def test_eval_reports_distance_and_unseen_share(tmp_path, capsys):
    seg_path, gold_path = eval_fixture(tmp_path)
    code = main(
        [
            "eval",
            "--train-seg", str(seg_path),
            "--test-seg", str(seg_path),
            "--gold", str(gold_path),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    expected = 3 * math.log2(4 / 3) + 2.0  # three s=PL tokens, one s=GEN
    assert record["alignment_distance_bits"] == pytest.approx(expected)
    assert record["unseen_pair_pct"] == 0.0
    assert record["max_distance"] == 12.0


def test_eval_writes_alignment_dump(tmp_path):
    seg_path, gold_path = eval_fixture(tmp_path)
    dump = tmp_path / "alignments.tsv"
    out = tmp_path / "metrics.json"
    code = main(
        [
            "eval",
            "--train-seg", str(seg_path),
            "--test-seg", str(seg_path),
            "--gold", str(gold_path),
            "--dump-alignments", str(dump),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert "cats\tcat:CAT s:PL" in lines
    assert "kings\tking:KING s:GEN" in lines
    assert json.loads(out.read_text(encoding="utf-8"))["unseen_pair_pct"] == 0.0


def test_eval_out_file_equals_stdout(tmp_path, capsys):
    seg_path, gold_path = eval_fixture(tmp_path)
    assert main(_eval_argv(seg_path, gold_path)) == 0
    out = tmp_path / "metrics.json"
    assert main(_eval_argv(seg_path, gold_path, "--out", str(out))) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_eval_alignment_dump_is_utf8_with_lf_ends(tmp_path):
    seg_path, gold_path = tmp_path / "seg.tsv", tmp_path / "gold.tsv"
    io.save_segmentation({"päivät": ["päivä", "t"], "yöt": ["yö", "t"]}, seg_path)
    gold_path.write_text("päivät\tPÄIVÄ PL\nyöt\tYÖ PL\n", encoding="utf-8")
    dump = tmp_path / "alignments.tsv"
    assert main(_eval_argv(seg_path, gold_path, "--dump-alignments", str(dump))) == 0
    assert dump.read_bytes() == "päivät\tpäivä:PÄIVÄ t:PL\nyöt\työ:YÖ t:PL\n".encode("utf-8")


def test_eval_with_max_distance_override(tmp_path, capsys):
    seg_path, gold_path = eval_fixture(tmp_path)
    code = main(
        [
            "eval",
            "--train-seg", str(seg_path),
            "--test-seg", str(seg_path),
            "--gold", str(gold_path),
            "--max-distance", "25.0",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["max_distance"] == 25.0


def test_eval_rejects_too_small_max_distance(tmp_path, capsys):
    seg_path, gold_path = eval_fixture(tmp_path)
    code = main(
        [
            "eval",
            "--train-seg", str(seg_path),
            "--test-seg", str(seg_path),
            "--gold", str(gold_path),
            "--max-distance", "1.0",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_eval_rejects_unusable_max_distance_before_reading(tmp_path, capsys, value):
    missing = str(tmp_path / "missing.tsv")
    argv = ["eval", "--train-seg", missing, "--test-seg", missing, "--gold", missing,
            "--max-distance", value]
    assert main(argv) == 2
    assert "max distance must be finite and non-negative" in capsys.readouterr().err


def test_eval_missing_file_is_a_data_error(tmp_path):
    seg_path, gold_path = eval_fixture(tmp_path)
    code = main(
        [
            "eval",
            "--train-seg", str(tmp_path / "missing.tsv"),
            "--test-seg", str(seg_path),
            "--gold", str(gold_path),
        ]
    )
    assert code == 3


@pytest.mark.parametrize("bad_option", ["--words", "--model", "--gold"])
def test_non_utf8_input_is_a_data_error(workdir, bad_option):
    model = workdir / "seq.model"
    _train(workdir, "seq-ml", model, ["--iterations", "1"])
    words = workdir / "words.txt"
    words.write_text("times\n", encoding="utf-8")
    seg_path, gold_path = eval_fixture(workdir)
    bad = workdir / "bad.txt"
    bad.write_bytes(b"caf\xe9\n")
    paths = {"--model": model, "--words": words, "--gold": gold_path, bad_option: bad}
    out_path = workdir / "out.tsv"
    if bad_option == "--gold":
        argv = ["eval", "--train-seg", str(seg_path), "--test-seg", str(seg_path)]
        argv += ["--gold", str(paths["--gold"])]
    else:
        argv = ["segment", "--model", str(paths["--model"]), "--words", str(paths["--words"])]
        argv += ["--out", str(out_path)]
    assert main(argv) == 3
    assert not out_path.exists()


def test_eval_with_count_files_weights_tokens(tmp_path, capsys):
    seg_path, gold_path = eval_fixture(tmp_path)
    counts_path = tmp_path / "counts.tsv"
    io.save_word_counts({"cats": 6, "dogs": 1, "birds": 1, "kings": 2}, counts_path)
    code = main(
        [
            "eval",
            "--train-seg", str(seg_path),
            "--test-seg", str(seg_path),
            "--gold", str(gold_path),
            "--train-counts", str(counts_path),
            "--test-counts", str(counts_path),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    expected = 8 * math.log2(10 / 8) + 2 * math.log2(10 / 2)
    assert record["alignment_distance_bits"] == pytest.approx(expected)


def test_eval_warns_once_per_fit_and_once_per_score_about_words_without_analyses(tmp_path, caplog):
    seg_path, gold_path = eval_fixture(tmp_path)
    gold_path.write_text("cats\tCAT PL\nkings\tKING GEN\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert main(_eval_argv(seg_path, gold_path)) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["2 words lacked reference analyses and were skipped"] * 2


def _eval_argv(seg_path, gold_path, *extra):
    return ["eval", "--train-seg", str(seg_path), "--test-seg", str(seg_path),
            "--gold", str(gold_path)] + list(extra)


def test_eval_rejects_zero_em_iterations(tmp_path, capsys):
    # before any input is read: the files do not exist
    missing = tmp_path / "missing.tsv"
    assert main(_eval_argv(missing, missing, "--em-iterations", "0")) == 2
    assert "need at least one alignment EM iteration" in capsys.readouterr().err


def test_eval_test_counts_missing_a_scored_word_is_a_data_error(tmp_path, capsys):
    seg_path, gold_path = eval_fixture(tmp_path)
    counts_path = tmp_path / "counts.tsv"
    io.save_word_counts({"cats": 6, "dogs": 1, "birds": 1}, counts_path)
    code = main(_eval_argv(seg_path, gold_path, "--test-counts", str(counts_path)))
    assert code == 3
    assert "no token count for 'kings'" in capsys.readouterr().err


@pytest.mark.parametrize("records", ["cats\t1\n\t2", "cats\t0", "cats\t-1", "cats\t1\ncats\t2"])
def test_eval_rejects_invalid_count_files(tmp_path, records):
    # every scored word has a count; only the invalid records are at fault
    seg_path, gold_path = eval_fixture(tmp_path)
    counts_path = tmp_path / "counts.tsv"
    counts_path.write_text(
        "morphseg-counts v1\ndogs\t1\nbirds\t1\nkings\t1\n%s\n" % records, encoding="utf-8"
    )
    code = main(_eval_argv(seg_path, gold_path, "--train-counts", str(counts_path)))
    assert code == 3


def test_compare_pipeline(workdir, capsys):
    out_dir = workdir / "run"
    code = main(
        [
            "compare",
            "--corpus", str(workdir / "corpus.txt"),
            "--train-tokens", "900",
            "--test-tokens", "300",
            "--gold", str(workdir / "gold.tsv"),
            "--tags", str(workdir / "tags.txt"),
            "--dream-interval", "400",
            "--iterations", "4",
            "--out-dir", str(out_dir),
            "--cost-curve", str(workdir / "curve.csv"),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "Rec. MDL" in table and "Seq. ML" in table
    assert "Alignment distance [bits]" in table
    assert "Time" not in table
    assert "* " in table  # ML cost footnote

    for name in [
        "rec_mdl.model",
        "seq_ml.model",
        "rec_mdl.train_seg.tsv",
        "rec_mdl.test_seg.tsv",
        "seq_ml.train_seg.tsv",
        "seq_ml.test_seg.tsv",
        "report.json",
    ]:
        assert (out_dir / name).exists(), name

    from morphseg.report import read_metrics

    reports = read_metrics(out_dir / "report.json")
    assert [r.method for r in reports] == ["rec-mdl", "seq-ml"]
    assert all(r.alignment_distance_bits is not None for r in reports)
    assert io.read_cost_curve(workdir / "curve.csv")
    raw = (out_dir / "report.json").read_bytes()
    assert raw.decode("utf-8").count("\n") == 2 and b"\r" not in raw

    train_seg = io.load_segmentation(out_dir / "rec_mdl.train_seg.tsv")
    assert all("".join(m) == w for w, m in train_seg.items())


def test_train_and_compare_train_each_method_the_same_way(workdir, caplog):
    common = [
        "--corpus", str(workdir / "corpus.txt"), "--train-tokens", "900",
        "--dream-interval", "400", "--iterations", "3", "--seed", "7", "--lambda", "4",
    ]
    out_dir = workdir / "run"
    records = {}
    with caplog.at_level(logging.INFO, logger="morphseg.cli"):
        for method in ("rec-mdl", "seq-ml"):
            argv = ["train", "--method", method, "--model", str(workdir / method)]
            if method == "rec-mdl":
                argv += ["--cost-curve", str(workdir / "train_curve.csv")]
            caplog.clear()
            assert main(argv + common) == 0
            records[method] = [args[:4] for args in logged_args(caplog, "morphseg.cli")]
        caplog.clear()
        argv = ["compare", "--test-tokens", "300", "--out-dir", str(out_dir),
                "--cost-curve", str(workdir / "compare_curve.csv")]
        assert main(argv + common) == 0
        logged = logged_args(caplog, "morphseg.cli")
        records["compare"] = [args[:4] for args in logged]
    # the last arg is the seconds spent training
    assert all(len(args) == 5 and args[4] >= 0.0 for args in logged)
    expected = []
    for method in ("rec-mdl", "seq-ml"):
        saved = out_dir / (method.replace("-", "_") + ".model")
        assert (workdir / method).read_bytes() == saved.read_bytes()
        row = report.build_report(io.load_model(saved))
        expected.append((method, 900, row.codebook_morphs, row.total_cost_bits))
    assert records == {"rec-mdl": expected[:1], "seq-ml": expected[1:], "compare": expected}
    curves = [(workdir / name).read_bytes() for name in ("train_curve.csv", "compare_curve.csv")]
    assert curves[0] == curves[1]


@pytest.mark.parametrize("method", ["rec-mdl", "seq-ml"])
def test_train_logs_the_seconds_of_the_training_call_only(workdir, monkeypatch, caplog, method):
    clock = [0.0]
    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])

    def taking(seconds, fn):
        def timed(*args, **kwargs):
            clock[0] += seconds
            return fn(*args, **kwargs)
        return timed

    monkeypatch.setattr(cli, "read_corpus", taking(100.0, cli.read_corpus))
    monkeypatch.setattr(cli.mdl, "train_online", taking(2.5, cli.mdl.train_online))
    monkeypatch.setattr(cli.ml, "train_em", taking(2.5, cli.ml.train_em))
    monkeypatch.setattr(cli.report, "build_report", taking(100.0, cli.report.build_report))
    argv = ["train", "--method", method, "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"), "--iterations", "2"]
    with caplog.at_level(logging.INFO, logger="morphseg.cli"):
        assert main(argv) == 0
    [args] = logged_args(caplog, "morphseg.cli")
    assert args[4] == 2.5


def test_compare_without_gold_skips_alignment_rows(workdir, capsys):
    code = main(
        [
            "compare",
            "--corpus", str(workdir / "corpus.txt"),
            "--train-tokens", "400",
            "--test-tokens", "100",
            "--iterations", "2",
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "Alignment distance" not in table
    assert "Total cost [bits]" in table


def test_compare_oversized_split_is_a_data_error(workdir, capsys):
    code = main(
        [
            "compare",
            "--corpus", str(workdir / "corpus.txt"),
            "--train-tokens", "1100",
            "--test-tokens", "500",
        ]
    )
    assert code == 3


def _compare_argv(workdir, *extra):
    return [
        "compare",
        "--corpus", str(workdir / "corpus.txt"),
        "--train-tokens", "400",
        "--test-tokens", "100",
        "--out-dir", str(workdir / "run"),
    ] + list(extra)


@pytest.mark.parametrize(
    "extra", [("--lambda", "0"), ("--lambda", "1000"), ("--iterations", "0")]
)
def test_compare_checks_seq_ml_options_before_training(workdir, monkeypatch, extra):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite a bad seq-ml option")

    monkeypatch.setattr(cli.mdl, "train_online", no_training)
    assert main(_compare_argv(workdir, *extra)) == 2
    assert not (workdir / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_compare_rejects_unusable_max_distance_before_reading(workdir, capsys, value):
    (workdir / "corpus.txt").unlink()
    assert main(_compare_argv(workdir, "--max-distance", value)) == 2
    assert "max distance must be finite and non-negative" in capsys.readouterr().err
    assert not (workdir / "run").exists()


@pytest.mark.parametrize("alphabet", ["english", "finnish", "a"])
@pytest.mark.parametrize("char_bits", [-1, 0, 4, 5, 6])
def test_char_bits_check_rejects_exactly_the_alphabets_it_cannot_code(alphabet, char_bits):
    args = build_parser().parse_args(
        ["train", "--method", "rec-mdl", "--corpus", "c", "--model", "m",
         "--alphabet", alphabet, "--char-bits", str(char_bits)]
    )
    size = len(cli.ALPHABETS.get(alphabet) or set(alphabet))
    try:
        cli._checked_options(args, ("rec-mdl",))
        rejected = False
    except cli.UsageError:
        rejected = True
    assert rejected == (size > 2 ** char_bits)


def test_huge_char_bits_is_checked_at_once(workdir):
    start = time.perf_counter()
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "missing.txt"),
            "--model", str(workdir / "m"),
            "--char-bits", "1000000000",
        ]
    )
    assert code == 3  # the option is accepted; the missing corpus is the error
    assert time.perf_counter() - start < 2.0


def test_empty_alphabet_is_a_usage_error(workdir, capsys):
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--alphabet", "",
        ]
    )
    assert code == 2
    assert not (workdir / "m").exists()
    assert main(_compare_argv(workdir, "--alphabet", "")) == 2
    assert not (workdir / "run").exists()
    assert capsys.readouterr().err.count("error: alphabet must not be empty") == 2


@pytest.mark.parametrize("option", ["--dream-interval", "--dream-passes"])
def test_negative_dreaming_settings_are_usage_errors(workdir, option):
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            option, "-5",
        ]
    )
    assert code == 2
    assert not (workdir / "m").exists()
    assert main(_compare_argv(workdir, option, "-1")) == 2
    assert not (workdir / "run").exists()


def test_zero_dream_passes_is_a_usage_error_before_reading(workdir, capsys):
    (workdir / "corpus.txt").unlink()  # an exit 3 would mean the corpus was read
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--dream-passes", "0",
        ]
    )
    assert code == 2
    assert not (workdir / "m").exists()
    assert main(_compare_argv(workdir, "--dream-passes", "0")) == 2
    assert not (workdir / "run").exists()
    assert capsys.readouterr().err.count("dream passes must be at least 1") == 2


@pytest.mark.parametrize("char_bits", ["0", "-1"])
def test_segment_with_non_positive_char_bits_is_a_data_error(workdir, char_bits):
    model = workdir / "m.model"
    model.write_text("morphseg-mdl v1 char_bits=%s\na\t0\t1\n" % char_bits, encoding="utf-8")
    (workdir / "words.txt").write_text("a\n", encoding="utf-8")
    out = workdir / "out.tsv"
    code = main(["segment", "--model", str(model), "--words", str(workdir / "words.txt"),
                 "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_compare_releases_the_rec_mdl_store_before_seq_ml_trains(workdir, monkeypatch):
    import gc
    import weakref

    refs = []
    train_online, train_em = cli.mdl.train_online, cli.ml.train_em

    def kept_train_online(*args, **kwargs):
        store = train_online(*args, **kwargs)
        refs.append(weakref.ref(store))
        return store

    def checked_train_em(*args, **kwargs):
        gc.collect()
        assert [ref() for ref in refs] == [None]
        return train_em(*args, **kwargs)

    monkeypatch.setattr(cli.mdl, "train_online", kept_train_online)
    monkeypatch.setattr(cli.ml, "train_em", checked_train_em)
    assert main(_compare_argv(workdir, "--gold", str(workdir / "gold.tsv"), "--iterations", "2")) == 0
    assert len(refs) == 1
