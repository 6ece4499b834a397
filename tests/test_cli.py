import codecs
import json
import logging
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import logged_args
from morphseg import cli, io, ml, report, synth
from morphseg.cli import build_parser, main
from morphseg.corpus import read_corpus, split_corpus
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


@pytest.mark.parametrize(
    "method, option, value, message",
    [
        # --char-bits also prices the seq-ml codebook in the log and the report
        ("seq-ml", "--char-bits", "-5", "char_bits must be positive"),
        ("seq-ml", "--char-bits", "0", "char_bits must be positive"),
        ("seq-ml", "--char-bits", "4", "bits per character can code only 16"),
        ("seq-ml", "--dream-interval", "-1", "dream interval must not be negative"),
        ("rec-mdl", "--lambda", "0", "lambda must be at least"),
        ("rec-mdl", "--iterations", "0", "need at least one seq-ml iteration"),
    ],
)
def test_train_checks_every_method_option_whatever_the_method(
    workdir, capsys, method, option, value, message
):
    code = main(
        [
            "train", "--method", method,
            "--corpus", str(workdir / "missing.txt"),  # an exit 3 would mean it was read
            "--model", str(workdir / "m"),
            option, value,
        ]
    )
    assert code == 2
    assert message in capsys.readouterr().err
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


def test_no_lowercase_reaches_train_and_segment(workdir, capsys):
    corpus = workdir / "cased.txt"
    corpus.write_text("Cats cats\n", encoding="utf-8")
    model = workdir / "cased.model"
    words = workdir / "words.txt"
    words.write_text("Cats\n", encoding="utf-8")
    train = ["train", "--method", "rec-mdl", "--corpus", str(corpus), "--model", str(model)]
    segment = ["segment", "--model", str(model), "--words", str(words)]
    # capitals are outside the english alphabet: kept, they drop their token
    for extra, word_counts, typed in [
        ([], {"cats": 2}, "cats"),
        (["--no-lowercase"], {"cats": 1}, "Cats"),
    ]:
        assert main(train + extra) == 0
        assert io.load_mdl_model(model).word_counts == word_counts
        assert main(segment + extra) == 0
        assert capsys.readouterr().out.split("\n")[1].split("\t")[0] == typed


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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX only")
def test_segment_into_a_closed_pipe_ends_quietly(workdir):
    model = workdir / "ml.model"
    _train(workdir, "seq-ml", model, ["--iterations", "1"])
    words = workdir / "words.txt"
    # far more output than a pipe buffers, so writing outlives the reader
    words.write_text("walked\ntimes\n" * 50000, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "morphseg.cli", "segment"]
    argv += ["--model", str(model), "--words", str(words)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"morphseg-seg v1\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE
    assert stderr == b""


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
    curve = workdir / "curve.csv"
    io.write_cost_curve([(2000, 9.5)], curve)
    bare = workdir / "bare.model"  # a model header without its version
    bare.write_text("morphseg-mdl\n", encoding="utf-8")
    out = workdir / "out.tsv"
    for model, message in [
        (seg_file, "%s: not a model file" % seg_file),
        (empty, "%s: not a model file" % empty),
        (curve, "%s: not a model file (header %r)" % (curve, io.CURVE_HEADER)),
        (bare, "%s: unsupported morphseg-mdl version 'morphseg-mdl'" % bare),
    ]:
        argv = ["segment", "--model", str(model), "--words", str(words), "--out", str(out)]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
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


# command, option: (header line or None, record of file line n + 1 before line 5001)
_LARGE_INPUTS = {
    ("compare", "--corpus"): (None, "cats dogs {0}"),
    ("compare", "--gold"): (None, "w{0}\tW{0} PL"),
    ("compare", "--tags"): (None, "T{0}"),
    ("segment", "--words"): (None, "w{0}"),
    ("segment", "--model"): ("morphseg-ml v1 total=4999", "m{0}\t1"),
    ("eval", "--train-seg"): ("morphseg-seg v1", "w{0}\tw{0}"),
    ("eval", "--test-counts"): ("morphseg-counts v1", "w{0}\t1"),
}


@pytest.mark.parametrize("command, option", sorted(_LARGE_INPUTS))
def test_a_bad_byte_past_the_first_8_kib_is_reported_with_its_path_and_line(
    workdir, capsys, command, option
):
    header, record = _LARGE_INPUTS[command, option]
    lines = [header] if header else []
    lines += [record.format(n) for n in range(len(lines), 5000)]
    bad = workdir / "bad.txt"
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"caf\xff\nmore\n")
    assert bad.stat().st_size > 8192
    model = workdir / "seq.model"
    io.save_ml_model(ml.MorphStats({"time": 1, "s": 1}, 2, {}), model)
    (workdir / "words.txt").write_text("times\n", encoding="utf-8")
    seg_path, gold_path = eval_fixture(workdir)
    counts = workdir / "counts.tsv"
    io.save_word_counts({"cats": 1, "dogs": 1, "birds": 1, "kings": 1}, counts)
    inputs = {
        "compare": ["--corpus", workdir / "corpus.txt", "--gold", workdir / "gold.tsv",
                    "--tags", workdir / "tags.txt"],
        "segment": ["--model", model, "--words", workdir / "words.txt"],
        "eval": ["--train-seg", seg_path, "--test-seg", seg_path, "--gold", gold_path,
                 "--test-counts", counts],
    }[command]
    inputs[inputs.index(option) + 1] = bad
    outputs = {
        "compare": ["--train-tokens", "400", "--test-tokens", "100", "--out-dir", workdir / "run"],
        "segment": ["--out", workdir / "out.tsv"],
        "eval": ["--out", workdir / "out.json", "--dump-alignments", workdir / "dump.tsv"],
    }[command]
    assert main([command, *map(str, inputs + outputs)]) == 3
    assert "%s line 5001: not valid UTF-8" % bad in capsys.readouterr().err
    assert not any(os.path.exists(p) for p in outputs[1::2])


@pytest.mark.parametrize(
    "command, option",
    [("compare", "--corpus"), ("compare", "--gold"), ("compare", "--tags"), ("segment", "--words")],
)
def test_a_byte_order_mark_at_the_start_of_an_input_is_ignored(
    workdir, caplog, capsys, command, option
):
    model, words = workdir / "rec.model", workdir / "words.txt"
    if command == "segment":
        _train(workdir, "rec-mdl", model, ["--dream-interval", "400"])
        words.write_text("\n".join(read_corpus(workdir / "corpus.txt").tokens[:50]) + "\n",
                         encoding="utf-8")
    inputs = {
        "compare": ["--corpus", workdir / "corpus.txt", "--gold", workdir / "gold.tsv",
                    "--tags", workdir / "tags.txt", "--train-tokens", "400", "--test-tokens", "100"],
        "segment": ["--model", model, "--words", words],
    }[command]
    at = inputs.index(option) + 1
    marked = workdir / "marked.txt"
    marked.write_bytes(codecs.BOM_UTF8 + inputs[at].read_bytes())
    outputs = []
    for path in (inputs[at], marked):
        inputs[at] = path
        out = workdir / ("out-" + path.name)
        output = ["--out-dir", out] if command == "compare" else ["--out", out]
        assert main([command, *map(str, inputs + output)]) == 0
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        outputs.append(([f.read_bytes() for f in files], capsys.readouterr().out, caplog.messages))
        caplog.clear()
    plain_outputs, marked_outputs = outputs
    assert marked_outputs == plain_outputs


@pytest.mark.parametrize(
    "gold_words, message",
    [
        (["cats", "dogs"], "no test word has a reference analysis"),
        (["mystery"], "no training word has a reference analysis"),
        ([], "no training word has a reference analysis"),
    ],
    ids=["test", "training", "empty"],
)
def test_compare_checks_reference_coverage_before_training(
    tmp_path, capsys, monkeypatch, gold_words, message
):
    def no_training(*args, **kwargs):
        raise AssertionError("trained although one side has no reference analysis")

    monkeypatch.setattr(cli.mdl, "train_online", no_training)
    corpus, gold = tmp_path / "corpus.txt", tmp_path / "gold.tsv"
    corpus.write_text("cats dogs cats dogs cats dogs\nmystery riddle\n", encoding="utf-8")
    gold.write_text("".join("%s\t%s PL\n" % (w, w.upper()) for w in gold_words), encoding="utf-8")
    argv = ["compare", "--corpus", str(corpus), "--train-tokens", "6", "--test-tokens", "2",
            "--gold", str(gold), "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


def test_eval_has_no_em_iterations_option(tmp_path, capsys):
    # eval fits distances with compare's alignment EM settings, which have no option
    missing = tmp_path / "missing.tsv"
    with pytest.raises(SystemExit) as exc:
        main(_eval_argv(missing, missing, "--em-iterations", "3"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --em-iterations 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--gold", "cats\tCAT PL\ncat s\tCAT PL\n", "line 2: whitespace in word 'cat s'"),
        ("--gold", " dogs\tDOG PL\n", "line 1: whitespace in word ' dogs'"),
        ("--tags", "GEN\n\nPL GEN\n", "line 3: whitespace in tag 'PL GEN'"),
    ],
)
def test_eval_rejects_whitespace_in_a_reference_word_or_tag(tmp_path, capsys, option, text, message):
    seg_path, gold_path = eval_fixture(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "metrics.json"
    if option == "--gold":
        argv = _eval_argv(seg_path, bad)
    else:
        argv = _eval_argv(seg_path, gold_path, "--tags", str(bad))
    assert main(argv + ["--out", str(out)]) == 3
    assert "%s %s" % (bad, message) in capsys.readouterr().err
    assert not out.exists()


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


def test_no_reject_reaches_seq_ml_training(workdir, caplog):
    argv = ["train", "--method", "seq-ml", "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"), "--iterations", "4"]
    logged = {}
    with caplog.at_level(logging.INFO, logger="morphseg.ml"):
        for extra in ([], ["--no-reject"]):
            caplog.clear()
            assert main(argv + extra) == 0
            logged[bool(extra)] = logged_args(caplog, "morphseg.ml")
    # args: iteration, morphs, corpus bits, rejected
    assert [args[0] for args in logged[True]] == [1, 2, 3, 4]
    assert all(args[3] == 0 for args in logged[True])
    bits = [args[2] for args in logged[True]]
    assert all(later <= earlier for earlier, later in zip(bits, bits[1:]))
    assert sum(args[3] for args in logged[False]) > 0


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


@pytest.mark.parametrize("option", ["--tags", "--max-distance"])
def test_compare_rejects_alignment_options_without_gold_before_reading(workdir, capsys, option):
    (workdir / "corpus.txt").unlink()  # an exit 3 would mean the corpus was read
    extra = [option, str(workdir / "tags.txt") if option == "--tags" else "3"]
    argv = ["compare", "--corpus", str(workdir / "corpus.txt"),
            "--train-tokens", "400", "--test-tokens", "100", *extra]
    assert main(argv) == 2
    assert main(argv + ["--out-dir", str(workdir / "run")]) == 2
    assert capsys.readouterr().err.count("which needs --gold") == 2
    assert not (workdir / "run").exists()


def test_compare_writes_nothing_before_max_distance_passes_the_fit(workdir, capsys):
    gold = str(workdir / "gold.tsv")
    assert main(_compare_argv(workdir, "--gold", gold, "--max-distance", "0.5")) == 3
    assert "below the largest observed distance" in capsys.readouterr().err
    assert not (workdir / "run").exists()


def test_compare_writes_the_cost_curve_into_the_out_dir_it_makes(workdir, capsys):
    common = ["--corpus", str(workdir / "corpus.txt"), "--train-tokens", "900",
              "--dream-interval", "400", "--iterations", "2"]
    train_curve = workdir / "train_curve.csv"
    argv = ["train", "--method", "rec-mdl", "--model", str(workdir / "m"),
            "--cost-curve", str(train_curve)]
    assert main(argv + common) == 0
    for out_dir, extra, code in [
        (workdir / "run", [], 0),
        # a fit that fails leaves neither the directory nor the curve in it
        (workdir / "failed", ["--gold", str(workdir / "gold.tsv"), "--max-distance", "0.5"], 3),
    ]:
        curve = out_dir / "curve.csv"
        argv = ["compare", "--test-tokens", "300", "--out-dir", str(out_dir),
                "--cost-curve", str(curve)]
        assert main(argv + common + extra) == code
        if code == 0:
            assert curve.read_bytes() == train_curve.read_bytes()
        else:
            assert "below the largest observed distance" in capsys.readouterr().err
            assert not out_dir.exists()


def test_output_files_in_missing_directories_fail_before_reading(workdir, capsys, monkeypatch):
    def no_reading(*args, **kwargs):
        raise AssertionError("read input despite a missing output directory")

    monkeypatch.setattr(cli, "read_corpus", no_reading)
    monkeypatch.setattr(cli, "_read_words", no_reading)
    monkeypatch.setattr(cli.io, "load_model", no_reading)
    monkeypatch.setattr(cli.io, "load_segmentation", no_reading)
    missing = workdir / "missing"
    curve = str(missing / "curve.csv")
    below_out_dir = str(workdir / "run" / "sub" / "curve.csv")  # compare makes only run/
    train = ["train", "--method", "rec-mdl", "--corpus", str(workdir / "corpus.txt")]
    segment = ["segment", "--model", str(workdir / "m"), "--words", str(workdir / "words.txt")]
    seg = str(workdir / "seg.tsv")
    evaluate = ["eval", "--train-seg", seg, "--test-seg", seg, "--gold", str(workdir / "gold.tsv")]
    metrics = workdir / "metrics.json"
    taken = workdir / "taken"  # an existing directory where an output file should go
    taken.mkdir()
    plain = workdir / "plain"  # an existing file where compare's --out-dir should go
    plain.write_text("kept\n", encoding="utf-8")
    # existing --out-dirs holding a directory where compare writes a file
    report_taken = workdir / "report_taken"
    (report_taken / "report.json").mkdir(parents=True)
    model_taken = workdir / "model_taken"
    (model_taken / "rec_mdl.model").mkdir(parents=True)
    missing_dir = "output directory does not exist: %r"
    is_dir = "output file is a directory: %r"
    below_file = "cannot make output directory below a file: %r"
    twice = "one file named for two outputs: %r"
    also_input = "output file is also an input: %r"
    corpus, gold, tags, counts = (str(workdir / n) for n in ("corpus.txt", "gold.tsv", "tags.txt", "c.tsv"))
    kept_inputs = {name: (workdir / name).read_bytes() for name in ("corpus.txt", "gold.tsv")}
    seg_again = str(taken / ".." / "seg.tsv")  # resolves to seg
    run_model = str(workdir / "run" / "rec_mdl.model")
    run_test_seg = str(workdir / "run" / "seq_ml.test_seg.tsv")
    metrics_again = str(taken / ".." / "metrics.json")  # resolves to metrics
    metrics_and_dump = evaluate + ["--out", str(metrics), "--dump-alignments"]
    for message, argv in [
        (missing_dir % str(missing / "m"), train + ["--model", str(missing / "m")]),
        (missing_dir % curve, train + ["--model", str(workdir / "m"), "--cost-curve", curve]),
        (missing_dir % curve, _compare_argv(workdir, "--cost-curve", curve)),
        (missing_dir % below_out_dir, _compare_argv(workdir, "--cost-curve", below_out_dir)),
        (missing_dir % str(missing / "s.tsv"), segment + ["--out", str(missing / "s.tsv")]),
        (missing_dir % str(missing / "m.json"), evaluate + ["--out", str(missing / "m.json")]),
        (
            missing_dir % str(missing / "a.txt"),
            evaluate + ["--out", str(metrics), "--dump-alignments", str(missing / "a.txt")],
        ),
        (is_dir % str(taken), train + ["--model", str(taken)]),
        (is_dir % str(taken), train + ["--model", str(workdir / "m"), "--cost-curve", str(taken)]),
        (is_dir % str(taken), segment + ["--out", str(taken)]),
        (is_dir % str(taken), evaluate + ["--out", str(taken)]),
        (is_dir % str(taken), evaluate + ["--out", str(metrics), "--dump-alignments", str(taken)]),
        (below_file % str(plain), _compare_argv(workdir, "--out-dir", str(plain))),
        (below_file % str(plain / "sub"), _compare_argv(workdir, "--out-dir", str(plain / "sub"))),
        (
            is_dir % str(report_taken / "report.json"),
            _compare_argv(workdir, "--out-dir", str(report_taken)),
        ),
        (
            is_dir % str(model_taken / "rec_mdl.model"),
            _compare_argv(workdir, "--out-dir", str(model_taken)),
        ),
        (
            twice % str(workdir / "m"),
            train + ["--model", str(workdir / "m"), "--cost-curve", str(workdir / "m")],
        ),
        (twice % run_model, _compare_argv(workdir, "--cost-curve", run_model)),
        (twice % str(metrics), metrics_and_dump + [str(metrics)]),
        (twice % metrics_again, metrics_and_dump + [metrics_again]),
        (also_input % corpus, train + ["--model", corpus]),
        (also_input % corpus, train + ["--model", str(workdir / "m"), "--cost-curve", corpus]),
        (also_input % str(workdir / "m"), segment + ["--out", str(workdir / "m")]),
        (also_input % str(workdir / "words.txt"), segment + ["--out", str(workdir / "words.txt")]),
        (also_input % seg_again, evaluate + ["--out", seg_again]),
        (also_input % gold, evaluate + ["--dump-alignments", gold]),
        (also_input % tags, evaluate + ["--tags", tags, "--out", tags]),
        (also_input % counts, evaluate + ["--train-counts", counts, "--out", counts]),
        (also_input % counts, evaluate + ["--test-counts", counts, "--dump-alignments", counts]),
        (also_input % corpus, _compare_argv(workdir, "--cost-curve", corpus)),
        (also_input % gold, _compare_argv(workdir, "--gold", gold, "--cost-curve", gold)),
        (also_input % tags, _compare_argv(workdir, "--gold", gold, "--tags", tags, "--cost-curve", tags)),
        # one of compare's seven --out-dir files
        (also_input % run_test_seg, _compare_argv(workdir, "--gold", run_test_seg)),
    ]:
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not (workdir / "m").exists()
        assert not (workdir / "run").exists()
        assert not metrics.exists()
    assert not missing.exists()
    assert not any(taken.iterdir())
    assert plain.read_text(encoding="utf-8") == "kept\n"
    assert {name: (workdir / name).read_bytes() for name in kept_inputs} == kept_inputs
    for out_dir in (report_taken, model_taken):
        (kept,) = out_dir.iterdir()
        assert kept.is_dir() and not any(kept.iterdir())


@pytest.mark.parametrize("method", ["rec_mdl", "seq_ml"])
def test_eval_does_not_depend_on_the_line_order_of_its_files(workdir, method):
    common = ["--gold", str(workdir / "gold.tsv"), "--tags", str(workdir / "tags.txt")]
    argv = _compare_argv(workdir, *common, "--train-tokens", "900", "--test-tokens", "300",
                         "--iterations", "3")
    assert main(argv) == 0
    rng = random.Random(0)
    outputs = []
    for order in ("file", "shuffled"):
        segs = []
        for part in ("train", "test"):
            seg = workdir / "run" / ("%s.%s_seg.tsv" % (method, part))
            if order == "shuffled":
                header, *records = seg.read_text(encoding="utf-8").splitlines(keepends=True)
                rng.shuffle(records)
                seg = workdir / ("shuffled_%s.tsv" % part)
                seg.write_text(header + "".join(records), encoding="utf-8")
            segs.append(str(seg))
        metrics, dump = workdir / (order + ".json"), workdir / (order + ".tsv")
        argv = ["eval", "--train-seg", segs[0], "--test-seg", segs[1], *common,
                "--out", str(metrics), "--dump-alignments", str(dump)]
        assert main(argv) == 0
        outputs.append((metrics.read_bytes(), dump.read_bytes()))
    assert outputs[0] == outputs[1]


def test_eval_with_count_files_reproduces_the_compare_report(workdir):
    common = ["--gold", str(workdir / "gold.tsv"), "--tags", str(workdir / "tags.txt")]
    argv = _compare_argv(workdir, *common, "--train-tokens", "900", "--test-tokens", "300",
                         "--iterations", "3")
    assert main(argv) == 0
    train, test = split_corpus(read_corpus(workdir / "corpus.txt"), 900, 300)
    io.save_word_counts(train.type_counts, workdir / "train.counts")
    io.save_word_counts(test.type_counts, workdir / "test.counts")
    counts = ["--train-counts", str(workdir / "train.counts"), "--test-counts", str(workdir / "test.counts")]
    run = workdir / "run"
    rows = report.read_metrics(run / "report.json")
    assert [row.method for row in rows] == ["rec-mdl", "seq-ml"]
    for row in rows:
        stem = run / row.method.replace("-", "_")
        metrics = workdir / (row.method + ".json")
        argv = ["eval", "--train-seg", "%s.train_seg.tsv" % stem,
                "--test-seg", "%s.test_seg.tsv" % stem, *common, *counts, "--out", str(metrics)]
        assert main(argv) == 0
        record = json.loads(metrics.read_text(encoding="utf-8"))
        assert record["alignment_distance_bits"] == row.alignment_distance_bits
        assert record["unseen_pair_pct"] == row.unseen_pair_pct


def test_zero_char_bits_is_a_usage_error_before_reading(workdir, capsys):
    (workdir / "corpus.txt").unlink()  # an exit 3 would mean the corpus was read
    code = main(
        [
            "train", "--method", "rec-mdl",
            "--corpus", str(workdir / "corpus.txt"),
            "--model", str(workdir / "m"),
            "--alphabet", "a", "--char-bits", "0",
        ]
    )
    assert code == 2
    assert not (workdir / "m").exists()
    assert main(_compare_argv(workdir, "--alphabet", "a", "--char-bits", "0")) == 2
    assert not (workdir / "run").exists()
    assert capsys.readouterr().err.count("char_bits must be positive") == 2


@pytest.mark.parametrize("alphabet", ["english", "finnish", "a"])
@pytest.mark.parametrize("char_bits", [-1, 0, 4, 5, 6])
def test_char_bits_check_rejects_exactly_the_alphabets_it_cannot_code(alphabet, char_bits):
    size = len(cli.ALPHABETS.get(alphabet) or set(alphabet))
    for method in ("rec-mdl", "seq-ml"):  # --char-bits prices either codebook
        args = build_parser().parse_args(
            ["train", "--method", method, "--corpus", "c", "--model", "m",
             "--alphabet", alphabet, "--char-bits", str(char_bits)]
        )
        try:
            cli._checked_options(args)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == (char_bits < 1 or size > 2 ** char_bits), method


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


@pytest.mark.parametrize("option", ["--dream-interval"])
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


def test_dreaming_has_no_passes_option(workdir, capsys):
    # each dreaming event is one pass over the known words
    (workdir / "corpus.txt").unlink()  # an exit 3 would mean the corpus was read
    train = ["train", "--method", "rec-mdl", "--corpus", str(workdir / "corpus.txt"),
             "--model", str(workdir / "m")]
    for argv in (train, _compare_argv(workdir)):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dream-passes", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dream-passes 2" in capsys.readouterr().err
    assert sorted(os.listdir(workdir)) == ["gold.tsv", "tags.txt"]


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
