import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphseg import synth
from morphseg.align import parse_gold
from morphseg.corpus import ALPHABETS


def test_join_e_drop():
    assert synth._join("hope", "ed") == "hoped"
    assert synth._join("love", "ing") == "loving"
    assert synth._join("walk", "ed") == "walked"
    assert synth._join("time", "s") == "times"


def test_generator_is_deterministic():
    a = synth.generate(500, seed=7)
    b = synth.generate(500, seed=7)
    assert a == b
    c = synth.generate(500, seed=8)
    assert a[0] != c[0]


def _lines_digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def test_generator_bytes_are_pinned():
    # every benchmark input and the acceptance suite come from synth, so a
    # change to its output must be deliberate and show up here
    tokens, gold, tags = synth.generate(20000, 0)
    assert _lines_digest(tokens) == "4fe4db1de572e239f140903665c7752fbc29ab8c27d7ef6681e6e52b611bafd1"
    assert _lines_digest(gold) == "1fd9a8f6086abf6f188a847b890ff6998a44f9a7191364277e2852a21b39d126"
    assert tags == ["PL", "GEN", "SG3", "PAST", "PCP1", "AGENT", "CMP", "SUP", "<DER:ly>"]


def test_tokens_fit_english_alphabet():
    tokens, _, _ = synth.generate(2000, seed=1)
    alphabet = ALPHABETS["english"]
    assert len(tokens) == 2000
    assert all(set(t) <= alphabet for t in tokens)


def test_gold_covers_every_type_and_parses():
    tokens, gold_lines, tags = synth.generate(2000, seed=1)
    gold = parse_gold(gold_lines, tag_filter=set(tags))
    for word in set(tokens):
        entry = gold[word]
        assert entry.labels
        assert 1 <= entry.base_count <= 2
        # bases are uppercase stems, remaining labels are affix tags
        for label in entry.labels[: entry.base_count]:
            assert label.isupper() and label.isalpha()
        for label in entry.labels[entry.base_count :]:
            assert label in tags


MAKE_CORPUS = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"


def _make_corpus(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(MAKE_CORPUS.parents[1] / "src"))
    files = ["--corpus", str(tmp_path / "c.txt"), "--gold", str(tmp_path / "g.tsv"),
             "--tags", str(tmp_path / "t.txt")]
    return subprocess.run(
        [sys.executable, str(MAKE_CORPUS), *files, *args], env=env, capture_output=True, text=True
    )


def test_make_corpus_writes_the_generator_output(tmp_path):
    result = _make_corpus(tmp_path, "--tokens", "30", "--seed", "3")
    assert result.returncode == 0, result.stderr
    tokens, gold, tags = synth.generate(30, seed=3)
    lines = [" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12)]
    for name, expected in [("c.txt", lines), ("g.tsv", gold), ("t.txt", tags)]:
        assert (tmp_path / name).read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


@pytest.mark.parametrize("args", [("--tokens", "0"), ("--tokens", "-1")])
def test_make_corpus_rejects_layouts_with_no_tokens(tmp_path, args):
    result = _make_corpus(tmp_path, *args)
    assert result.returncode == 2
    assert "must be at least 1" in result.stderr
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("option", ["--corpus", "--gold", "--tags"])
def test_make_corpus_rejects_an_empty_output_path(tmp_path, option):
    result = _make_corpus(tmp_path, "--tokens", "30", option, "")
    assert result.returncode == 2
    assert "output paths must not be empty" in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_make_corpus_has_no_per_line_option(tmp_path):
    # the corpus is always written 12 tokens to a line
    result = _make_corpus(tmp_path, "--per-line", "7")
    assert result.returncode == 2
    assert "unrecognized arguments: --per-line 7" in result.stderr
    assert not (tmp_path / "c.txt").exists()
