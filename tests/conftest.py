import logging
import sys
from pathlib import Path

import pytest

from morphseg import synth
from morphseg.corpus import Corpus

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


def synthetic_corpus(n_tokens, seed=0):
    """(Corpus, gold dict lines, affix tags) from the bundled generator."""
    tokens, gold_lines, tags = synth.generate(n_tokens, seed=seed)
    return Corpus.from_tokens(tokens), gold_lines, tags


def logged_args(caplog, logger):
    """The args of each INFO record the named logger emitted, in order."""
    return [r.args for r in caplog.records if r.name == logger and r.levelno == logging.INFO]


def curve_rows(path):
    """The rows of a cost-curve file, each parsed with int() and float(),
    after checking its header."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "tokens_processed,avg_word_cost_bits"
    return [(int(tokens), float(avg)) for tokens, avg in (row.split(",") for row in rows)]


@pytest.fixture
def tiny_corpus():
    return Corpus.from_tokens(
        ["cats", "dogs", "cat", "dog", "cats", "walked", "walking", "walks"]
    )
