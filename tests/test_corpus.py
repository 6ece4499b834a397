import collections
import logging

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from morphseg.corpus import (
    ALPHABETS,
    Corpus,
    load_corpus,
    read_corpus,
    split_corpus,
)
from morphseg.errors import CorpusSizeError, EmptyCorpusError, MorphsegError


def test_english_preset_keeps_clitics_and_hyphens():
    corpus = load_corpus(["Don't stop, it's a well-known trick. 1998"])
    assert corpus.tokens == ("don't", "it's", "a", "well-known")


def test_finnish_preset():
    corpus = load_corpus(["linja-auto säätiö zebra9"], ALPHABETS["finnish"])
    assert corpus.tokens == ("linja-auto", "säätiö")


def test_lowercase_is_applied_before_filtering():
    corpus = load_corpus(["The Cat"])
    assert corpus.tokens == ("the", "cat")
    # str.lower of the line: Σ is σ inside a word and ς at its end, İ is i
    # and a combining dot above
    corpus = load_corpus(["ΣΑΣ İS STRAẞE"], ALPHABETS["english"] | frozenset("σας\u0307ß"))
    assert corpus.tokens == ("σας", "i\u0307s", "straße")


def test_token_with_any_bad_character_is_dropped_whole():
    corpus = load_corpus(["abc ab9c xyz"])
    assert corpus.tokens == ("abc", "xyz")


def test_empty_after_filtering_raises():
    with pytest.raises(EmptyCorpusError):
        load_corpus(["1998 42 ..."])
    with pytest.raises(EmptyCorpusError):
        load_corpus([])


def test_type_counts():
    corpus = Corpus.from_tokens(["a", "b", "a", "a"])
    assert corpus.type_counts == {"a": 3, "b": 1}
    assert len(corpus) == 4


def test_split_corpus():
    corpus = Corpus.from_tokens(list("abcdef"))
    train, test = split_corpus(corpus, 4, 2)
    assert train.tokens == ("a", "b", "c", "d")
    assert test.tokens == ("e", "f")


def test_split_corpus_rejects_empty_sides():
    corpus = Corpus.from_tokens(list("abcd"))
    with pytest.raises(EmptyCorpusError):
        split_corpus(corpus, 0, 2)
    with pytest.raises(EmptyCorpusError):
        split_corpus(corpus, 2, 0)


def test_split_corpus_rejects_overflow():
    corpus = Corpus.from_tokens(list("abcd"))
    with pytest.raises(CorpusSizeError):
        split_corpus(corpus, 3, 2)


def test_truncate():
    corpus = Corpus.from_tokens(list("abcd"))
    (head,) = split_corpus(corpus, 2)
    assert head.tokens == ("a", "b")
    with pytest.raises(CorpusSizeError):
        split_corpus(corpus, 5)
    with pytest.raises(EmptyCorpusError):
        split_corpus(corpus, 0)


def test_read_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("the cat\nsat down\n", encoding="utf-8")
    assert read_corpus(path).tokens == ("the", "cat", "sat", "down")


def test_read_corpus_rejects_bad_encoding(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"caf\xe9 au lait")
    with pytest.raises(MorphsegError) as err:
        read_corpus(path)
    assert str(err.value) == "%s line 1: not valid UTF-8" % path


@given(st.lists(st.text(alphabet="abz9'Q-", min_size=1, max_size=6), max_size=40))
def test_loaded_tokens_always_fit_the_alphabet(words):
    alphabet = ALPHABETS["english"]
    try:
        corpus = load_corpus([" ".join(words)])
    except EmptyCorpusError:
        kept = [w.lower() for w in words if set(w.lower()) <= alphabet]
        assert not kept
        return
    assert all(set(t) <= alphabet for t in corpus.tokens)
    assert sum(corpus.type_counts.values()) == len(corpus.tokens)


@given(st.lists(st.sampled_from(["aa", "ab", "ba"]), min_size=3, max_size=30))
def test_split_preserves_order_and_counts(tokens):
    corpus = Corpus.from_tokens(tokens)
    train, test = split_corpus(corpus, 2, len(tokens) - 2)
    assert train.tokens + test.tokens == corpus.tokens
    merged = dict(train.type_counts)
    for t, n in test.type_counts.items():
        merged[t] = merged.get(t, 0) + n
    assert merged == corpus.type_counts


# final sigma's lowercase depends on the letters around it (Σ after a letter
# is ς), and İ lowercases to two characters, i and a combining dot above
_CASED = "Σİẞ"
# the english alphabet plus the lowercase forms of _CASED
_CASED_ALPHABET = ALPHABETS["english"] | frozenset("σςß\u0307")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.lists(st.text(alphabet="abAB9-" + _CASED, min_size=1, max_size=3), max_size=8),
        max_size=6,
    ),
)
def test_load_corpus_shares_one_string_per_type(caplog, lines):
    lines = [" ".join(words) for words in lines]
    reference = []
    dropped = 0
    for line in lines:
        for token in line.lower().split():
            if set(token) <= _CASED_ALPHABET:
                reference.append(token)
            else:
                dropped += 1
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="morphseg.corpus"):
        try:
            corpus = load_corpus(lines, _CASED_ALPHABET)
        except EmptyCorpusError:
            assert not reference
            return
    assert list(corpus.tokens) == reference
    assert corpus.type_counts == dict(collections.Counter(reference))
    assert len({id(t) for t in corpus.tokens}) == len(corpus.type_counts)
    logged = [r.getMessage() for r in caplog.records if r.name == "morphseg.corpus"]
    if dropped:
        assert logged == ["dropped %d tokens with out-of-alphabet characters" % dropped]
    else:
        assert logged == []


@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=30),
    st.lists(st.integers(min_value=-1, max_value=12), min_size=1, max_size=4),
)
def test_split_corpus_cuts_consecutive_slices(tokens, sizes):
    corpus = Corpus.from_tokens(tokens)
    if min(sizes) < 1:
        with pytest.raises(EmptyCorpusError):
            split_corpus(corpus, *sizes)
        return
    if sum(sizes) > len(tokens):
        with pytest.raises(CorpusSizeError):
            split_corpus(corpus, *sizes)
        return
    splits = split_corpus(corpus, *sizes)
    start = 0
    for size, split in zip(sizes, splits, strict=True):
        assert split.tokens == tuple(tokens[start : start + size])
        assert split.type_counts == collections.Counter(split.tokens)
        start += size
