import hashlib
import logging
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import logged_args
from morphseg import io, ml, synth
from morphseg.corpus import Corpus
from morphseg.errors import MorphsegError, UnsegmentableError
from morphseg.mdl import cost_bits
from morphseg.ml import (
    MorphStats,
    poisson,
    random_segment,
    reject,
    train_em,
    viterbi_segment,
)


def test_poisson_draws():
    rng = random.Random(3)
    draws = [poisson(rng) for _ in range(20000)]
    assert all(isinstance(k, int) and k >= 0 for k in draws)
    mean = sum(draws) / len(draws)
    assert 5.2 < mean < 5.8
    replay = random.Random(3)
    assert [poisson(replay) for _ in range(5)] == draws[:5]


def test_poisson_ends_at_the_largest_uniform():
    class Largest:
        def random(self):
            return 1 - 2**-53  # the largest value random.random() returns

    assert poisson(Largest()) == 34


def test_poisson_draws_one_uniform_per_call():
    rng = random.Random(9)
    replay = random.Random(9)
    for _ in range(1000):
        poisson(rng)
        replay.random()
    assert rng.getstate() == replay.getstate()


def test_random_segment_basics():
    rng = random.Random(1)
    word = "susikoirajahti"
    morphs = random_segment(word, rng)
    assert "".join(morphs) == word
    assert all(morphs)
    assert random_segment(word, random.Random(1)) == morphs
    with pytest.raises(ValueError):
        random_segment("", rng)


@given(
    st.text(alphabet="abcde", min_size=1, max_size=60),
    st.integers(min_value=0, max_value=2 ** 30),
)
@settings(max_examples=80, deadline=None)
def test_random_segment_always_covers_the_word(word, seed):
    morphs = random_segment(word, random.Random(seed))
    assert "".join(morphs) == word
    assert all(morphs)


def test_viterbi_prefers_longer_known_morphs():
    stats = MorphStats({"a": 1, "ab": 1, "b": 1, "c": 1})
    morphs, cost = viterbi_segment("abc", stats)
    assert morphs == ["ab", "c"]
    assert cost == 4.0


def test_viterbi_tie_prefers_fewer_morphs():
    # [aa] and [a, a] both cost 2 bits
    stats = MorphStats({"aa": 1, "a": 2, "x": 1})
    morphs, cost = viterbi_segment("aa", stats)
    assert morphs == ["aa"]
    assert cost == 2.0
    # [ab, cd] and [a, bc, d] both cost 8 bits; the fewer morphs win even
    # though their boundary tuple (2,) sorts after (1, 3)
    stats = MorphStats({"a": 64, "ab": 64, "bc": 32, "cd": 4, "d": 32, "x": 60})
    assert viterbi_segment("abcd", stats) == (["ab", "cd"], 8.0)


def test_viterbi_tie_prefers_smallest_boundaries():
    # [a, aa] and [aa, a] both cost 2 bits with 2 morphs
    stats = MorphStats({"a": 1, "aa": 1})
    morphs, cost = viterbi_segment("aaa", stats)
    assert morphs == ["a", "aa"]
    assert cost == 2.0


@pytest.mark.parametrize("n, first", [(10000, ["a"]), (10001, ["aa"])])
def test_viterbi_long_word_of_ties_in_small_memory(n, first):
    # every morph costs log2(3) bits, so the fewest morphs win, and of those
    # the one with the smallest first boundary; deciding those ties must not
    # cost memory quadratic in the word's length
    stats = MorphStats({"a": 1, "aa": 1, "aaa": 1})
    tracemalloc.start()
    try:
        morphs, cost = viterbi_segment("a" * n, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert morphs == first + ["aaa"] * 3333
    assert cost == pytest.approx(3334 * math.log2(3))
    assert peak < 10 * 2**20


def test_viterbi_unsegmentable():
    stats = MorphStats({"a": 1})
    with pytest.raises(UnsegmentableError):
        viterbi_segment("ab", stats)
    with pytest.raises(ValueError):
        viterbi_segment("", stats)


@st.composite
def viterbi_instances(draw):
    word = draw(st.text(alphabet="ab", min_size=1, max_size=8))
    substrings = {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}
    pool = sorted(substrings | {"a", "b", "qq"})
    counts = {}
    for s in pool:
        if draw(st.booleans()):
            counts[s] = draw(st.integers(min_value=1, max_value=30))
    if not counts:
        counts = {"a": 1}
    return word, MorphStats(counts)


@given(viterbi_instances())
@settings(max_examples=120, deadline=None)
def test_viterbi_matches_exhaustive_search(instance):
    word, stats = instance
    expected = oracles.exhaustive_viterbi(word, stats)
    if expected is None:
        with pytest.raises(UnsegmentableError):
            viterbi_segment(word, stats)
        return
    morphs, cost = viterbi_segment(word, stats)
    assert cost == expected[1]
    assert morphs == expected[0]
    assert "".join(morphs) == word


@pytest.mark.parametrize(
    "word, counts, expected",
    [
        # equal terms in another order; float prefix sums a ulp apart once
        # made the DP keep aa aa a bba
        ("aaaaabba", {"a": 9, "aa": 19, "aaabb": 1, "aab": 8, "aabb": 5, "b": 12, "bb": 7,
                      "bba": 9}, ["a", "aa", "aa", "bba"]),
        # the float totals of abaabab a a and ab aababa a are equal, but the
        # exact term sums are 2**-51 apart in favour of the first
        ("abaababaa", {"a": 8, "aababa": 14, "ab": 4, "abaab": 4, "abaabab": 7, "ababaa": 4,
                       "b": 13, "baabab": 7, "bab": 17}, ["abaabab", "a", "a"]),
        # equal terms in another order; the DP once kept a bbb b a
        ("abbbba", {"a": 10, "b": 19, "bb": 14, "bbb": 13}, ["a", "b", "bbb", "a"]),
    ],
)
def test_viterbi_compares_costs_exactly(word, counts, expected):
    stats = MorphStats(counts)
    morphs, cost = viterbi_segment(word, stats)
    assert morphs == expected
    assert oracles.exhaustive_viterbi(word, stats) == (expected, cost)


@st.composite
def long_word_instances(draw):
    """A word longer than every known morph, with counts for its short substrings."""
    longest = draw(st.integers(min_value=1, max_value=3))
    word = draw(st.text(alphabet="ab", min_size=longest + 1, max_size=12))
    pool = sorted({word[i : i + k] for k in range(1, longest + 1) for i in range(len(word) - k + 1)})
    counts = {s: draw(st.integers(min_value=1, max_value=30)) for s in pool}
    return word, MorphStats(counts)


@given(long_word_instances())
@settings(max_examples=80, deadline=None)
def test_viterbi_on_words_longer_than_every_morph(instance):
    word, stats = instance
    assert stats.longest == max(map(len, stats.counts)) < len(word)
    assert viterbi_segment(word, stats) == oracles.exhaustive_viterbi(word, stats)


class _CountingGets(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


@pytest.mark.parametrize("n", [1, 7, 200])
def test_viterbi_looks_up_only_substrings_within_the_longest_morph(n):
    counts = {"a": 5, "b": 4, "ab": 3, "aba": 2}
    stats = MorphStats(counts)
    assert stats.longest == 3
    stats.price = _CountingGets(stats.price)
    word = ("ab" * n)[:n]
    morphs, _ = viterbi_segment(word, stats)
    assert "".join(morphs) == word
    assert 0 < stats.price.gets <= n * stats.longest


def test_reject_fixtures():
    assert reject(["halua", "n"], {}) is None
    assert reject(["halu", "a", "n"], {}) == "one-letter-sequence"
    assert reject(["halua", "n"], {"halua": 1}) == "rare-morph"
    # morphs used by several types are fine
    assert reject(["halua", "n"], {"halua": 2, "n": 14}) is None
    # the rare-morph check wins over the one-letter check
    assert reject(["halu", "a", "n"], {"a": 1}) == "rare-morph"
    # a lone single-letter morph is not a sequence
    assert reject(["o", "lisi"], {}) is None


def test_morph_stats_from_segmentation():
    seg = {"aab": ["a", "ab"], "ab": ["ab"]}
    stats = MorphStats.from_segmentation(seg, {"aab": 2, "ab": 3})
    assert stats.counts == {"a": 2, "ab": 5}
    assert stats.total == 7
    assert stats.type_usage == {"a": 1, "ab": 2}
    expected = 2 * math.log2(7 / 2) + 5 * math.log2(7 / 5)
    assert cost_bits(stats.counts)[0] == pytest.approx(expected, rel=1e-12)


def _assert_prices_exact(stats):
    # each price is the float log2(total / count) in units of 2**-104 bits, exactly
    assert stats.price.keys() == stats.counts.keys()
    for m, c in stats.counts.items():
        assert Fraction(stats.price[m], 2**104) == Fraction(math.log2(stats.total / c))


def test_morph_stats_price_is_log2_of_total_over_count(tiny_corpus, tmp_path):
    _, trained = train_em(tiny_corpus, iterations=3, rng=random.Random(0))
    io.save_ml_model(trained, tmp_path / "m")
    for stats in (trained, io.load_ml_model(tmp_path / "m")):
        _assert_prices_exact(stats)
    # the smallest non-zero price: total / count is 1 + 2**-52, the next float above 1.0
    tightest = MorphStats({"a": 2**52, "b": 1})
    _assert_prices_exact(tightest)
    assert 0 < tightest.price["a"] < tightest.price["b"]
    whole = MorphStats({"a": 7})
    _assert_prices_exact(whole)
    assert whole.price == {"a": 0}


@given(st.lists(st.one_of(st.integers(1, 50), st.integers(1, 2**64)), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_morph_stats_prices_are_exact_for_any_counts(counts):
    stats = MorphStats({"m%d" % i: c for i, c in enumerate(counts)})
    _assert_prices_exact(stats)


def test_training_decisions_are_pinned(tmp_path):
    # sha256 of the model and segmentation train_em builds on
    # synth.generate(20000, 0); a flipped Viterbi tie changes them
    tokens, _, _ = synth.generate(20000, 0)
    seg, stats = train_em(Corpus.from_tokens(tokens), iterations=10, rng=random.Random(42))
    io.save_ml_model(stats, tmp_path / "m.model")
    io.save_segmentation(seg, tmp_path / "seg.tsv")
    digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("m.model", "seg.tsv")]
    assert digests == [
        "6ea0390681570984c0e0d89058c01a39fd259e737038f9980ada52138e895728",
        "3e5db1cd72b231fd2ccfce96ad9ff79452e8707ed652eccd84169bb201d061a8",
    ]


def test_ml_cost():
    corpus = Corpus.from_tokens(["ab", "ab"])
    stats = MorphStats.from_segmentation({"ab": ["a", "b"]}, corpus.type_counts)
    assert cost_bits(stats.counts)[0] == 4.0
    with pytest.raises(MorphsegError):
        MorphStats.from_segmentation({}, corpus.type_counts)


def test_morph_stats_derives_its_total():
    stats = MorphStats({"a": 3, "b": 1})
    assert stats.total == 4
    assert stats.type_usage == {}
    assert all(p >= 0 for p in stats.price.values())


def test_train_em_requires_an_iteration(tiny_corpus):
    with pytest.raises(ValueError):
        train_em(tiny_corpus, iterations=0)


def test_train_em_refuses_a_corpus_char_bits_cannot_code(tmp_path):
    # the rule io.load_ml_model applies, so that train_em cannot make a model it refuses
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456"
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="corpus has 33 characters; 5 bits per character can code only 32"):
        train_em(Corpus.from_tokens([alphabet]), rng=rng)
    assert rng.getstate() == state  # refused before the first random draw
    # 32 characters train, and the saved model loads
    _, stats = train_em(Corpus.from_tokens([alphabet[:32]]), iterations=1)
    io.save_ml_model(stats, tmp_path / "m.model")
    assert io.load_ml_model(tmp_path / "m.model").counts == stats.counts


def test_train_em_segments_every_type(tiny_corpus):
    segmentation, stats = train_em(tiny_corpus, iterations=4, rng=random.Random(0))
    assert set(segmentation) == set(tiny_corpus.type_counts)
    for word, morphs in segmentation.items():
        assert "".join(morphs) == word
        assert all(morphs)
    assert stats.total == sum(
        len(segmentation[w]) * n for w, n in tiny_corpus.type_counts.items()
    )
    assert stats.counts


def test_train_em_is_deterministic(tiny_corpus):
    a = train_em(tiny_corpus, iterations=5, rng=random.Random(9))
    b = train_em(tiny_corpus, iterations=5, rng=random.Random(9))
    assert a[0] == b[0]
    assert a[1].counts == b[1].counts


def test_train_em_cost_log_and_monotonicity_without_rejection(caplog):
    from morphseg import synth

    tokens, _, _ = synth.generate(800, seed=0)
    corpus = Corpus.from_tokens(tokens)
    with caplog.at_level(logging.INFO, logger="morphseg.ml"):
        train_em(corpus, iterations=6, rng=random.Random(0), use_rejection=False)
    log = [corpus_bits for _, _, corpus_bits, _ in logged_args(caplog, "morphseg.ml")]
    assert len(log) == 6
    for earlier, later in zip(log, log[1:]):
        assert later <= earlier + 1e-9


def test_train_em_estimates_stats_once_per_iteration_plus_once(caplog, monkeypatch, tiny_corpus):
    built = []
    estimate = MorphStats.from_segmentation

    def counted(segmentation, type_counts):
        built.append(estimate(segmentation, type_counts))
        return built[-1]

    monkeypatch.setattr(MorphStats, "from_segmentation", staticmethod(counted))
    with caplog.at_level(logging.INFO, logger="morphseg.ml"):
        _, stats = train_em(tiny_corpus, iterations=4, rng=random.Random(0))
    assert len(built) == 4 + 1
    assert stats is built[-1]
    # each iteration logs the stats of the segmentation it produced
    logged = [(morphs, bits) for _, morphs, bits, _ in logged_args(caplog, "morphseg.ml")]
    assert logged == [(len(s.counts), cost_bits(s.counts)[0]) for s in built[1:]]


def test_train_em_logs_rejections(caplog, monkeypatch):
    from morphseg import synth

    tokens, _, _ = synth.generate(800, seed=0)
    corpus = Corpus.from_tokens(tokens)
    rejections = []

    def counted_reject(morphs, prev_type_usage):
        reason = reject(morphs, prev_type_usage)
        rejections.append(bool(reason))
        return reason

    monkeypatch.setattr(ml, "reject", counted_reject)
    with caplog.at_level(logging.INFO, logger="morphseg.ml"):
        train_em(corpus, iterations=5, rng=random.Random(0))
    records = logged_args(caplog, "morphseg.ml")
    assert [it for it, _, _, _ in records] == [1, 2, 3, 4, 5]
    rejected = [r for _, _, _, r in records]
    assert sum(rejected) == sum(rejections) > 0
    assert rejected[-1] == 0  # the final iteration rejects nothing


def test_train_em_lets_an_unsegmentable_word_raise(monkeypatch, tiny_corpus):
    # training words always have a Viterbi path; a word without one is a
    # broken invariant, not something to resegment at random
    stubborn = min(tiny_corpus.type_counts)

    def failing_viterbi(word, stats):
        if word == stubborn:
            raise UnsegmentableError(word)
        return viterbi_segment(word, stats)

    monkeypatch.setattr(ml, "viterbi_segment", failing_viterbi)
    with pytest.raises(UnsegmentableError):
        train_em(tiny_corpus, iterations=3, rng=random.Random(0))


@given(
    st.lists(st.text(alphabet="abc", min_size=1, max_size=7), min_size=1, max_size=15),
    st.integers(min_value=0, max_value=2 ** 30),
)
@settings(max_examples=40, deadline=None)
def test_train_em_output_is_always_a_valid_segmentation(words, seed):
    corpus = Corpus.from_tokens(words)
    segmentation, stats = train_em(corpus, iterations=3, rng=random.Random(seed))
    assert set(segmentation) == set(corpus.type_counts)
    for word, morphs in segmentation.items():
        assert "".join(morphs) == word
    assert MorphStats.from_segmentation(segmentation, corpus.type_counts).counts == stats.counts
