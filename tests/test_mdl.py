import hashlib
import logging
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import logged_args
from morphseg import io, synth
from morphseg.corpus import Corpus, load_corpus
from morphseg.errors import MorphsegError, NotTrainedError
from morphseg.mdl import ChunkStore, cost_bits, train_online


def test_single_letter_word():
    store = ChunkStore()
    store.process_word("a")
    assert store.chunks["a"].count == 1
    assert store.chunks["a"].split == 0
    # one morph token: corpus bits 0, codebook 5 bits
    assert store.total_cost() == 5.0


def test_repeated_pair_splits_into_shared_letter():
    store = ChunkStore()
    store.process_word("aa")
    assert store.chunks["aa"].split == 1
    assert store.chunks["aa"].count == 1
    assert store.chunks["a"].count == 2
    assert store.chunks["a"].split == 0
    assert store.total_cost() == 5.0


def test_distinct_pair_stays_whole():
    # splitting "ab" would cost 2 corpus bits + 10 codebook bits
    store = ChunkStore()
    store.process_word("ab")
    assert store.chunks["ab"].split == 0
    assert store.total_cost() == 10.0


def test_counts_accumulate_through_existing_split():
    store = ChunkStore()
    store.process_word("aa")
    store.process_word("aa")
    assert store.chunks["aa"].count == 2
    assert store.chunks["a"].count == 4
    assert store.total_cost() == 5.0
    store.check_integrity()


def test_word_count_tracks_insertions():
    store = ChunkStore()
    for _ in range(7):
        store.process_word("linja-auton")
    assert store.word_counts["linja-auton"] == 7
    assert store.chunks["linja-auton"].count == 7
    store.check_integrity()


def test_empty_word_rejected():
    store = ChunkStore()
    with pytest.raises(ValueError):
        store.process_word("")


def test_train_online_refuses_a_corpus_char_bits_cannot_code(tmp_path):
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    curve = []
    with pytest.raises(ValueError, match="corpus has 36 characters; 5 bits per character can code only 32"):
        train_online(load_corpus([alphabet], alphabet=frozenset(alphabet)), curve=curve)
    assert curve == []  # refused before the first token
    # 32 characters train, and the saved model loads
    store = train_online(load_corpus([alphabet[:32]], alphabet=frozenset(alphabet)))
    io.save_mdl_model(store, tmp_path / "m.model")
    assert io.load_mdl_model(tmp_path / "m.model") == store


def test_segment_unknown_word():
    store = ChunkStore()
    store.process_word("cats")
    with pytest.raises(NotTrainedError):
        store.segment_word("dogs")


def test_segment_traces_to_morphs(tiny_corpus):
    store = train_online(tiny_corpus, dream_interval=0)
    for word in tiny_corpus.type_counts:
        morphs = store.segment_word(word)
        assert "".join(morphs) == word
        assert all(store.chunks[m].split == 0 for m in morphs)


def test_segment_word_returns_the_stores_leaf_texts(tiny_corpus):
    store = train_online(tiny_corpus, dream_interval=0)
    split = 0
    for word in tiny_corpus.type_counts:
        morphs = store.segment_word("".join(list(word)))  # a fresh copy of the word
        split += len(morphs) > 1
        for morph in morphs:
            assert morph is store.chunks[morph].text
    assert split  # some morphs come from inside a split word


def test_a_negative_dream_interval_is_rejected(tiny_corpus):
    with pytest.raises(ValueError, match="dream interval must not be negative"):
        train_online(tiny_corpus, dream_interval=-1)
    train_online(tiny_corpus, dream_interval=0)  # an interval of 0 disables dreaming


def test_tracked_cost_matches_scratch(tiny_corpus):
    store = train_online(tiny_corpus, dream_interval=0)
    corpus, codebook = cost_bits(dict(store.iter_morphs()))
    assert corpus >= 0.0
    assert codebook == 5.0 * sum(len(c.text) for c in store.chunks.values() if c.split == 0)


@given(
    st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=5), st.integers(1, 10**6)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_cost_bits_does_not_depend_on_insertion_order(counts, rng):
    # fsum is correctly rounded, so the same count table gives the same floats
    items = list(counts.items())
    rng.shuffle(items)
    assert cost_bits(dict(items)) == cost_bits(counts)


def test_codebook_accessors(tiny_corpus):
    store = train_online(tiny_corpus, dream_interval=0)
    morphs = dict(store.iter_morphs())
    assert morphs == {c.text: c.count for c in store.chunks.values() if c.split == 0}
    assert all(n > 0 for n in morphs.values())


def test_removing_flow_from_a_missing_chunk_raises():
    store = ChunkStore()
    store.process_word("ab")
    before = list(store.chunks.items())
    with pytest.raises(KeyError):
        store._flow("zz", -1)
    assert list(store.chunks.items()) == before


def _off_the_flow(store):
    store.chunks["a"].count += 1


def _zero_count(store):
    store.chunks["a"].count = 0


def _split_out_of_range(store):
    store.chunks["aa"].split = 2


def _split_names_a_missing_part(store):
    del store.chunks["a"]


def _word_without_chunk(store):
    store.word_counts["c"] = 1


def _leaf_tokens_off_by_one(store):
    store._leaf_tokens += 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(_off_the_flow, "count of 'a' is 3, flow implies 2", id="off-the-flow"),
        pytest.param(_zero_count, "zero-count chunk retained", id="zero-count"),
        pytest.param(_split_out_of_range, "bad split 2 in 'aa'", id="split-out-of-range"),
        pytest.param(_split_names_a_missing_part, "references missing part 'a'", id="missing-part"),
        pytest.param(_word_without_chunk, "known word 'c' has no chunk", id="word-no-chunk"),
        pytest.param(_leaf_tokens_off_by_one, "leaf token tracker 4 != 3", id="leaf-tokens"),
    ],
)
def test_integrity_catches_corruption(corrupt, message):
    store = ChunkStore()
    store.process_word("aa")  # split a|a: "aa" flows a count of 2 into leaf "a"
    store.process_word("b")
    assert store.chunks["aa"].split == 1
    store.check_integrity()
    corrupt(store)
    with pytest.raises(MorphsegError, match=message):
        store.check_integrity()


def test_dreaming_is_deterministic(tiny_corpus):
    stores = []
    for _ in range(2):
        store = train_online(tiny_corpus, dream_interval=0)
        rng = random.Random(5)
        for _ in range(3):
            store.dream(rng)
        stores.append(store)
    assert stores[0] == stores[1]
    stores[0].check_integrity()


def test_dream_on_empty_store_is_a_no_op():
    store = ChunkStore()
    store.dream(random.Random(0))
    assert store.total_cost() == 0.0


def test_train_online_is_deterministic(tiny_corpus):
    a = train_online(tiny_corpus, dream_interval=4)
    b = train_online(tiny_corpus, dream_interval=4)
    assert a == b


def test_train_online_curve_and_dream_log(caplog):
    from morphseg import synth

    tokens, _, _ = synth.generate(5000, seed=0)
    corpus = Corpus.from_tokens(tokens)
    curve = []
    with caplog.at_level(logging.INFO, logger="morphseg.mdl"):
        store = train_online(corpus, dream_interval=2000, curve=curve)
    dream_log = logged_args(caplog, "morphseg.mdl")

    assert [n for n, _, _ in dream_log] == [2000, 4000]
    for n, before, after in dream_log:
        assert before > 0 and after > 0
    # reprocessing previously seen words must not hurt overall (directional)
    assert dream_log[-1][2] / dream_log[-1][0] <= dream_log[0][1] / dream_log[0][0]

    ns = [n for n, _ in curve]
    assert ns == sorted(ns)
    assert ns[-1] == len(corpus)
    assert curve[-1][1] == pytest.approx(store.total_cost() / len(corpus), rel=1e-12)
    assert all(avg > 0 for _, avg in curve)
    store.check_integrity()


def test_train_online_on_no_tokens_has_no_curve_points():
    curve = []
    store = train_online(Corpus.from_tokens([]), curve=curve)
    assert curve == []
    assert store.chunks == {} and store.word_counts == {}
    assert store.total_cost() == 0.0


words_lists = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=25
)


@given(words_lists)
@settings(max_examples=60, deadline=None)
def test_training_preserves_all_invariants(words):
    store = ChunkStore()
    for w in words:
        store.process_word(w)
    store.check_integrity()
    for w in set(words):
        assert "".join(store.segment_word(w)) == w
    assert store.total_cost() == pytest.approx(oracles.traced_flat_cost(store), rel=1e-9)


@given(words_lists, st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=40, deadline=None)
def test_dreaming_preserves_all_invariants(words, seed):
    store = ChunkStore()
    for w in words:
        store.process_word(w)
    rng = random.Random(seed)
    for _ in range(2):
        store.dream(rng)
    store.check_integrity()
    for w in set(words):
        assert "".join(store.segment_word(w)) == w


def _add_whole(store, word):
    """Add one token of word and leave its chunk a leaf, the state
    process_word's split search starts from."""
    store._flow(word, 1)
    node = store.chunks[word]
    if node.split:
        store._unsplit(node)


@given(words_lists, st.text(alphabet="ab", min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_committed_splits_never_beat_keeping_the_word_whole(words, next_word):
    store = ChunkStore()
    baseline = ChunkStore()
    for w in words:
        store.process_word(w)
        baseline.process_word(w)
    _add_whole(baseline, next_word)
    store.process_word(next_word)
    # the no-split candidate is always on the table, so greedy search can
    # only improve on it
    assert store.total_cost() <= baseline.total_cost() + 1e-9


def _same_state(store, reference):
    assert list(store.chunks.items()) == list(reference.chunks.items())
    assert store.word_counts == reference.word_counts
    assert store._leaf_tokens == reference._leaf_tokens


store_operations = st.lists(
    st.one_of(
        st.text(alphabet="abc", min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2 ** 30),  # a dreaming pass seed
    ),
    min_size=1,
    max_size=40,
)


@given(store_operations)
@settings(max_examples=80, deadline=None)
def test_signed_flow_equals_the_mirrored_add_and_remove_walks(operations):
    _follow(operations, oracles.MirroredFlowStore())


@given(store_operations)
@settings(max_examples=80, deadline=None)
def test_split_search_equals_the_exhaustive_reference_search(operations):
    _follow(operations, oracles.ExhaustiveSplitStore())


def _follow(operations, reference):
    """Apply each word or dreaming seed to a fresh store and to reference,
    checking after each that both hold the same state."""
    store = ChunkStore()
    for op in operations:
        if isinstance(op, str):
            store.process_word(op)
            reference.process_word(op)
        else:
            store_rng, reference_rng = random.Random(op), random.Random(op)
            for _ in range(2):
                store.dream(store_rng)
                reference.dream(reference_rng)
        _same_state(store, reference)


def test_split_points_that_tie_exactly_fall_to_the_leftmost():
    # with "aa" = a|a and "a" stored, a|aa and aa|a leave the same leaf
    # counts, so their cost changes are bit-equal and both beat keeping
    # "aaa" whole
    store = ChunkStore()
    store.process_word("aa")
    _add_whole(store, "aaa")
    changes = [store._split_change("aaa", 1, i) for i in (1, 2)]
    assert changes[0] == changes[1] < 0.0
    store.recursive_split("aaa")
    assert store.chunks["aaa"].split == 1
    reference = oracles.ExhaustiveSplitStore()
    for word in ("aa", "aaa"):
        reference.process_word(word)
    assert list(store.chunks.items()) == list(reference.chunks.items())


def test_a_split_into_two_new_parts_never_beats_keeping_the_word_whole():
    # "abc" (count c = 1, N = 2 leaf tokens) would become two new leaves of
    # its count: f(N + c) - f(N) - f(c) bits more, with f(x) = x*log2(x)
    store = ChunkStore()
    store.process_word("xy")
    _add_whole(store, "abc")
    expected = 3 * math.log2(3) - 2 * math.log2(2)
    for i in (1, 2):
        assert store._split_change("abc", 1, i) == pytest.approx(expected, rel=1e-15)
    assert expected >= 2.0
    store.recursive_split("abc")
    assert store.chunks["abc"].split == 0


def test_training_decisions_are_pinned(tmp_path):
    # sha256 of the model file train_online builds on synth.generate(20000, 0)
    # with the default config; a flipped split decision changes it
    tokens, _, _ = synth.generate(20000, 0)
    io.save_mdl_model(train_online(Corpus.from_tokens(tokens)), tmp_path / "m.model")
    digest = hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest()
    assert digest == "16de8253a925d4474a38658959bcfd481191610af9ce0268644c8b841d0607b6"
