import logging
import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from conftest import logged_args
from morphseg import align
from morphseg.align import (
    DistanceTable,
    GoldEntry,
    _common_substring_len,
    _string_match_align,
    align_word,
    em_align,
    format_alignment,
    load_tag_filter,
    parse_gold,
    score_segmentation,
)
from morphseg.errors import MorphsegError

AFFIX_FILTER = {"PL", "PTV", "GEN", "SG3", "CMP", "<DER:ly>"}


# -- reference analyses -----------------------------------------------------


def test_parse_gold_compound_and_tags():
    gold = parse_gold(["puutaloja\tPUU#TALO N PL PTV"], tag_filter=AFFIX_FILTER)
    entry = gold["puutaloja"]
    assert entry.labels == ("PUU", "TALO", "PL", "PTV")
    assert entry.base_count == 2


def test_parse_gold_simple():
    gold = parse_gold(["bigger\tBIG A CMP"], tag_filter=AFFIX_FILTER)
    assert gold["bigger"].labels == ("BIG", "CMP")


def test_parse_gold_derivational_tag():
    gold = parse_gold(["easily\tEASY <DER:ly> ADV"], tag_filter=AFFIX_FILTER)
    assert gold["easily"].labels == ("EASY", "<DER:ly>")


def test_parse_gold_without_filter_keeps_all_tags():
    gold = parse_gold(["bigger\tBIG A CMP"])
    assert gold["bigger"].labels == ("BIG", "A", "CMP")


@pytest.mark.parametrize(
    "tag_filter, labels",
    [(None, ("CAT", "DOG", "N", "PL")), (AFFIX_FILTER, ("CAT", "DOG", "PL"))],
)
def test_parse_gold_drops_empty_base_pieces_between_and_after_bases(tag_filter, labels):
    entry = parse_gold(["catdogs\tCAT##DOG# N PL"], tag_filter=tag_filter)["catdogs"]
    assert entry.labels == labels
    assert entry.base_count == 2


def test_parse_gold_errors_carry_line_numbers():
    with pytest.raises(MorphsegError, match="line 2"):
        parse_gold(["cats\tCAT N PL", "no tab here"])
    with pytest.raises(MorphsegError, match="line 1"):
        parse_gold(["cats\t"])
    with pytest.raises(MorphsegError, match="line 1"):
        parse_gold(["cats\t# N"])
    for word in ("cat s", " dogs", "dogs ", "do\u00a0gs"):
        message = "<gold> line 2: whitespace in word %r" % word
        with pytest.raises(MorphsegError, match=re.escape(message)):
            parse_gold(["cats\tCAT N PL", word + "\tDOG PL"])


def test_load_tag_filter_keeps_one_tag_per_line(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text(" PL \n\nGEN\t\n", encoding="utf-8")
    assert load_tag_filter(path) == {"PL", "GEN"}
    path.write_text("PL\n\nPL GEN\n", encoding="utf-8")
    with pytest.raises(MorphsegError, match="line 3: whitespace in tag 'PL GEN'"):
        load_tag_filter(path)


def test_parse_gold_duplicate_keeps_first(caplog):
    with caplog.at_level(logging.WARNING):
        gold = parse_gold(["cats\tCAT N PL", "cats\tKAT N"])
    assert gold["cats"].labels == ("CAT", "N", "PL")
    assert "duplicate" in caplog.text


def test_parse_gold_shares_one_object_per_label():
    gold = parse_gold(["cats\tCAT N PL", "dogs\tDOG N PL", "catdogs\tCAT#DOG N PL"])
    first = {}
    for entry in gold.values():
        for label in entry.labels:
            assert first.setdefault(label, label) is label
    assert sorted(first) == ["CAT", "DOG", "N", "PL"]


def test_parse_gold_skips_blank_lines():
    gold = parse_gold(["", "cats\tCAT N PL", "   "])
    assert set(gold) == {"cats"}


# -- the alignment DP --------------------------------------------------------


def test_align_word_diagonal_zero_distance():
    table = DistanceTable({("bigg", "BIG"): 0.0, ("er", "CMP"): 0.0}, 10.0)
    pairs, bits = align_word(["bigg", "er"], ["BIG", "CMP"], table)
    assert pairs == [(0, 0), (1, 1)]
    assert bits == 0.0


def test_align_word_one_to_many_is_forced():
    table = DistanceTable({}, 2.0)
    pairs, bits = align_word(["talo"], ["TALO", "PL", "PTV"], table)
    assert pairs == [(0, 0), (0, 1), (0, 2)]
    assert bits == 6.0


def test_align_word_many_to_one_is_forced():
    table = DistanceTable({}, 2.0)
    pairs, bits = align_word(["t", "alo"], ["TALO"], table)
    assert pairs == [(0, 0), (1, 0)]
    assert bits == 4.0


def test_align_word_mixed_fan_out():
    distances = {
        ("puu", "PUU"): 0.0,
        ("t", "TALO"): 0.3,
        ("alo", "TALO"): 0.2,
        ("ja", "PL"): 0.1,
        ("ja", "PTV"): 0.1,
    }
    table = DistanceTable(distances, 10.0)
    pairs, bits = align_word(
        ["puu", "t", "alo", "ja"], ["PUU", "TALO", "PL", "PTV"], table
    )
    assert pairs == [(0, 0), (1, 1), (2, 1), (3, 2), (3, 3)]
    assert bits == pytest.approx(0.7)


def test_align_word_tie_prefers_diagonal():
    table = DistanceTable({}, 0.0)
    pairs, _ = align_word(["a", "b"], ["A", "B"], table)
    assert pairs == [(0, 0), (1, 1)]


def test_align_word_rejects_empty_input():
    table = DistanceTable({}, 1.0)
    with pytest.raises(ValueError):
        align_word([], ["A"], table)
    with pytest.raises(ValueError):
        align_word(["a"], [], table)


@st.composite
def align_instances(draw):
    morphs = draw(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=3), min_size=1, max_size=4)
    )
    labels = draw(
        st.lists(st.sampled_from(["A", "B", "C", "PL"]), min_size=1, max_size=4)
    )
    distances = {}
    for m in morphs:
        for l in labels:
            if draw(st.booleans()):
                distances[(m, l)] = draw(
                    st.floats(min_value=0.0, max_value=8.0).map(lambda x: round(x, 3))
                )
    observed = max(distances.values(), default=0.0)
    return morphs, labels, DistanceTable(distances, observed + 10.0)


@given(align_instances())
@settings(max_examples=120, deadline=None)
def test_align_word_matches_brute_force(instance):
    morphs, labels, table = instance
    pairs, bits = align_word(morphs, labels, table)
    assert bits == oracles.brute_force_align(morphs, labels, table)
    # coverage: every morph and every label lands in at least one pair
    assert {i for i, _ in pairs} == set(range(len(morphs)))
    assert {j for _, j in pairs} == set(range(len(labels)))


# -- string-matching initialization ------------------------------------------


def test_string_match_groups_split_base_parts():
    gold = parse_gold(["puutalo\tPUU#TALO N"], tag_filter=set())
    pairs = _string_match_align(["puu", "t", "alo"], gold["puutalo"])
    assert pairs == [(0, 0), (1, 1), (2, 1)]


def _substrings(s):
    return {s[i:j] for i in range(len(s) + 1) for j in range(i, len(s) + 1)}


@st.composite
def string_pairs(draw):
    # one to three letters, so long shared runs and near misses are common
    alphabet = draw(st.sampled_from(["a", "ab", "abc"]))
    return draw(st.text(alphabet, max_size=40)), draw(st.text(alphabet, max_size=40))


@given(string_pairs())
@settings(max_examples=300, deadline=None)
def test_common_substring_len_is_the_longest_shared_substring(pair):
    a, b = pair
    longest = max(map(len, _substrings(a) & _substrings(b)))  # "" is shared by any two strings
    assert _common_substring_len(a, b) == longest
    assert _common_substring_len(b, a) == longest


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("", "", 0), ("", "abc", 0), ("abc", "xyz", 0),  # nothing shared
        ("bc", "abcd", 2), ("abcd", "abcd", 4), ("xya", "a", 1),  # min(len): one holds the other
        ("abd", "abcd", 2), ("xbcd", "abcd", 3), ("abab", "bba", 2),  # min(len) - 1
    ],
)
def test_common_substring_len_at_the_ends_of_its_range(a, b, expected):
    assert _common_substring_len(a, b) == expected
    assert _common_substring_len(b, a) == expected


def _negated_similarity(morph, label):
    """-(longest common substring, case-insensitive) / longer length, by search."""
    a, b = morph.casefold(), label.casefold()
    common = max(k for k in range(len(a) + 1) for i in range(len(a) - k + 1) if a[i : i + k] in b)
    return -common / max(len(a), len(b))


@st.composite
def string_match_instances(draw):
    # few short strings over two letters, so repeats and equal scores are common
    pieces = st.sampled_from(["a", "b", "ab", "ba", "aa", "aba"])
    morphs = draw(st.lists(pieces, min_size=1, max_size=4))
    bases = draw(st.lists(pieces.map(str.upper), min_size=1, max_size=3))
    tags = draw(st.lists(st.sampled_from(["PL", "GEN"]), max_size=2))
    return morphs, GoldEntry(tuple(bases + tags), len(bases))


@given(string_match_instances())
@settings(max_examples=150, deadline=None)
def test_string_match_path_is_a_best_full_coverage_path(instance):
    morphs, entry = instance
    m, n = len(morphs), len(entry.labels)

    def cost(i, j):
        return _negated_similarity(morphs[i], entry.labels[j]) if j < entry.base_count else 0.0

    def total(path):
        bits = 0.0
        for i, j in path:
            bits = bits + cost(i, j)
        return bits

    pairs = _string_match_align(morphs, entry)
    assert pairs[0] == (0, 0) and pairs[-1] == (m - 1, n - 1)
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 1), (1, 0), (0, 1)}
    assert total(pairs) == min(total(path) for path in oracles.iter_alignment_paths(m, n))


# -- EM distance fitting -------------------------------------------------------


def plural_fixture():
    segmented = {
        "cats": ["cat", "s"],
        "dogs": ["dog", "s"],
        "birds": ["bird", "s"],
        "kings": ["king", "s"],
    }
    gold = parse_gold(
        [
            "cats\tCAT PL",
            "dogs\tDOG PL",
            "birds\tBIRD PL",
            "kings\tKING GEN",
        ]
    )
    counts = {w: 1 for w in segmented}
    return segmented, gold, counts


def test_em_align_estimates_conditional_distances():
    segmented, gold, counts = plural_fixture()
    table = em_align(segmented, gold, counts)
    # s realizes PL in 3 of its 4 tokens and GEN in 1
    assert table.distances[("s", "PL")] == math.log2(4 / 3)
    assert table.distances[("s", "PL")] == pytest.approx(0.415, abs=1e-3)
    assert table.distances[("s", "GEN")] == 2.0
    assert table.distances[("cat", "CAT")] == 0.0
    # the charge for unseen pairs: largest observed distance plus 10
    assert table.max_distance == 12.0
    assert ("cat", "PL") not in table.distances


def test_em_align_zero_distance_means_exclusive_pairing():
    segmented, gold, counts = plural_fixture()
    table = em_align(segmented, gold, counts)
    for (morph, label), d in table.distances.items():
        tokens_with_morph = [w for w in segmented if morph in segmented[w]]
        if d == 0.0:
            assert all(label in gold[w].labels for w in tokens_with_morph)


def test_em_align_token_weighting():
    segmented, gold, _ = plural_fixture()
    counts = {"cats": 6, "dogs": 1, "birds": 1, "kings": 2}
    table = em_align(segmented, gold, counts)
    assert table.distances[("s", "PL")] == math.log2(10 / 8)
    assert table.distances[("s", "GEN")] == math.log2(10 / 2)


def test_em_align_skips_words_without_analyses(caplog):
    segmented, gold, counts = plural_fixture()
    segmented["mystery"] = ["myst", "ery"]
    counts["mystery"] = 1
    segmented["riddle"] = ["riddle"]
    counts["riddle"] = 1
    with caplog.at_level(logging.WARNING):
        table = em_align(segmented, gold, counts)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["2 words lacked reference analyses and were skipped"]
    assert table.distances[("s", "GEN")] == 2.0


def test_em_align_with_no_overlap_fails():
    with pytest.raises(MorphsegError):
        em_align({"cats": ["cats"]}, {}, {"cats": 1})


def test_em_align_requires_token_counts():
    segmented, gold, counts = plural_fixture()
    del counts["cats"]
    with pytest.raises(MorphsegError):
        em_align(segmented, gold, counts)


def _distance_log(caplog):
    """The total bits of each alignment EM iteration caplog holds."""
    return [total for _, total in logged_args(caplog, "morphseg.align")]


def test_em_align_training_distance_is_monotone(caplog):
    segmented, gold, counts = plural_fixture()
    with caplog.at_level(logging.INFO, logger="morphseg.align"):
        em_align(segmented, gold, counts)
    log = _distance_log(caplog)
    assert log
    for earlier, later in zip(log, log[1:]):
        assert later <= earlier + 1e-9


def test_em_align_monotone_for_model_segmentations(caplog):
    # strict per-iteration monotonicity is not a theorem under per-token
    # pair counting (a morph repeated inside one word decouples the cell
    # charges from the counts), but it holds for the consistent morph
    # inventories real training produces
    from morphseg import synth
    from morphseg.corpus import Corpus
    from morphseg.mdl import train_online

    for seed in (0, 1, 2):
        tokens, gold_lines, tags = synth.generate(2500, seed=seed)
        corpus = Corpus.from_tokens(tokens)
        gold = parse_gold(gold_lines, tag_filter=set(tags))
        store = train_online(corpus, dream_interval=1000, rng=random.Random(seed))
        segmented = {w: store.segment_word(w) for w in corpus.type_counts}
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="morphseg.align"):
            em_align(segmented, gold, corpus.type_counts)
        log = _distance_log(caplog)
        for earlier, later in zip(log, log[1:]):
            assert later <= earlier + 1e-9 * max(earlier, 1.0)


@given(
    st.dictionaries(
        st.text(alphabet="abc", min_size=2, max_size=6),
        st.integers(min_value=1, max_value=5),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=0, max_value=2 ** 30),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_em_align_stops_once_improvement_stalls(caplog, type_counts, seed):
    rng = random.Random(seed)
    segmented = {}
    gold_lines = []
    for word in type_counts:
        cut = rng.randint(1, len(word) - 1) if len(word) > 1 else 0
        segmented[word] = [word[:cut], word[cut:]] if cut else [word]
        label = word[: max(1, len(word) - 1)].upper()
        tag = rng.choice(["PL", "GEN", "SG3"])
        gold_lines.append("%s\t%s %s" % (word, label, tag))
    gold = parse_gold(gold_lines)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="morphseg.align"):
        em_align(segmented, gold, type_counts)
    log = _distance_log(caplog)
    assert 1 <= len(log) <= align.EM_ITERATIONS
    # every round but the last must have cleared the improvement threshold
    for earlier, later in zip(log[:-1], log[1:-1]):
        assert earlier - later >= 1e-4 * max(earlier, 1e-12)


_EM_MORPHS = ["a", "b", "ab", "ba", "s", "ta", "tab"]


@st.composite
def em_instances(draw):
    """Segmented words, reference analyses (some missing) and token counts."""
    segs = draw(
        st.lists(
            st.lists(st.sampled_from(_EM_MORPHS), min_size=1, max_size=4),
            min_size=1,
            max_size=10,
            unique_by="".join,
        )
    )
    segmented, gold_lines, counts = {}, [], {}
    for morphs in segs:
        word = "".join(morphs)
        segmented[word] = morphs
        counts[word] = draw(st.integers(min_value=1, max_value=5))
        if len(gold_lines) == 0 or draw(st.integers(0, 4)):
            bases = draw(st.lists(st.sampled_from(["AB", "BA", "TA", "S"]), min_size=1, max_size=2))
            tags = draw(st.lists(st.sampled_from(["PL", "GEN", "SG3"]), max_size=2))
            gold_lines.append("%s\t%s" % (word, " ".join(["#".join(bases)] + tags)))
    return segmented, parse_gold(gold_lines), counts


@given(em_instances(), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_em_align_equals_the_keep_every_path_oracle(caplog, monkeypatch, instance, iterations):
    # a small iteration cap also covers fits that stop before converging
    monkeypatch.setattr(align, "EM_ITERATIONS", iterations)
    segmented, gold, counts = instance
    expected_log = []
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="morphseg.align"):
        table = em_align(segmented, gold, counts)
    log = _distance_log(caplog)
    expected = oracles.em_align_keeping_paths(
        segmented, gold, counts, iterations, align.EM_TOL, expected_log
    )
    assert table.distances == expected.distances
    assert table.max_distance == expected.max_distance
    assert log == expected_log


def _shuffled(mapping, rng):
    items = list(mapping.items())
    rng.shuffle(items)
    return dict(items)


@given(em_instances(), em_instances(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_evaluate_does_not_depend_on_input_order(train, test, rng):
    (train_seg, train_gold, train_counts), (test_seg, test_gold, test_counts) = train, test
    inputs = (train_seg, test_seg, {**test_gold, **train_gold}, train_counts, test_counts)

    def evaluate(train_seg, test_seg, gold, train_counts, test_counts):
        # the two calls of eval and compare: fit on one segmentation, score the other
        table = em_align(train_seg, gold, train_counts)
        return score_segmentation(test_seg, gold, test_counts, table), table

    assert evaluate(*(_shuffled(m, rng) for m in inputs)) == evaluate(*inputs)


# -- scoring under a frozen table ---------------------------------------------


def test_score_segmentation_charges_unseen_pairs():
    table = DistanceTable({("a", "A"): 0.0}, 20.0)
    gold = parse_gold(["b\tB"])
    result = score_segmentation({"b": ["b"]}, gold, {"b": 1}, table)
    assert result.alignment_distance_bits == 20.0
    assert result.unseen_pair_pct == 100.0
    assert result.aligned_pairs == 1
    assert result.unseen_pairs == 1


def test_score_segmentation_is_token_weighted():
    table = DistanceTable({("a", "A"): 0.5}, 20.0)
    gold = parse_gold(["a\tA", "b\tB"])
    result = score_segmentation({"a": ["a"], "b": ["b"]}, gold, {"a": 3, "b": 2}, table)
    assert result.alignment_distance_bits == pytest.approx(3 * 0.5 + 2 * 20.0)
    assert result.aligned_pairs == 5
    assert result.unseen_pairs == 2
    assert result.unseen_pair_pct == pytest.approx(40.0)


def test_score_segmentation_needs_scorable_words():
    table = DistanceTable({}, 10.0)
    with pytest.raises(MorphsegError):
        score_segmentation({"b": ["b"]}, {}, {"b": 1}, table)


def test_score_segmentation_rejects_words_that_all_weigh_zero():
    table = DistanceTable({}, 10.0)
    gold = parse_gold(["b\tB"])
    with pytest.raises(MorphsegError, match="nothing to score"):
        score_segmentation({"b": ["b"]}, gold, {"b": 0}, table)


def test_score_segmentation_requires_token_counts():
    segmented, gold, counts = plural_fixture()
    table = em_align(segmented, gold, counts)
    del counts["kings"]
    with pytest.raises(MorphsegError, match="no token count for 'kings'"):
        score_segmentation(segmented, gold, counts, table)


def test_unsplit_words_reach_zero_training_distance():
    # every word type kept whole: each morph realizes its own labels in
    # every token, so all fitted distances are exactly zero
    words = ["cats", "dogs", "kings", "walked"]
    gold = parse_gold(
        ["cats\tCAT PL", "dogs\tDOG PL", "kings\tKING GEN", "walked\tWALK PAST"]
    )
    segmented = {w: [w] for w in words}
    counts = {w: 2 for w in words}
    table = em_align(segmented, gold, counts)
    train_score = score_segmentation(segmented, gold, counts, table)
    assert train_score.alignment_distance_bits == 0.0
    assert train_score.unseen_pairs == 0

    # held-out types are all new morphs, so the same table charges them
    test_gold = parse_gold(["birds\tBIRD PL"])
    test_score = score_segmentation({"birds": ["birds"]}, test_gold, {"birds": 1}, table)
    assert test_score.alignment_distance_bits > 0.0
    assert test_score.unseen_pairs == test_score.aligned_pairs


def test_evaluate_end_to_end():
    segmented, gold, counts = plural_fixture()
    test_seg = {"cats": ["cat", "s"], "kings": ["king", "s"]}
    test_counts = {"cats": 2, "kings": 1}
    table = em_align(segmented, gold, counts)
    result = score_segmentation(test_seg, gold, test_counts, table)
    assert result.alignment_distance_bits >= 0.0
    assert 0.0 <= result.unseen_pair_pct <= 100.0
    assert set(result.alignments) == set(test_seg)
    assert table.max_distance == 12.0


def test_format_alignment():
    line = format_alignment(
        "puutaloja",
        ["puu", "t", "alo", "ja"],
        ("PUU", "TALO", "PL", "PTV"),
        [(0, 0), (1, 1), (2, 1), (3, 2), (3, 3)],
    )
    assert line == "puutaloja\tpuu:PUU t:TALO alo:TALO ja:PL+PTV"
