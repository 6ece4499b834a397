import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from morphseg.align import EvalResult
from morphseg.mdl import CHAR_BITS, ChunkStore, cost_bits
from morphseg.ml import MorphStats
from morphseg.report import (
    ML_FOOTNOTE,
    MetricsReport,
    build_report,
    format_comparison,
    read_metrics,
    write_metrics,
)


def test_single_leaf_store_report():
    store = ChunkStore()
    store.process_word("a")
    report = build_report(store)
    assert report.method == "rec-mdl"
    assert report.total_cost_bits == 5.0
    assert report.corpus_cost_bits == 0.0
    assert report.codebook_cost_bits == 5.0
    assert report.codebook_morphs == 1
    assert report.relative_codebook_cost == 1.0
    assert report.cost_footnote is False
    assert report.alignment_distance_bits is None


def test_relative_codebook_cost_is_a_share_of_the_total():
    # 9 corpus bits + 1 codebook bit -> 0.10
    assert 1.0 / (9.0 + 1.0) == 0.10
    stats = MorphStats({"ab": 2, "c": 2})
    report = build_report(stats)
    assert report.corpus_cost_bits == 4.0
    assert report.codebook_cost_bits == 15.0
    assert report.total_cost_bits == 19.0
    assert report.relative_codebook_cost == pytest.approx(15.0 / 19.0)
    assert report.codebook_morphs == 2
    assert report.cost_footnote is True


def test_ml_codebook_priced_like_the_mdl_one():
    stats = MorphStats({"talo": 10, "ja": 5})
    report = build_report(stats)
    assert report.codebook_cost_bits == CHAR_BITS * 6
    assert report.corpus_cost_bits == pytest.approx(cost_bits(stats.counts)[0])


def test_build_report_rejects_unknown_models():
    with pytest.raises(TypeError):
        build_report({"not": "a model"})


def test_report_carries_evaluation_fields():
    store = ChunkStore()
    store.process_word("cats")
    evaluation = EvalResult(
        alignment_distance_bits=123.5,
        unseen_pair_pct=20.0,
        aligned_pairs=10,
        unseen_pairs=2,
        alignments={},
    )
    report = build_report(store, evaluation=evaluation)
    assert report.alignment_distance_bits == 123.5
    assert report.unseen_pair_pct == 20.0


def test_records_exclude_timing_by_default():
    store = ChunkStore()
    store.process_word("a")
    report = build_report(store)
    # timing varies between otherwise identical runs, so a report holds none
    assert not any("time" in field.name for field in dataclasses.fields(MetricsReport))
    assert set(report.to_record()) == {
        field.name for field in dataclasses.fields(MetricsReport)
    } - {"alignment_distance_bits", "unseen_pair_pct"}


def test_metrics_roundtrip_is_lossless(tmp_path):
    path = tmp_path / "report.json"
    store = ChunkStore()
    for w in ["cats", "cats", "dogs", "walked"]:
        store.process_word(w)
    evaluation = EvalResult(768000.125, 23.640000000000001, 99, 7, {})
    reports = [
        build_report(store, evaluation=evaluation),
        build_report(MorphStats({"a": 3, "b": 1})),
    ]
    write_metrics(reports, path)
    loaded = read_metrics(path)
    assert len(loaded) == 2
    for original, back in zip(reports, loaded):
        assert back.method == original.method
        assert back.total_cost_bits == original.total_cost_bits
        assert back.corpus_cost_bits == original.corpus_cost_bits
        assert back.codebook_cost_bits == original.codebook_cost_bits
        assert back.codebook_morphs == original.codebook_morphs
        assert back.relative_codebook_cost == original.relative_codebook_cost
        assert back.alignment_distance_bits == original.alignment_distance_bits
        assert back.unseen_pair_pct == original.unseen_pair_pct
        assert back.cost_footnote == original.cost_footnote


def test_metrics_files_are_deterministic(tmp_path):
    store = ChunkStore()
    store.process_word("cats")
    reports = [build_report(store)]
    write_metrics(reports, tmp_path / "a.json")
    reports2 = [build_report(store)]
    write_metrics(reports2, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_format_comparison_table():
    store = ChunkStore()
    for w in ["cats", "cats", "dogs"]:
        store.process_word(w)
    stats = MorphStats({"cat": 2, "s": 3, "dog": 1})
    mdl_eval = EvalResult(10.0, 5.0, 20, 1, {})
    reports = [
        build_report(store, evaluation=mdl_eval),
        build_report(stats),
    ]
    table = format_comparison(reports)
    lines = table.splitlines()
    assert "Rec. MDL" in lines[0] and "Seq. ML" in lines[0]
    assert any(line.startswith("Total cost [bits]") for line in lines)
    assert any(line.startswith("Relative codebook cost") and "%" in line for line in lines)
    assert any(line.startswith("Alignment distance [bits]") and "-" in line for line in lines)
    assert not any(line.startswith("Time") for line in lines)
    # the ML total is marked and explained
    total_line = next(line for line in lines if line.startswith("Total cost [bits]"))
    assert "*" in total_line
    assert lines[-1] == "* " + ML_FOOTNOTE


def test_format_comparison_without_footnote_or_eval():
    store = ChunkStore()
    store.process_word("a")
    table = format_comparison([build_report(store)])
    assert "*" not in table
    assert "Alignment" not in table


@given(
    st.dictionaries(
        st.text(alphabet="abcd", min_size=1, max_size=5),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_relative_codebook_cost_is_a_fraction(counts):
    stats = MorphStats(counts)
    report = build_report(stats)
    assert 0.0 <= report.relative_codebook_cost <= 1.0
    assert report.total_cost_bits == pytest.approx(
        report.corpus_cost_bits + report.codebook_cost_bits
    )
    assert report.codebook_morphs == len(counts)
    assert not math.isnan(report.total_cost_bits)
