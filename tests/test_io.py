import pytest
from hypothesis import given, settings, strategies as st

from morphseg import io
from morphseg.align import DistanceTable
from morphseg.errors import ModelFormatError
from morphseg.mdl import ChunkStore, MdlConfig, train_online
from morphseg.ml import MorphStats


# -- chunk stores -----------------------------------------------------------


def test_mdl_roundtrip(tmp_path, tiny_corpus):
    path = tmp_path / "m.model"
    store = train_online(tiny_corpus, MdlConfig(dream_interval=4))
    io.save_mdl_model(store, path)
    loaded = io.load_mdl_model(path)
    assert loaded == store
    assert loaded.word_counts == store.word_counts
    assert loaded.tracked_cost == pytest.approx(store.tracked_cost, rel=1e-12)
    loaded.check_integrity()
    # a loaded store keeps training
    loaded.process_word("catslike")
    loaded.check_integrity()


def test_mdl_single_leaf_roundtrip_is_exact(tmp_path):
    path = tmp_path / "m.model"
    store = ChunkStore()
    store.process_word("a")
    store.process_word("a")
    io.save_mdl_model(store, path)
    assert io.load_mdl_model(path).tracked_cost == store.tracked_cost


def test_mdl_save_is_deterministic(tmp_path, tiny_corpus):
    store = train_online(tiny_corpus, MdlConfig(dream_interval=0))
    io.save_mdl_model(store, tmp_path / "a.model")
    io.save_mdl_model(store, tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_mdl_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v0 char_bits=5", "a\t0\t1"])
    with pytest.raises(ModelFormatError, match="version"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-ml v1 total=1", "a\t1"])
    with pytest.raises(ModelFormatError):
        io.load_mdl_model(path)


def test_mdl_load_rejects_empty_file(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        io.load_mdl_model(path)


@pytest.mark.parametrize(
    "record",
    [
        "a\t0",  # field count
        "a\tx\t1",  # non-integer
        "a\t0\t0",  # zero count
        "ab\t5\t1",  # split outside the text
        "\t0\t1",  # empty text
    ],
)
def test_mdl_load_rejects_bad_records_with_line_numbers(tmp_path, record):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=5", record])
    with pytest.raises(ModelFormatError, match="line 2"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_duplicates(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=5", "a\t0\t1", "a\t0\t2"])
    with pytest.raises(ModelFormatError, match="duplicate"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_missing_part(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=5", "ab\t1\t1", "a\t0\t1"])
    with pytest.raises(ModelFormatError, match="missing part"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_impossible_flow(tmp_path):
    # "a" receives 2 from the split of "ab" but records only 1
    path = tmp_path / "m.model"
    _write_lines(
        path,
        ["morphseg-mdl v1 char_bits=5", "a\t0\t1", "ab\t1\t2", "b\t0\t2"],
    )
    with pytest.raises(ModelFormatError):
        io.load_mdl_model(path)


def test_mdl_load_requires_char_bits(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1", "a\t0\t1"])
    with pytest.raises(ModelFormatError, match="char_bits"):
        io.load_mdl_model(path)


@pytest.mark.parametrize("char_bits", ["0", "-3"])
def test_mdl_load_rejects_non_positive_char_bits(tmp_path, char_bits):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=" + char_bits, "a\t0\t1"])
    with pytest.raises(ModelFormatError, match="char_bits"):
        io.load_mdl_model(path)


@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_mdl_roundtrip_property(words):
    import tempfile, os

    store = ChunkStore()
    for w in words:
        store.process_word(w)
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        io.save_mdl_model(store, path)
        loaded = io.load_mdl_model(path)
        assert loaded == store
        assert loaded.word_counts == store.word_counts
        loaded.check_integrity()
    finally:
        os.unlink(path)


# -- ML models ---------------------------------------------------------------


def test_ml_roundtrip(tmp_path):
    path = tmp_path / "m.model"
    stats = MorphStats({"ab": 3, "c": 2}, 5, {"ab": 2, "c": 1})
    io.save_ml_model(stats, path)
    loaded = io.load_ml_model(path)
    assert loaded.counts == stats.counts
    assert loaded.total == stats.total
    assert loaded.type_usage == {}


def test_ml_load_checks_total(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-ml v1 total=9", "a\t3", "b\t2"])
    with pytest.raises(ModelFormatError, match="header says 9"):
        io.load_ml_model(path)


def test_ml_load_rejects_bad_records(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-ml v1 total=1", "a\tone"])
    with pytest.raises(ModelFormatError, match="line 2"):
        io.load_ml_model(path)
    _write_lines(path, ["morphseg-ml v1 total=2", "a\t1", "a\t1"])
    with pytest.raises(ModelFormatError, match="duplicate"):
        io.load_ml_model(path)


# -- segmentations -------------------------------------------------------------


def test_segmentation_roundtrip(tmp_path):
    path = tmp_path / "s.tsv"
    seg = {"puutaloja": ["puu", "talo", "ja"], "on": ["on"]}
    io.save_segmentation(seg, path)
    assert io.load_segmentation(path) == seg
    # sorted output
    text = path.read_text(encoding="utf-8")
    assert text == "morphseg-seg v1\non\ton\npuutaloja\tpuu talo ja\n"


def test_segmentation_rejects_mismatched_morphs(tmp_path):
    path = tmp_path / "s.tsv"
    _write_lines(path, ["morphseg-seg v1", "cats\tca t"])
    with pytest.raises(ModelFormatError, match="concatenate"):
        io.load_segmentation(path)


def test_segmentation_rejects_empty_morphs_and_duplicates(tmp_path):
    path = tmp_path / "s.tsv"
    _write_lines(path, ["morphseg-seg v1", "cats\tcats "])
    with pytest.raises(ModelFormatError):
        io.load_segmentation(path)
    _write_lines(path, ["morphseg-seg v1", "cats\tcats", "cats\tcat s"])
    with pytest.raises(ModelFormatError, match="duplicate"):
        io.load_segmentation(path)


@given(
    st.dictionaries(
        st.text(alphabet="abc", min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3),
        max_size=15,
    )
)
@settings(max_examples=40, deadline=None)
def test_segmentation_roundtrip_property(cut_plan):
    import tempfile, os

    seg = {}
    for word, cuts in cut_plan.items():
        morphs = []
        rest = word
        for c in cuts:
            if c < len(rest):
                morphs.append(rest[:c])
                rest = rest[c:]
        morphs.append(rest)
        seg[word] = morphs
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        io.save_segmentation(seg, path)
        assert io.load_segmentation(path) == seg
    finally:
        os.unlink(path)


# -- distance tables -----------------------------------------------------------


def test_distance_table_roundtrip_preserves_full_precision(tmp_path):
    path = tmp_path / "d.tsv"
    table = DistanceTable(
        {("s", "PL"): 0.41503749927884376, ("s", "GEN"): 2.0, ("ja", "PTV"): 1e-17},
        max_distance=12.000000000000002,
    )
    io.save_distance_table(table, path)
    loaded = io.load_distance_table(path)
    assert loaded.distances == table.distances
    assert loaded.max_distance == table.max_distance


@pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
def test_distance_table_rejects_unusable_max_distance(tmp_path, bad):
    path = tmp_path / "d.tsv"
    _write_lines(path, ["morphseg-dist v1 max_distance=%s" % bad, "a\tA\t1.0"])
    with pytest.raises(ModelFormatError, match="max_distance"):
        io.load_distance_table(path)


def test_distance_table_rejects_bad_floats(tmp_path):
    path = tmp_path / "d.tsv"
    _write_lines(path, ["morphseg-dist v1 max_distance=ten", "a\tA\t1.0"])
    with pytest.raises(ModelFormatError, match="max_distance"):
        io.load_distance_table(path)
    _write_lines(path, ["morphseg-dist v1 max_distance=10.0", "a\tA\tfast"])
    with pytest.raises(ModelFormatError, match="line 2"):
        io.load_distance_table(path)


@pytest.mark.parametrize(
    "records, message",
    [
        (["s\tPL\t1.0", "s\tPL\t3.0"], "line 3: duplicate pair \\('s', 'PL'\\)"),
        (["\tPL\t1.0"], "line 2: empty morph or label"),
        (["s\t\t1.0"], "line 2: empty morph or label"),
        (["s\tPL\t1.0", "s\tGEN\tnan"], "line 3: distance must be finite and non-negative"),
        (["s\tPL\t-0.5"], "line 2: distance must be finite and non-negative"),
        (["s\tPL\tinf"], "line 2: distance must be finite and non-negative"),
    ],
)
def test_distance_table_rejects_invalid_records(tmp_path, records, message):
    path = tmp_path / "d.tsv"
    _write_lines(path, ["morphseg-dist v1 max_distance=10.0"] + records)
    with pytest.raises(ModelFormatError, match=message):
        io.load_distance_table(path)


@given(
    st.dictionaries(
        st.tuples(
            st.text(alphabet="ab", min_size=1, max_size=3),
            st.sampled_from(["A", "PL", "<DER:ly>"]),
        ),
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        max_size=12,
    ),
    st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_distance_table_roundtrip_property(distances, max_distance):
    import tempfile, os

    table = DistanceTable(distances, max_distance)
    fd, path = tempfile.mkstemp()
    os.close(fd)
    try:
        io.save_distance_table(table, path)
        loaded = io.load_distance_table(path)
        assert loaded.distances == table.distances
        assert loaded.max_distance == table.max_distance
    finally:
        os.unlink(path)


# -- counts, curves, sniffing ---------------------------------------------------


def test_word_counts_roundtrip(tmp_path):
    path = tmp_path / "c.tsv"
    counts = {"cats": 7, "dog": 1}
    io.save_word_counts(counts, path)
    assert io.load_word_counts(path) == counts


def test_word_counts_rejects_bad_count(tmp_path):
    path = tmp_path / "c.tsv"
    _write_lines(path, ["morphseg-counts v1", "cats\tmany"])
    with pytest.raises(ModelFormatError):
        io.load_word_counts(path)


@pytest.mark.parametrize(
    "records, message",
    [
        (["\t3"], "invalid record"),
        (["cats\t0"], "invalid record"),
        (["cats\t-4"], "invalid record"),
        (["cats\t2", "dogs\t1", "cats\t5"], "line 4: duplicate word 'cats'"),
    ],
)
def test_word_counts_rejects_invalid_records(tmp_path, records, message):
    path = tmp_path / "c.tsv"
    _write_lines(path, ["morphseg-counts v1"] + records)
    with pytest.raises(ModelFormatError, match=message):
        io.load_word_counts(path)


def test_cost_curve_roundtrip(tmp_path):
    path = tmp_path / "curve.csv"
    curve = [(2000, 11.612648), (4000, 10.81), (5000, 10.128027379314801)]
    io.write_cost_curve(curve, path)
    assert io.read_cost_curve(path) == curve
    assert path.read_text(encoding="utf-8").startswith(
        "tokens_processed,avg_word_cost_bits\n"
    )


def test_cost_curve_rejects_foreign_files(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        io.read_cost_curve(path)


@pytest.mark.parametrize("row", ["2000,1.5,7", "x,1.5", "2000,fast"])
def test_cost_curve_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "curve.csv"
    _write_lines(path, ["tokens_processed,avg_word_cost_bits", "1000,2.5", row])
    with pytest.raises(ModelFormatError, match="curve.csv line 3"):
        io.read_cost_curve(path)


def test_write_records_without_a_path_writes_to_stdout(capsys):
    io.write_records(None, ["morphseg-seg", "v1"], iter(["päivät\tpäivä t"]))
    assert capsys.readouterr().out == "morphseg-seg v1\npäivät\tpäivä t\n"


def test_sniff_format(tmp_path, tiny_corpus):
    mdl_path = tmp_path / "a.model"
    ml_path = tmp_path / "b.model"
    io.save_mdl_model(train_online(tiny_corpus, MdlConfig(dream_interval=0)), mdl_path)
    io.save_ml_model(MorphStats({"a": 1}, 1, {}), ml_path)
    assert io.sniff_format(mdl_path) == "morphseg-mdl"
    assert io.sniff_format(ml_path) == "morphseg-ml"


@pytest.mark.parametrize("kind", ["mdl", "ml"])
def test_save_model_and_load_model_round_trip_either_kind(tmp_path, tiny_corpus, kind):
    if kind == "mdl":
        model, save = train_online(tiny_corpus, MdlConfig(dream_interval=4)), io.save_mdl_model
    else:
        model, save = MorphStats({"cat": 2, "s": 3}, 5, {"cat": 1, "s": 2}), io.save_ml_model
    io.save_model(model, tmp_path / "any.model")
    save(model, tmp_path / "own.model")
    assert (tmp_path / "any.model").read_bytes() == (tmp_path / "own.model").read_bytes()
    loaded = io.load_model(tmp_path / "any.model")
    assert type(loaded) is type(model)
    io.save_model(loaded, tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == (tmp_path / "own.model").read_bytes()


def test_load_model_rejects_files_that_are_not_models(tmp_path):
    seg_path = tmp_path / "seg.tsv"
    io.save_segmentation({"cats": ["cat", "s"]}, seg_path)
    empty = tmp_path / "empty.model"
    empty.write_text("", encoding="utf-8")
    for path, header in ((seg_path, "morphseg-seg"), (empty, "")):
        with pytest.raises(ModelFormatError, match="not a model file \\(header %r\\)" % header):
            io.load_model(path)


# -- line ends ---------------------------------------------------------------


_HEADED_FILES = {
    "mdl": (
        io.save_mdl_model,
        io.load_mdl_model,
        lambda corpus: train_online(corpus, MdlConfig(dream_interval=4)),
    ),
    "ml": (io.save_ml_model, io.load_ml_model, lambda corpus: MorphStats({"cat": 2, "s": 1}, 3, {})),
    "seg": (
        io.save_segmentation,
        io.load_segmentation,
        lambda corpus: {"cats": ["cat", "s"], "dog": ["dog"]},
    ),
    "dist": (
        io.save_distance_table,
        io.load_distance_table,
        lambda corpus: DistanceTable({("cat", "CAT"): 0.0, ("s", "PL"): 0.415}, 10.415),
    ),
    "counts": (io.save_word_counts, io.load_word_counts, lambda corpus: corpus.type_counts),
    "curve": (io.write_cost_curve, io.read_cost_curve, lambda corpus: [(2000, 11.6), (2500, 10.5)]),
}


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("kind", sorted(_HEADED_FILES))
def test_headed_loaders_read_crlf_files_as_lf_files(tmp_path, tiny_corpus, kind, line_end):
    save, load, make = _HEADED_FILES[kind]
    lf_path, other_path = tmp_path / "lf", tmp_path / "other"
    save(make(tiny_corpus), lf_path)
    lf_bytes = lf_path.read_bytes()
    assert b"\r" not in lf_bytes
    other_path.write_bytes(lf_bytes.replace(b"\n", line_end))
    assert load(other_path) == load(lf_path)
