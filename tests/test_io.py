import codecs
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import curve_rows
from morphseg import io
from morphseg.errors import MorphsegError
from morphseg.mdl import ChunkStore, train_online
from morphseg.ml import MorphStats


def test_every_header_the_writers_write_is_in_the_readme(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    formats = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    store = ChunkStore()
    store.process_word("ab")
    io.save_mdl_model(store, tmp_path / "mdl")
    io.save_ml_model(MorphStats({"ab": 1}), tmp_path / "ml")
    io.save_segmentation({"ab": ["ab"]}, tmp_path / "seg")
    io.save_word_counts({"ab": 1}, tmp_path / "counts")
    io.write_cost_curve([(1, 2.0)], tmp_path / "curve")
    for name in ["mdl", "ml", "seg", "counts", "curve"]:
        header = (tmp_path / name).read_text(encoding="utf-8").split("\n", 1)[0]
        header = re.sub(r"total=\d+$", "total=N", header)  # the one value that varies
        assert "`%s`" % header in formats


# -- chunk stores -----------------------------------------------------------


def test_mdl_roundtrip(tmp_path, tiny_corpus):
    path = tmp_path / "m.model"
    store = train_online(tiny_corpus, dream_interval=4)
    io.save_mdl_model(store, path)
    loaded = io.load_mdl_model(path)
    assert loaded == store
    assert loaded.word_counts == store.word_counts
    assert loaded.total_cost() == pytest.approx(store.total_cost(), rel=1e-12)
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
    assert io.load_mdl_model(path).total_cost() == store.total_cost()


def test_mdl_save_is_deterministic(tmp_path, tiny_corpus):
    store = train_online(tiny_corpus, dream_interval=0)
    io.save_mdl_model(store, tmp_path / "a.model")
    io.save_mdl_model(store, tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _params_refused(found, expected):
    """The message, as a regex, of a header with the parameters found where its writer writes expected."""
    return re.escape("header parameters %r, expected %r" % (found, expected))


def test_mdl_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v0 char_bits=5", "a\t0\t1"])
    with pytest.raises(MorphsegError, match="version"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-ml v1 total=1", "a\t1"])
    with pytest.raises(MorphsegError):
        io.load_mdl_model(path)


def test_mdl_load_rejects_empty_file(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MorphsegError):
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
    with pytest.raises(MorphsegError, match="line 2"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_duplicates(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=5", "a\t0\t1", "a\t0\t2"])
    with pytest.raises(MorphsegError, match="duplicate"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_missing_part(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=5", "ab\t1\t1", "a\t0\t1"])
    with pytest.raises(MorphsegError, match="missing part"):
        io.load_mdl_model(path)


def test_mdl_load_rejects_impossible_flow(tmp_path):
    # "a" receives 2 from the split of "ab" but records only 1
    path = tmp_path / "m.model"
    _write_lines(
        path,
        ["morphseg-mdl v1 char_bits=5", "a\t0\t1", "ab\t1\t2", "b\t0\t2"],
    )
    with pytest.raises(MorphsegError):
        io.load_mdl_model(path)


def test_mdl_load_requires_char_bits(tmp_path):
    # save_mdl_model writes char_bits=5 and nothing else; any other header is refused
    path = tmp_path / "m.model"
    for params in [[], ["char_bits=4"], ["char_bits=6"], ["char_bits=1000000000"], ["char_bits"]]:
        _write_lines(path, [" ".join(["morphseg-mdl", "v1", *params]), "a\t0\t1"])
        with pytest.raises(MorphsegError, match=_params_refused(params, ["char_bits=5"])):
            io.load_mdl_model(path)


@pytest.mark.parametrize("char_bits", ["0", "-3"])
def test_mdl_load_rejects_non_positive_char_bits(tmp_path, char_bits):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=" + char_bits, "a\t0\t1"])
    with pytest.raises(MorphsegError, match="char_bits"):
        io.load_mdl_model(path)


_CHARS_33 = "abcdefghijklmnopqrstuvwxyz'-åäöüé"


@pytest.mark.parametrize(
    "char_bits, chunks",
    [
        ("1", ["abc", "xyz"]),
        ("2", ["abc", "xyz"]),
        ("3", ["abc", "xyz"]),
        ("1", ["ab", "ba"]),
        ("2", ["abcd", "e"]),
        ("5", sorted(_CHARS_33[:32])),  # as many characters as 5 bits can code
        ("5", sorted(_CHARS_33)),
    ],
    ids=[
        "6-chars-1-bit", "6-chars-2-bits", "6-chars-3-bits", "2-chars-1-bit", "5-chars-2-bits",
        "32-chars-5-bits", "33-chars-5-bits",
    ],
)
def test_mdl_load_rejects_characters_char_bits_cannot_code(tmp_path, char_bits, chunks):
    # the rule train applies to the alphabet; a model an earlier version wrote
    # at another char_bits is refused whatever its characters
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=" + char_bits] + [c + "\t0\t1" for c in chunks])
    if char_bits != "5":
        refused = _params_refused(["char_bits=" + char_bits], ["char_bits=5"])
        with pytest.raises(MorphsegError, match=refused):
            io.load_mdl_model(path)
    elif len(chunks) <= 32:
        assert sorted(io.load_mdl_model(path).chunks) == chunks
    else:
        message = "m.model: model has 33 characters; 5 bits per character can code only 32"
        with pytest.raises(MorphsegError, match=message):
            io.load_mdl_model(path)


@pytest.mark.parametrize("n_chars", [32, 33])
@pytest.mark.parametrize("kind", ["mdl", "ml"])
def test_writers_refuse_a_model_the_loaders_refuse(tmp_path, kind, n_chars):
    word = _CHARS_33[:n_chars]
    if kind == "mdl":
        model = ChunkStore()
        model.process_word(word)  # fed directly, so no training call checked the characters
    else:
        model = MorphStats({word: 1})
    path = tmp_path / "m.model"
    if n_chars == 32:
        io.save_model(model, path)
        assert type(io.load_model(path)) is type(model)
    else:
        message = "model has 33 characters; 5 bits per character can code only 32"
        with pytest.raises(ValueError, match=message):
            io.save_model(model, path)
        assert not path.exists()


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
    stats = MorphStats({"ab": 3, "c": 2}, {"ab": 2, "c": 1})
    io.save_ml_model(stats, path)
    loaded = io.load_ml_model(path)
    assert loaded.counts == stats.counts
    assert loaded.total == stats.total
    assert loaded.type_usage == {}


def test_ml_load_checks_total(tmp_path):
    path = tmp_path / "m.model"
    # the counts sum to 5, the total save_ml_model writes for them
    for params in [["total=9"], [], ["total=5.0"]]:
        _write_lines(path, [" ".join(["morphseg-ml", "v1", *params]), "a\t3", "b\t2"])
        with pytest.raises(MorphsegError, match=_params_refused(params, ["total=5"])):
            io.load_ml_model(path)


@pytest.mark.parametrize(
    "load, lines, what",
    [
        (io.load_word_counts, ["morphseg-counts v1", "a b\t3"], "word 'a b'"),
        (io.load_ml_model, ["morphseg-ml v1 total=3", "a b\t3"], "morph 'a b'"),
        (io.load_mdl_model, ["morphseg-mdl v1 char_bits=5", "a b\t0\t3"], "chunk 'a b'"),
        (io.load_segmentation, ["morphseg-seg v1", "\xa0x\t\xa0x"], "word '\\xa0x'"),
    ],
    ids=["counts", "ml", "mdl", "seg"],
)
def test_loaders_refuse_a_key_that_is_not_one_word(tmp_path, load, lines, what):
    # every writer's keys are str.split() tokens: non-empty, without whitespace
    path = tmp_path / "f"
    _write_lines(path, lines)
    with pytest.raises(MorphsegError, match=re.escape("f line 2: invalid record: %s is not one word" % what)):
        load(path)


def test_ml_load_rejects_bad_records(tmp_path):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-ml v1 total=1", "a\tone"])
    with pytest.raises(MorphsegError, match="line 2"):
        io.load_ml_model(path)
    _write_lines(path, ["morphseg-ml v1 total=2", "a\t1", "a\t1"])
    with pytest.raises(MorphsegError, match="duplicate"):
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
    with pytest.raises(MorphsegError, match="concatenate"):
        io.load_segmentation(path)


def test_segmentation_rejects_empty_morphs_and_duplicates(tmp_path):
    path = tmp_path / "s.tsv"
    _write_lines(path, ["morphseg-seg v1", "cats\tcats "])
    with pytest.raises(MorphsegError):
        io.load_segmentation(path)
    _write_lines(path, ["morphseg-seg v1", "cats\tcats", "cats\tcat s"])
    with pytest.raises(MorphsegError, match="duplicate"):
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


# -- counts, curves, sniffing ---------------------------------------------------


def test_word_counts_roundtrip(tmp_path):
    path = tmp_path / "c.tsv"
    counts = {"cats": 7, "dog": 1}
    io.save_word_counts(counts, path)
    assert io.load_word_counts(path) == counts


def test_word_counts_rejects_bad_count(tmp_path):
    path = tmp_path / "c.tsv"
    _write_lines(path, ["morphseg-counts v1", "cats\tmany"])
    with pytest.raises(MorphsegError):
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
    with pytest.raises(MorphsegError, match=message):
        io.load_word_counts(path)


def test_cost_curve_roundtrip(tmp_path):
    path = tmp_path / "curve.csv"
    curve = [(2000, 11.612648), (4000, 10.81), (5000, 10.128027379314801)]
    io.write_cost_curve(curve, path)  # no command reads it back; the text is the contract
    assert path.read_bytes() == (
        b"tokens_processed,avg_word_cost_bits\n2000,11.612648\n4000,10.81\n5000,10.128027379314801\n"
    )
    assert curve_rows(path) == curve


# forms int() reads that "%d" never writes: an underscore, a sign, blanks,
# a leading zero, a negative zero and non-ASCII digits
_NOT_D_FORMS = ["1_000", "+6", " 7", "7 ", "07", "-0", "\u0665"]


@pytest.mark.parametrize("form", _NOT_D_FORMS)
@pytest.mark.parametrize(
    "load, lines, message",
    [
        (io.load_word_counts, ["morphseg-counts v1", "cats\t%s"], "line 2: non-integer count"),
        (io.load_ml_model, ["morphseg-ml v1 total=5", "a\t%s"], "line 2: non-integer count"),
        (io.load_mdl_model, ["morphseg-mdl v1 char_bits=5", "a\t0\t%s"], "line 2: non-integer field"),
        (io.load_mdl_model, ["morphseg-mdl v1 char_bits=5", "a\t%s\t1"], "line 2: non-integer field"),
    ],
    ids=["counts", "ml-count", "mdl-count", "mdl-split"],
)
def test_loaders_read_integer_fields_only_as_save_writes_them(tmp_path, load, lines, message, form):
    path = tmp_path / "f"
    _write_lines(path, [lines[0], lines[1] % form])
    with pytest.raises(MorphsegError, match=message):
        load(path)


@pytest.mark.parametrize("value", ["+5", "0_5", "05", "\u0665"])
def test_model_headers_read_integers_only_as_save_writes_them(tmp_path, value):
    path = tmp_path / "m.model"
    _write_lines(path, ["morphseg-mdl v1 char_bits=" + value, "a\t0\t1"])
    with pytest.raises(MorphsegError, match=_params_refused(["char_bits=" + value], ["char_bits=5"])):
        io.load_mdl_model(path)
    _write_lines(path, ["morphseg-ml v1 total=" + value, "a\t5"])
    with pytest.raises(MorphsegError, match=_params_refused(["total=" + value], ["total=5"])):
        io.load_ml_model(path)


@pytest.mark.parametrize(
    "lines, load, expected",
    [
        (["morphseg-mdl v1 char_bits=5 char_bits=6", "a\t0\t1"], io.load_mdl_model, ["char_bits=5"]),
        (["morphseg-ml v1 total=1 total=1", "a\t1"], io.load_ml_model, ["total=1"]),
    ],
    ids=["mdl", "ml"],
)
def test_model_headers_reject_a_repeated_key(tmp_path, lines, load, expected):
    path = tmp_path / "m.model"
    _write_lines(path, lines)
    with pytest.raises(MorphsegError, match=_params_refused(lines[0].split(" ")[2:], expected)):
        load(path)


def test_write_records_without_a_path_writes_to_stdout(capsys, tmp_path, monkeypatch):
    io.write_records(None, ["morphseg-seg", "v1"], iter(["päivät\tpäivä t"]))
    assert capsys.readouterr().out == "morphseg-seg v1\npäivät\tpäivä t\n"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):  # "" is a path, and names no file; it is not None
        io.write_records("", ["morphseg-seg", "v1"], iter(["ab\tab"]))
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "start, line_end",
    [(b"", b"\n"), (b"", b"\r\n"), (b"", b"\r"), (codecs.BOM_UTF8, b"\n")],
    ids=["lf", "crlf", "cr", "bom"],
)
def test_reading_names_the_line_of_the_first_bad_byte(tmp_path, start, line_end):
    path = tmp_path / "words.txt"
    lines = [b"a", b"", "päivä".encode("utf-8"), b"b\xffc", b"\xfe"]
    path.write_bytes(start + line_end.join(lines))
    with pytest.raises(MorphsegError) as err:
        with io.reading(path) as f:
            f.read()
    assert str(err.value) == "%s line 4: not valid UTF-8" % path


def test_reading_passes_on_a_decode_error_the_file_does_not_cause(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("fine\n", encoding="utf-8")
    with pytest.raises(UnicodeDecodeError):
        with io.reading(path) as f:
            assert f.read() == "fine\n"
            b"\xff".decode("utf-8")


def test_sniff_format(tmp_path, tiny_corpus):
    mdl_path = tmp_path / "a.model"
    ml_path = tmp_path / "b.model"
    io.save_mdl_model(train_online(tiny_corpus, dream_interval=0), mdl_path)
    io.save_ml_model(MorphStats({"a": 1}), ml_path)
    assert io.sniff_format(mdl_path) == "morphseg-mdl"
    assert io.sniff_format(ml_path) == "morphseg-ml"


@pytest.mark.parametrize("kind", ["mdl", "ml"])
def test_save_model_and_load_model_round_trip_either_kind(tmp_path, tiny_corpus, kind):
    if kind == "mdl":
        model, save = train_online(tiny_corpus, dream_interval=4), io.save_mdl_model
    else:
        model, save = MorphStats({"cat": 2, "s": 3}, {"cat": 1, "s": 2}), io.save_ml_model
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
        with pytest.raises(MorphsegError, match="not a model file \\(header %r\\)" % header):
            io.load_model(path)


# -- headed files ------------------------------------------------------------


_HEADED_FILES = {
    "mdl": (
        io.save_mdl_model,
        io.load_mdl_model,
        lambda corpus: train_online(corpus, dream_interval=4),
    ),
    "ml": (io.save_ml_model, io.load_ml_model, lambda corpus: MorphStats({"cat": 3, "s": 2})),
    "seg": (
        io.save_segmentation,
        io.load_segmentation,
        lambda corpus: {"cats": ["cat", "s"], "dog": ["dog"]},
    ),
    "counts": (io.save_word_counts, io.load_word_counts, lambda corpus: corpus.type_counts),
}


@pytest.mark.parametrize(
    "kind, header",
    [
        pytest.param("mdl", "morphseg-mdl v1 char_bits=5", id="mdl-written"),
        pytest.param("mdl", "morphseg-mdl v1 char_bits=5 junk=1", id="mdl-extra-word"),
        pytest.param("mdl", "morphseg-mdl v1 junk=1 char_bits=5", id="mdl-extra-first-word"),
        pytest.param("mdl", "morphseg-mdl v1 char_bits=5 char_bits=5", id="mdl-repeated"),
        pytest.param("mdl", "morphseg-mdl v1", id="mdl-missing"),
        pytest.param("mdl", "morphseg-mdl v1 char_bits=05", id="mdl-respelled"),
        pytest.param("ml", "morphseg-ml v1 total=5", id="ml-written"),  # 3 + 2 morph tokens
        pytest.param("ml", "morphseg-ml v1 total=5 zz=9", id="ml-extra-word"),
        pytest.param("ml", "morphseg-ml v1 total=5 char_bits=5", id="ml-extra-mdl-word"),
        pytest.param("ml", "morphseg-ml v1 total=5 total=5", id="ml-repeated"),
        pytest.param("ml", "morphseg-ml v1", id="ml-missing"),
        pytest.param("ml", "morphseg-ml v1 total=+5", id="ml-respelled-sign"),
        pytest.param("ml", "morphseg-ml v1 total=5.0", id="ml-respelled-float"),
        pytest.param("seg", "morphseg-seg v1", id="seg-written"),
        pytest.param("seg", "morphseg-seg v1 foo=bar", id="seg-extra-word"),
        pytest.param("seg", "morphseg-seg v1 ", id="seg-extra-empty-word"),
        pytest.param("counts", "morphseg-counts v1", id="counts-written"),
        pytest.param("counts", "morphseg-counts v1 x=", id="counts-extra-word"),
        pytest.param("counts", "morphseg-counts v1 total=5", id="counts-extra-ml-word"),
    ],
)
def test_headed_files_load_only_under_the_header_their_writer_writes(tmp_path, tiny_corpus, kind, header):
    save, load, make = _HEADED_FILES[kind]
    path = tmp_path / "f"
    save(make(tiny_corpus), path)
    written, records = path.read_text(encoding="utf-8").split("\n", 1)
    if header == written:
        assert load(path)
        return
    path.write_text(header + "\n" + records, encoding="utf-8")
    refused = _params_refused(header.split(" ")[2:], written.split(" ")[2:])
    with pytest.raises(MorphsegError, match=refused):
        load(path)


@pytest.mark.parametrize(
    "start, line_end",
    [(b"", b"\r\n"), (b"", b"\r"), (codecs.BOM_UTF8, b"\n")],
    ids=["crlf", "cr", "bom"],
)
@pytest.mark.parametrize("kind", sorted(_HEADED_FILES))
def test_headed_loaders_read_crlf_files_as_lf_files(tmp_path, tiny_corpus, kind, start, line_end):
    save, load, make = _HEADED_FILES[kind]
    lf_path, other_path = tmp_path / "lf", tmp_path / "other"
    save(make(tiny_corpus), lf_path)
    lf_bytes = lf_path.read_bytes()
    assert b"\r" not in lf_bytes
    other_path.write_bytes(start + lf_bytes.replace(b"\n", line_end))
    assert load(other_path) == load(lf_path)
