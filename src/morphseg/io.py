"""Versioned, deterministic file formats for models and results.

All files are UTF-8 with LF line endings: one header line naming the
format, version and parameters, then sorted TSV records. A header other
than its writer's, word for word, fails the load without partial state.

    morphseg-mdl v1 char_bits=5       text<TAB>split<TAB>count
    morphseg-ml v1 total=<N>          morph<TAB>count
    morphseg-seg v1                   word<TAB>morph1 morph2 ...

Every file morphseg writes goes through ``output``, and every file it
reads through ``reading``; every headed file it reads, through ``_load``.
The cost curve, a CSV file, is written only.
"""

import contextlib
import itertools
import sys

from .errors import ModelFormatError, MorphsegError
from .mdl import CHAR_BITS, ChunkStore, Chunk, check_codable
from .ml import MorphStats

MDL_FORMAT = "morphseg-mdl"
ML_FORMAT = "morphseg-ml"
SEG_FORMAT = "morphseg-seg"
COUNTS_FORMAT = "morphseg-counts"
VERSION = "v1"
CURVE_HEADER = "tokens_processed,avg_word_cost_bits"
MDL_PARAMS = ["char_bits=%d" % CHAR_BITS]  # what save_mdl_model writes, all load_mdl_model reads


@contextlib.contextmanager
def output(path):
    """The file at path, opened for UTF-8 text with LF line ends, or stdout
    when path is None."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        yield f


@contextlib.contextmanager
def reading(path):
    """The file at path, opened for UTF-8 text with universal newlines; a
    leading byte-order mark is dropped. A UnicodeDecodeError out of the body
    becomes a MorphsegError naming the line of the file's first byte that is
    not UTF-8, or passes if the file has none."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            yield f
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:  # bytes.splitlines splits as universal newlines do
                line = len((data[: exc.start] + b".").splitlines())
                raise MorphsegError("%s line %d: not valid UTF-8" % (path, line)) from None
            raise


def write_lines(path, lines):
    """Each line, LF-terminated, as lines yields it, to output(path)."""
    with output(path) as f:
        for line in lines:
            f.write(line + "\n")


def write_records(path, header_parts, records):
    """The header line, then one line per record as records yields it, to output(path)."""
    write_lines(path, itertools.chain([" ".join(header_parts)], records))


def _load(path, fmt, n_fields, what, parse, params=lambda table: []):
    """The dict of the (key, value) pairs parse(path, lineno, *fields) makes
    of the records of the fmt file at path. Checked in this order: the
    format, the version, then each record in file order (n_fields TAB
    fields, parse, a key that is one word, not seen before), then the
    header's remaining words, which must be params(table) word for word."""
    with reading(path) as f:
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ModelFormatError("%s: empty file" % (path,))
    head = lines[0].split(" ")
    if head[0] != fmt:
        raise ModelFormatError("%s: expected a %s file, found %r" % (path, fmt, lines[0]))
    if len(head) < 2 or head[1] != VERSION:
        raise ModelFormatError("%s: unsupported %s version %r" % (path, fmt, lines[0]))
    table = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ModelFormatError("%s line %d: expected %d fields" % (path, lineno, n_fields))
        key, value = parse(path, lineno, *fields)
        if key.split() != [key]:  # every writer's keys are str.split() tokens
            raise ModelFormatError(
                "%s line %d: invalid record: %s %r is not one word" % (path, lineno, what, key)
            )
        if key in table:
            raise ModelFormatError("%s line %d: duplicate %s %r" % (path, lineno, what, key))
        table[key] = value
    expected = params(table)
    if head[2:] != expected:
        raise ModelFormatError("%s: header parameters %r, expected %r" % (path, head[2:], expected))
    return table


def _int(text):
    """int(text) if text is in the %d form save_* writes, else ValueError."""
    if str(int(text)) != text:  # int() also reads "+6", " 7", "1_000" and non-ASCII digits
        raise ValueError(text)
    return int(text)


def _count(path, lineno, key, count_s):
    """A key<TAB>count record: count at least 1."""
    try:
        count = _int(count_s)
    except ValueError:
        raise ModelFormatError("%s line %d: non-integer count" % (path, lineno)) from None
    if count < 1:
        raise ModelFormatError("%s line %d: invalid record" % (path, lineno))
    return key, count


def sniff_format(path):
    with reading(path) as f:
        first = f.readline().rstrip("\n")
    return first.split(" ", 1)[0]


def load_model(path):
    """The model in the file at path, of the kind its header names."""
    kind = sniff_format(path)
    if kind == MDL_FORMAT:
        return load_mdl_model(path)
    if kind == ML_FORMAT:
        return load_ml_model(path)
    raise ModelFormatError("%s: not a model file (header %r)" % (path, kind))


def save_model(model, path):
    """A ChunkStore in the rec-mdl format, a MorphStats in the seq-ml one."""
    if isinstance(model, ChunkStore):
        save_mdl_model(model, path)
    else:
        save_ml_model(model, path)


# -- recursive MDL models ------------------------------------------------


def save_mdl_model(store, path):
    check_codable("model", store.chunks)  # load_mdl_model refuses it; no file is made
    records = (
        "%s\t%d\t%d" % (c.text, c.split, c.count)
        for c in (store.chunks[t] for t in sorted(store.chunks))
    )
    write_records(path, [MDL_FORMAT, VERSION, *MDL_PARAMS], records)


def load_mdl_model(path):
    def parse(path, lineno, text, split_s, count_s):
        try:
            split, count = _int(split_s), _int(count_s)
        except ValueError:
            raise ModelFormatError("%s line %d: non-integer field" % (path, lineno)) from None
        if count < 1 or not 0 <= split < len(text):
            raise ModelFormatError("%s line %d: invalid record" % (path, lineno))
        return text, Chunk(text, count, split)

    chunks = _load(path, MDL_FORMAT, 3, "chunk", parse, lambda chunks: MDL_PARAMS)
    if not chunks:
        raise ModelFormatError("%s: no chunk records" % (path,))
    try:
        check_codable("model", chunks)
        return ChunkStore.from_chunks(chunks)
    except (MorphsegError, ValueError) as exc:
        raise ModelFormatError("%s: %s" % (path, exc)) from None


def _ml_params(counts):
    """What save_ml_model writes for counts, all load_ml_model reads for them."""
    return ["total=%d" % sum(counts.values())]


def save_ml_model(stats, path):
    check_codable("model", stats.counts)  # load_ml_model refuses it; no file is made
    records = ("%s\t%d" % (m, stats.counts[m]) for m in sorted(stats.counts))
    write_records(path, [ML_FORMAT, VERSION, *_ml_params(stats.counts)], records)


def load_ml_model(path):
    counts = _load(path, ML_FORMAT, 2, "morph", _count, _ml_params)
    if not counts:
        raise ModelFormatError("%s: no morph records" % (path,))
    try:
        check_codable("model", counts)
    except ValueError as exc:
        raise ModelFormatError("%s: %s" % (path, exc)) from None
    # per-type usage is not part of the interchange format; loaded models
    # serve segmentation, training rebuilds usage from scratch
    return MorphStats(counts)


# -- segmentations -------------------------------------------------------


def save_segmentation(segmentation, path):
    records = ("%s\t%s" % (word, " ".join(segmentation[word])) for word in sorted(segmentation))
    write_records(path, [SEG_FORMAT, VERSION], records)


def load_segmentation(path):
    def parse(path, lineno, word, morph_field):
        morphs = morph_field.split(" ")
        if not all(morphs):
            raise ModelFormatError("%s line %d: empty word or morph" % (path, lineno))
        if "".join(morphs) != word:
            raise ModelFormatError(
                "%s line %d: morphs do not concatenate to %r" % (path, lineno, word)
            )
        return word, morphs

    return _load(path, SEG_FORMAT, 2, "word", parse)


# -- word counts, cost curves --------------------------------------------


def save_word_counts(type_counts, path):
    records = ("%s\t%d" % (w, type_counts[w]) for w in sorted(type_counts))
    write_records(path, [COUNTS_FORMAT, VERSION], records)


def load_word_counts(path):
    return _load(path, COUNTS_FORMAT, 2, "word", _count)


def write_cost_curve(curve, path):
    rows = ("%d,%s" % (tokens, repr(avg)) for tokens, avg in curve)
    write_records(path, [CURVE_HEADER], rows)
