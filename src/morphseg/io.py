"""Versioned, deterministic file formats for models and results.

All files are UTF-8 with LF line endings: one header line naming the
format, version, and scalar parameters, then sorted TSV records. Loading
a file with an unknown format or version fails without partial state.

    morphseg-mdl v1 char_bits=<k>     text<TAB>split<TAB>count
    morphseg-ml v1 total=<N>          morph<TAB>count
    morphseg-seg v1                   word<TAB>morph1 morph2 ...
    morphseg-dist v1 max_distance=<d> morph<TAB>label<TAB>bits

Every file morphseg writes goes through ``output``.
"""

import contextlib
import itertools
import math
import sys

from .errors import ModelFormatError, MorphsegError
from .mdl import ChunkStore, Chunk
from .ml import MorphStats
from .align import DistanceTable

MDL_FORMAT = "morphseg-mdl"
ML_FORMAT = "morphseg-ml"
SEG_FORMAT = "morphseg-seg"
DIST_FORMAT = "morphseg-dist"
COUNTS_FORMAT = "morphseg-counts"
VERSION = "v1"
CURVE_HEADER = "tokens_processed,avg_word_cost_bits"


@contextlib.contextmanager
def output(path):
    """The file at path, opened for UTF-8 text with LF line ends, or stdout
    when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        yield f


def write_lines(path, lines):
    """Each line, LF-terminated, as lines yields it, to output(path)."""
    with output(path) as f:
        for line in lines:
            f.write(line + "\n")


def write_records(path, header_parts, records):
    """The header line, then one line per record as records yields it, to output(path)."""
    write_lines(path, itertools.chain([" ".join(header_parts)], records))


def _lines(path):
    """The lines of a text file, without the final line end."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _records(path, lines, n_fields, sep):
    """(line number, sep-separated fields) of each record; lines start at file line 2."""
    for lineno, line in enumerate(lines, start=2):
        fields = line.split(sep)
        if len(fields) != n_fields:
            raise ModelFormatError("%s line %d: expected %d fields" % (path, lineno, n_fields))
        yield lineno, fields


def _read(path, expected_format, n_fields):
    """Header params and the (line number, fields) records of a model file."""
    lines = _lines(path)
    if not lines:
        raise ModelFormatError("%s: empty file" % (path,))
    head = lines[0].split(" ")
    if head[0] != expected_format:
        raise ModelFormatError(
            "%s: expected a %s file, found %r" % (path, expected_format, lines[0])
        )
    if len(head) < 2 or head[1] != VERSION:
        raise ModelFormatError(
            "%s: unsupported %s version %r" % (path, expected_format, lines[0])
        )
    params = {}
    for part in head[2:]:
        if "=" not in part:
            raise ModelFormatError("%s: bad header parameter %r" % (path, part))
        key, value = part.split("=", 1)
        params[key] = value
    return params, _records(path, lines[1:], n_fields, "\t")


def _table(path, records, what, parse):
    """Dict of the (key, value) pairs parse(path, lineno, *fields) makes of
    each record; a key seen before is an error."""
    table = {}
    for lineno, fields in records:
        key, value = parse(path, lineno, *fields)
        if key in table:
            raise ModelFormatError("%s line %d: duplicate %s %r" % (path, lineno, what, key))
        table[key] = value
    return table


def _count(path, lineno, key, count_s):
    """A key<TAB>count record: key non-empty, count at least 1."""
    try:
        count = int(count_s)
    except ValueError:
        raise ModelFormatError("%s line %d: non-integer count" % (path, lineno)) from None
    if not key or count < 1:
        raise ModelFormatError("%s line %d: invalid record" % (path, lineno))
    return key, count


def sniff_format(path):
    with open(path, encoding="utf-8") as f:
        first = f.readline()
    return first.split(" ", 1)[0]


# -- recursive MDL models ------------------------------------------------


def save_mdl_model(store, path):
    records = (
        "%s\t%d\t%d" % (c.text, c.split, c.count)
        for c in (store.chunks[t] for t in sorted(store.chunks))
    )
    write_records(path, [MDL_FORMAT, VERSION, "char_bits=%d" % store.char_bits], records)


def load_mdl_model(path):
    params, records = _read(path, MDL_FORMAT, 3)
    try:
        char_bits = int(params["char_bits"])
    except (KeyError, ValueError):
        char_bits = 0
    if char_bits < 1:
        raise ModelFormatError("%s: missing or bad char_bits" % (path,))

    def parse(path, lineno, text, split_s, count_s):
        try:
            split, count = int(split_s), int(count_s)
        except ValueError:
            raise ModelFormatError("%s line %d: non-integer field" % (path, lineno)) from None
        if not text or count < 1 or not 0 <= split < len(text):
            raise ModelFormatError("%s line %d: invalid record" % (path, lineno))
        return text, Chunk(text, count, split)

    chunks = _table(path, records, "chunk", parse)
    try:
        return ChunkStore.from_chunks(chunks, char_bits)
    except MorphsegError as exc:
        raise ModelFormatError("%s: %s" % (path, exc)) from None


def save_ml_model(stats, path):
    records = ("%s\t%d" % (m, stats.counts[m]) for m in sorted(stats.counts))
    write_records(path, [ML_FORMAT, VERSION, "total=%d" % stats.total], records)


def load_ml_model(path):
    params, records = _read(path, ML_FORMAT, 2)
    try:
        total = int(params["total"])
    except (KeyError, ValueError):
        raise ModelFormatError("%s: missing or bad total" % (path,)) from None
    counts = _table(path, records, "morph", _count)
    if sum(counts.values()) != total:
        raise ModelFormatError("%s: counts sum to %d, header says %d" % (path, sum(counts.values()), total))
    # per-type usage is not part of the interchange format; loaded models
    # serve segmentation, training rebuilds usage from scratch
    return MorphStats(counts, total, {})


# -- segmentations -------------------------------------------------------


def save_segmentation(segmentation, path):
    records = ("%s\t%s" % (word, " ".join(segmentation[word])) for word in sorted(segmentation))
    write_records(path, [SEG_FORMAT, VERSION], records)


def load_segmentation(path):
    _, records = _read(path, SEG_FORMAT, 2)

    def parse(path, lineno, word, morph_field):
        morphs = morph_field.split(" ")
        if not word or not all(morphs):
            raise ModelFormatError("%s line %d: empty word or morph" % (path, lineno))
        if "".join(morphs) != word:
            raise ModelFormatError(
                "%s line %d: morphs do not concatenate to %r" % (path, lineno, word)
            )
        return word, morphs

    return _table(path, records, "word", parse)


# -- distance tables -----------------------------------------------------


def save_distance_table(table, path):
    records = (
        "%s\t%s\t%s" % (m, l, repr(d))
        for (m, l), d in sorted(table.distances.items())
    )
    write_records(path, [DIST_FORMAT, VERSION, "max_distance=%s" % repr(table.max_distance)], records)


def load_distance_table(path):
    params, records = _read(path, DIST_FORMAT, 3)
    try:
        max_distance = float(params["max_distance"])
    except (KeyError, ValueError):
        raise ModelFormatError("%s: missing or bad max_distance" % (path,)) from None

    def parse(path, lineno, morph, label, dist_s):
        try:
            dist = float(dist_s)
        except ValueError:
            raise ModelFormatError("%s line %d: bad distance" % (path, lineno)) from None
        if not morph or not label:
            raise ModelFormatError("%s line %d: empty morph or label" % (path, lineno))
        if not 0.0 <= dist < math.inf:  # also false for nan
            raise ModelFormatError(
                "%s line %d: distance must be finite and non-negative" % (path, lineno)
            )
        return (morph, label), dist

    return DistanceTable(_table(path, records, "pair", parse), max_distance)


# -- word counts, curves ----------------------------------------------------


def save_word_counts(type_counts, path):
    records = ("%s\t%d" % (w, type_counts[w]) for w in sorted(type_counts))
    write_records(path, [COUNTS_FORMAT, VERSION], records)


def load_word_counts(path):
    _, records = _read(path, COUNTS_FORMAT, 2)
    return _table(path, records, "word", _count)


def write_cost_curve(curve, path):
    rows = ("%d,%s" % (tokens, repr(avg)) for tokens, avg in curve)
    write_records(path, [CURVE_HEADER], rows)


def read_cost_curve(path):
    lines = _lines(path)
    if not lines or lines[0] != CURVE_HEADER:
        raise ModelFormatError("%s: not a cost-curve file" % (path,))
    out = []
    for lineno, (tokens_s, avg_s) in _records(path, lines[1:], 2, ","):
        try:
            out.append((int(tokens_s), float(avg_s)))
        except ValueError:
            raise ModelFormatError("%s line %d: bad row" % (path, lineno)) from None
    return out
