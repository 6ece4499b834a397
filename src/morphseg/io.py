"""Versioned, deterministic file formats for models and results.

All files are UTF-8 with LF line endings: one header line naming the
format, version, and scalar parameters, then sorted TSV records. Loading
a file with an unknown format or version fails without partial state.

    morphseg-mdl v1 char_bits=<k>     text<TAB>split<TAB>count
    morphseg-ml v1 total=<N>          morph<TAB>count
    morphseg-seg v1                   word<TAB>morph1 morph2 ...
    morphseg-dist v1 max_distance=<d> morph<TAB>label<TAB>bits
"""

import logging

from .errors import ModelFormatError, MorphsegError
from .mdl import ChunkStore, Chunk
from .ml import MorphStats
from .align import DistanceTable

_logger = logging.getLogger(__name__)

MDL_FORMAT = "morphseg-mdl"
ML_FORMAT = "morphseg-ml"
SEG_FORMAT = "morphseg-seg"
DIST_FORMAT = "morphseg-dist"
VERSION = "v1"


def _write(path, header_parts, records):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_records(f, header_parts, records)


def write_records(f, header_parts, records):
    """Write the header line, then one line per record as records yields it."""
    f.write(" ".join(header_parts) + "\n")
    for record in records:
        f.write(record + "\n")


def _read(path, expected_format):
    """Header params and body lines of a model file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
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
    return params, lines[1:]


def _parse_counts(path, body, key_name):
    """key<TAB>count records: keys non-empty and unique, counts at least 1."""
    counts = {}
    for lineno, line in enumerate(body, start=2):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ModelFormatError("%s line %d: expected 2 fields" % (path, lineno))
        key, count_s = fields
        try:
            count = int(count_s)
        except ValueError:
            raise ModelFormatError("%s line %d: non-integer count" % (path, lineno)) from None
        if not key or count < 1:
            raise ModelFormatError("%s line %d: invalid record" % (path, lineno))
        if key in counts:
            raise ModelFormatError(
                "%s line %d: duplicate %s %r" % (path, lineno, key_name, key)
            )
        counts[key] = count
    return counts


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
    _write(path, [MDL_FORMAT, VERSION, "char_bits=%d" % store.char_bits], records)


def load_mdl_model(path):
    params, body = _read(path, MDL_FORMAT)
    try:
        char_bits = int(params["char_bits"])
    except (KeyError, ValueError):
        char_bits = 0
    if char_bits < 1:
        raise ModelFormatError("%s: missing or bad char_bits" % (path,))
    chunks = {}
    for lineno, line in enumerate(body, start=2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ModelFormatError("%s line %d: expected 3 fields" % (path, lineno))
        text, split_s, count_s = fields
        try:
            split, count = int(split_s), int(count_s)
        except ValueError:
            raise ModelFormatError("%s line %d: non-integer field" % (path, lineno)) from None
        if not text or count < 1 or not 0 <= split < len(text):
            raise ModelFormatError("%s line %d: invalid record" % (path, lineno))
        if text in chunks:
            raise ModelFormatError("%s line %d: duplicate chunk %r" % (path, lineno, text))
        chunks[text] = Chunk(text, count, split)
    try:
        return ChunkStore.from_chunks(chunks, char_bits)
    except MorphsegError as exc:
        raise ModelFormatError("%s: %s" % (path, exc)) from None


def save_ml_model(stats, path):
    records = ("%s\t%d" % (m, stats.counts[m]) for m in sorted(stats.counts))
    _write(path, [ML_FORMAT, VERSION, "total=%d" % stats.total], records)


def load_ml_model(path):
    params, body = _read(path, ML_FORMAT)
    try:
        total = int(params["total"])
    except (KeyError, ValueError):
        raise ModelFormatError("%s: missing or bad total" % (path,)) from None
    counts = _parse_counts(path, body, "morph")
    if sum(counts.values()) != total:
        raise ModelFormatError("%s: counts sum to %d, header says %d" % (path, sum(counts.values()), total))
    # per-type usage is not part of the interchange format; loaded models
    # serve segmentation, training rebuilds usage from scratch
    return MorphStats(counts, total, {})


# -- segmentations -------------------------------------------------------


def save_segmentation(segmentation, path):
    records = []
    for word in sorted(segmentation):
        morphs = segmentation[word]
        records.append("%s\t%s" % (word, " ".join(morphs)))
    _write(path, [SEG_FORMAT, VERSION], records)


def load_segmentation(path):
    _, body = _read(path, SEG_FORMAT)
    segmentation = {}
    for lineno, line in enumerate(body, start=2):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ModelFormatError("%s line %d: expected 2 fields" % (path, lineno))
        word, morph_field = fields
        morphs = morph_field.split(" ")
        if not word or not all(morphs):
            raise ModelFormatError("%s line %d: empty word or morph" % (path, lineno))
        if "".join(morphs) != word:
            raise ModelFormatError(
                "%s line %d: morphs do not concatenate to %r" % (path, lineno, word)
            )
        if word in segmentation:
            raise ModelFormatError("%s line %d: duplicate word %r" % (path, lineno, word))
        segmentation[word] = morphs
    return segmentation


# -- distance tables -----------------------------------------------------


def save_distance_table(table, path):
    records = (
        "%s\t%s\t%s" % (m, l, repr(d))
        for (m, l), d in sorted(table.distances.items())
    )
    _write(path, [DIST_FORMAT, VERSION, "max_distance=%s" % repr(table.max_distance)], records)


def load_distance_table(path):
    params, body = _read(path, DIST_FORMAT)
    try:
        max_distance = float(params["max_distance"])
    except (KeyError, ValueError):
        raise ModelFormatError("%s: missing or bad max_distance" % (path,)) from None
    distances = {}
    for lineno, line in enumerate(body, start=2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ModelFormatError("%s line %d: expected 3 fields" % (path, lineno))
        morph, label, dist_s = fields
        try:
            dist = float(dist_s)
        except ValueError:
            raise ModelFormatError("%s line %d: bad distance" % (path, lineno)) from None
        distances[(morph, label)] = dist
    return DistanceTable(distances, max_distance)


# -- word counts, curves, metrics -----------------------------------------


def save_word_counts(type_counts, path):
    records = ("%s\t%d" % (w, type_counts[w]) for w in sorted(type_counts))
    _write(path, ["morphseg-counts", VERSION], records)


def load_word_counts(path):
    _, body = _read(path, "morphseg-counts")
    return _parse_counts(path, body, "word")


def write_cost_curve(curve, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("tokens_processed,avg_word_cost_bits\n")
        for tokens, avg in curve:
            f.write("%d,%s\n" % (tokens, repr(avg)))


def read_cost_curve(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "tokens_processed,avg_word_cost_bits":
        raise ModelFormatError("%s: not a cost-curve file" % (path,))
    out = []
    for line in lines[1:]:
        tokens_s, avg_s = line.split(",")
        out.append((int(tokens_s), float(avg_s)))
    return out
