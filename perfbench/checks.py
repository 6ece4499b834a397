"""Output checks for the benchmark's workload processes.

Each check returns a list of problems; a process with any problem, a
non-zero exit code included, is a failed op.
"""

from morphseg import io, report
from morphseg.errors import MorphsegError

COMPARE_ARTIFACTS = (
    "rec_mdl.model",
    "seq_ml.model",
    "rec_mdl.train_seg.tsv",
    "rec_mdl.test_seg.tsv",
    "seq_ml.train_seg.tsv",
    "seq_ml.test_seg.tsv",
    "report.json",
)
METHODS = ("rec-mdl", "seq-ml")


def check_exit(code):
    return [] if code == 0 else ["exit code %d" % code]


def check_segmentation(path, types):
    """The file loads with io.load_segmentation and covers every type."""
    try:
        segmentation = io.load_segmentation(path)
    except (OSError, MorphsegError) as exc:
        return ["%s: %s" % (path.name, exc)]
    missing = len(set(types) - segmentation.keys())
    return ["%s: %d types not segmented" % (path.name, missing)] if missing else []


def check_segment_output(path, words):
    """``morphseg segment`` output: one line per input word, in order, in
    the segmentation format (repeated words make it unfit for
    io.load_segmentation, which rejects duplicates)."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        return ["%s: %s" % (path.name, exc)]
    header = " ".join([io.SEG_FORMAT, io.VERSION])
    if lines[0] != header or lines[-1] != "":
        return ["%s: bad header or unterminated last line" % path.name]
    body = lines[1:-1]
    if len(body) != len(words):
        return ["%s: %d lines for %d words" % (path.name, len(body), len(words))]
    for lineno, (line, word) in enumerate(zip(body, words), start=2):
        fields = line.split("\t")
        morphs = fields[-1].split(" ")
        if len(fields) != 2 or fields[0] != word or not all(morphs) or "".join(morphs) != word:
            return ["%s line %d: bad segmentation of %r" % (path.name, lineno, word)]
    return []


def check_model(path):
    """A rec-mdl model loads and passes check_integrity()."""
    try:
        io.load_mdl_model(path).check_integrity()
    except (OSError, MorphsegError) as exc:
        return ["%s: %s" % (path.name, exc)]
    return []


def read_report(path):
    """report.json as {method: MetricsReport}; raises ValueError unless it
    holds exactly one row per method."""
    try:
        rows = report.read_metrics(path)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed report row: %s" % exc) from None
    methods = sorted(row.method for row in rows)
    if methods != sorted(METHODS):
        raise ValueError("report rows are %r" % (methods,))
    return {row.method: row for row in rows}


def check_report(path):
    try:
        read_report(path)
    except (OSError, ValueError) as exc:
        return ["%s: %s" % (path.name, exc)]
    return []


def check_compare(out_dir, train_types, test_types):
    problems = []
    for method in ("rec_mdl", "seq_ml"):
        problems += check_segmentation(out_dir / ("%s.train_seg.tsv" % method), train_types)
        problems += check_segmentation(out_dir / ("%s.test_seg.tsv" % method), test_types)
    problems += check_model(out_dir / "rec_mdl.model")
    problems += check_report(out_dir / "report.json")
    return problems


def model_mismatch_bits(out_dir):
    """How far report.json's rec-mdl total bits are from the saved model's."""
    reported = read_report(out_dir / "report.json")["rec-mdl"].total_cost_bits
    saved = report.build_report(io.load_mdl_model(out_dir / "rec_mdl.model"))
    return abs(reported - saved.total_cost_bits)
