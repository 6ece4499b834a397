"""Comparison metrics for trained models.

Both methods are reported under the same cost yardstick: corpus bits plus
per-character codebook bits. For the ML method that yardstick differs from
its own training objective (which has no codebook term), so its row is
flagged with a footnote in formatted output.
"""

import dataclasses
import json

from . import io
from .mdl import ChunkStore, cost_bits
from .ml import MorphStats

ML_FOOTNOTE = (
    "cost includes codebook bits the maximum-likelihood objective does not "
    "optimize; the comparison favors the recursive MDL method"
)


@dataclasses.dataclass
class MetricsReport:
    method: str
    total_cost_bits: float
    corpus_cost_bits: float
    codebook_cost_bits: float
    codebook_morphs: int
    relative_codebook_cost: float
    alignment_distance_bits: float = None
    unseen_pair_pct: float = None
    cost_footnote: bool = False

    def to_record(self):
        """JSON-ready dict of the fields, without the alignment fields of a
        model that was not evaluated."""
        record = dataclasses.asdict(self)
        if self.alignment_distance_bits is None:
            del record["alignment_distance_bits"], record["unseen_pair_pct"]
        return record


def build_report(model, evaluation=None):
    """MetricsReport for a trained ChunkStore or MorphStats."""
    if isinstance(model, ChunkStore):
        method, counts = "rec-mdl", dict(model.iter_morphs())
    elif isinstance(model, MorphStats):
        method, counts = "seq-ml", model.counts
    else:
        raise TypeError("unsupported model type: %r" % type(model).__name__)
    corpus, codebook = cost_bits(counts)
    total = corpus + codebook
    return MetricsReport(
        method=method,
        total_cost_bits=total,
        corpus_cost_bits=corpus,
        codebook_cost_bits=codebook,
        codebook_morphs=len(counts),
        relative_codebook_cost=codebook / total if total else 0.0,
        alignment_distance_bits=(
            evaluation.alignment_distance_bits if evaluation else None
        ),
        unseen_pair_pct=evaluation.unseen_pair_pct if evaluation else None,
        cost_footnote=method == "seq-ml",
    )


def write_metrics(reports, path):
    """One JSON object per line, deterministic (sorted keys)."""
    io.write_lines(path, (json.dumps(r.to_record(), sort_keys=True) for r in reports))


def read_metrics(path):
    with io.reading(path) as f:
        return [MetricsReport(**json.loads(line)) for line in f if line.strip()]


# label, field, format, scale applied to the value before formatting
_ROWS = (
    ("Total cost [bits]", "total_cost_bits", "%.1f", 1),
    ("Corpus cost [bits]", "corpus_cost_bits", "%.1f", 1),
    ("Codebook cost [bits]", "codebook_cost_bits", "%.1f", 1),
    ("Morphs in codebook", "codebook_morphs", "%d", 1),
    ("Relative codebook cost", "relative_codebook_cost", "%.2f%%", 100.0),
    ("Alignment distance [bits]", "alignment_distance_bits", "%.1f", 1),
    ("Unseen aligned pairs", "unseen_pair_pct", "%.2f%%", 1),
)

_TITLES = {"rec-mdl": "Rec. MDL", "seq-ml": "Seq. ML"}


def format_comparison(reports):
    """Aligned text table, one column per method."""
    headers = [_TITLES.get(r.method, r.method) for r in reports]
    rows = []
    for name, attr, fmt, scale in _ROWS:
        values = [getattr(r, attr) for r in reports]
        if all(v is None for v in values):
            continue
        cells = []
        for report, value in zip(reports, values):
            cell = "-" if value is None else fmt % (scale * value)
            if attr == "total_cost_bits" and report.cost_footnote:
                cell += " *"
            cells.append(cell)
        rows.append((name, cells))
    rows.insert(0, ("", headers))
    name_w = max(len(name) for name, _ in rows)
    col_w = [max(len(cells[i]) for _, cells in rows) for i in range(len(headers))]
    lines = [
        "  ".join(["%-*s" % (name_w, name)] + ["%*s" % (w, c) for w, c in zip(col_w, cells)])
        for name, cells in rows
    ]
    if any(r.cost_footnote for r in reports):
        lines.append("* " + ML_FOOTNOTE)
    return "\n".join(lines)
