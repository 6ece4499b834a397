"""Comparison metrics for trained models.

Both methods are reported under the same cost yardstick: corpus bits plus
per-character codebook bits. For the ML method that yardstick differs from
its own training objective (which has no codebook term), so its row is
flagged with a footnote in formatted output.
"""

import dataclasses
import json

from . import io
from .mdl import ChunkStore, MdlCost
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
    wall_time_sec: float = None
    cost_footnote: bool = False

    def to_record(self):
        """JSON-ready dict of the fields, without the timing, which varies
        between otherwise identical runs, and without the alignment fields
        of a model that was not evaluated."""
        record = dataclasses.asdict(self)
        del record["wall_time_sec"]
        if self.alignment_distance_bits is None:
            del record["alignment_distance_bits"], record["unseen_pair_pct"]
        return record

    @classmethod
    def from_record(cls, record):
        return cls(**record)


def build_report(model, evaluation=None, wall_time=None, char_bits=5):
    """MetricsReport for a trained ChunkStore or MorphStats.

    char_bits prices the codebook of a MorphStats; a ChunkStore carries
    its own.
    """
    if isinstance(model, ChunkStore):
        method = "rec-mdl"
        cost = model.total_cost()
        morphs = model.codebook_size()
    elif isinstance(model, MorphStats):
        method = "seq-ml"
        cost = MdlCost.of(model.counts, char_bits)
        morphs = len(model.counts)
    else:
        raise TypeError("unsupported model type: %r" % type(model).__name__)
    total = cost.total_bits
    return MetricsReport(
        method=method,
        total_cost_bits=total,
        corpus_cost_bits=cost.corpus_bits,
        codebook_cost_bits=cost.codebook_bits,
        codebook_morphs=morphs,
        relative_codebook_cost=cost.codebook_bits / total if total else 0.0,
        alignment_distance_bits=(
            evaluation.alignment_distance_bits if evaluation else None
        ),
        unseen_pair_pct=evaluation.unseen_pair_pct if evaluation else None,
        wall_time_sec=wall_time,
        cost_footnote=isinstance(model, MorphStats),
    )


def write_metrics(reports, path):
    """One JSON object per line, deterministic (sorted keys, no timing)."""
    io.write_lines(path, (json.dumps(r.to_record(), sort_keys=True) for r in reports))


def read_metrics(path):
    with open(path, encoding="utf-8") as f:
        return [MetricsReport.from_record(json.loads(line)) for line in f if line.strip()]


_ROWS = (
    ("Total cost [bits]", "total_cost_bits", "%.1f"),
    ("Corpus cost [bits]", "corpus_cost_bits", "%.1f"),
    ("Codebook cost [bits]", "codebook_cost_bits", "%.1f"),
    ("Morphs in codebook", "codebook_morphs", "%d"),
    ("Relative codebook cost", "relative_codebook_cost", None),
    ("Alignment distance [bits]", "alignment_distance_bits", "%.1f"),
    ("Unseen aligned pairs", "unseen_pair_pct", None),
    ("Time [sec]", "wall_time_sec", "%.1f"),
)

_TITLES = {"rec-mdl": "Rec. MDL", "seq-ml": "Seq. ML"}


def format_comparison(reports):
    """Aligned text table, one column per method."""
    headers = [_TITLES.get(r.method, r.method) for r in reports]
    rows = []
    for name, attr, fmt in _ROWS:
        values = [getattr(r, attr) for r in reports]
        if all(v is None for v in values):
            continue
        cells = []
        for report, value in zip(reports, values):
            if value is None:
                cell = "-"
            elif attr == "relative_codebook_cost":
                cell = "%.2f%%" % (100.0 * value)
            elif attr == "unseen_pair_pct":
                cell = "%.2f%%" % value
            else:
                cell = fmt % value
            if attr == "total_cost_bits" and report.cost_footnote:
                cell += " *"
            cells.append(cell)
        rows.append((name, cells))
    name_w = max(len(r[0]) for r in rows)
    col_w = [
        max(len(h), max(len(r[1][i]) for r in rows)) for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(
            ["%-*s" % (name_w, "")] + ["%*s" % (col_w[i], h) for i, h in enumerate(headers)]
        )
    ]
    for name, cells in rows:
        lines.append(
            "  ".join(
                ["%-*s" % (name_w, name)]
                + ["%*s" % (col_w[i], c) for i, c in enumerate(cells)]
            )
        )
    if any(r.cost_footnote for r in reports):
        lines.append("* " + ML_FOOTNOTE)
    return "\n".join(lines)
