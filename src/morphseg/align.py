"""Scoring segmentations against reference morphological analyses.

A word's morphs are aligned with its reference labels by dynamic
programming over a grid that allows one-to-many and many-to-one pairings
while keeping both sides monotone and fully covered. The pairing distance
is d(M, L) = -log2 P(L | M) with conditionals estimated from token-weighted
co-alignment counts; alignments and distances are refined together EM-style
starting from a string-matching initialization. A frozen distance table
then scores held-out words, charging unseen pairs a maximal distance.
"""

import collections
import dataclasses
import logging
import math

from .errors import GoldParseError, MorphsegError

_logger = logging.getLogger(__name__)

_log2 = math.log2

DEFAULT_EXTRA_DISTANCE = 10.0
DEFAULT_EM_ITERS = 10
DEFAULT_EM_TOL = 1e-4


@dataclasses.dataclass(frozen=True)
class GoldEntry:
    """Reference labels of one word: base-form constituents then tags."""

    labels: tuple
    base_count: int


def parse_gold(lines, tag_filter=None, source="<gold>"):
    """Parse reference analyses from TSV lines.

    Line format: word, then tab, then base form (constituents joined by #)
    followed by space-separated tags. Tags absent from tag_filter are
    dropped (tag_filter None keeps everything). Words whose label list
    ends up empty are dropped with a warning.
    """
    gold = {}
    shared = {}  # label -> the one string object every entry uses for it
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GoldParseError(
                "%s line %d: expected word<TAB>analysis" % (source, lineno)
            )
        word, analysis = parts
        fields = analysis.split()
        if not word or not fields:
            raise GoldParseError("%s line %d: empty word or analysis" % (source, lineno))
        bases = [b for b in fields[0].split("#") if b]
        if not bases:
            raise GoldParseError("%s line %d: empty base form" % (source, lineno))
        tags = fields[1:]
        if tag_filter is not None:
            tags = [t for t in tags if t in tag_filter]
        labels = [shared.setdefault(label, label) for label in bases + tags]
        if word in gold:
            _logger.warning("%s line %d: duplicate analysis for %r kept first", source, lineno, word)
            continue
        gold[word] = GoldEntry(tuple(labels), len(bases))
    return gold


def load_gold(path, tag_filter=None):
    with open(path, encoding="utf-8") as f:
        return parse_gold(f, tag_filter, source=str(path))


def load_tag_filter(path):
    """Tags to keep, one per line."""
    with open(path, encoding="utf-8") as f:
        return {line.strip() for line in f if line.strip()}


@dataclasses.dataclass
class DistanceTable:
    """Pair distances in bits plus the charge for unseen pairs."""

    distances: dict  # (morph, label) -> bits
    max_distance: float

    def seen(self, morph, label):
        return (morph, label) in self.distances


def _align(costs):
    """Minimum-cost monotone path over a grid of pairing costs.

    costs[i][j] is the cost of pairing morph i with label j; every cell on
    the path is charged. Moves are diagonal, down (many-to-one) and right
    (one-to-many); ties prefer diagonal, then down. Returns (pairs, total),
    pairs being the path's (morph index, label index) cells in order.
    """
    inf = math.inf
    # scores of the row above, shifted one column right: the corner before
    # (0, 0) is free and every other cell outside the grid unreachable
    up = [0.0] + [inf] * len(costs[0])
    moves = []  # per cell: 1 diag, 2 down, 3 right
    for here in costs:
        row = [inf]
        row_moves = []
        for j, cost in enumerate(here):
            best = up[j]
            move = 1
            if up[j + 1] < best:
                best = up[j + 1]
                move = 2
            if row[j] < best:
                best = row[j]
                move = 3
            row.append(cost + best)
            row_moves.append(move)
        moves.append(row_moves)
        up = row
    i, j = len(costs) - 1, len(up) - 2
    pairs = [(i, j)]
    while i or j:
        move = moves[i][j]
        if move != 3:
            i -= 1
        if move != 2:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return pairs, up[-1]


def align_word(morphs, labels, table):
    """Minimum-distance alignment of morphs with labels.

    Returns (pairs, bits) where pairs is the ordered list of
    (morph index, label index) cells on the best path.
    """
    if not morphs or not labels:
        raise ValueError("both morphs and labels must be non-empty")
    get, unseen = table.distances.get, table.max_distance
    return _align([[get((m, label), unseen) for label in labels] for m in morphs])


def _common_substring_len(a, b):
    prev = [0] * (len(b) + 1)
    best = 0
    for ca in a:
        cur = [0] * (len(b) + 1)
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def _string_match_align(morphs, entry):
    """Initial alignment: maximize substring similarity to base labels.

    The pairing score of a morph with a base-form label is the length of
    their longest common substring (case-insensitive) over the longer
    length; pairings with tag labels score zero. The grid minimizes the
    negated scores, which picks the same path: IEEE rounding is symmetric
    in sign, so every sum and comparison is exactly mirrored.
    """
    bases = [label.casefold() for label in entry.labels[: entry.base_count]]
    tags = [0.0] * (len(entry.labels) - entry.base_count)
    costs = []
    for morph in morphs:
        a = morph.casefold()
        costs.append([-_common_substring_len(a, b) / max(len(a), len(b)) for b in bases] + tags)
    return _align(costs)[0]


def _tally(pair_counts, morphs, labels, pairs, weight):
    """Add one word's token-weighted pair counts from its alignment.

    A word token counts once toward c(M, L) for each distinct label L
    aligned with morph M in it.
    """
    for pair in {(morphs[i], labels[j]) for i, j in pairs}:
        pair_counts[pair] += weight


def check_max_distance(max_distance):
    """ValueError unless max_distance is None (derive it) or finite and non-negative."""
    if max_distance is not None and not 0.0 <= max_distance < math.inf:  # also false for nan
        raise ValueError("max distance must be finite and non-negative, got %r" % (max_distance,))


def _build_table(pair_counts, morph_counts, max_distance):
    distances = {}
    for (morph, label), c in pair_counts.items():
        c_m = morph_counts[morph]
        distances[(morph, label)] = 0.0 if c == c_m else _log2(c_m / c)
    observed = max(distances.values(), default=0.0)
    if max_distance is None:
        d_max = observed + DEFAULT_EXTRA_DISTANCE
    else:
        if max_distance < observed:
            raise MorphsegError(
                "max distance %.3f is below the largest observed distance %.3f"
                % (max_distance, observed)
            )
        d_max = max_distance
    return DistanceTable(distances, d_max)


def _scored_words(segmented, gold, token_counts):
    """The words of segmented, in order, that have a reference analysis.

    Raises MorphsegError for such a word without a token count, or when no
    word is left. Logs one warning with the number of words skipped.
    """
    words = [word for word in segmented if word in gold]
    for word in words:
        if word not in token_counts:
            raise MorphsegError("no token count for %r" % (word,))
    skipped = len(segmented) - len(words)
    if skipped:
        _logger.warning("%d words lacked reference analyses and were skipped", skipped)
    if not words:
        raise MorphsegError("no segmented word has a reference analysis")
    return words


def em_align(segmented, gold, token_counts, max_iters=DEFAULT_EM_ITERS, max_distance=None):
    """Fit a DistanceTable to segmented words with reference analyses.

    Alternates between estimating pair distances from the current
    alignments and realigning every word under the new distances, starting
    from string-matching alignments, until the token-weighted total
    distance improves by less than DEFAULT_EM_TOL relative or max_iters is
    reached. Unseen pairs cost the largest fitted distance plus
    DEFAULT_EXTRA_DISTANCE unless max_distance is given.
    Alignments are not kept: each word's new alignment is tallied into the
    pair counts of the next table as soon as it is found. A word token
    containing morph M counts once toward c(M), which no realignment
    changes. Words without a reference analysis are skipped, with one
    warning. Each realignment logs one INFO record with args (iteration,
    total bits).
    """
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    check_max_distance(max_distance)
    words = _scored_words(segmented, gold, token_counts)
    morph_counts = collections.Counter()
    pair_counts = collections.Counter()
    for word in words:
        morphs, entry, weight = segmented[word], gold[word], token_counts[word]
        for morph in set(morphs):
            morph_counts[morph] += weight
        _tally(pair_counts, morphs, entry.labels, _string_match_align(morphs, entry), weight)
    prev_total = None
    for it in range(max_iters):
        table = _build_table(pair_counts, morph_counts, max_distance)
        pair_counts = collections.Counter()
        total = 0.0
        for word in words:
            morphs, labels, weight = segmented[word], gold[word].labels, token_counts[word]
            pairs, bits = align_word(morphs, labels, table)
            _tally(pair_counts, morphs, labels, pairs, weight)
            total += weight * bits
        _logger.info("alignment EM iteration %d: %.1f bits", it + 1, total)
        if prev_total is not None and prev_total - total < DEFAULT_EM_TOL * max(prev_total, 1e-12):
            break
        prev_total = total
    return table


@dataclasses.dataclass
class EvalResult:
    alignment_distance_bits: float
    unseen_pair_pct: float
    aligned_pairs: int
    unseen_pairs: int
    alignments: dict  # word -> list of (morph index, label index)


def score_segmentation(segmented, gold, token_counts, table):
    """Token-weighted alignment distance of words under a frozen table.

    Pairs absent from the table are charged table.max_distance and counted
    as unseen. Words without a reference analysis are skipped, with one
    warning.
    """
    total = 0.0
    pair_total = 0
    unseen = 0
    alignments = {}
    for word in _scored_words(segmented, gold, token_counts):
        morphs, labels, weight = segmented[word], gold[word].labels, token_counts[word]
        pairs, bits = align_word(morphs, labels, table)
        alignments[word] = pairs
        total += weight * bits
        pair_total += weight * len(pairs)
        for i, j in pairs:
            if not table.seen(morphs[i], labels[j]):
                unseen += weight
    if pair_total == 0:
        raise MorphsegError("nothing to score: every scored word has token count 0")
    return EvalResult(
        alignment_distance_bits=total,
        unseen_pair_pct=100.0 * unseen / pair_total,
        aligned_pairs=pair_total,
        unseen_pairs=unseen,
        alignments=alignments,
    )


def evaluate(
    train_seg,
    test_seg,
    gold,
    train_counts,
    test_counts,
    max_iters=DEFAULT_EM_ITERS,
    max_distance=None,
):
    """Fit distances on the training segmentation, score the test one."""
    table = em_align(train_seg, gold, train_counts, max_iters=max_iters, max_distance=max_distance)
    return score_segmentation(test_seg, gold, test_counts, table), table


def format_alignment(word, morphs, labels, pairs):
    """One dump line: word, then each morph with its aligned labels."""
    by_morph = collections.defaultdict(list)
    for i, j in pairs:
        by_morph[i].append(labels[j])
    cells = ["%s:%s" % (morphs[i], "+".join(by_morph[i])) for i in sorted(by_morph)]
    return "%s\t%s" % (word, " ".join(cells))
