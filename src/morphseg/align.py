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
import logging
import math

from . import io
from .errors import GoldParseError, MorphsegError

_logger = logging.getLogger(__name__)

_log2 = math.log2

EXTRA_DISTANCE = 10.0
EM_ITERATIONS = 10
EM_TOL = 1e-4


class GoldEntry(collections.namedtuple("GoldEntry", "labels base_count")):
    """Reference labels of one word: base-form constituents then tags."""

    __slots__ = ()


def parse_gold(lines, tag_filter=None, source="<gold>"):
    """Parse reference analyses from TSV lines.

    Line format: word, then tab, then base form (constituents joined by #)
    followed by space-separated tags. A word with whitespace in it is a
    GoldParseError. Tags absent from tag_filter are dropped (tag_filter
    None keeps everything).
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
        if word.split() != [word]:
            raise GoldParseError("%s line %d: whitespace in word %r" % (source, lineno, word))
        labels = fields[0].split("#")  # the bases, then the tags
        if "" in labels:
            labels = list(filter(None, labels))
        base_count = len(labels)
        if not base_count:
            raise GoldParseError("%s line %d: empty base form" % (source, lineno))
        labels += fields[1:] if tag_filter is None else filter(tag_filter.__contains__, fields[1:])
        labels = tuple(map(shared.setdefault, labels, labels))
        if word in gold:
            _logger.warning("%s line %d: duplicate analysis for %r kept first", source, lineno, word)
            continue
        gold[word] = GoldEntry(labels, base_count)
    return gold


def load_gold(path, tag_filter=None):
    with io.reading(path) as f:
        return parse_gold(f, tag_filter, source=str(path))


def load_tag_filter(path):
    """Tags to keep, one per line; a line of two or more is a GoldParseError naming the line."""
    tags = set()
    with io.reading(path) as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.split()
            if len(fields) > 1:
                raise GoldParseError("%s line %d: whitespace in tag %r" % (path, lineno, line.strip()))
            tags.update(fields)
    return tags


class DistanceTable(collections.namedtuple("DistanceTable", "distances max_distance")):
    """Pair distances in bits, (morph, label) -> bits, plus the charge for unseen pairs."""

    __slots__ = ()


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
    # from each start in a, try only lengths above the best so far: every
    # prefix of a common substring is common too, so none can be missed
    best = 0
    for i in range(len(a)):
        while i + best < len(a) and a[i : i + best + 1] in b:
            best += 1
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
    costs = [[-_common_substring_len(a, b) / max(len(a), len(b)) for b in bases] + tags
             for a in map(str.casefold, morphs)]
    return _align(costs)[0]


def _tally(pair_counts, morphs, labels, pairs, weight):
    """Add one word's token-weighted pair counts from its alignment.

    A word token counts once toward c(M, L) for each distinct label L
    aligned with morph M in it.
    """
    for pair in {(morphs[i], labels[j]) for i, j in pairs}:
        pair_counts[pair] += weight


def _build_table(pair_counts, morph_counts):
    distances = {}
    for (morph, label), c in pair_counts.items():
        c_m = morph_counts[morph]
        distances[(morph, label)] = 0.0 if c == c_m else _log2(c_m / c)
    return DistanceTable(distances, max(distances.values(), default=0.0) + EXTRA_DISTANCE)


def covered_words(words, gold, what="segmented word"):
    """The words, in order, that have a reference analysis; a MorphsegError
    saying "no <what> has a reference analysis" when none has."""
    covered = [word for word in words if word in gold]
    if not covered:
        raise MorphsegError("no %s has a reference analysis" % what)
    return covered


def _scored_words(segmented, gold, token_counts):
    """covered_words of segmented; a MorphsegError for one without a token
    count. Logs one warning with the number of words skipped."""
    words = covered_words(segmented, gold)
    for word in words:
        if word not in token_counts:
            raise MorphsegError("no token count for %r" % (word,))
    skipped = len(segmented) - len(words)
    if skipped:
        _logger.warning("%d words lacked reference analyses and were skipped", skipped)
    return words


def em_align(segmented, gold, token_counts):
    """Fit a DistanceTable to segmented words with reference analyses.

    Alternates between estimating pair distances from the current
    alignments and realigning every word under the new distances, starting
    from string-matching alignments, until the token-weighted total
    distance improves by less than EM_TOL relative or EM_ITERATIONS
    tables have been fitted. Unseen pairs cost the largest fitted distance
    plus EXTRA_DISTANCE.
    Alignments are not kept: each word's new alignment is tallied into the
    pair counts of the next table as soon as it is found. A word token
    containing morph M counts once toward c(M), which no realignment
    changes. Words without a reference analysis are skipped, with one
    warning. Each realignment logs one INFO record with args (iteration,
    total bits).
    """
    words = _scored_words(segmented, gold, token_counts)
    morph_counts = collections.Counter()
    pair_counts = collections.Counter()
    for word in words:
        morphs, entry, weight = segmented[word], gold[word], token_counts[word]
        for morph in set(morphs):
            morph_counts[morph] += weight
        _tally(pair_counts, morphs, entry.labels, _string_match_align(morphs, entry), weight)
    prev_total = None
    for it in range(EM_ITERATIONS):
        table = _build_table(pair_counts, morph_counts)
        pair_counts = collections.Counter()
        terms = []  # summed by fsum, so the total does not depend on word order
        for word in words:
            morphs, labels, weight = segmented[word], gold[word].labels, token_counts[word]
            pairs, bits = align_word(morphs, labels, table)
            _tally(pair_counts, morphs, labels, pairs, weight)
            terms.append(weight * bits)
        total = math.fsum(terms)
        _logger.info("alignment EM iteration %d: %.1f bits", it + 1, total)
        if prev_total is not None and prev_total - total < EM_TOL * max(prev_total, 1e-12):
            break
        prev_total = total
    return table


# alignments: word -> list of (morph index, label index)
EvalResult = collections.namedtuple(
    "EvalResult", "alignment_distance_bits unseen_pair_pct aligned_pairs unseen_pairs alignments"
)


def score_segmentation(segmented, gold, token_counts, table):
    """Token-weighted alignment distance of words under a frozen table.

    Pairs absent from the table are charged table.max_distance and counted
    as unseen. Words without a reference analysis are skipped, with one
    warning.
    """
    terms = []  # summed by fsum, so the total does not depend on word order
    pair_total = 0
    unseen = 0
    alignments = {}
    for word in _scored_words(segmented, gold, token_counts):
        morphs, labels, weight = segmented[word], gold[word].labels, token_counts[word]
        pairs, bits = align_word(morphs, labels, table)
        alignments[word] = pairs
        terms.append(weight * bits)
        pair_total += weight * len(pairs)
        for i, j in pairs:
            if (morphs[i], labels[j]) not in table.distances:
                unseen += weight
    if pair_total == 0:
        raise MorphsegError("nothing to score: every scored word has token count 0")
    return EvalResult(
        alignment_distance_bits=math.fsum(terms),
        unseen_pair_pct=100.0 * unseen / pair_total,
        aligned_pairs=pair_total,
        unseen_pairs=unseen,
        alignments=alignments,
    )


def format_alignment(word, morphs, labels, pairs):
    """One dump line: word, then each morph with its aligned labels."""
    by_morph = collections.defaultdict(list)
    for i, j in pairs:
        by_morph[i].append(labels[j])
    cells = ["%s:%s" % (morphs[i], "+".join(by_morph[i])) for i in sorted(by_morph)]
    return "%s\t%s" % (word, " ".join(cells))
