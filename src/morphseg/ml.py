"""Batch maximum-likelihood segmentation via Viterbi EM.

Word types start from random segmentations with Poisson-distributed
segment lengths. Each iteration re-estimates morph probabilities from the
current segmentations and then resegments every word type with the Viterbi
algorithm under the frozen estimates. Pure ML assigns new morphs infinite
cost, so random resegmentation of rejected words is the only mechanism
that introduces new morphs into the lexicon.
"""

import collections
import dataclasses
import logging
import math
import random
import sys

from .errors import UnsegmentableError, MorphsegError
from .mdl import DEFAULT_SEED, MdlCost

_logger = logging.getLogger(__name__)

_log2 = math.log2

DEFAULT_INTERVAL_MEAN = 5.5


@dataclasses.dataclass
class MorphStats:
    """Token-weighted morph counts plus per-type usage tallies.

    counts: morph -> number of morph tokens across the corpus.
    total: sum of counts.
    type_usage: morph -> number of distinct word types using it.
    longest: length of the longest morph, set from counts at construction.
    """

    counts: dict
    total: int
    type_usage: dict
    longest: int = dataclasses.field(init=False)

    def __post_init__(self):
        self.longest = max(map(len, self.counts), default=0)

    @classmethod
    def from_segmentation(cls, segmentation, type_counts):
        counts = collections.Counter()
        usage = collections.Counter()
        for word, n in type_counts.items():
            morphs = segmentation.get(word)
            if morphs is None:
                raise MorphsegError("segmentation is missing corpus word %r" % (word,))
            for m in morphs:
                counts[m] += n
            for m in set(morphs):
                usage[m] += 1
        return cls(dict(counts), sum(counts.values()), dict(usage))

    def corpus_bits(self):
        """sum over morph tokens of -log2 p(morph), p by maximum likelihood."""
        return MdlCost.of(self.counts, 0).corpus_bits


def check_interval_mean(lam):
    """exp(-lam), or ValueError unless lam is a usable Poisson mean.

    lam must be positive and small enough (about 708 at most) that
    exp(-lam) is a normal float; otherwise the inversion loop of poisson,
    or the redraw of zeros in random_segment, never ends.
    """
    p = math.exp(-lam) if lam > 0 else 0.0
    if p < sys.float_info.min:
        raise ValueError("lambda must be positive with exp(-lambda) a normal float, got %r" % (lam,))
    return p


def poisson(rng, lam):
    """One Poisson draw by CDF inversion from the given generator."""
    p = check_interval_mean(lam)
    u = rng.random()
    cum = p
    k = 0
    while u > cum:
        k += 1
        p *= lam / k
        cum += p
    return k


def random_segment(word, rng, mean_interval=DEFAULT_INTERVAL_MEAN):
    """Split a word at random intervals drawn from Poisson(mean_interval).

    Zero draws are redrawn; an interval reaching the end of the word stops
    the splitting, so every morph is non-empty.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    morphs = []
    pos = 0
    n = len(word)
    while True:
        k = poisson(rng, mean_interval)
        while k == 0:
            k = poisson(rng, mean_interval)
        if k >= n - pos:
            morphs.append(word[pos:])
            return morphs
        morphs.append(word[pos : pos + k])
        pos += k


def _cut(word, bounds, end):
    """The morphs of word[:end] cut at the inner boundary tuple bounds."""
    edges = (0,) + bounds + (end,)
    return [word[i:j] for i, j in zip(edges, edges[1:])]


def _exact_gap(word, end, bounds_a, bounds_b, counts, total):
    """Sign-exact difference of the term sums of two segmentations of word[:end].

    math.fsum rounds the exact sum correctly, so the result is zero exactly
    when the sums are equal and otherwise has the sign of their difference.
    """
    terms = [_log2(total / counts[m]) for m in _cut(word, bounds_a, end)]
    terms += [-_log2(total / counts[m]) for m in _cut(word, bounds_b, end)]
    return math.fsum(terms)


def viterbi_segment(word, stats):
    """Cheapest segmentation of a word into known morphs.

    Returns (morphs, cost in bits). Costs are compared exactly, as the real
    sums of the per-morph float terms log2(total / count), so equal costs
    always tie; the returned cost is the left-to-right float sum of the
    chosen morphs' terms. Ties are broken first toward fewer morphs, then
    toward the lexicographically smallest boundary tuple.
    Raises UnsegmentableError when no concatenation of known morphs
    yields the word.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    counts = stats.counts
    total = stats.total
    n = len(word)
    # a float sum of k <= n terms >= 0 is off by under k * 2**-53 of it: costs
    # further apart than 4x that share of their sum order as their exact sums do
    slack = n * 2.0**-51
    # state per prefix length: (float cost, morph count, boundary tuple)
    best = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    longest = stats.longest  # no longer substring can be a known morph
    for end in range(1, n + 1):
        winner = None
        for start in range(end - longest if end > longest else 0, end):
            prev = best[start]
            if prev is None:
                continue
            c = counts.get(word[start:end])
            if c is None:
                continue
            cost = prev[0] + _log2(total / c)
            near = False
            if winner is not None:
                gap = cost - winner[0]
                near = abs(gap) <= slack * (cost + winner[0])
                if gap > 0 and not near:
                    continue  # dearer by more than rounding can account for
            bounds = prev[2] + (start,) if start else prev[2]
            cand = (cost, prev[1] + 1, bounds)
            if near:  # too close for the float sums to tell
                gap = _exact_gap(word, end, bounds, winner[2], counts, total)
                if gap > 0 or gap == 0 and cand[1:] > winner[1:]:
                    continue
            winner = cand
        best[end] = winner
    if best[n] is None:
        raise UnsegmentableError("no known morphs cover %r" % (word,))
    cost, _, bounds = best[n]
    return _cut(word, bounds, n), cost


def reject(morphs, prev_type_usage):
    """Reason to reject a proposed segmentation, or None to accept.

    Rejects morphs that were used by exactly one word type in the previous
    iteration, and runs of two or more single-letter morphs.
    """
    for m in morphs:
        if prev_type_usage.get(m) == 1:
            return "rare-morph"
    for prev, cur in zip(morphs, morphs[1:]):
        if len(prev) == 1 and len(cur) == 1:
            return "one-letter-sequence"
    return None


def train_em(
    corpus,
    iterations=10,
    rng=None,
    mean_interval=DEFAULT_INTERVAL_MEAN,
    use_rejection=True,
):
    """Segment all corpus word types by iterated Viterbi re-estimation.

    Returns (segmentation dict, MorphStats of the final segmentation).
    With use_rejection, dubious Viterbi outputs are replaced by fresh
    random segmentations except on the final iteration; with it off the
    corpus bits logged after each iteration never increase. Each iteration
    logs one INFO record with args (iteration, morphs, corpus bits,
    rejected).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    rng = rng or random.Random(DEFAULT_SEED)
    segmentation = {
        word: random_segment(word, rng, mean_interval) for word in corpus.type_counts
    }
    stats = MorphStats.from_segmentation(segmentation, corpus.type_counts)
    for it in range(iterations):
        final = it == iterations - 1
        resegmented = {}
        rejected = 0
        for word in segmentation:
            # each of the word's current morphs is a key of stats.counts and
            # no longer than stats.longest, so some path always exists
            morphs, _ = viterbi_segment(word, stats)
            if use_rejection and not final:
                reason = reject(morphs, stats.type_usage)
                if reason:
                    morphs = random_segment(word, rng, mean_interval)
                    rejected += 1
            resegmented[word] = morphs
        segmentation = resegmented
        stats = MorphStats.from_segmentation(segmentation, corpus.type_counts)
        _logger.info(
            "seq-ml iteration %d: %d morphs, %.1f corpus bits, %d rejected",
            it + 1, len(stats.counts), stats.corpus_bits(), rejected,
        )
    return segmentation, stats
