"""Batch maximum-likelihood segmentation via Viterbi EM.

Word types start from random segmentations with Poisson-distributed
segment lengths. Each iteration re-estimates morph probabilities from the
current segmentations and then resegments every word type with the Viterbi
algorithm under the frozen estimates. Pure ML assigns new morphs infinite
cost, so random resegmentation of rejected words is the only mechanism
that introduces new morphs into the lexicon.
"""

import dataclasses
import logging
import math
import random

from .errors import UnsegmentableError, MorphsegError
from .mdl import DEFAULT_SEED, check_codable, cost_bits

_logger = logging.getLogger(__name__)

INTERVAL_MEAN = 5.5  # mean random segment length
ITERATIONS = 10  # Viterbi-EM iterations

_P_ZERO = math.exp(-INTERVAL_MEAN)  # Poisson(INTERVAL_MEAN) chance of 0


@dataclasses.dataclass
class MorphStats:
    """Token-weighted morph counts plus per-type usage tallies.

    counts: morph -> number of morph tokens across the corpus, each positive.
    type_usage: morph -> number of distinct word types using it.
    total: sum of counts, set from counts at construction.
    longest: length of the longest morph, set likewise.
    price: morph -> its cost log2(total / count) as an exact integer number of
        2**-104 bits, set likewise, so that sums of prices compare exactly.
    """

    counts: dict
    type_usage: dict = dataclasses.field(default_factory=dict)
    total: int = dataclasses.field(init=False)
    longest: int = dataclasses.field(init=False)
    price: dict = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.total = total = sum(self.counts.values())
        self.longest = max(map(len, self.counts), default=0)
        # every count c is at most total, their sum, so total / c is 1.0 or
        # at least 1 + 2**-52 and the float log2 is 0.0 or above 2**-52: a
        # whole multiple of 2**-104 with at most 53 significant bits, scaled
        # here without loss
        self.price = {m: int(math.log2(total / c) * 2.0**104) for m, c in self.counts.items()}

    @classmethod
    def from_segmentation(cls, segmentation, type_counts):
        counts = {}
        usage = {}
        for word, n in type_counts.items():
            morphs = segmentation.get(word)
            if morphs is None:
                raise MorphsegError("segmentation is missing corpus word %r" % (word,))
            for m in morphs:
                counts[m] = counts.get(m, 0) + n
            for m in set(morphs):
                usage[m] = usage.get(m, 0) + 1
        return cls(counts, usage)


def poisson(rng):
    """One Poisson(INTERVAL_MEAN) draw by CDF inversion from the given generator.

    The float CDF reaches 1 - 2**-53, the largest rng.random(), so the
    inversion ends, by k = 34 at the latest.
    """
    u = rng.random()
    p = cum = _P_ZERO
    k = 0
    while u > cum:
        k += 1
        p *= INTERVAL_MEAN / k
        cum += p
    return k


def random_segment(word, rng):
    """Split a word at random intervals drawn from Poisson(INTERVAL_MEAN).

    Zero draws are redrawn; an interval reaching the end of the word stops
    the splitting, so every morph is non-empty.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    morphs = []
    pos = 0
    n = len(word)
    while True:
        k = poisson(rng)
        while k == 0:
            k = poisson(rng)
        if k >= n - pos:
            morphs.append(word[pos:])
            return morphs
        morphs.append(word[pos : pos + k])
        pos += k


def viterbi_segment(word, stats):
    """Cheapest segmentation of a word into known morphs.

    Returns (morphs, cost), the cost the left-to-right float sum of the morphs'
    prices in bits. Segmentations are ordered by the exact integer sum of their
    morphs' stats.price, then by fewer morphs, then by the lexicographically
    smallest boundary tuple, so the best one is its first morph followed by the
    best of the rest: a DP over suffixes keeps the least (price sum, morph
    count, first morph's end) of each, in at most len(word) * stats.longest
    lookups. Raises UnsegmentableError if no known morphs make up the word.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    price = stats.price
    n = len(word)
    best = [None] * n + [(0, 0, n)]
    longest = stats.longest  # no longer substring can be a known morph
    for start in range(n - 1, -1, -1):
        here = None
        last = start + longest if start + longest < n else n  # not min(): a call per start
        for end in range(start + 1, last + 1):
            p = price.get(word[start:end])
            if p is not None and (tail := best[end]) is not None:
                cand = (p + tail[0], tail[1] + 1, end)
                if here is None or cand < here:
                    here = cand
        best[start] = here
    if best[0] is None:
        raise UnsegmentableError("no known morphs cover %r" % (word,))
    edges = [0]
    while edges[-1] < n:
        edges.append(best[edges[-1]][2])
    morphs = [word[i:j] for i, j in zip(edges, edges[1:])]
    cost = 0.0
    for m in morphs:
        cost += price[m] * 2.0**-104  # the float price, exactly
    return morphs, cost


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


def train_em(corpus, iterations=ITERATIONS, rng=None, use_rejection=True):
    """Segment all corpus word types by iterated Viterbi re-estimation.

    Returns (segmentation dict, MorphStats of the final segmentation).
    With use_rejection, dubious Viterbi outputs are replaced by fresh
    random segmentations except on the final iteration; with it off the
    corpus bits logged after each iteration never increase. Each iteration
    logs one INFO record with args (iteration, morphs, corpus bits,
    rejected). Raises ValueError, before the first random draw, for a corpus
    with more distinct characters than CHAR_BITS can code.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    check_codable("corpus", corpus.type_counts)
    rng = rng or random.Random(DEFAULT_SEED)
    segmentation = {word: random_segment(word, rng) for word in corpus.type_counts}
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
                    morphs = random_segment(word, rng)
                    rejected += 1
            resegmented[word] = morphs
        segmentation = resegmented
        del stats  # the old estimates go before the new ones are built
        stats = MorphStats.from_segmentation(segmentation, corpus.type_counts)
        _logger.info(
            "seq-ml iteration %d: %d morphs, %.1f corpus bits, %d rejected",
            it + 1, len(stats.counts), cost_bits(stats.counts)[0], rejected,
        )
    return segmentation, stats
