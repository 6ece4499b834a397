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
import sys

from .errors import UnsegmentableError, MorphsegError
from .mdl import DEFAULT_SEED, cost_bits

_logger = logging.getLogger(__name__)

DEFAULT_INTERVAL_MEAN = 5.5
MIN_INTERVAL_MEAN = 0.01
ITERATIONS = 10  # Viterbi-EM iterations


@dataclasses.dataclass
class MorphStats:
    """Token-weighted morph counts plus per-type usage tallies.

    counts: morph -> number of morph tokens across the corpus.
    total: sum of counts.
    type_usage: morph -> number of distinct word types using it.
    longest: length of the longest morph, set from counts at construction.
    price: morph -> its cost log2(total / count) as an exact integer number of
        2**-104 bits, set likewise, so that sums of prices compare exactly.
    """

    counts: dict
    total: int
    type_usage: dict
    longest: int = dataclasses.field(init=False)
    price: dict = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.longest = max(map(len, self.counts), default=0)
        total = self.total
        # every count c is at most total (from_segmentation and load_ml_model
        # sum the counts into it), so total / c is 1.0 or at least 1 + 2**-52
        # and the float log2 is 0.0 or above 2**-52: a whole multiple of
        # 2**-104 with at most 53 significant bits, scaled here without loss
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
        return cls(counts, sum(counts.values()), usage)


def check_interval_mean(lam):
    """exp(-lam), or ValueError unless lam is a usable Poisson mean.

    lam must be at least MIN_INTERVAL_MEAN, so that a draw is non-zero with
    chance 1 - exp(-lam), about 1% or more, and random_segment redraws zeros
    about 100 times at most on average (below it exp(-lam) rounds toward 1.0
    and the redraw never ends). It must also be small enough (about 708 at
    most) that exp(-lam) is a normal float, or the inversion loop of poisson
    never ends.
    """
    p = math.exp(-lam) if lam >= MIN_INTERVAL_MEAN else 0.0
    if p < sys.float_info.min:
        raise ValueError(
            "lambda must be at least %g with exp(-lambda) a normal float, got %r"
            % (MIN_INTERVAL_MEAN, lam)
        )
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


def viterbi_segment(word, stats):
    """Cheapest segmentation of a word into known morphs.

    Returns (morphs, cost in bits). Segmentations are ordered by the exact
    integer sum of their morphs' stats.price, then by fewer morphs, then by
    the lexicographically smallest boundary tuple: a total order, so forward
    relaxation (at most len(word) * stats.longest price lookups) finds the
    same minimum in any visiting order. The returned cost is the left-to-right
    float sum of the chosen morphs' prices in bits. Raises UnsegmentableError
    when no concatenation of known morphs yields the word.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    price = stats.price
    n = len(word)
    # state per prefix length: the smallest (price sum, morph count, boundary tuple)
    best = [None] * (n + 1)
    best[0] = (0, 0, ())
    longest = stats.longest  # no longer substring can be a known morph
    for start in range(n):
        if best[start] is None:
            continue
        units, count, bounds = best[start]
        count += 1
        if start:
            bounds += (start,)  # built once, shared by every end
        last = start + longest if start + longest < n else n  # not min(): a call per start
        for end in range(start + 1, last + 1):
            p = price.get(word[start:end])
            if p is not None:
                cand = (units + p, count, bounds)
                if best[end] is None or cand < best[end]:
                    best[end] = cand
    if best[n] is None:
        raise UnsegmentableError("no known morphs cover %r" % (word,))
    edges = (0,) + best[n][2] + (n,)
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


def train_em(
    corpus,
    iterations=ITERATIONS,
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
        del stats  # the old estimates go before the new ones are built
        stats = MorphStats.from_segmentation(segmentation, corpus.type_counts)
        _logger.info(
            "seq-ml iteration %d: %d morphs, %.1f corpus bits, %d rejected",
            it + 1, len(stats.counts), cost_bits(stats.counts, 0)[0], rejected,
        )
    return segmentation, stats
