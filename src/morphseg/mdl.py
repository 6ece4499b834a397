"""Online recursive MDL segmentation.

Words are stored in a hierarchical chunk structure: every chunk is either a
leaf (a morph in the codebook) or split into two child chunks. Occurrence
counts flow downward, so the count of a child always equals the sum of the
counts of its parents plus its own top-level insertions. The model cost is

    corpus bits   = sum over morph tokens of -log2 p(morph)
    codebook bits = sum over distinct morphs of char_bits * len(morph)

with p estimated by maximum likelihood from the leaf counts. Splits are
chosen greedily and revised online as more text arrives; periodic
"dreaming" passes reprocess known words to let early decisions catch up
with the grown model.
"""

import dataclasses
import logging
import math
import random

from .errors import NotTrainedError, MorphsegError

_logger = logging.getLogger(__name__)

_log2 = math.log2

DEFAULT_SEED = 42
DREAM_THRESHOLD = 1e-4  # stop extra dreaming passes below this relative gain
CURVE_INTERVAL = 2000  # tokens between cost-curve checkpoints
COST_REL_TOL = 1e-9  # check_integrity's bound on tracked-cost drift, relative to the cost


@dataclasses.dataclass(slots=True)
class Chunk:
    """A string in the hierarchy. split == 0 means leaf (a codebook morph)."""

    text: str
    count: int
    split: int = 0


@dataclasses.dataclass
class MdlCost:
    """The two-part cost both methods are compared under."""

    corpus_bits: float
    codebook_bits: float

    @classmethod
    def of(cls, counts, char_bits):
        """Cost of a codebook given as morph -> token count.

        Corpus bits code each morph token by its maximum-likelihood
        probability; codebook bits spell out each distinct morph at
        char_bits per character.
        """
        n = sum(counts.values())
        corpus = math.fsum(c * _log2(n / c) for c in counts.values())
        return cls(corpus, float(char_bits * sum(map(len, counts))))

    @property
    def total_bits(self):
        return self.corpus_bits + self.codebook_bits


@dataclasses.dataclass
class MdlConfig:
    """Knobs for online training."""

    char_bits: int = 5
    dream_interval: int = 20000  # tokens between dreaming events; 0 disables
    dream_passes: int = 1
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.char_bits < 1:
            raise ValueError("char_bits must be positive")
        if self.dream_interval < 0 or self.dream_passes < 1:
            raise ValueError(
                "dream interval must not be negative and dream passes must be at"
                " least 1 (an interval of 0 disables dreaming)"
            )


class _NeumaierSum:
    """Compensated running sum; keeps float error near one rounding step.

    The corpus cost needs sum(c * log2 c) maintained across millions of
    small adds and exact-value removals, and the tracked total must stay
    within 1e-9 relative of a from-scratch recomputation.
    """

    __slots__ = ("high", "low")

    def __init__(self):
        self.high = 0.0
        self.low = 0.0

    def add(self, x):
        s = self.high
        t = s + x
        if abs(s) >= abs(x):
            self.low += (s - t) + x
        else:
            self.low += (x - t) + s
        self.high = t

    @property
    def value(self):
        return self.high + self.low


class ChunkStore:
    """Hierarchical chunk model plus incrementally tracked cost."""

    def __init__(self, char_bits=5):
        if char_bits < 1:
            raise ValueError("char_bits must be positive")
        self.char_bits = char_bits
        self.chunks = {}
        # top-level insertion tallies, i.e. how often each word was fed in
        self.word_counts = {}
        self._leaf_tokens = 0  # total count over leaf chunks
        self._leaf_chars = 0  # total text length over leaf chunks
        self._plogp = _NeumaierSum()  # sum of count*log2(count) over leaves

    # -- cost ---------------------------------------------------------

    @property
    def tracked_cost(self):
        """Total cost in bits, maintained incrementally."""
        n = self._leaf_tokens
        if n == 0:
            return 0.0
        corpus = n * _log2(n) - self._plogp.value
        if corpus < 0.0:  # accumulator noise around an exact zero
            corpus = 0.0
        return corpus + self.char_bits * self._leaf_chars

    def total_cost(self):
        """Recompute the cost from the stored chunks, ignoring the tracker."""
        return MdlCost.of(dict(self.iter_morphs()), self.char_bits)

    def codebook_size(self):
        return sum(1 for c in self.chunks.values() if c.split == 0)

    def iter_morphs(self):
        """Leaf chunks, i.e. the current codebook with usage counts."""
        for chunk in self.chunks.values():
            if chunk.split == 0:
                yield chunk.text, chunk.count

    # -- flow bookkeeping ---------------------------------------------
    #
    # A count change on a chunk flows through its split down to the leaves:
    # _flow adds a signed amount on every path below a chunk, so a part used
    # on both sides of a split receives it twice. A missing chunk is created
    # as a leaf only by a positive amount; a negative one that reaches a
    # missing chunk means the flow is broken and raises KeyError. A chunk
    # whose count reaches zero is deleted. A leaf's old count*log2(count)
    # term leaves the tracker before its new one enters: the tracker is a
    # float sum, so the order of its adds fixes the costs that decide splits.

    def _flow(self, text, amount):
        chunks = self.chunks
        plogp = self._plogp
        stack = [text]
        while stack:
            t = stack.pop()
            node = chunks.get(t)
            if node is None:
                if amount < 0:
                    raise KeyError(t)
                chunks[t] = node = Chunk(t, 0)
                self._leaf_chars += len(t)
            c0 = node.count
            node.count = c1 = c0 + amount
            s = node.split
            if s:
                stack.append(t[:s])
                stack.append(t[s:])
            else:
                self._leaf_tokens += amount
                if c0 > 1:
                    plogp.add(-(c0 * _log2(c0)))
                if c1 > 1:
                    plogp.add(c1 * _log2(c1))
                elif c1 == 0:
                    self._leaf_chars -= len(t)
            if c1 == 0:
                del chunks[t]

    def _split_leaf(self, node, i):
        """Turn a leaf chunk into a split at i, flowing its count down."""
        c = node.count
        node.split = i
        self._leaf_tokens -= c
        self._leaf_chars -= len(node.text)
        if c > 1:
            self._plogp.add(-(c * _log2(c)))
        text = node.text
        self._flow(text[:i], c)
        self._flow(text[i:], c)

    def _unsplit(self, node, count):
        """Undo a split: pull the flow back out and leave the chunk a leaf
        with the given count."""
        c = node.count
        s = node.split
        node.split = 0
        text = node.text
        self._flow(text[:s], -c)
        self._flow(text[s:], -c)
        node.count = count
        self._leaf_tokens += count
        self._leaf_chars += len(text)
        if count > 1:
            self._plogp.add(count * _log2(count))

    # -- search --------------------------------------------------------

    def recursive_split(self, text):
        """Greedily re-derive the split structure under a chunk.

        Evaluates keeping the chunk whole against every two-way split by
        provisionally applying each one and reading the true total cost,
        commits the cheapest, and recurses on the parts of a committed
        split. Ties favor no split, then the leftmost split point.
        """
        stack = [text]
        chunks = self.chunks
        while stack:
            t = stack.pop()
            if len(t) < 2:
                continue
            node = chunks[t]
            if node.split:
                self._unsplit(node, node.count)
            best_cost = self.tracked_cost
            best_i = 0
            for i in range(1, len(t)):
                self._split_leaf(node, i)
                cost = self.tracked_cost
                self._unsplit(node, node.count)
                if cost < best_cost:
                    best_cost = cost
                    best_i = i
            if best_i:
                self._split_leaf(node, best_i)
                # left part re-derived first
                stack.append(t[best_i:])
                stack.append(t[:best_i])

    def _settle_unsplit(self, word):
        """Detach any split under a word and leave it as a leaf chunk,
        raising its count by one."""
        node = self.chunks.get(word)
        if node is not None and node.split:
            self._unsplit(node, node.count + 1)
        else:
            self._flow(word, 1)

    def process_word(self, word):
        """Feed one word token to the model and re-derive its splits."""
        if not word:
            raise ValueError("cannot process an empty word")
        self._settle_unsplit(word)
        self.word_counts[word] = self.word_counts.get(word, 0) + 1
        self.recursive_split(word)

    def _reprocess(self, word):
        """process_word semantics without a count increment (dreaming)."""
        self.recursive_split(word)

    def dream(self, rng=None, max_passes=1):
        """Reprocess all known words in random order to settle the model.

        Runs up to max_passes full passes; stops early once a pass improves
        the total cost by less than the relative DREAM_THRESHOLD.
        """
        if not self.word_counts:
            return
        rng = rng or random.Random(DEFAULT_SEED)
        for _ in range(max_passes):
            before = self.tracked_cost
            words = list(self.word_counts)
            rng.shuffle(words)
            for w in words:
                self._reprocess(w)
            after = self.tracked_cost
            if before <= 0.0 or before - after < DREAM_THRESHOLD * before:
                break

    # -- reading the model ----------------------------------------------

    def segment_word(self, word):
        """Trace the chunk tree of a known word down to its morphs (leaf texts, not copies)."""
        if word not in self.chunks:
            raise NotTrainedError("unknown word: %r" % (word,))
        morphs = []
        stack = [word]
        chunks = self.chunks
        while stack:
            t = stack.pop()
            node = chunks[t]
            s = node.split
            if s:
                stack.append(t[s:])
                stack.append(t[:s])
            else:
                morphs.append(node.text)
        return morphs

    # -- invariants, rebuilding and copies -------------------------------

    def _inflow(self):
        """Count each chunk receives from the splits of its parents."""
        chunks = self.chunks
        inflow = {}
        for chunk in chunks.values():
            s = chunk.split
            if s:
                for part in (chunk.text[:s], chunk.text[s:]):
                    if part not in chunks:
                        raise MorphsegError(
                            "chunk %r references missing part %r" % (chunk.text, part)
                        )
                    inflow[part] = inflow.get(part, 0) + chunk.count
        return inflow

    @classmethod
    def from_chunks(cls, chunks, char_bits):
        """A store holding chunks (text -> Chunk), its trackers and
        top-level word tallies derived from them.

        A word's own insertions are its count minus the flow from its
        parents, which makes a store read back from its chunks fully
        trainable again. Raises MorphsegError if the chunks do not form
        a consistent flow.
        """
        store = cls(char_bits)
        store.chunks = chunks
        inflow = store._inflow()
        for text, chunk in chunks.items():
            c = chunk.count
            if chunk.split == 0:
                store._leaf_tokens += c
                store._leaf_chars += len(text)
                if c > 1:
                    store._plogp.add(c * _log2(c))
            own = c - inflow.get(text, 0)
            if own < 0:
                raise MorphsegError("count of %r is below the flow from its parents" % (text,))
            if own:
                store.word_counts[text] = own
        return store

    def check_integrity(self):
        """Verify the count flow, leaf bookkeeping, and tracked cost.

        Raises MorphsegError on the first violation found.
        """
        for chunk in self.chunks.values():
            if chunk.count <= 0:
                raise MorphsegError("zero-count chunk retained: %r" % chunk.text)
            s = chunk.split
            if s and not 0 < s < len(chunk.text):
                raise MorphsegError("bad split %d in %r" % (s, chunk.text))
        inflow = self._inflow()
        for text, chunk in self.chunks.items():
            expected = self.word_counts.get(text, 0) + inflow.get(text, 0)
            if chunk.count != expected:
                raise MorphsegError(
                    "count of %r is %d, flow implies %d" % (text, chunk.count, expected)
                )
        for word in self.word_counts:
            if word not in self.chunks:
                raise MorphsegError("known word %r has no chunk" % (word,))
        morph_tokens = 0
        for word, count in self.word_counts.items():
            morph_tokens += count * len(self.segment_word(word))
        if morph_tokens != self._leaf_tokens:
            raise MorphsegError(
                "leaf token tracker %d != %d implied by word traces"
                % (self._leaf_tokens, morph_tokens)
            )
        scratch = self.total_cost().total_bits
        tracked = self.tracked_cost
        if abs(tracked - scratch) > COST_REL_TOL * max(scratch, 1.0):
            raise MorphsegError(
                "tracked cost %.12f drifted from recomputed %.12f" % (tracked, scratch)
            )

    def __eq__(self, other):
        if not isinstance(other, ChunkStore):
            return NotImplemented
        return self.char_bits == other.char_bits and self.chunks == other.chunks

    __hash__ = None


def train_online(corpus, config=None, curve=None):
    """Feed a corpus through a fresh ChunkStore token by token.

    curve, if given, is appended with (tokens_processed, avg_word_cost_bits)
    checkpoints every CURVE_INTERVAL tokens and after each dreaming event.
    Each dreaming event logs one INFO record with args (tokens_processed,
    cost_before, cost_after).
    """
    config = config or MdlConfig()
    store = ChunkStore(config.char_bits)
    rng = random.Random(config.seed)
    n = 0
    for token in corpus.tokens:
        store.process_word(token)
        n += 1
        if curve is not None and n % CURVE_INTERVAL == 0:
            curve.append((n, store.tracked_cost / n))
        if config.dream_interval and n % config.dream_interval == 0:
            before = store.tracked_cost
            store.dream(rng, config.dream_passes)
            after = store.tracked_cost
            _logger.info(
                "dreaming at %d tokens: %.1f -> %.1f bits", n, before, after
            )
            if curve is not None:
                curve.append((n, after / n))
    if curve is not None and (not curve or curve[-1][0] != n):
        curve.append((n, store.tracked_cost / n))
    return store
