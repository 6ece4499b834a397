"""Online recursive MDL segmentation.

Words are stored in a hierarchical chunk structure: every chunk is either a
leaf (a morph in the codebook) or split into two child chunks. Occurrence
counts flow downward, so the count of a child always equals the sum of the
counts of its parents plus its own top-level insertions. The model cost is

    corpus bits   = sum over morph tokens of -log2 p(morph)
    codebook bits = sum over distinct morphs of CHAR_BITS * len(morph)

with p estimated by maximum likelihood from the leaf counts. Splits are
chosen greedily and revised online as more text arrives; each periodic
"dreaming" event is one pass over the known words in random order, which
lets early decisions catch up with the grown model. Each split point is
priced by its exact cost change, read without changing the store; ties go
to no split, then the leftmost.
"""

import dataclasses
import logging
import math
import random

from .errors import NotTrainedError, MorphsegError

_logger = logging.getLogger(__name__)

_log2 = math.log2

DEFAULT_SEED = 42
CHAR_BITS = 5  # codebook bits per character
DREAM_INTERVAL = 20000  # tokens between dreaming events; 0 disables
CURVE_INTERVAL = 2000  # tokens between cost-curve checkpoints


def _xlog2x(x):
    """x * log2(x) of a count; 0.0 for 0 and 1."""
    return x * _log2(x) if x > 1 else 0.0


@dataclasses.dataclass(slots=True)
class Chunk:
    """A string in the hierarchy. split == 0 means leaf (a codebook morph)."""

    text: str
    count: int
    split: int = 0


def cost_bits(counts):
    """(corpus bits, codebook bits) of a codebook given as morph -> token count.

    Corpus bits code each morph token by its maximum-likelihood probability;
    codebook bits spell out each distinct morph at CHAR_BITS per character.
    Both methods are compared under the total, corpus + codebook in that order.
    """
    n = sum(counts.values())
    corpus = math.fsum(c * _log2(n / c) for c in counts.values())
    return corpus, float(CHAR_BITS * sum(map(len, counts)))


def check_codable(what, strings):
    """Raise ValueError, naming what, if CHAR_BITS bits per character cannot
    code the distinct characters of strings."""
    n = len(set().union(*strings))
    if n > 2**CHAR_BITS:
        raise ValueError(
            "%s has %d characters; %d bits per character can code only %d"
            % (what, n, CHAR_BITS, 2**CHAR_BITS)
        )


class ChunkStore:
    """Hierarchical chunk model."""

    def __init__(self):
        self.chunks = {}
        # top-level insertion tallies, i.e. how often each word was fed in
        self.word_counts = {}
        self._leaf_tokens = 0  # total count over leaf chunks

    # -- cost ---------------------------------------------------------

    def total_cost(self):
        """Total cost in bits of the stored chunks' codebook, as cost_bits prices it."""
        corpus, codebook = cost_bits(dict(self.iter_morphs()))
        return corpus + codebook

    # kept only because perfbench/layers.py reads it; ROADMAP item 6 deletes it
    tracked_cost = property(total_cost)

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
    # whose count reaches zero is deleted. The leaf token total kept alongside
    # is an integer, so the order of its updates decides nothing.

    def _flow(self, text, amount):
        chunks = self.chunks
        stack = [text]
        while stack:
            t = stack.pop()
            node = chunks.get(t)
            if node is None:
                if amount < 0:
                    raise KeyError(t)
                chunks[t] = node = Chunk(t, 0)
            node.count += amount
            s = node.split
            if s:
                stack.append(t[:s])
                stack.append(t[s:])
            else:
                self._leaf_tokens += amount
            if node.count == 0:
                del chunks[t]

    def _split_leaf(self, node, i):
        """Turn a leaf chunk into a split at i, flowing its count down."""
        c = node.count
        node.split = i
        self._leaf_tokens -= c
        text = node.text
        self._flow(text[:i], c)
        self._flow(text[i:], c)

    def _unsplit(self, node):
        """Undo a split: pull the flow back out and leave the chunk a leaf."""
        c = node.count
        s = node.split
        node.split = 0
        text = node.text
        self._flow(text[:s], -c)
        self._flow(text[s:], -c)
        self._leaf_tokens += c

    # -- search --------------------------------------------------------

    def _split_change(self, text, c, i):
        """Exact change in bits from splitting the leaf chunk text (count c) at i.

        The store is not changed. c would flow down both parts' split trees:
        each leaf reached gains c per path, and a missing part becomes a new
        leaf. The cost is f(N) - sum of f(leaf count) + CHAR_BITS * leaf
        characters with f(x) = x*log2(x), so the change is one math.fsum of
        the f terms that change and the codebook change. fsum rounds their
        exact sum once: splits leaving equal leaf-count multisets tie exactly.
        """
        chunks = self.chunks
        reached = {}
        stack = [text[:i], text[i:]]
        while stack:
            t = stack.pop()
            node = chunks.get(t)
            s = node.split if node is not None else 0
            if s:
                stack.append(t[:s])
                stack.append(t[s:])
            else:
                reached[t] = reached.get(t, 0) + c
        n = self._leaf_tokens
        terms = [_xlog2x(n - c + sum(reached.values())), -_xlog2x(n), _xlog2x(c)]
        chars = -len(text)
        for t, gain in reached.items():
            node = chunks.get(t)
            if node is None:
                chars += len(t)
            old = node.count if node is not None else 0
            terms.append(_xlog2x(old))
            terms.append(-_xlog2x(old + gain))
        terms.append(float(CHAR_BITS * chars))
        return math.fsum(terms)

    def recursive_split(self, text):
        """Greedily re-derive the split structure under a chunk.

        Commits the split whose _split_change is lowest and below 0.0, the
        change of keeping the chunk whole, and recurses on its parts. Ties
        favor no split, then the leftmost split point. A split into two
        different missing parts is skipped: turning one leaf of count c into
        two adds f(N + c) - f(N) - f(c) >= 2 bits, so it never wins.
        """
        stack = [text]
        chunks = self.chunks
        while stack:
            t = stack.pop()
            if len(t) < 2:
                continue
            node = chunks[t]
            c = node.count
            if node.split:
                self._unsplit(node)
            best_change = 0.0
            best_i = 0
            for i in range(1, len(t)):
                left, right = t[:i], t[i:]
                if left != right and left not in chunks and right not in chunks:
                    continue
                change = self._split_change(t, c, i)
                if change < best_change:
                    best_change = change
                    best_i = i
            if best_i:
                self._split_leaf(node, best_i)
                # left part re-derived first
                stack.append(t[best_i:])
                stack.append(t[:best_i])

    def process_word(self, word):
        """Feed one word token to the model and re-derive its splits."""
        if not word:
            raise ValueError("cannot process an empty word")
        self._flow(word, 1)
        self.word_counts[word] = self.word_counts.get(word, 0) + 1
        self.recursive_split(word)

    def _reprocess(self, word):
        """process_word semantics without a count increment (dreaming)."""
        self.recursive_split(word)

    def dream(self, rng):
        """Reprocess every known word once, in the random order rng draws, to settle the model."""
        words = list(self.word_counts)
        rng.shuffle(words)
        for w in words:
            self._reprocess(w)

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
    def from_chunks(cls, chunks):
        """A store holding chunks (text -> Chunk), with its leaf token
        total and top-level word tallies derived from them.

        A word's own insertions are its count minus the flow from its
        parents, which makes a store read back from its chunks fully
        trainable again. Raises MorphsegError if the chunks do not form
        a consistent flow.
        """
        store = cls()
        store.chunks = chunks
        inflow = store._inflow()
        for text, chunk in chunks.items():
            c = chunk.count
            if chunk.split == 0:
                store._leaf_tokens += c
            own = c - inflow.get(text, 0)
            if own < 0:
                raise MorphsegError("count of %r is below the flow from its parents" % (text,))
            if own:
                store.word_counts[text] = own
        return store

    def check_integrity(self):
        """Verify the count flow and the leaf token total.

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

    def __eq__(self, other):
        if not isinstance(other, ChunkStore):
            return NotImplemented
        return self.chunks == other.chunks

    __hash__ = None


def train_online(corpus, dream_interval=DREAM_INTERVAL, rng=None, curve=None):
    """Feed a corpus through a fresh ChunkStore token by token, dreaming
    every dream_interval tokens (0 disables dreaming) in the word order
    rng draws; rng defaults to a generator seeded with DEFAULT_SEED.

    curve, if given, is appended with (tokens_processed, avg_word_cost_bits)
    checkpoints every CURVE_INTERVAL tokens, after each dreaming event, and
    after the last token if no checkpoint fell there; a corpus with no tokens
    gives none. Each dreaming event logs one INFO record with args
    (tokens_processed, cost_before, cost_after).

    Raises ValueError, before the first token, for a corpus with more
    distinct characters than CHAR_BITS can code.
    """
    if dream_interval < 0:
        raise ValueError("dream interval must not be negative (0 disables dreaming)")
    check_codable("corpus", corpus.type_counts)
    store = ChunkStore()
    rng = rng or random.Random(DEFAULT_SEED)
    n = 0
    for token in corpus.tokens:
        store.process_word(token)
        n += 1
        if curve is not None and n % CURVE_INTERVAL == 0:
            curve.append((n, store.total_cost() / n))
        if dream_interval and n % dream_interval == 0:
            before = store.total_cost()
            store.dream(rng)
            after = store.total_cost()
            _logger.info(
                "dreaming at %d tokens: %.1f -> %.1f bits", n, before, after
            )
            if curve is not None:
                curve.append((n, after / n))
    if curve is not None and n and (not curve or curve[-1][0] != n):
        curve.append((n, store.total_cost() / n))
    return store
