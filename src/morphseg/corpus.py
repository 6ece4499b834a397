"""Corpus loading and preprocessing.

Text is lowercased, then split into whitespace-delimited tokens. A token is
kept only if every character belongs to the alphabet; otherwise the whole
token is dropped.
"""

import collections
import functools
import itertools
import logging

from . import io
from .errors import EmptyCorpusError, CorpusSizeError

_logger = logging.getLogger(__name__)

# Preset alphabets. Both stay within the 32 characters that the 5 bits per
# character of the codebook cost (mdl.CHAR_BITS) can code.
ALPHABETS = {
    "english": frozenset("abcdefghijklmnopqrstuvwxyz'-"),
    "finnish": frozenset("abcdefghijklmnopqrstuvwxyzåäö-"),
}


class Corpus:
    """An ordered token sequence (a tuple) plus type counts derived from it."""

    def __init__(self, tokens):
        self.tokens = tokens

    @classmethod
    def from_tokens(cls, tokens):
        return cls(tuple(tokens))

    @functools.cached_property
    def type_counts(self):
        """token -> number of occurrences, counted at the first read."""
        return dict(collections.Counter(self.tokens))

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return self.tokens == other.tokens if other.__class__ is Corpus else NotImplemented


def load_corpus(lines, alphabet=ALPHABETS["english"]):
    """Tokenize an iterable of text lines, each lowercased, into a Corpus of
    the tokens whose characters all belong to alphabet.

    Raises EmptyCorpusError if no token survives filtering.
    """
    # type -> the one string its tokens share, or None if the type is dropped;
    # the alphabet check runs once per type
    kept = {}
    tokens = []
    dropped = 0
    for line in lines:
        for token in line.lower().split():
            try:
                token = kept[token]
            except KeyError:
                token = kept[token] = token if alphabet.issuperset(token) else None
            if token is None:
                dropped += 1
            else:
                tokens.append(token)
    if dropped:
        _logger.info("dropped %d tokens with out-of-alphabet characters", dropped)
    if not tokens:
        raise EmptyCorpusError("no tokens left after preprocessing")
    return Corpus.from_tokens(tokens)


def read_corpus(path, alphabet=ALPHABETS["english"]):
    """load_corpus over the text file at path."""
    with io.reading(path) as f:
        return load_corpus(f, alphabet)


def split_corpus(corpus, *sizes):
    """One Corpus per size, consecutive slices taken in order from the start of corpus.

    Raises EmptyCorpusError for a size below 1, then CorpusSizeError when the
    sizes add up to more tokens than the corpus has.
    """
    if any(n < 1 for n in sizes):
        raise EmptyCorpusError(
            "each split must contain at least one token; sizes were %s" % ", ".join(map(str, sizes))
        )
    bounds = [0, *itertools.accumulate(sizes)]
    if bounds[-1] > len(corpus.tokens):
        raise CorpusSizeError("corpus has %d tokens, need %d" % (len(corpus.tokens), bounds[-1]))
    return [Corpus.from_tokens(corpus.tokens[a:b]) for a, b in zip(bounds, bounds[1:])]
