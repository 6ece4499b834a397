"""Synthetic English-morphology corpus generation.

Builds desk-scale corpora from real English stems and productive suffixes,
Zipf-distributed, together with a reference analysis for every generated
word type. No licensed corpora ship with the package, so experiments and
the acceptance suite use this generator.
"""

import random

NOUNS = [
    "time", "year", "way", "day", "man", "thing", "woman", "life", "child",
    "world", "school", "state", "family", "student", "group", "country",
    "problem", "hand", "part", "place", "week", "company", "system",
    "program", "question", "work", "government", "number", "night", "point",
    "home", "water", "room", "mother", "area", "money", "story", "month",
    "book", "eye", "job", "word", "side", "kind", "head", "house", "friend",
    "father", "power", "hour", "game", "line", "member", "car", "city",
    "name", "team", "minute", "idea", "body", "back", "parent", "face",
    "door", "result", "reason", "moment", "street", "teacher", "force",
    "foot", "boy", "girl", "dog", "cat", "tree", "garden", "table", "road",
    "wind", "fire", "stone", "bird", "field", "king", "ship", "star",
]
VERBS = [
    "call", "ask", "work", "seem", "feel", "try", "leave", "start", "turn",
    "show", "hear", "play", "run", "move", "live", "believe", "happen",
    "walk", "talk", "help", "need", "learn", "follow", "stop", "create",
    "open", "wait", "remember", "love", "consider", "appear", "watch",
    "expect", "stay", "remain", "suggest", "raise", "pass", "sell", "report",
    "pull", "return", "explain", "hope", "develop", "carry", "break",
    "receive", "agree", "support", "cover", "reach", "kill", "remove",
    "listen", "count", "jump", "plant", "paint", "climb", "hunt", "sail",
]
ADJECTIVES = [
    "good", "new", "first", "long", "great", "little", "old", "small",
    "large", "young", "high", "strong", "hard", "late", "clear", "recent",
    "dark", "cold", "warm", "deep", "light", "quick", "slow", "quiet",
    "loud", "bright", "clean", "sharp", "smooth", "calm", "bold", "plain",
    "soft", "wild", "broad", "near", "full", "rich", "poor", "safe",
]

# suffix, morphemic tag; empty suffix means the bare form
NOUN_FORMS = [("", None), ("s", "PL"), ("'s", "GEN"), ("s'", "PL+GEN")]
NOUN_WEIGHTS = [58, 30, 8, 4]
VERB_FORMS = [("", None), ("s", "SG3"), ("ed", "PAST"), ("ing", "PCP1"), ("er", "AGENT")]
VERB_WEIGHTS = [40, 15, 20, 20, 5]
ADJ_FORMS = [("", None), ("er", "CMP"), ("est", "SUP"), ("ly", "<DER:ly>")]
ADJ_WEIGHTS = [52, 16, 8, 24]

POS_FORMS = {"N": (NOUN_FORMS, NOUN_WEIGHTS), "V": (VERB_FORMS, VERB_WEIGHTS),
             "A": (ADJ_FORMS, ADJ_WEIGHTS)}
COMPOUND_RATE = 0.04  # share of noun tokens given a second noun base
VOWELS = set("aeiou")


def _join(stem, suffix):
    """Attach a suffix with a light e-drop rule, e.g. hope+ed -> hoped."""
    if suffix and stem.endswith("e") and suffix[0] in VOWELS:
        return stem + suffix[1:] if suffix[0] == "e" else stem[:-1] + suffix
    return stem + suffix


def _zipf_weights(n):
    return [1.0 / (rank + 1) for rank in range(n)]


class SyntheticEnglish:
    """Draws word tokens and remembers the analysis of every type seen."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.gold = {}  # word -> (base constituents, pos tag, affix tags)
        self._pos_pool = (
            [("N", s) for s in NOUNS] + [("V", s) for s in VERBS] + [("A", s) for s in ADJECTIVES]
        )
        self._pool_weights = (
            _zipf_weights(len(NOUNS)) + _zipf_weights(len(VERBS)) + _zipf_weights(len(ADJECTIVES))
        )

    def draw_token(self):
        rng = self.rng
        pos, stem = rng.choices(self._pos_pool, weights=self._pool_weights)[0]
        bases = [stem]
        if pos == "N" and rng.random() < COMPOUND_RATE:
            _, second = rng.choices(
                self._pos_pool[: len(NOUNS)], weights=self._pool_weights[: len(NOUNS)]
            )[0]
            bases.append(second)
        forms, weights = POS_FORMS[pos]
        suffix, tag = rng.choices(forms, weights=weights)[0]
        word = _join("".join(bases), suffix)
        tags = tag.split("+") if tag else []
        self.gold[word] = (bases, pos, tags)
        return word

    def tokens(self, n):
        return [self.draw_token() for _ in range(n)]

    def gold_lines(self):
        """Reference analyses as TSV lines: word, #-joined bases, POS, tags."""
        lines = []
        for word in sorted(self.gold):
            bases, pos, tags = self.gold[word]
            analysis = "#".join(b.upper() for b in bases)
            fields = [analysis, pos] + tags
            lines.append("%s\t%s" % (word, " ".join(fields)))
        return lines


AFFIX_TAGS = ["PL", "GEN", "SG3", "PAST", "PCP1", "AGENT", "CMP", "SUP", "<DER:ly>"]


def generate(n_tokens, seed=0):
    """Return (token list, gold TSV lines, affix tags to keep)."""
    gen = SyntheticEnglish(seed)
    tokens = gen.tokens(n_tokens)
    return tokens, gen.gold_lines(), list(AFFIX_TAGS)
