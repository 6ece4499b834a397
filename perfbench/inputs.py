"""Seeded input generators for the benchmark workloads.

Every input is derived from the workload seed through ``morphseg.synth``, so
the same seed always writes the same bytes. ``describe`` records what a
run used (sha256, size, token and type counts) so that runs of two commits
can be shown to have read identical inputs.
"""

import hashlib
import random

from morphseg import synth

TOKENS_PER_LINE = 12  # the layout scripts/make_corpus.py writes
MAX_PARTS = 8  # constituent words per long-word token


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_corpus(path, tokens):
    _write_lines(
        path,
        [" ".join(tokens[i : i + TOKENS_PER_LINE]) for i in range(0, len(tokens), TOKENS_PER_LINE)],
    )


def write_word_list(path, tokens):
    """One token per line: the running text ``morphseg segment`` reads."""
    _write_lines(path, tokens)


def long_words(n_tokens, seed):
    """Agglutinative tokens built from 1 to MAX_PARTS synthetic words.

    Returns (tokens, gold TSV lines, affix tags to keep). A token's
    reference analysis is its constituents' base forms, joined by ``#``,
    followed by their affix tags in order.
    """
    gen = synth.SyntheticEnglish(seed)
    counts = random.Random(seed)
    tokens = []
    analyses = {}
    for _ in range(n_tokens):
        parts = [gen.draw_token() for _ in range(counts.randint(1, MAX_PARTS))]
        word = "".join(parts)
        if word not in analyses:
            bases = [b.upper() for p in parts for b in gen.gold[p][0]]
            tags = [t for p in parts for t in gen.gold[p][2]]
            analyses[word] = " ".join(["#".join(bases)] + tags)
        tokens.append(word)
    gold = ["%s\t%s" % (w, analyses[w]) for w in sorted(analyses)]
    return tokens, gold, list(synth.AFFIX_TAGS)


def make_compare_inputs(dirpath, kind, n_tokens, seed):
    """Write corpus, gold and tags files; return (paths, tokens)."""
    if kind == "synth":
        tokens, gold, tags = synth.generate(n_tokens, seed)
    elif kind == "long":
        tokens, gold, tags = long_words(n_tokens, seed)
    else:
        raise ValueError("unknown corpus kind %r" % (kind,))
    paths = {
        "corpus": dirpath / "corpus.txt",
        "gold": dirpath / "gold.tsv",
        "tags": dirpath / "tags.txt",
    }
    write_corpus(paths["corpus"], tokens)
    _write_lines(paths["gold"], gold)
    _write_lines(paths["tags"], tags)
    return paths, tokens


def heldout_seed(seed):
    """Seed of the held-out running text, distinct from the training seed."""
    return seed + 1_000_003


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def describe(path, tokens=None):
    """Digest and size of an input file, plus its token and type counts."""
    record = {"sha256": sha256_file(path), "bytes": path.stat().st_size}
    if tokens is not None:
        record["tokens"] = len(tokens)
        record["types"] = len(set(tokens))
    return record
