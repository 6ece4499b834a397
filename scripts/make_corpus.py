#!/usr/bin/env python3
"""Generate a synthetic English-morphology corpus with reference analyses.

Writes a whitespace-tokenized corpus, a gold TSV of per-type analyses, and
the list of morphemic tags to keep during evaluation.
"""

import argparse

from morphseg import io
from morphseg.synth import generate

TOKENS_PER_LINE = 12


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokens", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus", default="corpus.txt")
    parser.add_argument("--gold", default="gold.tsv")
    parser.add_argument("--tags", default="tags.txt")
    args = parser.parse_args()
    if args.tokens < 1:
        parser.error("--tokens must be at least 1")
    if "" in (args.corpus, args.gold, args.tags):
        parser.error("output paths must not be empty")

    tokens, gold_lines, tags = generate(args.tokens, args.seed)
    io.write_lines(
        args.corpus,
        (" ".join(tokens[i : i + TOKENS_PER_LINE]) for i in range(0, len(tokens), TOKENS_PER_LINE)),
    )
    io.write_lines(args.gold, gold_lines)
    io.write_lines(args.tags, tags)
    print(
        "wrote %d tokens (%d types) to %s; gold analyses to %s; tags to %s"
        % (len(tokens), len(gold_lines), args.corpus, args.gold, args.tags)
    )


if __name__ == "__main__":
    main()
