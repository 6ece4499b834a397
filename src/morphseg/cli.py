"""Command line interface.

Subcommands: train, segment, eval, compare. Exit codes: 0 on success,
2 on usage errors, 3 on data errors (unreadable input, bad file formats,
empty corpora and the like).
"""

import argparse
import json
import logging
import random
import sys
import time
from pathlib import Path

from . import align, io, mdl, ml, report
from .corpus import ALPHABETS, PreprocessConfig, read_corpus, split_corpus, truncate
from .errors import MorphsegError, NotTrainedError, UnsegmentableError
from .mdl import ChunkStore, MdlConfig
from .ml import MorphStats

_logger = logging.getLogger(__name__)

EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


def _add_corpus_options(p):
    p.add_argument("--corpus", required=True, help="raw text corpus (UTF-8)")
    p.add_argument(
        "--alphabet",
        default="english",
        help="preset (english, finnish) or explicit character set",
    )
    p.add_argument("--no-lowercase", action="store_true", help="keep original case")


def _add_method_options(p):
    p.add_argument("--char-bits", type=int, default=5, help="codebook bits per character")
    p.add_argument("--seed", type=int, default=mdl.DEFAULT_SEED, help="random seed")
    p.add_argument(
        "--dream-interval",
        type=int,
        default=MdlConfig.dream_interval,
        help="tokens between dreaming events for rec-mdl (0 disables)",
    )
    p.add_argument(
        "--dream-passes", type=int, default=MdlConfig.dream_passes,
        help="maximum reprocessing passes per dreaming event (at least 1)",
    )
    p.add_argument("--iterations", type=int, default=10, help="EM iterations for seq-ml")
    p.add_argument(
        "--lambda",
        dest="interval_mean",
        type=float,
        default=ml.DEFAULT_INTERVAL_MEAN,
        help="mean random segment length for seq-ml",
    )
    p.add_argument(
        "--no-reject", action="store_true",
        help="disable segmentation rejection and random fallback in seq-ml",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morphseg",
        description="Discover morphs from raw text and score them against reference analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a corpus")
    p_train.add_argument("--method", required=True, choices=["rec-mdl", "seq-ml"])
    _add_corpus_options(p_train)
    p_train.add_argument("--train-tokens", type=int, help="use only the first N tokens")
    p_train.add_argument("--model", required=True, help="output model file")
    p_train.add_argument("--cost-curve", help="write tokens,avg-cost CSV (rec-mdl)")
    _add_method_options(p_train)

    p_seg = sub.add_parser("segment", help="segment words with a trained model")
    p_seg.add_argument("--model", required=True)
    p_seg.add_argument("--words", required=True, help="one word per line")
    p_seg.add_argument("--out", help="output file (default stdout)")
    p_seg.add_argument("--no-lowercase", action="store_true")

    p_eval = sub.add_parser("eval", help="score segmentations against reference analyses")
    p_eval.add_argument("--train-seg", required=True, help="segmentation used to fit distances")
    p_eval.add_argument("--test-seg", required=True, help="segmentation to score")
    p_eval.add_argument("--gold", required=True, help="reference analyses TSV")
    p_eval.add_argument("--tags", help="file of tags to keep (default: keep all)")
    p_eval.add_argument("--train-counts", help="word<TAB>count file for token weighting")
    p_eval.add_argument("--test-counts", help="word<TAB>count file for token weighting")
    p_eval.add_argument("--max-distance", type=float, help="charge for unseen pairs")
    p_eval.add_argument("--em-iterations", type=int, default=align.DEFAULT_EM_ITERS)
    p_eval.add_argument("--dump-alignments", help="write per-word test alignments")
    p_eval.add_argument("--out", help="metrics output file (default stdout)")

    p_cmp = sub.add_parser("compare", help="train and evaluate both methods on one corpus")
    _add_corpus_options(p_cmp)
    p_cmp.add_argument("--train-tokens", type=int, required=True)
    p_cmp.add_argument("--test-tokens", type=int, required=True)
    p_cmp.add_argument("--gold", help="reference analyses TSV")
    p_cmp.add_argument("--tags", help="file of tags to keep")
    p_cmp.add_argument("--max-distance", type=float)
    p_cmp.add_argument("--cost-curve", help="write the rec-mdl cost curve CSV")
    p_cmp.add_argument("--out-dir", help="write models, segmentations and report here")
    _add_method_options(p_cmp)
    return parser


# -- train ----------------------------------------------------------------


def _checked_options(args, methods):
    """(preprocessing config, rec-mdl config or None) for the given methods.

    Raises UsageError or ValueError for an option the methods cannot use, so
    that train and compare reject it before any input is read.
    """
    # --alphabet is a preset name or an explicit string of allowed characters
    alphabet = ALPHABETS.get(args.alphabet) or frozenset(args.alphabet)
    pre = PreprocessConfig(alphabet=alphabet, lowercase=not args.no_lowercase)
    config = None
    if args.cost_curve and "rec-mdl" not in methods:
        raise UsageError("--cost-curve is the rec-mdl cost curve; seq-ml has none")
    if "rec-mdl" in methods:
        # len(alphabet) > 2**k without building 2**k: a huge k would need gigabytes
        if (len(pre.alphabet) - 1).bit_length() > args.char_bits:
            raise UsageError(
                "alphabet has %d characters; %d bits per character can code only %d"
                % (len(pre.alphabet), args.char_bits, 2 ** args.char_bits)
            )
        config = MdlConfig(
            char_bits=args.char_bits,
            dream_interval=args.dream_interval,
            dream_passes=args.dream_passes,
            seed=args.seed,
        )
    if "seq-ml" in methods:
        ml.check_interval_mean(args.interval_mean)
        if args.iterations < 1:
            raise UsageError("need at least one seq-ml iteration")
    return pre, config


def _train(method, args, config, corpus):
    """(model, training segmentation or None); rec-mdl writes --cost-curve if given.
    Logs one INFO record, args (method, tokens, morphs, bits of build_report,
    seconds spent in the training call)."""
    segmentation = None
    curve = [] if args.cost_curve and method == "rec-mdl" else None
    start = time.perf_counter()
    if method == "rec-mdl":
        model = mdl.train_online(corpus, config, curve=curve)
    else:
        segmentation, model = ml.train_em(
            corpus,
            iterations=args.iterations,
            rng=random.Random(args.seed),
            mean_interval=args.interval_mean,
            use_rejection=not args.no_reject,
        )
    seconds = time.perf_counter() - start
    if curve is not None:
        io.write_cost_curve(curve, args.cost_curve)
    # the cost on the scale of compare's report: corpus plus codebook bits
    row = report.build_report(model, char_bits=args.char_bits)
    _logger.info(
        "%s trained on %d tokens: %d morphs, %.1f bits, %.1f s",
        method, len(corpus), row.codebook_morphs, row.total_cost_bits, seconds,
    )
    return model, segmentation


def cmd_train(args):
    pre, config = _checked_options(args, (args.method,))
    corpus = read_corpus(args.corpus, pre)
    if args.train_tokens is not None:
        corpus = truncate(corpus, args.train_tokens)
    model, _ = _train(args.method, args, config, corpus)
    io.save_model(model, args.model)
    return 0


# -- segment ---------------------------------------------------------------


def _segment_with(model, word):
    if isinstance(model, ChunkStore):
        try:
            return model.segment_word(word)
        except NotTrainedError:
            # adapt online: process the word once, then trace it
            model.process_word(word)
            return model.segment_word(word)
    try:
        morphs, _ = ml.viterbi_segment(word, model)
        return morphs
    except UnsegmentableError:
        _logger.warning("no known morphs cover %r; kept whole", word)
        return [word]


def _read_words(path, lowercase):
    """The stripped non-blank lines of a word list; tokens of a type share one string.

    Raises MorphsegError, naming the line, for a word with whitespace inside
    it; each word type is checked once, when its string is first kept.
    """
    kept = {}
    words = []
    blank = 0  # lines skipped so far; with len(words) it numbers the line
    with open(path, encoding="utf-8") as f:
        for line in f:
            word = line.strip()
            if not word:
                blank += 1
                continue
            if lowercase:
                word = word.lower()
            try:
                words.append(kept[word])
            except KeyError:  # a new type
                if len(word.split()) > 1:
                    raise MorphsegError(
                        "%s line %d: whitespace inside word %r" % (path, len(words) + blank + 1, word)
                    ) from None
                kept[word] = word
                words.append(word)
    return words


def _segment_records(model, words):
    """One output record per word, in input order, made as they are consumed.

    A seq-ml model is frozen, so each word type is segmented once. A rec-mdl
    model adapts to unseen words in input order, so every token is traced.
    """
    frozen = isinstance(model, MorphStats)
    memo = {}
    for word in words:
        record = memo.get(word)
        if record is None:
            record = "%s\t%s" % (word, " ".join(_segment_with(model, word)))
            if frozen:
                memo[word] = record
        yield record


def cmd_segment(args):
    model = io.load_model(args.model)
    words = _read_words(args.words, not args.no_lowercase)
    io.write_records(args.out, [io.SEG_FORMAT, io.VERSION], _segment_records(model, words))
    return 0


# -- eval -------------------------------------------------------------------


def _counts_for(segmentation, path):
    if path:
        return io.load_word_counts(path)
    return {word: 1 for word in segmentation}


def cmd_eval(args):
    align.check_max_distance(args.max_distance)
    if args.em_iterations < 1:
        raise UsageError("need at least one alignment EM iteration")
    train_seg = io.load_segmentation(args.train_seg)
    test_seg = io.load_segmentation(args.test_seg)
    tag_filter = align.load_tag_filter(args.tags) if args.tags else None
    gold = align.load_gold(args.gold, tag_filter)
    train_counts = _counts_for(train_seg, args.train_counts)
    test_counts = _counts_for(test_seg, args.test_counts)
    result, table = align.evaluate(
        train_seg,
        test_seg,
        gold,
        train_counts,
        test_counts,
        max_iters=args.em_iterations,
        max_distance=args.max_distance,
    )
    record = {
        "alignment_distance_bits": result.alignment_distance_bits,
        "unseen_pair_pct": result.unseen_pair_pct,
        "max_distance": table.max_distance,
    }
    io.write_lines(args.out, [json.dumps(record, sort_keys=True)])
    if args.dump_alignments:
        lines = (
            align.format_alignment(word, test_seg[word], gold[word].labels, alignment)
            for word, alignment in sorted(result.alignments.items())
        )
        io.write_lines(args.dump_alignments, lines)
    return 0


# -- compare -----------------------------------------------------------------


def _segment_types(model, corpus):
    """Segment every corpus type; a rec-mdl model processes unknown types in first."""
    return {word: _segment_with(model, word) for word in corpus.type_counts}


# the same routine under a second name, so that the seq-ml segmentation can be
# wrapped (timed, counted) apart from the rec-mdl one
_segment_types_ml = _segment_types


def _compare_method(method, args, config, train, test, gold, out_dir):
    """Report row of one method; its model, segmentations and evaluation
    die with this call, before the next method runs."""
    model, train_seg = _train(method, args, config, train)
    prefix = method.replace("-", "_")
    if out_dir:
        io.save_model(model, out_dir / (prefix + ".model"))
    if method == "rec-mdl":
        train_seg = _segment_types(model, train)
        test_seg = _segment_types(model, test)  # adapts the store to unseen words
    else:
        test_seg = _segment_types_ml(model, test)
    evaluation = None
    if gold:
        evaluation, _ = align.evaluate(
            train_seg, test_seg, gold, train.type_counts, test.type_counts,
            max_distance=args.max_distance,
        )
    row = report.build_report(model, evaluation, args.char_bits)
    if out_dir:
        io.save_segmentation(train_seg, out_dir / (prefix + ".train_seg.tsv"))
        io.save_segmentation(test_seg, out_dir / (prefix + ".test_seg.tsv"))
    return row


def cmd_compare(args):
    pre, config = _checked_options(args, ("rec-mdl", "seq-ml"))
    align.check_max_distance(args.max_distance)
    train, test = split_corpus(read_corpus(args.corpus, pre), args.train_tokens, args.test_tokens)

    gold = None
    if args.gold:
        tag_filter = align.load_tag_filter(args.tags) if args.tags else None
        gold = align.load_gold(args.gold, tag_filter)

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    reports = [
        _compare_method(method, args, config, train, test, gold, out_dir)
        for method in ("rec-mdl", "seq-ml")
    ]
    if out_dir:
        report.write_metrics(reports, out_dir / "report.json")
    print(report.format_comparison(reports))
    return 0


_COMMANDS = {
    "train": cmd_train,
    "segment": cmd_segment,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnicodeDecodeError as exc:  # a ValueError, but unreadable input
        print("morphseg: error: input is not valid UTF-8: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print("morphseg: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MorphsegError as exc:
        print("morphseg: error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print("morphseg: error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
