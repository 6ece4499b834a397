"""Command line interface.

Subcommands: train, segment, eval, compare. Exit codes: 0 on success,
2 on usage errors, 3 on data errors (unreadable input, bad file formats,
empty corpora and the like).
"""

import argparse
import json
import logging
import random
import signal
import sys
import time
from pathlib import Path

from . import align, io, mdl, ml, report
from .corpus import ALPHABETS, check_split_sizes, read_corpus, split_corpus
from .errors import MorphsegError, NotTrainedError, UnsegmentableError
from .mdl import ChunkStore
from .ml import MorphStats

_logger = logging.getLogger(__name__)

EXIT_USAGE = 2
EXIT_DATA = 3


def _add_corpus_options(p):
    p.add_argument("--corpus", required=True, help="raw text corpus (UTF-8)")
    p.add_argument(
        "--alphabet",
        default="english",
        help="preset (english, finnish) or explicit character set",
    )


def _add_method_options(p):
    p.add_argument("--seed", type=int, default=mdl.DEFAULT_SEED, help="random seed")
    p.add_argument(
        "--dream-interval",
        type=int,
        default=mdl.DREAM_INTERVAL,
        help="tokens between dreaming events for rec-mdl (0 disables)",
    )
    p.add_argument("--iterations", type=int, default=ml.ITERATIONS, help="EM iterations for seq-ml")


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

    p_eval = sub.add_parser("eval", help="score segmentations against reference analyses")
    p_eval.add_argument("--train-seg", required=True, help="segmentation used to fit distances")
    p_eval.add_argument("--test-seg", required=True, help="segmentation to score")
    p_eval.add_argument("--gold", required=True, help="reference analyses TSV")
    p_eval.add_argument("--tags", help="file of tags to keep (default: keep all)")
    p_eval.add_argument("--train-counts", help="word<TAB>count file for token weighting")
    p_eval.add_argument("--test-counts", help="word<TAB>count file for token weighting")
    p_eval.add_argument("--dump-alignments", help="write per-word test alignments")
    p_eval.add_argument("--out", help="metrics output file (default stdout)")

    p_cmp = sub.add_parser("compare", help="train and evaluate both methods on one corpus")
    _add_corpus_options(p_cmp)
    p_cmp.add_argument("--train-tokens", type=int, required=True)
    p_cmp.add_argument("--test-tokens", type=int, required=True)
    p_cmp.add_argument("--gold", help="reference analyses TSV")
    p_cmp.add_argument("--tags", help="file of tags to keep")
    p_cmp.add_argument("--out-dir", help="write models, segmentations and report here")
    _add_method_options(p_cmp)
    return parser


# -- train ----------------------------------------------------------------


def _checked_options(args):
    """The alphabet of train's or compare's options.

    Raises ValueError for an option either method cannot use, whatever
    --method says, so that an unusable one is rejected before any input is read.
    """
    # --alphabet is a preset name or an explicit string of allowed characters,
    # lowercased as the text is
    alphabet = ALPHABETS.get(args.alphabet) or frozenset(args.alphabet.lower())
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    if args.dream_interval < 0:
        raise ValueError("dream interval must not be negative (0 disables dreaming)")
    mdl.check_codable("alphabet", alphabet)  # CHAR_BITS prices both codebooks
    if args.iterations < 1:
        raise ValueError("need at least one seq-ml iteration")
    return alphabet


def _check_output_dirs(paths, inputs, made_dir=None):
    """Raise MorphsegError naming an output path that is a directory (as the
    empty path '.' is), whose directory is missing, that resolves to the
    file of one of the inputs (paths the command reads) or of an earlier
    path, or a made_dir (the --out-dir compare makes at its first write)
    that is empty or whose nearest existing ancestor, itself included, is
    not a directory. None stands for an option not given."""
    if made_dir == "":
        raise MorphsegError("output directory is an empty path")
    made = made_dir and Path(made_dir).resolve()
    if made and not next(p for p in (made, *made.parents) if p.exists()).is_dir():
        raise MorphsegError("cannot make output directory below a file: %r" % (made_dir,))
    read = {Path(path).resolve() for path in inputs if path is not None}
    seen = set()
    for path in (str(path) for path in paths if path is not None):
        if Path(path).is_dir():
            raise MorphsegError("output file is a directory: %r" % (path,))
        resolved = Path(path).resolve()
        if not resolved.parent.is_dir() and resolved.parent != made:
            raise MorphsegError("output directory does not exist: %r" % (path,))
        if resolved in read:
            raise MorphsegError("output file is also an input: %r" % (path,))
        if resolved in seen:
            raise MorphsegError("one file named for two outputs: %r" % (path,))
        seen.add(resolved)


def _train(method, args, corpus, curve=None):
    """(model, training segmentation or None); rec-mdl appends its cost curve
    to curve if given. Writes no file.
    Logs one INFO record, args (method, tokens, morphs, bits of build_report,
    seconds spent in the training call)."""
    segmentation = None
    rng = random.Random(args.seed)
    start = time.perf_counter()
    if method == "rec-mdl":
        model = mdl.train_online(corpus, dream_interval=args.dream_interval, rng=rng, curve=curve)
    else:
        segmentation, model = ml.train_em(corpus, iterations=args.iterations, rng=rng)
    seconds = time.perf_counter() - start
    # the cost on the scale of compare's report: corpus plus codebook bits
    row = report.build_report(model)
    _logger.info(
        "%s trained on %d tokens: %d morphs, %.1f bits, %.1f s",
        method, len(corpus), row.codebook_morphs, row.total_cost_bits, seconds,
    )
    return model, segmentation


def cmd_train(args):
    alphabet = _checked_options(args)
    if args.train_tokens is not None:
        check_split_sizes(args.train_tokens)
    if args.cost_curve is not None and args.method == "seq-ml":
        raise ValueError("--cost-curve is the rec-mdl cost curve; seq-ml has none")
    _check_output_dirs([args.model, args.cost_curve], [args.corpus])
    corpus = read_corpus(args.corpus, alphabet)
    if args.train_tokens is not None:
        (corpus,) = split_corpus(corpus, args.train_tokens)
    curve = [] if args.cost_curve is not None else None
    model, _ = _train(args.method, args, corpus, curve)
    io.save_model(model, args.model)
    if curve is not None:
        io.write_cost_curve(curve, args.cost_curve)
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


def _read_words(path):
    """The lowercased, stripped non-blank lines of a word list; tokens of a
    type share one string.

    Raises MorphsegError, naming the line, for a word with whitespace inside
    it; each word type is checked once, when its string is first kept.
    """
    kept = {}
    words = []
    blank = 0  # lines skipped so far; with len(words) it numbers the line
    with io.reading(path) as f:
        for line in f:
            word = line.strip().lower()
            if not word:
                blank += 1
                continue
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
    _check_output_dirs([args.out], [args.model, args.words])
    model = io.load_model(args.model)
    words = _read_words(args.words)
    io.write_records(args.out, [io.SEG_FORMAT, io.VERSION], _segment_records(model, words))
    return 0


# -- eval -------------------------------------------------------------------


def _counts_for(segmentation, path):
    if path is not None:
        return io.load_word_counts(path)
    return {word: 1 for word in segmentation}


def _load_gold(args):
    """The reference analyses of --gold, keeping only the tags listed in --tags if given."""
    tag_filter = align.load_tag_filter(args.tags) if args.tags is not None else None
    return align.load_gold(args.gold, tag_filter)


def cmd_eval(args):
    inputs = [args.train_seg, args.test_seg, args.gold, args.tags, args.train_counts, args.test_counts]
    _check_output_dirs([args.out, args.dump_alignments], inputs)
    train_seg = io.load_segmentation(args.train_seg)
    test_seg = io.load_segmentation(args.test_seg)
    gold = _load_gold(args)
    train_counts = _counts_for(train_seg, args.train_counts)
    test_counts = _counts_for(test_seg, args.test_counts)
    table = align.em_align(train_seg, gold, train_counts)
    result = align.score_segmentation(test_seg, gold, test_counts, table)
    record = {
        "alignment_distance_bits": result.alignment_distance_bits,
        "unseen_pair_pct": result.unseen_pair_pct,
        "max_distance": table.max_distance,
    }
    io.write_lines(args.out, [json.dumps(record, sort_keys=True)])
    if args.dump_alignments is not None:
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


_COMPARE_METHODS = ("rec-mdl", "seq-ml")


def _compare_outputs(out_dir):
    """({method: [model, train seg, test seg]}, report): the paths compare writes in out_dir."""
    suffixes = (".model", ".train_seg.tsv", ".test_seg.tsv")
    files = {m: [out_dir / (m.replace("-", "_") + s) for s in suffixes] for m in _COMPARE_METHODS}
    return files, out_dir / "report.json"


def _compare_method(method, args, train, test, gold, files):
    """Report row of one method, its _compare_outputs files written if given;
    its model, segmentations and evaluation die with this call, before the next method runs."""
    model, train_seg = _train(method, args, train)
    if method == "rec-mdl":
        train_seg = _segment_types(model, train)  # every type is known: the store is unchanged
    table = evaluation = None
    if gold:
        table = align.em_align(train_seg, gold, train.type_counts)
    model_path, train_path, test_path = files or (None, None, None)
    if model_path:
        model_path.parent.mkdir(parents=True, exist_ok=True)  # made at the first write
        io.save_model(model, model_path)
    if method == "rec-mdl":
        test_seg = _segment_types(model, test)  # adapts the store to unseen words
    else:
        test_seg = _segment_types_ml(model, test)
    if gold:
        evaluation = align.score_segmentation(test_seg, gold, test.type_counts, table)
    row = report.build_report(model, evaluation)
    if model_path:
        io.save_segmentation(train_seg, train_path)
        io.save_segmentation(test_seg, test_path)
    return row


def cmd_compare(args):
    alphabet = _checked_options(args)
    check_split_sizes(args.train_tokens, args.test_tokens)
    if args.gold is None and args.tags is not None:
        raise ValueError("--tags applies to the alignment, which needs --gold")
    files, report_path = ({}, None) if args.out_dir is None else _compare_outputs(Path(args.out_dir))
    outputs = [*sum(files.values(), []), report_path]
    _check_output_dirs(outputs, [args.corpus, args.gold, args.tags], args.out_dir)
    train, test = split_corpus(read_corpus(args.corpus, alphabet), args.train_tokens, args.test_tokens)

    gold = _load_gold(args) if args.gold is not None else None
    if gold is not None:  # each side needs a word to fit or score before anything trains
        align.covered_words(train.type_counts, gold, "training word")
        align.covered_words(test.type_counts, gold, "test word")
    reports = [
        _compare_method(method, args, train, test, gold, files.get(method))
        for method in _COMPARE_METHODS
    ]
    if report_path:
        report.write_metrics(reports, report_path)
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
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print("morphseg: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (MorphsegError, OSError) as exc:
        print("morphseg: error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


def entry():
    if hasattr(signal, "SIGPIPE"):  # POSIX: a closed stdout ends it quietly, like other filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
