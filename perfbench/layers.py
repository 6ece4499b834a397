"""Per-layer instrumentation of ``morphseg`` and the metrics derived from it.

``install`` wraps each layer's functions at the names ``cli`` looks them up
by, so a following ``cli.main`` call is traced without any change to the
package. Phase-level calls record spans. Per-word calls are counted, and
timed one by one only where the timer is small next to the call:
``viterbi_segment``, ``align_word`` and test-time ``process_word`` are
timed, while ``segment_word`` (about a microsecond a call) is left
unwrapped and its time is read from the enclosing segmentation span.

``layer_metrics`` turns the traces of a workload's processes into the
per-layer metrics listed in BENCHMARK.json.
"""

import collections
import os
import time

from morphseg import align, cli, io, mdl, ml, report
from morphseg.errors import UnsegmentableError
from spans import duration, layer_self_times

_now = time.perf_counter


def install(tracer):
    """Wrap the package's layer functions in place, recording into tracer."""
    counts = tracer.counts
    span = tracer.span
    segment_span = {"name": None}  # set once the model kind is known

    # -- corpus ----------------------------------------------------------

    def corpus_read(result, args, kwargs, index):
        counts["corpus.tokens"] += len(result.tokens)
        counts["corpus.types"] += len(result.type_counts)

    def words_read(result, args, kwargs, index):
        counts["corpus.tokens"] += len(result)
        counts["corpus.types"] += len(set(result))
        # cmd_segment segments the list inline, then formats and writes the
        # output; that span is closed when the command returns
        name = segment_span["name"]
        counts[name + "_words"] += len(result)
        tracer.open(name)

    cli.read_corpus = span("corpus.read", cli.read_corpus, corpus_read)
    cli.split_corpus = span("corpus.split", cli.split_corpus)
    cli._read_words = span("corpus.read", cli._read_words, words_read)

    # -- mdl ---------------------------------------------------------------

    store_cls = mdl.ChunkStore
    segment_word = store_cls.segment_word

    def train_tokens(result, args, kwargs, index):
        counts["mdl.train_tokens"] += len(args[0].tokens)

    mdl.train_online = span("mdl.train", mdl.train_online, train_tokens)

    dream_span = span("mdl.dream", store_cls.dream)

    def dream(self, *args, **kwargs):
        before = self.tracked_cost
        result = dream_span(self, *args, **kwargs)
        counts["mdl.dream_events"] += 1
        counts["mdl.dream_gain_bits"] += before - self.tracked_cost
        return result

    reprocess = store_cls._reprocess

    def _reprocess(self, word):
        before = segment_word(self, word)
        reprocess(self, word)
        counts["mdl.dream_words"] += 1
        if segment_word(self, word) != before:
            counts["mdl.dream_changed"] += 1

    process_word = store_cls.process_word

    def timed_process_word(self, word):
        if tracer.innermost() == "mdl.train":
            return process_word(self, word)
        t0 = _now()
        result = process_word(self, word)
        counts["mdl.adapt_s"] += _now() - t0
        counts["mdl.adapted_words"] += 1
        return result

    store_cls.dream = dream
    store_cls._reprocess = _reprocess
    store_cls.process_word = timed_process_word

    def segmented_types(result, args, kwargs, index):
        counts[tracer.spans[index][0] + "_words"] += len(args[1].type_counts)

    cli._segment_types = span("mdl.segment", cli._segment_types, segmented_types)

    # -- ml ----------------------------------------------------------------

    ml.train_em = span("ml.train", ml.train_em)
    ml.MorphStats.from_segmentation = staticmethod(
        span("ml.stats", ml.MorphStats.from_segmentation)
    )
    viterbi_segment = ml.viterbi_segment

    def timed_viterbi(word, stats):
        t0 = _now()
        try:
            return viterbi_segment(word, stats)
        except UnsegmentableError:
            counts["ml.unsegmentable"] += 1
            raise
        finally:
            counts["ml.viterbi_s"] += _now() - t0
            counts["ml.viterbi_calls"] += 1
            counts["ml.viterbi_chars"] += len(word)

    reject = ml.reject

    def counted_reject(morphs, prev_type_usage):
        reason = reject(morphs, prev_type_usage)
        if reason:
            counts["ml.rejected"] += 1
        return reason

    random_segment = ml.random_segment

    def counted_random_segment(*args, **kwargs):
        counts["ml.random_segments"] += 1
        return random_segment(*args, **kwargs)

    ml.viterbi_segment = timed_viterbi
    ml.reject = counted_reject
    ml.random_segment = counted_random_segment
    cli._segment_types_ml = span("ml.segment", cli._segment_types_ml, segmented_types)

    # -- align -------------------------------------------------------------

    align.load_gold = span("align.load_gold", align.load_gold)
    align.load_tag_filter = span("align.load_gold", align.load_tag_filter)
    em_span = span("align.em", align.em_align)

    def em_align(segmented, gold, *args, **kwargs):
        calls_before = counts["align.align_word_calls"]
        table = em_span(segmented, gold, *args, **kwargs)
        words = sum(1 for w in segmented if w in gold)
        counts["align.em_iterations"] += (counts["align.align_word_calls"] - calls_before) // words
        return table

    def scored(result, args, kwargs, index):
        counts["align.unseen_pairs"] += result.unseen_pairs
        counts["align.aligned_pairs"] += result.aligned_pairs

    align_word = align.align_word
    first_em_call = {"span": None}

    def timed_align_word(morphs, labels, table):
        t0 = _now()
        top = tracer.open_spans[-1]
        if top != first_em_call["span"] and tracer.spans[top][0] == "align.em":
            # string-match initialisation runs from em_align's start up to
            # its first realignment
            first_em_call["span"] = top
            counts["align.init_s"] += t0 - tracer.spans[top][1]
        result = align_word(morphs, labels, table)
        counts["align.align_word_s"] += _now() - t0
        counts["align.align_word_calls"] += 1
        counts["align.cells"] += len(morphs) * len(labels)
        return result

    align.em_align = em_align
    align.score_segmentation = span("align.score", align.score_segmentation, scored)
    align.align_word = timed_align_word

    # -- io ----------------------------------------------------------------

    def written(result, args, kwargs, index):
        counts["io.bytes_written"] += os.path.getsize(args[1])

    def read(result, args, kwargs, index):
        counts["io.bytes_read"] += os.path.getsize(args[0])

    def model_read(result, args, kwargs, index):
        read(result, args, kwargs, index)
        segment_span["name"] = "mdl.segment" if isinstance(result, store_cls) else "ml.segment"

    for name in ("save_mdl_model", "save_ml_model", "save_segmentation"):
        setattr(io, name, span("io.save", getattr(io, name), written))
    io.load_mdl_model = span("io.load", io.load_mdl_model, model_read)
    io.load_ml_model = span("io.load", io.load_ml_model, model_read)
    io.load_segmentation = span("io.load", io.load_segmentation, read)
    io.sniff_format = span("io.load", io.sniff_format)

    # -- report and cli ----------------------------------------------------

    report.build_report = span("report.build", report.build_report)
    report.write_metrics = span("report.write", report.write_metrics)
    for name, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = span("cli." + name, fn)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(processes):
    """Per-layer metrics of one workload run.

    processes: (trace, wall seconds) for each process the workload ran;
    times and counts add up over them, ratios are taken of the sums.
    """
    c = collections.Counter()
    t = collections.Counter()
    layers = collections.Counter()
    iterations = 0
    for trace, wall in processes:
        spans = trace["spans"]
        c.update(trace["counts"])
        for s in spans:
            t[s[0]] += duration(s)
        layers.update(layer_self_times(spans, wall))
        # MorphStats is estimated once per EM iteration plus once at the end
        iterations += sum(
            1 for s in spans if s[0] == "ml.stats" and s[3] >= 0 and spans[s[3]][0] == "ml.train"
        ) - sum(1 for s in spans if s[0] == "ml.train")
    online_s = t["mdl.train"] - t["mdl.dream"]
    return {
        "corpus.read_s": t["corpus.read"],
        "corpus.tokens": c["corpus.tokens"],
        "corpus.types": c["corpus.types"],
        "mdl.train_s": t["mdl.train"],
        "mdl.online_s": online_s,
        "mdl.tokens_per_s": _ratio(c["mdl.train_tokens"], online_s),
        "mdl.dream_s": t["mdl.dream"],
        "mdl.dream_events": c["mdl.dream_events"],
        "mdl.dream_words": c["mdl.dream_words"],
        "mdl.dream_gain_bits": c["mdl.dream_gain_bits"],
        "mdl.dream_changed_ratio": _ratio(c["mdl.dream_changed"], c["mdl.dream_words"]),
        "mdl.adapted_words": c["mdl.adapted_words"],
        "mdl.adapt_s": c["mdl.adapt_s"],
        "mdl.segment_s": t["mdl.segment"],
        "mdl.segment_words": c["mdl.segment_words"],
        "ml.train_s": t["ml.train"],
        "ml.s_per_iteration": _ratio(t["ml.train"], iterations),
        "ml.segment_s": t["ml.segment"],
        "ml.viterbi_calls": c["ml.viterbi_calls"],
        "ml.viterbi_chars": c["ml.viterbi_chars"],
        "ml.viterbi_s": c["ml.viterbi_s"],
        "ml.viterbi_words_per_s": _ratio(c["ml.viterbi_calls"], c["ml.viterbi_s"]),
        "ml.rejected": c["ml.rejected"],
        "ml.unsegmentable": c["ml.unsegmentable"],
        "ml.viterbi_kept_ratio": _ratio(
            c["ml.viterbi_calls"] - c["ml.unsegmentable"] - c["ml.rejected"], c["ml.viterbi_calls"]
        ),
        "align.em_s": t["align.em"],
        "align.init_s": c["align.init_s"],
        "align.em_iterations": c["align.em_iterations"],
        "align.align_word_calls": c["align.align_word_calls"],
        "align.cells": c["align.cells"],
        "align.cells_per_s": _ratio(c["align.cells"], c["align.align_word_s"]),
        "align.score_s": t["align.score"],
        "align.unseen_pair_pct": 100.0 * _ratio(c["align.unseen_pairs"], c["align.aligned_pairs"]),
        "io.save_s": t["io.save"],
        "io.bytes_written": c["io.bytes_written"],
        "io.load_s": t["io.load"],
        "io.bytes_read": c["io.bytes_read"],
        "report.build_s": t["report.build"],
        "cli.self_s": layers["cli"],
    }
