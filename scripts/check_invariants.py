#!/usr/bin/env python3
"""End-to-end checks of the morphseg command on one corpus.

    python3 scripts/check_invariants.py {demo,long-words} DIR

demo is make_corpus.py's 40k-token seed-1 corpus, split 30k/10k; long-words
is perfbench/inputs.py's 6k-token seed-0 one, split 4.8k/1.2k. One pipeline
(compare, train with both methods and rec-mdl's cost curve, segment with
both methods, eval in file order, on shuffled records and with the split's
count files) runs `python -m morphseg.cli` from src/ under PYTHONHASHSEED 0
and 7, and on byte-order-mark copies of the inputs. Checks:
- the three runs write byte-identical trees, compare's table and train's
  cost curve included;
- train writes compare's models;
- segment with the seq-ml model writes compare's seq_ml.test_seg.tsv;
- eval of shuffled records gives file order's metrics and dump;
- eval with count files gives report.json's alignment fields exactly.
Prints compare's table; exits 1 naming the first mismatch.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import inputs  # noqa: E402  (perfbench/inputs.py)
from morphseg import io  # noqa: E402
from morphseg.corpus import read_corpus, split_corpus  # noqa: E402

SPLITS = {"demo": (30000, 10000), "long-words": (4800, 1200)}
INPUTS = ("corpus.txt", "gold.tsv", "tags.txt")
METHODS = ("rec_mdl", "seq_ml")


def run(hashseed, *argv):
    """Its stdout: python with argv and src/ on its path; exits on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hashseed))
    argv = [sys.executable, *map(str, argv)]
    proc = subprocess.run(argv, env=env, capture_output=True, encoding="utf-8")
    if proc.returncode:
        sys.exit("%s exited %d:\n%s" % (" ".join(argv), proc.returncode, proc.stderr))
    return proc.stdout


def pipeline(inp, d, hashseed, n_train, n_test):
    """Run every subcommand on the inputs in inp, writing into d; return d's files."""
    corpus, gold, tags = (inp / name for name in INPUTS)
    cli, out = [hashseed, "-m", "morphseg.cli"], d / "out"
    split = ["--corpus", corpus, "--train-tokens", n_train]
    table = run(*cli, "compare", *split, "--test-tokens", n_test, "--gold", gold, "--tags", tags,
                "--out-dir", out)  # compare makes d and out
    (d / "table.txt").write_text(table, "utf-8")
    for part, words in zip(["train", "test"], split_corpus(read_corpus(corpus), n_train, n_test)):
        io.save_word_counts(words.type_counts, d / f"{part}.counts")
    io.write_lines(d / "words.txt", sorted(words.type_counts))  # the held-out types
    for m in METHODS:
        curve = ["--cost-curve", d / "train.curve.csv"] if m == "rec_mdl" else []
        run(*cli, "train", "--method", m.replace("_", "-"), *split,
            "--model", d / f"train.{m}.model", *curve)
        run(*cli, "segment", "--model", out / f"{m}.model", "--words", d / "words.txt",
            "--out", d / f"segment.{m}.tsv")
        segs = [out / f"{m}.train_seg.tsv", out / f"{m}.test_seg.tsv"]
        shuffled = [d / f"shuffled.{seg.name}" for seg in segs]
        for seg, copy in zip(segs, shuffled):
            header, *records = seg.read_bytes().splitlines(keepends=True)
            random.Random(0).shuffle(records)
            copy.write_bytes(header + b"".join(records))
        evaluate = [*cli, "eval", "--gold", gold, "--tags", tags]
        for order, (train_seg, test_seg) in [("file", segs), ("shuffled", shuffled)]:
            stem = d / f"eval.{m}.{order}"
            run(*evaluate, "--train-seg", train_seg, "--test-seg", test_seg,
                "--out", f"{stem}.json", "--dump-alignments", f"{stem}.tsv")
        run(*evaluate, "--train-seg", segs[0], "--test-seg", segs[1],
            "--train-counts", d / "train.counts", "--test-counts", d / "test.counts",
            "--out", d / f"eval.{m}.counts.json")
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in d.rglob("*") if p.is_file()}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in SPLITS:
        sys.exit(__doc__)
    top, (n_train, n_test) = Path(sys.argv[2]).resolve(), SPLITS[sys.argv[1]]
    top.mkdir(parents=True, exist_ok=True)
    if any(top.iterdir()):
        sys.exit("%s is not empty" % (top,))
    inp, bom = top / "in", top / "bom"
    inp.mkdir()
    if sys.argv[1] == "demo":
        run(0, ROOT / "scripts" / "make_corpus.py", "--tokens", 40000, "--seed", 1,
            "--corpus", inp / INPUTS[0], "--gold", inp / INPUTS[1], "--tags", inp / INPUTS[2])
    else:
        inputs.make_compare_inputs(inp, "long", 6000, 0)
    bom.mkdir()
    for name in INPUTS:
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (inp / name).read_bytes())
    d0 = top / "hashseed0"
    expected = pipeline(inp, d0, 0, n_train, n_test)
    pairs = [("train and compare", d0 / "out" / name, d0 / f"train.{name}")
             for name in ("rec_mdl.model", "seq_ml.model")]
    pairs.append(("segment and compare", d0 / "out/seq_ml.test_seg.tsv", d0 / "segment.seq_ml.tsv"))
    pairs += [("shuffled eval", d0 / f"eval.{m}.file.{ext}", d0 / f"eval.{m}.shuffled.{ext}")
              for m in METHODS for ext in ("json", "tsv")]
    for what, a, b in pairs:
        if a.read_bytes() != b.read_bytes():
            sys.exit("%s: %s and %s differ" % (what, a, b))
    report = (d0 / "out" / "report.json").read_text("utf-8").splitlines()
    for m, row in zip(METHODS, map(json.loads, report)):
        ev = json.loads((d0 / f"eval.{m}.counts.json").read_text("utf-8"))
        for key in ("alignment_distance_bits", "unseen_pair_pct"):
            if ev[key] != row[key]:
                sys.exit("%s %s: count-file eval %r, report.json %r" % (m, key, ev[key], row[key]))
    for source, d, hashseed in [(inp, top / "hashseed7", 7), (bom, top / "bom_inputs", 0)]:
        got = pipeline(source, d, hashseed, n_train, n_test)
        differ = sorted(n for n in expected.keys() | got.keys() if expected.get(n) != got.get(n))
        if differ:
            sys.exit("%s differs between %s and %s" % (differ[0], d0, d))
    print(expected["table.txt"].decode("utf-8") + "every check passed in %s" % top)


if __name__ == "__main__":
    main()
