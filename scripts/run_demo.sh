#!/bin/sh
# End-to-end demo: synthesize a corpus, then run every morphseg subcommand on
# it (compare both methods, keeping the table in table.txt, train each
# method and check that train writes the same models and cost curve as
# compare, segment the held-out words with each model and check that the
# seq-ml segmentation is compare's, evaluate one method's segmentations) and
# list the files written. Every file it writes is deterministic, so runs
# under different PYTHONHASHSEED values can be compared with diff -r.
set -e

DIR="${1:-demo_run}"
mkdir -p "$DIR"

python3 scripts/make_corpus.py --tokens 40000 --seed 1 \
    --corpus "$DIR/corpus.txt" --gold "$DIR/gold.tsv" --tags "$DIR/tags.txt"

# compare itself makes out/ and writes the cost curve inside it; the table
# holds no timing, so two runs can be compared with diff -r
morphseg compare \
    --corpus "$DIR/corpus.txt" --alphabet english \
    --train-tokens 30000 --test-tokens 10000 \
    --gold "$DIR/gold.tsv" --tags "$DIR/tags.txt" \
    --seed 42 --out-dir "$DIR/out" --cost-curve "$DIR/out/curve.csv" \
    > "$DIR/table.txt"
cat "$DIR/table.txt"

mkdir -p "$DIR/train"
morphseg train --method rec-mdl --corpus "$DIR/corpus.txt" --train-tokens 30000 \
    --seed 42 --model "$DIR/train/rec_mdl.model" --cost-curve "$DIR/train/curve.csv"
morphseg train --method seq-ml --corpus "$DIR/corpus.txt" --train-tokens 30000 \
    --seed 42 --model "$DIR/train/seq_ml.model"

# train and compare share one training path: their files must be identical
cmp "$DIR/out/rec_mdl.model" "$DIR/train/rec_mdl.model"
cmp "$DIR/out/seq_ml.model" "$DIR/train/seq_ml.model"
cmp "$DIR/out/curve.csv" "$DIR/train/curve.csv"

# the held-out word types, one per line, from compare's test segmentation
tail -n +2 "$DIR/out/seq_ml.test_seg.tsv" | cut -f1 > "$DIR/train/test_words.txt"
for method in rec_mdl seq_ml; do
    morphseg segment --model "$DIR/train/$method.model" \
        --words "$DIR/train/test_words.txt" --out "$DIR/train/$method.test_seg.tsv"
done
# a frozen seq-ml model segments the held-out types as compare did; rec-mdl
# is left out, because its store adapts to unseen words in input order (here
# sorted, in compare the corpus's order), so a few words can differ
cmp "$DIR/out/seq_ml.test_seg.tsv" "$DIR/train/seq_ml.test_seg.tsv"

morphseg eval --train-seg "$DIR/out/seq_ml.train_seg.tsv" \
    --test-seg "$DIR/train/seq_ml.test_seg.tsv" \
    --gold "$DIR/gold.tsv" --tags "$DIR/tags.txt" \
    --out "$DIR/train/seq_ml.eval.json" --dump-alignments "$DIR/train/seq_ml.alignments.txt"

echo
echo "artifacts in $DIR/out:"
ls "$DIR/out"
echo "artifacts in $DIR/train:"
ls "$DIR/train"
