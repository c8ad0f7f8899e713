#!/usr/bin/env bash
# Run a fixed set of mllgraph CLI commands from one source tree and print the
# sha256 of every file they write, console output included, one line per file
# with paths relative to WORK_DIR.
#
#   tools/artifact_run.sh SRC_DIR WORK_DIR [EPOCHS] > manifest.txt
#
# SRC_DIR is the tree's `src` directory. WORK_DIR is emptied first. Two trees
# that should write the same bytes must be run with the same absolute
# WORK_DIR, since config.json records the corpus paths; run one, keep its
# manifest, then run the other and compare the manifests. EPOCHS (default 3)
# is the phase-2 epoch count of each `train`. On the default 39-class corpus
# every variant trains at the defaults, and MLL-GCN once more with the
# conditional adjacency and once with a non-default weighting and threshold.
# A second corpus is synthesized with prototype_correlation 0.3 (structure
# prototypes mixed with their plane's shared direction), and one MLL-GCN-CRC
# train runs with no data paths, on the corpus it synthesizes in-process.
# Every run sets its config with --set except one MLL-GCN-CRC train, driven
# by a --config file the script writes, which gives JSON integers to float
# fields (loss.alpha and loss.beta, train.momentum, kmeans.tol).
# The Single-MLL checkpoint is also evaluated on a corpus made by hand from
# the default one, in forms its writer never gives: the first 300 lines, some
# features as JSON integers (2**53 + 1 among them) and as true/false, CRLF
# line endings and one blank line.
# Besides that corpus, a 1000-class one (250 SP + 750 AS, 1000 samples) is synthesized,
# trained on as MLL-GCN-CRC with 16 GloVe epochs, evaluated in both SP modes
# and exported in all four forms; its binarized B-hat is sparse, so the GCN
# head gathers most of its rows, and every load of that checkpoint, export's
# included, builds that gathered graph. One more 1000-class MLL-GCN train uses the conditional adjacency over
# a corpus it synthesizes in-process (1 SP + 999 AS, every structure drawn at
# 0.08), whose B-hat is 94% non-zero: every row of it stays on the dense
# path. `metrics-oracle` rechecks every eval report and the 1000-class
# train's two reports from their score files (with the report's SP mode and
# vocabulary); a disagreement or an unreadable score file stops the script.
set -euo pipefail

src=$(cd "$1" && pwd)
work=$2
epochs=${3:-3}
rm -rf "$work"
mkdir -p "$work/console"
work=$(cd "$work" && pwd)

run() {
    local name=$1
    shift
    PYTHONPATH="$src" python3 -m mllgraph.cli "$@" > "$work/console/$name.txt"
}

# oracle NAME DIR MODE REPORT SCORES: recheck DIR/REPORT against DIR/SCORES
oracle() {
    run "oracle-$1" metrics-oracle --scores "$2/$5" --report "$2/$4" --sp-mode "$3" \
        --vocabulary "$2/vocabulary.json"
}

corpus=("--set" "data.dataset_path=$work/corpus/dataset.jsonl"
        "--set" "data.vocabulary_path=$work/corpus/vocabulary.json")
wide=("--set" "data.dataset_path=$work/wide/corpus/dataset.jsonl"
      "--set" "data.vocabulary_path=$work/wide/corpus/vocabulary.json")

run synth synth --seed 4 --out "$work/corpus"
for variant in Single-MLL MLL-CL MLL-CRC MLL-GCN MLL-GCN-CL MLL-GCN-CRC; do
    run "train-$variant" train --seed 3 --variant "$variant" --out "$work/train/$variant" \
        --set "train.epochs=$epochs" "${corpus[@]}"
    for mode in exact argmax; do
        run "eval-$variant-$mode" eval --checkpoint "$work/train/$variant/checkpoint.mllg" \
            --data "$work/corpus/dataset.jsonl" --sp-mode "$mode" --out "$work/eval/$variant/$mode"
        oracle "eval-$variant-$mode" "$work/eval/$variant/$mode" "$mode" metrics.json scores.csv
    done
done
# the hand-made corpus: integer and bool features, CRLF endings, a blank line
mkdir -p "$work/handmade"
python3 - "$work/corpus/dataset.jsonl" "$work/handmade/dataset.jsonl" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    records = [json.loads(next(fh)) for _ in range(300)]
for i, rec in enumerate(records):
    feats = rec["features"]
    if i % 3 == 0:
        feats[i % len(feats)] = round(feats[i % len(feats)])
    if i % 7 == 0:
        feats[(i + 1) % len(feats)] = i % 2 == 0
records[5]["features"][0] = 2**53 + 1
lines = [json.dumps(rec) for rec in records]
lines.insert(150, "")
with open(sys.argv[2], "w", encoding="utf-8", newline="") as fh:
    fh.write("".join(line + "\r\n" for line in lines))
PY
run eval-handmade eval --checkpoint "$work/train/Single-MLL/checkpoint.mllg" \
    --data "$work/handmade/dataset.jsonl" --sp-mode exact --out "$work/handmade/eval"
oracle eval-handmade "$work/handmade/eval" exact metrics.json scores.csv
# off the defaults: the conditional adjacency, and a binarized one at another
# threshold over a non-default count weighting
run train-MLL-GCN-conditional train --seed 3 --variant MLL-GCN --out "$work/train/MLL-GCN-conditional" \
    --set "train.epochs=$epochs" --set adjacency.mode=conditional "${corpus[@]}"
run train-MLL-GCN-weighting train --seed 3 --variant MLL-GCN --out "$work/train/MLL-GCN-weighting" \
    --set "train.epochs=$epochs" --set weighting.x_max=7 --set weighting.exponent=0.5 \
    --set adjacency.threshold=0.25 "${corpus[@]}"
# the shared-direction prototypes, and a train on the corpus it synthesizes itself
run synth-ambiguous synth --seed 4 --out "$work/ambiguous" --set synthetic.prototype_correlation=0.3
run train-synthesized train --seed 3 --variant MLL-GCN-CRC --out "$work/train/synthesized" \
    --set "train.epochs=$epochs"
# a train driven by a config file that gives JSON integers to float fields
# (loss.alpha, loss.beta, train.momentum, kmeans.tol): config.json and the
# checkpoint header keep them as integers, never coerced to floats
cat > "$work/integer-floats.json" <<JSON
{"data": {"dataset_path": "$work/corpus/dataset.jsonl", "vocabulary_path": "$work/corpus/vocabulary.json"},
 "train": {"epochs": $epochs, "momentum": 0}, "loss": {"alpha": 1, "beta": 0}, "kmeans": {"tol": 0}}
JSON
run train-config-file train --seed 3 --variant MLL-GCN-CRC --out "$work/train/config-file" \
    --config "$work/integer-floats.json"
for what in embeddings correlation clusters projection; do
    run "export-$what" export --checkpoint "$work/train/MLL-GCN-CRC/checkpoint.mllg" \
        --what "$what" --out "$work/export/$what"
done

# 1000 classes: per-class AP then runs over many column blocks
run synth-wide synth --seed 4 --out "$work/wide/corpus" --set synthetic.sp_count=250 \
    --set synthetic.as_count=750 --set synthetic.n_samples=1000
run train-wide train --seed 3 --variant MLL-GCN-CRC --out "$work/wide/train" \
    --set "train.epochs=$epochs" --set glove.epochs=16 "${wide[@]}"
for split in val test; do
    oracle "train-wide-$split" "$work/wide/train" exact "metrics_$split.json" "scores_$split.csv"
done
for mode in exact argmax; do
    run "eval-wide-$mode" eval --checkpoint "$work/wide/train/checkpoint.mllg" \
        --data "$work/wide/corpus/dataset.jsonl" --sp-mode "$mode" --out "$work/wide/eval/$mode"
    oracle "eval-wide-$mode" "$work/wide/eval/$mode" "$mode" metrics.json scores.csv
done
# every export of that checkpoint: loading it builds the gathered graph in a
# command that scores nothing
for what in embeddings correlation clusters projection; do
    run "export-wide-$what" export --checkpoint "$work/wide/train/checkpoint.mllg" \
        --what "$what" --out "$work/wide/export/$what"
done
# 1000 classes on the dense path: a conditional B-hat with no sparse row
profile=$(python3 -c 'print([[0.08] * 999])' | tr -d ' ')
run train-wide-conditional train --seed 3 --variant MLL-GCN --out "$work/wide/conditional" \
    --set "train.epochs=$epochs" --set glove.epochs=16 --set adjacency.mode=conditional \
    --set synthetic.sp_count=1 --set synthetic.as_count=999 --set synthetic.n_samples=1000 \
    --set "synthetic.structure_profile=$profile"

cd "$work"
find . -type f | LC_ALL=C sort | xargs sha256sum
