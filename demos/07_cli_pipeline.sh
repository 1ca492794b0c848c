#!/usr/bin/env bash
# End-to-end run through the command line: generate the bundled datasets,
# pretrain, finetune (and re-run it from its resolved config), evaluate
# against a count baseline, and predict.
# Writes everything under demos/out/. Sized to finish in a couple of minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=demos/out
rm -rf "$OUT"

python3 -m nanobert.datagen --output-dir "$OUT/data" --corpus-chars 30000

python3 -m nanobert pretrain --output-dir "$OUT/pretrain" \
    --set data.corpus="$OUT/data/corpus.txt" \
    --set tokenizer.vocab_size=200 \
    --set model.num_layers=2 --set model.hidden_size=32 \
    --set model.num_heads=2 --set model.ffn_size=64 --set model.dropout=0.0 \
    --set training.num_train_epochs=3 \
    --set training.per_device_train_batch_size=8 \
    --set training.learning_rate=1e-3 --set training.warmup_steps=50 \
    --set training.max_length=16

python3 -m nanobert finetune --output-dir "$OUT/finetune" \
    --set checkpoint.path="$OUT/pretrain/best.ckpt" \
    --set data.train="$OUT/data/topics.csv" \
    --set data.test_size=150 --set data.dev_size=100 \
    --set training.num_train_epochs=6 \
    --set training.per_device_train_batch_size=16 \
    --set training.learning_rate=2e-3 --set training.warmup_steps=20 \
    --set training.metric_for_best_model=accuracy \
    --set training.max_length=64

# a run directory re-runs from its resolved config to the same checkpoint
python3 -m nanobert finetune --config "$OUT/finetune/resolved_config.json" \
    --output-dir "$OUT/finetune_rerun"
cmp "$OUT/finetune/best.ckpt" "$OUT/finetune_rerun/best.ckpt"
echo "finetune re-ran from its resolved_config.json to a byte-identical best.ckpt"

python3 -m nanobert evaluate --output-dir "$OUT/eval" \
    --set checkpoint.path="$OUT/finetune/best.ckpt" \
    --set data.test="$OUT/data/order_test.csv" 2>/dev/null \
    || echo "(evaluate refused the order CSV: its classes do not match the head)"

python3 -m nanobert evaluate --output-dir "$OUT/eval" \
    --set checkpoint.path="$OUT/finetune/best.ckpt" \
    --set data.test="$OUT/data/topics.csv" \
    --set eval.max_length=64

python3 -m nanobert baseline --output-dir "$OUT/baseline" \
    --set data.train="$OUT/data/topics.csv" --set data.test_size=150

python3 -m nanobert predict --output-dir "$OUT/predict" \
    --set checkpoint.path="$OUT/finetune/best.ckpt" \
    --set data.input="$OUT/data/topics.csv" \
    --set predict.max_length=64

echo
echo "run directories:"
python3 -m nanobert report "$OUT/eval" "$OUT/baseline"
echo
head -n 4 "$OUT/predict/predictions.csv"
