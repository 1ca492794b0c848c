"""Topic classification: count baselines against a finetuned encoder.

The topics are built from disjoint keyword pools, so bag-of-words methods
do very well here; the point of this script is the shared workflow, not a
win for the transformer. The word-order probe in 06 shows the reverse case.
"""

import numpy as np

from nanobert import datagen
from nanobert.baselines import fit_text_baseline
from nanobert.checkpoint import Checkpoint
from nanobert.data import LabeledDataset, split
from nanobert.finetune import HeadConfig, attach_head, evaluate, train
from nanobert.model import ModelConfig, init_params
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng
from nanobert.tokenizer import train_bpe

texts, labels = datagen.topic_dataset(300)
names = sorted(set(labels))
ds = LabeledDataset(texts, [names.index(l) for l in labels], "class", names)
train_set, dev_set, test_set = split(ds, test_size=60, dev_size=40, seed=11,
                                     stratify=True)
print(f"{len(train_set)} train / {len(dev_set)} dev / {len(test_set)} test, "
      f"{len(names)} classes")

for kind in ("naive_bayes", "maxent"):
    mdl = fit_text_baseline(kind, train_set)
    acc = float(np.mean(mdl.predict(test_set.texts) == test_set.label_array()))
    print(f"{kind:12s}  test accuracy {acc:.3f}")

tok = train_bpe(train_set.texts, vocab_size=200)
cfg = ModelConfig(num_layers=2, hidden_size=48, num_heads=2, ffn_size=96,
                  vocab_size=tok.vocab_size, max_positions=72, dropout=0.0)
base = Checkpoint(cfg, init_params(cfg, Rng(11).spawn("init")), tokenizer=tok)
headed = attach_head(base, HeadConfig(len(names)), Rng(11).spawn("head"),
                     label_names=names)
tc = TrainingConfig(num_train_epochs=12, train_batch_size=16, eval_batch_size=64,
                    learning_rate=2e-3, warmup_steps=20, logging_steps=1000,
                    metric_for_best_model="accuracy", max_length=72, seed=11)
out = train(tc, headed, train_set, dev_set)
print(f"\nencoder: best epoch {out.best_epoch}, dev accuracy {out.best_value:.3f}")

result = evaluate(out.checkpoint, test_set, max_length=72)
print(f"encoder       test accuracy {result['metrics']['accuracy']:.3f}")
