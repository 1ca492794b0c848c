"""Real-valued scoring with a one-unit head, next to a ridge baseline.

A head with one column is a regressor (``HeadConfig(1)``), trained with
mean squared error; two or more columns would make a classifier.

The worry scores are a linear function of word counts plus noise, which is
ridge regression's home turf; the encoder has to rediscover that structure
from scratch. Selection runs on dev RMSE, where lower is better.
"""

from nanobert import datagen
from nanobert.baselines import BowVectorizer, Ridge
from nanobert.checkpoint import Checkpoint
from nanobert.data import LabeledDataset, split
from nanobert.finetune import HeadConfig, attach_head, evaluate, train
from nanobert.metrics import pearson_r, rmse
from nanobert.model import ModelConfig, init_params
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng
from nanobert.tokenizer import train_bpe

texts, scores = datagen.anxiety_dataset(400)
ds = LabeledDataset(texts, scores, "real")
train_set, dev_set, test_set = split(ds, test_size=80, dev_size=40, seed=11)
y_test = test_set.label_array()
print(f"{len(train_set)} train / {len(dev_set)} dev / {len(test_set)} test")

vec = BowVectorizer.fit(train_set.texts)
ridge = Ridge(l2=1.0).fit(vec.transform(train_set.texts), train_set.label_array())
preds = ridge.predict(vec.transform(test_set.texts))
print(f"ridge    rmse {rmse(y_test, preds):.3f}  pearson {pearson_r(y_test, preds):.3f}")

tok = train_bpe(train_set.texts, vocab_size=200)
cfg = ModelConfig(num_layers=2, hidden_size=48, num_heads=2, ffn_size=96,
                  vocab_size=tok.vocab_size, max_positions=48, dropout=0.0)
base = Checkpoint(cfg, init_params(cfg, Rng(11).spawn("init")), tokenizer=tok)
headed = attach_head(base, HeadConfig(1), Rng(11).spawn("head"))
tc = TrainingConfig(num_train_epochs=15, train_batch_size=16, eval_batch_size=64,
                    learning_rate=2e-3, warmup_steps=20, logging_steps=1000,
                    metric_for_best_model="rmse", max_length=48, seed=11)
out = train(tc, headed, train_set, dev_set)
print(f"encoder: best epoch {out.best_epoch}, dev rmse {out.best_value:.3f}")

result = evaluate(out.checkpoint, test_set, max_length=48)
m = result["metrics"]
print(f"encoder  rmse {m['rmse']:.3f}  pearson {m['pearson_r']:.3f}")
