"""Pocket-size pretrain/finetune text pipeline in pure NumPy.

Importing the package pins BLAS to one thread before NumPy loads: a
multithreaded BLAS sums in another order, so the same config and seed would
give other bytes on another core count.
"""

import logging
import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(var) != "1" for var in _BLAS_THREADS):
    logging.getLogger(__name__).warning(
        "numpy was imported before nanobert, so its BLAS may use more than one thread "
        "and runs may not be byte-identical to one-thread runs")
os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

__version__ = "0.1.0"

from .baselines import fit_text_baseline
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import LabeledDataset, load_csv, split
from .finetune import (
    HeadConfig,
    attach_head,
    evaluate,
    predict,
    train,
)
from .metrics import classification_report, pearson_r, rmse
from .model import ModelConfig, init_params
from .numerics import grad_check
from .optim import TrainingConfig, select_best_epoch
from .pretrain import run_pretraining
from .rng import Rng
from .tokenizer import TokenizerModel, train_bpe

__all__ = [
    "Checkpoint",
    "HeadConfig",
    "LabeledDataset",
    "ModelConfig",
    "Rng",
    "TokenizerModel",
    "TrainingConfig",
    "attach_head",
    "classification_report",
    "evaluate",
    "fit_text_baseline",
    "grad_check",
    "init_params",
    "load_checkpoint",
    "load_csv",
    "pearson_r",
    "predict",
    "rmse",
    "run_pretraining",
    "save_checkpoint",
    "select_best_epoch",
    "split",
    "train",
    "train_bpe",
]
