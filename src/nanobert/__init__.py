"""Pocket-size pretrain/finetune text pipeline in pure NumPy."""

__version__ = "0.1.0"

from .baselines import fit_text_baseline
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import LabeledDataset, load_csv, split
from .finetune import (
    HeadConfig,
    attach_head,
    evaluate,
    grid_search,
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
    "grid_search",
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
