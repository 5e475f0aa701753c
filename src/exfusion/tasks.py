"""Desk-scale training tasks, fully determined by a seed.

SyntheticCluster: sequences sampled around per-class Gaussian centers and
quantized to token ids; separable enough that a counting probe clears 90%.
CharLM: next-character prediction over a small bundled public-domain text,
split into disjoint train/validation regions.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import name_rng

TASKS = ("synthetic_cluster", "char_lm")


@dataclass
class TaskSpec:
    task: str = "synthetic_cluster"
    seq_len: int = 32
    vocab_size: int = 32
    num_classes: int = 8
    train_size: int = 2048
    val_size: int = 256
    noise: float = 0.25
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}; got {self.task!r}")
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1; got {self.seq_len}")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2; got {self.vocab_size}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2; got {self.num_classes}")
        if self.train_size < 1 or self.val_size < 1:
            raise ValueError("train_size and val_size must be >= 1")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ValueError(f"noise must be finite and > 0; got {self.noise}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1); got {self.val_fraction}")

    def to_dict(self) -> dict:
        return dict(vars(self))


def load_bundled_text() -> str:
    return (importlib.resources.files("exfusion") / "data" / "charlm.txt").read_text("utf-8")


class SyntheticClusterTask:
    """Classify which Gaussian cluster a quantized token sequence came from."""

    objective = "classification"

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        rng = name_rng(spec.seed, "task.centers")
        self.centers = rng.normal(size=(spec.num_classes, spec.seq_len))
        self.train_tokens, self.train_labels = self._sample(spec.train_size, "task.train")
        self.val_tokens, self.val_labels = self._sample(spec.val_size, "task.val")
        self._drop_val_leaks()

    @property
    def vocab_size(self) -> int:
        return self.spec.vocab_size

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def train_examples(self) -> int:
        return self.train_tokens.shape[0]

    def _sample(self, n: int, tag: str):
        rng = name_rng(self.spec.seed, tag)
        labels = rng.integers(0, self.spec.num_classes, size=n)
        z = self.centers[labels] + self.spec.noise * rng.normal(size=(n, self.spec.seq_len))
        return self._quantize(z), labels

    def _quantize(self, z: np.ndarray) -> np.ndarray:
        v = self.spec.vocab_size
        bins = np.floor((z + 3.0) / 6.0 * v).astype(np.int64)
        return np.clip(bins, 0, v - 1)

    def _drop_val_leaks(self) -> None:
        # exact duplicates across the split are astronomically unlikely but
        # the disjointness contract is checked, not assumed
        train_keys = {row.tobytes() for row in self.train_tokens}
        keep = np.array([row.tobytes() not in train_keys for row in self.val_tokens])
        if not keep.any():
            s = self.spec
            raise ValueError(
                f"empty validation split: all {s.val_size} validation rows also occur among the "
                f"{s.train_size} training rows (seq_len {s.seq_len}, vocab_size {s.vocab_size}, "
                f"noise {s.noise}, seed {s.seed}); use a longer sequence, a larger vocabulary "
                f"or more noise")
        if not keep.all():
            self.val_tokens = self.val_tokens[keep]
            self.val_labels = self.val_labels[keep]

    def batch(self, step: int, batch_size: int):
        rng = name_rng(self.spec.seed, f"task.batch.{step}")
        idx = rng.integers(0, self.train_tokens.shape[0], size=batch_size)
        return self.train_tokens[idx], self.train_labels[idx]

    def val_data(self):
        return self.val_tokens, self.val_labels


class CharLMTask:
    """Next-character prediction over the bundled text."""

    objective = "lm"

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        text = load_bundled_text()
        chars = sorted(set(text))
        self.itos = chars
        self.stoi = {c: i for i, c in enumerate(chars)}
        ids = np.array([self.stoi[c] for c in text], dtype=np.int64)
        cut = int(len(ids) * (1.0 - spec.val_fraction))
        if cut <= spec.seq_len or len(ids) - cut <= spec.seq_len:
            raise ValueError("text too short for the requested seq_len/val_fraction")
        self.train_ids = ids[:cut]
        self.val_ids = ids[cut:]
        # every seq_len window of the training text, as a view; a batch is
        # two fancy-index copies from it, inputs and the targets one further
        self._windows = sliding_window_view(self.train_ids, spec.seq_len)

    @property
    def vocab_size(self) -> int:
        return len(self.itos)

    @property
    def num_classes(self) -> int:
        return len(self.itos)

    @property
    def train_examples(self) -> int:
        return len(self.train_ids) - self.spec.seq_len

    def batch(self, step: int, batch_size: int):
        l = self.spec.seq_len
        rng = name_rng(self.spec.seed, f"task.batch.{step}")
        starts = rng.integers(0, len(self.train_ids) - l - 1, size=batch_size)
        return self._windows[starts], self._windows[starts + 1]

    def val_data(self):
        l = self.spec.seq_len
        n = (len(self.val_ids) - 1) // l
        x = np.stack([self.val_ids[i * l:(i + 1) * l] for i in range(n)])
        y = np.stack([self.val_ids[i * l + 1:(i + 1) * l + 1] for i in range(n)])
        return x, y


def build_task(spec: TaskSpec):
    if spec.task == "synthetic_cluster":
        return SyntheticClusterTask(spec)
    return CharLMTask(spec)
