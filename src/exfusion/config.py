"""Run configuration: INI file with [model], [task], [train] sections.

Every key is validated before anything is allocated; unknown sections or
keys are rejected by name. The model's data-dependent fields (vocab,
classes, objective, max sequence length) derive from the task, so the
[model] section only describes architecture and the FFN variant.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .model import ModelSpec
from .tasks import TaskSpec, build_task
from .train import TrainConfig, model_spec_for_task


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or invalid configuration entries."""


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _convert(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            if raw.strip().lower() not in _BOOLS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOLS[raw.strip().lower()]
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _parse_layers(section: str, key: str, raw: str):
    raw = raw.strip().lower()
    if raw in ("all", ""):
        return None
    if raw == "none":
        return ()
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected 'all', 'none', or a comma list of layer indices; got {raw!r}"
        ) from None


MODEL_KEYS = {
    "depth": int, "dim": int, "heads": int, "expansion": int,
    "variant": str, "num_experts": int, "top_k": int, "momentum": float,
    "replaced_layers": "layers", "shared_router": bool, "expert_init": str,
    "freeze_fusion_weights": bool, "seed": int,
}

TASK_KEYS = {
    "task": str, "seq_len": int, "vocab_size": int, "num_classes": int,
    "train_size": int, "val_size": int, "noise": float, "val_fraction": float,
    "seed": int,
}

TRAIN_KEYS = {
    "steps": int, "batch_size": int, "base_lr": float, "min_lr": float,
    "warmup_steps": int, "weight_decay": float, "beta1": float, "beta2": float,
    "eps": float, "grad_clip": float, "log_interval": int,
    "checkpoint_interval": int, "dtype": str, "deterministic": bool,
}

BENCH_KEYS = {"timed_steps": int, "warmup_steps": int}

_SECTIONS = {"model": MODEL_KEYS, "task": TASK_KEYS, "train": TRAIN_KEYS, "bench": BENCH_KEYS}


@dataclass
class BenchConfig:
    timed_steps: int = 20
    warmup_steps: int = 3

    def __post_init__(self):
        if self.timed_steps < 1 or self.warmup_steps < 0:
            raise ValueError("need timed_steps >= 1 and warmup_steps >= 0")


@dataclass
class RunConfig:
    model: ModelSpec
    task: TaskSpec
    train: TrainConfig
    bench: BenchConfig


def _section_values(parser: configparser.ConfigParser, section: str) -> dict:
    schema = _SECTIONS[section]
    out = {}
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        kind = schema[key]
        out[key] = _parse_layers(section, key, raw) if kind == "layers" else _convert(section, key, raw, kind)
    return out


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` may carry CLI-level settings: seed, dtype, deterministic.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    model_kw = _section_values(parser, "model")
    task_kw = _section_values(parser, "task")
    train_kw = _section_values(parser, "train")
    bench_kw = _section_values(parser, "bench")

    overrides = overrides or {}
    if overrides.get("seed") is not None:
        model_kw["seed"] = task_kw["seed"] = int(overrides["seed"])
    if overrides.get("dtype") is not None:
        train_kw["dtype"] = overrides["dtype"]
    if overrides.get("deterministic"):
        train_kw["deterministic"] = True

    try:
        task_spec = TaskSpec(**task_kw)
        train_cfg = TrainConfig(**train_kw)
        bench_cfg = BenchConfig(**bench_kw)
        task = build_task(task_spec)
        model_spec = model_spec_for_task(task, **model_kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(model=model_spec, task=task_spec, train=train_cfg, bench=bench_cfg)


def write_resolved_config(path, run: RunConfig) -> None:
    """Write the fully-resolved configuration the run actually used."""
    parser = configparser.ConfigParser()
    model = dataclasses.asdict(run.model)
    for derived in ("vocab_size", "num_classes", "max_seq_len", "objective"):
        model.pop(derived)
    replaced = run.model.replaced_layers
    if replaced == tuple(range(run.model.depth)):
        model["replaced_layers"] = "all"
    else:
        model["replaced_layers"] = ",".join(str(i) for i in replaced) if replaced else "none"
    parser["model"] = {k: str(v) for k, v in model.items()}
    parser["task"] = {k: str(v) for k, v in run.task.to_dict().items()}
    parser["train"] = {k: str(v) for k, v in run.train.to_dict().items()}
    parser["bench"] = {k: str(v) for k, v in dataclasses.asdict(run.bench).items()}
    with open(path, "w", newline="\n") as fh:
        parser.write(fh)
