"""Run configuration: INI file with [model], [task], [train], [bench] sections.

Each section is the dataclass it builds: its keys and their types are the
dataclass's fields, so a field is declared once and read and written with
no second edit. Every key is validated before anything is allocated;
unknown sections or keys are rejected by name. The model's data-dependent
fields (``train.TASK_DERIVED``) come from the task, so the [model] section
only describes architecture and the FFN variant.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path

from .model import ModelSpec
from .tasks import TaskSpec, build_task
from .train import TASK_DERIVED, TrainConfig, model_spec_for_task


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or invalid configuration entries."""


def _convert(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
            if value is None:
                raise ValueError(f"not a boolean: {raw!r}")
            return value
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


def _format(obj, key: str) -> str:
    """One INI value; the inverse of ``_convert`` and ``_parse_layers``."""
    value = getattr(obj, key)
    if key == "replaced_layers":
        if value == tuple(range(obj.depth)):
            return "all"
        return ",".join(str(i) for i in value) or "none"
    return str(value)


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


_SECTIONS = {"model": ModelSpec, "task": TaskSpec, "train": TrainConfig, "bench": BenchConfig}


def _schema(section: str) -> dict:
    """The section's keys, in field order, with their types."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    skip = TASK_DERIVED if cls is ModelSpec else ()
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name not in skip}


def _section_values(parser: configparser.ConfigParser, section: str) -> dict:
    schema = _schema(section)
    out = {}
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[key] = (_parse_layers(section, key, raw) if key == "replaced_layers"
                    else _convert(section, key, raw, schema[key]))
    return out


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` may carry CLI-level settings: seed (model and task) and dtype.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    kw = {section: _section_values(parser, section) for section in _SECTIONS}
    overrides = overrides or {}
    if overrides.get("seed") is not None:
        kw["model"]["seed"] = kw["task"]["seed"] = int(overrides["seed"])
    if overrides.get("dtype") is not None:
        kw["train"]["dtype"] = overrides["dtype"]

    try:
        task_spec = TaskSpec(**kw["task"])
        train_cfg = TrainConfig(**kw["train"])
        bench_cfg = BenchConfig(**kw["bench"])
        model_spec = model_spec_for_task(build_task(task_spec), **kw["model"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(model=model_spec, task=task_spec, train=train_cfg, bench=bench_cfg)


def write_resolved_config(path, run: RunConfig) -> None:
    """Write the fully-resolved configuration the run actually used."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        obj = getattr(run, section)
        parser[section] = {key: _format(obj, key) for key in _schema(section)}
    with open(path, "w", newline="\n") as fh:
        parser.write(fh)
