import configparser
import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfusion.config import (
    BenchConfig,
    ConfigError,
    RunConfig,
    load_run_config,
    write_resolved_config,
)
from exfusion.model import ModelSpec
from exfusion.tasks import TaskSpec
from exfusion.train import TASK_DERIVED, TrainConfig

FULL = """
[model]
depth = 2
dim = 16
heads = 2
expansion = 2
variant = mb
num_experts = 4
top_k = 1
momentum = 0.95
replaced_layers = all
shared_router = true
expert_init = independent
seed = 9

[task]
task = synthetic_cluster
seq_len = 8
vocab_size = 16
num_classes = 4
train_size = 128
val_size = 32
noise = 0.3
seed = 9

[train]
steps = 20
batch_size = 8
base_lr = 1e-3
min_lr = 1e-5
warmup_steps = 5
weight_decay = 0.05
grad_clip = 1.0
log_interval = 10
checkpoint_interval = 10
dtype = f32
"""


# Every key of every section, each set away from its default.
EVERY_KEY = """
[model]
depth = 2
dim = 16
heads = 2
expansion = 2
variant = mb
num_experts = 3
top_k = 2
momentum = 0.9
replaced_layers = 1
shared_router = false
expert_init = replicate
freeze_fusion_weights = true
seed = 9

[task]
task = char_lm
seq_len = 8
vocab_size = 16
num_classes = 4
train_size = 128
val_size = 32
noise = 0.3
val_fraction = 0.2
seed = 9

[train]
steps = 20
batch_size = 8
base_lr = 2e-3
min_lr = 2e-5
warmup_steps = 5
weight_decay = 0.01
beta1 = 0.8
beta2 = 0.99
eps = 1e-7
grad_clip = 0.5
log_interval = 10
checkpoint_interval = 10
dtype = f64

[bench]
timed_steps = 5
warmup_steps = 1
"""

SECTIONS = {"model": ModelSpec, "task": TaskSpec, "train": TrainConfig, "bench": BenchConfig}


def schema_keys(section):
    """The INI keys of a section: its dataclass's fields, less the task-derived ones."""
    skip = TASK_DERIVED if section == "model" else ()
    return [f.name for f in dataclasses.fields(SECTIONS[section]) if f.name not in skip]


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoad:
    def test_full_config(self, tmp_path):
        run = load_run_config(write(tmp_path, FULL))
        assert run.model.variant == "mb" and run.model.dim == 16
        assert run.model.vocab_size == 16          # derived from task
        assert run.model.num_classes == 4
        assert run.model.max_seq_len == 8
        assert run.model.objective == "classification"
        assert run.task.train_size == 128
        assert run.train.steps == 20
        assert run.bench.timed_steps == 20          # defaulted

    def test_charlm_vocab_derived_from_text(self, tmp_path):
        cfg = FULL.replace("task = synthetic_cluster", "task = char_lm")
        run = load_run_config(write(tmp_path, cfg))
        assert run.model.objective == "lm"
        assert run.model.vocab_size > 20            # from the bundled text

    @pytest.mark.parametrize("section, line, key", [
        ("model", "swizzle = 1", "swizzle"),
        ("train", "deterministic = true", "deterministic"),  # a retired key
    ], ids=["model_swizzle", "train_deterministic"])
    def test_unknown_key_named(self, tmp_path, section, line, key):
        bad = FULL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
            load_run_config(write(tmp_path, bad))

    def test_unknown_section_named(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_run_config(write(tmp_path, FULL + "\n[mystery]\nx = 1\n"))

    def test_invalid_value_names_key(self, tmp_path):
        bad = FULL.replace("num_experts = 4", "num_experts = 0")
        with pytest.raises(ConfigError, match="num_experts"):
            load_run_config(write(tmp_path, bad))
        bad = FULL.replace("momentum = 0.95", "momentum = about-one")
        with pytest.raises(ConfigError, match="momentum"):
            load_run_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.ini")

    def test_replaced_layers_forms(self, tmp_path):
        run = load_run_config(write(tmp_path, FULL.replace(
            "replaced_layers = all", "replaced_layers = 0")))
        assert run.model.replaced_layers == (0,)
        run = load_run_config(write(tmp_path, FULL.replace(
            "replaced_layers = all", "replaced_layers = none")))
        assert run.model.replaced_layers == ()

    def test_overrides(self, tmp_path):
        run = load_run_config(write(tmp_path, FULL), overrides={"seed": 123, "dtype": "f64"})
        assert run.model.seed == 123 and run.task.seed == 123
        assert run.train.dtype == "f64"


    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("1", True), ("yes", True), ("on", True),
        ("false", False), ("0", False), ("no", False), ("off", False), (" Off ", False),
    ])
    def test_boolean_spellings(self, tmp_path, raw, value):
        run = load_run_config(write(tmp_path, FULL.replace("shared_router = true",
                                                           f"shared_router = {raw}")))
        assert run.model.shared_router is value

    def test_non_boolean_names_key(self, tmp_path):
        bad = FULL.replace("shared_router = true", "shared_router = maybe")
        with pytest.raises(ConfigError, match="shared_router.*not a boolean"):
            load_run_config(write(tmp_path, bad))

    @pytest.mark.parametrize("key, value", [
        ("beta1", "1.5"), ("beta1", "-0.1"), ("beta2", "1.0"), ("eps", "0"), ("eps", "inf"),
        ("weight_decay", "-5"), ("weight_decay", "nan"), ("base_lr", "nan"), ("min_lr", "nan"),
        ("grad_clip", "nan"),
    ])
    def test_invalid_optimizer_setting_names_key(self, tmp_path, key, value):
        bad = re.sub(rf"^{key} = .*\n", "", FULL, flags=re.M)
        bad = bad.replace("[train]\n", f"[train]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_run_config(write(tmp_path, bad))


@pytest.mark.parametrize("spec", [
    ModelSpec(depth=3, dim=16, heads=2, expansion=2, vocab_size=9, num_classes=3,
              max_seq_len=6, variant="mb", replaced_layers=[2, 0]),
    ModelSpec(depth=3, dim=16, heads=2, expansion=2, vocab_size=9, num_classes=3,
              max_seq_len=6, variant="sw"),
    TaskSpec(task="char_lm", seq_len=4, noise=0.5),
    TrainConfig(steps=7, warmup_steps=2, dtype="f64"),
], ids=["model_replaced_layers", "model_all_layers", "task", "train"])
def test_to_dict_is_asdict(spec):
    got = spec.to_dict()
    assert got == dataclasses.asdict(spec)
    assert json.dumps(got, sort_keys=True) == json.dumps(dataclasses.asdict(spec), sort_keys=True)
    assert spec.to_dict() is not got


class TestResolvedRoundtrip:
    def test_write_then_reload_equal(self, tmp_path):
        run = load_run_config(write(tmp_path, EVERY_KEY))
        assert run.model.replaced_layers == (1,)
        for section, cls in SECTIONS.items():
            obj = getattr(run, section)
            for f in dataclasses.fields(cls):
                if f.name in schema_keys(section) and f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) != f.default, f"[{section}] {f.name} left at default"
        out = tmp_path / "resolved_config.ini"
        write_resolved_config(out, run)
        written = configparser.ConfigParser()
        written.read(out)
        assert written.sections() == list(SECTIONS)
        for section in SECTIONS:
            assert list(written[section]) == schema_keys(section)
        again = load_run_config(out)
        assert again.model == run.model
        assert again.task == run.task
        assert again.train == run.train
        assert again.bench == run.bench


def test_readme_example_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    example = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    example.read_string(block)
    assert example.sections() == list(SECTIONS)
    for section in SECTIONS:
        assert sorted(example[section]) == sorted(schema_keys(section)), section
    load_run_config(write(tmp_path, block))  # and every value in it is valid


# Keys whose value sizes what building the task allocates: they draw only
# small ints or text that is not an int, so every example stays a few MB.
SIZE_KEYS = {"depth", "dim", "heads", "expansion", "seq_len", "vocab_size", "num_classes",
             "train_size", "val_size", "steps"}
WORDS = ["%", "mb%", "%(x)s", "%(depth)s", "%%", "(", "nan", "inf", "-inf", "-1e-3", "0.5",
         "1e-8", "0.999", "2.5", "", "all", "none", "0,1", "1,", "true", "off", "mb", "dw",
         "moe", "replicate", "independent", "char_lm", "synthetic_cluster", "f32", "f64"]
TEXT = st.one_of(st.sampled_from(WORDS),
                 st.text(st.characters(codec="utf-8", exclude_categories=("Cc", "Cs")),
                         max_size=8))
SMALL_INTS = st.integers(-3, 64).map(str)


def _is_int(raw: str) -> bool:
    try:
        int(raw)
    except ValueError:
        return False
    return True


def _value(key: str):
    if key in SIZE_KEYS:
        return SMALL_INTS | TEXT.filter(lambda raw: not _is_int(raw))
    return SMALL_INTS | TEXT


def _base() -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(EVERY_KEY)
    return {section: dict(parser[section]) for section in SECTIONS}


KEYS = [(section, key) for section in SECTIONS for key in schema_keys(section)]


@st.composite
def _configs(draw) -> str:
    """EVERY_KEY with one to four of its values redrawn."""
    values = _base()
    for section, key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4,
                                      unique=True)):
        values[section][key] = draw(_value(key))
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in values.items())


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(text=_configs())
def test_any_value_gives_a_run_config_or_a_config_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text(text, encoding="utf-8")
    try:
        run = load_run_config(path)
    except ConfigError:
        return
    assert isinstance(run, RunConfig)
    write_resolved_config(path, run)
    again = load_run_config(path)
    assert (again.model, again.task, again.train, again.bench) == (
        run.model, run.task, run.train, run.bench)
