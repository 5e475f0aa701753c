import pytest

from exfusion.config import ConfigError, load_run_config, write_resolved_config

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
deterministic = true
"""


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

    def test_unknown_key_named(self, tmp_path):
        bad = FULL.replace("[model]\ndepth = 2", "[model]\nswizzle = 1\ndepth = 2")
        with pytest.raises(ConfigError, match="swizzle"):
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
        run = load_run_config(write(tmp_path, FULL),
                              overrides={"seed": 123, "dtype": "f64", "deterministic": True})
        assert run.model.seed == 123 and run.task.seed == 123
        assert run.train.dtype == "f64"


class TestResolvedRoundtrip:
    def test_write_then_reload_equal(self, tmp_path):
        run = load_run_config(write(tmp_path, FULL))
        out = tmp_path / "resolved_config.ini"
        write_resolved_config(out, run)
        again = load_run_config(out)
        assert again.model == run.model
        assert again.task == run.task
        assert again.train == run.train
