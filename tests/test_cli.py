import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from exfusion import _entry, cli
from exfusion.checkpoint import load_model_checkpoint, read_checkpoint, write_checkpoint
from exfusion.verify import CheckResult

CONFIG = """
[model]
depth = 2
dim = 16
heads = 2
expansion = 2
variant = {variant}
num_experts = 4
momentum = 0.95
seed = 2

[task]
task = synthetic_cluster
seq_len = 8
vocab_size = 16
num_classes = 4
train_size = 256
val_size = 64
seed = 2

[train]
steps = {steps}
batch_size = 8
base_lr = 2e-3
warmup_steps = 5
log_interval = 10
checkpoint_interval = 20

[bench]
timed_steps = 3
warmup_steps = 1
"""


def write_config(tmp_path, variant="mb", steps=20, name="run.ini"):
    p = tmp_path / name
    text = CONFIG.format(variant=variant, steps=steps)
    if steps < 5:
        text = text.replace("warmup_steps = 5", "warmup_steps = 0")
    p.write_text(text)
    return p


def train(tmp_path, variant="mb", steps=20, out="run", extra=()):
    cfg = write_config(tmp_path, variant, steps)
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / out), *extra])
    return code, tmp_path / out


class TestTrainCommand:
    def test_valid_run_produces_artifacts(self, tmp_path):
        code, out = train(tmp_path)
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "resolved_config.ini").exists()
        assert (out / "ckpt_000000.bin").exists()
        assert (out / "ckpt_000020.bin").exists()

    def test_metrics_row_count(self, tmp_path):
        _, out = train(tmp_path, steps=20)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 20 // 10 + 1

    def test_invalid_expert_count_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("num_experts = 4", "num_experts = 0"))
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "num_experts" in capsys.readouterr().err

    def test_empty_validation_split_fails_before_training(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        text = cfg.read_text().replace("seq_len = 8", "seq_len = 4").replace("vocab_size = 16", "vocab_size = 7")
        cfg.write_text(text.replace("num_classes = 4", "num_classes = 3").replace("seed = 2", "seed = 15"))
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "empty validation split" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_optimizer_setting_fails_before_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("[train]\n", "[train]\nbeta1 = 1.5\n"))
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--deterministic"])
        assert code == 1
        assert "beta1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nonfinite_task_noise_fails_before_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("[task]\n", "[task]\nnoise = nan\n"))
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--deterministic"])
        assert code == 1
        err = capsys.readouterr().err
        assert "noise" in err and "validation split" not in err
        assert not (tmp_path / "run").exists()

    def test_nonempty_out_dir_requires_force(self, tmp_path, capsys):
        code, out = train(tmp_path)
        assert code == 0
        code2, _ = train(tmp_path)
        assert code2 == 1
        assert "force" in capsys.readouterr().err.lower()
        code3, _ = train(tmp_path, extra=("--force",))
        assert code3 == 0

    def test_same_seed_runs_identical(self, tmp_path, monkeypatch, capsys):
        # each run writes to a relative "run" from its own directory, so the
        # paths it prints are equal; only the live step times may differ
        cfg = write_config(tmp_path)
        stdout = {}
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            capsys.readouterr()
            assert cli.main(["train", "--config", str(cfg), "--out", "run"]) == 0
            stdout[name], timed = re.subn(r"\(\d+\.\d ms/step\)", "(- ms/step)",
                                          capsys.readouterr().out)
            assert timed == 2
        assert stdout["a"] == stdout["b"]
        a, b = tmp_path / "a/run", tmp_path / "b/run"
        for name in ("metrics.csv", "resolved_config.ini", "ckpt_000020.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_config(self, tmp_path):
        code = cli.main(["train", "--config", str(tmp_path / "no.ini"),
                         "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("old, new, named", [
        ("variant = mb", "variant = mb%", "variant"),
        ("steps = 20", "steps = %(x)s", "steps"),
        ("seed = 2", "seed = 2 \xff", "run.ini"),
        ("[model]\n", "[model]\nshared_router = true\n", "unknown key 'shared_router'"),
        ("depth = 2", "depth = 2.0", "[model] depth"),
        ("[model]\n", "[model]\nreplaced_layers = 0.7\n", "[model] replaced_layers"),
    ], ids=["percent", "interpolation", "not-utf8", "retired-key", "float-depth",
            "float-layer"])
    def test_unreadable_value_is_one_error_line(self, tmp_path, capsys, old, new, named):
        # values are literal: '%' is refused by key, not by configparser; a
        # file that is not UTF-8 is refused by name
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_text().replace(old, new, 1).encode("latin-1"))
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not (tmp_path / "run").exists()


    def test_resume_with_changed_train_settings_refused(self, tmp_path, capsys):
        code, out = train(tmp_path)
        assert code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("batch_size = 8", "batch_size = 32")
                       .replace("base_lr = 2e-3", "base_lr = 5e-2"))
        capsys.readouterr()
        code = cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--resume", str(out / "ckpt_000000.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "batch_size 8 -> 32" in err and "base_lr 0.002 -> 0.05" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("metrics", [
        b"",
        b"step,epoch,lr,train_loss,val_metric\n10,0,0.002,2.0,0.3\n\n20,0,0.002,1.9,0.4\n",
    ], ids=["empty", "blank_row"])
    def test_resume_with_unreadable_metrics_is_one_error_line(self, tmp_path, capsys,
                                                              metrics):
        code, out = train(tmp_path)
        assert code == 0
        (out / "metrics.csv").write_bytes(metrics)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code = cli.main(["train", "--config", str(tmp_path / "run.ini"), "--out", str(out),
                         "--resume", str(out / "ckpt_000000.bin")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "metrics.csv" in err[0]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_from_checkpoint_with_retired_setting_refused(self, tmp_path, capsys,
                                                                 saved_run):
        # a checkpoint written while TrainConfig still had a `deterministic` field
        def add_retired(tensors, meta):
            meta["train_config"]["deterministic"] = True

        cfg, ckpt = _broken_copy(saved_run, tmp_path, add_retired)
        capsys.readouterr()
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--resume", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "train_config.deterministic True -> None" in err[0]
        assert not (tmp_path / "run").exists()


class TestExportCommand:
    def test_export_shrinks_and_matches(self, tmp_path, capsys):
        _, out = train(tmp_path)
        src = out / "ckpt_000020.bin"
        dst = tmp_path / "dense.bin"
        code = cli.main(["export", str(src), "--out", str(dst)])
        text = capsys.readouterr().out
        assert code == 0
        assert dst.stat().st_size < src.stat().st_size
        deviation = float(text.split("max logit deviation on probe batch:")[1].split()[0])
        assert deviation < 1e-5
        before = int(text.split("params before:")[1].split()[0])
        after = int(text.split("params after:")[1].split()[0])
        baseline = int(text.split("dense baseline:")[1].split(")")[0])
        assert after == baseline < before
        source, exported = load_model_checkpoint(src), load_model_checkpoint(dst)
        for key in ("task_spec", "train_config"):
            assert exported.meta[key] == source.meta[key]

    def test_export_does_not_depend_on_how_the_source_path_is_spelled(self, tmp_path,
                                                                        monkeypatch):
        train(tmp_path, out="a")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["export", "a/ckpt_000020.bin", "--out", "plain.bin"]) == 0
        assert cli.main(["export", "./a/../a/ckpt_000020.bin", "--out", "dotted.bin"]) == 0
        monkeypatch.chdir(tmp_path / "a")
        assert cli.main(["export", "ckpt_000020.bin", "--out", "../local.bin"]) == 0
        plain = (tmp_path / "plain.bin").read_bytes()
        assert (tmp_path / "dotted.bin").read_bytes() == plain
        assert (tmp_path / "local.bin").read_bytes() == plain

    def test_dense_input_is_written_unchanged(self, tmp_path):
        _, out = train(tmp_path, variant="dense")
        src, dst = out / "ckpt_000020.bin", tmp_path / "dup.bin"
        assert cli.main(["export", str(src), "--out", str(dst)]) == 0
        source = {k: v for k, v in read_checkpoint(src)[0].items() if not k.startswith("opt/")}
        exported = read_checkpoint(dst)[0]
        assert sorted(exported) == sorted(source)
        for name, arr in source.items():
            assert exported[name].dtype == arr.dtype and exported[name].shape == arr.shape
            assert exported[name].tobytes() == arr.tobytes(), name

    def test_moe_input_rejected(self, tmp_path, capsys):
        _, out = train(tmp_path, variant="moe")
        code = cli.main(["export", str(out / "ckpt_000020.bin"),
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        assert "cannot be collapsed" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, capsys):
        _, out = train(tmp_path)
        src = out / "ckpt_000020.bin"
        src.write_bytes(src.read_bytes()[:100])
        code = cli.main(["export", str(src), "--out", str(tmp_path / "x.bin")])
        assert code == 2
        assert "truncated" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["export", "eval"])
    def test_old_model_spec_field_is_runtime_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        _, out = train(tmp_path)
        src = out / "ckpt_000020.bin"
        tensors, meta = read_checkpoint(src)
        meta["model_spec"]["mb_update_order"] = "update_then_fuse"  # a field older versions wrote
        write_checkpoint(src, tensors, meta)
        capsys.readouterr()
        argv = ([command, str(src), "--out", str(tmp_path / "x.bin")] if command == "export"
                else [command, str(src), "--config", str(cfg)])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "ckpt_000020.bin" in err and "mb_update_order" in err

    @pytest.mark.parametrize("cut", ["dims", "payload"])
    def test_corrupt_record_sizes_are_runtime_errors(self, tmp_path, capsys, cut):
        _, out = train(tmp_path)
        src = out / "ckpt_000020.bin"
        raw = bytearray(src.read_bytes())
        first = records_at(raw)
        (name_len,) = struct.unpack_from("<I", raw, first)
        rank = raw[first + 4 + name_len + 1]
        dims_at = first + 4 + name_len + 2
        if cut == "dims":
            raw[dims_at:dims_at + 8] = struct.pack("<Q", 2 ** 40)
        else:
            raw = raw[:dims_at + 8 * rank + 3]
        src.write_bytes(bytes(raw))
        code = cli.main(["export", str(src), "--out", str(tmp_path / "x.bin")])
        assert code == 2
        assert "truncated" in capsys.readouterr().err


def records_at(raw) -> int:
    """Offset of a checkpoint's first record: after its header and metadata."""
    return 16 + struct.unpack_from("<I", raw, 12)[0]


def _drop(name):
    def change(tensors, meta):
        del tensors[name]
    return change


def _drop_meta(key):
    def change(tensors, meta):
        del meta[key]
    return change


def _set_meta(key, value):
    return lambda tensors, meta: meta.update({key: value})


def _set_spec(**fields):
    return lambda tensors, meta: meta["model_spec"].update(fields)


def _meta_text(old, new):
    """Replace ``old`` with ``new`` in the metadata's JSON text, for the
    metadata ``json.dumps`` would not write."""
    return lambda tensors, meta: (old, new)


def _set(name, value):
    def change(tensors, meta):
        tensors[name] = tensors[name].copy()
        tensors[name].reshape(-1)[0] = value
    return change


def _add_copy(name, of):
    def change(tensors, meta):
        tensors[name] = tensors[of].copy()
    return change


def _drop_optimizer(tensors, meta):
    for name in [n for n in tensors if n.startswith("opt/")]:
        del tensors[name]


def _resize(name):
    def change(tensors, meta):
        tensors[name] = np.zeros(tensors[name].size + 1, dtype=tensors[name].dtype)
    return change


def _as_f64(name):
    def change(tensors, meta):
        tensors[name] = tensors[name].astype(np.float64)
    return change


# (case, edit of the saved records and metadata, text the error must show
# besides the file name)
CORRUPT_RECORDS = [
    ("missing_param", _drop("head.bias"), "head.bias"),
    ("missing_bank", _drop("blocks.1.ffn.fusion.bank"), "blocks.1.ffn.fusion.bank"),
    ("missing_dtype", _drop_meta("dtype"), "missing metadata key 'dtype'"),
    ("missing_step", _drop_meta("step"), "missing metadata key 'step'"),
    ("negative_step", _set_meta("step", -3), "metadata 'step' must be non-negative"),
    ("float_step", _set_meta("step", 2.5), "metadata 'step' is float"),
    ("bool_step", _set_meta("step", True), "metadata 'step' is bool"),
    ("infinite_step", _meta_text(b'"step": 0', b'"step": Infinity'),
     "metadata 'step' is not finite JSON"),
    ("two_steps", _set_meta("step", [3, 4]), "metadata 'step' is list"),
    ("duplicate_step", _meta_text(b'"step": 0', b'"step": 0, "step": 0'),
     "metadata key 'step' is written twice"),
    ("wrong_shape", _resize("head.bias"), "head.bias"),
    ("foreign_dtype_param", _as_f64("blocks.0.attn.q.weight"), "blocks.0.attn.q.weight"),
    ("foreign_dtype_bank", _as_f64("blocks.1.ffn.fusion.bank"), "blocks.1.ffn.fusion.bank"),
    ("foreign_dtype_moment", _as_f64("opt/m/head.weight"), "opt/m/head.weight"),
    ("invalid_dtype", _set_meta("dtype", "f16"), "metadata 'dtype' must be f32 or f64"),
    ("float_dtype", _set_meta("dtype", [102.0, 51.0, 50.0]),
     "metadata 'dtype' is list"),  # the codes of "f32", as floats
    ("nonfinite_param", _set("blocks.0.ffn.up.weight", np.nan), "blocks.0.ffn.up.weight"),
    ("nonfinite_bank", _set("blocks.0.ffn.fusion.bank", np.inf), "blocks.0.ffn.fusion.bank"),
    ("unknown_param", _add_copy("blocks.0.ffn.up.weigth", "blocks.0.ffn.up.weight"),
     "blocks.0.ffn.up.weigth"),
    ("unknown_moment", _add_copy("opt/m/blocks.0.ffn.up.weigth", "opt/m/blocks.0.ffn.up.weight"),
     "opt/m/blocks.0.ffn.up.weigth"),
    ("task_spec_list", _set_meta("task_spec", [1, 2]), "metadata 'task_spec' is list"),
    ("task_spec_not_json", _set_meta("task_spec", "{not json"), "metadata 'task_spec' is str"),
    # the decoder gives up before it reaches the key, so only the metadata is named
    ("task_spec_nested_too_deep",
     _meta_text(b'"task_spec": {', b'"task_spec": ' + b"[" * 100_000 + b"]" * 100_000
                + b', "x": {'), "metadata is not valid JSON: maximum recursion depth"),
    ("train_config_list", _set_meta("train_config", ["steps"]), "metadata 'train_config' is list"),
    ("unknown_meta", _set_meta("bogus", "x"), "unknown metadata key 'bogus'"),
    ("invalid_format", _set_meta("format", "junk"), "unknown metadata key 'format'"),
    # keys of the v1 schema, left in a v3 file's metadata
    ("retired_format", _set_meta("format", "model"), "unknown metadata key 'format'"),
    ("retired_exported_from", _set_meta("exported_from", "a/ckpt.bin"),
     "unknown metadata key 'exported_from'"),
    ("retired_shared_router", _set_spec(shared_router=True), "'shared_router'"),
    ("float_depth", _set_spec(depth=2.0), "depth must be an integer; got 2.0"),
    ("float_dim", _set_spec(dim=16.0), "dim must be an integer; got 16.0"),
    ("float_layer", _set_spec(replaced_layers=[0.7, 1]),
     "replaced_layers entry must be an integer; got 0.7"),
]

# Faults in the optimizer records, which only a resume reads.
CORRUPT_OPTIMIZER = [
    ("missing_moment", _drop("opt/m/head.bias"), "opt/m/head.bias"),
    ("missing_step", _drop("opt/step"), "opt/step"),
    ("wrong_shape_moment", _resize("opt/v/head.bias"), "opt/v/head.bias"),
    ("nonfinite_moment", _set("opt/m/blocks.0.ffn.up.weight", np.nan),
     "opt/m/blocks.0.ffn.up.weight"),
    ("no_optimizer_state", _drop_optimizer, "opt/m/"),
]


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A config and its step-0 mb checkpoint, trained once for the module."""
    base = tmp_path_factory.mktemp("saved")
    cfg = write_config(base, steps=0)
    assert cli.main(["train", "--config", str(cfg), "--out", str(base / "run")]) == 0
    return cfg, (base / "run" / "ckpt_000000.bin").read_bytes()


def _broken_copy(saved_run, tmp_path, change):
    """The saved checkpoint as ``broken.bin``, its records and metadata edited
    by ``change``; an ``(old, new)`` it returns edits the metadata's text."""
    cfg, raw = saved_run
    ckpt = tmp_path / "broken.bin"
    ckpt.write_bytes(raw)
    tensors, meta = read_checkpoint(ckpt)
    edit = change(tensors, meta)
    write_checkpoint(ckpt, tensors, meta)
    if edit is not None:
        raw = ckpt.read_bytes()
        text = raw[16:records_at(raw)]
        assert edit[0] in text
        text = text.replace(*edit)
        ckpt.write_bytes(raw[:12] + struct.pack("<I", len(text)) + text + raw[records_at(raw):])
    return cfg, ckpt


def _load_argv(command, ckpt, cfg, tmp_path):
    if command == "export":
        return [command, str(ckpt), "--out", str(tmp_path / "x.bin")]
    return [command, str(ckpt), "--config", str(cfg)]


class TestCorruptRecords:
    @pytest.mark.parametrize("command", ["export", "eval"])
    @pytest.mark.parametrize("case, change, record", CORRUPT_RECORDS,
                             ids=[c[0] for c in CORRUPT_RECORDS])
    def test_load_fault_is_runtime_error(self, tmp_path, capsys, saved_run, command,
                                         case, change, record):
        cfg, ckpt = _broken_copy(saved_run, tmp_path, change)
        capsys.readouterr()
        assert cli.main(_load_argv(command, ckpt, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and record in err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("command", ["export", "eval"])
    def test_undecodable_record_name_is_runtime_error(self, tmp_path, capsys, saved_run,
                                                      command):
        cfg, raw = saved_run
        ckpt = tmp_path / "broken.bin"
        raw = bytearray(raw)
        raw[records_at(raw) + 4] = 0xFF  # first byte of the first record name
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert cli.main(_load_argv(command, ckpt, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and "UTF-8" in err

    @pytest.mark.parametrize("command", ["export", "eval"])
    @pytest.mark.parametrize("dims", [(0, 2 ** 63), (1,) * 65], ids=["huge_dim", "rank_65"])
    def test_impossible_dims_are_runtime_errors(self, tmp_path, capsys, saved_run, command,
                                                dims):
        cfg, raw = saved_run
        (count,) = struct.unpack_from("<I", raw, 8)
        first = (struct.pack("<I", len(b"head.bias")) + b"head.bias"
                 + struct.pack("<BB", 0, len(dims))
                 + b"".join(struct.pack("<Q", d) for d in dims)
                 + b"\0" * (4 * math.prod(dims)))
        ckpt = tmp_path / "broken.bin"
        at = records_at(raw)
        ckpt.write_bytes(raw[:8] + struct.pack("<I", count + 1) + raw[12:at] + first + raw[at:])
        capsys.readouterr()
        assert cli.main(_load_argv(command, ckpt, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and "'head.bias' has impossible dims" in err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("command", ["export", "eval"])
    @pytest.mark.parametrize("twin, name, named", [
        ("head.biat", "head.bias", "duplicate record 'head.bias'"),
        ('"stez"', '"step"', "metadata key 'step' is written twice"),
    ], ids=["record", "metadata_key"])
    def test_duplicated_record_is_runtime_error(self, tmp_path, capsys, saved_run, command,
                                                twin, name, named):
        # the twin has the name's length and sorts after it
        def add_twin(tensors, meta):
            tensors["head.biat"] = np.full_like(tensors["head.bias"], 7)
            meta["stez"] = 7

        cfg, ckpt = _broken_copy(saved_run, tmp_path, add_twin)
        ckpt.write_bytes(ckpt.read_bytes().replace(twin.encode(), name.encode()))
        capsys.readouterr()
        assert cli.main(_load_argv(command, ckpt, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and named in err
        assert not (tmp_path / "x.bin").exists()


class TestEarlierVersionsRefused:
    """A v1 file (with ``meta/format`` and ``shared_router``) and a v2 file
    (metadata as ``meta/`` records) are not read."""

    @pytest.mark.parametrize("command", ["export", "eval", "resume"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_one_error_line_and_nothing_written(self, tmp_path, capsys, saved_run, version,
                                                command):
        cfg, raw = saved_run
        ckpt = tmp_path / "old.bin"
        ckpt.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])  # the version field
        out = tmp_path / "resumed"
        argv = (["train", "--config", str(cfg), "--out", str(out), "--resume", str(ckpt)]
                if command == "resume" else _load_argv(command, ckpt, cfg, tmp_path))
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "old.bin" in err[0]
        assert f"version mismatch (file v{version}, reader v3)" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestResumeLoadFaults:
    @pytest.mark.parametrize("case, change, record", CORRUPT_RECORDS,
                             ids=[c[0] for c in CORRUPT_RECORDS])
    def test_load_fault_is_runtime_error(self, tmp_path, capsys, saved_run, case, change,
                                         record):
        cfg, ckpt = _broken_copy(saved_run, tmp_path, change)
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and record in err
        assert not out.exists()


class TestResumeOptimizerFaults:
    @pytest.mark.parametrize("case, change, record", CORRUPT_OPTIMIZER,
                             ids=[c[0] for c in CORRUPT_OPTIMIZER])
    def test_fault_is_runtime_error(self, tmp_path, capsys, saved_run, case, change, record):
        cfg, ckpt = _broken_copy(saved_run, tmp_path, change)
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and record in err
        assert not (out / "metrics.csv").exists()

    def test_negative_step_is_runtime_error(self, tmp_path, capsys, saved_run):
        cfg, ckpt = _broken_copy(saved_run, tmp_path, _set_meta("step", -3))
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and "metadata 'step'" in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("existed", [False, True], ids=["missing_out", "empty_out"])
    def test_refused_resume_leaves_out_for_a_plain_train(self, tmp_path, saved_run, existed):
        cfg, ckpt = _broken_copy(saved_run, tmp_path, _set_meta("step", -3))
        out = tmp_path / "fresh"
        if existed:
            out.mkdir()
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--resume", str(ckpt)]) == 2
        assert out.exists() == existed and (not existed or not any(out.iterdir()))
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "resolved_config.ini").exists()


class TestEvalCommand:
    def test_eval_twice_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        _, out = train(tmp_path)
        capsys.readouterr()
        argv = ["eval", str(out / "ckpt_000020.bin"), "--config", str(cfg)]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_source_and_export_agree_to_4dp(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        _, out = train(tmp_path)
        dst = tmp_path / "dense.bin"
        cli.main(["export", str(out / "ckpt_000020.bin"), "--out", str(dst)])
        capsys.readouterr()
        cli.main(["eval", str(out / "ckpt_000020.bin"), "--config", str(cfg)])
        src_out = capsys.readouterr().out
        cli.main(["eval", str(dst), "--config", str(cfg)])
        dst_out = capsys.readouterr().out
        parse = lambda s: [round(float(line.rsplit(" ", 1)[1]), 4) for line in s.splitlines()]
        assert parse(src_out) == parse(dst_out)

    def test_task_mismatch_rejected(self, tmp_path, capsys):
        _, out = train(tmp_path)
        other = write_config(tmp_path, name="other.ini")
        other.write_text(other.read_text().replace("vocab_size = 16", "vocab_size = 24"))
        code = cli.main(["eval", str(out / "ckpt_000020.bin"), "--config", str(other)])
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_untrained_model_near_chance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, steps=0)
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 0
        capsys.readouterr()
        cli.main(["eval", str(tmp_path / "r" / "ckpt_000000.bin"), "--config", str(cfg)])
        acc = float(capsys.readouterr().out.splitlines()[0].rsplit(" ", 1)[1])
        assert abs(acc - 0.25) < 0.15


class TestVerifyCommand:
    def test_suite_passes_with_machine_readable_lines(self, capsys):
        assert cli.main(["verify", "ema"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert all(line.split("\t")[0] in ("PASS", "FAIL") for line in lines[:-1])
        assert "0 failed" in lines[-1]

    def test_failures_exit_3(self, capsys, monkeypatch):
        from exfusion import verify as V

        monkeypatch.setitem(
            V.SUITES, "ema",
            lambda seed=0: [CheckResult("ema/forced", False, "injected failure")])
        monkeypatch.setattr(cli, "run_suites", V.run_suites)
        assert cli.main(["verify", "ema"]) == 3
        assert "1 failed" in capsys.readouterr().out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "nonsense"])

    def test_export_suite_passes_every_check(self):
        from exfusion.verify import suite_export

        results = suite_export(seed=0)
        assert [r.name for r in results if not r.passed] == []
        assert len(results) == 12
        assert sum(r.name.startswith("export/checkpoint_path ") for r in results) == 6


class TestBenchCommand:
    def test_dense_row_is_unity_and_all_variants_present(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["bench", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line for line in out.splitlines()[1:]
                if not line.startswith("note:")}
        assert set(rows) == {"dense", "moe", "sw", "dw", "mb"}
        assert rows["dense"].split()[-1] == "x1.00"
        assert "no auxiliary balancing loss" in out

    def test_dw_lane_does_not_decay_fusion_weights(self, tmp_path, monkeypatch):
        from exfusion import bench, optim
        from exfusion.config import load_run_config
        from exfusion.model import VARIANTS

        made = []

        class Recorded(optim.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(bench, "AdamW", Recorded)
        bench.run_bench(load_run_config(write_config(tmp_path, variant="dw")))
        assert len(made) == len(VARIANTS)
        opt = made[VARIANTS.index("dw")]
        assert opt.weight_decay > 0
        assert opt.no_decay == {"blocks.0.ffn.fusion.weights", "blocks.1.ffn.fusion.weights"}


@pytest.mark.parametrize("argv, pinned", [
    (["verify", "ema", "--deterministic"], True),
    (["verify", "ema"], False),
])
def test_entry_pins_blas_exactly_with_the_flag(monkeypatch, argv, pinned):
    for var in _entry._THREAD_VARS:  # unset for this test, restored after it
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    seen = []
    monkeypatch.setattr(cli, "main", lambda args: seen.append(args) or 0)
    assert _entry.main(argv) == 0
    assert seen == [argv]
    assert {var: os.environ.get(var) for var in _entry._THREAD_VARS} == \
        {var: "1" if pinned else None for var in _entry._THREAD_VARS}


@pytest.mark.parametrize("argv", [
    ["train", "--config", "run.ini", "--out", "run"],
    ["export", "a.bin", "--out", "b.bin"],
    ["eval", "a.bin", "--config", "run.ini"],
    ["verify", "all"],
    ["bench", "--config", "run.ini"],
])
def test_every_subcommand_accepts_deterministic(argv):
    parser = cli.build_parser()
    assert parser.parse_args([*argv, "--deterministic"]).deterministic is True
    assert parser.parse_args(argv).deterministic is False


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "exfusion._entry", "verify", "ema",
                           "--deterministic"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout


# Runs in a fresh interpreter: every f32 path of every variant, then the CLI's
# train and export, must leave scipy unloaded; one f64 forward then loads it.
_SCIPY_GUARD = r"""
import json, sys
from pathlib import Path
from exfusion import _entry
from exfusion.checkpoint import load_model_checkpoint, save_model_checkpoint
from exfusion.model import Model, collapse_to_dense
from exfusion.optim import AdamW
from exfusion.tasks import TaskSpec, build_task
from exfusion.train import batch_loss, evaluate, model_spec_for_task, train_step

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out, config = Path(sys.argv[1]), sys.argv[2]
task = build_task(TaskSpec(task="char_lm", seq_len=8, seed=0))
seen = {}
for variant in ("dense", "moe", "sw", "dw", "mb"):
    spec = model_spec_for_task(task, depth=1, dim=8, heads=2, expansion=2, variant=variant,
                               num_experts=3, seed=0)
    model = Model(spec)
    opt = AdamW(model.named_parameters())
    x, y = task.batch(0, 4)
    train_step(model, opt, x, y, 1e-3, 1.0, 0)
    evaluate(model, task)
    if variant != "moe":  # the top-k mixture has no dense form
        collapse_to_dense(model)
    path = out / f"{variant}.bin"
    save_model_checkpoint(path, model, step=1, optimizer=opt)
    load_model_checkpoint(path)
    seen[variant] = scipy_modules()
codes = [_entry.main(["train", "--config", config, "--out", str(out / "run")]),
         _entry.main(["export", str(out / "run" / "ckpt_000002.bin"), "--out", str(out / "dense.bin")])]
seen["cli"] = scipy_modules()
batch_loss(model.cast("f64"), x, y, training=False)
print(json.dumps({"codes": codes, "f32": seen, "f64": "scipy.special" in sys.modules}))
"""


def test_f32_process_never_imports_scipy(tmp_path):
    cfg = write_config(tmp_path, variant="mb", steps=2)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(tmp_path), str(cfg)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["f32"] == {k: [] for k in ("dense", "moe", "sw", "dw", "mb", "cli")}
    assert result["f64"] is True
