import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from exfusion import cli
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

    def test_nonempty_out_dir_requires_force(self, tmp_path, capsys):
        code, out = train(tmp_path)
        assert code == 0
        code2, _ = train(tmp_path)
        assert code2 == 1
        assert "force" in capsys.readouterr().err.lower()
        code3, _ = train(tmp_path, extra=("--force",))
        assert code3 == 0

    def test_same_seed_runs_identical(self, tmp_path):
        _, a = train(tmp_path, out="a")
        _, b = train(tmp_path, out="b")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "ckpt_000020.bin").read_bytes() == (b / "ckpt_000020.bin").read_bytes()

    def test_missing_config(self, tmp_path):
        code = cli.main(["train", "--config", str(tmp_path / "no.ini"),
                         "--out", str(tmp_path / "x")])
        assert code == 1


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

    def test_dense_input_warns_and_succeeds(self, tmp_path, capsys):
        _, out = train(tmp_path, variant="dense")
        code = cli.main(["export", str(out / "ckpt_000020.bin"),
                         "--out", str(tmp_path / "dup.bin")])
        assert code == 0
        assert "already dense" in capsys.readouterr().out

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
        from exfusion.checkpoint import meta_json, read_checkpoint, write_checkpoint

        cfg = write_config(tmp_path)
        _, out = train(tmp_path)
        src = out / "ckpt_000020.bin"
        tensors, meta = read_checkpoint(src)
        spec = meta_json(meta, "model_spec")
        spec["mb_update_order"] = "update_then_fuse"  # a field older versions wrote
        meta["model_spec"] = json.dumps(spec)
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
        (name_len,) = struct.unpack_from("<I", raw, 12)
        rank = raw[12 + 4 + name_len + 1]
        dims_at = 12 + 4 + name_len + 2
        if cut == "dims":
            raw[dims_at:dims_at + 8] = struct.pack("<Q", 2 ** 40)
        else:
            raw = raw[:dims_at + 8 * rank + 3]
        src.write_bytes(bytes(raw))
        code = cli.main(["export", str(src), "--out", str(tmp_path / "x.bin")])
        assert code == 2
        assert "truncated" in capsys.readouterr().err


def _drop(name):
    return lambda tensors, meta: tensors.pop(name)


def _drop_meta(key):
    return lambda tensors, meta: meta.pop(key)


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


# (case, edit of the saved records, text the error must show besides the file name)
CORRUPT_RECORDS = [
    ("missing_param", _drop("head.bias"), "head.bias"),
    ("missing_bank", _drop("blocks.1.ffn.fusion.bank"), "blocks.1.ffn.fusion.bank"),
    ("missing_dtype", _drop_meta("dtype"), "meta/dtype"),
    ("missing_step", _drop_meta("step"), "meta/step"),
    ("negative_step", lambda tensors, meta: meta.update(step=-3), "meta/step"),
    ("wrong_shape", _resize("head.bias"), "head.bias"),
    ("invalid_dtype", lambda tensors, meta: meta.update(dtype="f16"), "meta/dtype"),
    ("nonfinite_param", _set("blocks.0.ffn.up.weight", np.nan), "blocks.0.ffn.up.weight"),
    ("nonfinite_bank", _set("blocks.0.ffn.fusion.bank", np.inf), "blocks.0.ffn.fusion.bank"),
    ("unknown_param", _add_copy("blocks.0.ffn.up.weigth", "blocks.0.ffn.up.weight"),
     "blocks.0.ffn.up.weigth"),
    ("unknown_moment", _add_copy("opt/m/blocks.0.ffn.up.weigth", "opt/m/blocks.0.ffn.up.weight"),
     "opt/m/blocks.0.ffn.up.weigth"),
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
    from exfusion.checkpoint import read_checkpoint, write_checkpoint

    cfg, raw = saved_run
    ckpt = tmp_path / "broken.bin"
    ckpt.write_bytes(raw)
    tensors, meta = read_checkpoint(ckpt)
    change(tensors, meta)
    write_checkpoint(ckpt, tensors, meta)
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
        raw[16] = 0xFF  # first byte of the first record name
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert cli.main(_load_argv(command, ckpt, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and "UTF-8" in err

    @pytest.mark.parametrize("command", ["export", "eval"])
    @pytest.mark.parametrize("record", ["head.bias", "meta/step"])
    def test_duplicated_record_is_runtime_error(self, tmp_path, capsys, saved_run, command,
                                                record):
        stand_in = record[:-1] + "~"  # same length, written after ``record``

        def add_stand_in(tensors, meta):
            if record.startswith("meta/"):
                meta[stand_in[len("meta/"):]] = 7
            else:
                tensors[stand_in] = np.full_like(tensors[record], 7)

        cfg, ckpt = _broken_copy(saved_run, tmp_path, add_stand_in)
        ckpt.write_bytes(ckpt.read_bytes().replace(stand_in.encode(), record.encode()))
        capsys.readouterr()
        assert cli.main(_load_argv(command, ckpt, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and f"duplicate record '{record}'" in err
        assert not (tmp_path / "x.bin").exists()


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
        cfg, ckpt = _broken_copy(saved_run, tmp_path, lambda tensors, meta: meta.update(step=-3))
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "broken.bin" in err and "meta/step" in err
        assert not (out / "metrics.csv").exists()


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

        made = []

        class Recorded(optim.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(bench, "AdamW", Recorded)
        bench.run_bench(load_run_config(write_config(tmp_path, variant="dw")), variants=("dw",))
        (opt,) = made
        assert opt.weight_decay > 0
        assert opt.no_decay == {"blocks.0.ffn.fusion.weights", "blocks.1.ffn.fusion.weights"}


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "exfusion._entry", "verify", "ema",
                           "--deterministic"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout
