import numpy as np
import pytest

from exfusion.params import name_rng
from exfusion.tasks import (
    CharLMTask,
    SyntheticClusterTask,
    TaskSpec,
    build_task,
    load_bundled_text,
)

from oracles import token_histogram_probe


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="task"):
            TaskSpec(task="mystery")
        with pytest.raises(ValueError, match="noise"):
            TaskSpec(noise=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise must be finite"):
                TaskSpec(noise=bad)
        with pytest.raises(ValueError, match="val_fraction"):
            TaskSpec(val_fraction=1.0)

    def test_roundtrip(self):
        spec = TaskSpec(task="char_lm", seq_len=16, seed=3)
        assert TaskSpec(**spec.to_dict()) == spec


class TestSyntheticCluster:
    def test_deterministic_generation(self):
        a = SyntheticClusterTask(TaskSpec(seed=5))
        b = SyntheticClusterTask(TaskSpec(seed=5))
        assert a.train_tokens.tobytes() == b.train_tokens.tobytes()
        assert a.val_labels.tobytes() == b.val_labels.tobytes()
        c = SyntheticClusterTask(TaskSpec(seed=6))
        assert a.train_tokens.tobytes() != c.train_tokens.tobytes()

    def test_tokens_within_vocab(self):
        t = SyntheticClusterTask(TaskSpec(vocab_size=17, seed=1))
        assert t.train_tokens.min() >= 0 and t.train_tokens.max() < 17

    def test_splits_disjoint(self):
        t = SyntheticClusterTask(TaskSpec(seed=2, train_size=512, val_size=128))
        train_keys = {row.tobytes() for row in t.train_tokens}
        assert all(row.tobytes() not in train_keys for row in t.val_tokens)

    def test_empty_validation_split_rejected_at_build(self):
        # short sequences over a small vocabulary: at seed 15 every validation
        # row also occurs in the training split
        spec = TaskSpec(seq_len=4, vocab_size=7, num_classes=3, noise=0.25,
                        train_size=256, val_size=64, seed=15)
        with pytest.raises(ValueError, match="all 64 validation rows .* 256 training rows"):
            SyntheticClusterTask(spec)

    def test_batches_deterministic_per_step(self):
        t = SyntheticClusterTask(TaskSpec(seed=3))
        x1, y1 = t.batch(7, 16)
        x2, y2 = t.batch(7, 16)
        assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
        x3, _ = t.batch(8, 16)
        assert x1.tobytes() != x3.tobytes()

    def test_counting_probe_clears_90_percent(self):
        # the task must be separable by a linear probe before any model runs
        t = SyntheticClusterTask(TaskSpec(seed=4))
        pred = token_histogram_probe(t.train_tokens, t.train_labels, t.val_tokens,
                                     t.vocab_size, t.num_classes)
        acc = float((pred == t.val_labels).mean())
        assert acc > 0.9, f"probe accuracy {acc:.3f}"


class TestCharLM:
    def test_bundled_text_usable(self):
        text = load_bundled_text()
        assert len(text) > 10_000
        assert 20 < len(set(text)) < 120

    def test_split_regions_disjoint_and_deterministic(self):
        spec = TaskSpec(task="char_lm", seq_len=16, seed=0)
        a = CharLMTask(spec)
        b = CharLMTask(spec)
        assert len(a.train_ids) + len(a.val_ids) == len(load_bundled_text())
        assert a.train_ids.tobytes() == b.train_ids.tobytes()

    def test_batch_targets_are_shifted_inputs(self):
        t = CharLMTask(TaskSpec(task="char_lm", seq_len=12, seed=1))
        x, y = t.batch(3, 8)
        assert x.shape == (8, 12) and y.shape == (8, 12)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_batches_equal_stacked_slices(self):
        t = CharLMTask(TaskSpec(task="char_lm", seq_len=32, seed=3))
        l = t.spec.seq_len
        for step in range(50):
            x, y = t.batch(step, 16)
            starts = name_rng(3, f"task.batch.{step}").integers(0, len(t.train_ids) - l - 1, size=16)
            want_x = np.stack([t.train_ids[s:s + l] for s in starts])
            want_y = np.stack([t.train_ids[s + 1:s + l + 1] for s in starts])
            for got, want in ((x, want_x), (y, want_y)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_val_windows_cover_val_region_without_overlap(self):
        t = CharLMTask(TaskSpec(task="char_lm", seq_len=10, seed=2))
        x, y = t.val_data()
        flat = x.reshape(-1)
        np.testing.assert_array_equal(flat, t.val_ids[:flat.size])
        np.testing.assert_array_equal(y.reshape(-1), t.val_ids[1:flat.size + 1])

    @pytest.mark.parametrize("seq_len", [1, 10, 32, 33])
    def test_val_windows_are_read_only_views_of_the_stacked_bytes(self, seq_len):
        t = CharLMTask(TaskSpec(task="char_lm", seq_len=seq_len, seed=2))
        l, n = seq_len, (len(t.val_ids) - 1) // seq_len
        want_x = np.stack([t.val_ids[i * l:(i + 1) * l] for i in range(n)])
        want_y = np.stack([t.val_ids[i * l + 1:(i + 1) * l + 1] for i in range(n)])
        x, y = t.val_data()
        for got, want in ((x, want_x), (y, want_y)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert np.shares_memory(got, t.val_ids)
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 0
        assert t.val_ids.flags.writeable

    def test_too_long_seq_rejected(self):
        # the validation region holds a tenth of the bundled text
        seq_len = len(load_bundled_text()) // 10 + 1
        with pytest.raises(ValueError, match="too short"):
            CharLMTask(TaskSpec(task="char_lm", seq_len=seq_len, seed=0))


def test_build_task_dispatch():
    assert isinstance(build_task(TaskSpec()), SyntheticClusterTask)
    assert isinstance(build_task(TaskSpec(task="char_lm")), CharLMTask)
