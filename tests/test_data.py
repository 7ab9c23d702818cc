import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import data as D


class TestRenderLine:
    def test_zero_angle_is_horizontal(self):
        img = D.render_line(9, 9, 0.0)
        assert np.all(img[4, :] == 1.0)  # center row on the line
        assert np.all(img[0, :] == 0.0)  # far rows dark

    def test_quarter_pi_is_diagonal(self):
        img = D.render_line(9, 9, np.pi / 4)
        assert np.all(np.diag(img) > 0.99)

    def test_negative_angle_mirrors(self):
        img = D.render_line(9, 9, -np.pi / 4)
        assert np.allclose(img, D.render_line(9, 9, np.pi / 4)[::-1, :], atol=1e-12)


def one_shot_linesteer(count, height, width, seed):
    """generate_linesteer's images as one full-size expression: the line
    images plus the noise drawn after the angles."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-D.ANGLE_RANGE, D.ANGLE_RANGE, count)
    noise = rng.normal(0.0, D.NOISE_SIGMA, (count, height, width, 1))
    ys = np.arange(height) - (height - 1) / 2.0
    xs = np.arange(width) - (width - 1) / 2.0
    dist = np.abs(-np.sin(angles)[:, None, None] * xs[None, None, :]
                  + np.cos(angles)[:, None, None] * ys[None, :, None])
    return np.maximum(0.0, 1.0 - dist)[..., None] + noise


class TestGenerateLinesteer:
    @pytest.mark.parametrize("count,height,width,block", [
        (1, 16, 16, 3), (7, 16, 16, 3), (10, 9, 13, 4), (133, 32, 32, None),
    ])
    def test_blocks_match_one_shot_formula(self, count, height, width, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(D, "RENDER_BLOCK_BYTES", block * height * width * 8)
        ds = D.generate_linesteer(count, height, width, seed=count)
        assert ds.inputs.tobytes() == one_shot_linesteer(count, height, width, count).tobytes()

    def test_targets_encode_rendered_angle(self):
        # recover each image's angle by correlation against noise-free
        # renders over a fine grid; it must match target * (pi/4)
        ds = D.generate_linesteer(5, 24, 24, seed=3)
        grid = np.linspace(-np.pi / 4, np.pi / 4, 181)
        renders = np.stack([D.render_line(24, 24, a) for a in grid])
        for i in range(ds.count):
            img = ds.inputs[i, :, :, 0]
            scores = (renders * img).sum(axis=(1, 2))
            best = grid[int(np.argmax(scores))]
            assert best == pytest.approx(ds.targets[i] * np.pi / 4, abs=0.03)

    def test_targets_in_range(self):
        ds = D.generate_linesteer(200, 16, 16, seed=0)
        assert np.all(ds.targets >= -1.0) and np.all(ds.targets <= 1.0)

    def test_same_seed_bit_identical(self):
        a = D.generate_linesteer(20, 16, 16, seed=42)
        b = D.generate_linesteer(20, 16, 16, seed=42)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_different_seed_differs(self):
        a = D.generate_linesteer(20, 16, 16, seed=1)
        b = D.generate_linesteer(20, 16, 16, seed=2)
        assert a.inputs.tobytes() != b.inputs.tobytes()

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            D.generate_linesteer(5, 4, 16, seed=0)
        with pytest.raises(ValueError, match="count"):
            D.generate_linesteer(0, 16, 16, seed=0)


class TestPartition:
    def test_uniform_is_balanced_and_spans_range(self):
        ds = D.generate_linesteer(10, 8, 8, seed=1)
        plan = D.partition_noniid(ds, 2, skew=0.0, seed=0)
        counts = np.bincount(plan.assignment, minlength=2)
        assert counts.tolist() == [5, 5]
        for i in range(2):
            t = ds.targets[plan.silo_indices(i)]
            assert t.min() < 0 < t.max()  # both silos see both steering signs

    def test_full_skew_gives_sorted_shards(self):
        ds = D.generate_linesteer(10, 8, 8, seed=1)
        plan = D.partition_noniid(ds, 2, skew=1.0, seed=0)
        order = np.argsort(ds.targets)
        assert sorted(plan.silo_indices(0)) == sorted(order[:5])
        assert sorted(plan.silo_indices(1)) == sorted(order[5:])

    def test_full_skew_ranges_do_not_overlap(self):
        ds = D.generate_linesteer(101, 8, 8, seed=2)
        plan = D.partition_noniid(ds, 7, skew=1.0, seed=0)
        highs = [ds.targets[plan.silo_indices(i)].max() for i in range(7)]
        lows = [ds.targets[plan.silo_indices(i)].min() for i in range(7)]
        for i in range(6):
            assert highs[i] <= lows[i + 1] + 1e-12

    def test_published_average_shard_size(self):
        # 39,087 samples over 11 silos averages 3,553 per silo
        ds = D.generate_linesteer(39_087, 8, 8, seed=0)
        plan = D.partition_noniid(ds, 11, skew=0.0, seed=0)
        counts = np.bincount(plan.assignment, minlength=11)
        assert int(np.mean(counts)) == 3553
        assert counts.max() - counts.min() <= 1

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(6, 60), n=st.integers(1, 6),
           skew=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    def test_assignment_covers_each_sample_once(self, count, n, skew, seed):
        if n > count:
            return
        ds = D.generate_linesteer(count, 8, 8, seed=0)
        plan = D.partition_noniid(ds, n, skew=skew, seed=seed)
        assert plan.assignment.shape == (count,)
        assert np.all((plan.assignment >= 0) & (plan.assignment < n))
        counts = np.bincount(plan.assignment, minlength=n)
        assert counts.min() >= 1
        assert counts.sum() == count
        if skew == 0.0:
            assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        ds = D.generate_linesteer(50, 8, 8, seed=0)
        a = D.partition_noniid(ds, 5, skew=0.4, seed=9)
        b = D.partition_noniid(ds, 5, skew=0.4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_more_silos_than_samples_rejected(self):
        ds = D.generate_linesteer(3, 8, 8, seed=0)
        with pytest.raises(ValueError, match="n_silos"):
            D.partition_noniid(ds, 4, skew=0.0, seed=0)


class TestSplit:
    def test_ten_samples_at_eighty_percent(self):
        ds = D.generate_linesteer(10, 8, 8, seed=0)
        train, test = D.train_test_split(ds, 0.8, seed=0)
        assert train.count == 8 and test.count == 2

    def test_published_corpus_split_arithmetic(self):
        # 66,806 samples at 80% -> 53,444 train / 13,362 test (floor on train)
        ds = D.generate_linesteer(66_806, 8, 8, seed=0)
        train, test = D.train_test_split(ds, 0.8, seed=0)
        assert train.count == 53_444 and test.count == 13_362

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(2, 80), frac=st.floats(0.05, 0.95),
           seed=st.integers(0, 500))
    def test_disjoint_and_exhaustive(self, count, frac, seed):
        n_train = int(frac * count)
        if n_train < 1 or n_train >= count:
            return
        ds = D.generate_linesteer(count, 8, 8, seed=1)
        train, test = D.train_test_split(ds, frac, seed=seed)
        assert train.count + test.count == count
        combined = np.concatenate([train.targets, test.targets])
        assert sorted(combined.tolist()) == sorted(ds.targets.tolist())

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(2, 80), seed=st.integers(0, 500))
    def test_split_shuffles_in_place(self, count, seed):
        ds = D.generate_linesteer(count, 8, 8, seed=1)
        n_train = max(1, count // 2)
        if n_train >= count:
            return
        perm = np.random.default_rng(seed).permutation(count)
        expected = (ds.subset(perm[:n_train]), ds.subset(perm[n_train:]))
        got = D.train_test_split(ds, n_train / count, seed)
        for a, b in zip(expected, got):
            assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
        # train is the head of the shuffled set; only the test samples are copied
        assert np.shares_memory(got[0].inputs, ds.inputs)
        assert not np.shares_memory(got[1].inputs, ds.inputs)

    def test_empty_side_rejected(self):
        ds = D.generate_linesteer(3, 8, 8, seed=0)
        with pytest.raises(ValueError, match="empty"):
            D.train_test_split(ds, 0.1, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            D.train_test_split(ds, 1.2, seed=0)


class TestExternal:
    def test_roundtrip(self, tmp_path):
        ds = D.generate_linesteer(7, 8, 8, seed=4)
        D.save_external(tmp_path / "ext", ds)
        loaded = D.load_external(tmp_path / "ext")
        assert loaded.count == 7
        assert loaded.inputs.tobytes() == ds.inputs.tobytes()
        assert np.allclose(loaded.targets, ds.targets, atol=1e-15)

    def test_single_sample(self, tmp_path):
        ds = D.generate_linesteer(1, 8, 8, seed=4)
        D.save_external(tmp_path / "one", ds)
        assert D.load_external(tmp_path / "one").count == 1

    def test_out_of_range_angle_clamped_with_warning(self, tmp_path):
        ds = D.generate_linesteer(2, 8, 8, seed=4)
        D.save_external(tmp_path / "ext", ds)
        labels = tmp_path / "ext" / "labels.csv"
        rows = list(csv.reader(labels.open()))
        rows[1][1] = "1.5"
        with labels.open("w", newline="") as f:
            csv.writer(f).writerows(rows)
        with pytest.warns(UserWarning, match="clamped"):
            loaded = D.load_external(tmp_path / "ext")
        assert loaded.targets[0] == 1.0

    def test_empty_labels_rejected(self, tmp_path):
        ds = D.generate_linesteer(1, 8, 8, seed=4)
        D.save_external(tmp_path / "ext", ds)
        (tmp_path / "ext" / "labels.csv").write_text("file,angle\n")
        with pytest.raises(ValueError, match="no samples"):
            D.load_external(tmp_path / "ext")

    def test_missing_manifest_rejected(self, tmp_path):
        ds = D.generate_linesteer(1, 8, 8, seed=4)
        D.save_external(tmp_path / "ext", ds)
        (tmp_path / "ext" / "shape.json").unlink()
        with pytest.raises(ValueError, match="manifest"):
            D.load_external(tmp_path / "ext")

    def test_shape_mismatch_rejected(self, tmp_path):
        ds = D.generate_linesteer(2, 8, 8, seed=4)
        D.save_external(tmp_path / "ext", ds)
        sample = tmp_path / "ext" / "sample_000000.bin"
        sample.write_bytes(sample.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected 64"):
            D.load_external(tmp_path / "ext")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, tmp_path, bad, dtype):
        ds = D.generate_linesteer(3, 8, 8, seed=4)
        ds.inputs[1, 3, 4, 0] = bad
        D.save_external(tmp_path / "ext", ds)
        with pytest.raises(ValueError, match=r"^sample 1 \(data row 2 of labels.csv\) "
                                             r"holds a non-finite value$"):
            D.load_external(tmp_path / "ext", dtype)

    def test_missing_sample_file_rejected(self, tmp_path):
        ds = D.generate_linesteer(2, 8, 8, seed=4)
        D.save_external(tmp_path / "ext", ds)
        (tmp_path / "ext" / "sample_000001.bin").unlink()
        with pytest.raises(ValueError, match="unreadable"):
            D.load_external(tmp_path / "ext")


class TestDatasetChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_targets_must_be_finite_and_in_range(self, bad):
        with pytest.raises(ValueError, match="finite and lie in"):
            D.Dataset(inputs=np.zeros((2, 8, 8, 1)), targets=np.array([0.5, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_inputs_must_be_finite(self, bad):
        inputs = np.zeros((2, 8, 8, 1))
        inputs[1, 3, 4, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            D.Dataset(inputs=inputs, targets=np.zeros(2))

    def test_subset_skips_the_value_checks(self, monkeypatch):
        # the rows of a checked dataset need no second isfinite or range pass
        ds = D.generate_linesteer(10, 8, 8, seed=0)
        calls = []

        def counted(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("isfinite", "abs"):
            monkeypatch.setattr(np, name, counted(name))
        sub = ds.subset([3, 1, 3])
        assert calls == []
        D.Dataset(inputs=sub.inputs, targets=sub.targets)
        assert calls == ["abs", "isfinite"]
        assert np.array_equal(sub.inputs, ds.inputs[[3, 1, 3]])
        assert np.array_equal(sub.targets, ds.targets[[3, 1, 3]])

    def test_subset_still_checks_shapes(self):
        ds = D.generate_linesteer(4, 8, 8, seed=0)
        with pytest.raises(ValueError, match="nonempty NHWC"):
            ds.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="nonempty NHWC"):
            ds.subset([[0, 1]])
