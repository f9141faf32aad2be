import csv
import json
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from darlr import cli
from darlr import dataset as ds
from darlr.nncore import rng_stream


def write_layout(root, interactions, n_users, n_items, truth=None, r_min=0.0, r_max=1.0):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "interactions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "item_id", "feedback", "step"])
        w.writerows(interactions)
    with open(root / "users.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "feat_0"])
        for u in range(n_users):
            w.writerow([u, u % 3])
    with open(root / "items.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "category", "feat_0"])
        for i in range(n_items):
            w.writerow([i, i % 4, i % 2])
    if truth is not None:
        with open(root / "truth.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user_id", "item_id", "feedback"])
            for u in range(n_users):
                for i in range(n_items):
                    w.writerow([u, i, truth[u][i]])
    with open(root / "manifest.json", "w") as fh:
        json.dump({"r_min": r_min, "r_max": r_max, "name": "t", "seed": 0}, fh)


class TestLoadDataset:
    def test_coat_shaped_counts(self, tmp_path):
        write_layout(tmp_path, [[0, 0, 0.5, 0], [17, 299, 0.25, 0]], 290, 300)
        d = ds.load_dataset(tmp_path)
        assert d.n_users == 290
        assert d.n_items == 300

    def test_empty_log_rejected(self, tmp_path):
        write_layout(tmp_path, [], 4, 4)
        with pytest.raises(ds.DatasetError, match="empty log"):
            ds.load_dataset(tmp_path)

    def test_item_id_out_of_range(self, tmp_path):
        write_layout(tmp_path, [[0, 4, 0.5, 0]], 4, 4)
        with pytest.raises(ds.DatasetError, match="id out of range"):
            ds.load_dataset(tmp_path)

    def test_duplicate_triple_rejected(self, tmp_path):
        write_layout(tmp_path, [[0, 1, 0.5, 0], [0, 1, 0.7, 0]], 4, 4)
        with pytest.raises(ds.DatasetError, match="duplicate"):
            ds.load_dataset(tmp_path)

    def test_feedback_outside_range(self, tmp_path):
        write_layout(tmp_path, [[0, 1, 1.5, 0]], 4, 4)
        with pytest.raises(ds.DatasetError, match="outside"):
            ds.load_dataset(tmp_path)

    def test_missing_file(self, tmp_path):
        write_layout(tmp_path, [[0, 1, 0.5, 0]], 4, 4)
        (tmp_path / "items.csv").unlink()
        with pytest.raises(ds.DatasetError, match="missing file"):
            ds.load_dataset(tmp_path)

    def test_sparse_truth_rejected(self, tmp_path):
        write_layout(tmp_path, [[0, 1, 0.5, 0]], 2, 2, truth=[[0.1, 0.2], [0.3, 0.4]])
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        (tmp_path / "truth.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ds.DatasetError, match="dense"):
            ds.load_dataset(tmp_path)


def _nan_feedback(header, row):
    col = header.index("feedback") if "feedback" in header else len(header) - 1
    return header, row[:col] + ["nan"] + row[col + 1 :]


# each case rewrites the header and the last data row of one CSV file
MALFORMED = {
    "short_row": lambda header, row: (header, row[:-1]),
    "id_x0": lambda header, row: (header, ["x0"] + row[1:]),
    "id_float": lambda header, row: (header, ["1.0"] + row[1:]),
    "blank_field": lambda header, row: (header, row[:1] + [""] + row[2:]),
    "nan_feedback": _nan_feedback,
    "missing_header_column": lambda header, row: (header[:-1], row),
}
CSV_FILES = ["interactions.csv", "users.csv", "items.csv", "truth.csv"]


def write_valid_layout(root):
    truth = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    write_layout(root, [[0, 1, 0.5, 0], [1, 2, 0.25, 0], [2, 0, 0.75, 1]], 3, 3, truth=truth)


def corrupt(path, case):
    lines = path.read_text().splitlines()
    header, row = MALFORMED[case](lines[0].split(","), lines[-1].split(","))
    path.write_text("\n".join([",".join(header)] + lines[1:-1] + [",".join(row)]) + "\n")


class TestLoadRemap:
    def test_sparse_shuffled_ids_match_loop_reference(self, tmp_path):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=9, items=11, log_density=0.4, seed=4))
        ds.save_dataset(d, tmp_path)
        rng = rng_stream(4, "shuffle")
        user_raw, item_raw = rng.permutation(50)[:9] * 7 + 3, rng.permutation(60)[:11] * 5 - 20
        for name, cols in (("users.csv", [user_raw]), ("items.csv", [item_raw]),
                           ("interactions.csv", [user_raw, item_raw]), ("truth.csv", [user_raw, item_raw])):
            lines = (tmp_path / name).read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            for row in rows:
                for j, raw in enumerate(cols):
                    row[j] = str(raw[int(row[j])])
            rows = [rows[k] for k in rng.permutation(len(rows))]
            (tmp_path / name).write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        loaded = ds.load_dataset(tmp_path)
        # loop reference: a raw id's dense index is its rank among the raw ids
        u_dense = [sorted(user_raw.tolist()).index(raw) for raw in user_raw.tolist()]
        i_dense = [sorted(item_raw.tolist()).index(raw) for raw in item_raw.tolist()]
        records = sorted((u_dense[u], i_dense[i], fb, step) for u, i, fb, step in d.train_log.tolist())
        assert sorted(loaded.train_log.tolist()) == records
        keys = loaded.train_log[["user_id", "step"]].tolist()
        assert keys == sorted(keys)
        assert np.array_equal(loaded.truth_matrix[np.ix_(u_dense, i_dense)], d.truth_matrix)


class TestMalformedCsv:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("name", CSV_FILES)
    def test_error_names_the_file(self, tmp_path, name, case):
        write_valid_layout(tmp_path)
        ds.load_dataset(tmp_path)
        corrupt(tmp_path / name, case)
        with pytest.raises(ds.DatasetError, match=re.escape(name)):
            ds.load_dataset(tmp_path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("name", CSV_FILES)
    def test_cli_prints_one_error_line(self, tmp_path, capsys, name, case):
        write_valid_layout(tmp_path / "data")
        corrupt(tmp_path / "data" / name, case)
        (tmp_path / "wm.json").write_text("{}")
        rc = cli.main([
            "train-wm", "--config", str(tmp_path / "wm.json"), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "wm.ckpt"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
        assert not (tmp_path / "wm.ckpt").exists()

    def test_quoted_numbers_load(self, tmp_path):
        write_valid_layout(tmp_path)
        plain = ds.load_dataset(tmp_path)
        for name in CSV_FILES:
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.reader(fh))
            with open(tmp_path / name, "w", newline="") as fh:
                csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
        assert '"0"' in (tmp_path / "interactions.csv").read_text()
        assert ds.content_hash(ds.load_dataset(tmp_path)) == ds.content_hash(plain)

    def test_header_only_file_is_one_error(self, tmp_path):
        write_valid_layout(tmp_path)
        (tmp_path / "users.csv").write_text("user_id,feat_0\n")
        with pytest.raises(ds.DatasetError, match="users.csv: no users"):
            ds.load_dataset(tmp_path)


# each case is the text of manifest.json
BAD_MANIFESTS = {
    "invalid_json": '{"r_min": 0.0, "r_max": 1.0',
    "not_utf8": b'{"r_min": 0, "r_max": "\xff"}',
    "not_an_object": "[0.0, 1.0]",
    "r_min_string": '{"r_min": "x", "r_max": 1.0}',
    "r_max_null": '{"r_min": 0.0, "r_max": null}',
    "r_min_bool": '{"r_min": false, "r_max": 1.0}',
    "r_max_nan": '{"r_min": 0.0, "r_max": NaN}',
    "r_max_infinity": '{"r_min": 0.0, "r_max": Infinity}',
    "r_max_huge_int": '{"r_min": 0, "r_max": 1' + "0" * 400 + "}",
    "r_min_equals_r_max": '{"r_min": 1.0, "r_max": 1.0}',
    "r_min_above_r_max": '{"r_min": 2, "r_max": 1}',
    "unknown_key": '{"r_min": 0.0, "r_max": 1.0, "nme": "x"}',
}


class TestMalformedManifest:
    @staticmethod
    def write(root, case):
        text = BAD_MANIFESTS[case]
        path = root / "manifest.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_error_names_the_file(self, tmp_path, case):
        write_valid_layout(tmp_path)
        self.write(tmp_path, case)
        with pytest.raises(ds.DatasetError, match="manifest.json"):
            ds.load_dataset(tmp_path)

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_cli_prints_one_error_line(self, tmp_path, capsys, case):
        write_valid_layout(tmp_path / "data")
        self.write(tmp_path / "data", case)
        (tmp_path / "wm.json").write_text("{}")
        rc = cli.main([
            "train-wm", "--config", str(tmp_path / "wm.json"), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "wm.ckpt"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'data' / 'manifest.json'}: ")
        assert not (tmp_path / "wm.ckpt").exists()

    def test_integer_range_loads_as_floats(self, tmp_path):
        write_valid_layout(tmp_path)
        (tmp_path / "manifest.json").write_text('{"r_min": 0, "r_max": 1}')
        d = ds.load_dataset(tmp_path)
        assert (d.r_min, d.r_max) == (0.0, 1.0)
        assert isinstance(d.r_min, float) and isinstance(d.r_max, float)


class TestGenerateSynthetic:
    def test_deterministic_in_seed(self):
        a = ds.generate_synthetic(ds.SyntheticSpec(users=10, items=12, seed=7))
        b = ds.generate_synthetic(ds.SyntheticSpec(users=10, items=12, seed=7))
        assert ds.content_hash(a) == ds.content_hash(b)
        assert np.array_equal(a.train_log, b.train_log)

    def test_noiseless_full_log_equals_truth(self):
        spec = ds.SyntheticSpec(users=6, items=8, noise_sd=0.0, log_density=1.0, seed=3)
        d = ds.generate_synthetic(spec)
        assert len(d.train_log) == 48
        log = d.train_log
        assert np.array_equal(log["feedback"], d.truth_matrix[log["user_id"], log["item_id"]])

    def test_density_record_count(self):
        spec = ds.SyntheticSpec(users=50, items=40, log_density=0.05, seed=1)
        d = ds.generate_synthetic(spec)
        assert len(d.train_log) == 100

    def test_density_within_one_record(self):
        rng = rng_stream(9, "density")
        for _ in range(5):
            dens = float(rng.uniform(0.02, 0.9))
            spec = ds.SyntheticSpec(users=9, items=11, log_density=dens, seed=int(rng.integers(1000)))
            d = ds.generate_synthetic(spec)
            assert abs(len(d.train_log) - dens * 99) <= 1.0

    def test_pairs_distinct_and_steps_dense(self):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=8, items=9, log_density=0.4, seed=5))
        pairs = [(u, i) for u, i, _, _ in d.train_log.tolist()]
        assert len(pairs) == len(set(pairs))
        by_user = defaultdict(list)
        for u, _, _, step in d.train_log.tolist():
            by_user[u].append(step)
        for steps in by_user.values():
            assert sorted(steps) == list(range(len(steps)))

    def test_categories_dense(self):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=5, items=20, categories=6, seed=2))
        assert set(d.items.primary_category.tolist()) == set(range(6))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ds.DatasetError):
            ds.SyntheticSpec(users=1, items=5).validate()
        with pytest.raises(ds.DatasetError):
            ds.SyntheticSpec(users=5, items=5, log_density=0.0).validate()
        with pytest.raises(ds.DatasetError):
            ds.SyntheticSpec(users=5, items=5, noise_sd=-1.0).validate()


class TestSaveLoadRoundTrip:
    def test_field_for_field(self, tmp_path):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=7, items=9, log_density=0.3, seed=11))
        ds.save_dataset(d, tmp_path)
        d2 = ds.load_dataset(tmp_path)
        assert np.array_equal(d2.train_log, d.train_log)
        assert d2.n_users == d.n_users and d2.n_items == d.n_items
        assert np.array_equal(d2.users.features, d.users.features)
        assert np.array_equal(d2.items.primary_category, d.items.primary_category)
        assert np.array_equal(d2.items.features, d.items.features)
        assert np.array_equal(d2.truth_matrix, d.truth_matrix)
        assert (d2.r_min, d2.r_max) == (d.r_min, d.r_max)
        assert ds.content_hash(d2) == ds.content_hash(d)


def toy_dataset(items_by_user, n_items, categories):
    """Hand-built dataset, category id = categories[item]."""
    log = np.array(
        [(u, item, 0.5, step) for u, items in enumerate(items_by_user) for step, item in enumerate(items)],
        dtype=ds.LOG_DTYPE,
    )
    n_users = len(items_by_user)
    return ds.Dataset(
        train_log=log,
        users=ds.UserCatalog(count=n_users, features=np.zeros((n_users, 1), dtype=np.int64)),
        items=ds.ItemCatalog(
            count=n_items,
            primary_category=np.asarray(categories, dtype=np.int64),
            features=np.zeros((n_items, 1), dtype=np.int64),
        ),
        truth_matrix=None,
        r_min=0.0,
        r_max=1.0,
    )


class TestBehaviorStats:
    def test_uniform_log_k0(self):
        d = toy_dataset([[0, 1, 2, 3]], 4, [0, 1, 2, 3])
        stats = ds.behavior_stats(d, k=0, alpha=1.0)
        assert np.allclose(stats.probs(()), 0.25, atol=1e-12)

    def test_single_pair_pattern(self):
        d = toy_dataset([[2, 5]], 8, [0, 0, 3, 1, 1, 1, 2, 2])
        stats = ds.behavior_stats(d, k=1, alpha=1.0)
        pattern = (3,)  # category of item 2
        assert pattern in stats.pattern_counts
        counts = stats.pattern_counts[pattern]
        assert counts[5] == 1 and counts.sum() == 1

    def test_counts_match_brute_force(self):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=12, items=15, categories=4, log_density=0.4, seed=21))
        stats = ds.behavior_stats(d, k=1, alpha=1.0)
        # independent recount straight off the records
        expected = defaultdict(lambda: np.zeros(15))
        totals = np.zeros(15)
        by_user = defaultdict(list)
        for u, item, _, step in d.train_log.tolist():
            by_user[u].append((step, item))
        for recs in by_user.values():
            items = [item for _, item in sorted(recs)]
            for j, item in enumerate(items):
                totals[item] += 1
                if j >= 1:
                    prev_cat = int(d.items.primary_category[items[j - 1]])
                    expected[(prev_cat,)][item] += 1
        assert np.array_equal(stats.item_totals, totals)
        assert set(stats.pattern_counts) == set(expected)
        for pattern, counts in expected.items():
            assert np.array_equal(stats.pattern_counts[pattern], counts)

    @pytest.mark.parametrize("k", [2, 3])
    def test_higher_orders_match_loop_reference(self, k):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=9, items=14, categories=3, log_density=0.5, seed=13))
        stats = ds.behavior_stats(d, k=k, alpha=1.0)
        expected = defaultdict(lambda: np.zeros(14))
        cat = d.items.primary_category
        by_user = defaultdict(list)
        for u, item, _, step in d.train_log.tolist():
            by_user[u].append((step, item))
        for recs in by_user.values():
            items = [item for _, item in sorted(recs)]
            for j, item in enumerate(items):
                for m in range(1, min(j, k) + 1):
                    expected[tuple(int(cat[x]) for x in items[j - m : j])][item] += 1
        assert set(stats.pattern_counts) == set(expected)
        for pattern, counts in expected.items():
            assert np.array_equal(stats.pattern_counts[pattern], counts)

    def test_smoothed_distributions_sum_to_one(self):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=10, items=13, log_density=0.3, seed=8))
        stats = ds.behavior_stats(d, k=2, alpha=0.5)
        assert abs(stats.probs(()).sum() - 1.0) < 1e-9
        for pattern in stats.pattern_counts:
            assert abs(stats.probs(pattern).sum() - 1.0) < 1e-9

    def test_backoff_to_shorter_suffix(self):
        d = toy_dataset([[0, 1, 2]], 4, [0, 1, 2, 3])
        stats = ds.behavior_stats(d, k=2, alpha=1.0)
        # unseen 2-gram (3, 1) backs off to the seen 1-gram (1,)
        assert np.array_equal(stats.counts_for((3, 1)), stats.counts_for((1,)))
        # fully unseen chain lands on the unconditional counts
        assert np.array_equal(stats.counts_for((3, 3)), stats.item_totals)

    def test_validation(self):
        d = toy_dataset([[0, 1]], 2, [0, 1])
        with pytest.raises(ValueError):
            ds.behavior_stats(d, k=-1)
        with pytest.raises(ValueError):
            ds.behavior_stats(d, k=1, alpha=0.0)
