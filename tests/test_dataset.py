import contextlib
import csv
import dataclasses
import hashlib
import json
import re
import tracemalloc
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

    @pytest.mark.parametrize("blank_lines", [0, 2])
    @pytest.mark.parametrize("case", ["id_x0", "short_row"])
    @pytest.mark.parametrize("name", CSV_FILES)
    def test_error_names_the_line(self, tmp_path, name, case, blank_lines):
        write_valid_layout(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        _, row = MALFORMED[case](lines[0].split(","), lines[2].split(","))
        lines[1:3] = [""] * blank_lines + [lines[1], ",".join(row)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetError, match=f"^{re.escape(name)}: line {3 + blank_lines}: "):
            ds.load_dataset(tmp_path)

    # 10000 blank lines put the byte past the decoder's first read of the file
    @pytest.mark.parametrize("blank_lines", [0, 10000])
    @pytest.mark.parametrize("name", CSV_FILES)
    def test_non_utf8_byte_names_the_line(self, tmp_path, monkeypatch, capsys, name, blank_lines):
        monkeypatch.setattr(ds, "_TRUTH_CHUNK", 4)  # truth.csv's last row is in its third chunk
        write_valid_layout(tmp_path / "data")
        path = tmp_path / "data" / name
        header, *rows = path.read_bytes().splitlines(keepends=True)
        rows[-1] = rows[-1][:1] + b"\xff" + rows[-1][1:]
        path.write_bytes(b"".join([header, *rows[:-1], b"\n" * blank_lines, rows[-1]]))
        (tmp_path / "wm.json").write_text("{}")
        rc = cli.main([
            "train-wm", "--config", str(tmp_path / "wm.json"), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "wm.ckpt"),
        ])
        assert rc == 2
        line = 1 + len(rows) + blank_lines
        assert capsys.readouterr().err.splitlines() == [
            f"error: {name}: line {line}: byte 0xff is not UTF-8 (invalid start byte)"
        ]
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


class TestTruthRange:
    """truth.csv holds values in [r_min, r_max], as the log does."""

    @staticmethod
    def write(root, value):
        write_valid_layout(root)
        path = root / "truth.csv"
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        lines[5] = ",".join(row[:2] + [value])
        lines[2:2] = [""]  # a blank line still counts: the bad row is line 7
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "5.0", "-3.0", "1.000001"])
    def test_value_outside_the_range_names_the_line(self, tmp_path, value):
        self.write(tmp_path, value)
        message = f"truth.csv: line 7: feedback {float(value)} outside [0.0,1.0]"
        with pytest.raises(ds.DatasetError, match=f"^{re.escape(message)}$"):
            ds.load_dataset(tmp_path)

    @pytest.mark.parametrize("value", ["0.0", "1.0"])
    def test_range_ends_load(self, tmp_path, value):
        self.write(tmp_path, value)
        assert float(value) in ds.load_dataset(tmp_path).truth_matrix

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        self.write(tmp_path / "data", "inf")
        (tmp_path / "wm.json").write_text("{}")
        rc = cli.main([
            "train-wm", "--config", str(tmp_path / "wm.json"), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "wm.ckpt"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: truth.csv: line 7: feedback inf outside [0.0,1.0]"
        ]
        assert not (tmp_path / "wm.ckpt").exists()


class TestTruthRepeats:
    """truth.csv lists each (user_id, item_id) cell once, as the log lists
    each (user, item, step) once."""

    @staticmethod
    def saved(root, chunk, monkeypatch):
        monkeypatch.setattr(ds, "_TRUTH_CHUNK", chunk)
        ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=6, items=5, seed=1)), root)
        return root / "truth.csv"

    @pytest.mark.parametrize("chunk", [4, 64])  # the repeat in a later chunk, or in the same one
    def test_appended_repeat_names_its_line(self, tmp_path, monkeypatch, chunk):
        path = self.saved(tmp_path, chunk, monkeypatch)
        path.write_text(path.read_text() + "0,0,0.999\n")  # the header and 30 cells come first
        with pytest.raises(ds.DatasetError, match=r"^truth\.csv: line 32: duplicate \(user,item\) \(0,0\)$"):
            ds.load_dataset(tmp_path)

    def test_repeat_within_a_chunk_names_the_later_line(self, tmp_path, monkeypatch):
        path = self.saved(tmp_path, 4, monkeypatch)
        lines = path.read_text().splitlines()
        lines[7] = lines[6].rsplit(",", 1)[0] + ",0.5"  # lines 7 and 8 share the second chunk
        path.write_text("\n".join(lines) + "\n")
        cell = lines[6].rsplit(",", 1)[0]
        with pytest.raises(ds.DatasetError, match=rf"^truth\.csv: line 8: duplicate \(user,item\) \({cell}\)$"):
            ds.load_dataset(tmp_path)

    def test_cli_prints_one_error_line(self, tmp_path, monkeypatch, capsys):
        path = self.saved(tmp_path / "data", 4096, monkeypatch)
        path.write_text(path.read_text() + "0,0,0.999\n")
        (tmp_path / "wm.json").write_text("{}")
        rc = cli.main([
            "train-wm", "--config", str(tmp_path / "wm.json"), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "wm.ckpt"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: truth.csv: line 32: duplicate (user,item) (0,0)"
        ]
        assert not (tmp_path / "wm.ckpt").exists()


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

    def test_csv_rows_end_in_crlf_and_no_temporaries_remain(self, tmp_path):
        ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=4, items=5, seed=1)), tmp_path)
        names = ["interactions.csv", "items.csv", "manifest.json", "truth.csv", "users.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in ("interactions.csv", "items.csv", "truth.csv", "users.csv"):
            lines = (tmp_path / name).read_bytes().split(b"\n")
            assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1]), name
        assert (tmp_path / "manifest.json").read_bytes().endswith(b"}\n")

    def test_truthless_save_removes_an_old_truth(self, tmp_path):
        ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=8, items=6, seed=1)), tmp_path)
        d = ds.generate_synthetic(ds.SyntheticSpec(users=8, items=6, seed=2))
        ds.save_dataset(dataclasses.replace(d, truth_matrix=None), tmp_path)
        loaded = ds.load_dataset(tmp_path)
        assert loaded.truth_matrix is None
        assert np.array_equal(loaded.train_log, d.train_log)

    def test_interrupted_overwrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=8, items=6, seed=1)), tmp_path)
        real_open = ds.atomic_open

        @contextlib.contextmanager
        def failing_open(path, *args, **kwargs):
            with real_open(path, *args, **kwargs) as fh:
                yield fh
                if path.name == "truth.csv":
                    raise OSError("disk full")

        monkeypatch.setattr(ds, "atomic_open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=8, items=6, seed=2)), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "interactions.csv", "items.csv", "truth.csv", "users.csv"
        ]
        with pytest.raises(ds.DatasetError, match="missing file: manifest.json"):
            ds.load_dataset(tmp_path)


def one_shot_truth(path):
    """truth.csv read by one np.loadtxt call: the rows, or numpy's error text."""
    with open(path, newline="") as fh:
        fh.readline()
        try:
            return np.loadtxt(fh, dtype=ds.LOG_DTYPE[:3], delimiter=",", quotechar='"',
                              comments=None, usecols=range(3), ndmin=1)
        except ValueError as exc:
            return str(exc).split("; use `usecols`")[0]


class TestChunkedTruth:
    CHUNK = 4

    @pytest.fixture
    def layout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ds, "_TRUTH_CHUNK", self.CHUNK)
        d = ds.generate_synthetic(ds.SyntheticSpec(users=5, items=7, log_density=0.3, seed=6))
        ds.save_dataset(d, tmp_path)
        return tmp_path

    def test_shuffled_quoted_rows_load_as_one_read(self, layout):
        path = layout / "truth.csv"
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rows = [rows[k] for k in rng_stream(6, "truth-order").permutation(len(rows))]
        # a run of blank lines longer than a chunk must not end the read
        rows[11:11] = [[]] * (self.CHUNK + 1)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([header] + rows)
        assert '"0"' in path.read_text()
        ref = one_shot_truth(path)
        assert len(ref) == 35 > 3 * self.CHUNK
        truth = np.full((5, 7), np.nan)
        truth[ref["user_id"], ref["item_id"]] = ref["feedback"]
        assert np.array_equal(ds.load_dataset(layout).truth_matrix, truth)

    @pytest.mark.parametrize("case", ["id_x0", "short_row", "nan_feedback"])
    def test_bad_row_in_a_later_chunk_counts_from_the_first_data_row(self, layout, case):
        path = layout / "truth.csv"
        lines = path.read_text().splitlines()
        at = 1 + 3 * self.CHUNK + 2  # a data row in the fourth chunk
        _, row = MALFORMED[case](lines[0].split(","), lines[at].split(","))
        lines[at] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetError) as err:
            ds.load_dataset(layout)
        # the header is line 1, so list index `at` is line at + 1
        assert str(err.value) == {
            "id_x0": f"truth.csv: line {at + 1}: could not convert string 'x0' to int64, column 1.",
            "short_row": f"truth.csv: line {at + 1}: invalid column index 2 with 2 columns",
            "nan_feedback": f"truth.csv: line {at + 1}: feedback nan outside [0.0,1.0]",
        }[case]


def one_shot_hash(d):
    """content_hash as one update per array and one for the whole log text."""
    h = hashlib.sha256()
    h.update(f"{d.n_users},{d.n_items},{d.r_min!r},{d.r_max!r}".encode())
    h.update(d.users.features.astype("<i8").tobytes())
    h.update(d.items.primary_category.astype("<i8").tobytes())
    h.update(d.items.features.astype("<i8").tobytes())
    h.update("".join(f"{u},{i},{fb!r},{step}" for u, i, fb, step in d.train_log.tolist()).encode())
    if d.truth_matrix is not None:
        h.update(d.truth_matrix.astype("<f8").tobytes())
    return h.hexdigest()


class TestContentHash:
    def test_equals_the_one_shot_formula(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ds, "_HASH_CHUNK", 7)
        d = ds.generate_synthetic(ds.SyntheticSpec(users=9, items=11, log_density=0.4, seed=8))
        assert len(d.train_log) > 5 * 7
        ds.save_dataset(d, tmp_path)
        for dataset in (d, ds.load_dataset(tmp_path)):
            assert ds.content_hash(dataset) == one_shot_hash(dataset)
        # arrays of other widths and layouts hash as their int64 / float64 C-order bytes
        d.users.features = d.users.features.astype(np.int32)
        d.truth_matrix = np.asfortranarray(d.truth_matrix)
        d.train_log = d.train_log[:7]
        assert ds.content_hash(d) == one_shot_hash(d)
        d.truth_matrix = None
        assert ds.content_hash(d) == one_shot_hash(d)


class TestLoadMemory:
    def test_load_peak_within_a_small_multiple_of_the_truth_matrix(self, tmp_path):
        # numpy reports its buffers to tracemalloc; a full-size table of
        # (user, item, feedback) records and its index arrays cost about 8x
        ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=300, items=400, seed=2)), tmp_path)
        tracemalloc.start()
        try:
            d = ds.load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * d.truth_matrix.nbytes


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
