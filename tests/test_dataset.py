import contextlib
import csv
import dataclasses
import hashlib
import io
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
        np.save(root / "truth.npy", np.asarray(truth, dtype=np.float64))
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
CSV_FILES = ["interactions.csv", "users.csv", "items.csv"]


def write_valid_layout(root):
    truth = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    write_layout(root, [[0, 1, 0.5, 0], [1, 2, 0.25, 0], [2, 0, 0.75, 1]], 3, 3, truth=truth)


def corrupt(path, case):
    lines = path.read_text().splitlines()
    header, row = MALFORMED[case](lines[0].split(","), lines[-1].split(","))
    path.write_text("\n".join([",".join(header)] + lines[1:-1] + [",".join(row)]) + "\n")


def dense_ranks(raw_ids):
    """Loop reference: a raw id's dense index is its rank among the raw ids."""
    return [sorted(raw_ids.tolist()).index(raw) for raw in raw_ids.tolist()]


def give_raw_ids(root, user_raw, item_raw, rng):
    """Rename the dense ids of a saved dataset: user k becomes user_raw[k] and
    item k item_raw[k]. The CSV rows are shuffled, and truth.npy is permuted
    into ascending raw-id order."""
    for name, cols in (("users.csv", [user_raw]), ("items.csv", [item_raw]),
                       ("interactions.csv", [user_raw, item_raw])):
        lines = (root / name).read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            for j, raw in enumerate(cols):
                row[j] = str(raw[int(row[j])])
        rows = [rows[k] for k in rng.permutation(len(rows))]
        (root / name).write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    truth = np.load(root / "truth.npy")
    by_raw_id = np.empty_like(truth)
    by_raw_id[np.ix_(dense_ranks(user_raw), dense_ranks(item_raw))] = truth
    np.save(root / "truth.npy", by_raw_id)


class TestLoadRemap:
    def test_sparse_shuffled_ids_match_loop_reference(self, tmp_path):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=9, items=11, log_density=0.4, seed=4))
        ds.save_dataset(d, tmp_path)
        rng = rng_stream(4, "shuffle")
        user_raw, item_raw = rng.permutation(50)[:9] * 7 + 3, rng.permutation(60)[:11] * 5 - 20
        give_raw_ids(tmp_path, user_raw, item_raw, rng)
        loaded = ds.load_dataset(tmp_path)
        u_dense, i_dense = dense_ranks(user_raw), dense_ranks(item_raw)
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
    def test_non_utf8_byte_names_the_line(self, tmp_path, capsys, name, blank_lines):
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

    # csv.writer ends each line with \r\n, the case above; here the lines end
    # with `ending`, and a bad byte in the header is on line 1
    @pytest.mark.parametrize("row, ending", [(0, b"\n"), (0, b"\r\n"), (-1, b"\n")],
                             ids=["header-lf", "header-crlf", "last-row-lf"])
    @pytest.mark.parametrize("name", CSV_FILES)
    def test_non_utf8_byte_line_in_header_and_lf_files(self, tmp_path, name, row, ending):
        write_valid_layout(tmp_path)
        path = tmp_path / name
        lines = path.read_bytes().splitlines()
        lines[row] = lines[row][:1] + b"\xff" + lines[row][1:]
        path.write_bytes(b"".join(line + ending for line in lines))
        number = 1 if row == 0 else len(lines)
        message = f"{name}: line {number}: byte 0xff is not UTF-8 (invalid start byte)"
        with pytest.raises(ds.DatasetError, match=f"^{re.escape(message)}$"):
            ds.load_dataset(tmp_path)

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


def train_wm_cli(root, capsys):
    """`train-wm` on the dataset at root/data: its exit code and stderr lines.
    A failure must leave nothing at root/wm.ckpt."""
    (root / "wm.json").write_text("{}")
    rc = cli.main([
        "train-wm", "--config", str(root / "wm.json"), "--data", str(root / "data"),
        "--out", str(root / "wm.ckpt"),
    ])
    assert rc == 0 or not (root / "wm.ckpt").exists()
    return rc, capsys.readouterr().err.splitlines()


class TestTruthRange:
    """truth.npy holds values in [r_min, r_max], as the log does; the first
    bad cell in row-major order is named by its raw ids."""

    @staticmethod
    def write(root, value):
        ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=3, items=4, categories=2, seed=1)), root)
        give_raw_ids(root, np.array([30, 10, 20]), np.array([7, -2, 5, 0]), rng_stream(1, "ids"))
        truth = np.load(root / "truth.npy")
        truth[1, 2] = truth[2, 0] = float(value)  # raw ids (20, 5), then (30, -2)
        np.save(root / "truth.npy", truth)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "5.0", "-3.0", "1.000001"])
    def test_value_outside_the_range_names_the_cell(self, tmp_path, value):
        self.write(tmp_path, value)
        message = f"truth.npy: user_id 20, item_id 5: feedback {float(value)} outside [0.0,1.0]"
        with pytest.raises(ds.DatasetError, match=f"^{re.escape(message)}$"):
            ds.load_dataset(tmp_path)

    @pytest.mark.parametrize("value", ["0.0", "1.0"])
    def test_range_ends_load(self, tmp_path, value):
        self.write(tmp_path, value)
        assert float(value) in ds.load_dataset(tmp_path).truth_matrix

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        self.write(tmp_path / "data", "inf")
        assert train_wm_cli(tmp_path, capsys) == (
            2, ["error: truth.npy: user_id 20, item_id 5: feedback inf outside [0.0,1.0]"]
        )


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
        d = ds.generate_synthetic(ds.SyntheticSpec(users=4, items=5, seed=1))
        ds.save_dataset(d, tmp_path)
        names = ["interactions.csv", "items.csv", "manifest.json", "truth.npy", "users.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        with open(tmp_path / "truth.npy", "rb") as fh:
            assert fh.read() == npy_bytes(d.truth_matrix)
        for name in CSV_FILES:
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
                if path.name == "truth.npy":
                    raise OSError("disk full")

        monkeypatch.setattr(ds, "atomic_open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            ds.save_dataset(ds.generate_synthetic(ds.SyntheticSpec(users=8, items=6, seed=2)), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "interactions.csv", "items.csv", "truth.npy", "users.csv"
        ]
        with pytest.raises(ds.DatasetError, match="missing file: manifest.json"):
            ds.load_dataset(tmp_path)


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def npy_header_only(shape):
    """A .npy header declaring a float64 array of `shape`, and no data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


def npz_bytes(array):
    buf = io.BytesIO()
    np.savez(buf, truth=array)
    return buf.getvalue()


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class Tripwire:
    """An object whose unpickling is recorded in UNPICKLED."""

    def __reduce__(self):
        return _record_unpickling, ()


def tripwires(shape):
    out = np.empty(shape, dtype=object)
    out.fill(Tripwire())
    return out


# 3 users x 4 items; each case: the bytes of truth.npy, and the start of its error
TRUTH = np.arange(12.0).reshape(3, 4) / 12
BAD_TRUTH = {
    "transposed": (npy_bytes(TRUTH.T),
                   "truth.npy: a <f8 array of shape (4, 3), not <f8 of (users, items) = (3, 4)"),
    "float32": (npy_bytes(TRUTH.astype(np.float32)), "truth.npy: a <f4 array of shape (3, 4), not <f8"),
    "int64": (npy_bytes((TRUTH > 0.5).astype(np.int64)), "truth.npy: a <i8 array of shape (3, 4), not <f8"),
    "big_endian": (npy_bytes(TRUTH.astype(">f8")), "truth.npy: a >f8 array of shape (3, 4), not <f8"),
    "pickled_objects": (npy_bytes(tripwires((3, 4))), "truth.npy: a |O array of shape (3, 4), not <f8"),
    "one_dimensional": (npy_bytes(TRUTH.reshape(-1)), "truth.npy: a <f8 array of shape (12,), not <f8"),
    "huge_shape": (npy_header_only((2**40, 2**40)), "truth.npy: a <f8 array of shape (1099511627776,"),
    "truncated": (npy_bytes(TRUTH)[:-5], "truth.npy: unreadable .npy array: Failed to read all data"),
    "trailing_byte": (npy_bytes(TRUTH) + b"\0", "truth.npy: bytes after the array"),
    "npz": (npz_bytes(TRUTH), "truth.npy: unreadable .npy array: the magic string is not correct"),
    "empty": (b"", "truth.npy: unreadable .npy array: EOF: reading magic string"),
}


class TestTruthNpy:
    """truth.npy is one .npy record of a little-endian float64 users x items
    array; its header is checked before any data is read."""

    @staticmethod
    def write(root, data):
        write_layout(root, [[0, 1, 0.5, 0], [2, 3, 0.25, 0]], 3, 4, truth=TRUTH)
        (root / "truth.npy").write_bytes(data)

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH))
    def test_error_names_the_file(self, tmp_path, case):
        data, message = BAD_TRUTH[case]
        self.write(tmp_path, data)
        with pytest.raises(ds.DatasetError) as err:
            ds.load_dataset(tmp_path)
        assert str(err.value).startswith(message) and "\n" not in str(err.value)
        assert UNPICKLED == []

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH))
    def test_cli_prints_one_error_line(self, tmp_path, capsys, case):
        data, message = BAD_TRUTH[case]
        self.write(tmp_path / "data", data)
        rc, err = train_wm_cli(tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    def test_huge_shape_is_rejected_before_any_allocation(self, tmp_path):
        self.write(tmp_path, npy_header_only((2**40, 2**40)))
        tracemalloc.start()
        try:
            with pytest.raises(ds.DatasetError, match="shape"):
                ds.load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_either_memory_layout_loads_the_same_matrix(self, tmp_path, layout):
        self.write(tmp_path, npy_bytes(np.asarray(TRUTH, order=layout)))
        assert np.array_equal(ds.load_dataset(tmp_path).truth_matrix, TRUTH)


class TestOldLayout:
    """A directory written before truth.npy, with its matrix in truth.csv."""

    MESSAGE = "truth.csv: a truth matrix in CSV is no longer read; gen-data now writes truth.npy"

    @staticmethod
    def write(root):
        write_valid_layout(root)
        (root / "truth.npy").unlink()
        cells = [f"{u},{i},{(3 * u + i + 1) / 10!r}" for u in range(3) for i in range(3)]
        (root / "truth.csv").write_text("\n".join(["user_id,item_id,feedback", *cells]) + "\n")

    def test_load_names_the_old_file(self, tmp_path):
        self.write(tmp_path)
        with pytest.raises(ds.DatasetError, match=f"^{re.escape(self.MESSAGE)}$"):
            ds.load_dataset(tmp_path)

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        self.write(tmp_path / "data")
        assert train_wm_cli(tmp_path, capsys) == (2, [f"error: {self.MESSAGE}"])

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_save_removes_the_old_file(self, tmp_path, with_truth):
        self.write(tmp_path)
        d = ds.generate_synthetic(ds.SyntheticSpec(users=4, items=5, seed=1))
        ds.save_dataset(d if with_truth else dataclasses.replace(d, truth_matrix=None), tmp_path)
        assert not (tmp_path / "truth.csv").exists()
        assert (tmp_path / "truth.npy").exists() == with_truth
        assert ds.content_hash(ds.load_dataset(tmp_path)) == ds.content_hash(
            d if with_truth else dataclasses.replace(d, truth_matrix=None))


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


def literal_dataset(with_truth):
    """A dataset written out by hand: no generator, so no BLAS kernel, made it."""
    log = np.array([(0, 2, 0.5, 0), (0, 0, 0.25, 1), (1, 1, 1 / 3, 0)], dtype=ds.LOG_DTYPE)
    return ds.Dataset(
        train_log=log,
        users=ds.UserCatalog(count=2, features=np.array([[0, 1], [1, 0]])),
        items=ds.ItemCatalog(count=3, primary_category=np.array([1, 0, 1]),
                             features=np.array([[0], [1], [1]])),
        truth_matrix=np.array([[0.1, 0.2, 0.3], [0.4, 2 / 3, 1.0]]) if with_truth else None,
        r_min=0.0, r_max=1.0, name="pinned", seed=5,
    )


# every wm.ckpt and bundle stores this hash as its dataset_hash
PINNED_HASHES = {
    True: "c7e7851869f41c70cfbadfd4ac8a598298403566a09547e17c4de3fca56d74fe",
    False: "27f0dd46ffb9bec6e4f7a65a90dbabd1bf5640598b4d1c0cb05ff440382f92ae",
}


class TestPinnedHash:
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_saved_and_reloaded_dataset_hashes_to_the_recorded_digest(self, tmp_path, with_truth):
        d = literal_dataset(with_truth)
        ds.save_dataset(d, tmp_path)
        assert ds.content_hash(d) == ds.content_hash(ds.load_dataset(tmp_path)) == PINNED_HASHES[with_truth]


class TestLoadMemory:
    def test_load_peak_within_a_small_multiple_of_the_truth_matrix(self, tmp_path):
        # numpy reports its buffers to tracemalloc; the matrix is read into
        # one buffer of its own size, beside the small CSV tables
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
