"""Offline recommendation datasets: loading, synthesis, behavior statistics.

A dataset is an interaction log plus user/item catalogs and, for the
evaluation environment only, a dense ground-truth feedback matrix. The
layout is fixed: interactions.csv, users.csv, items.csv, an optional
truth.npy holding the users x items matrix in ascending raw-id order, and
manifest.json declaring the feedback range.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, config_from_dict, read_json_object
from .nncore import atomic_open, rng_stream


class DatasetError(ValueError):
    pass


# One logged interaction per element; a log is always sorted by (user_id, step).
LOG_DTYPE = [("user_id", "<i8"), ("item_id", "<i8"), ("feedback", "<f8"), ("step", "<i8")]

# Log records rendered to text at a time by content_hash.
_HASH_CHUNK = 4096


@dataclass
class ItemCatalog:
    count: int
    primary_category: np.ndarray  # (|I|,) int
    features: np.ndarray  # (|I|, n_feat) int


@dataclass
class UserCatalog:
    count: int
    features: np.ndarray  # (|U|, n_feat) int


@dataclass
class Dataset:
    train_log: np.ndarray  # LOG_DTYPE records
    users: UserCatalog
    items: ItemCatalog
    truth_matrix: np.ndarray | None
    r_min: float
    r_max: float
    name: str = ""
    seed: int | None = None

    @property
    def n_users(self):
        return self.users.count

    @property
    def n_items(self):
        return self.items.count


@dataclass
class DatasetManifest:
    """`manifest.json` of a dataset directory: the feedback range and provenance."""

    r_min: float
    r_max: float
    name: str = ""
    seed: int | None = None

    def validate(self):
        if self.r_min >= self.r_max:
            raise ValueError(f"r_min {self.r_min} must be below r_max {self.r_max}")


@dataclass
class SyntheticSpec:
    users: int
    items: int
    categories: int = 5
    latent_dim: int = 4
    noise_sd: float = 0.05
    log_density: float = 0.05
    popularity_skew: float = 1.0
    seed: int = 0

    def validate(self):
        if self.users < 2:
            raise DatasetError("need >=2 users")
        if self.items < 2:
            raise DatasetError("need >=2 items")
        if not (0.0 < self.log_density <= 1.0):
            raise DatasetError("log_density must be in (0, 1]")
        if not (0.0 <= self.noise_sd <= 1.0):
            raise DatasetError("noise_sd must be in [0, 1]")
        if self.latent_dim < 1:
            raise DatasetError("latent_dim must be >= 1")
        if not (1 <= self.categories <= self.items):
            raise DatasetError("categories must be in [1, items]")
        if not (0.0 <= self.popularity_skew <= 10.0):
            raise DatasetError("popularity_skew must be in [0, 10]")


def _dense_labels(rng, n, n_labels):
    """Random label per position, with every label in [0, n_labels) present."""
    n_labels = min(n_labels, n)
    labels = np.concatenate(
        [np.arange(n_labels), rng.integers(0, n_labels, size=n - n_labels)]
    )
    return labels[rng.permutation(n)]


def _rank_in_run(keys):
    """0, 1, 2, ... within each run of equal values of a sorted array."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Low-rank truth matrix plus a popularity-skewed sparse log.

    truth[u, i] = clip(sigmoid(x_u . y_i) + noise, 0, 1) with seeded latent
    factors; the log observes a density-sized subset of cells, item choice
    skewed by a Zipf-like popularity weight, with fresh observation noise.
    Fully deterministic in spec.seed.
    """
    spec.validate()
    rng = rng_stream(spec.seed, "synthetic")
    nu, ni, nl = spec.users, spec.items, spec.latent_dim

    x = rng.normal(size=(nu, nl))
    y = rng.normal(size=(ni, nl))
    logits = x @ y.T / math.sqrt(nl)
    truth = 1.0 / (1.0 + np.exp(-logits))
    truth = np.clip(truth + rng.normal(0.0, 1.0, size=truth.shape) * spec.noise_sd, 0.0, 1.0)

    categories = _dense_labels(rng, ni, spec.categories)
    user_groups = _dense_labels(rng, nu, min(4, nu))

    pop_rank = rng.permutation(ni)
    weights = np.empty(ni)
    weights[pop_rank] = 1.0 / (np.arange(ni) + 1.0) ** spec.popularity_skew
    weights /= weights.sum()
    n_tiers = min(4, ni)
    tiers = np.empty(ni, dtype=np.int64)
    tiers[pop_rank] = (np.arange(ni) * n_tiers) // ni
    item_features = tiers.reshape(-1, 1)
    user_features = user_groups.reshape(-1, 1)

    # weighted sampling of cells without replacement (exponential-key trick)
    n_records = int(round(spec.log_density * nu * ni))
    n_records = max(1, min(n_records, nu * ni))
    cell_w = np.tile(weights, nu)  # uniform over users, skewed over items
    keys = np.log(rng.random(nu * ni)) / cell_w
    order = np.lexsort((np.arange(nu * ni), -keys))
    chosen = order[:n_records]
    chosen = chosen[rng.permutation(n_records)]  # per-user interaction order
    users_c = chosen // ni
    items_c = chosen % ni

    fb = truth[users_c, items_c]
    if spec.noise_sd > 0:
        fb = np.clip(fb + rng.normal(0.0, spec.noise_sd, size=n_records), 0.0, 1.0)

    by_user = np.argsort(users_c, kind="stable")  # steps count a user's records in this order
    log = np.empty(n_records, dtype=LOG_DTYPE)
    log["user_id"], log["item_id"], log["feedback"] = users_c[by_user], items_c[by_user], fb[by_user]
    log["step"] = _rank_in_run(log["user_id"])

    return Dataset(
        train_log=log,
        users=UserCatalog(count=nu, features=user_features),
        items=ItemCatalog(count=ni, primary_category=categories, features=item_features),
        truth_matrix=truth,
        r_min=0.0,
        r_max=1.0,
        name=f"synthetic-{spec.seed}",
        seed=spec.seed,
    )


def save_dataset(d: Dataset, dir_path):
    """Write the CSV + .npy + manifest layout under dir_path.

    `manifest.json` is removed first and written last, and each file is
    replaced whole through `atomic_open`, so an interrupted save leaves a
    directory that `load_dataset` rejects for its missing manifest. A
    dataset without truth removes a `truth.npy` left by an earlier save,
    and every save removes the `truth.csv` of the old layout.
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)

    with atomic_open(out / "interactions.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "item_id", "feedback", "step"])
        w.writerows([u, i, repr(fb), step] for u, i, fb, step in d.train_log.tolist())

    n_uf = d.users.features.shape[1]
    with atomic_open(out / "users.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id"] + [f"feat_{j}" for j in range(n_uf)])
        w.writerows([u] + feats for u, feats in enumerate(d.users.features.tolist()))

    n_if = d.items.features.shape[1]
    with atomic_open(out / "items.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "category"] + [f"feat_{j}" for j in range(n_if)])
        cats = d.items.primary_category.tolist()
        w.writerows([i, cats[i]] + feats for i, feats in enumerate(d.items.features.tolist()))

    (out / "truth.csv").unlink(missing_ok=True)
    if d.truth_matrix is None:
        (out / "truth.npy").unlink(missing_ok=True)
    else:
        with atomic_open(out / "truth.npy", "wb") as fh:
            np.save(fh, np.ascontiguousarray(d.truth_matrix, dtype="<f8"), allow_pickle=False)

    manifest = DatasetManifest(d.r_min, d.r_max, d.name, d.seed)
    with atomic_open(out / "manifest.json") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_rows(name, fh, dtype):
    """The CSV lines of an open file, just below its header, as an array; a
    fault is a DatasetError naming the file and the line.

    A structured dtype reads just its leading columns; a plain dtype reads
    every column, as many in each row as in the first. The header is line
    1, and blank lines count.
    """
    names = np.dtype(dtype).names
    read = functools.partial(
        np.loadtxt, dtype=dtype, delimiter=",", quotechar='"', comments=None,
        usecols=range(len(names)) if names else None, ndmin=1 if names else 2,
    )
    start = fh.tell()
    with warnings.catch_warnings():
        # a header-only file is the caller's error ("empty log", "no users")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return read(fh)
        except UnicodeDecodeError:
            raise  # a fault of the bytes, not of one row: `_read_table` names it
        except ValueError as exc:
            # numpy counts rows in two ways and skips blank lines: parse the
            # lines again one at a time to find the first bad one
            fh.seek(start)
            width = None  # of the first row, () for a structured dtype
            for number, line in enumerate(fh, 2):
                try:
                    row = read([line])
                    if len(row) and row.shape[1:] != (width := width or row.shape[1:]):
                        raise ValueError(f"{row.shape[1]} fields, {width[0]} in the first row")
                except ValueError as bad:
                    msg = re.sub(r" at row \d+", "", str(bad))
                    raise DatasetError(f"{name}: line {number}: {msg}") from None
            raise DatasetError(f"{name}: {exc}") from None


def _read_table(path, expect_prefix, dtype):
    """The rows below a CSV header, read at once; rows of a plain dtype must
    be as wide as the header. A byte that is not UTF-8 raises a DatasetError
    naming its line."""
    if not path.exists():
        raise DatasetError(f"missing file: {path.name}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            line = fh.readline()
            if not line:
                raise DatasetError(f"{path.name}: missing header row")
            header = next(csv.reader([line]))
            if header[: len(expect_prefix)] != expect_prefix:
                raise DatasetError(f"{path.name}: header must start with {expect_prefix}")
            rows = _parse_rows(path.name, fh, dtype)
    except UnicodeDecodeError:
        # the decoder reads ahead of the parser: find the byte in the file's bytes
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            number = data.count(b"\n", 0, exc.start) + 1
            raise DatasetError(f"{path.name}: line {number}: byte {data[exc.start]:#04x} "
                               f"is not UTF-8 ({exc.reason})") from None
        raise
    if not np.dtype(dtype).names and len(rows) and rows.shape[1] != len(header):
        raise DatasetError(f"{path.name}: {rows.shape[1]} fields in a row, {len(header)} in the header")
    return rows


def _catalog(rows, name, what, n_fixed):
    """Sorted raw ids, and every other column in id order, coded densely.

    A table with only its n_fixed leading columns gets one all-zero feature.
    """
    if not len(rows):
        raise DatasetError(f"{name}: no {what}s")
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if (rows[1:, 0] == rows[:-1, 0]).any():
        raise DatasetError(f"{name}: duplicate {what}_id")
    if rows.shape[1] == n_fixed:
        rows = np.pad(rows, ((0, 0), (0, 1)))
    return rows[:, 0], [np.unique(c, return_inverse=True)[1].reshape(-1) for c in rows[:, 1:].T]


def _dense_ids(name, rows, user_ids, item_ids):
    """Dense (user, item) indices of a table's rows, found in the sorted raw ids."""
    u, i = (np.minimum(np.searchsorted(ids, rows[f]), len(ids) - 1)
            for f, ids in (("user_id", user_ids), ("item_id", item_ids)))
    bad = np.flatnonzero((user_ids[u] != rows["user_id"]) | (item_ids[i] != rows["item_id"]))
    if len(bad):
        ru, ri = int(rows["user_id"][bad[0]]), int(rows["item_id"][bad[0]])
        raise DatasetError(f"{name}: id out of range ({ru},{ri})")
    return u, i


def _outside(fb, r_min, r_max):
    """Indices of feedback values outside [r_min, r_max], NaN included."""
    return np.flatnonzero(~((r_min - 1e-12 <= fb) & (fb <= r_max + 1e-12)))


def _read_log(path, user_ids, item_ids, r_min, r_max):
    """The checked log of interactions.csv, in dense ids, sorted by (user_id, step)."""
    log = _read_table(path, ["user_id", "item_id", "feedback", "step"], LOG_DTYPE)
    if not len(log):
        raise DatasetError("empty log")
    users, items = _dense_ids(path.name, log, user_ids, item_ids)
    bad = _outside(log["feedback"], r_min, r_max)
    if len(bad):
        fb = float(log["feedback"][bad[0]])
        raise DatasetError(f"{path.name}: feedback {fb} outside [{r_min},{r_max}]")
    # equal triples are adjacent in this stable order; name the first row that repeats one
    order = np.lexsort((log["step"], items, users))
    triples = np.stack([users[order], items[order], log["step"][order]], axis=1)
    repeats = order[1:][(triples[1:] == triples[:-1]).all(axis=1)]
    if len(repeats):
        j = repeats.min()
        key = (int(log["user_id"][j]), int(log["item_id"][j]), int(log["step"][j]))
        raise DatasetError(f"{path.name}: duplicate (user,item,step) {key}")
    log["user_id"], log["item_id"] = users, items
    return log[np.lexsort((log["step"], users))]


def _read_truth(path, user_ids, item_ids, r_min, r_max):
    """The dense truth matrix of truth.npy, its header checked before any
    data is read; every value in [r_min, r_max], as in the log."""
    shape, fmt = (len(user_ids), len(item_ids)), np.lib.format
    with open(path, "rb") as fh:
        try:
            version = fmt.read_magic(fh)
            read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
            found, _, dtype = read_header(fh)
            if (dtype, found) != (np.dtype("<f8"), shape):
                fault = f"a {dtype.str} array of shape {found}, not <f8 of (users, items) = {shape}"
            else:
                fh.seek(0)
                truth = fmt.read_array(fh, allow_pickle=False)
                fault = "bytes after the array" if fh.read(1) else None
        except ValueError as exc:
            fault = f"unreadable .npy array: {str(exc).splitlines()[0]}"
    if fault:
        raise DatasetError(f"{path.name}: {fault}")
    # min and max allocate nothing, and NaN fails both tests
    if not (r_min - 1e-12 <= truth.min() and truth.max() <= r_max + 1e-12):
        k = int(_outside(truth.reshape(-1), r_min, r_max)[0])
        u, i = divmod(k, shape[1])
        raise DatasetError(f"{path.name}: user_id {user_ids[u]}, item_id {item_ids[i]}: "
                           f"feedback {float(truth.flat[k])} outside [{r_min},{r_max}]")
    return truth


def load_dataset(dir_path) -> Dataset:
    """Load and validate the dataset layout; ids re-indexed densely."""
    root = Path(dir_path)
    path = root / "manifest.json"
    if not path.exists():
        raise DatasetError("missing file: manifest.json")
    try:
        manifest = config_from_dict(DatasetManifest, read_json_object(path), str(path))
    except ConfigError as exc:
        raise DatasetError(str(exc)) from None
    # content_hash hashes the repr of the range: a JSON integer is stored as a float
    r_min, r_max = float(manifest.r_min), float(manifest.r_max)

    users_csv = _read_table(root / "users.csv", ["user_id"], np.int64)
    user_ids, user_codes = _catalog(users_csv, "users.csv", "user", 1)
    items_csv = _read_table(root / "items.csv", ["item_id", "category"], np.int64)
    item_ids, (categories, *item_codes) = _catalog(items_csv, "items.csv", "item", 2)

    log = _read_log(root / "interactions.csv", user_ids, item_ids, r_min, r_max)
    if (root / "truth.csv").exists():
        raise DatasetError("truth.csv: a truth matrix in CSV is no longer read; "
                           "gen-data now writes truth.npy")
    truth_path = root / "truth.npy"
    truth = _read_truth(truth_path, user_ids, item_ids, r_min, r_max) if truth_path.exists() else None

    return Dataset(
        train_log=log,
        users=UserCatalog(count=len(user_ids), features=np.stack(user_codes, axis=1)),
        items=ItemCatalog(
            count=len(item_ids), primary_category=categories, features=np.stack(item_codes, axis=1)
        ),
        truth_matrix=truth,
        r_min=r_min,
        r_max=r_max,
        name=manifest.name,
        seed=manifest.seed,
    )


def content_hash(d: Dataset) -> str:
    """Stable hash of the dataset contents (used by checkpoint manifests).

    The log goes in as the text "{u},{i},{fb!r},{step}" of each record,
    `_HASH_CHUNK` records at a time; the arrays as their little-endian
    int64 and float64 bytes, hashed in place where they already are such.
    """
    h = hashlib.sha256()
    h.update(f"{d.n_users},{d.n_items},{d.r_min!r},{d.r_max!r}".encode())
    for codes in (d.users.features, d.items.primary_category, d.items.features):
        h.update(np.ascontiguousarray(codes, dtype="<i8"))
    log = d.train_log
    for lo in range(0, len(log), _HASH_CHUNK):
        records = log[lo : lo + _HASH_CHUNK].tolist()
        h.update("".join(f"{u},{i},{fb!r},{step}" for u, i, fb, step in records).encode())
    if d.truth_matrix is not None:
        h.update(np.ascontiguousarray(d.truth_matrix, dtype="<f8"))
    return h.hexdigest()


# --- behavior-policy statistics ---------------------------------------------

@dataclass
class BehaviorStats:
    """Category k-gram counts of the logged behavior policy.

    pattern_counts maps category tuples of length 1..order to next-item
    count vectors; item_totals is the unconditional count vector. Queries
    back off to shorter suffixes, ending at the unconditional counts.
    """

    order: int
    alpha: float
    n_items: int
    pattern_counts: dict = field(default_factory=dict)
    item_totals: np.ndarray = None
    # penalty_vector's results, keyed by the pattern's last `order` categories
    _penalties: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _suffix(self, pattern):
        return tuple(int(c) for c in pattern)[-self.order :] if self.order else ()

    def counts_for(self, pattern):
        """Longest-suffix backoff lookup; returns the matched count vector."""
        pattern = self._suffix(pattern)
        while pattern:
            if pattern in self.pattern_counts:
                return self.pattern_counts[pattern]
            pattern = pattern[1:]
        return self.item_totals

    def probs(self, pattern):
        """Laplace-smoothed conditional next-item distribution."""
        counts = self.counts_for(pattern)
        total = counts.sum()
        return (counts + self.alpha) / (total + self.alpha * self.n_items)

    def penalty_vector(self, pattern):
        """Per-action entropy penalty after `pattern`, cached per suffix: log of
        the smoothed behavior probability of each item, shifted by
        +log(n_items) so a uniform behavior policy scores exactly zero
        everywhere. Unseen patterns back off as in `counts_for`.
        """
        key = self._suffix(pattern)
        vec = self._penalties.get(key)
        if vec is None:
            vec = np.log(self.probs(key)) + math.log(self.n_items)
            self._penalties[key] = vec
        return vec


def behavior_stats(d: Dataset, k: int, alpha: float = 1.0) -> BehaviorStats:
    """Count category k-grams (all orders 0..k) over each user's ordered log."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    stats = BehaviorStats(order=k, alpha=alpha, n_items=d.n_items)
    items = d.train_log["item_id"]
    stats.item_totals = np.bincount(items, minlength=d.n_items).astype(np.float64)
    cats = d.items.primary_category[items]
    rank = _rank_in_run(d.train_log["user_id"])  # step order within each user's run
    for m in range(1, k + 1):
        at = np.flatnonzero(rank >= m)
        if not len(at):
            break
        # the categories of the m items before each position, oldest first
        windows = np.stack([cats[at - p] for p in range(m, 0, -1)], axis=1)
        patterns, which = np.unique(windows, axis=0, return_inverse=True)
        counts = np.bincount(
            which.reshape(-1) * d.n_items + items[at], minlength=len(patterns) * d.n_items
        ).reshape(len(patterns), d.n_items).astype(np.float64)
        stats.pattern_counts.update(zip(map(tuple, patterns.tolist()), counts))
    return stats
