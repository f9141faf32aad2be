"""Ensemble of Gaussian-head reward predictors learned from the offline log.

Each member embeds the categorical fields of a (user, item) pair, combines
them through a factorization-style pairwise interaction term plus an MLP
head, and outputs a feedback mean and log-variance. The ensemble average
fills the initial reward matrix; the per-entry max variance is the static
uncertainty. Entropy penalties come from the logged behavior statistics
and are independent of the learned models.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dataset as ds
from .config import ConfigError, config_from_dict
from .nncore import (
    AdamConfig,
    Mlp,
    adam_step,
    atomic_open,
    block_state,
    load_block_state,
    make_block,
    read_fragment,
    rng_stream,
    write_fragment,
)

_LOGVAR_MIN = -10.0
_LOGVAR_MAX = 5.0


class WorldModelDivergence(RuntimeError):
    pass


@dataclass
class WorldModelConfig:
    """`train-wm` config: ensemble size, member widths and the training loop."""

    members: int = 2
    d_emb: int = 8
    hidden: tuple[int, ...] = (32,)
    epochs: int = 100
    batch: int = 128
    lr: float = 1e-3
    seed: int = 0

    def validate(self):
        for key in ("members", "d_emb", "epochs", "batch"):
            if getattr(self, key) < 1:
                raise ValueError(f"'{key}' must be an integer >= 1, got {getattr(self, key)!r}")
        if self.lr <= 0:
            raise ValueError(f"'lr' must be a finite number > 0, got {self.lr!r}")
        if not self.hidden:
            raise ValueError("'hidden' must be a non-empty list of integers >= 1, got []")


class WorldModelMember:
    """One Gaussian reward predictor: field embeddings + pairwise + MLP head."""

    def __init__(self, users: ds.UserCatalog, items: ds.ItemCatalog, d_emb, hidden, seed, index):
        self.index = index
        self.d_emb = d_emb
        # (tag, vocab, source) where source picks the id column per pair batch
        self.fields = [("user_id", users.count, "u")]
        for j in range(users.features.shape[1]):
            vocab = int(users.features[:, j].max()) + 1
            self.fields.append((f"user_feat{j}", vocab, ("uf", j)))
        self.fields.append(("item_id", items.count, "i"))
        self.fields.append(("item_cat", items.n_categories, "ic"))
        for j in range(items.features.shape[1]):
            vocab = int(items.features[:, j].max()) + 1
            self.fields.append((f"item_feat{j}", vocab, ("if", j)))
        self.user_features = users.features
        self.item_features = items.features
        self.item_category = items.primary_category

        self.embeddings = []
        for tag, vocab, _ in self.fields:
            name = f"wm{index}/emb/{tag}"
            self.embeddings.append(
                make_block(name, (vocab, d_emb), rng_stream(seed, "init", name))
            )
        n_in = len(self.fields) * d_emb
        self.head = Mlp(f"wm{index}/head", [n_in] + list(hidden) + [2], seed)

    def blocks(self):
        return self.embeddings + self.head.blocks()

    def _field_indices(self, u_idx, i_idx):
        out = []
        for _, _, source in self.fields:
            if source == "u":
                out.append(u_idx)
            elif source == "i":
                out.append(i_idx)
            elif source == "ic":
                out.append(self.item_category[i_idx])
            elif source[0] == "uf":
                out.append(self.user_features[u_idx, source[1]])
            else:
                out.append(self.item_features[i_idx, source[1]])
        return out

    def forward(self, u_idx, i_idx):
        """Batched mean/log-variance for index arrays; returns (mu, logvar, tape)."""
        u_idx = np.atleast_1d(np.asarray(u_idx, dtype=np.int64))
        i_idx = np.atleast_1d(np.asarray(i_idx, dtype=np.int64))
        idx = self._field_indices(u_idx, i_idx)
        embs = [blk.values[ix] for blk, ix in zip(self.embeddings, idx)]
        total = np.sum(embs, axis=0)
        sq = np.sum([e**2 for e in embs], axis=0)
        pairwise = 0.5 * (total**2 - sq).sum(axis=1)
        x = np.concatenate(embs, axis=1)
        out, head_tape = self.head.forward(x)
        mu = out[:, 0] + pairwise
        raw_lv = out[:, 1]
        logvar = np.clip(raw_lv, _LOGVAR_MIN, _LOGVAR_MAX)
        tape = {
            "idx": idx, "embs": embs, "total": total, "head": head_tape,
            "lv_open": (raw_lv > _LOGVAR_MIN) & (raw_lv < _LOGVAR_MAX),
        }
        return mu, logvar, tape

    def backward(self, tape, dmu, dlogvar):
        dout = np.stack([dmu, np.where(tape["lv_open"], dlogvar, 0.0)], axis=1)
        dx = self.head.backward(tape["head"], dout)
        d = self.d_emb
        for f, (blk, ix, e) in enumerate(zip(self.embeddings, tape["idx"], tape["embs"])):
            de = dx[:, f * d : (f + 1) * d] + dmu[:, None] * (tape["total"] - e)
            np.add.at(blk.grad, ix, de)


@dataclass
class PredictionMatrix:
    mean: np.ndarray  # ensemble-average predicted feedback, |U| x |I|
    static_uncertainty: np.ndarray  # per-entry max member variance


class WorldModelEnsemble:
    def __init__(self, members, users, items, r_min, r_max, d_emb, hidden, seed, dataset_hash):
        self.members = members
        self.users = users
        self.items = items
        self.r_min = r_min
        self.r_max = r_max
        self.d_emb = d_emb
        self.hidden = list(hidden)
        self.seed = seed
        self.dataset_hash = dataset_hash
        self.nll_history = [[] for _ in members]

    @property
    def K(self):
        return len(self.members)

    def blocks(self):
        out = []
        for m in self.members:
            out.extend(m.blocks())
        return out


def train_world_model(d: ds.Dataset, cfg: WorldModelConfig) -> WorldModelEnsemble:
    """Fit `cfg.members` members by Gaussian negative log-likelihood over the log.

    Members differ only in their seeds (initialization and shuffling).
    Raises WorldModelDivergence naming the epoch if the loss goes
    non-finite.
    """
    cfg.validate()
    if len(d.train_log) == 0:
        raise ValueError("cannot train a world model on an empty log")
    adam = AdamConfig(lr=cfg.lr)
    u_all = d.train_log["user_id"]
    i_all = d.train_log["item_id"]
    r_all = d.train_log["feedback"]
    n = len(r_all)

    members, histories = [], []
    for k in range(cfg.members):
        member = WorldModelMember(
            d.users, d.items, cfg.d_emb, cfg.hidden,
            rng_stream(cfg.seed, "member", k).integers(2**63), k,
        )
        shuffle_rng = rng_stream(cfg.seed, "member", k, "shuffle")
        history = []
        for epoch in range(cfg.epochs):
            perm = shuffle_rng.permutation(n)
            total = 0.0
            for lo in range(0, n, cfg.batch):
                sel = perm[lo : lo + cfg.batch]
                mu, lv, tape = member.forward(u_all[sel], i_all[sel])
                res = mu - r_all[sel]
                inv = np.exp(-lv)
                losses = 0.5 * (lv + res**2 * inv)
                loss = losses.mean()
                if not np.isfinite(loss):
                    raise WorldModelDivergence(f"member {k} diverged at epoch {epoch}")
                total += losses.sum()
                m = len(sel)
                dmu = res * inv / m
                dlv = 0.5 * (1.0 - res**2 * inv) / m
                member.backward(tape, dmu, dlv)
                adam_step(member.blocks(), adam)
            history.append(total / n)
        members.append(member)
        histories.append(history)
    wm = WorldModelEnsemble(
        members, d.users, d.items, d.r_min, d.r_max,
        cfg.d_emb, cfg.hidden, cfg.seed, ds.content_hash(d),
    )
    wm.nll_history = histories
    return wm


def predict_matrix(wm: WorldModelEnsemble) -> PredictionMatrix:
    """Dense ensemble prediction: clipped mean average, max member variance."""
    nu, ni = wm.users.count, wm.items.count
    mean = np.zeros((nu, ni))
    var_max = np.full((nu, ni), -np.inf)
    items = np.arange(ni, dtype=np.int64)
    for member in wm.members:
        for u in range(nu):
            mu, lv, _ = member.forward(np.full(ni, u, dtype=np.int64), items)
            mean[u] += np.clip(mu, wm.r_min, wm.r_max)
            var_max[u] = np.maximum(var_max[u], np.exp(lv))
    mean /= wm.K
    return PredictionMatrix(mean=mean, static_uncertainty=var_max)


# --- entropy penalty ---------------------------------------------------------

def state_entropy_penalty(stats: ds.BehaviorStats, recent_categories) -> float:
    """State-level penalty: negated behavior-expectation of the per-action term.

    Zero for a uniform behavior policy, increasingly negative the more the
    logged behavior concentrates after this pattern.
    """
    per_action = EntropyTable(stats).vector(recent_categories)
    return float(-(stats.probs(recent_categories) * per_action).sum())


class EntropyTable:
    """Cached per-pattern penalty vectors over items, with backoff built in."""

    def __init__(self, stats: ds.BehaviorStats):
        self.stats = stats
        self._cache = {}

    def vector(self, pattern):
        """Per-action penalty after `pattern`: log of the smoothed behavior
        probability of each item, shifted by +log(n_items) so a uniform
        behavior policy scores exactly zero everywhere. Unseen patterns back
        off to shorter suffixes and finally the unconditional distribution.
        """
        key = tuple(int(c) for c in pattern)[-self.stats.order :] if self.stats.order else ()
        vec = self._cache.get(key)
        if vec is None:
            vec = np.log(self.stats.probs(key)) + math.log(self.stats.n_items)
            self._cache[key] = vec
        return vec

    def penalty(self, recent_categories, item) -> float:
        return float(self.vector(recent_categories)[int(item)])


# --- checkpoint --------------------------------------------------------------

@dataclass
class CheckpointManifest:
    """The JSON `manifest` line of a world-model checkpoint."""

    K: int
    d_emb: int
    hidden: tuple[int, ...]
    seed: int
    r_min: float
    r_max: float
    dataset_hash: str

    def validate(self):
        for key in ("K", "d_emb"):
            if getattr(self, key) < 1:
                raise ValueError(f"'{key}' must be an integer >= 1, got {getattr(self, key)!r}")


def save_world_model(wm: WorldModelEnsemble, path):
    """Write the checkpoint through `atomic_open`: a failed save leaves `path` as it was."""
    manifest = CheckpointManifest(
        wm.K, wm.d_emb, wm.hidden, wm.seed, wm.r_min, wm.r_max, wm.dataset_hash
    )
    with atomic_open(path, "wb") as fh:
        fh.write(b"darlr-wm 2\n")
        fh.write(("manifest " + json.dumps(asdict(manifest), sort_keys=True) + "\n").encode())
        write_fragment(fh, block_state(wm.blocks()))


def load_world_model(path, d: ds.Dataset) -> WorldModelEnsemble:
    """Rebuild an ensemble against a dataset and restore its parameters.

    A malformed header, manifest or record raises ValueError naming `path`.
    """
    with open(path, "rb") as fh:
        if fh.readline() != b"darlr-wm 2\n":
            raise ValueError(f"not a world-model checkpoint: {path}")
        mline = fh.readline()
        if not mline.startswith(b"manifest "):
            raise ValueError(f"{path}: world-model checkpoint has no manifest")
        try:
            manifest = json.loads(mline[len("manifest ") :])
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path}: manifest: invalid JSON: {exc}") from None
        m = config_from_dict(CheckpointManifest, manifest, f"{path}: manifest")
        state = read_fragment(fh)
    members = [
        WorldModelMember(
            d.users, d.items, m.d_emb, m.hidden,
            rng_stream(m.seed, "member", k).integers(2**63), k,
        )
        for k in range(m.K)
    ]
    wm = WorldModelEnsemble(
        members, d.users, d.items, m.r_min, m.r_max, m.d_emb, m.hidden, m.seed, m.dataset_hash,
    )
    load_block_state(wm.blocks(), state, path)
    return wm
