"""Simulated environment, dual-agent training loop, and evaluation protocol.

Training interacts with the shaped reward matrix: each recommendation
step triggers a reference-user selection episode, writes the aggregated
estimate back into the matrix, derives dynamic penalties, and feeds the
composite reward to the recommender. Evaluation replays the same
termination protocol against the held-out ground-truth matrix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import recommender as rec
from . import rewardmath as rm
from . import selector as sel
from . import worldmodel as wmod
from .config import config_from_dict, read_json_object
from .nncore import (
    adam_step,
    atomic_open,
    block_state,
    check_finite_floats,
    load_block_state,
    play_episodes,
    read_fragment,
    rng_stream,
    sample_rows,
    softmax,
    write_fragment,
)

MAX_EPISODE_LEN = 30
CATEGORY_WINDOW = 4

# per-variant (lambda_s scale, lambda_d scale) applied to the selector's
# intrinsic reward; None means the variant runs no selection at all
_VARIANT_GAINS = {
    "full": (1.0, 1.0),
    "r_static": None,
    "pu_static": (1.0, 1.0),
    "rhat": (0.0, 0.0),
    "rhat_rs": (1.0, 0.0),
    "rhat_rd": (0.0, 1.0),
}
VARIANTS = tuple(_VARIANT_GAINS)


_NORM_BLOCK = 64  # matrix rows per norm call when the row norms are first built


class ShapedRewardMatrix:
    """Mutable reward-estimate matrix, clipped to [r_min, r_max].

    The matrix takes `current` over: a float64 array is used in place, not
    copied. `row_norms` caches `np.linalg.norm(current, axis=1)`; `write`
    keeps it current, so write through it only.
    """

    def __init__(self, current, r_min, r_max):
        self.current = np.asarray(current, dtype=np.float64)
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        # blocks of rows bound the norm's temporaries; each row reduces as in one call
        self.row_norms = np.empty(len(self.current))
        for lo in range(0, len(self.current), _NORM_BLOCK):
            self.row_norms[lo : lo + _NORM_BLOCK] = np.linalg.norm(
                self.current[lo : lo + _NORM_BLOCK], axis=1
            )

    def write(self, u, i, value):
        """Store `value`, clipped, at (u, i) and return the pre-write value."""
        old = self.current[u, i]
        self.current[u, i] = min(max(value, self.r_min), self.r_max)
        # a one-row slice reduces as its row of the full axis=1 norm does
        self.row_norms[u : u + 1] = np.linalg.norm(self.current[u : u + 1], axis=1)
        return old


@dataclass
class RewardParts:
    r_hat: float
    r_prev: float
    p_u: float
    p_e: float
    mean_sim: float
    mean_div: float
    kind: str  # "dynamic" or "static" uncertainty


@dataclass
class Transition:
    action: int
    reward: float
    track_reward: float
    parts: RewardParts | None
    done: bool
    done_reason: str | None


@dataclass
class Trajectory:
    user: int
    transitions: list = field(default_factory=list)
    values: list = field(default_factory=list)  # the critic's: the rollout runs none, update fills them

    def __len__(self):
        return len(self.transitions)

    @property
    def actions(self):
        return [tr.action for tr in self.transitions]

    @property
    def rewards(self):
        return [tr.reward for tr in self.transitions]


@dataclass
class EvalReport:
    r_tra: float
    r_tra_std: float
    r_each: float
    length: float
    mcd: float
    reward_error: float
    per_episode: dict = field(default_factory=dict, repr=False)


@dataclass
class TrainSettings:
    """Single-seed run configuration covering both agents and the loop."""

    variant: str = "full"
    gamma: float = 0.99
    k_sel: int = 10
    w_sel: int = 5
    w_rec: int = 5
    lambda_s: float = 1.0
    lambda_d: float = 0.1
    lambda_u: float = 0.1
    lambda_e: float = 0.1
    uncertainty_eps: float = 1e-6
    candidate_pool: int = 100
    d_model: int = 32
    d_pref: int = 32
    d_emb: int = 16
    hidden: tuple[int, ...] = (64,)
    encoder_layers: int = 1
    entropy_k: int = 1
    laplace_alpha: float = 1.0
    lr: float = 1e-3
    epochs: int = 20
    trajectories_per_epoch: int = 50
    eval_episodes: int = 50
    eval_every: int = 1
    eval_greedy: bool = False
    max_steps: int | None = None
    seed: int = 0

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant '{self.variant}'; valid: {', '.join(VARIANTS)}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        for name in ("k_sel", "w_sel", "w_rec", "d_model", "trajectories_per_epoch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("d_pref", "d_emb", "encoder_layers", "entropy_k", "epochs", "eval_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be >= 0 or null")
        for name in ("lambda_s", "lambda_d", "lambda_u", "lambda_e"):
            if not (0 <= getattr(self, name) <= 1e6):
                raise ValueError(f"{name} must be in [0, 1e6]")
        for name in ("uncertainty_eps", "laplace_alpha", "lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.lr > 1:
            raise ValueError("lr must be <= 1")
        if self.candidate_pool < self.k_sel:
            raise ValueError("candidate_pool must be >= k_sel")
        if self.eval_every > 0 and self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1 when eval_every > 0")

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["hidden"] = list(self.hidden)
        return out


def config_hash(settings: TrainSettings) -> str:
    blob = json.dumps(settings.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def pool_width(settings: TrainSettings, n_users: int) -> int:
    return min(n_users - 1, settings.candidate_pool)


def _build_recommender(d: ds.Dataset, settings: TrainSettings):
    return rec.RecommenderAgent(
        d.n_users, d.n_items, settings.d_emb, settings.d_model, settings.w_rec,
        settings.seed, layers=settings.encoder_layers, hidden=settings.hidden,
    )


def _build_selector(d: ds.Dataset, settings: TrainSettings):
    return sel.SelectorAgent(
        d.n_items, settings.d_model, settings.d_pref, pool_width(settings, d.n_users),
        settings.w_sel, settings.seed, layers=settings.encoder_layers, hidden=settings.hidden,
    )


def build_agents(d: ds.Dataset, settings: TrainSettings):
    return _build_recommender(d, settings), _build_selector(d, settings)


# --- environment -------------------------------------------------------------

def env_step(u, item, step_index, mode, matrix, truth, recent_categories, item_categories):
    """One environment transition: reward source plus the quit rules.

    Terminates with `category_repeat` when the new item's category appears
    among the last four recommended items' categories, else `max_length`
    at the episode cap. `step_index` counts this transition (1-based).
    """
    if mode == "train":
        reward = float(matrix.current[u, item])
    elif mode == "eval":
        if truth is None:
            raise ValueError("evaluation requires a ground-truth matrix")
        reward = float(truth[u, item])
    else:
        raise ValueError(f"unknown mode '{mode}'")
    cat = int(item_categories[item])
    recent = list(recent_categories)[-CATEGORY_WINDOW:]
    if cat in recent:
        return reward, True, "category_repeat"
    if step_index >= MAX_EPISODE_LEN:
        return reward, True, "max_length"
    return reward, False, None


# --- episodes --------------------------------------------------------------

@dataclass
class TrainRun:
    """One training run: its fixed inputs, both agents, its RNG, and what
    the loop has produced so far. `start_run` builds it, `play_epoch`
    advances it."""

    dataset: ds.Dataset
    matrix: ShapedRewardMatrix
    static_uncertainty: np.ndarray
    stats: ds.BehaviorStats
    rec_agent: rec.RecommenderAgent
    sel_agent: sel.SelectorAgent
    settings: TrainSettings
    rng: np.random.Generator
    metrics_rows: list = field(default_factory=list)
    parts_log: list = field(default_factory=list)
    steps_total: int = 0
    epoch: int = 0  # epochs played


def rollout_trajectory(run: TrainRun, u):
    """One full training episode for user u plus its selection episodes.

    Each step samples an item with `run.rng`, runs the reference-user
    selection (except in `r_static`), writes the shaped estimate back,
    derives the penalties and steps the environment in "train" mode.
    """
    st, matrix, agent = run.settings, run.matrix, run.rec_agent
    item_cats = run.dataset.items.primary_category
    gains = _VARIANT_GAINS[st.variant]
    traj = Trajectory(user=u)
    episodes, cats = [], []  # cats: the episode's item categories so far

    def step(rows, states, z, t):
        items, _ = sample_rows(z, [run.rng])
        item, state = int(items[0]), states[0]
        if gains is None:  # frozen-matrix variant: no selection, no write-back
            r_hat = r_prev = float(matrix.current[u, item])
            mean_sim = mean_div = 0.0
        else:
            episode = sel.run_selection(
                u, item, state, matrix, run.sel_agent, st.k_sel,
                st.lambda_s * gains[0], st.lambda_d * gains[1], run.rng,
            )
            episodes.append(episode)
            r_prev = float(matrix.write(u, item, rm.shape_reward(episode.ref_rewards)))
            r_hat = float(matrix.current[u, item])
            mean_sim, mean_div = episode.mean_sim(), episode.mean_div()
        if gains is None or st.variant == "pu_static":
            p_u, kind = float(run.static_uncertainty[u, item]), "static"
        else:
            p_u = rm.dynamic_uncertainty(r_hat, r_prev, mean_sim, mean_div, st.uncertainty_eps)
            kind = "dynamic"
        p_e = float(run.stats.penalty_vector(cats)[item])
        parts = RewardParts(
            r_hat=r_hat, r_prev=r_prev, p_u=p_u, p_e=p_e,
            mean_sim=mean_sim, mean_div=mean_div, kind=kind,
        )
        base_r, done, reason = env_step(u, item, t, "train", matrix, None, cats, item_cats)
        traj.transitions.append(Transition(
            action=item, reward=rm.recommender_reward(r_hat, p_u, p_e, st.lambda_u, st.lambda_e),
            track_reward=base_r, parts=parts, done=done,
            done_reason=reason,
        ))
        cats.append(int(item_cats[item]))
        return items, agent.token_inputs([u], items, [base_r]), [done]

    play_episodes(agent, agent.token_inputs([u]), agent.avail(traj)[None], step)
    last = traj.transitions[-1]
    if not last.done:  # catalog exhausted before the protocol cap
        last.done, last.done_reason = True, "max_length"
    return traj, episodes


# --- advantages and losses -----------------------------------------------

def discounted_returns(rewards, gamma):
    g = 0.0
    out = np.zeros(len(rewards))
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + gamma * g
        out[t] = g
    return out


def _head_grads(logits, critic_out, actions, avail, rewards, values, gamma, scale):
    """dlogits/dvalues and losses of one episode's actor+critic objective.

    `logits` and `critic_out` are the episode's rows of a replay, one state
    value per row of `critic_out`; `rewards` and `values` are the rewards
    and critic values recorded in the rollout, constants here. `avail`
    marks the actions selectable at step 0; each step's action is masked
    out of every later step. The actor loss is the mean of -log pi(action)
    times the advantage (discounted return minus recorded value), the
    critic loss the mean squared error against one-step TD targets.
    """
    n = len(actions)
    steps = np.arange(n)
    actions = np.asarray(actions, dtype=np.int64)
    advantages = discounted_returns(rewards, gamma) - np.asarray(values)
    # the last step bootstraps zero: rollouts end at the first done step
    targets = np.array(rewards, dtype=np.float64)
    targets[:-1] += gamma * np.asarray(values[1:], dtype=np.float64)
    mask = np.tile(avail, (n, 1))
    mask[:, actions] &= steps[:, None] <= steps  # action t is gone after step t
    probs = softmax(np.where(mask, logits, -np.inf))
    onehot = np.zeros_like(probs)
    onehot[steps, actions] = 1.0
    dlogits = -(advantages * scale / n)[:, None] * (onehot - probs)
    aloss = float((-np.log(probs[steps, actions]) * advantages / n).sum())
    err = critic_out[:, 0] - targets
    dvalues = (2.0 * err * scale / n)[:, None]
    return dlogits, dvalues, aloss, float((err * err / n).sum())


def losses(agent, episodes, gamma, accumulate=True, scale=1.0, fwd=None):
    """Replay episodes as one batch (or take their replay `fwd`) and
    (optionally) accumulate gradients, each episode's scaled by `scale`;
    returns the summed (actor_loss, critic_loss). Each episode's critic
    values must be filled, as `update` fills them."""
    fwd = agent.replay(episodes) if fwd is None else fwd
    dlogits, dvalues = np.empty_like(fwd["logits"]), np.empty_like(fwd["values"])
    aloss, closs, lo = 0.0, 0.0, 0
    for k, ep in enumerate(episodes):
        n = len(ep.actions)
        if len(ep.values) != n:
            raise ValueError(
                f"episode {k}: its critic values are not filled ({len(ep.values)} for {n} "
                "actions); update fills them from its replay"
            )
        rows = slice(lo, lo + n)
        dlogits[rows], dvalues[rows], a, c = _head_grads(
            fwd["logits"][rows], fwd["values"][rows], ep.actions, agent.avail(ep),
            ep.rewards, ep.values, gamma, scale,
        )
        aloss, closs, lo = aloss + a, closs + c, rows.stop
    if accumulate:
        agent.backward(fwd, episodes, dlogits, dvalues)
    return aloss, closs


def update(agent, episodes, gamma, lr):
    """One update over episodes as one batch, each scaled by 1 / len(episodes),
    after filling their values from its replay; returns the mean losses."""
    if not episodes:
        return 0.0, 0.0
    fwd, scale = agent.replay(episodes), 1.0 / len(episodes)
    values, lo = fwd["values"][:, 0].tolist(), 0
    for ep in episodes:
        ep.values, lo = values[lo : lo + len(ep.actions)], lo + len(ep.actions)
    aloss, closs = losses(agent, episodes, gamma, scale=scale, fwd=fwd)
    adam_step(agent.params, lr)
    return aloss * scale, closs * scale


# --- evaluation --------------------------------------------------------------

def majority_category_ratio(categories) -> float:
    """Share of an episode taken by its most frequent item category."""
    counts = np.bincount(np.asarray(categories, dtype=np.int64))
    return float(counts.max() / len(categories))


# Evaluation episodes played together in lockstep. Results do not depend on
# it. It bounds a block's memory: one block of all 1000 episodes of a 1000x500
# evaluation raises the peak RSS of `darlr eval` by about 30%.
_EVAL_BLOCK = 64


def _eval_block(agent, d: ds.Dataset, seed, indices, greedy):
    """Play the evaluation episodes `indices` in lockstep; one result each.

    Episode `idx` draws its user and its actions from its own
    rng_stream(seed, "eval-episode", idx), so its result does not depend
    on the other episodes of the block.
    """
    rngs = [rng_stream(seed, "eval-episode", idx) for idx in indices]
    users = np.array([int(rng.integers(d.n_users)) for rng in rngs])
    item_cats = d.items.primary_category
    totals, visited, cats = [0.0] * len(users), [[] for _ in users], [[] for _ in users]

    def step(rows, states, z, t):
        if greedy:
            items = np.argmax(z, axis=1)
        else:
            items, _ = sample_rows(z, [rngs[r] for r in rows])
        rewards, done = [], []
        for r, u, item, cat in zip(
            rows.tolist(), users[rows].tolist(), items.tolist(), item_cats[items].tolist()
        ):
            reward, end, _ = env_step(u, item, t, "eval", None, d.truth_matrix, cats[r], item_cats)
            totals[r] += reward
            visited[r].append((u, item))
            cats[r].append(cat)
            rewards.append(reward)
            done.append(end)
        return items, agent.token_inputs(users[rows], items, rewards), done

    masks = np.ones((len(users), agent.n_items), dtype=bool)
    play_episodes(agent, agent.token_inputs(users), masks, step)
    return [
        {
            "r_tra": total, "length": len(c), "r_each": total / len(c),
            "mcd": majority_category_ratio(c), "visited": v,
        }
        for total, c, v in zip(totals, cats, visited)
    ]


def evaluate(agent, d: ds.Dataset, matrix, episodes, seed, greedy=False) -> EvalReport:
    """Roll out evaluation episodes against the ground-truth environment.

    Each episode owns an RNG stream derived from (seed, index); episodes
    advance in lockstep blocks of `_EVAL_BLOCK`.
    """
    if episodes < 1:
        raise ValueError(f"evaluation needs at least one episode, got {episodes}")
    if d.truth_matrix is None:
        raise ValueError("evaluation requires a ground-truth matrix")
    results = []
    for lo in range(0, episodes, _EVAL_BLOCK):
        block = range(lo, min(lo + _EVAL_BLOCK, episodes))
        results += _eval_block(agent, d, seed, block, greedy)

    arrays = {
        key: np.array([r[key] for r in results])
        for key in ("r_tra", "length", "r_each", "mcd")
    }
    if matrix is not None:
        pairs = np.array([pair for r in results for pair in r["visited"]])
        # sorted distinct pairs; np.unique would import numpy.ma on its first call
        keys = np.sort(pairs[:, 0] * d.n_items + pairs[:, 1])
        uu, ii = np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], d.n_items)
        reward_error = float(np.abs(matrix.current[uu, ii] - d.truth_matrix[uu, ii]).mean())
    else:
        reward_error = float("nan")
    return EvalReport(
        r_tra=float(arrays["r_tra"].mean()), r_tra_std=float(arrays["r_tra"].std()),
        r_each=float(arrays["r_each"].mean()), length=float(arrays["length"].mean()),
        mcd=float(arrays["mcd"].mean()), reward_error=reward_error, per_episode=arrays,
    )


# --- training loop -----------------------------------------------------------

def start_run(d: ds.Dataset, wm: wmod.WorldModelEnsemble, settings: TrainSettings) -> TrainRun:
    """Check the settings against the data, then build a run at epoch 0:
    the shaped matrix from the world model's mean, the behaviour stats,
    fresh agents and the "train" RNG stream."""
    settings.validate()
    if settings.eval_every > 0 and d.truth_matrix is None:
        raise ValueError("training evaluation requires a ground-truth matrix")
    pool = pool_width(settings, d.n_users)
    if _VARIANT_GAINS[settings.variant] is not None and pool < settings.k_sel:
        raise ValueError(
            f"k_sel={settings.k_sel} exceeds the candidate pool of {pool} users "
            "(min(users - 1, candidate_pool))"
        )
    pm = wmod.predict_matrix(wm)
    matrix = ShapedRewardMatrix(pm.mean, d.r_min, d.r_max)
    stats = ds.behavior_stats(d, settings.entropy_k, settings.laplace_alpha)
    rec_agent, sel_agent = build_agents(d, settings)
    rng = rng_stream(settings.seed, "train")
    return TrainRun(d, matrix, pm.static_uncertainty, stats, rec_agent, sel_agent, settings, rng)


def play_epoch(run: TrainRun) -> bool:
    """Play epoch `run.epoch`: its trajectories, each followed by an update
    of both agents, then its ground-truth evaluation when due. Returns
    True when the step budget stopped the run."""
    st, d, epoch = run.settings, run.dataset, run.epoch
    budget_hit = False
    for ti in range(st.trajectories_per_epoch):
        if st.max_steps is not None and run.steps_total >= st.max_steps:
            budget_hit = True
            break
        u = int(run.rng.integers(d.n_users))
        traj, episodes = rollout_trajectory(run, u)
        run.steps_total += len(traj)
        update(run.rec_agent, [traj], st.gamma, st.lr)
        update(run.sel_agent, episodes, st.gamma, st.lr)
        for si, tr in enumerate(traj.transitions):
            run.parts_log.append({
                "epoch": epoch, "trajectory": ti, "step": si, "user": u,
                "item": tr.action, "reward": tr.reward, **vars(tr.parts),
            })
    if st.eval_every > 0 and (
        (epoch + 1) % st.eval_every == 0 or epoch == st.epochs - 1 or budget_hit
    ):
        eval_seed = int(rng_stream(st.seed, "eval-seed", epoch).integers(2**63))
        report = evaluate(run.rec_agent, d, run.matrix, st.eval_episodes, eval_seed, st.eval_greedy)
        run.metrics_rows.append({
            "epoch": epoch, "steps": run.steps_total,
            "R_tra": report.r_tra, "R_tra_std": report.r_tra_std,
            "R_each": report.r_each, "Length": report.length,
            "MCD": report.mcd, "reward_error": report.reward_error,
        })
    run.epoch += 1
    return budget_hit


def train(d: ds.Dataset, wm: wmod.WorldModelEnsemble, settings: TrainSettings) -> TrainRun:
    """Run the dual-agent loop: epochs of trajectories with per-trajectory
    updates for both agents and periodic ground-truth evaluation."""
    run = start_run(d, wm, settings)
    for _ in range(settings.epochs):
        if play_epoch(run):
            break
    return run


METRICS_COLUMNS = ["epoch", "steps", "R_tra", "R_tra_std", "R_each", "Length", "MCD", "reward_error"]


def write_metrics_csv(rows, path, columns=METRICS_COLUMNS):
    """One line per row dict: strings and integers as written, other numbers
    as repr(float), which reads back bit-exact. The file is written through
    `atomic_open`, so a failed write leaves `path` as it was."""
    with atomic_open(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [row[c] for c in columns]
            fh.write(",".join(str(v) if isinstance(v, (str, int)) else repr(float(v)) for v in cells))
            fh.write("\n")


# --- checkpoint bundle ---------------------------------------------------

def _write_bundle_files(out, run: TrainRun, wm: wmod.WorldModelEnsemble):
    out.mkdir()
    config = {
        "settings": run.settings.to_dict(),
        "config_hash": config_hash(run.settings),
        "dataset_hash": wm.manifest.dataset_hash,
        "steps_total": run.steps_total,
    }
    with open(out / "config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "recommender.frag", "wb") as fh:
        write_fragment(fh, block_state(run.rec_agent.params))
    with open(out / "selector.frag", "wb") as fh:
        write_fragment(fh, block_state(run.sel_agent.params))
    with open(out / "matrix.frag", "wb") as fh:
        write_fragment(
            fh,
            {
                "matrix:current": run.matrix.current,
                "matrix:range": np.array([run.matrix.r_min, run.matrix.r_max]),
            },
        )
    wmod.save_world_model(wm, out / "worldmodel.ckpt")
    write_metrics_csv(run.metrics_rows, out / "metrics.csv")


def save_bundle(dir_path, run: TrainRun, wm: wmod.WorldModelEnsemble):
    """Write the bundle directory `dir_path` as one unit.

    The files are written into a fresh dot-prefixed sibling directory,
    which is then renamed to `dir_path`; a bundle already there is renamed
    aside first and removed after the swap. On any error the sibling is
    removed and `dir_path` is left as it was.
    """
    out = Path(dir_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        _write_bundle_files(stage / "new", run, wm)
        if out.exists():
            os.rename(out, stage / "old")
        try:
            os.rename(stage / "new", out)
        except OSError:
            if (stage / "old").exists():
                os.rename(stage / "old", out)
            raise
    finally:
        shutil.rmtree(stage)


def _load_agent(agent, path):
    with open(path, "rb") as fh:
        load_block_state([agent.params], read_fragment(fh), path)
    return agent


def load_policy(dir_path, d: ds.Dataset):
    """Rebuild what evaluation uses from a bundle: settings, recommender, matrix.

    The bundle's `selector.frag` and `worldmodel.ckpt` are not read.
    Of `matrix.frag` only `matrix:current` and `matrix:range` are read; the
    write history that bundles of earlier versions also hold is ignored.
    Both must hold finite floats, the range with r_min < r_max.
    """
    root = Path(dir_path)
    path = root / "config.json"
    config = read_json_object(path)
    missing = [key for key in ("settings", "config_hash", "dataset_hash") if key not in config]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    settings = config_from_dict(TrainSettings, config["settings"], str(path))
    if config["config_hash"] != config_hash(settings):
        raise ValueError(f"{path}: settings do not match its config_hash")
    if config["dataset_hash"] != ds.content_hash(d):
        raise ValueError("bundle was trained on a different dataset (hash mismatch)")
    rec_agent = _load_agent(_build_recommender(d, settings), root / "recommender.frag")
    frag = root / "matrix.frag"
    with open(frag, "rb") as fh:
        state = read_fragment(fh)
    missing = [name for name in ("matrix:current", "matrix:range") if name not in state]
    if missing:
        raise ValueError(f"{frag}: missing record {', '.join(missing)}")
    current, bounds = state["matrix:current"], state["matrix:range"]
    if current.shape != (d.n_users, d.n_items):
        raise ValueError(
            f"{frag}: matrix:current has shape {current.shape}, "
            f"expected ({d.n_users}, {d.n_items}) users x items"
        )
    if bounds.shape != (2,):
        raise ValueError(f"{frag}: matrix:range has shape {bounds.shape}, expected (2,)")
    check_finite_floats(frag, "matrix:current", current)
    check_finite_floats(frag, "matrix:range", bounds)
    if bounds[0] >= bounds[1]:
        raise ValueError(f"{frag}: matrix:range {bounds.tolist()} has r_min >= r_max")
    matrix = ShapedRewardMatrix(current, bounds[0], bounds[1])
    return {"settings": settings, "rec_agent": rec_agent, "matrix": matrix}


def load_bundle(dir_path, d: ds.Dataset):
    """`load_policy` plus the selector agent, under "sel_agent".

    The bundle's `worldmodel.ckpt` is not read; `load_world_model` loads it.
    """
    loaded = load_policy(dir_path, d)
    selector = _build_selector(d, loaded["settings"])
    loaded["sel_agent"] = _load_agent(selector, Path(dir_path) / "selector.frag")
    return loaded
