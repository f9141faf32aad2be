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
    AdamConfig,
    adam_step,
    atomic_open,
    block_state,
    load_block_state,
    read_fragment,
    rng_stream,
    sample_rows,
    softmax,
    write_fragment,
)

MAX_EPISODE_LEN = 30
CATEGORY_WINDOW = 4

VARIANTS = ("full", "r_static", "pu_static", "rhat", "rhat_rs", "rhat_rd")

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


class ShapedRewardMatrix:
    """Mutable reward-estimate matrix, clipped to [r_min, r_max]."""

    def __init__(self, current, r_min, r_max):
        self.current = np.array(current, dtype=np.float64)
        self.r_min = float(r_min)
        self.r_max = float(r_max)

    def write(self, u, i, value):
        """Store `value`, clipped, at (u, i) and return the pre-write value."""
        old = self.current[u, i]
        self.current[u, i] = min(max(value, self.r_min), self.r_max)
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
    logprob: float
    reward: float
    value: float
    track_reward: float
    parts: RewardParts | None
    done: bool
    done_reason: str | None


@dataclass
class Trajectory:
    user: int
    transitions: list = field(default_factory=list)
    returns: np.ndarray | None = None
    advantages: np.ndarray | None = None

    def __len__(self):
        return len(self.transitions)


@dataclass
class EvalReport:
    r_tra: float
    r_tra_std: float
    r_each: float
    r_each_std: float
    length: float
    length_std: float
    mcd: float
    mcd_std: float
    reward_error: float
    n_episodes: int
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

    @property
    def coeffs(self):
        return rm.PenaltyCoeffs(self.lambda_u, self.lambda_e, self.lambda_s, self.lambda_d)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["hidden"] = list(self.hidden)
        return out


def config_hash(settings: TrainSettings) -> str:
    blob = json.dumps(settings.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def pool_width(settings: TrainSettings, n_users: int) -> int:
    return min(n_users - 1, settings.candidate_pool)


def build_agents(d: ds.Dataset, settings: TrainSettings):
    rec_agent = rec.RecommenderAgent(
        d.n_users, d.n_items, settings.d_emb, settings.d_model, settings.w_rec,
        settings.seed, layers=settings.encoder_layers, hidden=settings.hidden,
    )
    sel_agent = sel.SelectorAgent(
        d.n_items, settings.d_model, settings.d_pref, pool_width(settings, d.n_users),
        settings.w_sel, settings.seed, layers=settings.encoder_layers, hidden=settings.hidden,
    )
    return rec_agent, sel_agent


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


# --- rollout -----------------------------------------------------------------

class TrainContext:
    """Bundles everything a rollout needs; built once per training run."""

    def __init__(self, d, matrix, static_uncertainty, entropy, rec_agent, sel_agent, settings, rng):
        self.dataset = d
        self.matrix = matrix
        self.static_uncertainty = static_uncertainty
        self.entropy = entropy
        self.rec_agent = rec_agent
        self.sel_agent = sel_agent
        self.settings = settings
        self.rng = rng


def rollout_recommendation_step(ctx: TrainContext, u, state, mask, recent_cats, step_index):
    """Recommend, select references, shape, penalize, step the environment.

    Returns (transition, selection_episode_or_None, next_state).
    """
    st = ctx.settings
    item, logprob = rec.recommend(state, ctx.rec_agent, mask, ctx.rng)

    gains = _VARIANT_GAINS[st.variant]
    episode = None
    if gains is None:  # frozen-matrix variant: no selection, no write-back
        r_hat = float(ctx.matrix.current[u, item])
        parts = RewardParts(
            r_hat=r_hat, r_prev=r_hat,
            p_u=float(ctx.static_uncertainty[u, item]),
            p_e=ctx.entropy.penalty(recent_cats, item),
            mean_sim=0.0, mean_div=0.0, kind="static",
        )
    else:
        episode = sel.run_selection(
            u, item, state.vec, ctx.matrix, ctx.sel_agent, st.k_sel, st.coeffs, ctx.rng,
            lambda_s=st.lambda_s * gains[0], lambda_d=st.lambda_d * gains[1],
        )
        shaped = rm.shape_reward(episode.ref_rewards)
        r_prev = float(ctx.matrix.write(u, item, shaped))
        r_hat = float(ctx.matrix.current[u, item])
        mean_sim, mean_div = episode.mean_sim(), episode.mean_div()
        if st.variant == "pu_static":
            p_u = float(ctx.static_uncertainty[u, item])
            kind = "static"
        else:
            p_u = rm.dynamic_uncertainty(r_hat, r_prev, mean_sim, mean_div, st.uncertainty_eps)
            kind = "dynamic"
        parts = RewardParts(
            r_hat=r_hat, r_prev=r_prev, p_u=p_u,
            p_e=ctx.entropy.penalty(recent_cats, item),
            mean_sim=mean_sim, mean_div=mean_div, kind=kind,
        )

    reward = rm.recommender_reward(parts.r_hat, parts.p_u, parts.p_e, st.coeffs)
    base_r, done, reason = env_step(
        u, item, step_index, "train", ctx.matrix, None, recent_cats,
        ctx.dataset.items.primary_category,
    )
    value, _ = ctx.rec_agent.critic.forward(state.vec)
    transition = Transition(
        action=item, logprob=logprob, reward=reward,
        value=float(value[0]), track_reward=base_r, parts=parts, done=done,
        done_reason=reason,
    )
    next_state = rec.track(state, item, base_r, ctx.rec_agent)
    return transition, episode, next_state


def rollout_trajectory(ctx: TrainContext, u):
    """One full training episode for user u plus its selection episodes."""
    state = rec.init_episode(u, ctx.rec_agent)
    traj = Trajectory(user=u)
    episodes = []
    mask = np.ones(ctx.dataset.n_items, dtype=bool)
    recent_cats = []
    while True:
        step_index = len(traj) + 1
        tr, episode, state = rollout_recommendation_step(
            ctx, u, state, mask, recent_cats, step_index
        )
        traj.transitions.append(tr)
        if episode is not None:
            episodes.append(episode)
        mask[tr.action] = False
        recent_cats.append(int(ctx.dataset.items.primary_category[tr.action]))
        if tr.done or not mask.any():
            if not tr.done:  # catalog exhausted before the protocol cap
                tr.done = True
                tr.done_reason = "max_length"
            break
    return traj, episodes


# --- advantages and losses -----------------------------------------------

def discounted_returns(rewards, gamma):
    g = 0.0
    out = np.zeros(len(rewards))
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + gamma * g
        out[t] = g
    return out


def compute_advantages(traj: Trajectory, gamma):
    """Monte-Carlo returns and advantages against the recorded critic values."""
    rewards = [tr.reward for tr in traj.transitions]
    values = np.array([tr.value for tr in traj.transitions])
    traj.returns = discounted_returns(rewards, gamma)
    traj.advantages = traj.returns - values
    return traj


def critic_targets(rewards, values, gamma):
    """One-step TD targets from recorded critic values; the last step of
    an episode bootstraps zero (rollouts end at the first done step)."""
    targets = np.array(rewards, dtype=np.float64)
    targets[:-1] += gamma * np.asarray(values[1:], dtype=np.float64)
    return targets


def _head_grads(logits, values, actions, avail, advantages, targets, scale):
    """dlogits/dvalues and losses of one episode's actor+critic objective.

    `logits` and `values` are the episode's rows of a replay, `values`
    one state value per row. `avail` marks the actions selectable at step
    0; each step's action is masked out of every later step. The actor
    loss is the mean of -log pi(action) times the advantage, the critic
    loss the mean squared TD error.
    """
    n = len(actions)
    steps = np.arange(n)
    actions = np.asarray(actions, dtype=np.int64)
    mask = np.tile(avail, (n, 1))
    mask[:, actions] &= steps[:, None] <= steps  # action t is gone after step t
    probs = softmax(np.where(mask, logits, -np.inf))
    onehot = np.zeros_like(probs)
    onehot[steps, actions] = 1.0
    dlogits = -(advantages * scale / n)[:, None] * (onehot - probs)
    aloss = float((-np.log(probs[steps, actions]) * advantages / n).sum())
    err = values[:, 0] - targets
    dvalues = (2.0 * err * scale / n)[:, None]
    return dlogits, dvalues, aloss, float((err * err / n).sum())


def recommender_losses(ctx_agent, traj: Trajectory, gamma, accumulate=True, scale=1.0):
    """Replay the trajectory and (optionally) accumulate gradients.

    Returns (actor_loss, critic_loss) computed from the replayed forward
    pass; identical to the rollout numbers while parameters are unchanged.
    """
    items = [tr.action for tr in traj.transitions]
    track_rewards = [tr.track_reward for tr in traj.transitions]
    fwd = rec.trajectory_forward(ctx_agent, traj.user, items, track_rewards)
    targets = critic_targets(
        [tr.reward for tr in traj.transitions], [tr.value for tr in traj.transitions], gamma
    )
    dlogits, dvalues, aloss, closs = _head_grads(
        fwd["logits"], fwd["values"], items, np.ones(ctx_agent.n_items, dtype=bool),
        traj.advantages, targets, scale,
    )
    if accumulate:
        rec.trajectory_backward(ctx_agent, fwd, dlogits, dvalues)
    return aloss, closs


def _selection_replay(agent, episodes, gamma, accumulate, scale):
    """Replay selection episodes as one batch; returns the summed losses.
    Advantages and TD targets come from the critic values recorded during
    the rollout; they are constants with respect to the replayed forward."""
    fwd = sel.episode_forward(agent, episodes)
    dlogits, dvalues = np.empty_like(fwd["logits"]), np.empty_like(fwd["values"])
    aloss, closs, lo = 0.0, 0.0, 0
    for ep in episodes:
        if ep.advantages is None:
            ep.returns = discounted_returns(ep.rewards, gamma)
            ep.advantages = ep.returns - np.asarray(ep.values)
        avail = np.arange(agent.pool_size) < len(ep.pool)
        rows = slice(lo, lo + ep.length)
        dlogits[rows], dvalues[rows], a, c = _head_grads(
            fwd["logits"][rows], fwd["values"][rows], ep.slots, avail, ep.advantages,
            critic_targets(ep.rewards, ep.values, gamma), scale,
        )
        aloss, closs, lo = aloss + a, closs + c, rows.stop
    if accumulate:
        sel.episode_backward(agent, fwd, dlogits, dvalues)
    return aloss, closs


def selector_losses(agent, ep: sel.SelectionEpisode, gamma, accumulate=True, scale=1.0):
    """Replay one selection episode and (optionally) accumulate gradients."""
    return _selection_replay(agent, [ep], gamma, accumulate, scale)


def update_recommender(agent, traj, gamma, adam_cfg):
    if traj.advantages is None:
        compute_advantages(traj, gamma)
    losses = recommender_losses(agent, traj, gamma, accumulate=True)
    adam_step(agent.blocks(), adam_cfg)
    return losses


def update_selector(agent, episodes, gamma, adam_cfg):
    """One update over all selection episodes of a trajectory (one batch)."""
    if not episodes:
        return 0.0, 0.0
    scale = 1.0 / len(episodes)
    aloss, closs = _selection_replay(agent, episodes, gamma, True, scale)
    adam_step(agent.blocks(), adam_cfg)
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


def _play_episodes(agent, d: ds.Dataset, seed, indices, greedy):
    """Play the evaluation episodes `indices` in lockstep; one result each.

    Episode `idx` draws its user and its actions from its own
    rng_stream(seed, "eval-episode", idx). Each step makes one token
    projection and one actor pass on (N, 1, width) stacks and one encoder
    pass over the live episodes' windows, so every episode gets the bits
    of being played alone, and `env_step` once per live episode.
    """
    rngs = [rng_stream(seed, "eval-episode", idx) for idx in indices]
    users = np.array([int(rng.integers(d.n_users)) for rng in rngs])
    n, window = len(users), agent.window
    item_cats = d.items.primary_category
    totals = [0.0] * n
    cats, visited = [[] for _ in range(n)], [[] for _ in range(n)]
    # one row per live episode: its block position, next token input (a
    # start token first), left-padded token window and the items it may
    # still pick; at step t every live window holds min(t, window) tokens
    rows = np.arange(n)
    inputs = np.concatenate([agent.emb_user.values[users], np.zeros((n, agent.d_emb + 1))], axis=1)
    windows = np.zeros((n, window, agent.encoder.width))
    masks = np.ones((n, d.n_items), dtype=bool)
    step = 0
    while len(rows):
        step += 1
        tokens, _ = agent.proj.forward(inputs[:, None])
        windows = np.concatenate([windows[:, 1:], tokens], axis=1)
        pad = np.broadcast_to(np.arange(window) < window - step, (len(rows), window))
        states, _ = agent.encoder.forward(windows, pad)
        logits, _ = agent.actor.forward(states[:, None])
        z = np.where(masks, logits[:, 0], -np.inf)
        if greedy:
            items = np.argmax(z, axis=1)
        else:
            items, _ = sample_rows(z, [rngs[r] for r in rows])
        rewards = np.empty(len(rows))
        live = np.empty(len(rows), dtype=bool)
        for k, (r, item) in enumerate(zip(rows.tolist(), items.tolist())):
            u = int(users[r])
            reward, done, _ = env_step(
                u, item, step, "eval", None, d.truth_matrix, cats[r], item_cats
            )
            rewards[k] = reward
            totals[r] += reward
            visited[r].append((u, item))
            cats[r].append(int(item_cats[item]))
            masks[k, item] = False
            live[k] = not done
        live &= masks.any(axis=1)
        rows, windows, masks = rows[live], windows[live], masks[live]
        inputs = np.concatenate(
            [agent.emb_user.values[users[rows]], agent.emb_item.values[items[live]],
             rewards[live, None]], axis=1,
        )
    return [
        {
            "r_tra": total, "length": len(c), "r_each": total / len(c),
            "mcd": majority_category_ratio(c), "visited": v,
        }
        for total, c, v in zip(totals, cats, visited)
    ]


def _eval_episode(agent, d: ds.Dataset, seed, idx, greedy):
    """Evaluation episode `idx` played alone; equal to its row of `evaluate`."""
    return _play_episodes(agent, d, seed, [idx], greedy)[0]


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
        results += _play_episodes(agent, d, seed, block, greedy)

    arrays = {
        key: np.array([r[key] for r in results])
        for key in ("r_tra", "length", "r_each", "mcd")
    }
    if matrix is not None:
        pairs = np.array([pair for r in results for pair in r["visited"]])
        uu, ii = np.divmod(np.unique(pairs[:, 0] * d.n_items + pairs[:, 1]), d.n_items)
        reward_error = float(np.abs(matrix.current[uu, ii] - d.truth_matrix[uu, ii]).mean())
    else:
        reward_error = float("nan")
    return EvalReport(
        r_tra=float(arrays["r_tra"].mean()), r_tra_std=float(arrays["r_tra"].std()),
        r_each=float(arrays["r_each"].mean()), r_each_std=float(arrays["r_each"].std()),
        length=float(arrays["length"].mean()), length_std=float(arrays["length"].std()),
        mcd=float(arrays["mcd"].mean()), mcd_std=float(arrays["mcd"].std()),
        reward_error=reward_error, n_episodes=episodes,
        per_episode=arrays,
    )


# --- training loop -----------------------------------------------------------

@dataclass
class TrainResult:
    settings: TrainSettings
    metrics_rows: list
    parts_log: list
    rec_agent: rec.RecommenderAgent
    sel_agent: sel.SelectorAgent
    matrix: ShapedRewardMatrix
    steps_total: int
    dataset_hash: str


def train(d: ds.Dataset, wm: wmod.WorldModelEnsemble, settings: TrainSettings) -> TrainResult:
    """Run the dual-agent loop: epochs of trajectories with per-trajectory
    updates for both agents and periodic ground-truth evaluation."""
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
    entropy = wmod.EntropyTable(stats)
    rec_agent, sel_agent = build_agents(d, settings)
    rng = rng_stream(settings.seed, "train")
    ctx = TrainContext(
        d, matrix, pm.static_uncertainty, entropy, rec_agent, sel_agent, settings, rng
    )
    adam_cfg = AdamConfig(lr=settings.lr)

    rows = []
    parts_log = []
    steps_total = 0
    budget_hit = False
    for epoch in range(settings.epochs):
        for ti in range(settings.trajectories_per_epoch):
            if settings.max_steps is not None and steps_total >= settings.max_steps:
                budget_hit = True
                break
            u = int(rng.integers(d.n_users))
            traj, episodes = rollout_trajectory(ctx, u)
            steps_total += len(traj)
            compute_advantages(traj, settings.gamma)
            update_recommender(rec_agent, traj, settings.gamma, adam_cfg)
            update_selector(sel_agent, episodes, settings.gamma, adam_cfg)
            for si, tr in enumerate(traj.transitions):
                parts_log.append(
                    {
                        "epoch": epoch, "trajectory": ti, "step": si, "user": u,
                        "item": tr.action, "reward": tr.reward, **dataclasses.asdict(tr.parts),
                    }
                )
        due = settings.eval_every > 0 and (
            (epoch + 1) % settings.eval_every == 0 or epoch == settings.epochs - 1 or budget_hit
        )
        if due:
            eval_seed = int(rng_stream(settings.seed, "eval-seed", epoch).integers(2**63))
            report = evaluate(
                rec_agent, d, matrix, settings.eval_episodes, eval_seed,
                greedy=settings.eval_greedy,
            )
            rows.append(
                {
                    "epoch": epoch, "steps": steps_total,
                    "R_tra": report.r_tra, "R_tra_std": report.r_tra_std,
                    "R_each": report.r_each, "Length": report.length,
                    "MCD": report.mcd, "reward_error": report.reward_error,
                }
            )
        if budget_hit:
            break
    return TrainResult(
        settings=settings, metrics_rows=rows, parts_log=parts_log,
        rec_agent=rec_agent, sel_agent=sel_agent, matrix=matrix,
        steps_total=steps_total, dataset_hash=ds.content_hash(d),
    )


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

def _write_bundle_files(out, result: TrainResult, wm: wmod.WorldModelEnsemble):
    out.mkdir()
    config = {
        "settings": result.settings.to_dict(),
        "config_hash": config_hash(result.settings),
        "dataset_hash": result.dataset_hash,
        "steps_total": result.steps_total,
    }
    with open(out / "config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "recommender.frag", "wb") as fh:
        write_fragment(fh, block_state(result.rec_agent.blocks()))
    with open(out / "selector.frag", "wb") as fh:
        write_fragment(fh, block_state(result.sel_agent.blocks()))
    with open(out / "matrix.frag", "wb") as fh:
        write_fragment(
            fh,
            {
                "matrix:current": result.matrix.current,
                "matrix:range": np.array([result.matrix.r_min, result.matrix.r_max]),
            },
        )
    wmod.save_world_model(wm, out / "worldmodel.ckpt")
    write_metrics_csv(result.metrics_rows, out / "metrics.csv")


def save_bundle(dir_path, result: TrainResult, wm: wmod.WorldModelEnsemble):
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
        _write_bundle_files(stage / "new", result, wm)
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


def load_bundle(dir_path, d: ds.Dataset):
    """Rebuild settings, agents and matrix from a bundle directory.

    The bundle's `worldmodel.ckpt` is not read; `load_world_model` loads it.
    Of `matrix.frag` only `matrix:current` and `matrix:range` are read; the
    write history that bundles of earlier versions also hold is ignored.
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
    rec_agent, sel_agent = build_agents(d, settings)
    for agent, name in ((rec_agent, "recommender.frag"), (sel_agent, "selector.frag")):
        with open(root / name, "rb") as fh:
            load_block_state(agent.blocks(), read_fragment(fh), root / name)
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
    matrix = ShapedRewardMatrix(current, bounds[0], bounds[1])
    return {"settings": settings, "rec_agent": rec_agent, "sel_agent": sel_agent, "matrix": matrix}
