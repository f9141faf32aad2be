"""Reference-user selection agent.

Within every recommendation step the selector runs a short inner episode:
it scores a similarity-ranked candidate pool, samples users without
replacement until the reference budget is filled, and earns an intrinsic
reward combining the running reward estimate with similarity and
diversity gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rewardmath as rm
from .nncore import Linear, Mlp, SeqEncoder, replay_backward, replay_forward, softmax_policy


@dataclass
class SelectionEpisode:
    user: int
    item: int
    s_rec: np.ndarray
    p_u: np.ndarray
    pool: np.ndarray
    selected: list = field(default_factory=list)  # user ids in selection order
    p_rows: list = field(default_factory=list)  # preference rows at selection time
    slots: list = field(default_factory=list)  # pool indices actually sampled
    logprobs: list = field(default_factory=list)
    values: list = field(default_factory=list)
    sims: list = field(default_factory=list)
    divs: list = field(default_factory=list)
    ref_rewards: list = field(default_factory=list)
    rewards: list = field(default_factory=list)  # per-step intrinsic rewards
    tokens: list = field(default_factory=list)  # projected tokens of p_u, then p_rows
    returns: np.ndarray | None = None
    advantages: np.ndarray | None = None

    @property
    def length(self):
        return len(self.slots)

    def mean_sim(self):
        return float(np.mean(self.sims))

    def mean_div(self):
        return float(np.mean(self.divs))


class SelectorAgent:
    """Projection, windowed encoder, actor over the candidate pool, critic."""

    def __init__(
        self, n_items, d_rec, d_pref, pool_size, window, seed, layers=1, hidden=(64,),
    ):
        self.n_items = n_items
        self.d_rec = d_rec
        self.d_pref = d_pref
        self.d_state = d_rec + d_pref
        self.pool_size = pool_size
        self.window = window
        self.proj = Linear("sel/proj", d_rec + n_items, self.d_state, seed)
        self.encoder = SeqEncoder("sel/enc", self.d_state, window, seed, layers=layers)
        self.actor = Mlp("sel/actor", [self.d_state] + list(hidden) + [pool_size], seed)
        self.critic = Mlp("sel/critic", [self.d_state] + list(hidden) + [1], seed)

    def blocks(self):
        return self.proj.blocks() + self.encoder.blocks() + self.actor.blocks() + self.critic.blocks()

    def token(self, s_rec, p_row):
        t, _ = self.proj.forward(np.concatenate([s_rec, p_row]))
        return t


def candidate_pool(u, matrix, C):
    """Top-C users by preference-row cosine to user u, ids ascending on ties.

    The current user is excluded; recomputed once per recommendation step.
    """
    rows = matrix.current
    n = rows.shape[0]
    p_u = rows[u]
    norms = np.linalg.norm(rows, axis=1)
    sims = rows @ p_u / (np.maximum(norms, 1e-30) * max(np.linalg.norm(p_u), 1e-30))
    ids = np.delete(np.arange(n), u)
    sims = sims[ids]
    order = np.lexsort((ids, -sims))
    return ids[order][: min(C, len(ids))]


def init_state(s_rec, p_u, agent: SelectorAgent) -> np.ndarray:
    """Initial selection state vector: projected concatenation of both context parts."""
    s_rec = np.asarray(s_rec, dtype=np.float64)
    p_u = np.asarray(p_u, dtype=np.float64)
    if s_rec.shape != (agent.d_rec,) or p_u.shape != (agent.n_items,):
        raise ValueError("state parts do not match the agent widths")
    return agent.token(s_rec, p_u)


def advance_state(ep: SelectionEpisode, newly_selected_p, agent: SelectorAgent) -> np.ndarray:
    """Next selection state vector: encode the last window of projected tokens.

    Token t comes from the user picked at step t-1, so the state
    progressively absorbs the selected users' preference rows. Each token
    is projected once and kept on the episode.
    """
    for row in ([ep.p_u] + ep.p_rows[:-1])[len(ep.tokens) :]:
        ep.tokens.append(agent.token(ep.s_rec, row))
    ep.tokens.append(agent.token(ep.s_rec, newly_selected_p))
    state, _ = agent.encoder.encode(ep.tokens[-agent.window :])
    return state


def run_selection(
    u, i_t, s_rec, matrix, agent: SelectorAgent, k_sel, coeffs: rm.PenaltyCoeffs, rng,
    lambda_s=None, lambda_d=None,
) -> SelectionEpisode:
    """Sample k_sel distinct reference users for (u, i_t) with current policy.

    Per-step intrinsic reward: running mean of the selected users' reward
    estimates for i_t, plus weighted similarity and diversity gains. The
    gain coefficients default to the penalty config but can be overridden
    by ablation variants. Gains read the matrix as it stands before this
    recommendation step writes back.
    """
    lam_s = coeffs.lambda_s if lambda_s is None else lambda_s
    lam_d = coeffs.lambda_d if lambda_d is None else lambda_d
    pool = candidate_pool(u, matrix, agent.pool_size)
    if len(pool) < k_sel:
        raise ValueError(f"candidate pool exhausted: {len(pool)} users < k_sel={k_sel}")
    ep = SelectionEpisode(
        user=u, item=i_t, s_rec=np.array(s_rec, dtype=np.float64),
        p_u=matrix.current[u].copy(), pool=pool,
    )
    state = init_state(ep.s_rec, ep.p_u, agent)
    ep.tokens.append(state)
    available = np.ones(agent.pool_size, dtype=bool)
    available[len(pool) :] = False
    running_sum = 0.0
    for t in range(k_sel):
        logits, _ = agent.actor.forward(state)
        value, _ = agent.critic.forward(state)
        slot, logprob, _ = softmax_policy(logits, mask=available, rng=rng)
        cand = int(pool[slot])
        p_cand = matrix.current[cand].copy()
        sim = rm.similarity_gain(ep.p_u, p_cand)
        div = rm.diversity_gain(p_cand, ep.p_rows)
        ref = float(matrix.current[cand, i_t])
        running_sum += ref
        prefix_mean = running_sum / (t + 1)
        reward = rm.intrinsic_reward(
            prefix_mean, rm.GainPair(sim, div), rm.PenaltyCoeffs(0.0, 0.0, lam_s, lam_d)
        )
        ep.slots.append(slot)
        ep.selected.append(cand)
        ep.p_rows.append(p_cand)
        ep.logprobs.append(logprob)
        ep.values.append(float(value[0]))
        ep.sims.append(sim)
        ep.divs.append(div)
        ep.ref_rewards.append(ref)
        ep.rewards.append(reward)
        available[slot] = False
        if t + 1 < k_sel:
            state = advance_state(ep, p_cand, agent)
    return ep


def episode_forward(agent: SelectorAgent, episodes):
    """Replay one episode, or a list of them as one batch, with tapes.

    Reproduces the rollout numbers exactly while the parameters are
    unchanged. State 0 of each episode is its bare token (`init_state`).
    """
    episodes = [episodes] if isinstance(episodes, SelectionEpisode) else episodes
    lengths = [ep.length for ep in episodes]
    inputs = np.concatenate([
        np.hstack([np.broadcast_to(ep.s_rec, (n, agent.d_rec)), [ep.p_u] + ep.p_rows[: n - 1]])
        for ep, n in zip(episodes, lengths)
    ])
    return replay_forward(agent, inputs, lengths, encode_first=False)


def episode_backward(agent: SelectorAgent, fwd, dlogits, dvalues):
    """Push per-step head gradients back through encoder and projection."""
    replay_backward(agent, fwd, dlogits, dvalues)
