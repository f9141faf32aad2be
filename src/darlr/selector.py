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
from .nncore import WindowedActorCritic, play_episodes, replay_forward, sample_rows


@dataclass
class SelectionEpisode:
    s_rec: np.ndarray
    p_u: np.ndarray
    pool: np.ndarray
    p_rows: list = field(default_factory=list)  # preference rows at selection time
    slots: list = field(default_factory=list)  # pool indices actually sampled
    values: list = field(default_factory=list)  # the critic's, filled by engine.update
    sims: list = field(default_factory=list)
    divs: list = field(default_factory=list)
    ref_rewards: list = field(default_factory=list)
    rewards: list = field(default_factory=list)  # per-step intrinsic rewards

    @property
    def length(self):
        return len(self.slots)

    @property
    def actions(self):
        return self.slots

    @property
    def selected(self):
        """User ids in selection order."""
        return self.pool[self.slots].tolist()

    def mean_sim(self):
        return rm.mean(self.sims)

    def mean_div(self):
        return rm.mean(self.divs)


class SelectorAgent(WindowedActorCritic):
    """Projection, windowed encoder, actor over the candidate pool, critic."""

    encode_first = False

    def __init__(
        self, n_items, d_rec, d_pref, pool_size, window, seed, layers=1, hidden=(64,),
    ):
        self.d_rec = d_rec
        self.pool_size = pool_size
        super().__init__(
            "sel", d_rec + n_items, d_rec + d_pref, pool_size, window, seed, layers, hidden,
        )

    def avail(self, ep):
        """The pool's slots; a pool smaller than the actor leaves the rest out."""
        return np.arange(self.pool_size) < len(ep.pool)

    def replay(self, episodes):
        """Replay selection episodes as one batch, with tapes. State 0 of
        each episode is its bare token, as in `run_selection`."""
        lengths = [ep.length for ep in episodes]
        inputs = np.concatenate([
            np.hstack([np.broadcast_to(ep.s_rec, (n, self.d_rec)), [ep.p_u] + ep.p_rows[: n - 1]])
            for ep, n in zip(episodes, lengths)
        ])
        return replay_forward(self, inputs, lengths)


def candidate_pool(u, matrix, C):
    """Top-C users by preference-row cosine to user u, ids ascending on ties.

    The current user is excluded; recomputed once per recommendation step
    from the matrix's cached row norms.
    """
    rows = matrix.current
    n = rows.shape[0]
    p_u = rows[u]
    sims = rows @ p_u / (np.maximum(matrix.row_norms, 1e-30) * max(np.linalg.norm(p_u), 1e-30))
    ids = np.delete(np.arange(n), u)
    sims = sims[ids]
    order = np.lexsort((ids, -sims))
    return ids[order][: min(C, len(ids))]


def run_selection(
    u, i_t, s_rec, matrix, agent: SelectorAgent, k_sel, lambda_s, lambda_d, rng,
) -> SelectionEpisode:
    """Sample k_sel distinct reference users for (u, i_t) with current policy.

    Per-step intrinsic reward: running mean of the selected users' reward
    estimates for i_t, plus the similarity and diversity gains weighted by
    `lambda_s` and `lambda_d`. Gains read the matrix as it stands before
    this recommendation step writes back.
    """
    pool = candidate_pool(u, matrix, agent.pool_size)
    if len(pool) < k_sel:
        raise ValueError(f"candidate pool exhausted: {len(pool)} users < k_sel={k_sel}")
    ep = SelectionEpisode(
        s_rec=np.array(s_rec, dtype=np.float64), p_u=matrix.current[u].copy(), pool=pool
    )
    n_u, norms = np.linalg.norm(ep.p_u), []  # norms[t]: of p_rows[t]
    running_sum = 0.0

    # the token of step t holds s_rec and the newest row: p_u's, then the last pick's
    def step(rows, states, z, t):
        nonlocal running_sum
        slot = int(sample_rows(z, [rng])[0][0])
        cand = int(pool[slot])
        p_row = matrix.current[cand].copy()
        n_cand = np.linalg.norm(p_row)
        sim = rm.cosine_from_norms(ep.p_u, p_row, n_u, n_cand)
        div = rm.mean_dissimilarity(p_row, n_cand, ep.p_rows, norms)
        ref = float(matrix.current[cand, i_t])
        running_sum += ref
        ep.slots.append(slot)
        ep.p_rows.append(p_row)
        norms.append(n_cand)
        ep.sims.append(sim)
        ep.divs.append(div)
        ep.ref_rewards.append(ref)
        ep.rewards.append(rm.intrinsic_reward(running_sum / t, sim, div, lambda_s, lambda_d))
        return [slot], np.concatenate([ep.s_rec, p_row])[None], [t == k_sel]

    play_episodes(agent, np.concatenate([ep.s_rec, ep.p_u])[None], agent.avail(ep)[None], step)
    return ep
