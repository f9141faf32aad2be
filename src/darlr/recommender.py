"""Item-recommendation agent: a windowed sequential state encoder with an
actor and a critic on the encoded state.

Episode state is encoded from tokens built out of the user embedding, the
embedding of each interacted item, and the scalar reward received. The
actor is an MLP with one logit per item, so the item embedding table feeds
only the state tokens and does not represent the actions.
"""

from __future__ import annotations

import numpy as np

from .nncore import (
    WindowedActorCritic,
    add_in_order,
    make_block,
    replay_backward,
    replay_forward,
    rng_stream,
)


class RecommenderAgent(WindowedActorCritic):
    def __init__(
        self, n_users, n_items, d_emb, d_model, window, seed, layers=1, hidden=(64,),
    ):
        self.n_users = n_users
        self.n_items = n_items
        self.d_emb = d_emb
        self.emb_user = make_block(
            "rec/emb_user", (n_users, d_emb), rng_stream(seed, "init", "rec/emb_user")
        )
        self.emb_item = make_block(
            "rec/emb_item", (n_items, d_emb), rng_stream(seed, "init", "rec/emb_item")
        )
        super().__init__(
            "rec", 2 * d_emb + 1, d_model, n_items, window, seed, layers, hidden,
            first=[self.emb_user, self.emb_item],
        )

    def token_inputs(self, users, items=None, rewards=None):
        """Projection inputs [e_u, e_i, reward], one row per token; without
        items, the start tokens [e_u, 0, 0] of the users' episodes."""
        x = np.zeros((len(users), 2 * self.d_emb + 1))
        x[:, : self.d_emb] = self.emb_user.values[users]
        if items is not None:
            x[:, self.d_emb : -1] = self.emb_item.values[items]
            x[:, -1] = rewards
        return x


def trajectory_forward(agent: RecommenderAgent, user, items, track_rewards):
    """Replay an episode with tapes: token and state caches plus both heads.

    `items` and `track_rewards` are the per-step recommended items and the
    rewards that entered the state-tracker tokens.
    """
    n = len(items)
    inputs = np.concatenate([
        agent.token_inputs([user]),
        agent.token_inputs(np.full(n - 1, user), items[:-1], track_rewards[: n - 1]),
    ])
    fwd = replay_forward(agent, inputs, [n], encode_first=True)
    fwd.update(user=user, items=list(items))
    return fwd


def trajectory_backward(agent: RecommenderAgent, fwd, dlogits, dvalues):
    """Backprop per-step head gradients down to the embedding tables."""
    d = agent.d_emb
    dx = replay_backward(agent, fwd, dlogits, dvalues)
    np.add.at(agent.emb_item.grad, fwd["items"][:-1], dx[1:, d : 2 * d])
    add_in_order(agent.emb_user.grad[fwd["user"]], dx[:, :d])
