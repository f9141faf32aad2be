"""Item-recommendation agent: a windowed sequential state encoder with an
actor and a critic on the encoded state.

Episode state is encoded from tokens built out of the user embedding, the
embedding of each interacted item, and the scalar reward received. The
actor is an MLP with one logit per item, so the item embedding table feeds
only the state tokens and does not represent the actions.
"""

from __future__ import annotations

import numpy as np

from .nncore import WindowedActorCritic, make_block, replay_forward, rng_stream


class RecommenderAgent(WindowedActorCritic):
    encode_first = True

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

    def avail(self, traj):
        return np.ones(self.n_items, dtype=bool)

    def replay(self, trajectories):
        """Replay trajectories as one batch, with tapes. The token after step
        t holds the user, the item of step t and the reward that entered the
        state tracker; each trajectory starts from its user's start token."""
        inputs = np.concatenate([
            x for traj in trajectories for x in (
                self.token_inputs([traj.user]),
                self.token_inputs(
                    [traj.user] * (len(traj) - 1), traj.actions[:-1],
                    [tr.track_reward for tr in traj.transitions[:-1]],
                ),
            )
        ])
        return replay_forward(self, inputs, [len(traj) for traj in trajectories])

    def backward(self, fwd, trajectories, dlogits, dvalues):
        """Backprop a replay's head gradients down to the embedding tables."""
        d, lengths = self.d_emb, [len(traj) for traj in trajectories]
        dx = super().backward(fwd, trajectories, dlogits, dvalues)
        tracked = np.delete(np.arange(len(dx)), np.cumsum(lengths) - lengths)  # non-start tokens
        items = [a for traj in trajectories for a in traj.actions[:-1]]
        np.add.at(self.emb_item.grad, items, dx[tracked, d : 2 * d])
        np.add.at(self.emb_user.grad, np.repeat([t.user for t in trajectories], lengths), dx[:, :d])
