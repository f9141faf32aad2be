"""Item-recommendation agent with a windowed sequential state tracker.

Episode state is encoded from tokens built out of the user embedding, the
embedding of each interacted item, and the scalar reward received. The
actor is an MLP with one logit per item, so the item embedding table feeds
only the state tokens and does not represent the actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nncore import (
    Linear,
    Mlp,
    SeqEncoder,
    add_in_order,
    make_block,
    replay_backward,
    replay_forward,
    rng_stream,
    softmax_policy,
)


@dataclass
class RecState:
    user: int
    vec: np.ndarray
    tokens: list = field(default_factory=list)  # at most `window` retained


class RecommenderAgent:
    def __init__(
        self, n_users, n_items, d_emb, d_model, window, seed, layers=1, hidden=(64,),
    ):
        self.n_users = n_users
        self.n_items = n_items
        self.d_emb = d_emb
        self.window = window
        self.emb_user = make_block(
            "rec/emb_user", (n_users, d_emb), rng_stream(seed, "init", "rec/emb_user")
        )
        self.emb_item = make_block(
            "rec/emb_item", (n_items, d_emb), rng_stream(seed, "init", "rec/emb_item")
        )
        self.proj = Linear("rec/proj", 2 * d_emb + 1, d_model, seed)
        self.encoder = SeqEncoder("rec/enc", d_model, window, seed, layers=layers)
        self.actor = Mlp("rec/actor", [d_model] + list(hidden) + [n_items], seed)
        self.critic = Mlp("rec/critic", [d_model] + list(hidden) + [1], seed)

    def blocks(self):
        return (
            [self.emb_user, self.emb_item]
            + self.proj.blocks()
            + self.encoder.blocks()
            + self.actor.blocks()
            + self.critic.blocks()
        )

    def token_input(self, u, item, reward):
        e_u = self.emb_user.values[u]
        e_i = np.zeros(self.d_emb) if item is None else self.emb_item.values[item]
        return np.concatenate([e_u, e_i, [float(reward)]])

    def token(self, u, item, reward):
        t, _ = self.proj.forward(self.token_input(u, item, reward))
        return t


def init_episode(u, agent: RecommenderAgent) -> RecState:
    """Fresh episode state: encode a start token derived from the user."""
    start = agent.token(u, None, 0.0)
    vec, _ = agent.encoder.encode([start])
    return RecState(user=u, vec=vec, tokens=[start])


def track(state: RecState, item, reward, agent: RecommenderAgent) -> RecState:
    """Append the (item, reward) token and re-encode the retained window."""
    if not (0 <= item < agent.n_items):
        raise ValueError(f"item {item} out of range")
    tokens = (state.tokens + [agent.token(state.user, item, reward)])[-agent.window :]
    vec, _ = agent.encoder.encode(tokens)
    return RecState(user=state.user, vec=vec, tokens=tokens)


def recommend(state: RecState, agent: RecommenderAgent, mask, rng):
    """Sample an item from the actor's policy; mask excludes repeats."""
    logits, _ = agent.actor.forward(state.vec)
    item, logprob, _ = softmax_policy(logits, mask=mask, rng=rng)
    return item, logprob


def trajectory_forward(agent: RecommenderAgent, user, items, track_rewards):
    """Replay an episode with tapes: token and state caches plus both heads.

    `items` and `track_rewards` are the per-step recommended items and the
    rewards that entered the state-tracker tokens.
    """
    inputs = [agent.token_input(user, None, 0.0)]
    inputs += [agent.token_input(user, i, r) for i, r in zip(items[:-1], track_rewards)]
    fwd = replay_forward(agent, inputs, [len(items)], encode_first=True)
    fwd.update(user=user, items=list(items))
    return fwd


def trajectory_backward(agent: RecommenderAgent, fwd, dlogits, dvalues):
    """Backprop per-step head gradients down to the embedding tables."""
    d = agent.d_emb
    dx = replay_backward(agent, fwd, dlogits, dvalues)
    add_in_order(agent.emb_user.grad[fwd["user"]], dx[:, :d])
    np.add.at(agent.emb_item.grad, fwd["items"][:-1], dx[1:, d : 2 * d])
