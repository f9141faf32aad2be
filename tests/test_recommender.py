import numpy as np
import pytest

from darlr import engine
from darlr import recommender as rec
from darlr.nncore import gradient_check, play_episodes, rng_stream, sample_rows, softmax


def make_agent(n_users=4, n_items=6, d_emb=3, d_model=5, window=3, seed=0, **kw):
    return rec.RecommenderAgent(n_users, n_items, d_emb, d_model, window, seed, **kw)


def played(a, user, items, rewards):
    """Play `items` for `user` through the lockstep player, `rewards[t]`
    entering the token after step t; returns the state and the masked
    logits the player offered at each step."""
    states, zs = [], []

    def step(rows, s, z, t):
        states.append(s[0].copy())
        zs.append(z[0].copy())
        done = t == len(items)
        # no token follows the last step, so a bad last item meets the player's range check
        nxt = a.token_inputs([user]) if done else a.token_inputs([user], [items[t - 1]], [rewards[t - 1]])
        return [items[t - 1]], nxt, [done]

    play_episodes(a, a.token_inputs([user]), np.ones((1, a.n_items), dtype=bool), step)
    return states, zs


def trajectory(user, items, rewards):
    """A trajectory of `items` for `user`, `rewards[t]` entering the token after step t."""
    traj = engine.Trajectory(user=user)
    for item, r in zip(items, rewards):
        traj.transitions.append(engine.Transition(item, r, r, None, False, None))
    return traj


def first_logits(a, users):
    """The actor's logits at step 1 of one played episode per user."""
    out = []

    def step(rows, s, z, t):
        out.append(z.copy())
        n = len(rows)
        return np.zeros(n, dtype=int), a.token_inputs(users, np.zeros(n, dtype=int), np.zeros(n)), np.ones(n, dtype=bool)

    play_episodes(a, a.token_inputs(users), np.ones((len(users), a.n_items), dtype=bool), step)
    return out[0]


class TestInitEpisode:
    def test_different_users_differ(self):
        a = make_agent(seed=1)
        s0 = played(a, 0, [0], [0.0])[0][0]
        s1 = played(a, 1, [0], [0.0])[0][0]
        assert not np.allclose(s0, s1)

    def test_zeroed_embeddings_leave_bias_pathway(self):
        a = make_agent(seed=2)
        a.emb_user.values[...] = 0.0
        a.emb_item.values[...] = 0.0
        s0 = played(a, 0, [0], [0.0])[0][0]
        s1 = played(a, 3, [0], [0.0])[0][0]
        assert np.array_equal(s0, s1)  # user identity gone, bias only

    def test_gradient_through_init_path(self):
        a = make_agent(seed=3)
        w = rng_stream(3, "w").normal(size=5)

        def forward():
            t, pt = a.proj.forward(a.token_inputs([1]))
            windows = np.zeros((1, a.window, t.size))
            windows[0, -1] = t[0]  # one token, left-padded
            s, et = a.encoder.forward(windows, (np.arange(a.window) < a.window - 1)[None])
            return s[0], pt, et

        def loss():
            s, _, _ = forward()
            return float(s @ w)

        def back():
            s, pt, et = forward()
            dtok = a.encoder.backward_batch(et, w[None])[0, -1]
            dx = a.proj.backward(pt, dtok[None])[0]
            a.emb_user.grad[1] += dx[: a.d_emb]
            return float(s @ w)

        blocks = [a.emb_user] + a.proj.blocks() + a.encoder.blocks()
        assert gradient_check(blocks, loss, back) < 1e-4


class TestTrack:
    def test_window_one_ignores_history(self):
        a = make_agent(window=1, seed=4)
        path1, _ = played(a, 0, [1, 4, 0], [0.3, 0.9, 0.0])
        path2, _ = played(a, 0, [2, 4, 0], [0.7, 0.9, 0.0])
        assert np.allclose(path1[2], path2[2], atol=0)

    def test_reward_enters_token(self):
        a = make_agent(seed=5)
        s0, _ = played(a, 0, [2, 0], [0.0, 0.0])
        s1, _ = played(a, 0, [2, 0], [1.0, 0.0])
        assert not np.allclose(s0[1], s1[1])

    def test_history_buffer_bounded(self, monkeypatch):
        a = make_agent(n_items=50, window=5, seed=6)
        shapes = []
        forward = a.encoder.forward

        def recording_forward(windows, pad):
            shapes.append(windows.shape)
            return forward(windows, pad)

        monkeypatch.setattr(a.encoder, "forward", recording_forward)
        played(a, 0, list(range(40)), [0.5] * 40)
        assert shapes == [(1, 5, 5)] * 40

    def test_causal_outside_window(self):
        a = make_agent(n_items=12, window=2, seed=7)
        # two histories differing only in an interaction older than the window
        h1, _ = played(a, 0, [1, 5, 7, 0], [0.1, 0.5, 0.9, 0.0])
        h2, _ = played(a, 0, [3, 5, 7, 0], [0.8, 0.5, 0.9, 0.0])
        assert np.allclose(h1[3], h2[3], atol=0)

    def test_item_range_checked(self):
        a = make_agent(seed=8)
        for item in (99, -1):
            with pytest.raises(ValueError, match="range"):
                played(a, 0, [item], [0.5])

    def test_spent_item_rejected(self):
        a = make_agent(seed=8)
        with pytest.raises(ValueError, match=r"^action out of range \[0, 6\) or already spent: \[2\]$"):
            played(a, 0, [2, 4, 2], [0.5, 0.5, 0.5])

    def test_episodes_end_when_their_actions_run_out(self):
        # masks of 3 and 5 actions and hooks that never end an episode: 3 and 5 steps
        a = make_agent(n_items=6, seed=8)
        masks = np.zeros((2, 6), dtype=bool)
        masks[0, :3] = masks[1, 1:] = True
        live = []

        def step(rows, s, z, t):
            live.append(rows.tolist())
            items = np.argmax(z, axis=1)
            return items, a.token_inputs([0] * len(rows), items, np.zeros(len(rows))), [False] * len(rows)

        play_episodes(a, a.token_inputs([0, 0]), masks, step)
        assert live == [[0, 1]] * 3 + [[1]] * 2


class TestRecommend:
    def test_uniform_logits_uniform_sampling(self):
        a = make_agent(n_items=4, seed=9)
        for blk in a.actor.blocks():
            blk.values[...] = 0.0
        z = first_logits(a, np.zeros(4000, dtype=int))
        items, _ = sample_rows(z, [rng_stream(9, "draw")] * 4000)
        counts = np.bincount(items, minlength=4)
        assert np.all(np.abs(counts / 4000 - 0.25) < 0.03)

    def test_single_unmasked_forced(self):
        a = make_agent(n_items=4, seed=10)
        _, zs = played(a, 0, [0, 1, 3, 2], [0.5] * 4)
        items, probs = sample_rows(zs[3][None], [rng_stream(0)])
        assert items[0] == 2
        assert np.log(probs[0, 2]) == 0.0

    def test_empirical_frequencies_match_probs(self):
        a = make_agent(n_items=5, seed=11)
        z = first_logits(a, [2])
        probs = softmax(z[0])
        n = 100_000
        items, _ = sample_rows(np.broadcast_to(z, (n, 5)), [rng_stream(11, "mc")] * n)
        freq = np.bincount(items, minlength=5) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 3 * sigma + 1e-12)


class TestTrajectoryReplay:
    def test_forward_states_match_rollout(self):
        a = make_agent(n_users=3, n_items=8, seed=12)
        items = [2, 5, 0, 7]
        rewards = [0.2, 0.9, 0.4, 0.6]
        states, _ = played(a, 1, items, rewards)
        fwd = a.replay([trajectory(1, items, rewards)])
        for t in range(4):
            assert np.allclose(fwd["states"][t], states[t], atol=0)

    def test_backward_embedding_gradients(self):
        a = make_agent(n_users=3, n_items=8, seed=13)
        items = [2, 5, 0]
        rewards = [0.2, 0.9, 0.4]
        wv = rng_stream(13, "wv").normal(size=(3, 8))

        def loss():
            fwd = a.replay([trajectory(1, items, rewards)])
            return float(sum(lg @ w for lg, w in zip(fwd["logits"], wv)))

        def back():
            fwd = a.replay([trajectory(1, items, rewards)])
            dlogits = [w.copy() for w in wv]
            dvalues = [np.zeros(1)] * 3
            a.backward(fwd, [trajectory(1, items, rewards)], dlogits, dvalues)
            return float(sum(lg @ w for lg, w in zip(fwd["logits"], wv)))

        assert gradient_check(a.blocks(), loss, back) < 1e-4

    def test_states_match_rollout_beyond_window(self):
        a = make_agent(n_users=3, n_items=10, window=3, seed=14)
        items = [2, 5, 0, 7, 9, 1, 4]
        rewards = [0.2, 0.9, 0.4, 0.6, 0.1, 0.8, 0.3]
        states, _ = played(a, 2, items, rewards)
        fwd = a.replay([trajectory(2, items, rewards)])
        assert len(fwd["states"]) == 7
        for t in range(7):
            assert np.allclose(fwd["states"][t], states[t], atol=0)

    def test_backward_gradients_beyond_window(self):
        a = make_agent(n_users=3, n_items=8, window=3, seed=15, layers=2, hidden=(6,))
        items = [2, 5, 0, 7, 1]
        rewards = [0.2, 0.9, 0.4, 0.6, 0.1]
        rng = rng_stream(15, "w")
        wl, wv = rng.normal(size=(5, 8)), rng.normal(size=(5, 1))

        def loss():
            fwd = a.replay([trajectory(1, items, rewards)])
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        def back():
            fwd = a.replay([trajectory(1, items, rewards)])
            a.backward(fwd, [trajectory(1, items, rewards)], wl.copy(), wv.copy())
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        assert gradient_check(a.blocks(), loss, back) < 1e-4
