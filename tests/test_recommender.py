import numpy as np
import pytest

from darlr import recommender as rec
from darlr.nncore import gradient_check, rng_stream, softmax


def make_agent(n_users=4, n_items=6, d_emb=3, d_model=5, window=3, seed=0, **kw):
    return rec.RecommenderAgent(n_users, n_items, d_emb, d_model, window, seed, **kw)


class TestInitEpisode:
    def test_different_users_differ(self):
        a = make_agent(seed=1)
        s0 = rec.init_episode(0, a)
        s1 = rec.init_episode(1, a)
        assert not np.allclose(s0.vec, s1.vec)

    def test_zeroed_embeddings_leave_bias_pathway(self):
        a = make_agent(seed=2)
        a.emb_user.values[...] = 0.0
        a.emb_item.values[...] = 0.0
        s0 = rec.init_episode(0, a)
        s1 = rec.init_episode(3, a)
        assert np.array_equal(s0.vec, s1.vec)  # user identity gone, bias only

    def test_gradient_through_init_path(self):
        a = make_agent(seed=3)
        w = rng_stream(3, "w").normal(size=5)

        def forward():
            x = a.token_input(1, None, 0.0)
            t, pt = a.proj.forward(x)
            s, et = a.encoder.encode([t])
            return s, pt, et

        def loss():
            s, _, _ = forward()
            return float(s @ w)

        def back():
            s, pt, et = forward()
            dtok = a.encoder.backward(et, w)[0]
            dx = a.proj.backward(pt, dtok)
            a.emb_user.grad[1] += dx[: a.d_emb]
            return float(s @ w)

        blocks = [a.emb_user] + a.proj.blocks() + a.encoder.blocks()
        assert gradient_check(blocks, loss, back) < 1e-4


class TestTrack:
    def test_window_one_ignores_history(self):
        a = make_agent(window=1, seed=4)
        s = rec.init_episode(0, a)
        path1 = rec.track(rec.track(s, 1, 0.3, a), 4, 0.9, a)
        path2 = rec.track(rec.track(s, 2, 0.7, a), 4, 0.9, a)
        assert np.allclose(path1.vec, path2.vec, atol=0)

    def test_reward_enters_token(self):
        a = make_agent(seed=5)
        s = rec.init_episode(0, a)
        s0 = rec.track(s, 2, 0.0, a)
        s1 = rec.track(s, 2, 1.0, a)
        assert not np.allclose(s0.vec, s1.vec)

    def test_history_buffer_bounded(self):
        a = make_agent(n_items=50, window=5, seed=6)
        s = rec.init_episode(0, a)
        for step in range(40):
            s = rec.track(s, step % 50, 0.5, a)
        assert len(s.tokens) == 5

    def test_causal_outside_window(self):
        a = make_agent(n_items=12, window=2, seed=7)
        s = rec.init_episode(0, a)
        # two histories differing only in an interaction older than the window
        h1 = rec.track(rec.track(rec.track(s, 1, 0.1, a), 5, 0.5, a), 7, 0.9, a)
        h2 = rec.track(rec.track(rec.track(s, 3, 0.8, a), 5, 0.5, a), 7, 0.9, a)
        assert np.allclose(h1.vec, h2.vec, atol=0)

    def test_item_range_checked(self):
        a = make_agent(seed=8)
        with pytest.raises(ValueError, match="range"):
            rec.track(rec.init_episode(0, a), 99, 0.5, a)


class TestRecommend:
    def test_uniform_logits_uniform_sampling(self):
        a = make_agent(n_items=4, seed=9)
        for blk in a.actor.blocks():
            blk.values[...] = 0.0
        s = rec.init_episode(0, a)
        rng = rng_stream(9, "draw")
        counts = np.zeros(4)
        for _ in range(4000):
            item, _ = rec.recommend(s, a, None, rng)
            counts[item] += 1
        assert np.all(np.abs(counts / 4000 - 0.25) < 0.03)

    def test_single_unmasked_forced(self):
        a = make_agent(n_items=4, seed=10)
        s = rec.init_episode(0, a)
        mask = np.array([False, False, True, False])
        item, logprob = rec.recommend(s, a, mask, rng_stream(0))
        assert item == 2
        assert logprob == 0.0

    def test_empirical_frequencies_match_probs(self):
        a = make_agent(n_items=5, seed=11)
        s = rec.init_episode(2, a)
        logits, _ = a.actor.forward(s.vec)
        probs = softmax(logits)
        rng = rng_stream(11, "mc")
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            item, _ = rec.recommend(s, a, None, rng)
            counts[item] += 1
        freq = counts / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 3 * sigma + 1e-12)


class TestTrajectoryReplay:
    def test_forward_states_match_rollout(self):
        a = make_agent(n_users=3, n_items=8, seed=12)
        items = [2, 5, 0, 7]
        rewards = [0.2, 0.9, 0.4, 0.6]
        s = rec.init_episode(1, a)
        states = [s.vec.copy()]
        for it, r in zip(items, rewards):
            s = rec.track(s, it, r, a)
            states.append(s.vec.copy())
        fwd = rec.trajectory_forward(a, 1, items, rewards)
        for t in range(4):
            assert np.allclose(fwd["states"][t], states[t], atol=0)

    def test_backward_embedding_gradients(self):
        a = make_agent(n_users=3, n_items=8, seed=13)
        items = [2, 5, 0]
        rewards = [0.2, 0.9, 0.4]
        wv = rng_stream(13, "wv").normal(size=(3, 8))

        def loss():
            fwd = rec.trajectory_forward(a, 1, items, rewards)
            return float(sum(lg @ w for lg, w in zip(fwd["logits"], wv)))

        def back():
            fwd = rec.trajectory_forward(a, 1, items, rewards)
            dlogits = [w.copy() for w in wv]
            dvalues = [np.zeros(1)] * 3
            rec.trajectory_backward(a, fwd, dlogits, dvalues)
            return float(sum(lg @ w for lg, w in zip(fwd["logits"], wv)))

        assert gradient_check(a.blocks(), loss, back) < 1e-4

    def test_states_match_rollout_beyond_window(self):
        a = make_agent(n_users=3, n_items=10, window=3, seed=14)
        items = [2, 5, 0, 7, 9, 1, 4]
        rewards = [0.2, 0.9, 0.4, 0.6, 0.1, 0.8, 0.3]
        s = rec.init_episode(2, a)
        states = [s.vec.copy()]
        for it, r in zip(items[:-1], rewards[:-1]):
            s = rec.track(s, it, r, a)
            states.append(s.vec.copy())
        fwd = rec.trajectory_forward(a, 2, items, rewards)
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
            fwd = rec.trajectory_forward(a, 1, items, rewards)
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        def back():
            fwd = rec.trajectory_forward(a, 1, items, rewards)
            rec.trajectory_backward(a, fwd, wl.copy(), wv.copy())
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        assert gradient_check(a.blocks(), loss, back) < 1e-4
