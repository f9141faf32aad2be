import dataclasses
import itertools

import numpy as np
import pytest

from darlr import engine
from darlr import rewardmath as rm
from darlr import selector as sel
from darlr.engine import ShapedRewardMatrix
from darlr.nncore import gradient_check, rng_stream, sample_rows, softmax


def make_matrix(rows):
    return ShapedRewardMatrix(np.asarray(rows, dtype=np.float64), 0.0, 1.0)


def cosine(a, b):
    """`cosine_from_norms` on `np.linalg.norm` norms: the similarity gain."""
    return rm.cosine_from_norms(a, b, np.linalg.norm(a), np.linalg.norm(b))


def dissimilarity(cand, rows):
    """`mean_dissimilarity` on `np.linalg.norm` norms: the diversity gain."""
    return rm.mean_dissimilarity(cand, np.linalg.norm(cand), rows, [np.linalg.norm(r) for r in rows])


def encode_window(encoder, tokens):
    """The state of one left-padded window of `tokens` from the batched encoder."""
    n = len(tokens)
    windows = np.zeros((1, encoder.window, encoder.width))
    windows[0, encoder.window - n :] = tokens
    return encoder.forward(windows, (np.arange(encoder.window) < encoder.window - n)[None])[0][0]


def make_agent(n_items, pool_size, d_rec=4, d_pref=3, window=3, seed=0, **kw):
    return sel.SelectorAgent(n_items, d_rec, d_pref, pool_size, window, seed, **kw)


class TestCandidatePool:
    def test_small_user_set_all_included(self):
        rng = rng_stream(0, "rows")
        m = make_matrix(rng.random((5, 6)))
        pool = sel.candidate_pool(2, m, 100)
        assert sorted(pool.tolist()) == [0, 1, 3, 4]

    def test_identical_row_ranks_first(self):
        rng = rng_stream(1, "rows")
        rows = rng.random((6, 5))
        rows[4] = rows[1] * 2.0  # same direction as user 1
        m = make_matrix(rows / 2)
        pool = sel.candidate_pool(1, m, 3)
        assert pool[0] == 4

    def test_matches_exhaustive_sort(self):
        rng = rng_stream(2, "rows")
        rows = rng.random((10, 7))
        m = make_matrix(rows)
        u = 3
        sims = []
        for v in range(10):
            if v == u:
                continue
            sims.append((-cosine(rows[u], rows[v]), v))
        expected = [v for _, v in sorted(sims)][:4]
        assert sel.candidate_pool(u, m, 4).tolist() == expected

    def test_ties_broken_by_ascending_id(self):
        rows = np.tile(np.array([0.2, 0.4, 0.4]), (5, 1))
        m = make_matrix(rows)
        assert sel.candidate_pool(2, m, 4).tolist() == [0, 1, 3, 4]


def reference_selection(u, i_t, s_rec, matrix, agent, k_sel, lambda_s, lambda_d, rng):
    """`run_selection` step by step: every token projected alone, every later
    state encoded from the last window of tokens alone.
    Returns the episode's slots, values and rewards."""
    pool = sel.candidate_pool(u, matrix, agent.pool_size)
    rows = matrix.current
    avail = np.arange(agent.pool_size) < len(pool)
    tokens, chosen, slots, values, rewards = [], [], [], [], []
    for t in range(k_sel):
        token, _ = agent.proj.forward(np.concatenate([s_rec, rows[chosen[-1] if t else u]]))
        tokens.append(token)
        state = encode_window(agent.encoder, tokens[-agent.window :]) if t else token
        logits, _ = agent.actor.forward(state)
        value, _ = agent.critic.forward(state)
        slot = int(sample_rows(np.where(avail, logits, -np.inf)[None], [rng])[0][0])
        avail[slot] = False
        chosen.append(int(pool[slot]))
        sim = cosine(rows[u], rows[chosen[-1]])
        div = dissimilarity(rows[chosen[-1]], [rows[c] for c in chosen[:-1]])
        prefix = sum(float(rows[c, i_t]) for c in chosen) / (t + 1)  # a running sum
        slots.append(slot)
        values.append(float(value[0]))
        rewards.append(rm.intrinsic_reward(prefix, sim, div, lambda_s, lambda_d))
    return slots, values, rewards


def recorded_states(monkeypatch, agent, *args):
    """`run_selection(*args)` and the state vectors its actor saw, in step order."""
    states, forward = [], agent.actor.forward

    def recording_forward(x):
        states.append(np.asarray(x).reshape(-1))
        return forward(x)

    with monkeypatch.context() as m:
        m.setattr(agent.actor, "forward", recording_forward)
        ep = sel.run_selection(*args)
    return ep, states


class TestStates:
    def setup_method(self):
        rng = rng_stream(5, "rows")
        self.matrix = make_matrix(rng.random((8, 4)))
        self.s_rec = rng.normal(size=2)

    def states(self, monkeypatch, agent, k_sel, s_rec=None):
        s_rec = self.s_rec if s_rec is None else s_rec
        args = (3, 0, s_rec, self.matrix, agent, k_sel, 1.0, 0.1, rng_stream(k_sel))
        return recorded_states(monkeypatch, agent, *args)

    def test_identity_projection_concatenates(self, monkeypatch):
        a = make_agent(n_items=4, pool_size=7, d_rec=2, d_pref=4)
        a.proj.w.values[...] = np.eye(6)
        a.proj.b.values[...] = 0.0
        _, states = self.states(monkeypatch, a, 1)
        assert np.array_equal(states[0], np.concatenate([self.s_rec, self.matrix.current[3]]))

    def test_zero_inputs_give_projection_bias(self, monkeypatch):
        a = make_agent(n_items=4, pool_size=7, d_rec=2, d_pref=4)
        a.proj.b.values[...] = np.arange(6) * 0.1
        rows = self.matrix.current.copy()
        rows[3] = 0.0
        self.matrix = make_matrix(rows)
        _, states = self.states(monkeypatch, a, 1, s_rec=np.zeros(2))
        assert np.array_equal(states[0], np.arange(6) * 0.1)

    def test_width_mismatch_rejected(self):
        a = make_agent(n_items=4, pool_size=7)
        with pytest.raises(ValueError, match="width"):
            sel.run_selection(0, 0, np.zeros(99), self.matrix, a, 2, 1.0, 0.1, rng_stream(0))

    def test_projection_gradient(self):
        a = make_agent(n_items=3, pool_size=2, d_rec=2, d_pref=3, seed=4)
        x = rng_stream(4, "x").normal(size=(1, 5))
        w = rng_stream(4, "w").normal(size=5)

        def loss():
            y, _ = a.proj.forward(x)
            return float(y[0] @ w)

        def back():
            y, t = a.proj.forward(x)
            a.proj.backward(t, w[None])
            return float(y[0] @ w)

        assert gradient_check(a.proj.blocks(), loss, back) < 1e-4

    def test_window_one_depends_only_on_latest(self, monkeypatch):
        a = make_agent(n_items=4, pool_size=7, d_rec=2, window=1, seed=5)
        ep, states = self.states(monkeypatch, a, 4)
        for t in range(1, 4):
            token, _ = a.proj.forward(np.concatenate([self.s_rec, ep.p_rows[t - 1]]))
            assert np.array_equal(states[t], encode_window(a.encoder, [token]))

    def test_different_new_rows_give_different_states(self):
        a = make_agent(n_items=4, pool_size=7, d_rec=2, seed=6)
        ep = sel.run_selection(3, 0, self.s_rec, self.matrix, a, 3, 1.0, 0.1, rng_stream(6))
        other = dataclasses.replace(ep, p_rows=[ep.p_rows[0][::-1]] + ep.p_rows[1:])
        fwd, moved = a.replay([ep]), a.replay([other])
        assert np.array_equal(fwd["states"][0], moved["states"][0])
        assert not np.allclose(fwd["states"][1], moved["states"][1])


class TestRunSelection:
    def setup_method(self):
        rng = rng_stream(7, "matrix")
        self.rows = rng.random((12, 10)) + 0.05
        self.matrix = make_matrix(self.rows)
        self.agent = make_agent(n_items=10, pool_size=8, d_rec=4, seed=8)
        self.s_rec = rng_stream(7, "srec").normal(size=4)
        self.lambda_s, self.lambda_d = 1.0, 0.1

    def test_selected_distinct_and_exclude_self(self):
        rng = rng_stream(0, "run")
        ep = sel.run_selection(
            3, 2, self.s_rec, self.matrix, self.agent, 5, self.lambda_s, self.lambda_d, rng
        )
        assert len(set(ep.selected)) == 5
        assert 3 not in ep.selected

    def test_k1_prefix_mean_is_single_reward(self):
        rng = rng_stream(1, "run")
        ep = sel.run_selection(
            0, 4, self.s_rec, self.matrix, self.agent, 1, self.lambda_s, self.lambda_d, rng
        )
        expected = self.rows[ep.selected[0], 4] + self.lambda_s * ep.sims[0]
        assert ep.rewards[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gains_leave_prefix_means(self):
        rng = rng_stream(2, "run")
        ep = sel.run_selection(
            0, 4, self.s_rec, self.matrix, self.agent, 4, 0.0, 0.0, rng,
        )
        for t in range(4):
            prefix = np.mean([self.rows[v, 4] for v in ep.selected[: t + 1]])
            assert ep.rewards[t] == pytest.approx(prefix, abs=1e-12)

    def test_div_matches_rewardmath_on_prefix(self):
        rng = rng_stream(3, "run")
        ep = sel.run_selection(
            5, 7, self.s_rec, self.matrix, self.agent, 5, self.lambda_s, self.lambda_d, rng
        )
        for t in range(5):
            assert ep.divs[t] == dissimilarity(ep.p_rows[t], ep.p_rows[:t])
            assert ep.sims[t] == cosine(ep.p_u, ep.p_rows[t])

    def test_scripted_replay_of_same_rng_stream(self):
        # windows of one token, of some and of more than the episode holds
        k_sel = 5
        for window, layers in itertools.product((1, 3, k_sel + 1), (0, 2)):
            agent = make_agent(
                n_items=10, pool_size=8, d_rec=4, window=window, seed=8, layers=layers
            )
            args = (2, 3, self.s_rec, self.matrix, agent, k_sel, self.lambda_s, self.lambda_d)
            ep = sel.run_selection(*args, rng_stream(9, "replay", window))
            slots, values, rewards = reference_selection(*args, rng_stream(9, "replay", window))
            assert ep.values == []  # the rollout runs no critic: the update fills the values
            engine.update(agent, [ep], 0.9, lr=1e-3)
            assert (ep.slots, ep.values, ep.rewards) == (slots, values, rewards), (window, layers)
            assert ep.selected == [int(v) for v in ep.pool[slots]]

    def test_frozen_agent_deterministic(self):
        args = (1, 0, self.s_rec, self.matrix, self.agent, 3, self.lambda_s, self.lambda_d)
        a = sel.run_selection(*args, rng_stream(5))
        b = sel.run_selection(*args, rng_stream(5))
        assert a.selected == b.selected
        assert a.rewards == b.rewards

    def test_masked_reselection_probability_zero(self):
        rng = rng_stream(6, "run")
        ep = sel.run_selection(
            0, 1, self.s_rec, self.matrix, self.agent, 6, self.lambda_s, self.lambda_d, rng
        )
        fwd = self.agent.replay([ep])
        avail = np.ones(self.agent.pool_size, dtype=bool)
        for t, slot in enumerate(ep.slots):
            probs = softmax(np.where(avail, fwd["logits"][t], -np.inf))
            for used in ep.slots[:t]:
                assert probs[used] == 0.0
            avail[slot] = False

    def test_zero_preference_rows_score_cosine_zero(self):
        # a world model that predicts r_min for all of a user's items leaves an
        # all-zero row; it must not crash the selection, as target or as candidate
        rows = self.rows[:9].copy()  # the pool holds every other user
        rows[[0, 4]] = 0.0
        matrix = make_matrix(rows)
        for target in (0, 1):
            ep = sel.run_selection(
                target, 2, self.s_rec, matrix, self.agent, 8, self.lambda_s, self.lambda_d,
                rng_stream(4, "zero"),
            )
            if target == 1:
                assert 4 in ep.selected and 0 in ep.selected
            assert np.isfinite(ep.rewards).all()
            for t, user in enumerate(ep.selected):
                if target == 0 or user in (0, 4):
                    assert ep.sims[t] == 0.0

    def test_pool_exhaustion_raises(self):
        small = make_matrix(rng_stream(8, "m").random((4, 10)))
        with pytest.raises(ValueError, match="pool"):
            sel.run_selection(
                0, 0, self.s_rec, small, self.agent, 5, self.lambda_s, self.lambda_d, rng_stream(0)
            )


class TestEpisodeReplay:
    def test_forward_reproduces_rollout(self, monkeypatch):
        rng = rng_stream(11, "setup")
        matrix = make_matrix(rng.random((9, 6)) + 0.1)
        agent = make_agent(n_items=6, pool_size=7, d_rec=3, seed=12)
        args = (4, 2, rng.normal(size=3), matrix, agent, 5, 1.0, 0.1, rng_stream(1))
        ep, states = recorded_states(monkeypatch, agent, *args)
        fwd = agent.replay([ep])
        # the replay sees the rollout's states: the same logits and values, bit for bit
        assert len(states) == 5
        assert np.array_equal(fwd["states"], np.array(states))
        # the update fills the values from its replay: the critic's values of
        # the rollout's states, as a critic pass in the rollout gave them
        critic = [float(agent.critic.forward(s[None, None])[0][0, 0, 0]) for s in states]
        engine.update(agent, [ep], 0.9, lr=1e-3)
        assert fwd["values"][:, 0].tolist() == ep.values == critic

    @staticmethod
    def two_episodes():
        rng = rng_stream(13, "setup")
        matrix = make_matrix(rng.random((10, 6)) + 0.1)
        agent = make_agent(
            n_items=6, pool_size=8, d_rec=3, window=3, seed=14, layers=2, hidden=(8,)
        )
        eps = [
            sel.run_selection(u, 2, rng.normal(size=3), matrix, agent, k, 1.0, 0.1, rng_stream(u))
            for u, k in ((4, 5), (7, 4))
        ]
        return agent, eps

    def test_batched_episodes_do_not_mix(self):
        agent, (a, b) = self.two_episodes()
        fwd = agent.replay([a, b])
        assert len(fwd["logits"]) == 9
        other = dataclasses.replace(
            a, s_rec=a.s_rec * 2.0, p_u=a.p_u + 0.5, p_rows=[r[::-1] for r in a.p_rows]
        )
        moved = agent.replay([other, b])
        assert np.array_equal(fwd["logits"][5:], moved["logits"][5:])
        assert np.array_equal(fwd["values"][5:], moved["values"][5:])
        assert not np.allclose(fwd["logits"][:5], moved["logits"][:5])
        alone = agent.replay([b])
        assert np.array_equal(alone["logits"], fwd["logits"][5:])
        assert np.array_equal(alone["values"], fwd["values"][5:])
        # the update fills each episode's values from its batched replay
        engine.update(agent, [a, b], 0.9, lr=1e-3)
        assert fwd["values"][:, 0].tolist() == a.values + b.values

    def test_batched_backward_gradients(self):
        agent, eps = self.two_episodes()
        rng = rng_stream(16, "w")
        wl, wv = rng.normal(size=(9, 8)), rng.normal(size=(9, 1))

        def loss():
            fwd = agent.replay(eps)
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        def back():
            fwd = agent.replay(eps)
            agent.backward(fwd, eps, wl.copy(), wv.copy())
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        assert gradient_check(agent.blocks(), loss, back) < 1e-4
