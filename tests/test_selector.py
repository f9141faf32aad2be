import dataclasses

import numpy as np
import pytest

from darlr import rewardmath as rm
from darlr import selector as sel
from darlr.engine import ShapedRewardMatrix
from darlr.nncore import gradient_check, rng_stream, softmax


def make_matrix(rows):
    return ShapedRewardMatrix(np.asarray(rows, dtype=np.float64), 0.0, 1.0)


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
            sims.append((-rm.cosine(rows[u], rows[v]), v))
        expected = [v for _, v in sorted(sims)][:4]
        assert sel.candidate_pool(u, m, 4).tolist() == expected

    def test_ties_broken_by_ascending_id(self):
        rows = np.tile(np.array([0.2, 0.4, 0.4]), (5, 1))
        m = make_matrix(rows)
        assert sel.candidate_pool(2, m, 4).tolist() == [0, 1, 3, 4]


class TestStates:
    def test_identity_projection_concatenates(self):
        a = make_agent(n_items=3, pool_size=2, d_rec=2, d_pref=3)
        a.proj.w.values[...] = np.eye(5)
        a.proj.b.values[...] = 0.0
        s = sel.init_state(np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]), a)
        assert np.allclose(s, [1.0, 2.0, 0.1, 0.2, 0.3], atol=0)

    def test_zero_inputs_give_projection_bias(self):
        a = make_agent(n_items=3, pool_size=2, d_rec=2, d_pref=3)
        a.proj.b.values[...] = np.arange(5) * 0.1
        s = sel.init_state(np.zeros(2), np.zeros(3), a)
        assert np.allclose(s, np.arange(5) * 0.1, atol=1e-15)

    def test_width_mismatch_rejected(self):
        a = make_agent(n_items=3, pool_size=2)
        with pytest.raises(ValueError, match="width"):
            sel.init_state(np.zeros(99), np.zeros(3), a)

    def test_projection_gradient(self):
        a = make_agent(n_items=3, pool_size=2, d_rec=2, d_pref=3, seed=4)
        x = rng_stream(4, "x").normal(size=5)
        w = rng_stream(4, "w").normal(size=5)

        def loss():
            y, _ = a.proj.forward(x)
            return float(y @ w)

        def back():
            y, t = a.proj.forward(x)
            a.proj.backward(t, w)
            return float(y @ w)

        assert gradient_check(a.proj.blocks(), loss, back) < 1e-4

    def test_window_one_depends_only_on_latest(self):
        a = make_agent(n_items=4, pool_size=3, window=1, seed=5)
        rng = rng_stream(5, "rows")
        ep1 = sel.SelectionEpisode(
            user=0, item=0, s_rec=rng.normal(size=4), p_u=rng.random(4), pool=np.arange(3),
        )
        ep2 = sel.SelectionEpisode(
            user=0, item=0, s_rec=ep1.s_rec, p_u=rng.random(4), pool=np.arange(3),
        )
        newly = rng.random(4)
        ep1.p_rows = [rng.random(4), newly]
        ep2.p_rows = [rng.random(4), newly]
        s1 = sel.advance_state(ep1, newly, a)
        s2 = sel.advance_state(ep2, newly, a)
        assert np.allclose(s1, s2, atol=0)

    def test_different_new_rows_give_different_states(self):
        a = make_agent(n_items=4, pool_size=3, seed=6)
        rng = rng_stream(6, "rows")
        base = dict(user=0, item=0, s_rec=rng.normal(size=4), p_u=rng.random(4), pool=np.arange(3))
        r1, r2 = rng.random(4), rng.random(4)
        ep1 = sel.SelectionEpisode(**base)
        ep1.p_rows = [r1]
        ep2 = sel.SelectionEpisode(**base)
        ep2.p_rows = [r2]
        s1 = sel.advance_state(ep1, r1, a)
        s2 = sel.advance_state(ep2, r2, a)
        assert not np.allclose(s1, s2)


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
            assert ep.divs[t] == rm.diversity_gain(ep.p_rows[t], ep.p_rows[:t])
            assert ep.sims[t] == rm.similarity_gain(ep.p_u, ep.p_rows[t])

    def test_scripted_replay_of_same_rng_stream(self):
        seed_tag = (9, "replay")
        ep = sel.run_selection(
            2, 3, self.s_rec, self.matrix, self.agent, 4, self.lambda_s, self.lambda_d,
            rng_stream(*seed_tag),
        )
        # independent replay: walk the same stream, recompute every quantity,
        # maintaining a fresh partial episode for the state chain
        rng = rng_stream(*seed_tag)
        pool = sel.candidate_pool(2, self.matrix, self.agent.pool_size)
        partial = sel.SelectionEpisode(
            user=2, item=3, s_rec=self.s_rec.copy(), p_u=self.rows[2].copy(), pool=pool
        )
        state = sel.init_state(self.s_rec, self.rows[2], self.agent)
        avail = np.ones(self.agent.pool_size, dtype=bool)
        chosen = []
        for t in range(4):
            logits, _ = self.agent.actor.forward(state)
            z = np.where(avail, logits, -np.inf)
            probs = softmax(z)
            r = rng.random()
            slot = int(np.searchsorted(np.cumsum(probs), r, side="right"))
            chosen.append(int(pool[slot]))
            assert ep.slots[t] == slot
            assert ep.selected[t] == chosen[-1]
            prefix = np.mean([self.rows[v, 3] for v in chosen])
            sim = rm.similarity_gain(self.rows[2], self.rows[chosen[-1]])
            div = rm.diversity_gain(self.rows[chosen[-1]], [self.rows[c] for c in chosen[:-1]])
            want = prefix + self.lambda_s * sim + self.lambda_d * div
            assert ep.rewards[t] == pytest.approx(want, abs=1e-12)
            avail[slot] = False
            partial.p_rows.append(self.rows[chosen[-1]].copy())
            if t < 3:
                state = sel.advance_state(partial, self.rows[chosen[-1]], self.agent)

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
        fwd = sel.episode_forward(self.agent, ep)
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
        logits = []
        forward = agent.actor.forward

        def recording_forward(x):
            out = forward(x)
            logits.append(out[0])
            return out

        monkeypatch.setattr(agent.actor, "forward", recording_forward)
        ep = sel.run_selection(4, 2, rng.normal(size=3), matrix, agent, 5, 1.0, 0.1, rng_stream(1))
        monkeypatch.undo()
        fwd = sel.episode_forward(agent, ep)
        # the replay sees the rollout's states: the same logits and values, bit for bit
        assert len(logits) == 5
        assert np.array_equal(fwd["logits"], np.array(logits))
        assert fwd["values"][:, 0].tolist() == ep.values

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
        fwd = sel.episode_forward(agent, [a, b])
        assert len(fwd["logits"]) == 9
        assert fwd["values"][:, 0].tolist() == a.values + b.values  # the rollout's, exactly
        other = dataclasses.replace(
            a, s_rec=a.s_rec * 2.0, p_u=a.p_u + 0.5, p_rows=[r[::-1] for r in a.p_rows]
        )
        moved = sel.episode_forward(agent, [other, b])
        assert np.array_equal(fwd["logits"][5:], moved["logits"][5:])
        assert np.array_equal(fwd["values"][5:], moved["values"][5:])
        assert not np.allclose(fwd["logits"][:5], moved["logits"][:5])
        alone = sel.episode_forward(agent, b)
        assert np.array_equal(alone["logits"], fwd["logits"][5:])
        assert np.array_equal(alone["values"], fwd["values"][5:])

    def test_batched_backward_gradients(self):
        agent, eps = self.two_episodes()
        rng = rng_stream(16, "w")
        wl, wv = rng.normal(size=(9, 8)), rng.normal(size=(9, 1))

        def loss():
            fwd = sel.episode_forward(agent, eps)
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        def back():
            fwd = sel.episode_forward(agent, eps)
            sel.episode_backward(agent, fwd, wl.copy(), wv.copy())
            return float((fwd["logits"] * wl).sum() + (fwd["values"] * wv).sum())

        assert gradient_check(agent.blocks(), loss, back) < 1e-4
