import hashlib

import numpy as np
import pytest

from darlr import dataset as ds
from darlr import engine
from darlr import recommender as rec
from darlr import rewardmath as rm
from darlr import worldmodel as wmod
from darlr.nncore import AdamConfig, read_fragment, rng_stream, softmax, write_fragment


def reports_equal(a, b):
    scalars = ("r_tra", "r_tra_std", "r_each", "r_each_std", "length", "length_std",
               "mcd", "mcd_std", "reward_error", "n_episodes")
    if any(getattr(a, f) != getattr(b, f) for f in scalars):
        return False
    return all(np.array_equal(a.per_episode[k], b.per_episode[k]) for k in a.per_episode)


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def matrix_digest(m):
    h = hashlib.sha256()
    h.update(m.current.tobytes())
    return h.hexdigest()


def smoke_settings(**kw):
    base = dict(
        epochs=1, trajectories_per_epoch=4, eval_episodes=5, k_sel=4,
        candidate_pool=10, seed=1, eval_every=1,
    )
    base.update(kw)
    return engine.TrainSettings(**base)


class TestShapedRewardMatrix:
    def test_write_tracks_previous(self):
        m = engine.ShapedRewardMatrix(np.full((2, 2), 0.4), 0.0, 1.0)
        assert m.write(0, 1, 0.9) == 0.4
        assert m.current[0, 1] == 0.9
        assert m.write(0, 1, 0.1) == 0.9
        assert m.current[0, 1] == pytest.approx(0.1)
        assert np.array_equal(m.current[[0, 1, 1], [0, 0, 1]], np.full(3, 0.4))

    def test_ema_blend(self):
        m = engine.ShapedRewardMatrix(np.full((1, 1), 0.4), 0.0, 1.0)
        assert m.write(0, 0, 0.8, alpha_shape=0.5) == 0.4
        assert m.current[0, 0] == pytest.approx(0.6, abs=1e-15)

    def test_clipped_to_range(self):
        m = engine.ShapedRewardMatrix(np.full((1, 1), 0.4), 0.0, 1.0)
        m.write(0, 0, 5.0)
        assert m.current[0, 0] == 1.0
        m.write(0, 0, -3.0)
        assert m.current[0, 0] == 0.0


class TestEnvStep:
    cats = np.array([1, 2, 3, 4, 5, 2])

    def make_matrix(self):
        return engine.ShapedRewardMatrix(np.full((3, 6), 0.7), 0.0, 1.0)

    def test_category_repeat_within_window(self):
        _, done, reason = engine.env_step(
            0, 5, 5, "train", self.make_matrix(), None, [1, 2, 3, 4], self.cats
        )
        assert done and reason == "category_repeat"

    def test_new_category_continues(self):
        _, done, reason = engine.env_step(
            0, 4, 5, "train", self.make_matrix(), None, [1, 2, 3, 4], self.cats
        )
        assert not done and reason is None

    def test_old_category_outside_window_ok(self):
        # category 2 was seen, but five steps back
        _, done, _ = engine.env_step(
            0, 5, 6, "train", self.make_matrix(), None, [2, 1, 3, 4, 5], self.cats
        )
        assert not done

    def test_max_length_cap(self):
        _, done, reason = engine.env_step(
            0, 4, 30, "train", self.make_matrix(), None, [1, 2, 3, 4], self.cats
        )
        assert done and reason == "max_length"

    def test_train_reads_matrix_eval_reads_truth(self):
        m = self.make_matrix()
        truth = np.full((3, 6), 0.25)
        r_train, _, _ = engine.env_step(1, 2, 1, "train", m, truth, [], self.cats)
        r_eval, _, _ = engine.env_step(1, 2, 1, "eval", m, truth, [], self.cats)
        assert r_train == 0.7 and r_eval == 0.25

    def test_eval_without_truth_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            engine.env_step(0, 0, 1, "eval", self.make_matrix(), None, [], self.cats)


def actor_loss(traj):
    """Reference actor loss: minus the mean of the recorded log-probability
    times the advantage."""
    lp = np.array([tr.logprob for tr in traj.transitions])
    return float(-(lp * traj.advantages).mean())


def critic_loss(traj, gamma):
    """Reference critic loss: the mean squared one-step TD error of the
    recorded values; the last step bootstraps zero."""
    values = np.array([tr.value for tr in traj.transitions])
    rewards = np.array([tr.reward for tr in traj.transitions])
    targets = rewards + gamma * np.append(values[1:], 0.0)
    return float(((values - targets) ** 2).mean())


class TestAdvantages:
    def traj(self, rewards, values):
        # step i takes action i under uniform logits over len(rewards) + 1
        # actions, so its log-probability is -log(actions left)
        t = engine.Trajectory(user=0)
        for i, (r, v) in enumerate(zip(rewards, values)):
            t.transitions.append(
                engine.Transition(
                    action=i, logprob=-np.log(len(rewards) + 1 - i), reward=r, value=v,
                    track_reward=r, parts=None, done=i == len(rewards) - 1,
                    done_reason="max_length" if i == len(rewards) - 1 else None,
                )
            )
        return t

    def head_losses(self, t, gamma):
        """(actor, critic) loss of `_head_grads` on logits and values that
        reproduce the trajectory's recorded log-probabilities and values."""
        n = len(t)
        values = np.array([[tr.value] for tr in t.transitions])
        targets = engine.critic_targets([tr.reward for tr in t.transitions], values[:, 0], gamma)
        _, _, aloss, closs = engine._head_grads(
            np.zeros((n, n + 1)), values, [tr.action for tr in t.transitions],
            np.ones(n + 1, dtype=bool), t.advantages, targets, 1.0,
        )
        return aloss, closs

    def test_single_transition(self):
        t = engine.compute_advantages(self.traj([1.0], [0.4]), gamma=0.9)
        assert t.returns[0] == 1.0
        assert t.advantages[0] == pytest.approx(0.6)

    def test_hand_recurrence(self):
        t = engine.compute_advantages(self.traj([1.0, 1.0], [0.0, 0.0]), gamma=0.5)
        assert np.allclose(t.returns, [1.5, 1.0], atol=0)
        assert np.allclose(t.advantages, [1.5, 1.0], atol=0)

    def test_myopic_limit(self):
        rewards = [0.3, 0.7, 0.1]
        values = [0.2, 0.1, 0.4]
        t = engine.compute_advantages(self.traj(rewards, values), gamma=0.0)
        assert np.allclose(t.advantages, np.array(rewards) - np.array(values), atol=0)

    def test_zero_advantages_zero_actor_loss(self):
        t = self.traj([1.0, 1.0], [0.0, 0.0])
        engine.compute_advantages(t, 0.5)
        t.advantages = np.zeros(2)
        assert actor_loss(t) == 0.0
        assert self.head_losses(t, 0.5)[0] == 0.0

    def test_terminal_critic_loss(self):
        t = self.traj([1.0], [0.0])
        engine.compute_advantages(t, 0.9)
        assert critic_loss(t, 0.9) == pytest.approx(1.0)
        assert self.head_losses(t, 0.9)[1] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def smoke_run(tiny_dataset, tiny_wm):
    settings = smoke_settings(epochs=2, trajectories_per_epoch=5)
    return engine.train(tiny_dataset, tiny_wm, settings)


class TestRollout:
    def make_ctx(self, d, wm, **kw):
        settings = smoke_settings(**kw)
        pm = wmod.predict_matrix(wm)
        matrix = engine.ShapedRewardMatrix(pm.mean, d.r_min, d.r_max)
        stats = ds.behavior_stats(d, settings.entropy_k, settings.laplace_alpha)
        rec_agent, sel_agent = engine.build_agents(d, settings)
        return engine.TrainContext(
            d, matrix, pm.static_uncertainty, wmod.EntropyTable(stats),
            rec_agent, sel_agent, settings, rng_stream(settings.seed, "train"),
        )

    def test_r_static_leaves_matrix_untouched(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="r_static")
        before = matrix_digest(ctx.matrix)
        traj, episodes = engine.rollout_trajectory(ctx, 3)
        assert episodes == []
        assert matrix_digest(ctx.matrix) == before
        assert all(tr.parts.kind == "static" for tr in traj.transitions)

    def test_full_write_back_semantics(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="full", alpha_shape=1.0)
        pm_mean = ctx.matrix.current.copy()
        traj, episodes = engine.rollout_trajectory(ctx, 3)
        tr0, ep0 = traj.transitions[0], episodes[0]
        u, item = 3, tr0.action
        # the first write at (u, item): mean of the reference rewards
        assert tr0.parts.r_hat == pytest.approx(
            np.clip(np.mean(ep0.ref_rewards), 0.0, 1.0), abs=1e-12
        )
        assert tr0.parts.r_prev == pm_mean[u, item]
        # an item is recommended once per trajectory, so this was the only write
        assert ctx.matrix.current[u, item] == tr0.parts.r_hat

    def test_composite_reward_recomputable_from_parts(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="full")
        traj, _ = engine.rollout_trajectory(ctx, 5)
        for tr in traj.transitions:
            want = rm.recommender_reward(
                tr.parts.r_hat, tr.parts.p_u, tr.parts.p_e, ctx.settings.coeffs
            )
            assert tr.reward == pytest.approx(want, abs=1e-12)

    def test_dynamic_uncertainty_replay(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="full")
        traj, _ = engine.rollout_trajectory(ctx, 7)
        for tr in traj.transitions:
            assert tr.parts.kind == "dynamic"
            want = rm.dynamic_uncertainty(
                tr.parts.r_hat, tr.parts.r_prev, tr.parts.mean_sim, tr.parts.mean_div,
                ctx.settings.uncertainty_eps,
            )
            assert tr.parts.p_u == pytest.approx(want, abs=1e-12)

    def test_pu_static_uses_static_table(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="pu_static")
        before = matrix_digest(ctx.matrix)
        traj, episodes = engine.rollout_trajectory(ctx, 2)
        assert matrix_digest(ctx.matrix) != before  # shaping still runs
        for tr in traj.transitions:
            assert tr.parts.kind == "static"
            assert tr.parts.p_u == pytest.approx(
                ctx.static_uncertainty[2, tr.action], abs=1e-12
            )

    def test_rhat_variant_rewards_are_prefix_means(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="rhat")
        _, episodes = engine.rollout_trajectory(ctx, 4)
        ep = episodes[0]
        for t in range(ep.length):
            prefix = np.mean(ep.ref_rewards[: t + 1])
            assert ep.rewards[t] == pytest.approx(prefix, abs=1e-12)

    def test_single_gain_variants_drop_the_other_term(self, tiny_dataset, tiny_wm):
        cs = smoke_settings().coeffs
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="rhat_rs")
        _, episodes = engine.rollout_trajectory(ctx, 6)
        ep = episodes[0]
        for t in range(ep.length):
            prefix = np.mean(ep.ref_rewards[: t + 1])
            assert ep.rewards[t] == pytest.approx(prefix + cs.lambda_s * ep.sims[t], abs=1e-12)
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="rhat_rd")
        _, episodes = engine.rollout_trajectory(ctx, 6)
        ep = episodes[0]
        for t in range(ep.length):
            prefix = np.mean(ep.ref_rewards[: t + 1])
            assert ep.rewards[t] == pytest.approx(prefix + cs.lambda_d * ep.divs[t], abs=1e-12)

    def test_no_item_repeats_and_length_cap(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="r_static")
        for u in range(5):
            traj, _ = engine.rollout_trajectory(ctx, u)
            items = [tr.action for tr in traj.transitions]
            assert len(items) == len(set(items))
            assert len(traj) <= engine.MAX_EPISODE_LEN
            assert traj.transitions[-1].done
            assert traj.transitions[-1].done_reason in ("category_repeat", "max_length")


class TestLosses:
    def test_replay_matches_trajectory_losses(self, tiny_dataset, tiny_wm, smoke_run):
        # fresh rollout with frozen agents: replayed losses equal the
        # reference losses computed from the logged trajectory
        settings = smoke_run.settings
        pm = wmod.predict_matrix(tiny_wm)
        matrix = engine.ShapedRewardMatrix(pm.mean, 0.0, 1.0)
        stats = ds.behavior_stats(tiny_dataset, 1, 1.0)
        ctx = engine.TrainContext(
            tiny_dataset, matrix, pm.static_uncertainty, wmod.EntropyTable(stats),
            smoke_run.rec_agent, smoke_run.sel_agent, settings, rng_stream(99, "t"),
        )
        traj, episodes = engine.rollout_trajectory(ctx, 4)
        engine.compute_advantages(traj, settings.gamma)
        aloss, closs = engine.recommender_losses(
            smoke_run.rec_agent, traj, settings.gamma, accumulate=False
        )
        assert aloss == pytest.approx(actor_loss(traj), abs=1e-10)
        assert closs == pytest.approx(critic_loss(traj, settings.gamma), abs=1e-10)

    def test_recommender_loss_gradients(self):
        from darlr.nncore import gradient_check

        d = ds.generate_synthetic(ds.SyntheticSpec(users=4, items=6, categories=3, log_density=0.5, seed=3))
        settings = engine.TrainSettings(
            epochs=1, trajectories_per_epoch=1, eval_every=0, k_sel=2, candidate_pool=3,
            d_model=6, d_pref=4, d_emb=3, hidden=(8,), seed=2,
        )
        agent, _ = engine.build_agents(d, settings)
        # fixed fake trajectory
        traj = engine.Trajectory(user=1)
        rngs = rng_stream(0, "fake")
        for i, (item, r) in enumerate([(2, 0.5), (0, 0.9), (4, 0.2)]):
            traj.transitions.append(
                engine.Transition(
                    action=item, logprob=-1.0, reward=r,
                    value=float(rngs.normal()), track_reward=r, parts=None,
                    done=i == 2, done_reason="max_length" if i == 2 else None,
                )
            )
        engine.compute_advantages(traj, settings.gamma)

        def loss():
            a, c = engine.recommender_losses(agent, traj, settings.gamma, accumulate=False)
            return a + c

        def back():
            a, c = engine.recommender_losses(agent, traj, settings.gamma, accumulate=True)
            return a + c

        assert gradient_check(agent.blocks(), loss, back) < 1e-4

    def test_selector_loss_gradients(self):
        from darlr import selector as sel
        from darlr.nncore import gradient_check

        rng = rng_stream(5, "m")
        matrix = engine.ShapedRewardMatrix(rng.random((8, 5)) + 0.1, 0.0, 1.0)
        agent = sel.SelectorAgent(5, 4, 3, pool_size=6, window=3, seed=6, hidden=(8,))
        ep = sel.run_selection(
            2, 1, rng.normal(size=4), matrix, agent, 4, rm.PenaltyCoeffs(), rng_stream(1)
        )

        def loss():
            a, c = engine.selector_losses(agent, ep, 0.9, accumulate=False)
            return a + c

        def back():
            a, c = engine.selector_losses(agent, ep, 0.9, accumulate=True)
            return a + c

        assert gradient_check(agent.blocks(), loss, back) < 1e-4

    def test_update_selector_sums_episode_gradients(self, monkeypatch):
        from darlr import selector as sel
        from darlr.nncore import zero_grads

        rng = rng_stream(7, "m")
        matrix = engine.ShapedRewardMatrix(rng.random((9, 5)) + 0.1, 0.0, 1.0)
        agent = sel.SelectorAgent(5, 4, 3, pool_size=6, window=2, seed=8, hidden=(8,))
        episodes = [
            sel.run_selection(u, 1, rng.normal(size=4), matrix, agent, k, rm.PenaltyCoeffs(), rng_stream(u))
            for u, k in ((2, 4), (5, 1), (6, 3))
        ]
        captured = []
        monkeypatch.setattr(
            engine, "adam_step", lambda blocks, cfg: captured.extend(b.grad.copy() for b in blocks)
        )
        engine.update_selector(agent, episodes, 0.9, AdamConfig())
        zero_grads(agent.blocks())
        for ep in episodes:
            engine.selector_losses(agent, ep, 0.9, accumulate=True, scale=1 / 3)
        assert len(captured) == len(agent.blocks())
        for blk, g in zip(agent.blocks(), captured):  # one batch sums in episode order
            assert np.array_equal(g, blk.grad), blk.name

    def test_one_step_positive_advantage_raises_probability(self):
        # linear actor on a constant state: one update must increase pi(a)
        d = ds.generate_synthetic(ds.SyntheticSpec(users=3, items=5, categories=2, log_density=0.6, seed=1))
        settings = engine.TrainSettings(
            epochs=1, trajectories_per_epoch=1, eval_every=0, k_sel=2, candidate_pool=2,
            d_model=4, d_emb=2, hidden=(), seed=3,
        )
        agent, _ = engine.build_agents(d, settings)
        state = rec.init_episode(0, agent)
        target = 2
        logits, _ = agent.actor.forward(state.vec)
        before = softmax(logits)[target]
        traj = engine.Trajectory(user=0)
        traj.transitions.append(
            engine.Transition(
                action=target, logprob=float(np.log(before)),
                reward=1.0, value=0.0, track_reward=1.0, parts=None, done=True,
                done_reason="max_length",
            )
        )
        engine.compute_advantages(traj, 0.99)
        assert traj.advantages[0] > 0
        engine.update_recommender(agent, traj, 0.99, AdamConfig(lr=1e-3))
        state2 = rec.init_episode(0, agent)
        logits2, _ = agent.actor.forward(state2.vec)
        assert softmax(logits2)[target] > before


class TestTrain:
    def test_smoke_liveness(self, smoke_run):
        assert len(smoke_run.metrics_rows) >= 1
        assert smoke_run.steps_total > 0
        for row in smoke_run.metrics_rows:
            for col in engine.METRICS_COLUMNS:
                assert col in row

    def test_determinism_byte_identical_csv(self, tiny_dataset, tiny_wm, tmp_path):
        a = engine.train(tiny_dataset, tiny_wm, smoke_settings(seed=5))
        b = engine.train(tiny_dataset, tiny_wm, smoke_settings(seed=5))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        engine.write_metrics_csv(a.metrics_rows, pa)
        engine.write_metrics_csv(b.metrics_rows, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_failed_metrics_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "m.csv"
        engine.write_metrics_csv([{"epoch": 0}], path, ["epoch"])
        with pytest.raises(KeyError):
            engine.write_metrics_csv([{"epoch": 1}, {}], path, ["epoch"])
        assert path.read_text() == "epoch\n0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_different_seeds_differ(self, tiny_dataset, tiny_wm):
        a = engine.train(tiny_dataset, tiny_wm, smoke_settings(seed=5))
        b = engine.train(tiny_dataset, tiny_wm, smoke_settings(seed=6))
        assert a.metrics_rows != b.metrics_rows

    def test_r_static_matrix_frozen_whole_run(self, tiny_dataset, tiny_wm, monkeypatch):
        def no_write(*args, **kwargs):
            raise AssertionError("r_static wrote to the shaped matrix")

        monkeypatch.setattr(engine.ShapedRewardMatrix, "write", no_write)
        result = engine.train(tiny_dataset, tiny_wm, smoke_settings(variant="r_static"))
        pm = wmod.predict_matrix(tiny_wm)
        assert np.array_equal(result.matrix.current, pm.mean)

    def test_budget_bounds_sampling(self, tiny_dataset, tiny_wm):
        result = engine.train(
            tiny_dataset, tiny_wm,
            smoke_settings(epochs=10, trajectories_per_epoch=50, max_steps=20),
        )
        assert result.steps_total < 20 + engine.MAX_EPISODE_LEN

    def test_parts_log_covers_every_step(self, smoke_run):
        assert len(smoke_run.parts_log) == smoke_run.steps_total
        for entry in smoke_run.parts_log:
            assert {"r_hat", "r_prev", "p_u", "p_e", "mean_sim", "mean_div", "kind"} <= set(entry)

    def test_unknown_settings_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys: variance"):
            engine.config_from_dict(engine.TrainSettings, {"variance": 1.0}, "config")

    def test_from_dict_keeps_values_as_written(self):
        # integer-valued floats stay integers, so config.json and the hash do not change
        s = engine.config_from_dict(
            engine.TrainSettings, {"lambda_s": 5, "lr": 1, "hidden": [16, 8]}, "config"
        )
        assert s == engine.TrainSettings(lambda_s=5, lr=1, hidden=(16, 8))
        assert type(s.to_dict()["lambda_s"]) is int
        assert engine.config_from_dict(engine.TrainSettings, {"hidden": []}, "config").hidden == ()

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            engine.TrainSettings(variant="nope").validate()
        with pytest.raises(ValueError, match="gamma"):
            engine.TrainSettings(gamma=1.5).validate()
        with pytest.raises(ValueError, match="alpha_shape"):
            engine.TrainSettings(alpha_shape=0.0).validate()

    def test_pool_below_k_sel_on_the_data_stops_before_training(
        self, tiny_dataset, tiny_wm, monkeypatch
    ):
        # 20 users give a pool of 19; only variants that run selection need k_sel of them
        calls = []
        monkeypatch.setattr(wmod, "predict_matrix", lambda wm: calls.append(wm))
        settings = smoke_settings(k_sel=20, candidate_pool=50)
        with pytest.raises(ValueError, match=r"k_sel=20 exceeds the candidate pool of 19 users"):
            engine.train(tiny_dataset, tiny_wm, settings)
        assert calls == []
        monkeypatch.undo()
        result = engine.train(tiny_dataset, tiny_wm, smoke_settings(
            variant="r_static", k_sel=20, candidate_pool=50
        ))
        assert result.steps_total > 0

    @pytest.mark.parametrize("episodes", [0, -2])
    def test_eval_episodes_below_one_rejected_when_evaluating(self, episodes):
        with pytest.raises(ValueError, match="eval_episodes"):
            engine.TrainSettings(eval_episodes=episodes).validate()
        engine.TrainSettings(eval_episodes=episodes, eval_every=0).validate()


def ones_truth_dataset():
    d = ds.generate_synthetic(ds.SyntheticSpec(users=6, items=36, categories=6, log_density=0.3, seed=4))
    d.truth_matrix = np.ones_like(d.truth_matrix)
    return d


class TestEvaluate:
    def test_truth_of_ones(self, tiny_wm, tiny_dataset):
        d = ones_truth_dataset()
        settings = smoke_settings()
        agent, _ = engine.build_agents(d, settings)
        report = engine.evaluate(agent, d, None, episodes=10, seed=3)
        assert report.r_each == pytest.approx(1.0, abs=1e-12)
        assert report.r_tra == pytest.approx(report.length, abs=1e-12)

    def test_per_episode_identity_exact(self, tiny_dataset, smoke_run):
        report = engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 20, 7)
        pe = report.per_episode
        assert np.array_equal(pe["r_each"], pe["r_tra"] / pe["length"])
        assert np.allclose(pe["r_tra"], pe["r_each"] * pe["length"], rtol=1e-15)

    def test_majority_category_ratio_example(self):
        assert engine.majority_category_ratio([1, 1, 2, 3]) == 0.5

    def test_single_category_catalog_terminates_at_two(self, smoke_run):
        d = ds.generate_synthetic(ds.SyntheticSpec(users=5, items=8, categories=1, log_density=0.5, seed=9))
        settings = smoke_settings()
        agent, _ = engine.build_agents(d, settings)
        report = engine.evaluate(agent, d, None, episodes=8, seed=1)
        assert report.length == pytest.approx(2.0, abs=0)
        assert report.mcd == pytest.approx(1.0, abs=0)

    def test_seed_deterministic(self, tiny_dataset, smoke_run):
        a = engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 10, 11)
        b = engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 10, 11)
        assert reports_equal(a, b)

    def test_greedy_mode_deterministic_start(self, tiny_dataset, smoke_run):
        a = engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 6, 2, greedy=True)
        b = engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 6, 2, greedy=True)
        assert reports_equal(a, b)


def reference_episode(agent, d, seed, idx, greedy):
    """Evaluation episode `idx` played alone, one encode and one actor call
    per step: the loop that lockstep evaluation must reproduce bit for bit."""
    rng = rng_stream(seed, "eval-episode", idx)
    u = int(rng.integers(d.n_users))
    state = rec.init_episode(u, agent)
    mask = np.ones(d.n_items, dtype=bool)
    cats, visited, total, step = [], [], 0.0, 0
    while True:
        step += 1
        if greedy:
            logits, _ = agent.actor.forward(state.vec)
            item = int(np.argmax(np.where(mask, logits, -np.inf)))
        else:
            item, _ = rec.recommend(state, agent, mask, rng)
        reward, done, _ = engine.env_step(
            u, item, step, "eval", None, d.truth_matrix, cats, d.items.primary_category
        )
        total += reward
        visited.append((u, item))
        cats.append(int(d.items.primary_category[item]))
        mask[item] = False
        if done or not mask.any():
            break
        state = rec.track(state, item, reward, agent)
    return {
        "r_tra": total, "length": step, "r_each": total / step,
        "mcd": engine.majority_category_ratio(cats), "visited": visited,
    }


def reference_reward_error(episodes, matrix, d):
    visited = sorted({pair for ep in episodes for pair in ep["visited"]})
    uu = np.array([p[0] for p in visited])
    ii = np.array([p[1] for p in visited])
    return float(np.abs(matrix.current[uu, ii] - d.truth_matrix[uu, ii]).mean())


# name: (synthetic catalog, or None for tiny_dataset; the length every
# episode must have, or None)
LOCKSTEP_CASES = {
    "tiny": (None, None),
    "catalog_runs_out": (dict(users=6, items=6, categories=6), 6),
    "one_category": (dict(users=5, items=8, categories=1), 2),
    "length_cap": (dict(users=5, items=40, categories=40), 30),
}


def lockstep_case(name, smoke_run, tiny_dataset):
    spec, length = LOCKSTEP_CASES[name]
    if spec is None:
        return smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, length
    d = ds.generate_synthetic(ds.SyntheticSpec(log_density=0.5, seed=9, **spec))
    agent, _ = engine.build_agents(d, smoke_settings())
    current = rng_stream(2, "matrix").uniform(size=d.truth_matrix.shape)
    return agent, d, engine.ShapedRewardMatrix(current, 0.0, 1.0), length


class TestLockstepEvaluation:
    EPISODES = 130  # crosses two block boundaries

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_matches_episodes_played_alone(self, case, greedy, smoke_run, tiny_dataset):
        agent, d, matrix, length = lockstep_case(case, smoke_run, tiny_dataset)
        report = engine.evaluate(agent, d, matrix, self.EPISODES, 5, greedy=greedy)
        ref = [reference_episode(agent, d, 5, i, greedy) for i in range(self.EPISODES)]
        for key in ("r_tra", "length", "r_each", "mcd"):
            assert np.array_equal(report.per_episode[key], np.array([r[key] for r in ref])), key
        assert report.reward_error == reference_reward_error(ref, matrix, d)
        if length is not None:
            assert np.all(report.per_episode["length"] == length)

    def test_eval_episode_is_its_row(self, smoke_run, tiny_dataset):
        agent, d, matrix = smoke_run.rec_agent, tiny_dataset, smoke_run.matrix
        report = engine.evaluate(agent, d, matrix, self.EPISODES, 5)
        for idx in (0, 63, 64, 129):
            episode = engine._eval_episode(agent, d, 5, idx, False)
            assert episode == reference_episode(agent, d, 5, idx, False)
            for key in ("r_tra", "length", "r_each", "mcd"):
                assert episode[key] == report.per_episode[key][idx], key

    def test_block_size_does_not_change_results(self, smoke_run, tiny_dataset, monkeypatch):
        args = (smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 30, 8)
        default = engine.evaluate(*args)
        monkeypatch.setattr(engine, "_EVAL_BLOCK", 7)
        assert reports_equal(engine.evaluate(*args), default)

    @pytest.mark.parametrize("episodes", [0, -3])
    def test_episode_count_below_one_rejected(self, episodes, smoke_run, tiny_dataset):
        with pytest.raises(ValueError, match="at least one episode"):
            engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, episodes, 1)


class TestBundle:
    def test_round_trip_and_resumed_evaluation(self, tiny_dataset, tiny_wm, smoke_run, tmp_path):
        engine.save_bundle(tmp_path / "b", smoke_run, tiny_wm)
        loaded = engine.load_bundle(tmp_path / "b", tiny_dataset)
        # parameters and Adam state restored bit-exactly
        for agent in ("rec_agent", "sel_agent"):
            for a, b in zip(getattr(smoke_run, agent).blocks(), loaded[agent].blocks()):
                for field in ("values", "adam_m", "adam_v"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (a.name, field)
                assert a.step_count == b.step_count, a.name
        assert smoke_run.matrix.r_min == loaded["matrix"].r_min
        assert smoke_run.matrix.r_max == loaded["matrix"].r_max
        assert np.array_equal(smoke_run.matrix.current, loaded["matrix"].current)
        # resumed evaluation identical to the in-memory one
        direct = engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 10, 21)
        resumed = engine.evaluate(loaded["rec_agent"], tiny_dataset, loaded["matrix"], 10, 21)
        assert reports_equal(direct, resumed)
        # saving the same result again writes the same bytes
        engine.save_bundle(tmp_path / "b2", smoke_run, tiny_wm)
        assert dir_bytes(tmp_path / "b") == dir_bytes(tmp_path / "b2")
        with open(tmp_path / "b" / "matrix.frag", "rb") as fh:
            assert sorted(read_fragment(fh)) == ["matrix:current", "matrix:range"]

    def test_save_over_existing_bundle_equals_fresh_save(self, tiny_wm, smoke_run, tmp_path):
        engine.save_bundle(tmp_path / "fresh", smoke_run, tiny_wm)
        target = tmp_path / "over"
        target.mkdir()
        (target / "stale.txt").write_text("left by an earlier run\n")
        (target / "matrix.frag").write_bytes(b"old")
        engine.save_bundle(target, smoke_run, tiny_wm)
        assert dir_bytes(target) == dir_bytes(tmp_path / "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "over"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_target_as_it_was(self, tiny_wm, smoke_run, tmp_path, monkeypatch,
                                                 existing):
        target = tmp_path / "b"
        if existing:
            engine.save_bundle(target, smoke_run, tiny_wm)
            before = dir_bytes(target)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(wmod, "save_world_model", fail)
        with pytest.raises(OSError, match="disk full"):
            engine.save_bundle(target, smoke_run, tiny_wm)
        assert sorted(p.name for p in tmp_path.iterdir()) == (["b"] if existing else [])
        if existing:
            assert dir_bytes(target) == before

    def test_bundle_with_write_history_loads(self, tiny_dataset, tiny_wm, smoke_run, tmp_path):
        # bundles written before the matrix dropped its write history hold
        # two more records; they load to the same matrix and evaluation
        engine.save_bundle(tmp_path / "new", smoke_run, tiny_wm)
        engine.save_bundle(tmp_path / "old", smoke_run, tiny_wm)
        with open(tmp_path / "old" / "matrix.frag", "rb") as fh:
            state = read_fragment(fh)
        state["matrix:previous"] = np.full_like(state["matrix:current"], 0.5)
        state["matrix:write_count"] = np.ones(state["matrix:current"].shape, dtype=np.int64)
        with open(tmp_path / "old" / "matrix.frag", "wb") as fh:
            write_fragment(fh, state)
        new = engine.load_bundle(tmp_path / "new", tiny_dataset)
        old = engine.load_bundle(tmp_path / "old", tiny_dataset)
        assert np.array_equal(old["matrix"].current, new["matrix"].current)
        assert (old["matrix"].r_min, old["matrix"].r_max) == (new["matrix"].r_min, new["matrix"].r_max)
        assert reports_equal(
            engine.evaluate(old["rec_agent"], tiny_dataset, old["matrix"], 10, 21),
            engine.evaluate(new["rec_agent"], tiny_dataset, new["matrix"], 10, 21),
        )

    def test_wrong_dataset_rejected(self, tiny_dataset, tiny_wm, smoke_run, tmp_path):
        engine.save_bundle(tmp_path / "b", smoke_run, tiny_wm)
        other = ds.generate_synthetic(ds.SyntheticSpec(users=20, items=30, seed=99))
        with pytest.raises(ValueError, match="hash"):
            engine.load_bundle(tmp_path / "b", other)
