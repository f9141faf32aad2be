import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from darlr import dataset as ds
from darlr import engine
from darlr import recommender as rec
from darlr import rewardmath as rm
from darlr import selector as sel
from darlr import worldmodel as wmod
from darlr.nncore import (
    play_episodes,
    read_fragment,
    rng_stream,
    sample_rows,
    softmax,
    write_fragment,
)


def reports_equal(a, b):
    scalars = ("r_tra", "r_tra_std", "r_each", "length", "mcd", "reward_error")
    if any(getattr(a, f) != getattr(b, f) for f in scalars):
        return False
    return all(np.array_equal(a.per_episode[k], b.per_episode[k]) for k in a.per_episode)


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def encode_window(encoder, tokens):
    """The state of one left-padded window of `tokens` from the batched encoder."""
    n = len(tokens)
    windows = np.zeros((1, encoder.window, encoder.width))
    windows[0, encoder.window - n :] = tokens
    return encoder.forward(windows, (np.arange(encoder.window) < encoder.window - n)[None])[0][0]


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


class ReferenceTracker:
    """The per-step state tracker that the lockstep player replaced, kept as
    the reference it must reproduce bit for bit: one projection of a one-row
    token input and one encode of the retained window per step."""

    def __init__(self, agent, u):
        self.agent, self.u, self.tokens = agent, u, []
        self.push(np.zeros(agent.d_emb), 0.0)

    def push(self, e_i, reward):
        a = self.agent
        token, _ = a.proj.forward(np.concatenate([a.emb_user.values[self.u], e_i, [float(reward)]]))
        self.tokens = (self.tokens + [token])[-a.window :]
        self.vec = encode_window(a.encoder, self.tokens)

    def track(self, item, reward):
        self.push(self.agent.emb_item.values[item], reward)

    def recommend(self, mask, rng):
        logits, _ = self.agent.actor.forward(self.vec)
        items, probs = sample_rows(np.where(mask, logits, -np.inf)[None], [rng])
        item = int(items[0])
        return item, float(np.log(probs[0, item]))


def start_probs(agent, u):
    """The policy of user u's first step, as the lockstep player computes it."""
    out = []

    def step(rows, states, z, t):
        out.append(softmax(z[0]))
        return [0], agent.token_inputs([u], [0], [0.0]), [True]

    play_episodes(agent, agent.token_inputs([u]), np.ones((1, agent.n_items), dtype=bool), step)
    return out[0]


class TestShapedRewardMatrix:
    def test_write_tracks_previous(self):
        m = engine.ShapedRewardMatrix(np.full((2, 2), 0.4), 0.0, 1.0)
        assert m.write(0, 1, 0.9) == 0.4
        assert m.current[0, 1] == 0.9
        assert m.write(0, 1, 0.1) == 0.9
        assert m.current[0, 1] == pytest.approx(0.1)
        assert np.array_equal(m.current[[0, 1, 1], [0, 0, 1]], np.full(3, 0.4))

    def test_clipped_to_range(self):
        m = engine.ShapedRewardMatrix(np.full((1, 1), 0.4), 0.0, 1.0)
        m.write(0, 0, 5.0)
        assert m.current[0, 0] == 1.0
        m.write(0, 0, -3.0)
        assert m.current[0, 0] == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (9, 5), (50, 40), (300, 257)])
    def test_row_norms_equal_a_fresh_recompute(self, shape):
        # candidate_pool ranks by the cached norms: they must stay the bits
        # of the full axis=1 reduction, all-zero rows included
        rng = rng_stream(3, "norms", *shape)
        current = rng.random(shape)
        current[:: max(1, shape[0] // 3)] = 0.0
        built = np.linalg.norm(current, axis=1)
        m = engine.ShapedRewardMatrix(current, 0.0, 1.0)
        assert np.array_equal(m.row_norms, built)
        for _ in range(400):
            m.write(int(rng.integers(shape[0])), int(rng.integers(shape[1])), rng.uniform(-0.2, 1.2))
        assert np.array_equal(m.row_norms, np.linalg.norm(m.current, axis=1))

    def test_construction_peak_is_a_fraction_of_the_matrix(self):
        # numpy reports its buffers to tracemalloc; a copy of the matrix plus
        # the full-size temporaries of one norm call cost about 3x
        current = rng_stream(4, "peak").random((600, 200))
        tracemalloc.start()
        try:
            m = engine.ShapedRewardMatrix(current, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.current is current
        assert peak <= 0.5 * current.nbytes


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


def reference_advantages(traj, gamma):
    """Each step's discounted return, summed term by term, minus its
    recorded critic value."""
    rewards = traj.rewards
    returns = [sum(gamma**k * r for k, r in enumerate(rewards[t:])) for t in range(len(rewards))]
    return np.array(returns) - np.array(traj.values)


def actor_loss(logprobs, traj, gamma):
    """Reference actor loss: minus the mean of each action's log-probability
    times its advantage."""
    return float(-(np.asarray(logprobs) * reference_advantages(traj, gamma)).mean())


def record_logprobs(monkeypatch):
    """The log-probability of each action the engine samples, in order."""
    logprobs = []

    def sample(z, rngs):
        items, probs = sample_rows(z, rngs)
        logprobs.extend(np.log(probs[np.arange(len(items)), items]).tolist())
        return items, probs

    monkeypatch.setattr(engine, "sample_rows", sample)
    return logprobs


def freeze_updates(monkeypatch):
    """Let an update's Adam step only clear the gradients: the update then
    fills the values of what it is given and leaves the parameters as they
    were."""
    monkeypatch.setattr(engine, "adam_step", lambda params, lr: params.grad.fill(0.0))


def replayed_values(agent, ep):
    """An episode's critic values from a fresh replay of it alone."""
    return agent.replay([ep])["values"][:, 0].tolist()


def critic_loss(traj, gamma):
    """Reference critic loss: the mean squared one-step TD error of the
    recorded values; the last step bootstraps zero."""
    values = np.array(traj.values)
    rewards = np.array(traj.rewards)
    targets = rewards + gamma * np.append(values[1:], 0.0)
    return float(((values - targets) ** 2).mean())


class TestAdvantages:
    def traj(self, rewards, values):
        # step i takes action i under uniform logits over len(rewards) + 1 actions
        steps = [{"item": i, "reward": r, "r_hat": r} for i, r in enumerate(rewards)]
        return engine.Trajectory(user=0, steps=steps, values=list(values))

    def head(self, t, gamma):
        """`_head_grads` on uniform logits and the trajectory's recorded
        rewards and values: (advantages, actor loss, critic loss). The
        advantages are read back from the actor gradient: under uniform
        logits step s takes its action with probability 1 / (n + 1 - s)."""
        n = len(t)
        actions, values = t.actions, t.values
        dlogits, _, aloss, closs = engine._head_grads(
            np.zeros((n, n + 1)), np.array(values)[:, None], actions, np.ones(n + 1, dtype=bool),
            t.rewards, values, gamma, 1.0,
        )
        p = 1.0 / (n + 1 - np.arange(n))
        return -dlogits[np.arange(n), actions] * n / (1.0 - p), aloss, closs

    def test_single_transition(self):
        assert engine.discounted_returns([1.0], 0.9)[0] == 1.0
        assert self.head(self.traj([1.0], [0.4]), 0.9)[0][0] == pytest.approx(0.6)

    def test_hand_recurrence(self):
        assert np.array_equal(engine.discounted_returns([1.0, 1.0], 0.5), [1.5, 1.0])
        advantages = self.head(self.traj([1.0, 1.0], [0.0, 0.0]), 0.5)[0]
        assert advantages == pytest.approx([1.5, 1.0], abs=1e-12)

    def test_myopic_limit(self):
        rewards = [0.3, 0.7, 0.1]
        values = [0.2, 0.1, 0.4]
        advantages = self.head(self.traj(rewards, values), 0.0)[0]
        assert advantages == pytest.approx(np.array(rewards) - np.array(values), abs=1e-12)

    def test_zero_advantages_zero_actor_loss(self):
        # values equal to the discounted returns leave every advantage at zero
        t = self.traj([1.0, 1.0], [1.5, 1.0])
        assert actor_loss(-np.log([3.0, 2.0]), t, 0.5) == 0.0
        assert self.head(t, 0.5)[1] == 0.0

    def test_terminal_critic_loss(self):
        t = self.traj([1.0], [0.0])
        assert critic_loss(t, 0.9) == pytest.approx(1.0)
        assert self.head(t, 0.9)[2] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def smoke_run(tiny_dataset, tiny_wm):
    settings = smoke_settings(epochs=2, trajectories_per_epoch=5)
    return engine.train(tiny_dataset, tiny_wm, settings)


def reference_rollout(ctx, u):
    """`rollout_trajectory` as the per-step loop over `ReferenceTracker` that
    the lockstep player replaced."""
    st, matrix = ctx.settings, ctx.matrix
    gains, kind = engine._VARIANT_GAINS[st.variant]
    item_cats = ctx.dataset.items.primary_category
    state = ReferenceTracker(ctx.rec_agent, u)
    traj, episodes, logprobs = engine.Trajectory(user=u), [], []
    mask = np.ones(ctx.dataset.n_items, dtype=bool)
    recent = []
    while True:
        item, logprob = state.recommend(mask, ctx.rng)
        logprobs.append(logprob)
        if gains is None:
            r_hat = r_prev = float(matrix.current[u, item])
            mean_sim, mean_div = 0.0, 0.0
        else:
            ep = sel.run_selection(
                u, item, state.vec, matrix, ctx.sel_agent, st.k_sel,
                st.lambda_s * gains[0], st.lambda_d * gains[1], ctx.rng,
            )
            episodes.append(ep)
            r_prev = float(matrix.write(u, item, rm.shape_reward(ep.ref_rewards)))
            r_hat = float(matrix.current[u, item])
            mean_sim, mean_div = ep.mean_sim(), ep.mean_div()
        if kind == "static":
            p_u = float(ctx.static_uncertainty[u, item])
        else:
            p_u = rm.dynamic_uncertainty(r_hat, r_prev, mean_sim, mean_div, st.uncertainty_eps)
        p_e = float(ctx.stats.penalty_vector(recent)[item])
        base_r, done, _ = engine.env_step(
            u, item, len(traj) + 1, "train", matrix, None, recent, item_cats
        )
        value, _ = ctx.rec_agent.critic.forward(state.vec)
        traj.values.append(float(value[0]))
        traj.steps.append({
            "user": u, "item": item,
            "reward": rm.recommender_reward(r_hat, p_u, p_e, st.lambda_u, st.lambda_e),
            "r_hat": r_hat, "r_prev": r_prev, "p_u": p_u, "p_e": p_e,
            "mean_sim": mean_sim, "mean_div": mean_div, "kind": kind,
        })
        mask[item] = False
        recent.append(int(item_cats[item]))
        if done or not mask.any():
            return traj, episodes, logprobs
        state.track(item, base_r)


def assert_selection_episodes_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for f in dataclasses.fields(sel.SelectionEpisode):
            u, v = getattr(x, f.name), getattr(y, f.name)
            assert (u is None and v is None) or np.array_equal(u, v), f.name


@pytest.fixture(scope="module")
def own_category_catalog():
    """Eight items, each its own category: every episode runs the catalog
    out at step 8, before the protocol would end it."""
    d = ds.generate_synthetic(
        ds.SyntheticSpec(users=12, items=8, categories=8, log_density=0.5, seed=9)
    )
    wm = wmod.train_world_model(d, wmod.WorldModelConfig(members=1, epochs=2, seed=1))
    return d, wm


class TestRollout:
    def make_ctx(self, d, wm, **kw):
        return engine.start_run(d, wm, smoke_settings(**kw))

    def test_r_static_leaves_matrix_untouched(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="r_static")
        before = matrix_digest(ctx.matrix)
        traj, episodes = engine.rollout_trajectory(ctx, 3)
        assert episodes == []
        assert matrix_digest(ctx.matrix) == before
        assert all(row["kind"] == "static" for row in traj.steps)

    def test_full_write_back_semantics(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="full")
        pm_mean = ctx.matrix.current.copy()
        traj, episodes = engine.rollout_trajectory(ctx, 3)
        row0, ep0 = traj.steps[0], episodes[0]
        u, item = 3, row0["item"]
        # the first write at (u, item): mean of the reference rewards
        assert row0["r_hat"] == pytest.approx(
            np.clip(np.mean(ep0.ref_rewards), 0.0, 1.0), abs=1e-12
        )
        assert row0["r_prev"] == pm_mean[u, item]
        # an item is recommended once per trajectory, so this was the only write
        assert ctx.matrix.current[u, item] == row0["r_hat"]

    def test_composite_reward_recomputable_from_parts(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="full")
        traj, _ = engine.rollout_trajectory(ctx, 5)
        for row in traj.steps:
            want = rm.recommender_reward(
                row["r_hat"], row["p_u"], row["p_e"], ctx.settings.lambda_u, ctx.settings.lambda_e,
            )
            assert row["reward"] == pytest.approx(want, abs=1e-12)

    def test_dynamic_uncertainty_replay(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="full")
        traj, _ = engine.rollout_trajectory(ctx, 7)
        for row in traj.steps:
            assert row["kind"] == "dynamic"
            want = rm.dynamic_uncertainty(
                row["r_hat"], row["r_prev"], row["mean_sim"], row["mean_div"],
                ctx.settings.uncertainty_eps,
            )
            assert row["p_u"] == pytest.approx(want, abs=1e-12)

    def test_pu_static_uses_static_table(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="pu_static")
        before = matrix_digest(ctx.matrix)
        traj, episodes = engine.rollout_trajectory(ctx, 2)
        assert matrix_digest(ctx.matrix) != before  # shaping still runs
        for row in traj.steps:
            assert row["kind"] == "static"
            assert row["p_u"] == pytest.approx(ctx.static_uncertainty[2, row["item"]], abs=1e-12)

    def test_rhat_variant_rewards_are_prefix_means(self, tiny_dataset, tiny_wm):
        ctx = self.make_ctx(tiny_dataset, tiny_wm, variant="rhat")
        _, episodes = engine.rollout_trajectory(ctx, 4)
        ep = episodes[0]
        for t in range(ep.length):
            prefix = np.mean(ep.ref_rewards[: t + 1])
            assert ep.rewards[t] == pytest.approx(prefix, abs=1e-12)

    def test_single_gain_variants_drop_the_other_term(self, tiny_dataset, tiny_wm):
        cs = smoke_settings()
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

    def test_no_item_repeats_and_length_cap(self, tiny_dataset, tiny_wm, own_category_catalog):
        # a trajectory ends at the first step env_step marks done, or where
        # it has spent the catalog; the second catalog only ends the second way
        for (d, wm), spent in (((tiny_dataset, tiny_wm), False), (own_category_catalog, True)):
            ctx = self.make_ctx(d, wm, variant="r_static")
            item_cats = d.items.primary_category
            for u in range(5):
                traj, _ = engine.rollout_trajectory(ctx, u)
                items = traj.actions
                assert len(items) == len(set(items))
                assert len(traj) <= engine.MAX_EPISODE_LEN
                done = [
                    engine.env_step(
                        u, item, t, "train", ctx.matrix, None, item_cats[items[: t - 1]].tolist(), item_cats
                    )[1]
                    for t, item in enumerate(items, 1)
                ]
                assert not any(done[:-1])
                assert done[-1] or len(traj) == d.n_items
                if spent:
                    assert not done[-1] and len(traj) == d.n_items

    @pytest.mark.parametrize("variant,catalog", [
        ("full", False), ("r_static", False), ("pu_static", False), ("full", True),
    ])
    def test_equal_to_the_per_step_loop(
        self, variant, catalog, tiny_dataset, tiny_wm, own_category_catalog, monkeypatch
    ):
        d, wm = own_category_catalog if catalog else (tiny_dataset, tiny_wm)
        ctx, ref_ctx = (self.make_ctx(d, wm, variant=variant) for _ in range(2))
        logprobs = record_logprobs(monkeypatch)
        freeze_updates(monkeypatch)
        gamma = ctx.settings.gamma
        for u in (3, 11):
            logprobs.clear()
            traj, episodes = engine.rollout_trajectory(ctx, u)
            ref, ref_episodes, ref_logprobs = reference_rollout(ref_ctx, u)
            assert_selection_episodes_equal(episodes, ref_episodes)
            # the rollout runs no critic: the updates fill the values from their replays
            assert traj.values == []
            assert all(ep.values == [] for ep in episodes)
            engine.update(ctx.rec_agent, [traj], gamma, lr=1.0)
            engine.update(ctx.sel_agent, episodes, gamma, lr=1.0)
            # actions, log-probabilities, values (those the per-step loop's
            # critic gave) and every step's row, all exact
            assert traj.steps == ref.steps
            assert traj.values == ref.values
            assert logprobs == ref_logprobs
            for ep in episodes:
                assert ep.values == replayed_values(ctx.sel_agent, ep)
            assert (len(episodes) == 0) == (variant == "r_static")
            if catalog:
                assert len(traj) == d.n_items
        assert np.array_equal(ctx.matrix.current, ref_ctx.matrix.current)
        assert ctx.rng.random() == ref_ctx.rng.random()


def selection_batch():
    """A selector and three of its selection episodes, of 4, 1 and 3 picks."""
    rng = rng_stream(7, "m")
    matrix = engine.ShapedRewardMatrix(rng.random((9, 5)) + 0.1, 0.0, 1.0)
    agent = sel.SelectorAgent(5, 4, 3, pool_size=6, window=2, seed=8, hidden=(8,))
    return agent, [
        sel.run_selection(u, 1, rng.normal(size=4), matrix, agent, k, 1.0, 0.1, rng_stream(u))
        for u, k in ((2, 4), (5, 1), (6, 3))
    ]


def trajectory_batch():
    """A recommender and three trajectories of 3, 1 and 4 steps, two of one user."""
    agent = rec.RecommenderAgent(5, 8, 3, 6, window=2, seed=8, hidden=(8,))
    rng = rng_stream(7, "t")
    trajectories = []
    for u, items in ((1, [2, 5, 0]), (3, [4]), (1, [7, 2, 6, 1])):
        traj = engine.Trajectory(user=u)
        for item in items:
            traj.steps.append({"item": item, "reward": float(rng.normal()), "r_hat": float(rng.random())})
        trajectories.append(traj)
    return agent, trajectories


class TestLosses:
    def test_replay_matches_trajectory_losses(self, tiny_dataset, tiny_wm, smoke_run, monkeypatch):
        # fresh rollout with frozen agents: replayed losses equal the
        # reference losses computed from the logged trajectory
        settings = smoke_run.settings
        ctx = dataclasses.replace(
            engine.start_run(tiny_dataset, tiny_wm, settings),
            rec_agent=smoke_run.rec_agent, sel_agent=smoke_run.sel_agent, rng=rng_stream(99, "t"),
        )
        logprobs = record_logprobs(monkeypatch)
        traj, episodes = engine.rollout_trajectory(ctx, 4)
        freeze_updates(monkeypatch)  # the update fills the values the losses hold fixed
        engine.update(smoke_run.rec_agent, [traj], settings.gamma, lr=1.0)
        aloss, closs = engine.losses(
            smoke_run.rec_agent, [traj], settings.gamma, accumulate=False
        )
        assert aloss == pytest.approx(actor_loss(logprobs, traj, settings.gamma), abs=1e-10)
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
        for item, r in [(2, 0.5), (0, 0.9), (4, 0.2)]:
            traj.values.append(float(rngs.normal()))
            traj.steps.append({"item": item, "reward": r, "r_hat": r})

        def loss():
            a, c = engine.losses(agent, [traj], settings.gamma, accumulate=False)
            return a + c

        def back():
            a, c = engine.losses(agent, [traj], settings.gamma, accumulate=True)
            return a + c

        assert gradient_check(agent.blocks(), loss, back) < 1e-4

    def test_selector_loss_gradients(self):
        from darlr import selector as sel
        from darlr.nncore import gradient_check

        rng = rng_stream(5, "m")
        matrix = engine.ShapedRewardMatrix(rng.random((8, 5)) + 0.1, 0.0, 1.0)
        agent = sel.SelectorAgent(5, 4, 3, pool_size=6, window=3, seed=6, hidden=(8,))
        ep = sel.run_selection(
            2, 1, rng.normal(size=4), matrix, agent, 4, 1.0, 0.1, rng_stream(1)
        )
        ep.values = replayed_values(agent, ep)  # as update fills them, then fixed

        def loss():
            a, c = engine.losses(agent, [ep], 0.9, accumulate=False)
            return a + c

        def back():
            a, c = engine.losses(agent, [ep], 0.9, accumulate=True)
            return a + c

        assert gradient_check(agent.blocks(), loss, back) < 1e-4

    @pytest.mark.parametrize("batch", [selection_batch, trajectory_batch], ids=["selector", "recommender"])
    def test_update_sums_episode_gradients(self, batch, monkeypatch):
        from darlr.nncore import zero_grads

        agent, episodes = batch()
        captured = []
        monkeypatch.setattr(
            engine, "adam_step",
            lambda params, lr: captured.extend(b.grad.copy() for b in params.blocks),
        )
        engine.update(agent, episodes, 0.9, lr=1e-3)
        # the update filled each episode's values from its replay: a fresh
        # replay of the episode alone gives them bit for bit
        for ep in episodes:
            assert ep.values == replayed_values(agent, ep)
        zero_grads(agent.blocks())
        for ep in episodes:
            engine.losses(agent, [ep], 0.9, accumulate=True, scale=1 / len(episodes))
        assert len(captured) == len(agent.blocks())
        for blk, g in zip(agent.blocks(), captured):  # one batch sums in episode order
            assert np.array_equal(g, blk.grad), blk.name

    def test_losses_name_unfilled_values(self, tiny_dataset, tiny_wm):
        # episodes straight from the rollout, before an update fills their values
        run = engine.start_run(tiny_dataset, tiny_wm, smoke_settings())
        traj, _ = engine.rollout_trajectory(run, 3)
        rng = rng_stream(5, "m")
        matrix = engine.ShapedRewardMatrix(rng.random((8, 5)) + 0.1, 0.0, 1.0)
        agent = sel.SelectorAgent(5, 4, 3, pool_size=6, window=3, seed=6, hidden=(8,))
        ep = sel.run_selection(2, 1, rng.normal(size=4), matrix, agent, 4, 1.0, 0.1, rng_stream(1))
        for agent, episode, n in ((run.rec_agent, traj, len(traj)), (agent, ep, 4)):
            with pytest.raises(
                ValueError, match=rf"^episode 0: its critic values are not filled \(0 for {n} actions\)"
            ):
                engine.losses(agent, [episode], 0.9)

    def test_one_step_positive_advantage_raises_probability(self):
        # linear actor on a constant state: one update must increase pi(a)
        d = ds.generate_synthetic(ds.SyntheticSpec(users=3, items=5, categories=2, log_density=0.6, seed=1))
        settings = engine.TrainSettings(
            epochs=1, trajectories_per_epoch=1, eval_every=0, k_sel=2, candidate_pool=2,
            d_model=4, d_emb=2, hidden=(), seed=3,
        )
        agent, _ = engine.build_agents(d, settings)
        target = 2
        before = start_probs(agent, 0)[target]
        traj = engine.Trajectory(user=0, steps=[{"item": target, "reward": 1.0, "r_hat": 1.0}])
        engine.update(agent, [traj], 0.99, lr=1e-3)
        # the value the update filled in from its replay left a positive advantage
        assert engine.discounted_returns([1.0], 0.99)[0] > traj.values[0]
        assert start_probs(agent, 0)[target] > before


# a tiny `full` run of two epochs, three trajectories each, for the perfbench probes
PERFBENCH_TINY_TRAIN = (
    "from darlr import dataset as ds, engine, worldmodel as wmod\n"
    "d = ds.generate_synthetic(ds.SyntheticSpec(users=12, items=10, categories=4, seed=5))\n"
    "wm = wmod.train_world_model(d, wmod.WorldModelConfig(members=1, epochs=2, seed=1))\n"
    "run = engine.train(d, wm, engine.TrainSettings(\n"
    "    epochs=2, trajectories_per_epoch=3, eval_episodes=4, k_sel=3, candidate_pool=6,\n"
    "    d_model=8, d_pref=6, d_emb=4, hidden=(8,), seed=1))\n"
)


def run_with_perfbench(code):
    """Run `code` in its own interpreter with perfbench's `tracing` imported,
    because its probes wrap darlr's module globals for good; returns each
    printed line as a list of ints."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    src = str(Path(engine.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nsys.path.insert(0, sys.argv[1])\nimport tracing\n" + code,
         str(bench)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return [[int(v) for v in line.split()] for line in proc.stdout.splitlines()]


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

    def test_r_static_never_steps_the_selector(self, tiny_dataset, tiny_wm):
        settings = smoke_settings(variant="r_static")
        fresh = engine.build_agents(tiny_dataset, settings)[1].params
        agent = engine.train(tiny_dataset, tiny_wm, settings).sel_agent
        # an empty batch of selection episodes is no update at all
        assert engine.update(agent, [], settings.gamma, lr=1e-3) == (0.0, 0.0)
        params = agent.params
        assert params.step_count == 0
        for attr in ("values", "grad", "adam_m", "adam_v"):
            assert np.array_equal(getattr(params, attr), getattr(fresh, attr)), attr

    def test_benchmark_probe_points(self, tiny_dataset, tiny_wm, monkeypatch):
        # perfbench wraps these module globals to count trajectories and steps
        lengths, modes = [], []
        rollout, env_step = engine.rollout_trajectory, engine.env_step

        def counting_rollout(*args, **kwargs):
            traj, episodes = rollout(*args, **kwargs)
            lengths.append(len(traj))
            return traj, episodes

        def counting_env_step(*args, **kwargs):
            modes.append(args[3])
            return env_step(*args, **kwargs)

        monkeypatch.setattr(engine, "rollout_trajectory", counting_rollout)
        monkeypatch.setattr(engine, "env_step", counting_env_step)
        result = engine.train(tiny_dataset, tiny_wm, smoke_settings(epochs=2, trajectories_per_epoch=3))
        assert len(lengths) == 6
        assert sum(lengths) == result.steps_total
        assert modes.count("train") == result.steps_total
        assert set(modes) == {"train", "eval"}

    def test_perfbench_stage_probe_sees_every_step_and_evaluation(self):
        (probed_steps, steps_total), (evaluations, rows) = run_with_perfbench(
            "probe = tracing.StageProbe()\n"
            "probe.install()\n" + PERFBENCH_TINY_TRAIN +
            "print(sum(steps for _, steps in probe.trajectories), run.steps_total)\n"
            "print(len(probe.evaluations), len(run.metrics_rows))\n"
        )
        assert probed_steps == steps_total > 0
        assert evaluations == rows == 2

    def test_perfbench_span_recorder_counts_steps_and_picks(self):
        # the traced stage fails when its env_step count is not the step count
        ((train_steps, picks, steps_total, k_sel),) = run_with_perfbench(
            "recorder = tracing.SpanRecorder()\n"
            "recorder.install()\n" + PERFBENCH_TINY_TRAIN +
            "c = recorder.counts\n"
            "print(c['env_step.train'], c['picks'], run.steps_total, run.settings.k_sel)\n"
        )
        assert train_steps == steps_total > 0
        assert picks == k_sel * steps_total  # a full run selects at every step

    def test_adam_steps_twice_per_trajectory(self, tiny_dataset, tiny_wm, monkeypatch):
        # perfbench counts engine.adam_step through this module global
        stepped = []
        adam_step = engine.adam_step

        def counting_adam_step(params, cfg):
            stepped.append(params.blocks[0].name.split("/")[0])
            return adam_step(params, cfg)

        monkeypatch.setattr(engine, "adam_step", counting_adam_step)
        engine.train(tiny_dataset, tiny_wm, smoke_settings(epochs=2, trajectories_per_epoch=3))
        assert stepped == ["rec", "sel"] * 6

    def test_budget_bounds_sampling(self, tiny_dataset, tiny_wm):
        result = engine.train(
            tiny_dataset, tiny_wm,
            smoke_settings(epochs=10, trajectories_per_epoch=50, max_steps=20),
        )
        assert result.steps_total < 20 + engine.MAX_EPISODE_LEN

    def test_parts_log_covers_every_step(self, tiny_dataset, tiny_wm):
        # the training digest hashes the log's repr: its keys, their order
        # and their value types are part of the output bits on any host
        columns = {
            "epoch": int, "trajectory": int, "step": int, "user": int, "item": int,
            "reward": float, "r_hat": float, "r_prev": float, "p_u": float, "p_e": float,
            "mean_sim": float, "mean_div": float, "kind": str,
        }
        kinds = {v: "static" if v in ("r_static", "pu_static") else "dynamic" for v in engine.VARIANTS}
        for variant in engine.VARIANTS:
            assert engine._VARIANT_GAINS[variant][1] == kinds[variant]
            run = engine.train(tiny_dataset, tiny_wm, smoke_settings(variant=variant, epochs=2, eval_every=0))
            assert len(run.parts_log) == run.steps_total > 0
            for entry in run.parts_log:
                assert list(entry) == list(columns)
                assert {k: type(v) for k, v in entry.items()} == columns, variant
                assert entry["kind"] == kinds[variant]
            # each trajectory's steps count up from 0
            starts = [i for i, e in enumerate(run.parts_log) if e["step"] == 0] + [len(run.parts_log)]
            for lo, hi in zip(starts, starts[1:]):
                assert [e["step"] for e in run.parts_log[lo:hi]] == list(range(hi - lo))

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

    def test_reward_error_matches_np_unique_reference(self, tiny_dataset, smoke_run, monkeypatch):
        played = []
        eval_block = engine._eval_block

        def recording_eval_block(*args):
            played.extend(eval_block(*args))
            return played[-len(args[3]) :]

        monkeypatch.setattr(engine, "_eval_block", recording_eval_block)
        d, matrix = tiny_dataset, smoke_run.matrix
        report = engine.evaluate(smoke_run.rec_agent, d, matrix, 80, 7)
        pairs = np.array([pair for r in played for pair in r["visited"]])
        keys = np.unique(pairs[:, 0] * d.n_items + pairs[:, 1])
        assert len(keys) < len(pairs)  # some episodes visit the same pair
        uu, ii = np.divmod(keys, d.n_items)
        assert report.reward_error == float(np.abs(matrix.current[uu, ii] - d.truth_matrix[uu, ii]).mean())

    def test_evaluation_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call: 1.3 MB in a fresh process
        code = (
            "import sys\n"
            "from darlr import dataset as ds, engine\n"
            "d = ds.generate_synthetic(ds.SyntheticSpec(users=6, items=8, categories=3, seed=1))\n"
            "agent, _ = engine.build_agents(d, engine.TrainSettings(d_model=4, d_emb=2, hidden=(4,)))\n"
            "matrix = engine.ShapedRewardMatrix(d.truth_matrix.copy(), d.r_min, d.r_max)\n"
            "print(engine.evaluate(agent, d, matrix, 5, 1).reward_error)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0.0", "False"]


def reference_episode(agent, d, seed, idx, greedy):
    """Evaluation episode `idx` played alone, one encode and one actor call
    per step: the loop that lockstep evaluation must reproduce bit for bit."""
    rng = rng_stream(seed, "eval-episode", idx)
    u = int(rng.integers(d.n_users))
    state = ReferenceTracker(agent, u)
    mask = np.ones(d.n_items, dtype=bool)
    cats, visited, total, step = [], [], 0.0, 0
    while True:
        step += 1
        if greedy:
            logits, _ = agent.actor.forward(state.vec)
            item = int(np.argmax(np.where(mask, logits, -np.inf)))
        else:
            item, _ = state.recommend(mask, rng)
        reward, done, _ = engine.env_step(
            u, item, step, "eval", None, d.truth_matrix, cats, d.items.primary_category
        )
        total += reward
        visited.append((u, item))
        cats.append(int(d.items.primary_category[item]))
        mask[item] = False
        if done or not mask.any():
            break
        state.track(item, reward)
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


ALONE = {}  # (case, greedy): the reference episodes of TestLockstepEvaluation, each played alone


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
            episode = engine._eval_block(agent, d, 5, [idx], False)[0]
            assert episode == reference_episode(agent, d, 5, idx, False)
            for key in ("r_tra", "length", "r_each", "mcd"):
                assert episode[key] == report.per_episode[key][idx], key

    def test_block_size_does_not_change_results(self, smoke_run, tiny_dataset, monkeypatch):
        args = (smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, 30, 8)
        default = engine.evaluate(*args)
        monkeypatch.setattr(engine, "_EVAL_BLOCK", 7)
        assert reports_equal(engine.evaluate(*args), default)

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("case", ["tiny", "catalog_runs_out"])
    @pytest.mark.parametrize("block", [1, 5, 64, 131])
    def test_refilled_rows_keep_every_bit(self, block, case, greedy, smoke_run, tiny_dataset, monkeypatch):
        # a finished episode's row goes to the next one: no live count changes a bit
        agent, d, matrix, _ = lockstep_case(case, smoke_run, tiny_dataset)
        key = (case, greedy)
        if key not in ALONE:
            ALONE[key] = [reference_episode(agent, d, 5, i, greedy) for i in range(self.EPISODES)]
        ref = ALONE[key]
        monkeypatch.setattr(engine, "_EVAL_BLOCK", block)
        report = engine.evaluate(agent, d, matrix, self.EPISODES, 5, greedy=greedy)
        for name in ("r_tra", "length", "r_each", "mcd"):
            assert np.array_equal(report.per_episode[name], np.array([r[name] for r in ref])), name
        assert report.reward_error == reference_reward_error(ref, matrix, d)

    def test_passes_stay_full_until_the_episodes_run_out(self, smoke_run, tiny_dataset, monkeypatch):
        agent, made, passes = smoke_run.rec_agent, [], []
        monkeypatch.setattr(engine, "_EVAL_BLOCK", 8)
        monkeypatch.setattr(engine, "rng_stream", lambda *a: made.append(a) or rng_stream(*a))
        forward = agent.actor.forward
        monkeypatch.setattr(agent.actor, "forward", lambda x: passes.append((len(x), len(made))) or forward(x))
        engine.evaluate(agent, tiny_dataset, smoke_run.matrix, 40, 3)
        assert len(made) == 40
        for rows, started in passes:
            assert rows == 8 if started < 40 else 1 <= rows <= 8

    def test_streams_are_made_as_episodes_start(self, smoke_run, tiny_dataset, monkeypatch):
        made, at_first_step = [], []
        monkeypatch.setattr(engine, "rng_stream", lambda *a: made.append(a) or rng_stream(*a))
        env_step = engine.env_step
        monkeypatch.setattr(
            engine, "env_step", lambda *a: at_first_step.append(len(made)) or env_step(*a)
        )
        engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, self.EPISODES, 5)
        assert at_first_step[0] == engine._EVAL_BLOCK
        assert made == [(5, "eval-episode", i) for i in range(self.EPISODES)]

    @pytest.mark.parametrize("episodes", [0, -3])
    def test_episode_count_below_one_rejected(self, episodes, smoke_run, tiny_dataset):
        with pytest.raises(ValueError, match="at least one episode"):
            engine.evaluate(smoke_run.rec_agent, tiny_dataset, smoke_run.matrix, episodes, 1)


def count_passes(monkeypatch, agent):
    """Count the forward calls of each of `agent`'s four layers."""
    counts = dict.fromkeys(("proj", "encoder", "actor", "critic"), 0)
    for name in counts:
        forward = getattr(agent, name).forward

        def counted(*args, _name=name, _forward=forward):
            counts[_name] += 1
            return _forward(*args)

        monkeypatch.setattr(getattr(agent, name), "forward", counted)
    return counts


class TestLayerPasses:
    """The lockstep player passes each layer but the critic once per step,
    and each update passes every layer once: the cost shape behind
    perfbench's `selector.proj_per_pick`."""

    def test_selection_episode(self, tiny_matrix, monkeypatch):
        agent = sel.SelectorAgent(30, 4, 3, 10, 3, seed=2, hidden=(6,))
        counts = count_passes(monkeypatch, agent)
        k = 5  # more steps than the window holds
        ep = sel.run_selection(2, 1, np.ones(4), tiny_matrix, agent, k, 1.0, 0.1, rng_stream(2))
        assert ep.length == k
        assert counts == {"proj": k, "encoder": k - 1, "actor": k, "critic": 0}

    def test_training_trajectory(self, tiny_dataset, tiny_wm, monkeypatch):
        run = engine.start_run(tiny_dataset, tiny_wm, smoke_settings(w_rec=2))
        rec_counts = count_passes(monkeypatch, run.rec_agent)
        sel_counts = count_passes(monkeypatch, run.sel_agent)
        traj, episodes = engine.rollout_trajectory(run, 3)
        n, k = len(traj), run.settings.k_sel
        assert n > run.settings.w_rec and len(episodes) == n
        assert rec_counts == {"proj": n, "encoder": n, "actor": n, "critic": 0}
        assert sel_counts == {"proj": n * k, "encoder": n * (k - 1), "actor": n * k, "critic": 0}
        # each update is one batched replay: one pass of each layer, the critic's included
        for counts in (rec_counts, sel_counts):
            counts.update(dict.fromkeys(counts, 0))
        engine.update(run.rec_agent, [traj], run.settings.gamma, lr=1e-3)
        engine.update(run.sel_agent, episodes, run.settings.gamma, lr=1e-3)
        assert rec_counts == sel_counts == {"proj": 1, "encoder": 1, "actor": 1, "critic": 1}

    @pytest.mark.parametrize("size", [1, 9, 64])
    def test_evaluation_block(self, size, smoke_run, tiny_dataset, monkeypatch):
        counts = count_passes(monkeypatch, smoke_run.rec_agent)
        results = engine._eval_block(smoke_run.rec_agent, tiny_dataset, 5, range(size), False)
        steps = max(r["length"] for r in results)
        assert counts == {"proj": steps, "encoder": steps, "actor": steps, "critic": 0}


def assert_views_of_flat_vectors(owner):
    """Each block's four arrays are views into its owner's flat vectors, in
    block order, so that Adam and zero_grads on the vectors reach them."""
    params, lo = owner.params, 0
    for b in owner.blocks():
        for attr in ("values", "grad", "adam_m", "adam_v"):
            arr, flat = getattr(b, attr), getattr(params, attr)
            assert arr.base is flat, (b.name, attr)
            assert arr.ctypes.data == flat.ctypes.data + lo * flat.itemsize, (b.name, attr)
        lo += b.values.size
    assert lo == params.values.size


class TestBundle:
    def test_blocks_alias_flat_vectors_after_train_and_load(
        self, tiny_dataset, tiny_wm, smoke_run, tmp_path
    ):
        engine.save_bundle(tmp_path / "b", smoke_run, tiny_wm)
        loaded = engine.load_bundle(tmp_path / "b", tiny_dataset)
        for owner in (smoke_run.rec_agent, smoke_run.sel_agent, loaded["rec_agent"],
                      loaded["sel_agent"], *tiny_wm.members):
            assert_views_of_flat_vectors(owner)
        assert loaded["rec_agent"].params.step_count == smoke_run.rec_agent.params.step_count == 10

    def test_round_trip_and_resumed_evaluation(self, tiny_dataset, tiny_wm, smoke_run, tmp_path):
        engine.save_bundle(tmp_path / "b", smoke_run, tiny_wm)
        loaded = engine.load_bundle(tmp_path / "b", tiny_dataset)
        # parameters and Adam state restored bit-exactly
        for agent in ("rec_agent", "sel_agent"):
            for a, b in zip(getattr(smoke_run, agent).blocks(), loaded[agent].blocks()):
                for field in ("values", "adam_m", "adam_v"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (a.name, field)
            assert getattr(smoke_run, agent).params.step_count == loaded[agent].params.step_count
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
