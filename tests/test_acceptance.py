"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 4 and 5 share a single sweep over three variants and five seeds
on the pinned synthetic environment; everything else runs on small
fixtures. The whole module is deterministic.
"""

import math

import numpy as np
import pytest

from darlr import dataset as ds
from darlr import engine
from darlr import recommender as rec
from darlr import rewardmath as rm
from darlr import selector as sel
from darlr import worldmodel as wmod
from darlr.nncore import (
    Mlp,
    SeqEncoder,
    gradient_check,
    play_episodes,
    rng_stream,
    sample_rows,
    softmax,
)


def verdict(num, name, ok):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# --- criterion 1: formula exactness -----------------------------------------

def gain_cosine(a, b):
    """The selection episode's cosine: `cosine_from_norms` on `np.linalg.norm` norms."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return rm.cosine_from_norms(a, b, np.linalg.norm(a), np.linalg.norm(b))


def gain_dissimilarity(cand, rows):
    """The selection episode's diversity gain: `mean_dissimilarity` on `np.linalg.norm` norms."""
    return rm.mean_dissimilarity(cand, np.linalg.norm(cand), rows, [np.linalg.norm(r) for r in rows])


def test_criterion_1_formula_exactness():
    ok = True
    tol, cos_tol = 1e-12, 1e-9

    # ensemble average / max-variance composition
    ok &= abs(np.mean([0.2, 0.6]) - 0.4) < tol
    ok &= max(0.01, 0.09) == 0.09

    ok &= abs(gain_cosine([1.0, 0.0], [1.0, 0.0]) - 1.0) < cos_tol
    ok &= abs(gain_cosine([1.0, 0.0], [0.0, 1.0])) < cos_tol
    ok &= abs(gain_cosine([1.0, 1.0], [1.0, 0.0]) - 1.0 / math.sqrt(2)) < cos_tol
    row = np.array([0.3, 0.6, 0.1])
    ok &= abs(gain_cosine(row, row) - 1.0) < cos_tol
    ok &= abs(gain_cosine(row, -3.0 * row) + 1.0) < cos_tol

    ok &= gain_dissimilarity(row, []) == 0.0
    ok &= abs(gain_dissimilarity(row, [row])) < cos_tol
    ok &= abs(gain_dissimilarity(np.array([1.0, 0.0]), [np.array([0.0, 1.0])]) - 1.0) < cos_tol

    ok &= rm.intrinsic_reward(0.37, 0.5, 0.5, 0.0, 0.0) == 0.37
    ok &= abs(rm.intrinsic_reward(0.5, 1.0, 0.0, 2.0, 0.0) - 2.5) < tol
    ok &= abs(rm.intrinsic_reward(0.4, 0.8, 0.3, 1.0, 0.1) - 1.23) < tol

    ok &= rm.shape_reward([0.5]) == 0.5
    ok &= abs(rm.shape_reward([0.2, 0.4, 0.6]) - 0.4) < tol

    ok &= rm.dynamic_uncertainty(0.4, 0.4, 0.9, 0.1) == 0.0
    ok &= abs(rm.dynamic_uncertainty(0.8, 0.5, 0.4, 0.2) - 0.5) < tol
    ok &= abs(rm.dynamic_uncertainty(0.8, 0.5, -0.3, 0.1, 1e-6) - 0.3 / 1e-6) < 1e-3

    ok &= rm.recommender_reward(0.8, 9.0, -9.0, 0.0, 0.0) == 0.8
    ok &= abs(rm.recommender_reward(0.8, 0.5, -0.69, 0.1, 0.1) - 0.681) < tol

    verdict(1, "formula exactness", ok)


# --- criterion 2: gradient correctness ----------------------------------

def test_criterion_2_gradient_correctness():
    worst = 0.0

    for seed in range(20):
        m = Mlp("m", [3, 5, 2], seed=seed)
        x = rng_stream(seed, "c2x").normal(size=(1, 3))
        w = rng_stream(seed, "c2w").normal(size=2)

        def loss():
            y, _ = m.forward(x)
            return float(y[0] @ w)

        def back():
            y, t = m.forward(x)
            m.backward(t, w[None])
            return float(y[0] @ w)

        worst = max(worst, gradient_check(m.blocks(), loss, back))

    for seed in range(20):
        e = SeqEncoder("e", 4, window=3, seed=seed)
        windows = rng_stream(seed, "c2t").normal(size=(1, 3, 4))  # one full window
        pad = np.zeros((1, 3), dtype=bool)
        w = rng_stream(seed, "c2s").normal(size=4)

        def loss():
            s, _ = e.forward(windows, pad)
            return float(s[0] @ w)

        def back():
            s, t = e.forward(windows, pad)
            e.backward_batch(t, w[None])
            return float(s[0] @ w)

        worst = max(worst, gradient_check(e.blocks(), loss, back))

    d = ds.generate_synthetic(ds.SyntheticSpec(users=4, items=5, categories=3, log_density=0.6, seed=1))
    for seed in range(20):
        settings = engine.TrainSettings(
            epochs=1, trajectories_per_epoch=1, eval_every=0, k_sel=2, candidate_pool=3,
            d_model=4, d_pref=3, d_emb=2, hidden=(6,), seed=seed,
        )
        agent, sel_agent = engine.build_agents(d, settings)
        rngs = rng_stream(seed, "c2traj")
        traj = engine.Trajectory(user=int(rngs.integers(4)))
        items = rngs.permutation(5)[:3]
        for i, item in enumerate(items):
            reward, value = float(rngs.random()), float(rngs.normal() * 0.3)
            traj.values.append(value)
            traj.transitions.append(
                engine.Transition(
                    action=int(item), reward=reward,
                    track_reward=float(rngs.random()), parts=None,
                    done=i == 2, done_reason="max_length" if i == 2 else None,
                )
            )

        def loss():
            a, c = engine.losses(agent, [traj], 0.97, accumulate=False)
            return a + c

        def back():
            a, c = engine.losses(agent, [traj], 0.97, accumulate=True)
            return a + c

        worst = max(worst, gradient_check(agent.blocks(), loss, back))

        matrix = engine.ShapedRewardMatrix(rngs.random((4, 5)) + 0.1, 0.0, 1.0)
        ep = sel.run_selection(
            traj.user, 1, rngs.normal(size=4), matrix, sel_agent, 2,
            settings.lambda_s, settings.lambda_d, rng_stream(seed, "c2sel"),
        )
        # the rollout runs no critic: fill the values from a replay once, as
        # engine.update does, and hold them fixed through the check
        ep.values = sel_agent.replay([ep])["values"][:, 0].tolist()

        def sloss():
            a, c = engine.losses(sel_agent, [ep], 0.97, accumulate=False)
            return a + c

        def sback():
            a, c = engine.losses(sel_agent, [ep], 0.97, accumulate=True)
            return a + c

        worst = max(worst, gradient_check(sel_agent.blocks(), sloss, sback))

    print(f"[acceptance] criterion 2 max relative gradient error: {worst:.3e}")
    verdict(2, "gradient correctness", worst < 1e-4)


# --- criterion 3: termination protocol ------------------------------------

def test_criterion_3_termination_protocol():
    ok = True
    rng = rng_stream(0, "c3")
    matrix = engine.ShapedRewardMatrix(np.full((2, 50), 0.5), 0.0, 1.0)
    for _ in range(500):
        n_cats = int(rng.integers(1, 8))
        cats = rng.integers(0, n_cats, size=50)
        hist_len = int(rng.integers(0, 10))
        recent = [int(c) for c in rng.integers(0, n_cats, size=hist_len)]
        item = int(rng.integers(50))
        step = int(rng.integers(1, 40))
        _, done, reason = engine.env_step(0, item, step, "train", matrix, None, recent, cats)
        should_repeat = int(cats[item]) in recent[-4:]
        if should_repeat:
            ok &= done and reason == "category_repeat"
        elif step >= 30:
            ok &= done and reason == "max_length"
        else:
            ok &= not done

    # rollouts: hard cap always holds; unique categories exercise the cap
    d_many = ds.generate_synthetic(ds.SyntheticSpec(users=5, items=40, categories=40, log_density=0.3, seed=2))
    d_few = ds.generate_synthetic(ds.SyntheticSpec(users=5, items=40, categories=3, log_density=0.3, seed=2))
    for d in (d_many, d_few):
        settings = engine.TrainSettings(
            epochs=1, trajectories_per_epoch=1, eval_every=0, k_sel=2, candidate_pool=4,
            variant="r_static", seed=0,
        )
        agent, _ = engine.build_agents(d, settings)
        for idx in range(10):
            episode = engine._eval_block(agent, d, idx, [idx], False)[0]
            ok &= episode["length"] <= 30
        if d is d_many:
            ok &= episode["length"] == 30  # nothing can repeat, cap must fire
    verdict(3, "termination protocol", ok)


# --- criteria 4 and 5: shared sweep on the pinned environment ---------------

RQ_ENV = ds.SyntheticSpec(
    users=50, items=40, categories=5, log_density=0.05, noise_sd=0.05, seed=100
)
RQ_SEEDS = (1, 2, 3, 4, 5)
RQ_POLICY = dict(
    epochs=18, trajectories_per_epoch=40, eval_episodes=60, eval_every=18,
    k_sel=5, candidate_pool=100, eval_greedy=True,
    lambda_s=5.0, lambda_d=0.5, lambda_u=0.3, lambda_e=0.1, lr=3e-3,
)


@pytest.fixture(scope="session")
def variant_sweep():
    d = ds.generate_synthetic(RQ_ENV)
    wm = wmod.train_world_model(
        d, wmod.WorldModelConfig(members=2, epochs=50, batch=64, lr=3e-3, seed=0)
    )
    out = {}
    for variant in ("full", "r_static", "rhat"):
        rows = []
        for seed in RQ_SEEDS:
            settings = engine.TrainSettings(variant=variant, seed=seed, **RQ_POLICY)
            result = engine.train(d, wm, settings)
            rows.append(result.metrics_rows[-1])
        out[variant] = rows
    return out


@pytest.mark.slow
def test_criterion_4_dynamic_reward_error(variant_sweep):
    full_err = [row["reward_error"] for row in variant_sweep["full"]]
    static_err = [row["reward_error"] for row in variant_sweep["r_static"]]
    wins = sum(f < s for f, s in zip(full_err, static_err))
    mean_ok = np.mean(full_err) < np.mean(static_err)
    print(
        f"[acceptance] criterion 4 details: wins={wins}/5, "
        f"mean full={np.mean(full_err):.4f}, mean static={np.mean(static_err):.4f}"
    )
    verdict(4, "dynamic-reward error", wins >= 4 and mean_ok)


@pytest.mark.slow
def test_criterion_5_ablation_ordering(variant_sweep):
    means = {v: np.mean([row["R_tra"] for row in rows]) for v, rows in variant_sweep.items()}
    print(
        f"[acceptance] criterion 5 details: R_tra means full={means['full']:.3f}, "
        f"r_static={means['r_static']:.3f}, rhat={means['rhat']:.3f}"
    )
    verdict(5, "ablation ordering", means["full"] >= means["r_static"] and means["full"] >= means["rhat"])


# --- criterion 6: policy-gradient sanity ----------------------------------

def test_criterion_6_policy_gradient_sanity():
    arms, target = 5, 2

    def final_target_prob(seed):
        agent = rec.RecommenderAgent(
            n_users=1, n_items=arms, d_emb=4, d_model=8, window=3, seed=seed, hidden=(16,)
        )
        rng = rng_stream(seed, "bandit")
        for _ in range(500):
            traj = engine.Trajectory(user=0)

            def pull(rows, states, z, t):
                items, _ = sample_rows(z, [rng])
                item = int(items[0])
                r = 1.0 if item == target else 0.0
                traj.transitions.append(
                    engine.Transition(
                        action=item, reward=r, track_reward=r, parts=None, done=True,
                        done_reason="max_length",
                    )
                )
                return items, agent.token_inputs([0], items, [r]), [True]

            play_episodes(agent, agent.token_inputs([0]), np.ones((1, arms), dtype=bool), pull)
            engine.update(agent, [traj], 0.99, lr=0.01)
        final = []

        def look(rows, states, z, t):
            final.append(softmax(z[0])[target])
            return [0], agent.token_inputs([0], [0], [0.0]), [True]

        play_episodes(agent, agent.token_inputs([0]), np.ones((1, arms), dtype=bool), look)
        return final[0]

    probs = [final_target_prob(seed) for seed in range(10)]
    print(f"[acceptance] criterion 6 details: min prob {min(probs):.4f} over 10 seeds")
    verdict(6, "policy-gradient sanity", all(p > 0.9 for p in probs))


# --- criterion 7: entropy penalty endpoints ---------------------------------

def test_criterion_7_entropy_endpoints():
    uniform = ds.BehaviorStats(order=0, alpha=1.0, n_items=4)
    uniform.item_totals = np.full(4, 50.0)
    ok = abs(wmod.state_entropy_penalty(uniform, ())) < 1e-6

    concentrated = ds.BehaviorStats(order=0, alpha=1.0, n_items=4)
    concentrated.item_totals = np.array([100.0, 0.0, 0.0, 0.0])
    ok &= wmod.state_entropy_penalty(concentrated, ()) < -0.2
    verdict(7, "entropy penalty endpoints", ok)


# --- criterion 8: determinism and persistence ------------------------------

def test_criterion_8_determinism_and_persistence(tiny_dataset, tiny_wm, tmp_path):
    settings = engine.TrainSettings(
        epochs=2, trajectories_per_epoch=5, eval_episodes=6, k_sel=4,
        candidate_pool=10, seed=13, eval_every=1,
    )
    a = engine.train(tiny_dataset, tiny_wm, settings)
    b = engine.train(tiny_dataset, tiny_wm, settings)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    engine.write_metrics_csv(a.metrics_rows, pa)
    engine.write_metrics_csv(b.metrics_rows, pb)
    ok = pa.read_bytes() == pb.read_bytes()

    engine.save_bundle(tmp_path / "bundle", a, tiny_wm)
    loaded = engine.load_bundle(tmp_path / "bundle", tiny_dataset)
    for x, y in zip(a.rec_agent.blocks() + a.sel_agent.blocks(),
                    loaded["rec_agent"].blocks() + loaded["sel_agent"].blocks()):
        ok &= bool(np.array_equal(x.values, y.values))
        ok &= bool(np.array_equal(x.adam_m, y.adam_m))
    ok &= bool(np.array_equal(a.matrix.current, loaded["matrix"].current))

    direct = engine.evaluate(a.rec_agent, tiny_dataset, a.matrix, 10, 99)
    resumed = engine.evaluate(loaded["rec_agent"], tiny_dataset, loaded["matrix"], 10, 99)
    ok &= direct.r_tra == resumed.r_tra
    ok &= direct.reward_error == resumed.reward_error
    ok &= bool(np.array_equal(direct.per_episode["r_tra"], resumed.per_episode["r_tra"]))
    verdict(8, "determinism and persistence", ok)


# --- criterion 9: shaping and uncertainty bookkeeping ------------------------

def test_criterion_9_bookkeeping_replay(tiny_dataset, tiny_wm):
    settings = engine.TrainSettings(
        variant="full", epochs=2, trajectories_per_epoch=8, eval_episodes=4,
        k_sel=4, candidate_pool=10, seed=21, eval_every=0,
    )
    result = engine.train(tiny_dataset, tiny_wm, settings)
    mean = wmod.predict_matrix(tiny_wm).mean
    ok = len(result.parts_log) == result.steps_total and result.steps_total > 0
    # walk the writes in order: each one's r_prev is the pair's previous
    # r_hat, or the world-model mean at the pair's first write
    last_r_hat = {}
    for entry in result.parts_log:
        ok &= entry["kind"] == "dynamic"
        want = rm.dynamic_uncertainty(
            entry["r_hat"], entry["r_prev"], entry["mean_sim"], entry["mean_div"],
            settings.uncertainty_eps,
        )
        ok &= entry["p_u"] == want
        pair = (entry["user"], entry["item"])
        ok &= entry["r_prev"] == last_r_hat.get(pair, mean[pair])
        last_r_hat[pair] = entry["r_hat"]
    # the matrix holds each written pair's last r_hat and the mean elsewhere
    expected = mean.copy()
    for pair, r_hat in last_r_hat.items():
        expected[pair] = r_hat
    ok &= bool(np.array_equal(result.matrix.current, expected))
    ok &= len(last_r_hat) < len(result.parts_log)  # some pair is rewritten
    print(f"[acceptance] criterion 9 details: {len(result.parts_log)} writes to "
          f"{len(last_r_hat)} pairs")
    verdict(9, "shaping/uncertainty bookkeeping", ok)
