import dataclasses
import hashlib
import math

import numpy as np
import pytest

from darlr import dataset as ds
from darlr import worldmodel as wmod
from darlr.nncore import block_state

from conftest import kernels_note

# sha256 of the `wm.ckpt` that `TestMultiColumnCatalogs` trains and saves, recorded
# on OpenBLAS `SkylakeX` kernels; a failure names the kernels in use
TWO_FEATURE_WM_DIGEST = "74dcd311a216a3c98eb8f1d6c6e2749f08cb63ae99bceeb82025771a25b209d9"


@pytest.fixture(scope="module")
def noiseless():
    spec = ds.SyntheticSpec(users=20, items=30, categories=5, noise_sd=0.0, log_density=1.0, seed=11)
    return ds.generate_synthetic(spec)


class TestTraining:
    def test_same_seed_identical_parameters(self, tiny_dataset):
        cfg = wmod.WorldModelConfig(members=2, epochs=3, batch=32, seed=5)
        a = wmod.train_world_model(tiny_dataset, cfg)
        b = wmod.train_world_model(tiny_dataset, cfg)
        sa = block_state(*[m.params for m in a.members])
        sb = block_state(*[m.params for m in b.members])
        assert set(sa) == set(sb)
        for key in sa:
            assert np.array_equal(np.asarray(sa[key]), np.asarray(sb[key])), key

    def test_noiseless_dense_fit(self, noiseless):
        w = wmod.train_world_model(
            noiseless, wmod.WorldModelConfig(members=1, epochs=150, batch=64, lr=3e-3, seed=5)
        )
        pm = wmod.predict_matrix(w)
        rmse = np.sqrt(np.mean((pm.mean - noiseless.truth_matrix) ** 2))
        assert rmse < 0.05

    def test_nll_decreases_first_three_epochs(self, noiseless):
        w = wmod.train_world_model(
            noiseless, wmod.WorldModelConfig(members=1, epochs=4, batch=64, seed=2)
        )
        h = w.nll_history[0]
        assert h[1] < h[0] and h[2] < h[1] and h[3] < h[2]

    def test_divergence_names_epoch(self, noiseless):
        with pytest.raises(wmod.WorldModelDivergence, match="epoch"):
            with np.errstate(all="ignore"):
                wmod.train_world_model(
                    noiseless, wmod.WorldModelConfig(members=1, epochs=3, batch=32, lr=1e160, seed=0)
                )

    def test_empty_log_rejected(self, tiny_dataset):
        empty = ds.Dataset(
            train_log=[], users=tiny_dataset.users, items=tiny_dataset.items,
            truth_matrix=None, r_min=0.0, r_max=1.0,
        )
        with pytest.raises(ValueError, match="empty"):
            wmod.train_world_model(empty, wmod.WorldModelConfig(members=1, epochs=1))


class TestPredictMatrix:
    def test_single_member_average_is_identity(self, tiny_dataset):
        w = wmod.train_world_model(
            tiny_dataset, wmod.WorldModelConfig(members=1, epochs=5, batch=32, seed=1)
        )
        pm = wmod.predict_matrix(w)
        member = w.members[0]
        items = np.arange(tiny_dataset.n_items)
        for u in (0, 7):
            mu, _, _ = member.forward(np.full(tiny_dataset.n_items, u), items)
            assert np.allclose(pm.mean[u], np.clip(mu, 0.0, 1.0), atol=1e-15)

    def test_two_member_mean_and_max_variance(self, tiny_wm):
        pm = wmod.predict_matrix(tiny_wm)
        m0, m1 = tiny_wm.members
        u, i = 3, 4
        mu0, lv0, _ = m0.forward(u, i)
        mu1, lv1, _ = m1.forward(u, i)
        want_mean = 0.5 * (np.clip(mu0[0], 0, 1) + np.clip(mu1[0], 0, 1))
        want_unc = max(math.exp(lv0[0]), math.exp(lv1[0]))
        assert pm.mean[u, i] == pytest.approx(want_mean, abs=1e-12)
        assert pm.static_uncertainty[u, i] == pytest.approx(want_unc, abs=1e-12)

    def test_full_matrix_matches_per_entry_recomputation(self, tiny_wm, tiny_dataset):
        pm = wmod.predict_matrix(tiny_wm)
        entries = [(u, i) for u in range(5) for i in range(5)]
        entries += [(5, 11), (19, 29), (12, 3), (7, 22)]
        for u, i in entries:
            mus, vars_ = [], []
            for member in tiny_wm.members:
                mu, lv, _ = member.forward(u, i)
                mus.append(np.clip(mu[0], 0.0, 1.0))
                vars_.append(math.exp(lv[0]))
            assert pm.mean[u, i] == pytest.approx(np.mean(mus), abs=1e-12)
            assert pm.static_uncertainty[u, i] == pytest.approx(max(vars_), abs=1e-12)

    def test_uncertainty_invariant_to_member_order(self, tiny_wm):
        pm = wmod.predict_matrix(tiny_wm)
        swapped = wmod.WorldModelEnsemble(
            list(reversed(tiny_wm.members)), tiny_wm.users, tiny_wm.items, tiny_wm.manifest
        )
        pm2 = wmod.predict_matrix(swapped)
        assert np.array_equal(pm.static_uncertainty, pm2.static_uncertainty)
        assert np.allclose(pm.mean, pm2.mean, atol=1e-15)

    def test_everything_finite_and_nonnegative(self, tiny_wm):
        pm = wmod.predict_matrix(tiny_wm)
        assert np.all(np.isfinite(pm.mean))
        assert np.all(np.isfinite(pm.static_uncertainty))
        assert np.all(pm.static_uncertainty >= 0)

    def test_member_gradients_match_finite_differences(self, tiny_dataset):
        from darlr.nncore import gradient_check, rng_stream

        member = wmod.WorldModelMember(
            tiny_dataset.users, tiny_dataset.items, d_emb=3, hidden=(4,), seed=6, index=0
        )
        u = np.array([0, 3, 7])
        i = np.array([2, 5, 1])
        wmu = rng_stream(0, "wmu").normal(size=3)
        wlv = rng_stream(0, "wlv").normal(size=3)

        def loss():
            mu, lv, _ = member.forward(u, i)
            return float(mu @ wmu + lv @ wlv)

        def back():
            mu, lv, tape = member.forward(u, i)
            member.backward(tape, wmu, wlv)
            return float(mu @ wmu + lv @ wlv)

        assert gradient_check(member.blocks(), loss, back) < 1e-4


def two_item_stats(n_obs_on_a, n_items=2, alpha=1.0):
    """Behavior stats with n observations, all on item 0."""
    log = np.array([(0, 0, 0.5, step) for step in range(n_obs_on_a)], dtype=ds.LOG_DTYPE)
    d = ds.Dataset(
        train_log=log,
        users=ds.UserCatalog(count=1, features=np.zeros((1, 1), dtype=np.int64)),
        items=ds.ItemCatalog(
            count=n_items,
            primary_category=np.arange(n_items) % 2,
            features=np.zeros((n_items, 1), dtype=np.int64),
        ),
        truth_matrix=None, r_min=0.0, r_max=1.0,
    )
    return ds.behavior_stats(d, k=0, alpha=alpha)


def reference_penalty(stats, pattern, item):
    """Per-action entropy penalty written out: log of the Laplace-smoothed
    behavior probability of `item` after `pattern`, plus log(n_items)."""
    counts = stats.counts_for(pattern)
    p = (counts[item] + stats.alpha) / (counts.sum() + stats.alpha * stats.n_items)
    return math.log(p) + math.log(stats.n_items)


class TestEntropyPenalty:
    def test_uniform_behavior_zero_everywhere(self):
        stats = ds.BehaviorStats(order=0, alpha=1.0, n_items=4)
        stats.item_totals = np.full(4, 25.0)
        for item in range(4):
            assert abs(stats.penalty_vector(())[item]) < 1e-12
        assert abs(wmod.state_entropy_penalty(stats, ())) < 1e-12

    def test_two_item_deterministic_values(self):
        # unsmoothed limit: log 2 on the observed item
        stats = two_item_stats(1, alpha=1e-12)
        assert stats.penalty_vector(())[0] == pytest.approx(math.log(2), abs=1e-9)
        # one observation smoothed with alpha=1: probability 2/3 -> log(4/3)
        stats = two_item_stats(1, alpha=1.0)
        assert stats.penalty_vector(())[0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_unseen_pattern_equals_backoff_value(self, tiny_dataset):
        stats = ds.behavior_stats(tiny_dataset, k=2, alpha=1.0)
        seen_1gram = next(p for p in stats.pattern_counts if len(p) == 1)
        unseen = (99,) + seen_1gram
        for item in (0, 5, 11):
            assert stats.penalty_vector(unseen)[item] == pytest.approx(
                stats.penalty_vector(seen_1gram)[item], abs=1e-15
            )

    def test_concentrated_state_penalty_negative(self):
        stats = two_item_stats(100, n_items=4, alpha=1.0)
        assert wmod.state_entropy_penalty(stats, ()) < -0.2

    def test_table_caches_and_matches_function(self, tiny_dataset):
        stats = ds.behavior_stats(tiny_dataset, k=1, alpha=1.0)
        for pattern in list(stats.pattern_counts)[:3] + [(), (99,)]:
            for item in range(tiny_dataset.n_items):
                assert stats.penalty_vector(pattern)[item] == pytest.approx(
                    reference_penalty(stats, pattern, item), abs=1e-15
                )
            assert stats.penalty_vector(pattern) is stats.penalty_vector(pattern)
        # the cache is no part of the statistics' repr or equality: a copy
        # with an empty cache still equals them
        assert "_penalties" not in repr(stats)
        assert dataclasses.replace(stats) == stats

    def test_beta_expectation_is_state_divergence(self):
        stats = two_item_stats(30, n_items=4, alpha=1.0)
        probs = stats.probs(())
        per_action = np.array([reference_penalty(stats, (), i) for i in range(4)])
        assert wmod.state_entropy_penalty(stats, ()) == pytest.approx(
            -(probs * per_action).sum(), abs=1e-12
        )


class TestCheckpoint:
    def test_round_trip_predictions_bit_exact(self, tiny_wm, tiny_dataset, tmp_path):
        path = tmp_path / "wm.ckpt"
        wmod.save_world_model(tiny_wm, path)
        loaded = wmod.load_world_model(path, tiny_dataset)
        pm_a = wmod.predict_matrix(tiny_wm)
        pm_b = wmod.predict_matrix(loaded)
        assert np.array_equal(pm_a.mean, pm_b.mean)
        assert np.array_equal(pm_a.static_uncertainty, pm_b.static_uncertainty)
        assert loaded.manifest == tiny_wm.manifest

    def test_failed_save_keeps_the_old_checkpoint(self, tiny_wm, tmp_path, monkeypatch):
        path = tmp_path / "wm.ckpt"
        wmod.save_world_model(tiny_wm, path)
        before = path.read_bytes()

        def broken(fh, state):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(wmod, "write_fragment", broken)
        with pytest.raises(OSError, match="disk full"):
            wmod.save_world_model(tiny_wm, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["wm.ckpt"]

    @pytest.mark.parametrize("text", ["not a checkpoint\n", "darlr-wm 1\n"], ids=["junk", "text_v1"])
    def test_bad_magic_rejected(self, tiny_dataset, tmp_path, text):
        path = tmp_path / "junk.ckpt"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a world-model checkpoint"):
            wmod.load_world_model(path, tiny_dataset)


@pytest.fixture(scope="module")
def two_feature():
    """A 9x8 dataset with two feature columns per side, each of its own vocabulary."""
    base = ds.generate_synthetic(
        ds.SyntheticSpec(users=9, items=8, categories=3, log_density=0.5, seed=4)
    )
    users = ds.UserCatalog(
        base.users.count, np.stack([base.users.features[:, 0], np.arange(9) % 6], axis=1)
    )
    items = ds.ItemCatalog(
        base.items.count, base.items.primary_category,
        np.stack([base.items.features[:, 0], (np.arange(8) * 3) % 7], axis=1),
    )
    d = dataclasses.replace(base, users=users, items=items)
    cfg = wmod.WorldModelConfig(members=2, d_emb=3, hidden=(4,), epochs=2, batch=8, seed=13)
    return d, wmod.train_world_model(d, cfg)


class TestMultiColumnCatalogs:
    def test_one_block_per_feature_column(self, two_feature):
        d, wm = two_feature
        shapes = {b.name: b.values.shape for b in wm.members[0].blocks()}
        assert shapes["wm0/emb/user_id"] == (9, 3)
        assert shapes["wm0/emb/user_feat0"] == (int(d.users.features[:, 0].max()) + 1, 3)
        assert shapes["wm0/emb/user_feat1"] == (6, 3)
        assert shapes["wm0/emb/item_id"] == (8, 3)
        assert shapes["wm0/emb/item_cat"] == (int(d.items.primary_category.max()) + 1, 3)
        assert shapes["wm0/emb/item_feat0"] == (int(d.items.features[:, 0].max()) + 1, 3)
        assert shapes["wm0/emb/item_feat1"] == (7, 3)
        assert shapes["wm0/head/L0/W"] == (7 * 3, 4)

    def test_mean_is_pairwise_term_plus_head(self, two_feature):
        d, wm = two_feature
        member = wm.members[0]
        v = {b.name: b.values for b in member.blocks()}
        uf, itf, cat = d.users.features, d.items.features, d.items.primary_category
        for u, i in [(0, 0), (3, 5), (8, 7), (6, 2)]:
            rows = [
                v["wm0/emb/user_id"][u], v["wm0/emb/user_feat0"][uf[u, 0]],
                v["wm0/emb/user_feat1"][uf[u, 1]], v["wm0/emb/item_id"][i],
                v["wm0/emb/item_cat"][cat[i]], v["wm0/emb/item_feat0"][itf[i, 0]],
                v["wm0/emb/item_feat1"][itf[i, 1]],
            ]
            pairwise = sum(rows[f] @ rows[g] for f in range(7) for g in range(f + 1, 7))
            hidden = np.tanh(np.concatenate(rows) @ v["wm0/head/L0/W"] + v["wm0/head/L0/b"])
            head = hidden @ v["wm0/head/L1/W"][:, 0] + v["wm0/head/L1/b"][0]
            mu, _, _ = member.forward(u, i)
            assert mu[0] == pytest.approx(pairwise + head, abs=1e-12)

    def test_checkpoint_round_trip_and_recorded_bytes(self, two_feature, tmp_path):
        d, wm = two_feature
        path = tmp_path / "wm.ckpt"
        wmod.save_world_model(wm, path)
        loaded = wmod.load_world_model(path, d)
        assert np.array_equal(wmod.predict_matrix(loaded).mean, wmod.predict_matrix(wm).mean)
        wmod.save_world_model(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TWO_FEATURE_WM_DIGEST, kernels_note()
