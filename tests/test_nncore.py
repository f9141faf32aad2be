import io
import math

import numpy as np
import pytest

from darlr import nncore as nn


def test_rng_stream_stable_and_distinct():
    a = nn.rng_stream(5, "init", "w").random(4)
    b = nn.rng_stream(5, "init", "w").random(4)
    c = nn.rng_stream(5, "init", "v").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestMlp:
    def test_identity_linear_layer(self):
        m = nn.Mlp("m", [2, 2], seed=0)
        m.layers[0].w.values[...] = np.eye(2)
        m.layers[0].b.values[...] = 0.0
        y, _ = m.forward(np.array([1.0, 2.0]))
        assert np.allclose(y, [1.0, 2.0], atol=0)

    def test_zero_weights_zero_bias(self):
        m = nn.Mlp("m", [3, 4, 2], seed=0)
        for blk in m.blocks():
            blk.values[...] = 0.0
        y, _ = m.forward(np.array([1.0, -1.0, 0.5]))
        assert np.all(y == 0.0)

    def test_forward_matches_independent_arithmetic(self):
        # oracle: explicit matmul chain, no Mlp involvement past parameter copies
        m = nn.Mlp("m", [2, 3, 2], seed=3)
        x = np.array([0.5, -0.5])
        w0 = m.layers[0].w.values.copy()
        b0 = m.layers[0].b.values.copy()
        w1 = m.layers[1].w.values.copy()
        b1 = m.layers[1].b.values.copy()
        expected = np.tanh(x @ w0 + b0) @ w1 + b1
        y, _ = m.forward(x)
        assert np.allclose(y, expected, atol=1e-15)

    def test_forward_deterministic(self):
        m = nn.Mlp("m", [4, 8, 3], seed=9)
        x = nn.rng_stream(1, "x").normal(size=4)
        y1, _ = m.forward(x)
        y2, _ = m.forward(x)
        assert np.array_equal(y1, y2)

    def test_batched_forward_matches_rowwise(self):
        m = nn.Mlp("m", [3, 5, 2], seed=4)
        xs = nn.rng_stream(2, "x").normal(size=(6, 3))
        batch, _ = m.forward(xs)
        for i in range(6):
            row, _ = m.forward(xs[i])
            assert np.allclose(batch[i], row, atol=1e-15)

    def test_zero_upstream_gradient(self):
        m = nn.Mlp("m", [3, 4, 2], seed=1)
        y, tape = m.forward(np.ones(3))
        m.backward(tape, np.zeros(2))
        assert all(np.all(b.grad == 0) for b in m.blocks())

    def test_linear_grad_closed_form(self):
        m = nn.Mlp("m", [3, 2], seed=1)
        x = np.array([1.0, 2.0, -1.0])
        dy = np.array([0.5, -0.25])
        _, tape = m.forward(x)
        m.backward(tape, dy)
        assert np.allclose(m.layers[0].w.grad, np.outer(x, dy), atol=0)
        assert np.allclose(m.layers[0].b.grad, dy, atol=0)

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            m = nn.Mlp("m", [3, 4, 2], seed=seed)
            x = nn.rng_stream(seed, "input").normal(size=3)
            dy_fixed = nn.rng_stream(seed, "dy").normal(size=2)

            def loss():
                y, _ = m.forward(x)
                return float(y @ dy_fixed)

            def back():
                y, tape = m.forward(x)
                m.backward(tape, dy_fixed)
                return float(y @ dy_fixed)

            assert nn.gradient_check(m.blocks(), loss, back) < 1e-4

    def test_shape_mismatch_raises(self):
        m = nn.Mlp("m", [3, 2], seed=0)
        with pytest.raises(ValueError, match="width"):
            m.forward(np.ones(4))


class TestSeqEncoder:
    def test_residual_only_is_token_plus_offset(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=5)
        for p in e.layer_params:
            p["wv"].values[...] = 0.0
            p["w2"].values[...] = 0.0
        tok = np.array([0.3, -0.2, 0.8, 0.1])
        s, _ = e.encode([tok])
        assert np.allclose(s, tok + e.pos.values[-1], atol=1e-12)

    def test_permuting_tokens_changes_state(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=6)
        rng = nn.rng_stream(0, "toks")
        a, b, c = rng.normal(size=(3, 4))
        s1, _ = e.encode([a, b, c])
        s2, _ = e.encode([b, a, c])
        assert not np.allclose(s1, s2)

    def test_repeated_tokens_with_zero_offsets_match_single(self):
        e3 = nn.SeqEncoder("e", 4, window=3, seed=7)
        e1 = nn.SeqEncoder("e", 4, window=1, seed=7)
        e3.pos.values[...] = 0.0
        e1.pos.values[...] = 0.0
        tok = np.array([0.4, -0.6, 0.2, 0.9])
        s3, _ = e3.encode([tok, tok, tok])
        s1, _ = e1.encode([tok])
        assert np.allclose(s3, s1, atol=1e-12)

    def test_attention_rows_are_probabilities(self):
        e = nn.SeqEncoder("e", 6, window=4, seed=8, heads=2)
        toks = nn.rng_stream(1, "t").normal(size=(3, 6))
        _, tape = e.encode(list(toks))
        attn = tape["layers"][0]["attn"]
        assert np.all(attn >= 0)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_empty_and_overflow_errors(self):
        e = nn.SeqEncoder("e", 4, window=2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            e.encode([])
        with pytest.raises(ValueError, match="window"):
            e.encode([np.zeros(4)] * 3)

    def test_forward_deterministic(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=2)
        toks = list(nn.rng_stream(3, "t").normal(size=(2, 4)))
        s1, _ = e.encode(toks)
        s2, _ = e.encode(toks)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("heads,layers", [(1, 1), (2, 2)])
    def test_gradients_match_finite_differences(self, heads, layers):
        for seed in range(20):
            e = nn.SeqEncoder("e", 4, window=3, seed=seed, heads=heads, layers=layers)
            toks = list(nn.rng_stream(seed, "toks").normal(size=(2, 4)))
            ds_fixed = nn.rng_stream(seed, "ds").normal(size=4)

            def loss():
                s, _ = e.encode(toks)
                return float(s @ ds_fixed)

            def back():
                s, tape = e.encode(toks)
                e.backward(tape, ds_fixed)
                return float(s @ ds_fixed)

            assert nn.gradient_check(e.blocks(), loss, back) < 1e-4

    def test_token_gradients_match_finite_differences(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=11)
        base = nn.rng_stream(11, "toks").normal(size=(3, 4))
        ds_fixed = nn.rng_stream(11, "ds").normal(size=4)
        s, tape = e.encode(list(base))
        dtoks = e.backward(tape, ds_fixed)
        step = 1e-5
        for j in range(3):
            for i in range(4):
                pert = base.copy()
                pert[j, i] += step
                up, _ = e.encode(list(pert))
                pert[j, i] -= 2 * step
                down, _ = e.encode(list(pert))
                fd = (up @ ds_fixed - down @ ds_fixed) / (2 * step)
                denom = max(abs(fd), abs(dtoks[j][i]), 1e-6)
                assert abs(fd - dtoks[j][i]) / denom < 1e-4


class TestSoftmaxPolicy:
    def test_uniform_logits(self):
        rng = nn.rng_stream(0, "s")
        _, _, probs = nn.softmax_policy(np.zeros(4), rng=rng)
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_single_unmasked_forced(self):
        rng = nn.rng_stream(0, "s")
        mask = np.array([False, True, False])
        action, logprob, probs = nn.softmax_policy(np.array([5.0, -1.0, 2.0]), mask, rng=rng)
        assert action == 1
        assert logprob == 0.0
        assert probs[0] == 0.0 and probs[2] == 0.0

    def test_two_logit_closed_form(self):
        rng = nn.rng_stream(0, "s")
        _, _, probs = nn.softmax_policy(np.array([1.0, 0.0]), rng=rng)
        e = math.e
        assert abs(probs[0] - e / (e + 1)) < 1e-12
        assert abs(probs[1] - 1 / (e + 1)) < 1e-12

    def test_masked_probability_exactly_zero(self):
        rng = nn.rng_stream(1, "s")
        mask = np.array([True, False, True, True])
        for _ in range(50):
            action, _, probs = nn.softmax_policy(np.array([9.0, 99.0, 1.0, 0.0]), mask, rng=rng)
            assert probs[1] == 0.0
            assert action != 1

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="masked"):
            nn.softmax_policy(np.zeros(3), np.zeros(3, dtype=bool), rng=nn.rng_stream(0))

    def test_sampling_reproducible(self):
        logits = np.array([0.3, 1.2, -0.5, 0.0])
        a = [nn.softmax_policy(logits, rng=nn.rng_stream(4, "x"))[0] for _ in range(3)]
        assert len(set(a)) == 1


class TestAdam:
    def test_zero_grad_only_bumps_step(self):
        b = nn.make_block("p", (3,))
        b.values[...] = [1.0, -2.0, 0.5]
        before = b.values.copy()
        nn.adam_step([b], nn.AdamConfig())
        assert np.array_equal(b.values, before)
        assert b.step_count == 1

    def test_first_step_closed_form(self):
        b = nn.make_block("p", (1,))
        b.grad[...] = 1.0
        nn.adam_step([b], nn.AdamConfig(lr=0.001))
        # bias-corrected ratio is 1, so the move is lr up to the eps term
        assert abs(b.values[0] + 0.001) < 1e-10
        assert np.all(b.grad == 0)

    def test_two_steps_match_hand_recurrence(self):
        cfg = nn.AdamConfig(lr=0.01)
        b = nn.make_block("p", (1,))
        g = 0.7
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            x -= cfg.lr * (m / (1 - cfg.beta1**t)) / (math.sqrt(v / (1 - cfg.beta2**t)) + cfg.eps)
            b.grad[...] = g
            nn.adam_step([b], cfg)
        assert abs(b.values[0] - x) < 1e-14

    def test_nonfinite_gradient_names_block(self):
        b = nn.make_block("layer7/bias", (2,))
        b.grad[...] = [np.nan, 0.0]
        with pytest.raises(nn.NonFiniteGradient, match="layer7/bias"):
            nn.adam_step([b], nn.AdamConfig())


class TestFragments:
    def test_round_trip_bit_exact(self):
        rng = nn.rng_stream(0, "frag")
        m = nn.Mlp("m", [3, 5, 2], seed=13)
        for blk in m.blocks():
            blk.adam_m[...] = rng.normal(size=blk.adam_m.shape)
            blk.adam_v[...] = rng.random(size=blk.adam_v.shape)
            blk.step_count = 17
        state = nn.block_state(m.blocks())
        buf = io.BytesIO()
        nn.write_fragment(buf, state)
        buf.seek(0)
        loaded = nn.read_fragment(buf)
        m2 = nn.Mlp("m", [3, 5, 2], seed=99)
        nn.load_block_state(m2.blocks(), loaded)
        for a, b in zip(m.blocks(), m2.blocks()):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.adam_m, b.adam_m)
            assert np.array_equal(a.adam_v, b.adam_v)
            assert a.step_count == b.step_count

    def test_awkward_floats_survive(self):
        vals = np.array([1.0 / 3.0, 1e-300, -1e300, 0.1 + 0.2, 2.0**-52])
        buf = io.BytesIO()
        nn.write_fragment(buf, {"x": vals})
        buf.seek(0)
        assert np.array_equal(nn.read_fragment(buf)["x"], vals)

    def test_int_arrays(self):
        buf = io.BytesIO()
        nn.write_fragment(buf, {"c": np.arange(5, dtype=np.int64), "n": 42})
        buf.seek(0)
        out = nn.read_fragment(buf)
        assert out["n"] == 42
        assert np.array_equal(out["c"], np.arange(5))

    @staticmethod
    def _fragment_bytes():
        buf = io.BytesIO()
        nn.write_fragment(buf, {"c": np.arange(5, dtype=np.int64), "x": np.ones((2, 3)), "n": 7})
        return buf.getvalue()

    @pytest.mark.parametrize("cut", [1, 100, "value"])
    def test_truncated_record_rejected(self, cut):
        raw = self._fragment_bytes()
        if cut == "value":
            # the last record stops between its name and its value
            name = io.BytesIO()
            np.save(name, np.str_("y"))
            raw += name.getvalue()
        else:
            raw = raw[:-cut]
        with pytest.raises(ValueError, match="not a darlr checkpoint fragment"):
            nn.read_fragment(io.BytesIO(raw))

    @pytest.mark.parametrize("tail", [b"\n", b"x", b"\x93NUMPY"])
    def test_trailing_bytes_rejected(self, tail):
        raw = self._fragment_bytes() + tail
        with pytest.raises(ValueError, match="not a darlr checkpoint fragment"):
            nn.read_fragment(io.BytesIO(raw))

    def test_text_format_rejected(self):
        # the text layout written before fragments became .npy records
        old = b"array c i 1 5\n0 1 2 3 4\nint n 7\n"
        with pytest.raises(ValueError, match="not a darlr checkpoint fragment"):
            nn.read_fragment(io.BytesIO(old))

    def test_missing_key_raises(self):
        m = nn.Mlp("m", [2, 2], seed=0)
        with pytest.raises(KeyError):
            nn.load_block_state(m.blocks(), {})
