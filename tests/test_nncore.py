import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from darlr import nncore as nn
from darlr.recommender import RecommenderAgent
from darlr.selector import SelectorAgent
from darlr.worldmodel import WorldModelMember


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
        y, tape = m.forward(np.ones((1, 3)))
        m.backward(tape, np.zeros((1, 2)))
        assert all(np.all(b.grad == 0) for b in m.blocks())

    def test_linear_grad_closed_form(self):
        m = nn.Mlp("m", [3, 2], seed=1)
        x = np.array([1.0, 2.0, -1.0])
        dy = np.array([0.5, -0.25])
        _, tape = m.forward(x[None])
        m.backward(tape, dy[None])
        assert np.allclose(m.layers[0].w.grad, np.outer(x, dy), atol=0)
        assert np.allclose(m.layers[0].b.grad, dy, atol=0)

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            m = nn.Mlp("m", [3, 4, 2], seed=seed)
            x = nn.rng_stream(seed, "input").normal(size=(1, 3))
            dy_fixed = nn.rng_stream(seed, "dy").normal(size=2)

            def loss():
                y, _ = m.forward(x)
                return float(y[0] @ dy_fixed)

            def back():
                y, tape = m.forward(x)
                m.backward(tape, dy_fixed[None])
                return float(y[0] @ dy_fixed)

            assert nn.gradient_check(m.blocks(), loss, back) < 1e-4

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 1, 3)], ids=["1-D", "4-D"])
    def test_backward_of_other_ranks_raises(self, shape):
        m = nn.Mlp("m", [3, 2], seed=1)
        _, tape = m.forward(np.ones(shape))
        with pytest.raises(ValueError, match="2-D or 3-D"):
            m.backward(tape, np.ones(shape[:-1] + (2,)))
        assert all(np.all(b.grad == 0) for b in m.blocks())

    def test_shape_mismatch_raises(self):
        m = nn.Mlp("m", [3, 2], seed=0)
        with pytest.raises(ValueError, match="width"):
            m.forward(np.ones(4))


def encode(e, tokens):
    """One left-padded window of `tokens` through the batched encoder: (state, tape)."""
    n = len(tokens)
    windows = np.zeros((1, e.window, e.width))
    windows[0, e.window - n :] = tokens
    states, tape = e.forward(windows, (np.arange(e.window) < e.window - n)[None])
    return states[0], tape


def backward(e, tape, ds):
    """The batched backward of one window's state gradient `ds`; returns the
    gradients at its tokens, the padded slots left out."""
    return e.backward_batch(tape, ds[None])[0, int(tape["pad"].sum()) :]


class TestSeqEncoder:
    def test_residual_only_is_token_plus_offset(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=5)
        for p in e.layer_params:
            p["wv"].values[...] = 0.0
            p["w2"].values[...] = 0.0
        tok = np.array([0.3, -0.2, 0.8, 0.1])
        s, _ = encode(e, [tok])
        assert np.allclose(s, tok + e.pos.values[-1], atol=1e-12)

    def test_permuting_tokens_changes_state(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=6)
        rng = nn.rng_stream(0, "toks")
        a, b, c = rng.normal(size=(3, 4))
        s1, _ = encode(e, [a, b, c])
        s2, _ = encode(e, [b, a, c])
        assert not np.allclose(s1, s2)

    def test_repeated_tokens_with_zero_offsets_match_single(self):
        e3 = nn.SeqEncoder("e", 4, window=3, seed=7)
        e1 = nn.SeqEncoder("e", 4, window=1, seed=7)
        e3.pos.values[...] = 0.0
        e1.pos.values[...] = 0.0
        tok = np.array([0.4, -0.6, 0.2, 0.9])
        s3, _ = encode(e3, [tok, tok, tok])
        s1, _ = encode(e1, [tok])
        assert np.allclose(s3, s1, atol=1e-12)

    def test_attention_rows_are_probabilities(self):
        # the top layer attends from the output slot alone; a lower layer from every slot
        toks = nn.rng_stream(1, "t").normal(size=(3, 6))
        for layers, shapes in ((1, [(1, 1, 4)]), (2, [(1, 4, 4), (1, 1, 4)])):
            e = nn.SeqEncoder("e", 6, window=4, seed=8, layers=layers)
            _, tape = encode(e, list(toks))
            for lt, shape in zip(tape["layers"], shapes):
                attn = lt["attn"]
                assert attn.shape == shape
                assert np.all(attn >= 0)
                assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_forward_deterministic(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=2)
        toks = list(nn.rng_stream(3, "t").normal(size=(2, 4)))
        s1, _ = encode(e, toks)
        s2, _ = encode(e, toks)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients_match_finite_differences(self, layers):
        for seed in range(20):
            e = nn.SeqEncoder("e", 4, window=3, seed=seed, layers=layers)
            toks = list(nn.rng_stream(seed, "toks").normal(size=(2, 4)))
            ds_fixed = nn.rng_stream(seed, "ds").normal(size=4)

            def loss():
                s, _ = encode(e, toks)
                return float(s @ ds_fixed)

            def back():
                s, tape = encode(e, toks)
                backward(e, tape, ds_fixed)
                return float(s @ ds_fixed)

            assert nn.gradient_check(e.blocks(), loss, back) < 1e-4

    def test_token_gradients_match_finite_differences(self):
        e = nn.SeqEncoder("e", 4, window=3, seed=11)
        base = nn.rng_stream(11, "toks").normal(size=(3, 4))
        ds_fixed = nn.rng_stream(11, "ds").normal(size=4)
        s, tape = encode(e, list(base))
        dtoks = backward(e, tape, ds_fixed)
        step = 1e-5
        for j in range(3):
            for i in range(4):
                pert = base.copy()
                pert[j, i] += step
                up, _ = encode(e, list(pert))
                pert[j, i] -= 2 * step
                down, _ = encode(e, list(pert))
                fd = (up @ ds_fixed - down @ ds_fixed) / (2 * step)
                denom = max(abs(fd), abs(dtoks[j][i]), 1e-6)
                assert abs(fd - dtoks[j][i]) / denom < 1e-4


def reference_window(e, tokens, ds, grads):
    """One window, one step at a time with 2-D arrays: the encoder math as a
    plain per-window loop. Adds the parameter gradients of `ds` at the
    output into `grads`; returns the state and the token gradients."""
    w, d = e.window, e.width
    pad = e.window - len(tokens)
    scale = 1.0 / math.sqrt(d)
    x = np.vstack([np.tile(e.start.values, (pad, 1)), tokens]) + e.pos.values

    def norm(x, g, b):
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        return g * ((x - mu) * inv) + b, (x - mu) * inv, inv

    def norm_back(cache, g, gname, bname, dy):
        xhat, inv = cache
        grads[gname] += (dy * xhat).sum(axis=0)
        grads[bname] += dy.sum(axis=0)
        dxhat = dy * g
        return (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv

    tapes = []
    for li, p in enumerate(e.layer_params):
        v = {k: blk.values for k, blk in p.items()}
        n1, *c1 = norm(x, v["ln1_g"], v["ln1_b"])
        q, k, vv = (n1 @ v[f"w{c}"] + v[f"b{c}"] for c in "qkv")
        attn = nn.softmax(np.einsum("id,jd->ij", q, k) * scale, axis=-1)
        ctx = np.einsum("ij,jd->id", attn, vv)
        x_mid = x + (ctx @ v["wo"] + v["bo"])
        n2, *c2 = norm(x_mid, v["ln2_g"], v["ln2_b"])
        a1 = np.tanh(n2 @ v["w1"] + v["b1"])
        x = x_mid + (a1 @ v["w2"] + v["b2"])
        tapes.append((li, v, n1, c1, q, k, vv, attn, ctx, n2, c2, a1))
    state = x[-1].copy()
    dx = np.zeros((w, d))
    dx[-1] = ds
    for li, v, n1, c1, q, k, vv, attn, ctx, n2, c2, a1 in reversed(tapes):
        def g(name, li=li):
            return f"e/l{li}/{name}"

        grads[g("w2")] += a1.T @ dx
        grads[g("b2")] += dx.sum(axis=0)
        dh1 = (dx @ v["w2"].T) * (1.0 - a1**2)
        grads[g("w1")] += n2.T @ dh1
        grads[g("b1")] += dh1.sum(axis=0)
        dx_mid = dx + norm_back(c2, v["ln2_g"], g("ln2_g"), g("ln2_b"), dh1 @ v["w1"].T)
        grads[g("wo")] += ctx.T @ dx_mid
        grads[g("bo")] += dx_mid.sum(axis=0)
        dctx = dx_mid @ v["wo"].T
        dattn = np.einsum("id,jd->ij", dctx, vv)
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = np.einsum("ij,jd->id", dscores, k) * scale
        dk_ = np.einsum("ij,id->jd", dscores, q) * scale
        dv = np.einsum("ij,id->jd", attn, dctx)
        for c, dy in (("q", dq), ("k", dk_), ("v", dv)):
            grads[g(f"w{c}")] += n1.T @ dy
            grads[g(f"b{c}")] += dy.sum(axis=0)
        dn1 = dq @ v["wq"].T + dk_ @ v["wk"].T + dv @ v["wv"].T
        dx = dx_mid + norm_back(c1, v["ln1_g"], g("ln1_g"), g("ln1_b"), dn1)
    grads["e/pos"] += dx
    grads["e/start"] += dx[:pad].sum(axis=0)
    return state, dx[pad:]


class TestBatchedEncoder:
    LENGTHS = [1, 2, 3, 3, 1, 2, 3, 1, 2, 3]  # more than 8 windows: a pairwise sum would show

    def setup(self, layers):
        e = nn.SeqEncoder("e", 4, window=3, seed=12, layers=layers)
        rng = nn.rng_stream(12, "batch")
        windows = rng.normal(size=(len(self.LENGTHS), 3, 4))  # padded slots hold noise
        pad = np.arange(3) < 3 - np.array(self.LENGTHS)[:, None]
        return e, windows, pad, rng.normal(size=(len(self.LENGTHS), 4))

    @pytest.mark.parametrize("layers", [1, 2])
    def test_forward_matches_single_windows(self, layers):
        e, windows, pad, _ = self.setup(layers)
        states, _ = e.forward(windows, pad)
        for b, n in enumerate(self.LENGTHS):
            s, _ = encode(e, list(windows[b, 3 - n :]))
            assert np.array_equal(states[b], s)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_per_window_reference(self, layers):
        # the batched arithmetic is the per-window arithmetic: equal bits
        e, windows, pad, ds = self.setup(layers)
        for blk in e.blocks():  # move every parameter off its initial value
            blk.values += nn.rng_stream(5, blk.name).normal(size=blk.values.shape) * 0.1
        states, tape = e.forward(windows, pad)
        dwindows = e.backward_batch(tape, ds)
        grads = {blk.name: np.zeros_like(blk.values) for blk in e.blocks()}
        for b, n in enumerate(self.LENGTHS):
            state, dtokens = reference_window(e, windows[b, 3 - n :], ds[b], grads)
            assert np.array_equal(states[b], state)
            assert np.array_equal(dwindows[b, 3 - n :], dtokens)
        for blk in e.blocks():
            assert np.array_equal(blk.grad, grads[blk.name]), blk.name

    @pytest.mark.parametrize("layers", [1, 2])
    def test_backward_matches_summed_single_windows(self, layers):
        # the batch sums its windows' gradients in batch order, so it gives
        # the bits of one backward call per window
        e, windows, pad, ds = self.setup(layers)
        _, tape = e.forward(windows, pad)
        dwindows = e.backward_batch(tape, ds)
        batched = [b.grad.copy() for b in e.blocks()]
        nn.zero_grads(e.blocks())
        for b, n in enumerate(self.LENGTHS):
            _, tape = encode(e, list(windows[b, 3 - n :]))
            assert np.array_equal(dwindows[b, 3 - n :], backward(e, tape, ds[b]))
        for blk, g in zip(e.blocks(), batched):
            assert np.array_equal(g, blk.grad), blk.name

    def test_add_in_order_is_a_running_sum(self):
        # each 1.0 is lost next to 1e16 one at a time, but not in a pairwise sum
        parts = np.array([1e16] + [1.0] * 30 + [-1e16])[:, None]
        grad = np.zeros(1)
        nn.add_in_order(grad, parts)
        assert grad[0] == 0.0
        assert np.add.reduce(parts, axis=0)[0] == 28.0  # a reduce sums one-element rows pairwise
        # from a non-zero start: the running gradient is the first term
        grad = np.array([1e16])
        nn.add_in_order(grad, parts[1:].copy())
        assert grad[0] == 0.0
        rng = nn.rng_stream(3, "one-element")
        for n in (1, 2, 17, 59):
            parts = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            start = rng.normal(size=1) * 1e4
            grad, loop = start.copy(), start.copy()
            for part in parts:
                loop += part
            nn.add_in_order(grad, parts)
            assert np.array_equal(grad, loop), n


def test_batched_encoder_holds_on_haswell_kernels():
    """TestBatchedEncoder again, in a process whose OpenBLAS runs its Haswell
    kernels, where a row's bits depend on its place in a product: the top
    layer's one-slot products must match the per-window reference there too."""
    tests = Path(__file__).resolve().parent
    script = (
        "import sys, pytest\n"
        "from conftest import openblas_core\n"
        "if openblas_core() != 'Haswell':\n"
        "    sys.exit(f'core {openblas_core()}')\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {str(Path(__file__).resolve())!r} + '::TestBatchedEncoder']))\n"
    )
    src = str(Path(nn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, cwd=tests,
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell",
             "PYTHONPATH": os.pathsep.join(filter(None, [str(tests), src, os.environ.get("PYTHONPATH")]))},
    )
    if proc.returncode == 1 and proc.stderr.startswith("core "):
        pytest.skip(f"OpenBLAS did not take the Haswell kernels ({proc.stderr.strip()})")
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSupply:
    """`play_episodes` with a supply hook: episodes take the rows of those that
    ended, and each gets the bits of being played alone."""

    LENGTHS = [1, 5, 2, 7, 3, 1, 4, 6, 2]  # shorter and longer than the window of 3

    def agent(self, kind, layers):
        if kind == "recommender":  # encode_first: every state is encoded
            return RecommenderAgent(4, 9, 3, 5, 3, seed=6, layers=layers, hidden=(6,))
        return SelectorAgent(5, 4, 3, 8, 3, seed=6, layers=layers, hidden=(6,))  # bare first tokens

    def play(self, agent, episodes, capacity):
        """Play `episodes` with at most `capacity` live; per episode, the state
        and masked logits of each step, and the step numbers of each pass."""
        rng = nn.rng_stream(4, "inputs")
        inputs = [rng.normal(size=(n, agent.proj.n_in)) for n in self.LENGTHS]
        n_actions = agent.actor.layers[-1].n_out
        queue, ids, seen, passes = list(episodes), [], {}, []

        def take(k):
            ids.extend(queue[:k])
            new, queue[:k] = queue[:k], []
            first = np.array([inputs[e][0] for e in new]).reshape(len(new), agent.proj.n_in)
            return first, np.ones((len(new), n_actions), dtype=bool)

        def step(rows, states, z, t):
            passes.append(t.tolist())
            actions, nxt, done = [], [], []
            for r, s, zz, n in zip(rows.tolist(), states, z, t.tolist()):
                e = ids[r]
                seen.setdefault(e, []).append((s.copy(), zz.copy()))
                actions.append(int(np.argmax(zz)))
                nxt.append(inputs[e][min(n, self.LENGTHS[e] - 1)])
                done.append(n == self.LENGTHS[e])
            return actions, np.array(nxt), done

        nn.play_episodes(agent, *take(capacity), step, supply=take if len(queue) else None)
        return seen, passes

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("kind", ["recommender", "selector"])
    def test_every_episode_keeps_the_bits_of_being_played_alone(self, kind, layers):
        agent = self.agent(kind, layers)
        alone = {}
        for e in range(len(self.LENGTHS)):
            alone.update(self.play(agent, [e], 1)[0])
        for capacity in (2, 3):
            together, passes = self.play(agent, range(len(self.LENGTHS)), capacity)
            assert max(map(len, passes)) == capacity
            assert any(1 in t and max(t) > 1 for t in passes)  # first steps beside later ones
            assert sorted(together) == sorted(alone)
            for e, steps in alone.items():
                assert len(together[e]) == len(steps) == self.LENGTHS[e]
                for (s, z), (s_ref, z_ref) in zip(together[e], steps):
                    assert np.array_equal(s, s_ref) and np.array_equal(z, z_ref), e


class TestOneCallSums:
    """The one-call sums of the backward pass give the bits of the per-step
    `+=` loops they replace."""

    # 400 and 2000: as many rows as a selector replay passes
    @pytest.mark.parametrize("n", [1, 5, 17, 40, 400, 2000])
    @pytest.mark.parametrize("width", [1, 49, 64])
    @pytest.mark.parametrize("start", [0.0, 1e3])
    def test_linear_backward_of_one_row_steps_is_the_step_loop(self, n, width, start):
        # from a zero gradient, as in every update (the einsum), and from another one
        layer = nn.Linear("l", 64, width, seed=3)
        rng = nn.rng_stream(n, "steps", width)
        x, dy = rng.normal(size=(n, 1, 64)), rng.normal(size=(n, 1, width))
        w, b = start * rng.normal(size=(64, width)), start * rng.normal(size=width)
        layer.w.grad[...], layer.b.grad[...] = w, b
        layer.backward(x, dy)
        for i in range(n):
            w += x[i].T * dy[i]
            b += dy[i, 0]
        assert np.array_equal(layer.w.grad, w)
        assert np.array_equal(layer.b.grad, b)

    @pytest.mark.parametrize("shape", [(17, 49), (40, 3, 64)])
    def test_add_in_order_of_wide_rows_is_the_loop_from_any_gradient(self, shape):
        rng = nn.rng_stream(3, "wide", *shape)
        parts = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        start = rng.normal(size=shape[1:]) * 1e4
        loop = start.copy()
        for part in parts:
            loop += part
        grad = start.copy()
        nn.add_in_order(grad, parts.copy())  # it overwrites the first part
        assert np.array_equal(grad, loop)
        # adding the reduced parts at the end is another order, with other bits
        assert not np.array_equal(start + np.add.reduce(parts, axis=0), loop)


def sample_one(logits, mask=None, rng=None):
    """One row through `sample_rows`, masked entries at -inf; (action, probs)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z if mask is None else np.where(mask, z, -np.inf)
    actions, probs = nn.sample_rows(z[None], [rng])
    return int(actions[0]), probs[0]


class TestSoftmaxPolicy:
    """The masked softmax policy as `sample_rows` draws it, one row at a time."""

    def test_uniform_logits(self):
        _, probs = sample_one(np.zeros(4), rng=nn.rng_stream(0, "s"))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_single_unmasked_forced(self):
        mask = np.array([False, True, False])
        action, probs = sample_one(np.array([5.0, -1.0, 2.0]), mask, nn.rng_stream(0, "s"))
        assert action == 1
        assert probs.tolist() == [0.0, 1.0, 0.0]

    def test_two_logit_closed_form(self):
        _, probs = sample_one(np.array([1.0, 0.0]), rng=nn.rng_stream(0, "s"))
        e = math.e
        assert abs(probs[0] - e / (e + 1)) < 1e-12
        assert abs(probs[1] - 1 / (e + 1)) < 1e-12

    def test_masked_probability_exactly_zero(self):
        rng = nn.rng_stream(1, "s")
        mask = np.array([True, False, True, True])
        for _ in range(50):
            action, probs = sample_one(np.array([9.0, 99.0, 1.0, 0.0]), mask, rng)
            assert probs[1] == 0.0
            assert action != 1

    def test_sampling_reproducible(self):
        logits = np.array([0.3, 1.2, -0.5, 0.0])
        a = [sample_one(logits, rng=nn.rng_stream(4, "x"))[0] for _ in range(3)]
        assert len(set(a)) == 1


def reference_softmax_policy(logits, mask=None, rng=None):
    """The one-row sampler as written before `sample_rows`, kept as the reference."""
    z = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("all actions are masked")
        z = np.where(mask, z, -np.inf)
    probs = nn.softmax(z)
    cdf = np.cumsum(probs)
    r = rng.random()
    action = int(np.searchsorted(cdf, r, side="right"))
    action = min(action, len(probs) - 1)
    while probs[action] == 0.0:
        action -= 1
    return action, float(np.log(probs[action])), probs


class FixedDraw:
    """An rng whose every draw is `r`."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


class TestSampleRows:
    def masked_rows(self, n_rows=40, n=23, seed=0):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(n_rows, n))
        masks = rng.random((n_rows, n)) < 0.5
        masks[np.arange(n_rows), rng.integers(n, size=n_rows)] = True
        masks[0] = False
        masks[0, 7] = True  # one selectable action
        return logits, masks

    def test_rows_match_one_row_reference(self):
        logits, masks = self.masked_rows()
        for draw in range(5):
            rngs = [nn.rng_stream(draw, "row", k) for k in range(len(logits))]
            actions, probs = nn.sample_rows(np.where(masks, logits, -np.inf), rngs)
            for k in range(len(logits)):
                a, _, p = reference_softmax_policy(
                    logits[k], masks[k], nn.rng_stream(draw, "row", k)
                )
                assert actions[k] == a
                assert np.array_equal(probs[k], p)
        assert np.all(probs[~masks] == 0.0)

    def test_one_row_calls_match_reference(self):
        # the selection episode draws one row per call, all from one stream
        logits, masks = self.masked_rows(n_rows=60, seed=1)
        rng, ref_rng = nn.rng_stream(3, "one"), nn.rng_stream(3, "one")
        for row, mask in zip(logits, masks):
            for m in (mask, None):
                a, p = sample_one(row, m, rng)
                ra, _, rp = reference_softmax_policy(row, m, rng=ref_rng)
                assert a == ra
                assert np.array_equal(p, rp)

    def test_draw_on_a_cdf_entry_takes_the_next_action(self):
        # side="right": a draw equal to cdf[k] picks k + 1, never a masked
        # leading entry whose cdf is still zero
        logits = np.zeros((2, 4))
        mask = np.array([[True] * 4, [False, True, True, True]])
        draws = [FixedDraw(0.5), FixedDraw(0.0)]
        actions, _ = nn.sample_rows(np.where(mask, logits, -np.inf), draws)
        refs = [reference_softmax_policy(logits[k], mask[k], draws[k])[0] for k in range(2)]
        assert actions.tolist() == refs == [2, 1]

    def test_forced_walk_back(self):
        # the largest draw lies past a cdf that sums to just under one, so the
        # pick lands on the masked last entry and walks back over both
        r = np.nextafter(1.0, 0.0)
        rng = np.random.default_rng(5)
        mask = np.array([True, True, True, True, False, False])
        for _ in range(1000):
            logits = rng.normal(size=6)
            if np.cumsum(nn.softmax(np.where(mask, logits, -np.inf)))[-1] <= r:
                break
        else:
            pytest.fail("no logits whose cdf ends below the largest draw")
        ref, _, _ = reference_softmax_policy(logits, mask, FixedDraw(r))
        assert ref == 3
        actions, _ = nn.sample_rows(
            np.where(mask, np.stack([logits, logits[::-1]]), -np.inf), [FixedDraw(r), FixedDraw(0.0)]
        )
        assert actions[0] == 3
        assert actions[1] == reference_softmax_policy(logits[::-1], mask, FixedDraw(0.0))[0]
        assert sample_one(logits, mask, FixedDraw(r))[0] == 3


class TestAdam:
    def test_zero_grad_only_bumps_step(self):
        b = nn.make_block("p", (3,))
        b.values[...] = [1.0, -2.0, 0.5]
        params = nn.ParamSet([b])
        before = b.values.copy()
        nn.adam_step(params, 1e-3)
        assert np.array_equal(b.values, before)
        assert params.step_count == 1

    def test_first_step_closed_form(self):
        b = nn.make_block("p", (1,))
        b.grad[...] = 1.0
        nn.adam_step(nn.ParamSet([b]), 0.001)
        # bias-corrected ratio is 1, so the move is lr up to the eps term
        assert abs(b.values[0] + 0.001) < 1e-10
        assert np.all(b.grad == 0)

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2 = 0.01, nn.ADAM_BETA1, nn.ADAM_BETA2
        b = nn.make_block("p", (1,))
        params = nn.ParamSet([b])
        g = 0.7
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + nn.ADAM_EPS)
            b.grad[...] = g
            nn.adam_step(params, lr)
        assert abs(b.values[0] - x) < 1e-14

    def test_nonfinite_gradient_names_block(self):
        b = nn.make_block("layer7/bias", (2,))
        b.grad[...] = [np.nan, 0.0]
        with pytest.raises(nn.NonFiniteGradient, match="layer7/bias"):
            nn.adam_step(nn.ParamSet([b]), 1e-3)

    def test_nonfinite_gradient_names_first_bad_block_of_a_set(self):
        m = nn.Mlp("m", [3, 4, 4, 2], seed=1)
        params = nn.ParamSet(m.blocks())
        params.grad[...] = 0.5
        params.adam_m[...] = 0.25
        params.adam_v[...] = 0.125
        m.layers[2].w.grad[1, 0] = np.inf
        m.layers[1].b.grad[2] = np.nan
        before = {a: getattr(params, a).copy() for a in ("values", "grad", "adam_m", "adam_v")}
        with pytest.raises(nn.NonFiniteGradient, match="^non-finite gradient in block 'm/L1/b'$"):
            nn.adam_step(params, 1e-3)
        # nothing moved: not the sound blocks, not the gradients, not the step count
        for attr, vec in before.items():
            assert np.array_equal(getattr(params, attr), vec, equal_nan=True), attr
        assert params.step_count == 0

    def test_zero_grads_clears_only_the_given_blocks(self):
        params = nn.ParamSet(nn.Mlp("m", [2, 3, 1], seed=0).blocks())
        params.grad[...] = 1.0
        nn.zero_grads(params.blocks[:2])
        assert [bool(np.all(b.grad == 0.0)) for b in params.blocks] == [True, True, False, False]
        nn.zero_grads(params.blocks)
        assert np.all(params.grad == 0.0)


def reference_adam_step(state, lr):
    """The per-block Adam update that flat parameter sets replaced, kept as
    the reference they must reproduce bit for bit: each block's arrays are
    updated alone, by one expression each."""
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    for s in state.values():
        t = s["t"] + 1
        s["m"] = b1 * s["m"] + (1.0 - b1) * s["grad"]
        s["v"] = b2 * s["v"] + (1.0 - b2) * s["grad"] ** 2
        m_hat = s["m"] / (1.0 - b1**t)
        v_hat = s["v"] / (1.0 - b2**t)
        s["values"] = s["values"] - lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)
        s["t"] = t


def make_owner(kind, d):
    if kind == "recommender":
        return RecommenderAgent(d.n_users, d.n_items, 4, 8, 3, seed=1, hidden=(6,))
    if kind == "selector":
        return SelectorAgent(d.n_items, 8, 4, 6, 3, seed=2, layers=2, hidden=(6,))
    return WorldModelMember(d.users, d.items, 4, (6,), seed=3, index=0)


@pytest.mark.parametrize("kind", ["recommender", "selector", "wm_member"])
def test_flat_adam_equals_per_block_reference(kind, tiny_dataset):
    owner = make_owner(kind, tiny_dataset)
    blocks = owner.blocks()
    lr = 3e-3
    ref = {
        b.name: {"values": b.values.copy(), "m": b.adam_m.copy(), "v": b.adam_v.copy(), "t": 0}
        for b in blocks
    }
    rng = nn.rng_stream(4, "grads", kind)
    for _ in range(6):
        for b in blocks:
            # magnitudes from 1e-8 to 10, both signs, some exact zeros
            g = rng.choice([-1.0, 0.0, 1.0, 1.0], size=b.values.shape)
            g *= 10.0 ** rng.uniform(-8.0, 1.0, size=b.values.shape)
            b.grad[...] = g
            ref[b.name]["grad"] = g
        nn.adam_step(owner.params, lr)
        reference_adam_step(ref, lr)
        for b in blocks:
            r = ref[b.name]
            assert np.array_equal(b.values, r["values"]), b.name
            assert np.array_equal(b.adam_m, r["m"]), b.name
            assert np.array_equal(b.adam_v, r["v"]), b.name
            assert owner.params.step_count == r["t"]
    assert np.all(owner.params.grad == 0.0)


STEP_RANGE = "expected an integer in [0, 2**63)"


class TestFragments:
    def test_round_trip_bit_exact(self):
        rng = nn.rng_stream(0, "frag")
        m = nn.Mlp("m", [3, 5, 2], seed=13)
        params = nn.ParamSet(m.blocks())
        params.adam_m[...] = rng.normal(size=params.adam_m.shape)
        params.adam_v[...] = rng.random(size=params.adam_v.shape)
        params.step_count = 17
        state = nn.block_state(params)
        assert all(state[f"{b.name}:step_count"] == 17 for b in m.blocks())
        buf = io.BytesIO()
        nn.write_fragment(buf, state)
        buf.seek(0)
        loaded = nn.read_fragment(buf)
        m2 = nn.Mlp("m", [3, 5, 2], seed=99)
        params2 = nn.ParamSet(m2.blocks())
        nn.load_block_state([params2], loaded, "buffer")
        for a, b in zip(m.blocks(), m2.blocks()):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.adam_m, b.adam_m)
            assert np.array_equal(a.adam_v, b.adam_v)
        assert params2.step_count == 17

    def test_each_set_keeps_its_own_step_count(self):
        sets = [nn.ParamSet(nn.Mlp(name, [2, 3, 1], seed=1).blocks()) for name in "ab"]
        sets[0].step_count, sets[1].step_count = 4, 9
        state = nn.block_state(*sets)
        fresh = [nn.ParamSet(nn.Mlp(name, [2, 3, 1], seed=2).blocks()) for name in "ab"]
        nn.load_block_state(fresh, state, "ckpt")
        assert [p.step_count for p in fresh] == [4, 9]
        for old, new in zip(sets, fresh):
            assert np.array_equal(old.values, new.values)

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
        with pytest.raises(ValueError, match="^ckpt: missing record m/L0/W:values$"):
            nn.load_block_state([nn.ParamSet(m.blocks())], {}, "ckpt")

    @pytest.mark.parametrize("key, value, message", [
        ("m/L0/b:step_count", None, "missing record m/L0/b:step_count"),
        ("m/L0/W:adam_v", np.zeros((3, 2)), "m/L0/W:adam_v has shape (3, 2), expected (2, 2)"),
        ("m/L0/b:step_count", np.zeros(2, dtype=np.int64),
         "m/L0/b:step_count has shape (2,), expected ()"),
        ("m/L0/W:values", np.array([[0.0, 1.0], [np.nan, 2.0]]),
         "m/L0/W:values holds a value that is not finite"),
        ("m/L0/b:adam_v", np.array([0.0, -np.inf]), "m/L0/b:adam_v holds a value that is not finite"),
        ("m/L0/b:adam_m", np.array(["0.5", "1"]), "m/L0/b:adam_m has dtype <U3, expected float"),
        # a cast would load 2.5 as 2, and NaN or 1e30 as -2**63 with a RuntimeWarning
        ("m/L0/b:step_count", 2.5, f"m/L0/b:step_count is 2.5 of dtype float64, {STEP_RANGE}"),
        ("m/L0/b:step_count", -3, f"m/L0/b:step_count is -3 of dtype int64, {STEP_RANGE}"),
        ("m/L0/b:step_count", np.nan, f"m/L0/b:step_count is nan of dtype float64, {STEP_RANGE}"),
        ("m/L0/b:step_count", 1e30, f"m/L0/b:step_count is 1e+30 of dtype float64, {STEP_RANGE}"),
        ("m/L0/b:step_count", "x", f"m/L0/b:step_count is 'x' of dtype <U1, {STEP_RANGE}"),
    ])
    def test_bad_record_names_the_source(self, key, value, message):
        params = nn.ParamSet(nn.Mlp("m", [2, 2], seed=0).blocks())
        state = nn.block_state(params)
        if value is None:
            del state[key]
        else:
            state[key] = value
        with pytest.raises(ValueError) as info:
            nn.load_block_state([params], state, "ckpt")
        assert str(info.value) == f"ckpt: {message}"

    def test_step_count_of_any_integer_dtype_loads(self):
        params = nn.ParamSet(nn.Mlp("m", [2, 2], seed=0).blocks())
        state = nn.block_state(params)
        for b, value in zip(params.blocks, (np.int32(7), np.uint64(7))):
            state[f"{b.name}:step_count"] = value
        nn.load_block_state([params], state, "ckpt")
        assert params.step_count == 7
