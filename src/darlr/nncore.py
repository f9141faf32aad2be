"""Differentiable building blocks shared by the agents and the world model.

Everything is double-precision numpy with explicit forward tapes and
hand-written backward passes, so every gradient in the project can be
verified against central finite differences. No general autodiff graph:
each block knows how to push gradients through itself and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_LN_EPS = 1e-5


def rng_stream(seed, *tags):
    """Independent Generator derived from a root seed plus hashable tags.

    Strings are folded through blake2b so streams are stable across runs
    and platforms; integers pass through directly.
    """
    words = [int(seed) & _MASK64]
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            words.append(int(tag) & _MASK64)
        else:
            digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=8).digest()
            words.append(int.from_bytes(digest, "little"))
    return np.random.default_rng(np.random.SeedSequence(words))


class NonFiniteGradient(ValueError):
    """Raised by adam_step when a block's gradient contains inf or nan."""


class ParamBlock:
    """A named dense parameter array with its gradient and Adam buffers.

    A block owns its four arrays until a ParamSet joins it; they are then
    reshaped views into the set's flat vectors: write into them, never
    rebind them.
    """

    def __init__(self, name, values):
        self.name = name
        self.values = values
        self.grad = np.zeros(values.shape)
        self.adam_m = np.zeros(values.shape)
        self.adam_v = np.zeros(values.shape)


class ParamSet:
    """Flat values, grad, adam_m and adam_v vectors shared by a list of blocks.

    The blocks' arrays are copied into the vectors, in block order, and
    rebound to reshaped views of them; the blocks then belong to this set
    alone. Adam steps a set as a whole, with one step count, which starts
    at 0: join blocks before training them.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.step_count = 0
        offsets = np.cumsum([0] + [b.values.size for b in self.blocks])
        shapes = [b.values.shape for b in self.blocks]
        # one vector at a time, so each block's old arrays go as it fills
        for attr in ("values", "grad", "adam_m", "adam_v"):
            flat = np.concatenate([getattr(b, attr).reshape(-1) for b in self.blocks])
            setattr(self, attr, flat)
            for b, shape, lo, hi in zip(self.blocks, shapes, offsets[:-1], offsets[1:]):
                setattr(b, attr, flat[lo:hi].reshape(shape))


def make_block(name, shape, rng=None, fan=None):
    """Create a ParamBlock, to be joined to its owner's ParamSet.

    With an rng, values are uniform(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)); `fan` overrides the fan pair inferred from the first and
    last axes. Without an rng the block starts at zero (biases, norms).
    """
    shape = tuple(int(s) for s in shape)
    if rng is None:
        values = np.zeros(shape)
    else:
        if fan is None:
            if len(shape) >= 2:
                fan = (shape[0], shape[-1])
            else:
                fan = (1, shape[0])
        a = math.sqrt(6.0 / (fan[0] + fan[1]))
        values = rng.uniform(-a, a, size=shape)
    return ParamBlock(name, values)


def zero_grads(blocks):
    for b in blocks:
        b.grad[...] = 0.0


# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, lr):
    """Bias-corrected Adam update of one ParamSet in place, at learning rate
    `lr`; gradients are cleared.

    The flat vectors go through the operations of the per-array update
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g**2,
    x = x - lr (m / c1) / (sqrt(v / c2) + eps) in that order, so the set
    gets the bits of stepping each of its blocks alone. A non-finite
    gradient raises NonFiniteGradient naming the first bad block before
    anything changes.
    """
    if not np.isfinite(params.grad).all():
        bad = next(b for b in params.blocks if not np.isfinite(b.grad).all())
        raise NonFiniteGradient(f"non-finite gradient in block '{bad.name}'")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    t = params.step_count + 1
    m, v, g = params.adam_m, params.adam_v, params.grad
    tmp = g * (1.0 - b1)
    m *= b1
    m += tmp
    np.square(g, out=tmp)
    tmp *= 1.0 - b2
    v *= b2
    v += tmp
    np.divide(v, 1.0 - b2**t, out=tmp)  # tmp: the denominator
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    update = m / (1.0 - b1**t)
    update *= lr
    update /= tmp
    params.values -= update
    g.fill(0.0)
    params.step_count = t


_ORDER_BLOCK = 16  # steps per block of materialised gradient products: it bounds their memory


def add_in_order(grad, parts):
    """grad += parts[0]; grad += parts[1]; ... in that order, in one call: grad into parts[0],
    which it overwrites, then one reduce; one-element rows, which a reduce sums pairwise,
    take one sequential accumulate from grad."""
    if not len(parts):
        return
    if grad.size > 1:
        parts[0] += grad
        np.add.reduce(parts, axis=0, out=grad)
    else:
        grad[...] = np.add.accumulate(np.concatenate([grad[None], parts]), axis=0)[-1]


def _add_products_in_order(grad, x, dy):
    """grad += x[i].T @ dy[i] for each step i of (steps, rows, n) stacks, in order. One-row steps
    onto a zero grad, as an update's backward pass starts, take one einsum, which sums from zero."""
    if x.shape[1] == 1 and not grad.any():
        np.einsum("nia,nib->ab", x, dy, out=grad)
        return
    for lo in range(0, len(x), _ORDER_BLOCK):
        xt, d = x[lo : lo + _ORDER_BLOCK].swapaxes(-1, -2), dy[lo : lo + _ORDER_BLOCK]
        add_in_order(grad, xt * d if x.shape[1] == 1 else xt @ d)  # one row: an outer product


class Linear:
    """Dense layer y = x W + b with gradient accumulation."""

    def __init__(self, name, n_in, n_out, seed):
        self.n_in = n_in
        self.n_out = n_out
        self.w = make_block(f"{name}/W", (n_in, n_out), rng_stream(seed, "init", f"{name}/W"))
        self.b = make_block(f"{name}/b", (n_out,))

    def blocks(self):
        return [self.w, self.b]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_in:
            raise ValueError(f"linear '{self.w.name}': input width {x.shape[-1]} != {self.n_in}")
        return x @ self.w.values + self.b.values, x

    def backward(self, tape, dy):
        """Accumulate gradients of a 2-D batch, or of a 3-D stack of steps summed in order (one-row
        steps onto a zero gradient by an einsum, which sums from zero); other ranks raise ValueError."""
        x = tape
        if x.ndim == 2:
            self.w.grad += x.T @ dy
            self.b.grad += dy.sum(axis=0)
        elif x.ndim == 3:
            _add_products_in_order(self.w.grad, x, dy)
            add_in_order(self.b.grad, dy.sum(axis=1))
        else:
            raise ValueError(f"linear '{self.w.name}': backward of a {x.ndim}-D input, not 2-D or 3-D")
        return dy @ self.w.values.T


class Mlp:
    """Stack of Linear layers with tanh on the hidden layers, linear output."""

    def __init__(self, name, widths, seed):
        if len(widths) < 2:
            raise ValueError("mlp needs at least input and output widths")
        self.name = name
        self.layers = [
            Linear(f"{name}/L{i}", widths[i], widths[i + 1], seed)
            for i in range(len(widths) - 1)
        ]

    def blocks(self):
        out = []
        for layer in self.layers:
            out.extend(layer.blocks())
        return out

    def forward(self, x):
        tapes = []
        h = np.asarray(x, dtype=np.float64)
        for i, layer in enumerate(self.layers):
            z, lt = layer.forward(h)
            if i < len(self.layers) - 1:
                h = np.tanh(z)
                tapes.append((lt, h))
            else:
                h = z
                tapes.append((lt, None))
        return h, tapes

    def backward(self, tapes, dy):
        d = np.asarray(dy, dtype=np.float64)
        for layer, (lt, act) in zip(reversed(self.layers), reversed(tapes)):
            if act is not None:
                d = d * (1.0 - act**2)
            d = layer.backward(lt, d)
        return d


def _layer_norm_forward(x, gain, bias):
    # the same operations as x.mean and x.var, without recentring twice
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + _LN_EPS)
    xhat = xc * inv
    return gain.values * xhat + bias.values, (xhat, inv)


def _layer_norm_backward(cache, gain, bias, dy):
    xhat, inv = cache  # (windows, window, width)
    add_in_order(gain.grad, (dy * xhat).sum(axis=1))
    add_in_order(bias.grad, dy.sum(axis=1))
    dxhat = dy * gain.values
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv


def softmax(z, axis=-1):
    z = z - np.maximum.reduce(z, axis=axis, keepdims=True)  # z.max and e.sum without wrappers
    e = np.exp(z)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


class SeqEncoder:
    """Single-head windowed self-attention encoder over a short token history.

    Sequences shorter than the window are left-padded with a learned start
    token; learned positional offsets are added per window slot. Layers are
    pre-norm (attention then feed-forward, each behind LayerNorm and a
    residual add). The encoding of the last window position is the output.
    """

    def __init__(self, name, width, window, seed, layers=1):
        self.name = name
        self.width = width
        self.window = window
        d = width
        ff = 2 * d

        def blk(tag, shape, fan=None, zero=False):
            full = f"{name}/{tag}"
            rng = None if zero else rng_stream(seed, "init", full)
            return make_block(full, shape, rng, fan=fan)

        self.pos = blk("pos", (window, d))
        self.start = blk("start", (d,), fan=(1, d))
        self.layer_params = []
        for li in range(layers):
            p = {
                "ln1_g": blk(f"l{li}/ln1_g", (d,), zero=True),
                "ln1_b": blk(f"l{li}/ln1_b", (d,), zero=True),
                "wq": blk(f"l{li}/wq", (d, d)),
                "bq": blk(f"l{li}/bq", (d,), zero=True),
                "wk": blk(f"l{li}/wk", (d, d)),
                "bk": blk(f"l{li}/bk", (d,), zero=True),
                "wv": blk(f"l{li}/wv", (d, d)),
                "bv": blk(f"l{li}/bv", (d,), zero=True),
                "wo": blk(f"l{li}/wo", (d, d)),
                "bo": blk(f"l{li}/bo", (d,), zero=True),
                "ln2_g": blk(f"l{li}/ln2_g", (d,), zero=True),
                "ln2_b": blk(f"l{li}/ln2_b", (d,), zero=True),
                "w1": blk(f"l{li}/w1", (d, ff)),
                "b1": blk(f"l{li}/b1", (ff,), zero=True),
                "w2": blk(f"l{li}/w2", (ff, d)),
                "b2": blk(f"l{li}/b2", (d,), zero=True),
            }
            # LayerNorm gains start at one
            p["ln1_g"].values[...] = 1.0
            p["ln2_g"].values[...] = 1.0
            self.layer_params.append(p)

    def blocks(self):
        out = [self.pos, self.start]
        for p in self.layer_params:
            out.extend(p.values())
        return out

    def _matmul(self, x, w):
        """x @ w for x (B, window, n) or (B, 1, n), one BLAS product of `window` rows per window.
        BLAS sums a row in an order set by the product's row count and, on Haswell kernels, by
        the row's place in it, so a one-slot row goes in at the bottom of a window of zeros, the
        place it has in its full window's product."""
        if x.shape[1] == self.window:
            return x @ w
        buf = np.zeros((len(x), self.window, x.shape[2]))
        buf[:, -1:] = x
        return (buf @ w)[:, -1:]

    def forward(self, windows, pad):
        """Encode B left-padded windows (B, window, width) in one pass; `pad`
        (B, window) marks the start-token slots. Returns (states, tape).

        Only the last slot is read, so the top layer computes keys and values
        for every slot, and the query, attention and feed-forward for the
        last slot alone; its tape holds those with one slot."""
        x = np.where(pad[..., None], self.start.values, windows) + self.pos.values
        scale = 1.0 / math.sqrt(self.width)
        layer_tapes = []
        for p in self.layer_params:
            n1, ln1_cache = _layer_norm_forward(x, p["ln1_g"], p["ln1_b"])
            k, v = (n1 @ p[f"w{c}"].values + p[f"b{c}"].values for c in "kv")
            if p is self.layer_params[-1]:  # the top layer: the last slot alone from here
                x = x[:, -1:]
            q = self._matmul(n1[:, -x.shape[1] :], p["wq"].values) + p["bq"].values
            # einsum, not @: BLAS would sum the products in another order
            attn = softmax(np.einsum("bid,bjd->bij", q, k) * scale, axis=-1)
            ctx = np.einsum("bij,bjd->bid", attn, v)
            x_mid = x + (self._matmul(ctx, p["wo"].values) + p["bo"].values)
            n2, ln2_cache = _layer_norm_forward(x_mid, p["ln2_g"], p["ln2_b"])
            a1 = np.tanh(self._matmul(n2, p["w1"].values) + p["b1"].values)
            x = x_mid + (self._matmul(a1, p["w2"].values) + p["b2"].values)
            layer_tapes.append(
                {
                    "n1": n1, "ln1": ln1_cache, "q": q, "k": k, "v": v, "attn": attn,
                    "ctx": ctx, "n2": n2, "ln2": ln2_cache, "a1": a1,
                }
            )
        return x[:, -1].copy(), {"pad": pad, "layers": layer_tapes}

    def backward_batch(self, tape, ds):
        """Push gradients at the B states (B, width) back to every window slot.

        Accumulates parameter gradients window by window in batch order. A
        layer's gradient takes the window's width only at its keys, values
        and first LayerNorm; the rest spans the slots its tape holds.
        """
        scale = 1.0 / math.sqrt(self.width)
        dx = np.zeros(tape["pad"].shape + (self.width,))
        dx[:, -1] = ds
        for p, lt in zip(reversed(self.layer_params), reversed(tape["layers"])):
            n1, dout = lt["n1"], dx[:, -lt["q"].shape[1] :]  # the slots this layer computed
            # feed-forward branch
            dh1 = self._matmul(dout, p["w2"].values.T) * (1.0 - lt["a1"] ** 2)
            for c, x_in, dy in (("2", lt["a1"], dout), ("1", lt["n2"], dh1)):
                _add_products_in_order(p[f"w{c}"].grad, x_in, dy)
                add_in_order(p[f"b{c}"].grad, dy.sum(axis=1))
            dn2 = self._matmul(dh1, p["w1"].values.T)
            dx_mid = dout + _layer_norm_backward(lt["ln2"], p["ln2_g"], p["ln2_b"], dn2)
            # attention branch
            _add_products_in_order(p["wo"].grad, lt["ctx"], dx_mid)
            add_in_order(p["bo"].grad, dx_mid.sum(axis=1))
            dctx = self._matmul(dx_mid, p["wo"].values.T)
            attn = lt["attn"]
            dattn = np.einsum("bid,bjd->bij", dctx, lt["v"])
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dq = np.einsum("bij,bjd->bid", dscores, lt["k"]) * scale
            dk = np.einsum("bij,bid->bjd", dscores, lt["q"]) * scale
            dv = np.einsum("bij,bid->bjd", attn, dctx)
            dn1 = dk @ p["wk"].values.T
            dn1[:, -dq.shape[1] :] += self._matmul(dq, p["wq"].values.T)
            dn1 += dv @ p["wv"].values.T
            for c, dy in (("q", dq), ("k", dk), ("v", dv)):
                _add_products_in_order(p[f"w{c}"].grad, n1[:, -dy.shape[1] :], dy)
                add_in_order(p[f"b{c}"].grad, dy.sum(axis=1))
            dx = _layer_norm_backward(lt["ln1"], p["ln1_g"], p["ln1_b"], dn1)
            dx[:, -dx_mid.shape[1] :] += dx_mid
        add_in_order(self.pos.grad, dx.copy())
        add_in_order(self.start.grad, np.where(tape["pad"][..., None], dx, 0.0).sum(axis=1))
        return dx


class WindowedActorCritic:
    """Token projection, windowed state encoder, actor and critic, as
    `play_episodes` and `replay_forward` use them; the ParamSet holds the
    `first` blocks, then the four layers' blocks in that order. A subclass
    sets `encode_first` (False: an episode's first state is its bare token)
    and gives `replay(episodes)` and `avail(episode)`, the actions selectable
    at an episode's start."""

    def __init__(self, name, n_in, width, n_actions, window, seed, layers, hidden, first=()):
        self.window = window
        self.proj = Linear(f"{name}/proj", n_in, width, seed)
        self.encoder = SeqEncoder(f"{name}/enc", width, window, seed, layers=layers)
        self.actor = Mlp(f"{name}/actor", [width] + list(hidden) + [n_actions], seed)
        self.critic = Mlp(f"{name}/critic", [width] + list(hidden) + [1], seed)
        self.params = ParamSet(
            list(first) + self.proj.blocks() + self.encoder.blocks()
            + self.actor.blocks() + self.critic.blocks()
        )

    def blocks(self):
        return list(self.params.blocks)

    def backward(self, fwd, episodes, dlogits, dvalues):
        """Push the head gradients of a replay `fwd` of `episodes` back
        through encoder and projection.

        Accumulates parameter gradients and returns the gradient at each
        projection input, for a subclass to route into its own tables.
        """
        dstates = self.actor.backward(fwd["a_tape"], np.asarray(dlogits)[:, None])[:, 0]
        dstates += self.critic.backward(fwd["c_tape"], np.asarray(dvalues)[:, None])[:, 0]
        rows = fwd["rows"]
        dwindows = self.encoder.backward_batch(fwd["enc_tape"], dstates[rows])
        dtokens = dstates.copy()  # a bare first token keeps its state's gradient
        dtokens[rows] = 0.0
        keep = ~fwd["enc_tape"]["pad"]
        np.add.at(dtokens, fwd["index"][keep], dwindows[keep])
        return self.proj.backward(fwd["tok_tape"], dtokens[:, None])[:, 0]


def play_episodes(agent, inputs, masks, step, supply=None):
    """Play one episode per row of `inputs`, each its first projection input,
    in lockstep; `masks` (N, n_actions) marks the actions each may take.

    Each step makes one projection and one actor pass on (N, 1, width)
    stacks and one encoder pass over the live episodes' left-padded windows,
    so every episode gets the bits of being played alone and of
    `replay_forward` (as there, where the agent's `encode_first` is False an
    episode's first state is its bare first token). Then
    `step(rows, states, z, t)` gets the live episodes' rows, states and
    logits with their spent actions at -inf, and their 1-based step numbers
    (an int array); it returns one action, one next projection input (an
    array row) and one done flag (a bool) per live episode; an action out
    of range or spent raises ValueError. An episode ends when done or when
    no action is left. When k episodes end, `supply(k)`, if given, returns
    the first inputs and the masks of up to k more, which take the freed
    rows: at most N are live at once. Rows number the episodes in the
    order they started.
    """
    masks = np.array(masks, dtype=bool)
    n_actions, window, allowed = masks.shape[1], agent.window, masks.sum(axis=1)
    rows = pos = np.arange(len(masks))  # pos: the live episodes' positions in the arrays below
    # at step t an episode's window holds min(t, window) tokens
    windows = np.zeros((len(rows), window, agent.encoder.width))
    slots, t, started = np.arange(window), np.zeros(len(rows), dtype=np.int64), len(rows)
    while len(rows):
        t += 1
        tokens, _ = agent.proj.forward(inputs[:, None])
        windows = np.concatenate([windows[:, 1:], tokens], axis=1)
        if agent.encode_first or t.min() > 1:
            states, _ = agent.encoder.forward(windows, slots < window - t[:, None])
        else:  # an episode's first state is its bare first token
            states, enc = tokens[:, 0].copy(), t > 1
            if enc.any():
                states[enc], _ = agent.encoder.forward(windows[enc], slots < window - t[enc, None])
        logits, _ = agent.actor.forward(states[:, None])
        z = np.where(masks, logits[:, 0], -np.inf)
        actions, inputs, done = step(rows, states, z, t)
        picked = np.asarray(actions).tolist()
        if min(picked) < 0 or max(picked) >= n_actions or not masks[pos, actions].all():
            raise ValueError(f"action out of range [0, {n_actions}) or already spent: {picked}")
        masks[pos, actions] = False
        live = allowed > t  # each live episode has spent t distinct actions
        live[done] = False
        if not live.all():
            rows, windows, masks, inputs, t, allowed = (
                a[live] for a in (rows, windows, masks, inputs, t, allowed)
            )
            new_inputs, new = supply(len(live) - len(rows)) if supply else (None, ())
            if len(new):
                new, n = np.array(new, dtype=bool), len(new)
                rows = np.concatenate([rows, np.arange(started, started + n)])
                windows = np.concatenate([windows, np.zeros((n,) + windows.shape[1:])])
                masks, inputs = np.concatenate([masks, new]), np.concatenate([inputs, new_inputs])
                t = np.concatenate([t, np.zeros(n, dtype=np.int64)])
                allowed, started = np.concatenate([allowed, new.sum(axis=1)]), started + n
            pos = np.arange(len(rows))


def replay_forward(agent, inputs, lengths):
    """Replay a windowed actor-critic over concatenated episodes, keeping tapes.

    `inputs` stacks the projection inputs of episodes of the given
    `lengths`. The state at step t encodes the episode's last `window`
    tokens up to t, never another episode's; where the agent's
    `encode_first` is False an episode's state 0 is its bare first token.
    One batched pass.
    """
    # Rows pass the dense layers as (N, 1, width) stacks: one matmul per row
    # gives each the bits of the rollout's one-row call.
    tokens, tok_tape = agent.proj.forward(np.asarray(inputs, dtype=np.float64)[:, None])
    tokens = tokens[:, 0]
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)  # episode start of each row
    rows = np.arange(len(tokens))
    if not agent.encode_first:
        rows = rows[rows != first]
    index = rows[:, None] + np.arange(1 - agent.window, 1)
    pad = index < first[rows, None]
    index[pad] = 0
    encoded, enc_tape = agent.encoder.forward(tokens[index], pad)
    states = tokens.copy()
    states[rows] = encoded
    logits, a_tape = agent.actor.forward(states[:, None])
    values, c_tape = agent.critic.forward(states[:, None])
    return {
        "tok_tape": tok_tape, "states": states, "rows": rows,
        "index": index, "enc_tape": enc_tape, "logits": logits[:, 0], "a_tape": a_tape,
        "values": values[:, 0], "c_tape": c_tape,
    }


def sample_rows(z, rngs):
    """Sample one action per row of masked logits `z` (N, n), row k with rngs[k].

    Masked-out entries hold -inf and get probability exactly zero. Each row
    draws one `random()` and takes the first entry whose cumulative
    probability exceeds it (`searchsorted`, side="right"); a draw past the
    last cdf entry takes the last entry, and a pick of a zero-probability
    entry walks back to the nearest selectable one before it. Returns (actions, probs).
    """
    probs = softmax(z)
    actions = []
    for p, cdf, rng in zip(probs, np.add.accumulate(probs, axis=-1), rngs):  # np.cumsum, unwrapped
        action = min(int(cdf.searchsorted(rng.random(), side="right")), len(p) - 1)
        while p[action] == 0.0:
            action -= 1
        actions.append(action)
    return np.array(actions), probs


# --- checkpoint fragments -------------------------------------------------

def block_state(*sets):
    """Flatten parameter sets into a {name: array-or-int} state mapping:
    four records per block, its `step_count` that of its set."""
    state = {}
    for params in sets:
        for b in params.blocks:
            state[f"{b.name}:values"] = b.values
            state[f"{b.name}:adam_m"] = b.adam_m
            state[f"{b.name}:adam_v"] = b.adam_v
            state[f"{b.name}:step_count"] = params.step_count
    return state


def check_finite_floats(where, key, value):
    """Raise ValueError naming `where` and `key` unless `value` is a float
    array of finite numbers."""
    if value.dtype.kind != "f":
        raise ValueError(f"{where}: {key} has dtype {value.dtype}, expected float")
    if not np.isfinite(value).all():
        raise ValueError(f"{where}: {key} holds a value that is not finite")


def load_block_state(sets, state, where):
    """Restore parameter sets in place from a state mapping.

    A missing record, one whose shape differs from the block's, an array
    record that is not finite floats, a step count that is not an integer
    in [0, 2**63), or blocks of one set whose step counts disagree raise
    ValueError naming `where`.
    """
    for params in sets:
        steps = []
        for b in params.blocks:
            for suffix, target in (
                ("values", b.values), ("adam_m", b.adam_m), ("adam_v", b.adam_v), ("step_count", None)
            ):
                key = f"{b.name}:{suffix}"
                if key not in state:
                    raise ValueError(f"{where}: missing record {key}")
                value, shape = np.asarray(state[key]), () if target is None else target.shape
                if value.shape != shape:
                    raise ValueError(f"{where}: {key} has shape {value.shape}, expected {shape}")
                if target is not None:
                    check_finite_floats(where, key, value)
                    target[...] = value
                elif value.dtype.kind not in "iu" or not 0 <= value <= np.iinfo(np.int64).max:
                    raise ValueError(
                        f"{where}: {key} is {value.item()!r} of dtype {value.dtype}, "
                        "expected an integer in [0, 2**63)"
                    )
            steps.append(int(value))  # the block's step_count, its last record
            if steps[-1] != steps[0]:
                raise ValueError(
                    f"{where}: blocks of one set disagree on step_count: "
                    f"{params.blocks[0].name} is at {steps[0]}, {b.name} at {steps[-1]}"
                )
        params.step_count = steps[0]


@contextlib.contextmanager
def atomic_open(path, mode="w", newline=None):
    """Open a dot-prefixed temporary file beside `path` for writing.

    When the block ends without error the file is renamed over `path`;
    otherwise it is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_fragment(fh, state):
    """Write a state mapping to a binary file as (name, value) .npy records.

    Each record is a 0-d unicode array holding the name, then the value;
    integers are stored as 0-d int64 arrays. Records are in name order, so
    the same state always gives the same bytes.
    """
    for name in sorted(state):
        v = state[name]
        value = np.int64(v) if isinstance(v, (int, np.integer)) else np.asarray(v)
        np.save(fh, np.str_(name), allow_pickle=False)
        np.save(fh, value, allow_pickle=False)


def read_fragment(fh):
    """Read (name, value) records until EOF into a {name: array} mapping.

    Records are read with `np.lib.format.read_array(allow_pickle=False)`,
    which accepts only the .npy format: no pickle and no zip archive. A
    truncated record, trailing bytes or any other format raises ValueError.
    """
    state = {}
    while True:
        pos = fh.tell()
        if not fh.read(1):
            return state
        fh.seek(pos)
        try:
            name = np.lib.format.read_array(fh, allow_pickle=False)
            value = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError:
            name = None
        if name is None or name.ndim != 0 or name.dtype.kind != "U":
            where = getattr(fh, "name", "input")
            raise ValueError(f"{where} is not a darlr checkpoint fragment (bad record at byte {pos})")
        state[str(name)] = value


# --- finite-difference verification ----------------------------------------

def gradient_check(blocks, loss_fn, backward_fn, step=1e-5, floor=1e-3):
    """Max relative error between analytic gradients and central differences.

    `backward_fn()` must run a full forward+backward over the current
    parameter values and return the scalar loss; `loss_fn()` reruns just
    the forward pass. Both must be deterministic in the parameters.

    The denominator is floored: central differences on a flat direction
    are dominated by subtraction roundoff (~1e-10 for unit-scale losses),
    so gradients below `floor` are compared on an absolute scale. A wrong
    analytic gradient still shows up at O(1) relative error.
    """
    zero_grads(blocks)
    backward_fn()
    analytic = [b.grad.copy() for b in blocks]
    worst = 0.0
    for b, g in zip(blocks, analytic):
        flat = b.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(fd), floor)
            worst = max(worst, abs(gflat[i] - fd) / denom)
    zero_grads(blocks)
    return worst
