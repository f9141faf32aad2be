"""Training bits and bundle bytes pinned to recorded digests.

Refactors of the rollout, the replay or the optimiser must leave every
trained number as it was. This test trains every variant on a small
synthetic environment (14 users x 12 items) and hashes what training
produces: both agents' parameters, Adam moments and step counts, the
reward matrix, the metrics rows and the reward parts. Refactors of the
checkpoint path must leave every byte that `save_bundle` writes as it
was; `BUNDLE_DIGEST` hashes each file of one small run's bundle. A
change that is meant to alter training bits (a new summation order, a
new default) or bundle bytes (a new record, a new layout) updates
`TRAINING_DIGEST` or `BUNDLE_DIGEST` and says so, with the reason, in
CHANGES.md.

The digests hold for one set of BLAS kernels: other kernels sum a matmul's
products in another order, so every trained number moves in its last bits.
They were recorded with numpy's bundled OpenBLAS on its `SkylakeX` kernels,
and a failure names the kernels in use, so that a host whose OpenBLAS picks
others reads differently from a change in the program.
"""

import ctypes
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from darlr import dataset as ds
from darlr import engine
from darlr import worldmodel as wmod

TRAINING_DIGEST = "c2ff24f0aba89c5b02b1f551820fc6417e12aec788bb7cacde86b4a64d12035c"
BUNDLE_DIGEST = "5207dbdc0a104169c20fa08a1d86f221cb48e18583a48b9f3311ccb781a195bf"
BUNDLE_FILES = (
    "config.json", "matrix.frag", "metrics.csv", "recommender.frag", "selector.frag",
    "worldmodel.ckpt",
)
RECORDED_CORE = "SkylakeX"  # the OpenBLAS kernel set the two digests were recorded with


def openblas_core():
    """The kernel set numpy's bundled OpenBLAS uses in this process, as its
    `scipy_openblas_get_corename64_` names it; "unknown" where the library
    or the symbol is missing."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernels_note():
    return f"OpenBLAS core in use: {openblas_core()}; the digest was recorded on {RECORDED_CORE}"


@pytest.fixture(scope="module")
def env():
    spec = ds.SyntheticSpec(users=14, items=12, categories=4, log_density=0.4, seed=11)
    d = ds.generate_synthetic(spec)
    cfg = wmod.WorldModelConfig(members=2, epochs=3, batch=16, seed=11)
    return d, wmod.train_world_model(d, cfg)


def training_digest(d, wm):
    h = hashlib.sha256()
    for variant, layers, w_sel in itertools.product(engine.VARIANTS, (0, 2), (1, 3, 6)):
        result = engine.train(d, wm, engine.TrainSettings(
            variant=variant, encoder_layers=layers, w_sel=w_sel, k_sel=5, candidate_pool=8,
            d_model=8, d_pref=6, d_emb=4, hidden=(8,), epochs=2, trajectories_per_epoch=3,
            eval_episodes=4, seed=5,
        ))
        for agent in (result.rec_agent, result.sel_agent):
            p = agent.params
            for vec in (p.values, p.adam_m, p.adam_v):
                h.update(np.ascontiguousarray(vec, dtype="<f8").tobytes())
            h.update(str(p.step_count).encode())
        h.update(np.ascontiguousarray(result.matrix.current, dtype="<f8").tobytes())
        h.update(repr((result.metrics_rows, result.parts_log, result.steps_total)).encode())
    return h.hexdigest()


def test_training_bits_match_the_recorded_digest(env):
    assert training_digest(*env) == TRAINING_DIGEST, kernels_note()


def bundle_digest(d, wm, out):
    result = engine.train(d, wm, engine.TrainSettings(
        k_sel=5, candidate_pool=8, d_model=8, d_pref=6, d_emb=4, hidden=(8,), epochs=2,
        trajectories_per_epoch=3, eval_episodes=4, seed=5,
    ))
    engine.save_bundle(out, result, wm)
    assert sorted(p.name for p in out.iterdir()) == list(BUNDLE_FILES)
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def test_bundle_bytes_match_the_recorded_digest(env, tmp_path):
    assert bundle_digest(*env, tmp_path / "bundle") == BUNDLE_DIGEST, kernels_note()


def test_the_kernel_note_names_both_cores():
    assert openblas_core() != ""
    assert kernels_note() == f"OpenBLAS core in use: {openblas_core()}; the digest was recorded on SkylakeX"
