import numpy as np
import pytest

from darlr import dataset as ds
from darlr import worldmodel as wmod


@pytest.fixture(scope="session")
def tiny_dataset():
    spec = ds.SyntheticSpec(users=20, items=30, categories=5, log_density=0.2, seed=7)
    return ds.generate_synthetic(spec)


@pytest.fixture(scope="session")
def tiny_wm(tiny_dataset):
    return wmod.train_world_model(
        tiny_dataset, wmod.WorldModelConfig(members=2, epochs=30, batch=64, lr=3e-3, seed=3)
    )


@pytest.fixture(scope="session")
def tiny_matrix(tiny_wm):
    from darlr.engine import ShapedRewardMatrix

    pm = wmod.predict_matrix(tiny_wm)
    return ShapedRewardMatrix(pm.mean, 0.0, 1.0)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))
