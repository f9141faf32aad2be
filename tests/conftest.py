import ctypes
from pathlib import Path

import numpy as np
import pytest

from darlr import dataset as ds
from darlr import worldmodel as wmod

RECORDED_CORE = "SkylakeX"  # the OpenBLAS kernel set the digest tests were recorded with


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
    """The failure message of a digest test: the core in use and the one its digest was recorded on."""
    return f"OpenBLAS core in use: {openblas_core()}; the digest was recorded on {RECORDED_CORE}"


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
