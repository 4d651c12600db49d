import tracemalloc

import numpy as np
import pytest

from pointlabel import blocks as blk
from pointlabel import network
from pointlabel.io import PointCloud


def toy_architecture(in_width=9, n_classes=3):
    """Small network used across tests: 5 encoder layers and a 2+1 layer
    head, same layout as the default widths but cheap to run."""
    return network.default_architecture(
        in_width, n_classes, encoder_widths=(8, 8, 16, 16, 32),
        head_widths=(16, 8))


def toy_params(in_width=9, n_classes=3, seed=0, dtype=np.float32):
    enc, head = toy_architecture(in_width, n_classes)
    rng = np.random.default_rng(seed)
    params = network.init_params(enc, head, rng)
    if dtype != np.float32:
        params = network.params_astype(params, dtype)
    return params


def traced(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) under tracemalloc; returns (its result,
    bytes still allocated when it returned, peak bytes while it ran),
    counting only what the call allocated."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def strata_scene(n_points=600, seed=0, extent=12.0):
    """Synthetic labeled scene with three separable height/spectral
    strata, spectrally attributed and ready for blocking."""
    rng = np.random.default_rng(seed)
    n_per = n_points // 3
    xyz, spectral, labels = [], [], []
    for cls, (z0, tone) in enumerate([(0.0, 40.0), (5.0, 130.0), (10.0, 220.0)]):
        xy = rng.uniform(0.0, extent, size=(n_per, 2))
        z = rng.uniform(z0, z0 + 1.0, size=(n_per, 1))
        xyz.append(np.concatenate([xy, z], axis=1))
        spectral.append(np.clip(
            tone + rng.normal(0.0, 8.0, size=(n_per, 3)), 0.0, 255.0))
        labels.append(np.full(n_per, cls, dtype=np.int32))
    return PointCloud(np.concatenate(xyz), np.concatenate(spectral),
                      np.concatenate(labels))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def scene():
    return strata_scene()


def blocks_for(cloud, size=6.0, overlap=2.0, count=64, seed=0, training=True):
    sc = type("S", (), {"size": size, "overlap": overlap, "sample_count": count})
    return blk.build_blocks(cloud, [sc], seed, training=training)
