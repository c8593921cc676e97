"""Shared small fixtures: tiny encoder pairs and images keep unit tests fast."""
import numpy as np
import pytest

from aetlab.core import AttackConfig
from aetlab.encoders import make_base_encoders


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_pair():
    # 8x8 images, 16-dim embeddings, 64-token vocabulary
    return make_base_encoders(8, 8, 16, 64, seed=5, semantic_rank=4, table_jitter=0.05)


@pytest.fixture
def tiny_image(rng):
    return np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0.0, 1.0)


@pytest.fixture
def tiny_caption():
    return (3, 17, 42, 7)


@pytest.fixture
def fast_cfg():
    return AttackConfig(steps=4, samples=3, scales=(0.5, 1.0), master_seed=9)
